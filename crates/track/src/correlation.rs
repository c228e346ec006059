//! Thread correlation matrices.
//!
//! §1 of the paper: *"We define thread correlation as the number of pages
//! shared in common between a pair of threads."* The matrix is symmetric;
//! its diagonal holds each thread's own page count (used for map shading
//! and sharing statistics, never for cut costs).

use acorr_mem::AccessMatrix;
use std::fmt;

/// Symmetric matrix of pairwise thread correlations.
///
/// ```
/// use acorr_mem::{AccessMatrix, PageId};
/// use acorr_track::CorrelationMatrix;
/// let mut access = AccessMatrix::new(2, 4);
/// access.record(0, PageId(0));
/// access.record(0, PageId(1));
/// access.record(1, PageId(1));
/// let corr = CorrelationMatrix::from_access(&access);
/// assert_eq!(corr.get(0, 1), 1);
/// assert_eq!(corr.get(0, 0), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrelationMatrix {
    n: usize,
    vals: Vec<u64>,
}

impl CorrelationMatrix {
    /// A zero matrix over `n` threads.
    pub fn zeros(n: usize) -> Self {
        CorrelationMatrix {
            n,
            vals: vec![0; n * n],
        }
    }

    /// Builds the matrix from tracked access bitmaps.
    pub fn from_access(access: &AccessMatrix) -> Self {
        let n = access.num_threads();
        let mut m = CorrelationMatrix::zeros(n);
        for a in 0..n {
            for b in a..n {
                let v = access.shared_pages(a, b) as u64;
                m.set(a, b, v);
            }
        }
        m
    }

    /// Builds a matrix from explicit values (row-major, must be symmetric).
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != n * n` or the data is not symmetric.
    pub fn from_raw(n: usize, vals: Vec<u64>) -> Self {
        assert_eq!(vals.len(), n * n, "matrix must be n x n");
        let m = CorrelationMatrix { n, vals };
        for a in 0..n {
            for b in 0..a {
                assert_eq!(m.get(a, b), m.get(b, a), "matrix must be symmetric");
            }
        }
        m
    }

    /// Parses a matrix from the CSV produced by
    /// [`render_csv`](crate::render_csv): `n` lines of `n` comma-separated
    /// integers.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed cell, ragged row,
    /// or asymmetry.
    pub fn from_csv(csv: &str) -> Result<Self, String> {
        let rows: Vec<&str> = csv.lines().filter(|l| !l.trim().is_empty()).collect();
        let n = rows.len();
        // Grown as rows validate: reserving `n * n` up front would let a
        // tall file of one-cell rows ask for an allocation of its square.
        let mut vals = Vec::new();
        for (r, line) in rows.iter().enumerate() {
            let cells: Vec<&str> = line.split(',').collect();
            if cells.len() != n {
                return Err(format!("row {r} has {} cells, expected {n}", cells.len()));
            }
            for (c, cell) in cells.iter().enumerate() {
                let v: u64 = cell
                    .trim()
                    .parse()
                    .map_err(|e| format!("row {r}, col {c}: {e}"))?;
                vals.push(v);
            }
        }
        let m = CorrelationMatrix { n, vals };
        for a in 0..n {
            for b in 0..a {
                if m.get(a, b) != m.get(b, a) {
                    return Err(format!("asymmetry at ({a},{b})"));
                }
            }
        }
        Ok(m)
    }

    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.n
    }

    /// The correlation of a thread pair (diagonal: own page count).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn get(&self, a: usize, b: usize) -> u64 {
        assert!(a < self.n && b < self.n, "index out of range");
        self.vals[a * self.n + b]
    }

    /// Sets both symmetric entries.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn set(&mut self, a: usize, b: usize, v: u64) {
        assert!(a < self.n && b < self.n, "index out of range");
        self.vals[a * self.n + b] = v;
        self.vals[b * self.n + a] = v;
    }

    /// Accumulates another tracked round into this matrix (elementwise
    /// sum, diagonal included). Partial rounds — per-node shards, or a
    /// re-track split across barrier intervals — therefore combine in any
    /// order: merging is commutative and associative.
    ///
    /// # Panics
    ///
    /// Panics if the matrices cover different thread counts.
    pub fn merge(&mut self, other: &CorrelationMatrix) {
        assert_eq!(self.n, other.n, "matrices must cover the same threads");
        for (v, o) in self.vals.iter_mut().zip(&other.vals) {
            *v += o;
        }
    }

    /// The largest off-diagonal correlation (used to scale map shading).
    pub fn max_off_diagonal(&self) -> u64 {
        let mut max = 0;
        for a in 0..self.n {
            for b in 0..self.n {
                if a != b {
                    max = max.max(self.get(a, b));
                }
            }
        }
        max
    }

    /// Sum of all off-diagonal entries (ordered pairs — the paper's
    /// "`n²` terms").
    pub fn total_correlation(&self) -> u64 {
        let mut sum = 0;
        for a in 0..self.n {
            for b in 0..self.n {
                if a != b {
                    sum += self.get(a, b);
                }
            }
        }
        sum
    }

    /// Iterates over unordered pairs `(a, b, correlation)` with `a < b`.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        (0..self.n).flat_map(move |a| ((a + 1)..self.n).map(move |b| (a, b, self.get(a, b))))
    }
}

impl fmt::Display for CorrelationMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "correlation matrix ({} threads):", self.n)?;
        for a in 0..self.n {
            for b in 0..self.n {
                write!(f, "{:>5}", self.get(a, b))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorr_mem::PageId;
    use acorr_sim::{forall, DetRng};

    fn three_thread_access() -> AccessMatrix {
        let mut m = AccessMatrix::new(3, 8);
        // t0: {0,1,2}, t1: {2,3}, t2: {0,2,3,4}
        for p in [0, 1, 2] {
            m.record(0, PageId(p));
        }
        for p in [2, 3] {
            m.record(1, PageId(p));
        }
        for p in [0, 2, 3, 4] {
            m.record(2, PageId(p));
        }
        m
    }

    #[test]
    fn from_access_matches_hand_counts() {
        let c = CorrelationMatrix::from_access(&three_thread_access());
        assert_eq!(c.get(0, 1), 1); // {2}
        assert_eq!(c.get(0, 2), 2); // {0,2}
        assert_eq!(c.get(1, 2), 2); // {2,3}
        assert_eq!(c.get(0, 0), 3);
        assert_eq!(c.get(2, 2), 4);
        assert_eq!(c.get(1, 0), c.get(0, 1), "symmetric");
    }

    #[test]
    fn totals_and_max() {
        let c = CorrelationMatrix::from_access(&three_thread_access());
        assert_eq!(c.total_correlation(), 2 * (1 + 2 + 2));
        assert_eq!(c.max_off_diagonal(), 2);
        let pairs: Vec<_> = c.pairs().collect();
        assert_eq!(pairs, vec![(0, 1, 1), (0, 2, 2), (1, 2, 2)]);
    }

    #[test]
    fn zeros_and_set() {
        let mut c = CorrelationMatrix::zeros(4);
        assert_eq!(c.total_correlation(), 0);
        c.set(1, 3, 7);
        assert_eq!(c.get(3, 1), 7);
        assert_eq!(c.max_off_diagonal(), 7);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn get_out_of_range_panics() {
        let mut c = CorrelationMatrix::zeros(4);
        c.set(1, 0, 9);
        c.get(0, 4);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn set_out_of_range_panics() {
        CorrelationMatrix::zeros(4).set(0, 4, 9);
    }

    #[test]
    fn from_raw_checks_shape_and_symmetry() {
        let ok = CorrelationMatrix::from_raw(2, vec![0, 5, 5, 0]);
        assert_eq!(ok.get(0, 1), 5);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn from_raw_rejects_asymmetry() {
        CorrelationMatrix::from_raw(2, vec![0, 5, 4, 0]);
    }

    #[test]
    #[should_panic(expected = "n x n")]
    fn from_raw_rejects_bad_shape() {
        CorrelationMatrix::from_raw(2, vec![0, 5, 5]);
    }

    #[test]
    fn merge_accumulates_rounds() {
        let mut a = CorrelationMatrix::from_raw(2, vec![1, 2, 2, 3]);
        let b = CorrelationMatrix::from_raw(2, vec![10, 0, 0, 5]);
        a.merge(&b);
        assert_eq!(a, CorrelationMatrix::from_raw(2, vec![11, 2, 2, 8]));
    }

    #[test]
    #[should_panic(expected = "same threads")]
    fn merge_shape_mismatch_panics() {
        CorrelationMatrix::zeros(2).merge(&CorrelationMatrix::zeros(3));
    }

    #[test]
    fn csv_round_trips() {
        let m = CorrelationMatrix::from_access(&three_thread_access());
        let csv = crate::render_csv(&m);
        let back = CorrelationMatrix::from_csv(&csv).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn from_csv_rejects_garbage() {
        assert!(CorrelationMatrix::from_csv("1,2\n3").is_err(), "ragged");
        assert!(
            CorrelationMatrix::from_csv("1,x\n2,3").is_err(),
            "non-numeric"
        );
        assert!(
            CorrelationMatrix::from_csv("0,1\n2,0").is_err(),
            "asymmetric"
        );
        assert_eq!(CorrelationMatrix::from_csv("").unwrap().num_threads(), 0);
    }

    #[test]
    fn from_csv_rejects_a_tall_file_without_sizing_its_square() {
        // 100,000 one-cell rows once reserved 10^10 cells before the first
        // width check, aborting the process.
        let err = CorrelationMatrix::from_csv(&"0\n".repeat(100_000)).unwrap_err();
        assert!(err.contains("row 0 has 1 cells, expected 100000"), "{err}");
    }

    #[test]
    fn display_prints_grid() {
        let c = CorrelationMatrix::from_raw(2, vec![1, 2, 2, 3]);
        let s = c.to_string();
        assert!(s.contains("2 threads"));
        assert!(s.contains('3'));
    }

    /// Correlation never exceeds either thread's own page count, and the
    /// matrix is symmetric by construction.
    #[test]
    fn bounded_by_diagonal() {
        let touch = |rng: &mut DetRng| (rng.index(6), PageId(rng.next_below(64) as u32));
        let touches = |rng: &mut DetRng| (0..rng.index(200)).map(|_| touch(rng)).collect();
        forall(256, 0, touches, |touches: &Vec<(usize, PageId)>| {
            let mut access = AccessMatrix::new(6, 64);
            for &(t, p) in touches {
                access.record(t, p);
            }
            let c = CorrelationMatrix::from_access(&access);
            for a in 0..6 {
                for b in 0..6 {
                    assert_eq!(c.get(a, b), c.get(b, a));
                    if a != b {
                        assert!(c.get(a, b) <= c.get(a, a));
                        assert!(c.get(a, b) <= c.get(b, b));
                    }
                }
            }
        });
    }
}
