//! Thread correlation matrices.
//!
//! §1 of the paper: *"We define thread correlation as the number of pages
//! shared in common between a pair of threads."* The matrix is symmetric;
//! its diagonal holds each thread's own page count (used for map shading
//! and sharing statistics, never for cut costs).
//!
//! One store serves the paper's 64 threads and the 10⁶-thread scale
//! points. A grid would spend `8·T²` bytes whether threads share or not
//! (8 TB at a million threads), while real sharing is sparse: chains,
//! blocks and a few hot pages. [`CorrelationMatrix`] keeps a dense
//! diagonal and flat CSR rows of the non-zero pairs, mirrored on both
//! endpoints: one `offsets` array of `T + 1` row starts and one `entries`
//! array of `(partner, value)` pairs, each row sorted by partner,
//! coalesced, free of zero values and without gaps. That is `O(T + E)`
//! memory in two allocations however many threads it covers, and `O(deg)`
//! neighbor walks for the partitioners. Every construction path yields the
//! same canonical layout, so the derived equality compares contents.
//!
//! Every full walk is in ascending `(a, b)` order, so every consumer sum
//! and tie-break is reproducible. Element-wise [`set`](CorrelationMatrix::set)
//! splices the flat arrays in `O(E)`; the constructors build whole rows.

use acorr_mem::AccessMatrix;
use std::fmt;

/// The largest cell total [`CorrelationMatrix::from_csv`] accepts:
/// Kernighan-Lin's `i64` gains reach four times the total, and map shading
/// multiplies values by 255. Real page counts are far below it.
const MAX_CSV_TOTAL: u64 = i64::MAX as u64 / 256;

/// Flat CSR rows: row `t` is `entries[offsets[t]..offsets[t + 1]]`, sorted
/// by partner, one entry per partner, no zero values, and mirrored — `u`
/// sits in row `t` exactly when `t` sits in row `u`, with the same value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Rows<V> {
    pub(crate) offsets: Vec<usize>,
    pub(crate) entries: Vec<(u32, V)>,
}

impl<V: Copy> Rows<V> {
    /// `n` empty rows.
    pub(crate) fn empty(n: usize) -> Self {
        Rows {
            offsets: vec![0; n + 1],
            entries: Vec::new(),
        }
    }

    fn row(&self, t: usize) -> &[(u32, V)] {
        &self.entries[self.offsets[t]..self.offsets[t + 1]]
    }

    /// Every row in order; cheaper per row than [`row`](Rows::row).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[(u32, V)]> {
        self.offsets.windows(2).map(|w| &self.entries[w[0]..w[1]])
    }

    /// The value held for partner `b` in row `a`.
    pub(crate) fn find(&self, a: usize, b: usize) -> Option<V> {
        let row = self.row(a);
        let pos = row.binary_search_by_key(&(b as u32), |e| e.0).ok()?;
        Some(row[pos].1)
    }

    /// Number of unordered pairs held (each pair sits in two rows).
    pub(crate) fn pairs(&self) -> usize {
        self.entries.len() / 2
    }

    /// Sets row `a`'s entry for partner `b`, removing it on `None`, and
    /// shifts every later row start: `O(E)`, which only the element-wise
    /// `set`/`add` path pays.
    fn splice(&mut self, a: usize, b: usize, v: Option<V>) {
        let start = self.offsets[a];
        let found = self.row(a).binary_search_by_key(&(b as u32), |e| e.0);
        match (found, v) {
            (Ok(i), Some(v)) => self.entries[start + i].1 = v,
            (Ok(i), None) => {
                self.entries.remove(start + i);
                self.offsets[a + 1..].iter_mut().for_each(|o| *o -= 1);
            }
            (Err(i), Some(v)) => {
                self.entries.insert(start + i, (b as u32, v));
                self.offsets[a + 1..].iter_mut().for_each(|o| *o += 1);
            }
            (Err(_), None) => {}
        }
    }
}

/// The part of row `t` whose partners exceed `t`.
fn upper<V>(row: &[(u32, V)], t: usize) -> &[(u32, V)] {
    &row[row.partition_point(|e| (e.0 as usize) <= t)..]
}

/// Calls `f(partner, mine, theirs)` for every partner in the sorted union
/// of two rows, ascending. Inlined: called from aging.rs as a separate
/// instance, it made the serve loop's window fold about 15% slower.
#[inline]
pub(crate) fn for_each_union<A: Copy, B: Copy>(
    mine: &[(u32, A)],
    theirs: &[(u32, B)],
    mut f: impl FnMut(u32, Option<A>, Option<B>),
) {
    let (mut i, mut j) = (0, 0);
    while i < mine.len() && j < theirs.len() {
        let ((a, va), (b, vb)) = (mine[i], theirs[j]);
        if a == b {
            f(a, Some(va), Some(vb));
            i += 1;
            j += 1;
        } else if a < b {
            f(a, Some(va), None);
            i += 1;
        } else {
            f(b, None, Some(vb));
            j += 1;
        }
    }
    for &(a, va) in &mine[i..] {
        f(a, Some(va), None);
    }
    for &(b, vb) in &theirs[j..] {
        f(b, None, Some(vb));
    }
}

/// Symmetric matrix of pairwise thread correlations: a dense diagonal
/// (own page counts) plus flat CSR rows of each thread's non-zero partners.
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
#[derive(Debug, PartialEq, Eq)]
pub struct CorrelationMatrix {
    n: usize,
    pub(crate) diag: Vec<u64>,
    pub(crate) rows: Rows<u64>,
}

impl Clone for CorrelationMatrix {
    fn clone(&self) -> Self {
        CorrelationMatrix {
            n: self.n,
            diag: self.diag.clone(),
            rows: self.rows.clone(),
        }
    }

    /// Copies into this store's buffers, so copying one window's first
    /// round into the detector's open window allocates nothing once the
    /// buffers are large enough.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.diag.clone_from(&source.diag);
        self.rows.offsets.clone_from(&source.rows.offsets);
        self.rows.entries.clone_from(&source.rows.entries);
    }
}

impl CorrelationMatrix {
    /// A zero matrix over `n` threads, in `O(n)` memory.
    ///
    /// ```
    /// use acorr_track::CorrelationMatrix;
    /// let mut wide = CorrelationMatrix::zeros(1_000_000);
    /// wide.set(3, 999_999, 7);
    /// assert_eq!(wide.get(999_999, 3), 7);
    /// assert_eq!(wide.edge_count(), 1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32` range (the partner index width).
    pub fn zeros(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "thread count exceeds u32 range");
        CorrelationMatrix {
            n,
            diag: vec![0; n],
            rows: Rows::empty(n),
        }
    }

    /// The matrix of a diagonal and canonical rows over as many threads.
    pub(crate) fn from_rows(diag: Vec<u64>, rows: Rows<u64>) -> Self {
        CorrelationMatrix {
            n: diag.len(),
            diag,
            rows,
        }
    }

    /// The matrix whose pair `(a, b)`, `a <= b`, holds `value(a, b)`. The
    /// non-zero pairs `a < b` come out in ascending order, so row `t`
    /// receives its partners below `t` (from pairs `(u, t)`) before those
    /// above it (from pairs `(t, u)`), each group ascending: every row is
    /// written in order, with no sort.
    fn from_upper(n: usize, value: impl Fn(usize, usize) -> u64) -> Self {
        let diag = (0..n).map(|t| value(t, t)).collect();
        let mut pairs = Vec::new();
        let mut offsets = vec![0; n + 1];
        for a in 0..n {
            for b in (a + 1)..n {
                let v = value(a, b);
                if v > 0 {
                    pairs.push((a as u32, b as u32, v));
                    offsets[a + 1] += 1;
                    offsets[b + 1] += 1;
                }
            }
        }
        for t in 0..n {
            offsets[t + 1] += offsets[t];
        }
        let mut next = offsets[..n].to_vec();
        let mut entries = vec![(0, 0); offsets[n]];
        for (a, b, v) in pairs {
            entries[next[a as usize]] = (b, v);
            next[a as usize] += 1;
            entries[next[b as usize]] = (a, v);
            next[b as usize] += 1;
        }
        CorrelationMatrix::from_rows(diag, Rows { offsets, entries })
    }

    /// Builds the matrix from tracked access bitmaps.
    pub fn from_access(access: &AccessMatrix) -> Self {
        CorrelationMatrix::from_upper(access.num_threads(), |a, b| {
            access.shared_pages(a, b) as u64
        })
    }

    /// Builds a matrix from explicit values (row-major, must be symmetric).
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != n * n` or the data is not symmetric.
    pub fn from_raw(n: usize, vals: Vec<u64>) -> Self {
        assert_eq!(vals.len(), n * n, "matrix must be n x n");
        for a in 0..n {
            for b in 0..a {
                assert_eq!(vals[a * n + b], vals[b * n + a], "matrix must be symmetric");
            }
        }
        CorrelationMatrix::from_upper(n, |a, b| vals[a * n + b])
    }

    /// Parses a matrix from the CSV produced by
    /// [`render_csv`](crate::render_csv): `n` lines of `n` comma-separated
    /// integers.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed cell, ragged row,
    /// asymmetry, or a row where the cells' running total passes
    /// `i64::MAX / 256` (far beyond any page count).
    pub fn from_csv(csv: &str) -> Result<Self, String> {
        let rows: Vec<&str> = csv.lines().filter(|l| !l.trim().is_empty()).collect();
        let n = rows.len();
        // Grown as rows validate: reserving `n * n` up front would let a
        // tall file of one-cell rows ask for an allocation of its square.
        let mut vals = Vec::new();
        let mut total = 0u64;
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
                total = total
                    .checked_add(v)
                    .filter(|&t| t <= MAX_CSV_TOTAL)
                    .ok_or_else(|| format!("row {r}: values sum past {MAX_CSV_TOTAL}"))?;
                vals.push(v);
            }
        }
        for a in 0..n {
            for b in 0..a {
                if vals[a * n + b] != vals[b * n + a] {
                    return Err(format!("asymmetry at ({a},{b})"));
                }
            }
        }
        Ok(CorrelationMatrix::from_upper(n, |a, b| vals[a * n + b]))
    }

    /// Builds a matrix from an edge list; duplicate `(a, b)` entries sum,
    /// `(t, t)` entries accumulate onto the diagonal, zero values drop.
    /// The input order is irrelevant (sums commute), so parallel generators
    /// produce identical matrices regardless of chunking.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32, u64)>) -> Self {
        let mut s = CorrelationMatrix::zeros(n);
        // Counting sort into one buffer: count each row's entries, turn the
        // counts into row ends, then fill every row backwards from its end,
        // which leaves `offsets[t]` at the row's start.
        let flat: Vec<(u32, u32, u64)> = edges.into_iter().collect();
        let offsets = &mut s.rows.offsets;
        for &(a, b, v) in &flat {
            let (a, b) = (a as usize, b as usize);
            assert!(a < n && b < n, "edge endpoint out of range");
            if v != 0 && a != b {
                offsets[a] += 1;
                offsets[b] += 1;
            }
        }
        let mut total = 0;
        for o in offsets.iter_mut() {
            total += *o;
            *o = total;
        }
        let mut entries = vec![(0u32, 0u64); total];
        for &(a, b, v) in &flat {
            if v == 0 {
                continue;
            }
            if a == b {
                s.diag[a as usize] += v;
            } else {
                offsets[a as usize] -= 1;
                entries[offsets[a as usize]] = (b, v);
                offsets[b as usize] -= 1;
                entries[offsets[b as usize]] = (a, v);
            }
        }
        drop(flat);
        // Sort each row and coalesce duplicates (sums are order-independent),
        // shifting the rows left over the gaps coalescing leaves.
        let mut out = 0;
        for t in 0..n {
            let (start, end) = (offsets[t], offsets[t + 1]);
            offsets[t] = out;
            entries[start..end].sort_unstable_by_key(|e| e.0);
            for i in start..end {
                if out > offsets[t] && entries[out - 1].0 == entries[i].0 {
                    entries[out - 1].1 += entries[i].1;
                } else {
                    entries[out] = entries[i];
                    out += 1;
                }
            }
        }
        offsets[n] = out;
        entries.truncate(out);
        entries.shrink_to_fit();
        s.rows.entries = entries;
        s
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
        if a == b {
            self.diag[a]
        } else {
            self.rows.find(a, b).unwrap_or(0)
        }
    }

    /// The non-zero partners of `t`, sorted ascending: `(partner, value)`.
    pub fn neighbors(&self, t: usize) -> &[(u32, u64)] {
        self.rows.row(t)
    }

    /// Number of non-zero unordered off-diagonal pairs.
    pub fn edge_count(&self) -> usize {
        self.rows.pairs()
    }

    /// Sum of all off-diagonal entries (ordered pairs — the paper's
    /// "`n²` terms").
    pub fn total_correlation(&self) -> u64 {
        self.rows.entries.iter().map(|e| e.1).sum()
    }

    /// The largest off-diagonal correlation (used to scale map shading).
    pub fn max_off_diagonal(&self) -> u64 {
        self.rows.entries.iter().map(|e| e.1).max().unwrap_or(0)
    }

    /// Visits every non-zero off-diagonal pair once as `(a, b, v)` with
    /// `a < b`, in ascending order.
    pub fn for_each_edge(&self, mut f: impl FnMut(usize, usize, u64)) {
        for (t, row) in self.rows.iter().enumerate() {
            for &(u, v) in upper(row, t) {
                f(t, u as usize, v);
            }
        }
    }

    /// Sets both symmetric entries (zero removes the pair).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn set(&mut self, a: usize, b: usize, v: u64) {
        assert!(a < self.n && b < self.n, "index out of range");
        if a == b {
            self.diag[a] = v;
        } else {
            let v = (v > 0).then_some(v);
            self.rows.splice(a, b, v);
            self.rows.splice(b, a, v);
        }
    }

    /// Adds `v` to both symmetric entries.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn add(&mut self, a: usize, b: usize, v: u64) {
        let cur = self.get(a, b);
        if v > 0 {
            self.set(a, b, cur + v);
        }
    }

    /// Accumulates another tracked round into this matrix (elementwise
    /// sum, diagonal included) by merging sorted rows in `O(T + E₁ + E₂)`.
    /// Partial rounds — per-node shards, or a re-track split across
    /// barrier intervals — therefore combine in any order: merging is
    /// commutative and associative.
    ///
    /// # Panics
    ///
    /// Panics if the matrices cover different thread counts.
    pub fn merge(&mut self, other: &CorrelationMatrix) {
        assert_eq!(self.n, other.n, "matrices must cover the same threads");
        for (d, o) in self.diag.iter_mut().zip(&other.diag) {
            *d += o;
        }
        let mut offsets = Vec::with_capacity(self.n + 1);
        // The union is about as large as the larger input in the serve loop;
        // reserving for the sum of both raised its peak memory by half.
        let mut entries = Vec::with_capacity(self.rows.entries.len().max(other.rows.entries.len()));
        offsets.push(0);
        for (mine, theirs) in self.rows.iter().zip(other.rows.iter()) {
            for_each_union(mine, theirs, |u, a, b| {
                entries.push((u, a.unwrap_or(0) + b.unwrap_or(0)));
            });
            offsets.push(entries.len());
        }
        self.rows = Rows { offsets, entries };
    }
}

impl fmt::Display for CorrelationMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "correlation matrix: {} threads, {} edges",
            self.n,
            self.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aging::AgedCorrelation;
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

    fn edges(c: &CorrelationMatrix) -> Vec<(usize, usize, u64)> {
        let mut seen = Vec::new();
        c.for_each_edge(|a, b, v| seen.push((a, b, v)));
        seen
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
        assert_eq!(edges(&c), vec![(0, 1, 1), (0, 2, 2), (1, 2, 2)]);
        assert_eq!(c.edge_count(), 3);
    }

    #[test]
    fn zeros_and_set() {
        let mut c = CorrelationMatrix::zeros(4);
        assert_eq!(c.total_correlation(), 0);
        c.set(1, 3, 7);
        assert_eq!(c.get(3, 1), 7);
        assert_eq!(c.max_off_diagonal(), 7);
        assert_eq!(c.neighbors(3), &[(1, 7)]);
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
    fn merge_is_commutative() {
        let a = CorrelationMatrix::from_edges(5, vec![(0, 1, 3), (2, 4, 7)]);
        let b = CorrelationMatrix::from_edges(5, vec![(0, 1, 1), (1, 3, 2)]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get(0, 1), 4);
    }

    #[test]
    #[should_panic(expected = "same threads")]
    fn merge_shape_mismatch_panics() {
        CorrelationMatrix::zeros(2).merge(&CorrelationMatrix::zeros(3));
    }

    /// Merging zips the rows, so a smaller store must not merge into the
    /// prefix of a larger one.
    #[test]
    #[should_panic(expected = "same threads")]
    fn merge_of_a_smaller_store_panics() {
        let mut big = CorrelationMatrix::from_edges(3, vec![(0, 2, 4)]);
        big.merge(&CorrelationMatrix::from_edges(2, vec![(0, 1, 1)]));
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
    fn from_csv_rejects_totals_past_the_kernel_range() {
        let max = u64::MAX;
        let err =
            CorrelationMatrix::from_csv(&format!("0,{max},0,0\n{max},0,0,0\n0,0,0,1\n0,0,1,0"))
                .unwrap_err();
        assert!(err.starts_with("row 0: values sum past"), "{err}");
        // The bound itself is accepted; one more page in a later row is not.
        let half = MAX_CSV_TOTAL / 2;
        let rest = MAX_CSV_TOTAL - 2 * half;
        let at = CorrelationMatrix::from_csv(&format!("0,{half}\n{half},{rest}")).unwrap();
        assert_eq!(at.total_correlation() + at.get(1, 1), MAX_CSV_TOTAL);
        let over = format!("0,{half}\n{half},{}", rest + 1);
        let err = CorrelationMatrix::from_csv(&over).unwrap_err();
        assert!(err.starts_with("row 1: values sum past"), "{err}");
    }

    #[test]
    fn display_summarizes() {
        let c = CorrelationMatrix::from_raw(2, vec![1, 2, 2, 3]);
        assert_eq!(c.to_string(), "correlation matrix: 2 threads, 1 edges");
    }

    /// A grid would be 10¹² cells here; the summary stays one line.
    #[test]
    fn display_is_one_line_at_a_million_threads() {
        let wide = CorrelationMatrix::from_edges(1_000_000, vec![(3, 999_999, 7)]);
        assert_eq!(
            wide.to_string(),
            "correlation matrix: 1000000 threads, 1 edges"
        );
    }

    #[test]
    fn set_get_add_and_removal() {
        let mut s = CorrelationMatrix::zeros(5);
        s.set(1, 4, 9);
        s.add(4, 1, 1);
        assert_eq!(s.get(1, 4), 10);
        assert_eq!(s.edge_count(), 1);
        s.set(4, 1, 0);
        assert_eq!(s.get(1, 4), 0);
        assert_eq!(s.edge_count(), 0, "zero removes the pair");
        s.set(2, 2, 5);
        assert_eq!(s.get(2, 2), 5);
    }

    #[test]
    fn from_edges_aggregates_in_any_order() {
        let fwd = CorrelationMatrix::from_edges(4, vec![(0, 1, 2), (1, 0, 3), (2, 3, 1)]);
        let rev = CorrelationMatrix::from_edges(4, vec![(2, 3, 1), (0, 1, 3), (0, 1, 2)]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.get(0, 1), 5);
        assert_eq!(edges(&fwd), vec![(0, 1, 5), (2, 3, 1)]);
    }

    #[test]
    fn from_edges_layout_equals_set_on_duplicates_self_edges_and_zeros() {
        let edges = vec![
            (2, 0, 3),
            (0, 2, 4),
            (1, 1, 5),
            (3, 1, 0),
            (4, 3, 6),
            (1, 1, 2),
            (3, 4, 1),
            (0, 4, 0),
            (2, 0, 1),
            (4, 4, 0),
        ];
        let built = CorrelationMatrix::from_edges(5, edges.clone());
        let mut set = CorrelationMatrix::zeros(5);
        set.set(0, 2, 8);
        set.set(1, 1, 7);
        set.set(3, 4, 7);
        assert_eq!(built, set);
        let mut added = CorrelationMatrix::zeros(5);
        for (a, b, v) in edges {
            added.add(a as usize, b as usize, v);
        }
        assert_eq!(built, added);
    }

    #[test]
    fn clone_from_matches_clone() {
        let big = CorrelationMatrix::from_edges(6, vec![(0, 1, 3), (2, 5, 7), (4, 4, 2)]);
        let mut copy = CorrelationMatrix::from_edges(6, vec![(1, 3, 9)]);
        copy.clone_from(&big);
        assert_eq!(copy, big);
        let mut smaller = CorrelationMatrix::zeros(2);
        smaller.clone_from(&big);
        assert_eq!(smaller, big, "the copy adopts the source's size");
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

    /// The oracle: a plain row-major grid, and exponential aging over it
    /// composed from merge, snapshot, delta and observe.
    #[derive(Clone)]
    struct Grid {
        n: usize,
        vals: Vec<u64>,
    }

    impl Grid {
        fn set(&mut self, a: usize, b: usize, v: u64) {
            self.vals[a * self.n + b] = v;
            self.vals[b * self.n + a] = v;
        }

        fn merge(&mut self, other: &Grid) {
            self.vals
                .iter_mut()
                .zip(&other.vals)
                .for_each(|(v, o)| *v += o);
        }

        /// Normalized L1 divergence over the pairs `a < b`.
        fn delta(&self, other: &Grid) -> f64 {
            let (mut diff, mut mass) = (0u64, 0u64);
            for a in 0..self.n {
                for b in (a + 1)..self.n {
                    let (x, y) = (self.vals[a * self.n + b], other.vals[a * self.n + b]);
                    diff += x.abs_diff(y);
                    mass += x + y;
                }
            }
            if mass == 0 {
                0.0
            } else {
                (diff as f64 / mass as f64).min(1.0)
            }
        }

        fn store(&self) -> CorrelationMatrix {
            CorrelationMatrix::from_raw(self.n, self.vals.clone())
        }
    }

    struct AgedGrid {
        decay: f64,
        vals: Vec<f64>,
        rounds: usize,
    }

    impl AgedGrid {
        fn observe(&mut self, round: &Grid) {
            for (v, &r) in self.vals.iter_mut().zip(&round.vals) {
                *v = *v * self.decay + r as f64;
            }
            self.rounds += 1;
        }

        fn snapshot(&self, n: usize) -> Grid {
            let weight: f64 = (0..self.rounds).map(|r| self.decay.powi(r as i32)).sum();
            let scale = if weight > 0.0 { 1.0 / weight } else { 0.0 };
            let vals = self
                .vals
                .iter()
                .map(|v| (v * scale).round() as u64)
                .collect();
            Grid { n, vals }
        }
    }

    /// Splits every cell of `g` at random between an open part and a last
    /// round (`g` whole as the last round when the split has no open part).
    fn random_split(rng: &mut DetRng, g: &Grid) -> (Option<Grid>, Grid) {
        if rng.next_below(4) == 0 {
            return (None, g.clone());
        }
        let (mut open, mut last) = (g.clone(), g.clone());
        for a in 0..g.n {
            for b in a..g.n {
                let v = g.vals[a * g.n + b];
                let part = rng.next_below(v + 1);
                open.set(a, b, part);
                last.set(a, b, v - part);
            }
        }
        (Some(open), last)
    }

    /// Mirrors a random set/add/merge/fold stream into the CSR stores and
    /// the grid oracle, checking every value, the fold delta's bits and the
    /// canonical layout at every step.
    fn random_equivalence(seed: u64, n: usize, steps: usize, decay: f64) {
        let mut rng = DetRng::new(seed);
        let mut grid = Grid {
            n,
            vals: vec![0; n * n],
        };
        let mut store = CorrelationMatrix::zeros(n);
        let mut aged_grid = AgedGrid {
            decay,
            vals: vec![0.0; n * n],
            rounds: 0,
        };
        let mut aged = AgedCorrelation::new(n, decay);
        for _ in 0..steps {
            let a = rng.next_below(n as u64) as usize;
            let b = rng.next_below(n as u64) as usize;
            match rng.next_below(4) {
                0 => {
                    let v = rng.next_below(32);
                    grid.set(a, b, v);
                    store.set(a, b, v);
                }
                1 => {
                    let v = rng.next_below(32);
                    grid.set(a, b, grid.vals[a * n + b] + v);
                    store.add(a, b, v);
                }
                2 => {
                    // Merge in a random round.
                    let mut round = Grid {
                        n,
                        vals: vec![0; n * n],
                    };
                    for _ in 0..rng.next_below(8) {
                        let a = rng.next_below(n as u64) as usize;
                        let b = rng.next_below(n as u64) as usize;
                        round.set(a, b, rng.next_below(9));
                    }
                    grid.merge(&round);
                    store.merge(&round.store());
                }
                _ => {
                    // Close a window holding the store, split at random
                    // into an open part and a last round.
                    let (open, last) = random_split(&mut rng, &grid);
                    let expected = aged_grid.snapshot(n).delta(&grid);
                    aged_grid.observe(&grid);
                    let open = open.map(|o| o.store());
                    let got = aged.fold_window(open.as_ref(), &last.store());
                    assert_eq!(got.to_bits(), expected.to_bits(), "fold delta diverged");
                    assert_eq!(aged.snapshot(), aged_grid.snapshot(n).store());
                }
            }
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(store.get(a, b), grid.vals[a * n + b], "({a},{b}) diverged");
                }
            }
            assert_eq!(store, grid.store(), "layout not canonical");
        }
        // Aged accumulators agree bit-for-bit, value by value, and the
        // CSR one holds exactly the non-zero pairs.
        assert_eq!(aged.rounds(), aged_grid.rounds);
        let mut held = 0;
        for a in 0..n {
            for b in 0..n {
                let want = aged_grid.vals[a * n + b];
                assert_eq!(aged.get(a, b).to_bits(), want.to_bits(), "aged ({a},{b})");
                held += usize::from(a < b && want != 0.0);
            }
        }
        assert_eq!(aged.edge_count(), held, "aged layout not canonical");
    }

    #[test]
    fn random_streams_match_dense_byte_for_byte() {
        forall(
            256,
            0,
            |rng| (rng.next_u64(), rng.index(150), rng.next_f64() * 0.99),
            |&(seed, steps, decay)| random_equivalence(seed, 12, steps, decay),
        );
    }
}
