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
//! A store is built once, whole, and only read after: from tracked bitmaps
//! ([`from_access`](CorrelationMatrix::from_access)), an edge list
//! ([`from_edges`](CorrelationMatrix::from_edges)), a CSV
//! ([`from_csv`](CorrelationMatrix::from_csv)) or an aged snapshot, with
//! [`zeros`](CorrelationMatrix::zeros) as the empty store. Every full walk
//! is in ascending `(a, b)` order, so every consumer sum and tie-break is
//! reproducible.
//!
//! A round also travels without rows, as a *pair list*: each non-zero
//! off-diagonal pair once as `(a, b, value)` with `a < b`, ascending by
//! `(a, b)`. That is what [`TrafficDriver::step_edges`](acorr_sim::TrafficDriver::step_edges)
//! returns and the order [`for_each_edge`](CorrelationMatrix::for_each_edge)
//! walks, and what the aged baseline, the phase detector's open window and
//! [`pairs_cut_cost`](crate::pairs_cut_cost) work on: half the entries of
//! mirrored rows, and no row index to build.

use acorr_mem::AccessMatrix;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// The largest cell total [`CorrelationMatrix::from_csv`] accepts:
/// Kernighan-Lin's `i64` gains reach four times the total, and map shading
/// multiplies values by 255. Real page counts are far below it.
const MAX_CSV_TOTAL: u64 = i64::MAX as u64 / 256;

/// One entry of a pair list: `(a, b, value)`.
pub(crate) type Pair = (u32, u32, u64);

/// `pairs` as a canonical pair list: ascending by `(a, b)` with `a < b`,
/// one entry per pair, no zero values. A list already in that form, as
/// every [`TrafficDriver::step_edges`](acorr_sim::TrafficDriver::step_edges)
/// list is, comes back borrowed after one checking pass. Any other list is
/// the pair list of the store [`CorrelationMatrix::from_edges`] builds from
/// it: `(b, a)` reads as `(a, b)`, duplicates sum and zero values drop.
/// Self-pairs land on that store's diagonal, which a pair list does not
/// hold.
///
/// # Panics
///
/// Panics if an endpoint is `n` or above.
pub(crate) fn canonical_pairs(n: usize, pairs: &[Pair]) -> Cow<'_, [Pair]> {
    let mut canonical = true;
    let mut prev = None;
    for &(a, b, v) in pairs {
        assert!((a.max(b) as usize) < n, "edge endpoint out of range");
        canonical &= a < b && v != 0 && prev < Some((a, b));
        prev = Some((a, b));
    }
    if canonical {
        return Cow::Borrowed(pairs);
    }
    let store = CorrelationMatrix::from_edges(n, pairs.to_vec());
    Cow::Owned(store.edges().collect())
}

/// The summed union of two canonical pair lists, itself canonical: a pair
/// in both comes out once with the two values added.
pub(crate) fn union_pairs(
    a: impl IntoIterator<Item = Pair>,
    b: impl IntoIterator<Item = Pair>,
) -> impl Iterator<Item = Pair> {
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) => match (x.0, x.1).cmp(&(y.0, y.1)) {
            Ordering::Less => a.next(),
            Ordering::Greater => b.next(),
            Ordering::Equal => {
                let (p, q, v) = a.next()?;
                Some((p, q, v + b.next()?.2))
            }
        },
        (Some(_), None) => a.next(),
        (None, _) => b.next(),
    })
}

/// Flat CSR rows: row `t` is `entries[offsets[t]..offsets[t + 1]]`, sorted
/// by partner, one entry per partner, no zero values, and mirrored — `u`
/// sits in row `t` exactly when `t` sits in row `u`, with the same value.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rows {
    offsets: Vec<usize>,
    entries: Vec<(u32, u64)>,
}

impl Rows {
    /// `n` empty rows.
    fn empty(n: usize) -> Self {
        Rows {
            offsets: vec![0; n + 1],
            entries: Vec::new(),
        }
    }

    fn row(&self, t: usize) -> &[(u32, u64)] {
        &self.entries[self.offsets[t]..self.offsets[t + 1]]
    }

    /// Every row in order; cheaper per row than [`row`](Rows::row).
    fn iter(&self) -> impl Iterator<Item = &[(u32, u64)]> {
        self.offsets.windows(2).map(|w| &self.entries[w[0]..w[1]])
    }

    /// The value held for partner `b` in row `a`.
    fn find(&self, a: usize, b: usize) -> Option<u64> {
        let row = self.row(a);
        let pos = row.binary_search_by_key(&(b as u32), |e| e.0).ok()?;
        Some(row[pos].1)
    }
}

/// The part of row `t` whose partners exceed `t`.
fn upper(row: &[(u32, u64)], t: usize) -> &[(u32, u64)] {
    &row[row.partition_point(|e| (e.0 as usize) <= t)..]
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrelationMatrix {
    n: usize,
    pub(crate) diag: Vec<u64>,
    rows: Rows,
}

impl CorrelationMatrix {
    /// A zero matrix over `n` threads, in `O(n)` memory.
    ///
    /// ```
    /// use acorr_track::CorrelationMatrix;
    /// let wide = CorrelationMatrix::zeros(1_000_000);
    /// assert_eq!(wide.get(999_999, 3), 0);
    /// assert_eq!(wide.edge_count(), 0);
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

    /// The matrix of a diagonal and a canonical pair list, which must be
    /// cheap to walk twice: one pass counts each row's entries, the other
    /// mirrors every pair into its two rows. The pairs come in ascending
    /// order, so row `t` receives its partners below `t` (from pairs
    /// `(u, t)`) before those above it (from pairs `(t, u)`), each group
    /// ascending: every row is written in order, with no sort.
    pub(crate) fn from_pairs(diag: Vec<u64>, pairs: impl Iterator<Item = Pair> + Clone) -> Self {
        let n = diag.len();
        let mut offsets = vec![0; n + 1];
        for (a, b, _) in pairs.clone() {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
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
        CorrelationMatrix {
            n,
            diag,
            rows: Rows { offsets, entries },
        }
    }

    /// The matrix whose pair `(a, b)`, `a <= b`, holds `value(a, b)`.
    fn from_upper(n: usize, value: impl Fn(usize, usize) -> u64) -> Self {
        let diag = (0..n).map(|t| value(t, t)).collect();
        let mut pairs = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                let v = value(a, b);
                if v > 0 {
                    pairs.push((a as u32, b as u32, v));
                }
            }
        }
        CorrelationMatrix::from_pairs(diag, pairs.iter().copied())
    }

    /// Builds the matrix from tracked access bitmaps.
    pub fn from_access(access: &AccessMatrix) -> Self {
        CorrelationMatrix::from_upper(access.num_threads(), |a, b| {
            access.shared_pages(a, b) as u64
        })
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

    /// Builds a matrix from an edge list; `(b, a)` reads as `(a, b)`,
    /// duplicate entries sum, `(t, t)` entries accumulate onto the
    /// diagonal, zero values drop. The input order is irrelevant (sums
    /// commute), so parallel generators produce identical matrices
    /// regardless of chunking.
    ///
    /// ```
    /// use acorr_track::CorrelationMatrix;
    /// let wide = CorrelationMatrix::from_edges(1_000_000, [(999_999, 3, 5), (3, 999_999, 2)]);
    /// assert_eq!(wide.get(3, 999_999), 7);
    /// assert_eq!(wide.edge_count(), 1);
    /// ```
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
        self.rows.entries.len() / 2
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
        self.edges()
            .for_each(|(a, b, v)| f(a as usize, b as usize, v));
    }

    /// The store's pairs as a canonical pair list, streamed in
    /// [`for_each_edge`](CorrelationMatrix::for_each_edge) order.
    pub(crate) fn edges(&self) -> impl Iterator<Item = Pair> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(t, row)| upper(row, t).iter().map(move |&(u, v)| (t as u32, u, v)))
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
    fn zeros_is_empty_and_a_pair_lands_in_both_rows() {
        let zero = CorrelationMatrix::zeros(4);
        assert_eq!(zero.total_correlation(), 0);
        assert_eq!(zero.edge_count(), 0);
        let c = CorrelationMatrix::from_edges(4, [(3, 1, 7)]);
        assert_eq!(c.get(1, 3), 7);
        assert_eq!(c.max_off_diagonal(), 7);
        assert_eq!(c.neighbors(3), &[(1, 7)]);
        assert_eq!(c.neighbors(1), &[(3, 7)]);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn get_out_of_range_panics() {
        CorrelationMatrix::from_edges(4, [(1, 0, 9)]).get(0, 4);
    }

    #[test]
    #[should_panic(expected = "edge endpoint out of range")]
    fn from_edges_out_of_range_panics() {
        CorrelationMatrix::from_edges(4, [(0, 4, 9)]);
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
        let c = CorrelationMatrix::from_edges(2, [(0, 0, 1), (0, 1, 2), (1, 1, 3)]);
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
    fn from_edges_aggregates_in_any_order() {
        let fwd = CorrelationMatrix::from_edges(4, vec![(0, 1, 2), (1, 0, 3), (2, 3, 1)]);
        let rev = CorrelationMatrix::from_edges(4, vec![(2, 3, 1), (0, 1, 3), (0, 1, 2)]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.get(0, 1), 5);
        assert_eq!(edges(&fwd), vec![(0, 1, 5), (2, 3, 1)]);
    }

    #[test]
    fn from_edges_layout_equals_from_csv_on_duplicates_self_edges_and_zeros() {
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
        let built = CorrelationMatrix::from_edges(5, edges);
        let grid = "0,0,8,0,0\n0,7,0,0,0\n8,0,0,0,0\n0,0,0,0,7\n0,0,0,7,0\n";
        assert_eq!(built, CorrelationMatrix::from_csv(grid).unwrap());
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

    /// A canonical list is read in place; a list that departs from the
    /// form in any one way is normalized into a copy, the pair list of its
    /// `from_edges` store.
    #[test]
    fn canonical_pairs_borrows_only_a_canonical_list() {
        assert!(matches!(canonical_pairs(5, &[]), Cow::Borrowed(_)));
        let canonical = [(0, 1, 3), (0, 4, 1), (2, 3, 5)];
        assert!(matches!(canonical_pairs(5, &canonical), Cow::Borrowed(_)));
        for raw in [
            &[(0, 1, 3), (0, 1, 2)][..],
            &[(1, 0, 5)],
            &[(0, 4, 1), (0, 1, 3)],
            &[(0, 1, 5), (2, 2, 4)],
            &[(0, 1, 5), (2, 3, 0)],
        ] {
            let pairs = canonical_pairs(5, raw);
            assert!(matches!(pairs, Cow::Owned(_)), "{raw:?}");
            let store = CorrelationMatrix::from_edges(5, raw.to_vec());
            assert_eq!(*pairs, store.edges().collect::<Vec<_>>(), "{raw:?}");
        }
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
    /// composed from observe, snapshot and delta.
    struct Grid {
        n: usize,
        vals: Vec<u64>,
    }

    impl Grid {
        /// The grid of a raw edge list, summed cell by cell: `(a, b)` and
        /// `(b, a)` both add to the pair, `(t, t)` to the diagonal.
        fn of_edges(n: usize, edges: &[Pair]) -> Grid {
            let mut vals = vec![0; n * n];
            for &(a, b, v) in edges {
                let (a, b) = (a as usize, b as usize);
                vals[a * n + b] += v;
                if a != b {
                    vals[b * n + a] += v;
                }
            }
            Grid { n, vals }
        }

        /// The grid with its diagonal zeroed, as a pair list carries it.
        fn off_diagonal(&self) -> Grid {
            let mut vals = self.vals.clone();
            (0..self.n).for_each(|t| vals[t * self.n + t] = 0);
            Grid { n: self.n, vals }
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

        /// `n` lines of `n` comma-separated cells, as `render_csv` prints.
        fn csv(&self) -> String {
            let line = |row: &[u64]| row.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
            self.vals
                .chunks(self.n)
                .map(|row| line(row) + "\n")
                .collect()
        }

        /// The store of the grid's cells `a <= b`.
        fn store(&self) -> CorrelationMatrix {
            let upper = (0..self.n).flat_map(|a| (a..self.n).map(move |b| (a, b)));
            let cell = |(a, b): (usize, usize)| (a as u32, b as u32, self.vals[a * self.n + b]);
            CorrelationMatrix::from_edges(self.n, upper.map(cell))
        }

        /// The non-zero cells `a < b` as a canonical pair list.
        fn pairs(&self) -> Vec<Pair> {
            let mut pairs = Vec::new();
            for a in 0..self.n {
                for b in (a + 1)..self.n {
                    let v = self.vals[a * self.n + b];
                    if v != 0 {
                        pairs.push((a as u32, b as u32, v));
                    }
                }
            }
            pairs
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

    /// Splits every pair of a diagonal-free `g` at random between an open
    /// part and a last round, each a canonical pair list.
    fn random_split(rng: &mut DetRng, g: &Grid) -> (Vec<Pair>, Vec<Pair>) {
        let (mut open, mut last) = (Vec::new(), Vec::new());
        for (a, b, v) in g.pairs() {
            let part = rng.next_below(v + 1);
            open.extend((part > 0).then_some((a, b, part)));
            last.extend((part < v).then_some((a, b, v - part)));
        }
        (open, last)
    }

    /// Builds a round from a random raw edge list (duplicates, reversed
    /// pairs, self-pairs, zeros) at every step, mirrors it into the grid
    /// oracle and closes a detector window on it, checking every value,
    /// the canonical layout, the pair list, the fold delta's bits and the
    /// aged snapshot.
    fn random_equivalence(seed: u64, n: usize, steps: usize, decay: f64) {
        let mut rng = DetRng::new(seed);
        let mut aged_grid = AgedGrid {
            decay,
            vals: vec![0.0; n * n],
            rounds: 0,
        };
        let mut aged = AgedCorrelation::new(n, decay);
        let endpoint = |rng: &mut DetRng| rng.next_below(n as u64) as u32;
        for _ in 0..steps {
            let edges: Vec<Pair> = (0..rng.next_below(16))
                .map(|_| (endpoint(&mut rng), endpoint(&mut rng), rng.next_below(9)))
                .collect();
            let grid = Grid::of_edges(n, &edges);
            let round = CorrelationMatrix::from_edges(n, edges.iter().copied());
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(round.get(a, b), grid.vals[a * n + b], "({a},{b}) diverged");
                }
            }
            // A second constructor, fed the grid's CSV, builds the same rows.
            let parsed = CorrelationMatrix::from_csv(&grid.csv()).unwrap();
            assert_eq!(round, parsed, "layout not canonical");
            assert_eq!(round.edges().collect::<Vec<_>>(), grid.pairs());
            assert_eq!(*canonical_pairs(n, &edges), grid.pairs());
            // Close a window holding the round: whole, through `observe`,
            // or, a third of the time, as the detector closes one, through
            // `fold` with the round's pairs split at random into an open
            // part and a last round, and no diagonal.
            let (got, expected) = if rng.next_below(3) == 0 {
                let window = grid.off_diagonal();
                let (open, last) = random_split(&mut rng, &window);
                let expected = aged_grid.snapshot(n).delta(&window);
                aged_grid.observe(&window);
                (aged.fold(&open, last.into_iter()), expected)
            } else {
                let expected = aged_grid.snapshot(n).delta(&grid);
                aged_grid.observe(&grid);
                (aged.observe(&round), expected)
            };
            assert_eq!(got.to_bits(), expected.to_bits(), "fold delta diverged");
            assert_eq!(aged.snapshot(), aged_grid.snapshot(n).store());
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
