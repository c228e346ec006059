//! Dirty-range sets and the word-chunked dirty mask.
//!
//! CVM's multi-writer protocol compares a dirty page against its *twin* to
//! produce a *diff* — the set of modified words. The simulation does not
//! hold page contents, so it records the byte ranges a node wrote within
//! one page instead; the total length of the merged ranges is the diff
//! size, which prices both diff creation and the "Diff Mbytes" traffic of
//! Table 6.
//!
//! Two representations share that contract:
//!
//! * [`DirtyMask`] — one bit per page byte, packed into 64 `u64` words.
//!   Inserting a span is a handful of word-masked ORs, the diff length is
//!   64 popcounts, and the fragment count is a rising-edge scan — the
//!   engine's hot path.
//! * `RangeSet` (test builds only) — sorted disjoint `(start, end)` pairs,
//!   the byte-wise *reference* the equivalence tests below pin the mask
//!   against: both must report **byte-identical** lengths and fragment
//!   counts for the same inserts.

use crate::page::PAGE_SIZE;
use std::fmt;

/// A set of disjoint, sorted, half-open byte ranges within one page.
///
/// Inserting overlapping or adjacent ranges merges them, mirroring how a
/// word-level diff would coalesce.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RangeSet {
    // Sorted, non-overlapping, non-adjacent (start, end) pairs.
    ranges: Vec<(u16, u16)>,
}

#[cfg(test)]
impl RangeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        RangeSet::default()
    }

    /// Inserts `[start, end)`, merging with overlapping or adjacent ranges.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn insert(&mut self, start: u16, end: u16) {
        assert!(start <= end, "inverted range {start}..{end}");
        if start == end {
            return;
        }
        // Find the insertion window: all ranges overlapping or adjacent to
        // [start, end).
        let lo = self.ranges.partition_point(|&(_, e)| e < start);
        let hi = self.ranges.partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.ranges.insert(lo, (start, end));
            return;
        }
        let new_start = start.min(self.ranges[lo].0);
        let new_end = end.max(self.ranges[hi - 1].1);
        self.ranges.drain(lo..hi);
        self.ranges.insert(lo, (new_start, new_end));
    }

    /// Total bytes covered.
    pub fn total_len(&self) -> u64 {
        self.ranges.iter().map(|&(s, e)| (e - s) as u64).sum()
    }

    /// Number of disjoint ranges.
    pub fn fragment_count(&self) -> usize {
        self.ranges.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Whether byte `b` is covered.
    pub fn contains(&self, b: u16) -> bool {
        self.ranges
            .binary_search_by(|&(s, e)| {
                if b < s {
                    std::cmp::Ordering::Greater
                } else if b >= e {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Removes every range.
    pub fn clear(&mut self) {
        self.ranges.clear();
    }

    /// Iterates over the disjoint `(start, end)` ranges in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        self.ranges.iter().copied()
    }
}

#[cfg(test)]
impl fmt::Display for RangeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (s, e)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{s}..{e}")?;
        }
        write!(f, "]")
    }
}

/// Words in a page-wide byte mask (`PAGE_SIZE / 64`).
const MASK_WORDS: usize = PAGE_SIZE / 64;

/// A page-wide dirty-byte mask: one bit per byte, packed into `u64` words.
///
/// The engine's twin/diff hot-loop representation of a diff.
/// [`DirtyMask::total_len`] and [`DirtyMask::fragment_count`] are byte-exact
/// matches for the reference range set's answers on the same inserts —
/// the diff-size formula (`dirty_len + 8 * fragments + 16`) is golden-table
/// load-bearing, so the representations must never diverge.
///
/// ```
/// use acorr_mem::DirtyMask;
/// let mut m = DirtyMask::new();
/// m.insert(0, 8);
/// m.insert(16, 24);
/// m.insert(8, 16); // bridges the gap
/// assert_eq!(m.total_len(), 24);
/// assert_eq!(m.fragment_count(), 1);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DirtyMask {
    words: [u64; MASK_WORDS],
}

impl Default for DirtyMask {
    fn default() -> Self {
        DirtyMask {
            words: [0; MASK_WORDS],
        }
    }
}

impl DirtyMask {
    /// Creates an all-clean mask.
    pub fn new() -> Self {
        DirtyMask::default()
    }

    /// Marks `[start, end)` dirty via word-masked ORs.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > PAGE_SIZE`.
    pub fn insert(&mut self, start: u16, end: u16) {
        assert!(start <= end, "inverted range {start}..{end}");
        assert!(
            end as usize <= PAGE_SIZE,
            "range end {end} beyond page size {PAGE_SIZE}"
        );
        if start == end {
            return;
        }
        let (start, last) = (start as usize, end as usize - 1);
        let (ws, we) = (start / 64, last / 64);
        let lo_mask = !0u64 << (start % 64);
        let hi_mask = !0u64 >> (63 - last % 64);
        if ws == we {
            self.words[ws] |= lo_mask & hi_mask;
            return;
        }
        self.words[ws] |= lo_mask;
        for w in &mut self.words[ws + 1..we] {
            *w = !0;
        }
        self.words[we] |= hi_mask;
    }

    /// Total dirty bytes (64 popcounts).
    pub fn total_len(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Number of disjoint dirty runs: rising edges of the bit stream,
    /// carrying the previous word's top bit across word boundaries.
    pub fn fragment_count(&self) -> usize {
        let mut carry = 0u64;
        let mut rises = 0usize;
        for &w in &self.words {
            rises += (w & !((w << 1) | carry)).count_ones() as usize;
            carry = w >> 63;
        }
        rises
    }

    /// True when no byte is dirty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether byte `b` is dirty.
    ///
    /// # Panics
    ///
    /// Panics if `b >= PAGE_SIZE`.
    pub fn contains(&self, b: u16) -> bool {
        assert!((b as usize) < PAGE_SIZE, "byte {b} beyond page size");
        self.words[b as usize / 64] >> (b % 64) & 1 != 0
    }

    /// Resets to all-clean (a word fill, the per-interval reset).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterates over the disjoint dirty `(start, end)` runs, ascending —
    /// the same sequence the reference range set yields for equivalent
    /// inserts.
    pub fn iter(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        let mut b = 0usize;
        std::iter::from_fn(move || {
            while b < PAGE_SIZE && !self.bit(b) {
                b += 1;
            }
            if b >= PAGE_SIZE {
                return None;
            }
            let start = b;
            while b < PAGE_SIZE && self.bit(b) {
                b += 1;
            }
            Some((start as u16, b as u16))
        })
    }

    fn bit(&self, b: usize) -> bool {
        self.words[b / 64] >> (b % 64) & 1 != 0
    }
}

impl fmt::Debug for DirtyMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DirtyMask{self}")
    }
}

impl fmt::Display for DirtyMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (s, e)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{s}..{e}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorr_sim::{forall, DetRng};

    #[test]
    fn disjoint_inserts_stay_disjoint() {
        let mut s = RangeSet::new();
        s.insert(100, 200);
        s.insert(0, 50);
        s.insert(300, 400);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![(0, 50), (100, 200), (300, 400)]
        );
        assert_eq!(s.total_len(), 50 + 100 + 100);
        assert_eq!(s.fragment_count(), 3);
    }

    #[test]
    fn overlapping_inserts_merge() {
        let mut s = RangeSet::new();
        s.insert(10, 20);
        s.insert(15, 30);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(10, 30)]);
        s.insert(0, 100);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(0, 100)]);
    }

    #[test]
    fn adjacent_inserts_coalesce() {
        let mut s = RangeSet::new();
        s.insert(0, 8);
        s.insert(8, 16);
        assert_eq!(s.fragment_count(), 1);
        assert_eq!(s.total_len(), 16);
    }

    #[test]
    fn bridging_insert_merges_many() {
        let mut s = RangeSet::new();
        for i in 0..10 {
            s.insert(i * 20, i * 20 + 4);
        }
        assert_eq!(s.fragment_count(), 10);
        s.insert(0, 200);
        assert_eq!(s.fragment_count(), 1);
        assert_eq!(s.total_len(), 200);
    }

    #[test]
    fn empty_and_zero_length() {
        let mut s = RangeSet::new();
        assert!(s.is_empty());
        s.insert(5, 5);
        assert!(s.is_empty());
        assert_eq!(s.total_len(), 0);
    }

    #[test]
    fn contains_checks_membership() {
        let mut s = RangeSet::new();
        s.insert(10, 20);
        s.insert(40, 50);
        assert!(s.contains(10));
        assert!(s.contains(19));
        assert!(!s.contains(20));
        assert!(!s.contains(30));
        assert!(s.contains(45));
        assert!(!s.contains(0));
    }

    #[test]
    fn clear_resets() {
        let mut s = RangeSet::new();
        s.insert(0, 4096);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn idempotent_reinsert() {
        let mut s = RangeSet::new();
        s.insert(10, 20);
        s.insert(10, 20);
        assert_eq!(s.total_len(), 10);
        assert_eq!(s.fragment_count(), 1);
    }

    #[test]
    #[should_panic(expected = "inverted range")]
    fn inverted_range_panics() {
        RangeSet::new().insert(10, 5);
    }

    #[test]
    fn display_lists_ranges() {
        let mut s = RangeSet::new();
        s.insert(1, 3);
        s.insert(7, 9);
        assert_eq!(s.to_string(), "[1..3 7..9]");
    }

    /// Asserts the mask and the byte-wise reference agree on every
    /// observable after the same inserts.
    fn assert_equivalent(ops: &[(u16, u16)]) {
        let mut set = RangeSet::new();
        let mut mask = DirtyMask::new();
        for &(s, e) in ops {
            set.insert(s, e);
            mask.insert(s, e);
        }
        assert_eq!(mask.total_len(), set.total_len(), "len after {ops:?}");
        assert_eq!(
            mask.fragment_count(),
            set.fragment_count(),
            "fragments after {ops:?}"
        );
        assert_eq!(mask.is_empty(), set.is_empty());
        assert_eq!(
            mask.iter().collect::<Vec<_>>(),
            set.iter().collect::<Vec<_>>(),
            "runs after {ops:?}"
        );
        for b in 0..PAGE_SIZE as u16 {
            assert_eq!(mask.contains(b), set.contains(b), "byte {b} after {ops:?}");
        }
    }

    #[test]
    fn mask_matches_reference_on_adversarial_spans() {
        // Unaligned starts/ends, word-boundary crossings, single bytes,
        // trailing partial words, and the full page.
        let cases: &[&[(u16, u16)]] = &[
            &[(0, 1)],
            &[(63, 65)],
            &[(1, 63)],
            &[(0, 64), (64, 128)],
            &[(7, 9), (9, 11)],
            &[(4090, 4096)],
            &[(4095, 4096)],
            &[(4032, 4090), (4090, 4096)],
            &[(0, 4096)],
            &[(1, 4095)],
            &[(100, 200), (150, 300), (0, 101)],
            &[(64, 128), (0, 64)],
            &[(127, 129), (191, 193), (128, 192)],
            &[(5, 5), (4096, 4096)],
        ];
        for ops in cases {
            assert_equivalent(ops);
        }
    }

    #[test]
    fn mask_clear_and_reinsert() {
        let mut m = DirtyMask::new();
        m.insert(0, 4096);
        assert_eq!(m.total_len(), 4096);
        assert_eq!(m.fragment_count(), 1);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.fragment_count(), 0);
        m.insert(10, 20);
        m.insert(10, 20);
        assert_eq!(m.total_len(), 10);
        assert_eq!(m.to_string(), "[10..20]");
    }

    #[test]
    #[should_panic(expected = "inverted range")]
    fn mask_inverted_range_panics() {
        DirtyMask::new().insert(10, 5);
    }

    #[test]
    #[should_panic(expected = "beyond page size")]
    fn mask_out_of_page_panics() {
        DirtyMask::new().insert(4090, 4097);
    }

    fn reference_cover(ops: &[(u16, u16)]) -> Vec<bool> {
        let mut cover = vec![false; 4096];
        for &(s, e) in ops {
            for item in cover.iter_mut().take(e as usize).skip(s as usize) {
                *item = true;
            }
        }
        cover
    }

    /// Up to 39 ordered `(start, end)` inserts within one page.
    fn inserts(rng: &mut DetRng) -> Vec<(u16, u16)> {
        (0..rng.index(40))
            .map(|_| {
                let (a, b) = (rng.next_below(4097) as u16, rng.next_below(4097) as u16);
                (a.min(b), a.max(b))
            })
            .collect()
    }

    /// After arbitrary inserts, the set covers exactly the union of the
    /// inserted ranges and its invariants (sorted, disjoint,
    /// non-adjacent) hold.
    #[test]
    fn matches_boolean_reference() {
        forall(256, 0, inserts, |ops| {
            let mut set = RangeSet::new();
            for &(s, e) in ops {
                set.insert(s, e);
            }
            let cover = reference_cover(ops);
            let expected_len: u64 = cover.iter().filter(|&&c| c).count() as u64;
            assert_eq!(set.total_len(), expected_len);
            for b in 0..4096u16 {
                assert_eq!(set.contains(b), cover[b as usize], "byte {b}");
            }
            // Structural invariants.
            let rs: Vec<(u16, u16)> = set.iter().collect();
            for w in rs.windows(2) {
                assert!(w[0].1 < w[1].0, "ranges {rs:?} not disjoint/sorted");
            }
            for &(s, e) in &rs {
                assert!(s < e);
            }
        });
    }

    /// The word-chunked mask is observationally identical to the
    /// byte-wise reference on arbitrary insert sequences.
    #[test]
    fn mask_equivalent_to_range_set() {
        forall(256, 0, inserts, |ops| assert_equivalent(ops));
    }
}
