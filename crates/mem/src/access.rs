//! Access matrices.
//!
//! The output of a tracking phase (§4.2): for every thread, the set of
//! shared pages it touched during the tracked interval. The [`AccessMatrix`]
//! is the ground-truth object from which thread correlations, correlation
//! maps, cut costs and sharing degrees are all derived.

use crate::bitset::FixedBitset;
use crate::page::PageId;
use std::fmt;

/// Per-thread page-access bitmaps for one tracked interval.
///
/// ```
/// use acorr_mem::{AccessMatrix, PageId};
/// let mut m = AccessMatrix::new(3, 16);
/// m.record(0, PageId(2));
/// m.record(1, PageId(2));
/// m.record(1, PageId(3));
/// assert_eq!(m.shared_pages(0, 1), 1);
/// assert_eq!(m.pages_touched(1), 2);
/// assert_eq!(m.distinct_pages(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessMatrix {
    threads: usize,
    pages: usize,
    bitmaps: Vec<FixedBitset>,
}

impl AccessMatrix {
    /// Creates an empty matrix for `threads` threads over `pages` pages.
    pub fn new(threads: usize, pages: usize) -> Self {
        AccessMatrix {
            threads,
            pages,
            bitmaps: (0..threads).map(|_| FixedBitset::new(pages)).collect(),
        }
    }

    /// Number of threads covered.
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Number of pages covered.
    pub fn num_pages(&self) -> usize {
        self.pages
    }

    /// Records that `thread` accessed `page`. Returns whether the
    /// observation was new.
    ///
    /// # Panics
    ///
    /// Panics if `thread` or `page` is out of range.
    pub fn record(&mut self, thread: usize, page: PageId) -> bool {
        self.bitmaps[thread].insert(page.idx())
    }

    /// Whether `thread` was observed accessing `page`.
    pub fn observed(&self, thread: usize, page: PageId) -> bool {
        self.bitmaps[thread].contains(page.idx())
    }

    /// The access bitmap of one thread.
    pub fn bitmap(&self, thread: usize) -> &FixedBitset {
        &self.bitmaps[thread]
    }

    /// Number of pages `thread` touched.
    pub fn pages_touched(&self, thread: usize) -> usize {
        self.bitmaps[thread].count()
    }

    /// Total observations across all threads (Σ per-thread page counts).
    pub fn total_observations(&self) -> usize {
        self.bitmaps.iter().map(|b| b.count()).sum()
    }

    /// Number of distinct pages touched by *any* thread.
    pub fn distinct_pages(&self) -> usize {
        let mut union = FixedBitset::new(self.pages);
        for b in &self.bitmaps {
            union.union_with(b);
        }
        union.count()
    }

    /// The thread correlation of §1: pages shared in common by the pair.
    pub fn shared_pages(&self, a: usize, b: usize) -> usize {
        self.bitmaps[a].intersection_count(&self.bitmaps[b])
    }

    /// Merges another matrix's observations into this one (used to
    /// accumulate passive observations across rounds).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn merge(&mut self, other: &AccessMatrix) {
        assert_eq!(self.threads, other.threads, "thread counts differ");
        assert_eq!(self.pages, other.pages, "page counts differ");
        for (mine, theirs) in self.bitmaps.iter_mut().zip(&other.bitmaps) {
            mine.union_with(theirs);
        }
    }

    /// Fraction of `truth`'s observations also present here — the paper's
    /// Figure 2 "percentage of complete sharing information".
    ///
    /// Returns 1.0 when the ground truth is empty.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn completeness_vs(&self, truth: &AccessMatrix) -> f64 {
        assert_eq!(self.threads, truth.threads, "thread counts differ");
        assert_eq!(self.pages, truth.pages, "page counts differ");
        let total = truth.total_observations();
        if total == 0 {
            return 1.0;
        }
        let found: usize = self
            .bitmaps
            .iter()
            .zip(&truth.bitmaps)
            .map(|(mine, t)| mine.intersection_count(t))
            .sum();
        found as f64 / total as f64
    }
}

impl fmt::Display for AccessMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "access matrix: {} threads x {} pages, {} observations over {} distinct pages",
            self.threads,
            self.pages,
            self.total_observations(),
            self.distinct_pages()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AccessMatrix {
        let mut m = AccessMatrix::new(3, 8);
        // t0: {0,1}, t1: {1,2}, t2: {2,3}
        m.record(0, PageId(0));
        m.record(0, PageId(1));
        m.record(1, PageId(1));
        m.record(1, PageId(2));
        m.record(2, PageId(2));
        m.record(2, PageId(3));
        m
    }

    #[test]
    fn record_and_observe() {
        let mut m = AccessMatrix::new(2, 4);
        assert!(m.record(0, PageId(3)));
        assert!(!m.record(0, PageId(3)), "duplicate is not new");
        assert!(m.observed(0, PageId(3)));
        assert!(!m.observed(1, PageId(3)));
    }

    #[test]
    fn correlations_match_hand_count() {
        let m = sample();
        assert_eq!(m.shared_pages(0, 1), 1);
        assert_eq!(m.shared_pages(1, 2), 1);
        assert_eq!(m.shared_pages(0, 2), 0);
        assert_eq!(m.shared_pages(0, 0), 2, "self-correlation = own count");
    }

    #[test]
    fn totals() {
        let m = sample();
        assert_eq!(m.total_observations(), 6);
        assert_eq!(m.distinct_pages(), 4);
        assert_eq!(m.pages_touched(1), 2);
        assert_eq!(m.num_threads(), 3);
        assert_eq!(m.num_pages(), 8);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = AccessMatrix::new(2, 4);
        a.record(0, PageId(0));
        let mut b = AccessMatrix::new(2, 4);
        b.record(0, PageId(1));
        b.record(1, PageId(2));
        a.merge(&b);
        assert!(a.observed(0, PageId(0)));
        assert!(a.observed(0, PageId(1)));
        assert!(a.observed(1, PageId(2)));
        assert_eq!(a.total_observations(), 3);
    }

    #[test]
    fn completeness_fractions() {
        let truth = sample();
        let mut partial = AccessMatrix::new(3, 8);
        assert_eq!(partial.completeness_vs(&truth), 0.0);
        partial.record(0, PageId(0));
        partial.record(0, PageId(1));
        partial.record(1, PageId(1));
        assert!((partial.completeness_vs(&truth) - 0.5).abs() < 1e-12);
        partial.merge(&truth);
        assert_eq!(partial.completeness_vs(&truth), 1.0);
        // Extra observations beyond the truth do not inflate the score.
        partial.record(2, PageId(7));
        assert_eq!(partial.completeness_vs(&truth), 1.0);
    }

    #[test]
    fn completeness_of_empty_truth_is_one() {
        let truth = AccessMatrix::new(2, 4);
        let obs = AccessMatrix::new(2, 4);
        assert_eq!(obs.completeness_vs(&truth), 1.0);
    }

    #[test]
    #[should_panic(expected = "thread counts differ")]
    fn merge_shape_mismatch_panics() {
        AccessMatrix::new(2, 4).merge(&AccessMatrix::new(3, 4));
    }

    #[test]
    fn display_summarizes() {
        let m = sample();
        let s = m.to_string();
        assert!(s.contains("3 threads"));
        assert!(s.contains("6 observations"));
    }
}
