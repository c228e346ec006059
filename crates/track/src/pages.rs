//! Per-page sharing analysis.
//!
//! Thread correlations aggregate away *which* pages carry the sharing; this
//! module keeps them. From an [`AccessMatrix`] it derives per-page sharer
//! counts and the hot-page ranking (the pages that will ping-pong hardest
//! if their sharers are separated) — the page-level complement to §1's
//! thread-pair view, useful both for tuning (move the one hot structure)
//! and for validating the cut-cost model (most pages should have few
//! sharers).

use acorr_mem::AccessMatrix;
use acorr_mem::PageId;
use std::fmt;

/// How many distinct threads touch one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageSharers {
    /// The page.
    pub page: PageId,
    /// Number of threads that touched it.
    pub sharers: usize,
}

/// Per-page sharer counts for every touched page.
pub fn page_sharers(access: &AccessMatrix) -> Vec<PageSharers> {
    let mut counts = vec![0usize; access.num_pages()];
    for t in 0..access.num_threads() {
        for p in access.bitmap(t).iter_ones() {
            counts[p] += 1;
        }
    }
    counts
        .into_iter()
        .enumerate()
        .filter(|&(_, sharers)| sharers > 0)
        .map(|(p, sharers)| PageSharers {
            page: PageId(p as u32),
            sharers,
        })
        .collect()
}

/// The `k` most-shared pages, descending by sharer count (ties: lower page
/// id first).
pub fn hottest_pages(access: &AccessMatrix, k: usize) -> Vec<PageSharers> {
    let mut all = page_sharers(access);
    all.sort_by(|a, b| b.sharers.cmp(&a.sharers).then(a.page.cmp(&b.page)));
    all.truncate(k);
    all
}

/// A compact textual report of the sharing distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct PageReport {
    /// Pages touched by at least one thread.
    pub touched_pages: usize,
    /// Pages touched by at least two threads (the shared ones).
    pub shared_pages: usize,
    /// Mean sharers over touched pages.
    pub mean_sharers: f64,
    /// The hottest pages.
    pub hottest: Vec<PageSharers>,
}

/// Builds a [`PageReport`] with the `k` hottest pages.
pub fn page_report(access: &AccessMatrix, k: usize) -> PageReport {
    let all = page_sharers(access);
    let touched = all.len();
    let shared = all.iter().filter(|e| e.sharers >= 2).count();
    let mean = if touched == 0 {
        0.0
    } else {
        all.iter().map(|e| e.sharers).sum::<usize>() as f64 / touched as f64
    };
    PageReport {
        touched_pages: touched,
        shared_pages: shared,
        mean_sharers: mean,
        hottest: hottest_pages(access, k),
    }
}

impl fmt::Display for PageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} touched pages, {} shared, mean {:.2} sharers",
            self.touched_pages, self.shared_pages, self.mean_sharers
        )?;
        for e in &self.hottest {
            writeln!(f, "  {}: {} sharers", e.page, e.sharers)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AccessMatrix {
        let mut m = AccessMatrix::new(4, 8);
        // page 0: all four threads; page 1: threads 0,1; page 2: thread 3.
        for t in 0..4 {
            m.record(t, PageId(0));
        }
        m.record(0, PageId(1));
        m.record(1, PageId(1));
        m.record(3, PageId(2));
        m
    }

    #[test]
    fn sharer_counts_match_hand_counts() {
        let sharers = page_sharers(&sample());
        assert_eq!(
            sharers,
            vec![
                PageSharers {
                    page: PageId(0),
                    sharers: 4
                },
                PageSharers {
                    page: PageId(1),
                    sharers: 2
                },
                PageSharers {
                    page: PageId(2),
                    sharers: 1
                },
            ]
        );
    }

    #[test]
    fn hottest_ranks_descending_with_stable_ties() {
        let hot = hottest_pages(&sample(), 2);
        assert_eq!(hot[0].page, PageId(0));
        assert_eq!(hot[1].page, PageId(1));
        let mut m = AccessMatrix::new(2, 4);
        m.record(0, PageId(2));
        m.record(0, PageId(1));
        let tied = hottest_pages(&m, 2);
        assert_eq!(tied[0].page, PageId(1), "ties break to lower page id");
    }

    #[test]
    fn report_summarizes() {
        let report = page_report(&sample(), 1);
        assert_eq!(report.touched_pages, 3);
        assert_eq!(report.shared_pages, 2);
        assert!((report.mean_sharers - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.hottest.len(), 1);
        let txt = report.to_string();
        assert!(txt.contains("3 touched pages"));
        assert!(txt.contains("p0: 4 sharers"));
    }

    #[test]
    fn empty_matrix_yields_empty_report() {
        let report = page_report(&AccessMatrix::new(2, 4), 3);
        assert_eq!(report.touched_pages, 0);
        assert_eq!(report.mean_sharers, 0.0);
        assert!(report.hottest.is_empty());
    }
}
