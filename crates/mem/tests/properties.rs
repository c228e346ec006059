//! Property tests for address arithmetic and access matrices.

use acorr_mem::{pages_for, span_pages, AccessMatrix, PageId, PAGE_SIZE};
use acorr_sim::{forall, DetRng};
use std::ops::Range;

/// Random `(thread, page)` observations, as many as a draw from `lens`.
fn touches(
    rng: &mut DetRng,
    (threads, pages): (usize, u64),
    lens: Range<u64>,
) -> Vec<(usize, u32)> {
    let touch = |rng: &mut DetRng| (rng.index(threads), rng.next_below(pages) as u32);
    (0..rng.range(lens.start, lens.end))
        .map(|_| touch(rng))
        .collect()
}

/// span_pages partitions a byte range exactly: spans are contiguous,
/// page-ordered, cover every byte once, and agree with a naive loop.
#[test]
fn span_pages_partitions_exactly() {
    let range = |rng: &mut DetRng| (rng.next_below(1_000_000), rng.next_below(100_000));
    forall(128, 0, range, |&(addr, len)| {
        let spans: Vec<_> = span_pages(addr, len).collect();
        let total: u64 = spans.iter().map(|s| s.len() as u64).sum();
        assert_eq!(total, len);
        let mut cursor = addr;
        for s in &spans {
            assert_eq!(s.page.base_addr() + s.start as u64, cursor);
            assert!(s.end as usize <= PAGE_SIZE);
            assert!(s.start < s.end);
            cursor = s.page.base_addr() + s.end as u64;
        }
        if len > 0 {
            assert_eq!(cursor, addr + len);
            // Page count matches the arithmetic bound.
            let first = addr / PAGE_SIZE as u64;
            let last = (addr + len - 1) / PAGE_SIZE as u64;
            assert_eq!(spans.len() as u64, last - first + 1);
        }
    });
}

/// pages_for is the exact inverse bound of page packing.
#[test]
fn pages_for_is_tight() {
    let bytes = |rng: &mut DetRng| rng.next_below(10_000_000);
    forall(128, 0, bytes, |&bytes| {
        let pages = pages_for(bytes);
        assert!(pages * (PAGE_SIZE as u64) >= bytes);
        if pages > 0 {
            assert!((pages - 1) * (PAGE_SIZE as u64) < bytes);
        }
    });
}

/// Completeness is monotone under merging and capped at 1.
#[test]
fn completeness_is_monotone() {
    let observations =
        |rng: &mut DetRng| (touches(rng, (4, 32), 1..60), touches(rng, (4, 32), 0..60));
    forall(128, 0, observations, |(truth_obs, partial_obs)| {
        let mut truth = AccessMatrix::new(4, 32);
        for &(t, p) in truth_obs {
            truth.record(t, PageId(p));
        }
        let mut acc = AccessMatrix::new(4, 32);
        let mut last = acc.completeness_vs(&truth);
        for &(t, p) in partial_obs {
            acc.record(t, PageId(p));
            let now = acc.completeness_vs(&truth);
            assert!(now >= last - 1e-12);
            assert!(now <= 1.0 + 1e-12);
            last = now;
        }
        acc.merge(&truth);
        assert!((acc.completeness_vs(&truth) - 1.0).abs() < 1e-12);
    });
}
