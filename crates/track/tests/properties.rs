//! Property tests for correlation analysis: merge algebra, aging decay,
//! and delta/CSV round-trips.

use acorr_sim::{forall, DetRng};
use acorr_track::{render_csv, AgedCorrelation, CorrelationMatrix};

const N: usize = 5;

/// An arbitrary symmetric correlation matrix over `N` threads.
fn matrix(rng: &mut DetRng) -> CorrelationMatrix {
    let vals: Vec<u64> = (0..N * N).map(|_| rng.next_below(1_000)).collect();
    let mut m = CorrelationMatrix::zeros(N);
    for a in 0..N {
        for b in a..N {
            m.set(a, b, vals[a * N + b]);
        }
    }
    m
}

fn cells(aged: &AgedCorrelation) -> Vec<f64> {
    let mut v = Vec::with_capacity(N * N);
    for a in 0..N {
        for b in 0..N {
            v.push(aged.get(a, b));
        }
    }
    v
}

fn two(rng: &mut DetRng) -> (CorrelationMatrix, CorrelationMatrix) {
    (matrix(rng), matrix(rng))
}

/// Merging tracked rounds is commutative: per-node shards combine in
/// any order.
#[test]
fn merge_is_commutative() {
    forall(64, 0, two, |(a, b)| {
        let mut ab = a.clone();
        ab.merge(b);
        let mut ba = b.clone();
        ba.merge(a);
        assert_eq!(ab, ba);
    });
}

/// ... and associative: shard grouping does not matter either.
#[test]
fn merge_is_associative() {
    let three = |rng: &mut DetRng| (matrix(rng), matrix(rng), matrix(rng));
    forall(64, 0, three, |(a, b, c)| {
        let mut left = a.clone();
        left.merge(b);
        left.merge(c);
        let mut bc = b.clone();
        bc.merge(c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    });
}

/// Once observations stop, every aged pair decays monotonically: each
/// quiet round multiplies by `decay < 1`, so values never increase and
/// never go negative.
#[test]
fn aging_is_monotone_non_increasing() {
    let aging = |rng: &mut DetRng| (matrix(rng), rng.next_f64() * 0.99, rng.range(1, 8));
    forall(64, 0, aging, |&(ref m, decay, quiet)| {
        let mut aged = AgedCorrelation::new(N, decay);
        aged.observe(m);
        let zero = CorrelationMatrix::zeros(N);
        let mut last = cells(&aged);
        for _ in 0..quiet {
            aged.observe(&zero);
            let now = cells(&aged);
            for (l, n) in last.iter().zip(&now) {
                assert!(*n <= *l, "aged value rose from {l} to {n}");
                assert!(*n >= 0.0);
            }
            last = now;
        }
    });
}

/// The divergence of window `b` from a baseline holding exactly `a`: one
/// fold at decay 0 makes the baseline the previous window.
fn delta(a: &CorrelationMatrix, b: &CorrelationMatrix) -> f64 {
    let mut aged = AgedCorrelation::new(a.num_threads(), 0.0);
    aged.fold_window(None, a);
    aged.fold_window(None, b)
}

/// A matrix survives the CSV pipeline bit-for-bit, so its delta to the
/// round-tripped copy is exactly zero.
#[test]
fn csv_round_trip_has_zero_delta() {
    forall(64, 0, matrix, |m| {
        let back = CorrelationMatrix::from_csv(&render_csv(m)).expect("round trip");
        assert_eq!(delta(m, &back), 0.0);
        assert_eq!(&back, m);
    });
}

/// Delta is symmetric, bounded in [0, 1], and zero on itself.
#[test]
fn delta_is_symmetric_and_bounded() {
    forall(64, 0, two, |(a, b)| {
        let d = delta(a, b);
        assert!((0.0..=1.0).contains(&d));
        assert_eq!(d, delta(b, a));
        assert_eq!(delta(a, a), 0.0);
    });
}
