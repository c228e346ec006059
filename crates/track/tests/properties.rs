//! Property tests for correlation analysis: aging decay, delta/CSV
//! round-trips, and rounds as pair lists against their stores.

use acorr_sim::{forall, ClusterConfig, DetRng, Mapping};
use acorr_track::{
    cut_cost, pairs_cut_cost, render_csv, AgedCorrelation, CorrelationMatrix, PhaseDetector,
};

const N: usize = 5;

/// An arbitrary symmetric correlation matrix over `N` threads.
fn matrix(rng: &mut DetRng) -> CorrelationMatrix {
    let vals: Vec<u64> = (0..N * N).map(|_| rng.next_below(1_000)).collect();
    let upper = (0..N).flat_map(|a| (a..N).map(move |b| (a, b)));
    CorrelationMatrix::from_edges(N, upper.map(|(a, b)| (a as u32, b as u32, vals[a * N + b])))
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
    aged.observe(a);
    aged.observe(b)
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

/// A round as a pair list over `N` threads, half the time in the form
/// `TrafficDriver::step_edges` gives (ascending `a < b`, one entry per
/// pair, no zeros) and otherwise raw: duplicates, reversed pairs,
/// self-pairs and zero values in any order, all of which `from_edges`
/// normalizes.
fn pair_list(rng: &mut DetRng) -> Vec<(u32, u32, u64)> {
    let n = N as u64;
    let raw = (0..rng.index(12))
        .map(|_| {
            (
                rng.next_below(n) as u32,
                rng.next_below(n) as u32,
                rng.next_below(6),
            )
        })
        .collect();
    if rng.chance(0.5) {
        return raw;
    }
    let mut canonical = Vec::new();
    CorrelationMatrix::from_edges(N, raw)
        .for_each_edge(|a, b, v| canonical.push((a as u32, b as u32, v)));
    canonical
}

/// The serve loop's pair path and the store path agree round by round: a
/// detector fed pair lists fires the marks that one fed the stores
/// `from_edges` builds fires, and a pair list cuts as its store does. Each
/// round joins two generated lists, so a canonical half often meets a
/// duplicate.
#[test]
fn pair_lists_and_their_stores_agree() {
    let stream = |rng: &mut DetRng| {
        let rounds: Vec<_> = (0..rng.index(20))
            .map(|_| [pair_list(rng), pair_list(rng)].concat())
            .collect();
        let window = rng.range(1, 5) as usize;
        (rounds, window, rng.next_f64() * 0.99, rng.next_u64())
    };
    forall(256, 0, stream, |&(ref rounds, window, decay, seed)| {
        let detector = || PhaseDetector::with_thresholds(N, window, 350_000, 150_000, decay);
        let (mut by_pairs, mut by_store) = (detector(), detector());
        let cluster = ClusterConfig::new(2, N).unwrap();
        let mapping = Mapping::random_balanced(&cluster, &mut DetRng::new(seed));
        for round in rounds {
            let store = CorrelationMatrix::from_edges(N, round.iter().copied());
            assert_eq!(by_pairs.observe_pairs(round), by_store.observe(&store));
            assert_eq!(pairs_cut_cost(round, &mapping), cut_cost(&store, &mapping));
        }
        assert_eq!(by_pairs.flush(), by_store.flush());
        assert_eq!(by_pairs.shifts(), by_store.shifts());
        assert_eq!(by_pairs.windows_closed(), by_store.windows_closed());
    });
}
