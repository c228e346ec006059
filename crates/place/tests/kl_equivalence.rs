//! Equivalence of the incremental (D-value-cached) placement kernels with
//! the direct reference implementations, on seeded random matrices:
//!
//! * `refine_kl` must return a mapping **bit-identical** to
//!   [`refine_kl_reference`] (not merely one of equal cut), so swapping the
//!   kernel cannot perturb any downstream experiment.
//! * The `DegreeCache` must agree with a from-scratch rebuild after every
//!   accepted swap — the invariant that makes the O(n) update sound.
//! * `anneal` (which now scores proposals from the cache) must reproduce
//!   the recompute-the-cut formulation's trajectory exactly, including the
//!   RNG draw order.

use acorr_place::{anneal, refine_kl, AnnealConfig, DegreeCache};
use acorr_sim::{ClusterConfig, DetRng, Mapping};
use acorr_track::{cut_cost, CorrelationMatrix};

/// The pre-cache refinement kernel: identical selection logic to
/// `refine_kl` but recomputing every gain from scratch with [`swap_gain`],
/// O(n³) per pass. The oracle the cached kernels are checked against.
fn refine_kl_reference(corr: &CorrelationMatrix, mut mapping: Mapping) -> Mapping {
    let n = corr.num_threads();
    loop {
        let mut best_gain = 0i64;
        let mut best_pair: Option<(usize, usize)> = None;
        for a in 0..n {
            for b in (a + 1)..n {
                if mapping.node_of(a) == mapping.node_of(b) {
                    continue;
                }
                let gain = swap_gain(corr, &mapping, a, b);
                if gain > best_gain {
                    best_gain = gain;
                    best_pair = Some((a, b));
                }
            }
        }
        match best_pair {
            Some((a, b)) => {
                let na = mapping.node_of(a);
                let nb = mapping.node_of(b);
                mapping.set_node_of(a, nb);
                mapping.set_node_of(b, na);
            }
            None => return mapping,
        }
    }
}

/// The (unordered) cut reduction from swapping threads `a` and `b`, which
/// must be on different nodes: `D_a + D_b - 2*c(a,b)` with
/// `D_x = external(x) - internal(x)`.
fn swap_gain(corr: &CorrelationMatrix, mapping: &Mapping, a: usize, b: usize) -> i64 {
    let na = mapping.node_of(a);
    let nb = mapping.node_of(b);
    let mut d_a = 0i64;
    let mut d_b = 0i64;
    for t in 0..corr.num_threads() {
        if t != a {
            let v = corr.get(a, t) as i64;
            if mapping.node_of(t) == nb {
                d_a += v; // becomes internal
            } else if mapping.node_of(t) == na {
                d_a -= v; // becomes external
            }
        }
        if t != b {
            let v = corr.get(b, t) as i64;
            if mapping.node_of(t) == na {
                d_b += v;
            } else if mapping.node_of(t) == nb {
                d_b -= v;
            }
        }
    }
    // The (a,b) edge stays cut after the swap but was counted as a gain in
    // both D terms.
    d_a + d_b - 2 * corr.get(a, b) as i64
}

fn random_matrix(n: usize, max: u64, rng: &mut DetRng) -> CorrelationMatrix {
    let pairs = (0..n).flat_map(|a| ((a + 1)..n).map(move |b| (a as u32, b as u32)));
    CorrelationMatrix::from_edges(n, pairs.map(|(a, b)| (a, b, rng.next_below(max))))
}

#[test]
fn refine_kl_is_bit_identical_to_reference() {
    let rng = DetRng::new(0x51);
    for seed in 0..12 {
        let mut r = rng.fork(seed);
        let n = 8 + (seed as usize % 3) * 8; // 8, 16, 24
        let nodes = 2 + seed as usize % 3; // 2, 3, 4
        let corr = random_matrix(n, 25, &mut r);
        let cluster = ClusterConfig::new(nodes, n).unwrap();
        let start = Mapping::random_balanced(&cluster, &mut r);
        let fast = refine_kl(&corr, start.clone());
        let slow = refine_kl_reference(&corr, start.clone());
        assert_eq!(fast, slow, "seed {seed}: mappings diverged");
        assert!(
            cut_cost(&corr, &fast) <= cut_cost(&corr, &start),
            "seed {seed}: refinement worsened the cut"
        );
    }
}

#[test]
fn incremental_refine_matches_reference() {
    let rng = DetRng::new(23);
    for seed in 0..8 {
        let n = 14;
        let mut r = rng.fork(seed);
        let corr = random_matrix(n, 17, &mut r);
        let cluster = ClusterConfig::new(2, n).unwrap();
        let start = Mapping::random_balanced(&cluster, &mut r);
        let fast = refine_kl(&corr, start.clone());
        let slow = refine_kl_reference(&corr, start);
        assert_eq!(fast, slow, "seed {seed}: mappings must be bit-identical");
    }
}

#[test]
fn swap_gain_matches_cut_delta() {
    let mut rng = DetRng::new(3);
    let n = 10;
    let corr = random_matrix(n, 9, &mut rng);
    let cluster = ClusterConfig::new(2, n).unwrap();
    let m = Mapping::stretch(&cluster);
    for a in 0..n {
        for b in (a + 1)..n {
            if m.node_of(a) == m.node_of(b) {
                continue;
            }
            let gain = swap_gain(&corr, &m, a, b);
            let mut swapped = m.clone();
            let (na, nb) = (m.node_of(a), m.node_of(b));
            swapped.set_node_of(a, nb);
            swapped.set_node_of(b, na);
            let delta = cut_cost(&corr, &m) as i64 - cut_cost(&corr, &swapped) as i64;
            // cut_cost uses the ordered (doubled) convention.
            assert_eq!(delta, 2 * gain, "pair ({a},{b})");
        }
    }
}

#[test]
fn cached_gain_matches_direct_gain() {
    let mut rng = DetRng::new(11);
    let n = 12;
    let corr = random_matrix(n, 13, &mut rng);
    let cluster = ClusterConfig::new(3, n).unwrap();
    let m = Mapping::random_balanced(&cluster, &mut rng);
    let cache = DegreeCache::new(&corr, &m);
    for a in 0..n {
        for b in (a + 1)..n {
            if m.node_of(a) == m.node_of(b) {
                continue;
            }
            assert_eq!(
                cache.gain(&corr, &m, a, b),
                swap_gain(&corr, &m, a, b),
                "pair ({a},{b})"
            );
        }
    }
}

#[test]
fn degree_cache_matches_rebuild_after_every_swap() {
    let rng = DetRng::new(0x52);
    for seed in 0..6 {
        let mut r = rng.fork(seed);
        let n = 18;
        let corr = random_matrix(n, 15, &mut r);
        let cluster = ClusterConfig::new(3, n).unwrap();
        let mut mapping = Mapping::random_balanced(&cluster, &mut r);
        let mut cache = DegreeCache::new(&corr, &mapping);
        assert_eq!(cache, DegreeCache::new(&corr, &mapping));
        // Walk a random swap trajectory, checking the O(n) update against a
        // full O(n²) rebuild at every step.
        for step in 0..40 {
            let a = r.index(n);
            let b = r.index(n);
            if a == b || mapping.node_of(a) == mapping.node_of(b) {
                continue;
            }
            let (na, nb) = (mapping.node_of(a), mapping.node_of(b));
            // The cached gain must match the true ordered cut delta.
            let gain = cache.gain(&corr, &mapping, a, b);
            let before = cut_cost(&corr, &mapping) as i64;
            cache.apply_swap(&corr, a, b, na, nb);
            mapping.set_node_of(a, nb);
            mapping.set_node_of(b, na);
            let after = cut_cost(&corr, &mapping) as i64;
            assert_eq!(before - after, 2 * gain, "seed {seed} step {step}: gain");
            assert_eq!(
                cache,
                DegreeCache::new(&corr, &mapping),
                "seed {seed} step {step}: cache drifted from rebuild"
            );
        }
    }
}

/// The pre-cache annealer, verbatim: clone the candidate, recompute its
/// full cut, accept on the f64 delta. The production `anneal` must
/// reproduce this trajectory exactly.
fn anneal_reference(
    corr: &CorrelationMatrix,
    cluster: &ClusterConfig,
    config: &AnnealConfig,
    rng: &mut DetRng,
) -> Mapping {
    let n = corr.num_threads();
    let mut current = Mapping::stretch(cluster);
    let mut current_cut = cut_cost(corr, &current) as f64;
    let mut best = current.clone();
    let mut best_cut = current_cut;
    let mut temp = (current_cut * config.start_temp).max(1.0);
    for _ in 0..config.steps {
        let a = rng.index(n);
        let b = rng.index(n);
        if a == b || current.node_of(a) == current.node_of(b) {
            temp *= config.cooling;
            continue;
        }
        let (na, nb) = (current.node_of(a), current.node_of(b));
        let mut candidate = current.clone();
        candidate.set_node_of(a, nb);
        candidate.set_node_of(b, na);
        let candidate_cut = cut_cost(corr, &candidate) as f64;
        let delta = candidate_cut - current_cut;
        let accept = delta <= 0.0 || rng.next_f64() < (-delta / temp).exp();
        if accept {
            current = candidate;
            current_cut = candidate_cut;
            if current_cut < best_cut {
                best = current.clone();
                best_cut = current_cut;
            }
        }
        temp *= config.cooling;
    }
    refine_kl_reference(corr, best)
}

#[test]
fn anneal_is_bit_identical_to_reference() {
    let rng = DetRng::new(0x53);
    for seed in 0..5 {
        let mut r = rng.fork(seed);
        let n = 16;
        let corr = random_matrix(n, 20, &mut r);
        let cluster = ClusterConfig::new(4, n).unwrap();
        let config = AnnealConfig {
            steps: 1500,
            ..AnnealConfig::default()
        };
        let mut rng_fast = DetRng::new(100 + seed);
        let mut rng_ref = DetRng::new(100 + seed);
        let fast = anneal(&corr, &cluster, &config, &mut rng_fast);
        let slow = anneal_reference(&corr, &cluster, &config, &mut rng_ref);
        assert_eq!(fast, slow, "seed {seed}: trajectories diverged");
        // Identical RNG consumption: both must have drawn the same stream.
        assert_eq!(rng_fast.next_u64(), rng_ref.next_u64(), "seed {seed}: rng");
    }
}
