//! Simulated-annealing placement.
//!
//! A third member of the paper's "several heuristics" family: start from
//! the stretch mapping, propose random balanced swaps, accept improvements
//! always and regressions with a temperature-controlled probability. Slower
//! than the clustering heuristics, occasionally better on irregular
//! matrices; mostly useful as an independent check that min-cost is not
//! stuck in a poor local optimum.

use crate::mincost::{refine_kl, DegreeCache};
use acorr_sim::{ClusterConfig, DetRng, Mapping};
use acorr_track::{cut_cost, CorrelationMatrix};

/// Annealing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealConfig {
    /// Swap proposals evaluated.
    pub steps: usize,
    /// Starting temperature as a fraction of the initial cut cost.
    pub start_temp: f64,
    /// Multiplicative cooling per step.
    pub cooling: f64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            steps: 4000,
            start_temp: 0.05,
            cooling: 0.999,
        }
    }
}

/// Simulated-annealing placement, finished with one Kernighan-Lin pass.
///
/// # Panics
///
/// Panics if the matrix covers a different thread count than the cluster.
pub fn anneal(
    corr: &CorrelationMatrix,
    cluster: &ClusterConfig,
    config: &AnnealConfig,
    rng: &mut DetRng,
) -> Mapping {
    assert_eq!(
        corr.num_threads(),
        cluster.num_threads(),
        "matrix and cluster must cover the same threads"
    );
    let n = corr.num_threads();
    let mut current = Mapping::stretch(cluster);
    // The same D-value cache the KL kernel uses scores each proposal in
    // O(1) (the ordered cut delta of a swap is exactly -2 * gain) instead
    // of re-walking the whole matrix per step; an accepted swap updates the
    // cache in O(n). Deltas and cuts are small exact integers, so the
    // acceptance test — including the RNG draw order — is bit-identical to
    // the recompute-the-cut formulation this replaces.
    let mut cache = DegreeCache::new(corr, &current);
    let mut current_cut = cut_cost(corr, &current) as i64;
    let mut best = current.clone();
    let mut best_cut = current_cut;
    let mut temp = (current_cut as f64 * config.start_temp).max(1.0);
    for _ in 0..config.steps {
        let a = rng.index(n);
        let b = rng.index(n);
        if a == b || current.node_of(a) == current.node_of(b) {
            temp *= config.cooling;
            continue;
        }
        let (na, nb) = (current.node_of(a), current.node_of(b));
        let delta = -2 * cache.gain(corr, &current, a, b);
        let accept = delta <= 0 || rng.next_f64() < (-(delta as f64) / temp).exp();
        if accept {
            cache.apply_swap(corr, a, b, na, nb);
            current.set_node_of(a, nb);
            current.set_node_of(b, na);
            current_cut += delta;
            if current_cut < best_cut {
                best = current.clone();
                best_cut = current_cut;
            }
        }
        temp *= config.cooling;
    }
    refine_kl(corr, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{min_cost, optimal};

    /// The store holding `value(a, b)` on every pair `a < b` of `n`
    /// threads, drawn in ascending pair order.
    fn upper(n: usize, mut value: impl FnMut(usize, usize) -> u64) -> CorrelationMatrix {
        let pairs = (0..n).flat_map(|a| ((a + 1)..n).map(move |b| (a, b)));
        CorrelationMatrix::from_edges(n, pairs.map(|(a, b)| (a as u32, b as u32, value(a, b))))
    }

    fn scrambled_blocks(n: usize, b: usize, w: u64) -> CorrelationMatrix {
        // Threads with equal index mod (n/b) share.
        let groups = n / b;
        upper(n, |a, d| if a % groups == d % groups { w } else { 0 })
    }

    #[test]
    fn finds_zero_cut_on_scrambled_blocks() {
        let corr = scrambled_blocks(16, 4, 6);
        let cluster = ClusterConfig::new(4, 16).unwrap();
        let mut rng = DetRng::new(5);
        let m = anneal(&corr, &cluster, &AnnealConfig::default(), &mut rng);
        assert_eq!(cut_cost(&corr, &m), 0, "{m}");
        assert!(m.is_balanced());
    }

    #[test]
    fn never_worse_than_stretch() {
        let rng = DetRng::new(9);
        for seed in 0..5 {
            let n = 12;
            let mut r = rng.fork(seed);
            let corr = upper(n, |_, _| r.next_below(10));
            let cluster = ClusterConfig::new(3, n).unwrap();
            let annealed = anneal(&corr, &cluster, &AnnealConfig::default(), &mut r);
            let stretch = Mapping::stretch(&cluster);
            assert!(cut_cost(&corr, &annealed) <= cut_cost(&corr, &stretch));
        }
    }

    #[test]
    fn close_to_optimal_on_small_instances() {
        let rng = DetRng::new(21);
        for seed in 0..4 {
            let n = 10;
            let mut r = rng.fork(seed);
            let corr = upper(n, |_, _| r.next_below(15));
            let cluster = ClusterConfig::new(2, n).unwrap();
            let ann = cut_cost(
                &corr,
                &anneal(&corr, &cluster, &AnnealConfig::default(), &mut r),
            );
            let opt = cut_cost(&corr, &optimal(&corr, &cluster));
            assert!(
                ann as f64 <= opt as f64 * 1.05 + 1e-9,
                "seed {seed}: annealed {ann} vs optimal {opt}"
            );
        }
    }

    #[test]
    fn agrees_with_min_cost_on_structure() {
        let corr = scrambled_blocks(16, 4, 6);
        let cluster = ClusterConfig::new(4, 16).unwrap();
        let mut rng = DetRng::new(2);
        let ann = cut_cost(
            &corr,
            &anneal(&corr, &cluster, &AnnealConfig::default(), &mut rng),
        );
        let mc = cut_cost(&corr, &min_cost(&corr, &cluster));
        assert_eq!(ann, mc);
    }

    #[test]
    fn deterministic_for_a_seed() {
        let corr = scrambled_blocks(16, 4, 3);
        let cluster = ClusterConfig::new(4, 16).unwrap();
        let run = |seed| {
            let mut rng = DetRng::new(seed);
            anneal(&corr, &cluster, &AnnealConfig::default(), &mut rng)
        };
        assert_eq!(run(1), run(1));
    }
}
