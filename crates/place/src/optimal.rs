//! Exact optimal placement by branch and bound.
//!
//! The paper used integer-programming software to identify optimal mappings
//! and reported that its clustering heuristics came within 1% of them. This
//! module provides the exact reference for tractable instance sizes: a
//! depth-first branch and bound over balanced assignments with node-symmetry
//! breaking. Complexity is exponential — intended for tests and ablations
//! (≈16 threads / 4 nodes and below), not production placement.

use acorr_sim::{ClusterConfig, Mapping, NodeId};
use acorr_track::{cut_cost, CorrelationMatrix};

/// Finds a balanced mapping with the minimum cut cost, exactly.
///
/// Node populations match the stretch heuristic's quotas (equal up to
/// rounding). Among equal-cost optima, the lexicographically smallest
/// assignment (by thread, then node index) is returned, which makes results
/// deterministic and test-friendly.
///
/// # Panics
///
/// Panics if the matrix covers a different thread count than the cluster.
pub fn optimal(corr: &CorrelationMatrix, cluster: &ClusterConfig) -> Mapping {
    assert_eq!(
        corr.num_threads(),
        cluster.num_threads(),
        "matrix and cluster must cover the same threads"
    );
    let n = corr.num_threads();
    let quotas = Mapping::stretch(cluster).node_counts();
    let nodes = cluster.num_nodes();

    let mut assignment: Vec<u16> = vec![0; n];
    let mut counts = vec![0usize; nodes];
    let mut best_cut = u64::MAX;
    let mut best: Vec<u16> = Vec::new();

    // Unordered running cut (we double at the end to match cut_cost).
    #[allow(clippy::too_many_arguments)] // explicit DFS state beats a context struct here
    fn dfs(
        t: usize,
        running_cut: u64,
        corr: &CorrelationMatrix,
        quotas: &[usize],
        assignment: &mut Vec<u16>,
        counts: &mut Vec<usize>,
        best_cut: &mut u64,
        best: &mut Vec<u16>,
    ) {
        let n = corr.num_threads();
        if running_cut >= *best_cut {
            return; // bound
        }
        if t == n {
            *best_cut = running_cut;
            *best = assignment.clone();
            return;
        }
        // Symmetry breaking: thread t may open at most one new node.
        let max_open = counts.iter().position(|&c| c == 0).unwrap_or(counts.len());
        for node in 0..=max_open.min(counts.len() - 1) {
            if counts[node] >= quotas[node] {
                continue;
            }
            let mut added = 0u64;
            for (other, &a) in assignment.iter().enumerate().take(t) {
                if a as usize != node {
                    added += corr.get(t, other);
                }
            }
            assignment[t] = node as u16;
            counts[node] += 1;
            dfs(
                t + 1,
                running_cut + added,
                corr,
                quotas,
                assignment,
                counts,
                best_cut,
                best,
            );
            counts[node] -= 1;
        }
    }

    dfs(
        0,
        0,
        corr,
        &quotas,
        &mut assignment,
        &mut counts,
        &mut best_cut,
        &mut best,
    );

    let mapping = Mapping::from_assignment(cluster, best.into_iter().map(NodeId).collect())
        .expect("balanced exhaustive assignment is valid");
    debug_assert_eq!(cut_cost(corr, &mapping), best_cut * 2);
    mapping
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mincost::min_cost;
    use acorr_sim::DetRng;

    /// The store holding `value(a, b)` on every pair `a < b` of `n`
    /// threads, drawn in ascending pair order.
    fn upper(n: usize, mut value: impl FnMut(usize, usize) -> u64) -> CorrelationMatrix {
        let pairs = (0..n).flat_map(|a| ((a + 1)..n).map(move |b| (a, b)));
        CorrelationMatrix::from_edges(n, pairs.map(|(a, b)| (a as u32, b as u32, value(a, b))))
    }

    fn random_matrix(n: usize, seed: u64, max: u64) -> CorrelationMatrix {
        let mut rng = DetRng::new(seed);
        upper(n, |_, _| rng.next_below(max))
    }

    #[test]
    fn trivial_instances() {
        // Two threads, two nodes: the only balanced mapping cuts the pair.
        let c = CorrelationMatrix::from_edges(2, [(0, 1, 5)]);
        let cluster = ClusterConfig::new(2, 2).unwrap();
        let m = optimal(&c, &cluster);
        assert_eq!(cut_cost(&c, &m), 10);
    }

    #[test]
    fn finds_zero_cut_when_one_exists() {
        // Interleaved blocks: threads with equal parity share.
        let n = 8;
        let c = upper(n, |a, b| if a % 2 == b % 2 { 3 } else { 0 });
        let cluster = ClusterConfig::new(2, n).unwrap();
        let m = optimal(&c, &cluster);
        assert_eq!(cut_cost(&c, &m), 0);
    }

    #[test]
    fn beats_or_matches_every_balanced_random_mapping() {
        let c = random_matrix(10, 11, 15);
        let cluster = ClusterConfig::new(2, 10).unwrap();
        let opt = cut_cost(&c, &optimal(&c, &cluster));
        let rng = DetRng::new(5);
        for s in 0..200 {
            let m = Mapping::random_balanced(&cluster, &mut rng.fork(s));
            assert!(opt <= cut_cost(&c, &m), "seed {s}");
        }
    }

    #[test]
    fn min_cost_is_within_one_percent_of_optimal() {
        // The paper's §5.1 claim, checked on a spread of random instances.
        for seed in 0..8 {
            let c = random_matrix(12, seed, 25);
            let cluster = ClusterConfig::new(3, 12).unwrap();
            let opt = cut_cost(&c, &optimal(&c, &cluster)) as f64;
            let heur = cut_cost(&c, &min_cost(&c, &cluster)) as f64;
            assert!(
                heur <= opt * 1.01 + 1e-9,
                "seed {seed}: min-cost {heur} vs optimal {opt}"
            );
        }
    }

    #[test]
    fn min_cost_matches_optimal_on_structured_sharing() {
        // Nearest-neighbor and block patterns (the paper's app shapes).
        let chain = CorrelationMatrix::from_edges(12, (0..11).map(|i| (i, i + 1, 4)));
        let cluster = ClusterConfig::new(4, 12).unwrap();
        assert_eq!(
            cut_cost(&chain, &min_cost(&chain, &cluster)),
            cut_cost(&chain, &optimal(&chain, &cluster))
        );
    }

    #[test]
    fn respects_ragged_quotas() {
        let c = random_matrix(7, 2, 9);
        let cluster = ClusterConfig::new(2, 7).unwrap();
        let m = optimal(&c, &cluster);
        let mut counts = m.node_counts();
        counts.sort_unstable();
        assert_eq!(counts, vec![3, 4]);
    }
}
