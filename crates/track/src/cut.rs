//! Cut costs.
//!
//! §2 of the paper: *"The cut cost of a given mapping of threads to nodes is
//! the pairwise sum of all thread correlations, i.e. a sum with n² terms"* —
//! restricted to thread pairs on distinct nodes. Following that convention,
//! [`cut_cost`] sums **ordered** pairs (each unordered pair counts twice),
//! which reproduces the magnitudes of Table 6 (e.g. SOR's min-cost cut of
//! 28 = 7 cross-node neighbor pairs × 2 pages × 2 orders).

use crate::correlation::CorrelationMatrix;
use acorr_sim::Mapping;

/// Whether a thread pair crosses a node boundary under `mapping`.
pub fn pair_is_cut(mapping: &Mapping, a: usize, b: usize) -> bool {
    mapping.node_of(a) != mapping.node_of(b)
}

/// The cut cost of `mapping`: total correlation of thread pairs placed on
/// distinct nodes (ordered-pair convention), in one `O(E)` walk over the
/// non-zero pairs (zero pairs contribute nothing).
///
/// # Panics
///
/// Panics if the mapping and matrix cover different thread counts.
pub fn cut_cost(corr: &CorrelationMatrix, mapping: &Mapping) -> u64 {
    assert_eq!(
        corr.num_threads(),
        mapping.num_threads(),
        "matrix and mapping must cover the same threads"
    );
    let mut cost = 0;
    corr.for_each_edge(|a, b, v| {
        if pair_is_cut(mapping, a, b) {
            cost += 2 * v;
        }
    });
    cost
}

/// The complement of the cut: correlation mass of same-node pairs (the
/// sharing that lands inside Figure 3's "free zones").
///
/// # Panics
///
/// Panics if the mapping and matrix cover different thread counts.
pub fn internal_cost(corr: &CorrelationMatrix, mapping: &Mapping) -> u64 {
    assert_eq!(
        corr.num_threads(),
        mapping.num_threads(),
        "matrix and mapping must cover the same threads"
    );
    let mut cost = 0;
    corr.for_each_edge(|a, b, v| {
        if !pair_is_cut(mapping, a, b) {
            cost += 2 * v;
        }
    });
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorr_sim::{ClusterConfig, DetRng, NodeId};

    /// A 4-thread chain: neighbors share 2 pages.
    fn chain4() -> CorrelationMatrix {
        let mut c = CorrelationMatrix::zeros(4);
        c.set(0, 1, 2);
        c.set(1, 2, 2);
        c.set(2, 3, 2);
        c
    }

    fn mapping(assign: Vec<u16>) -> Mapping {
        let nodes = *assign.iter().max().unwrap() as usize + 1;
        let cluster = ClusterConfig::new(nodes, assign.len()).unwrap();
        Mapping::from_assignment(&cluster, assign.into_iter().map(NodeId).collect()).unwrap()
    }

    #[test]
    fn contiguous_split_cuts_one_edge() {
        let c = chain4();
        let m = mapping(vec![0, 0, 1, 1]);
        assert_eq!(cut_cost(&c, &m), 4); // edge (1,2), 2 pages, ordered
        assert_eq!(internal_cost(&c, &m), 8);
        assert_eq!(
            cut_cost(&c, &m) + internal_cost(&c, &m),
            c.total_correlation()
        );
    }

    #[test]
    fn interleaved_split_cuts_everything() {
        let c = chain4();
        let m = mapping(vec![0, 1, 0, 1]);
        assert_eq!(cut_cost(&c, &m), 12);
        assert_eq!(internal_cost(&c, &m), 0);
    }

    #[test]
    fn single_node_has_zero_cut() {
        let c = chain4();
        let cluster = ClusterConfig::new(1, 4).unwrap();
        let m = Mapping::stretch(&cluster);
        assert_eq!(cut_cost(&c, &m), 0);
        assert_eq!(internal_cost(&c, &m), c.total_correlation());
    }

    #[test]
    fn pair_is_cut_matches_mapping() {
        let m = mapping(vec![0, 0, 1, 1]);
        assert!(!pair_is_cut(&m, 0, 1));
        assert!(pair_is_cut(&m, 1, 2));
    }

    #[test]
    fn cut_plus_internal_is_invariant_across_mappings() {
        let c = chain4();
        let cluster = ClusterConfig::new(2, 4).unwrap();
        let rng = DetRng::new(1);
        for s in 0..20 {
            let m = Mapping::random_balanced(&cluster, &mut rng.fork(s));
            assert_eq!(
                cut_cost(&c, &m) + internal_cost(&c, &m),
                c.total_correlation()
            );
        }
    }

    #[test]
    #[should_panic(expected = "same threads")]
    fn mismatched_sizes_panic() {
        let c = chain4();
        let cluster = ClusterConfig::new(2, 6).unwrap();
        cut_cost(&c, &Mapping::stretch(&cluster));
    }
}
