//! Strategy dispatch.

use crate::{anneal, jarvis_patrick, min_cost, optimal, AnnealConfig};
use acorr_sim::{ClusterConfig, DetRng, Mapping};
use acorr_track::CorrelationMatrix;
use std::fmt;

/// The placement policies compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Contiguous equal blocks in thread order (§5.1's *stretch*).
    Stretch,
    /// Uniformly random balanced assignment (Table 6's "ran").
    RandomBalanced,
    /// Random, possibly unbalanced, at least two threads per node (the
    /// Table 2 configuration generator).
    RandomMinTwo,
    /// Greedy clustering + Kernighan-Lin refinement (§5.1's *min-cost*).
    MinCost,
    /// Jarvis-Patrick shared-near-neighbor clustering + refinement (the
    /// cluster-analysis method the paper cites).
    JarvisPatrick,
    /// Simulated annealing + refinement.
    Anneal,
    /// Exact branch-and-bound optimum (tractable sizes only).
    Optimal,
}

impl Strategy {
    /// All strategies, in report order.
    pub const ALL: [Strategy; 7] = [
        Strategy::Stretch,
        Strategy::RandomBalanced,
        Strategy::RandomMinTwo,
        Strategy::MinCost,
        Strategy::JarvisPatrick,
        Strategy::Anneal,
        Strategy::Optimal,
    ];

    /// The CLI and report name (`stretch`, `random`, `random-min2`,
    /// `min-cost`, `jarvis-patrick`, `anneal`, `optimal`).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Stretch => "stretch",
            Strategy::RandomBalanced => "random",
            Strategy::RandomMinTwo => "random-min2",
            Strategy::MinCost => "min-cost",
            Strategy::JarvisPatrick => "jarvis-patrick",
            Strategy::Anneal => "anneal",
            Strategy::Optimal => "optimal",
        }
    }

    /// Parses a CLI name back into a strategy.
    pub fn parse(name: &str) -> Option<Strategy> {
        Strategy::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Produces a mapping with the chosen strategy. The correlation matrix is
/// only consulted by `MinCost` and `Optimal`; the RNG only by the random
/// strategies.
///
/// # Panics
///
/// Panics if the matrix covers a different thread count than the cluster
/// (for the strategies that use it), or if `RandomMinTwo` is asked for a
/// cluster with fewer than two threads per node.
pub fn place(
    strategy: Strategy,
    corr: &CorrelationMatrix,
    cluster: &ClusterConfig,
    rng: &mut DetRng,
) -> Mapping {
    match strategy {
        Strategy::Stretch => Mapping::stretch(cluster),
        Strategy::RandomBalanced => Mapping::random_balanced(cluster, rng),
        Strategy::RandomMinTwo => Mapping::random_min_two(cluster, rng),
        Strategy::MinCost => min_cost(corr, cluster),
        Strategy::JarvisPatrick => jarvis_patrick(corr, cluster),
        Strategy::Anneal => anneal(corr, cluster, &AnnealConfig::default(), rng),
        Strategy::Optimal => optimal(corr, cluster),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorr_track::cut_cost;

    #[test]
    fn dispatch_produces_valid_mappings() {
        let cluster = ClusterConfig::new(2, 8).unwrap();
        let corr = CorrelationMatrix::from_edges(8, [(0, 1, 3)]);
        let mut rng = DetRng::new(1);
        for s in Strategy::ALL {
            let m = place(s, &corr, &cluster, &mut rng);
            assert_eq!(m.num_threads(), 8, "{s}");
            assert!(m.node_counts().iter().all(|&c| c > 0), "{s}");
        }
    }

    #[test]
    fn min_cost_never_loses_to_stretch() {
        let cluster = ClusterConfig::new(4, 16).unwrap();
        let corr = CorrelationMatrix::from_edges(16, (0..15).map(|i| (i, i + 1, 2)));
        let mut rng = DetRng::new(2);
        let mc = place(Strategy::MinCost, &corr, &cluster, &mut rng);
        let st = place(Strategy::Stretch, &corr, &cluster, &mut rng);
        assert!(cut_cost(&corr, &mc) <= cut_cost(&corr, &st));
    }

    #[test]
    fn display_names() {
        assert_eq!(Strategy::MinCost.to_string(), "min-cost");
        assert_eq!(Strategy::Stretch.to_string(), "stretch");
        assert_eq!(Strategy::ALL.len(), 7);
    }

    #[test]
    fn every_strategy_round_trips_through_its_name() {
        for s in Strategy::ALL {
            assert_eq!(Strategy::parse(s.name()), Some(s), "{s}");
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(Strategy::parse("magic"), None);
    }
}
