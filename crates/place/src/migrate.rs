//! Migration cost model and re-mapping policies.
//!
//! The paper re-maps greedily whenever a better placement appears; the
//! NUMA thread-migration literature (PAPERS.md) adds two refinements the
//! online service needs: a *cost gate* — re-map only when the predicted
//! cut-cost improvement strictly exceeds what the migration itself costs
//! in page movement — and an *interchange* policy that realizes a
//! candidate mapping through a bounded number of profitable pairwise
//! swaps instead of wholesale adoption, keeping per-decision movement
//! small.

use crate::mincost::DegreeCache;
use acorr_sim::Mapping;
use acorr_track::CorrelationMatrix;
use std::fmt;

/// Predicted price of moving threads, in the same units as cut cost
/// (correlation mass ≈ pages transferred, ordered-pair convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationCostModel {
    /// Working-set pages a migrating thread drags to its new node.
    pub pages_per_thread: u64,
    /// Cost per page moved.
    pub cost_per_page: u64,
    /// Flat cost per re-mapping event (barrier, bookkeeping), charged
    /// only when at least one thread moves.
    pub fixed_cost: u64,
}

impl MigrationCostModel {
    /// A model with explicit parameters.
    pub fn new(pages_per_thread: u64, cost_per_page: u64, fixed_cost: u64) -> MigrationCostModel {
        MigrationCostModel {
            pages_per_thread,
            cost_per_page,
            fixed_cost,
        }
    }

    /// The free model: every re-map with any predicted improvement is
    /// accepted (the paper's always-re-map behavior).
    pub fn zero() -> MigrationCostModel {
        MigrationCostModel::new(0, 0, 0)
    }

    /// Cost of moving `pages` pages: `fixed_cost + pages·cost_per_page`
    /// (saturating, monotone in `pages`).
    pub fn page_cost(&self, pages: u64) -> u64 {
        self.fixed_cost
            .saturating_add(pages.saturating_mul(self.cost_per_page))
    }

    /// Cost of migrating `moves` threads; an empty migration is free.
    pub fn migration_cost(&self, moves: usize) -> u64 {
        if moves == 0 {
            return 0;
        }
        self.page_cost((moves as u64).saturating_mul(self.pages_per_thread))
    }

    /// The gate: re-map only when the predicted cut-cost improvement
    /// *strictly* exceeds the migration cost. The zero model therefore
    /// degenerates to "accept any strict improvement".
    pub fn accepts(&self, predicted_gain: u64, moves: usize) -> bool {
        predicted_gain > self.migration_cost(moves)
    }
}

impl Default for MigrationCostModel {
    /// Defaults sized for the serve loop's per-step cut magnitudes:
    /// four pages per thread at unit page cost, no fixed charge.
    fn default() -> MigrationCostModel {
        MigrationCostModel::new(4, 1, 0)
    }
}

/// How an accepted candidate mapping is turned into thread movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MigrationPolicy {
    /// The paper's policy: adopt the candidate wholesale.
    Greedy,
    /// NUMA-style interchange: perform up to a bounded number of
    /// profitable pairwise swaps among the threads the candidate wants
    /// moved, keeping the mapping balanced and the movement small.
    Interchange,
}

impl MigrationPolicy {
    /// Every policy, in CLI order.
    pub const ALL: [MigrationPolicy; 2] = [MigrationPolicy::Greedy, MigrationPolicy::Interchange];

    /// The CLI name (`greedy`, `interchange`).
    pub fn name(self) -> &'static str {
        match self {
            MigrationPolicy::Greedy => "greedy",
            MigrationPolicy::Interchange => "interchange",
        }
    }

    /// Parses a CLI name back into a policy.
    pub fn parse(name: &str) -> Option<MigrationPolicy> {
        MigrationPolicy::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl fmt::Display for MigrationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Plans the mapping the service would migrate to under `policy`, given
/// the current mapping and a freshly computed `candidate`. Greedy
/// returns the candidate; interchange returns a bounded-swap
/// approximation of it (possibly `current` unchanged when no profitable
/// swap exists).
///
/// # Panics
///
/// Panics if the mappings or matrix cover different thread counts.
pub fn plan_migration(
    policy: MigrationPolicy,
    corr: &CorrelationMatrix,
    current: &Mapping,
    candidate: &Mapping,
    max_swaps: usize,
) -> Mapping {
    match policy {
        MigrationPolicy::Greedy => candidate.clone(),
        MigrationPolicy::Interchange => interchange_migration(corr, current, candidate, max_swaps),
    }
}

/// The interchange policy: among the threads where `candidate` disagrees
/// with `current`, repeatedly apply the best strictly-positive-gain
/// pairwise swap (the Kernighan-Lin gain, via [`DegreeCache`]) until no
/// profitable swap remains or `max_swaps` swaps were made. Swaps
/// preserve node occupancy, so the result is balanced iff `current` is.
///
/// # Panics
///
/// Panics if the mappings or matrix cover different thread counts.
fn interchange_migration(
    corr: &CorrelationMatrix,
    current: &Mapping,
    candidate: &Mapping,
    max_swaps: usize,
) -> Mapping {
    assert_eq!(
        current.num_threads(),
        candidate.num_threads(),
        "mappings must cover the same threads"
    );
    let mut working = current.clone();
    let disagree: Vec<usize> = (0..current.num_threads())
        .filter(|&t| candidate.node_of(t) != current.node_of(t))
        .collect();
    if disagree.len() < 2 || max_swaps == 0 {
        return working;
    }
    let mut cache = DegreeCache::new(corr, &working);
    for _ in 0..max_swaps {
        let mut best: Option<(usize, usize, i64)> = None;
        for (i, &a) in disagree.iter().enumerate() {
            for &b in &disagree[i + 1..] {
                if working.node_of(a) == working.node_of(b) {
                    continue;
                }
                let gain = cache.gain(corr, &working, a, b);
                if gain > best.map_or(0, |(_, _, g)| g) {
                    best = Some((a, b, gain));
                }
            }
        }
        let Some((a, b, _)) = best else { break };
        let na = working.node_of(a);
        let nb = working.node_of(b);
        cache.apply_swap(corr, a, b, na, nb);
        working.set_node_of(a, nb);
        working.set_node_of(b, na);
    }
    working
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorr_sim::{ClusterConfig, DetRng};
    use acorr_track::cut_cost;

    fn ring(threads: usize, offset: usize, weight: u64) -> CorrelationMatrix {
        let mut c = CorrelationMatrix::zeros(threads);
        for i in 0..threads {
            let j = (i + offset) % threads;
            if i != j {
                c.add(i.min(j), i.max(j), weight);
            }
        }
        c
    }

    #[test]
    fn page_cost_is_monotone() {
        let m = MigrationCostModel::new(8, 3, 5);
        let mut last = 0;
        for pages in 0..100 {
            let c = m.page_cost(pages);
            assert!(c >= last);
            last = c;
        }
        assert_eq!(m.page_cost(0), 5);
        assert_eq!(m.page_cost(2), 11);
    }

    #[test]
    fn empty_migration_is_free_even_with_fixed_cost() {
        let m = MigrationCostModel::new(8, 3, 1000);
        assert_eq!(m.migration_cost(0), 0);
        assert_eq!(m.migration_cost(1), 1000 + 24);
    }

    #[test]
    fn gate_is_strict() {
        let m = MigrationCostModel::new(1, 1, 0);
        assert!(!m.accepts(4, 4), "gain equal to cost is rejected");
        assert!(m.accepts(5, 4));
        assert!(!m.accepts(0, 0), "no gain, no move");
    }

    #[test]
    fn zero_model_degenerates_to_always_remap() {
        let m = MigrationCostModel::zero();
        assert!(m.accepts(1, 1000));
        assert!(!m.accepts(0, 1000));
    }

    #[test]
    fn greedy_adopts_the_candidate() {
        let corr = ring(8, 1, 3);
        let cluster = ClusterConfig::new(2, 8).unwrap();
        let current = Mapping::stretch(&cluster);
        let candidate = Mapping::random_balanced(&cluster, &mut DetRng::new(3));
        let planned = plan_migration(MigrationPolicy::Greedy, &corr, &current, &candidate, 4);
        assert_eq!(planned, candidate);
    }

    #[test]
    fn interchange_never_worsens_the_cut_and_stays_balanced() {
        let cluster = ClusterConfig::new(4, 16).unwrap();
        let rng = DetRng::new(9);
        for s in 0..10 {
            let corr = ring(16, 1 + (s as usize % 7), 5);
            let current = Mapping::random_balanced(&cluster, &mut rng.fork(s));
            let candidate = Mapping::random_balanced(&cluster, &mut rng.fork(100 + s));
            let planned = interchange_migration(&corr, &current, &candidate, 6);
            assert!(cut_cost(&corr, &planned) <= cut_cost(&corr, &current));
            assert_eq!(planned.node_counts(), current.node_counts());
            assert!(planned.moves_from(&current) <= 12, "≤ 2 threads per swap");
        }
    }

    #[test]
    fn interchange_with_no_disagreement_is_a_no_op() {
        let corr = ring(8, 1, 3);
        let cluster = ClusterConfig::new(2, 8).unwrap();
        let current = Mapping::stretch(&cluster);
        let planned = interchange_migration(&corr, &current, &current.clone(), 8);
        assert_eq!(planned, current);
    }

    #[test]
    fn interchange_repairs_a_rotated_ring() {
        // Stretch is optimal for an offset-1 ring; hand the policy a
        // deliberately scrambled current mapping and the stretch
        // candidate: swaps must recover real cut improvement.
        let corr = ring(8, 1, 10);
        let cluster = ClusterConfig::new(2, 8).unwrap();
        let candidate = Mapping::stretch(&cluster);
        let current = Mapping::random_balanced(&cluster, &mut DetRng::new(4));
        let planned = interchange_migration(&corr, &current, &candidate, 8);
        assert!(cut_cost(&corr, &planned) < cut_cost(&corr, &current));
    }

    #[test]
    fn policy_names_round_trip() {
        for p in MigrationPolicy::ALL {
            assert_eq!(MigrationPolicy::parse(p.name()), Some(p));
            assert_eq!(format!("{p}"), p.name());
        }
        assert_eq!(MigrationPolicy::parse("annealed"), None);
    }
}
