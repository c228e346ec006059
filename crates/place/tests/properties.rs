//! Property tests: every placement strategy yields a valid, constraint-
//! respecting mapping on arbitrary correlation matrices, and the migration
//! cost model and re-mapping policies behind the online placement
//! service's accept/reject gate hold their contracts.

use acorr_place::{
    anneal, jarvis_patrick, min_cost, optimal, plan_migration, refine_kl, AnnealConfig,
    MigrationCostModel, MigrationPolicy,
};
use acorr_sim::{forall, ClusterConfig, DetRng, Mapping};
use acorr_track::{cut_cost, CorrelationMatrix};

/// An arbitrary `n`-thread correlation matrix with pair values below 32.
fn matrix(rng: &mut DetRng, n: usize) -> CorrelationMatrix {
    let mut c = CorrelationMatrix::zeros(n);
    for a in 0..n {
        for b in (a + 1)..n {
            c.set(a, b, rng.next_below(32));
        }
    }
    c
}

fn model(rng: &mut DetRng) -> MigrationCostModel {
    MigrationCostModel::new(rng.next_below(64), rng.next_below(16), rng.next_below(256))
}

/// Clustering heuristics always produce balanced mappings covering
/// every node, and KL refinement never increases the cut.
#[test]
fn heuristics_produce_valid_balanced_mappings() {
    let input = |rng: &mut DetRng| (matrix(rng, 12), rng.range(2, 5) as usize);
    forall(48, 0, input, |&(ref corr, nodes)| {
        let cluster = ClusterConfig::new(nodes, 12).expect("cluster");
        for m in [min_cost(corr, &cluster), jarvis_patrick(corr, &cluster)] {
            assert!(m.is_balanced(), "{m}");
            assert!(m.node_counts().iter().all(|&c| c > 0));
        }
        let mut rng = DetRng::new(7);
        let start = Mapping::random_balanced(&cluster, &mut rng);
        let before = cut_cost(corr, &start);
        let refined = refine_kl(corr, start);
        assert!(cut_cost(corr, &refined) <= before);
    });
}

/// The exact optimum lower-bounds every heuristic.
#[test]
fn optimal_lower_bounds_heuristics() {
    let input = |rng: &mut DetRng| matrix(rng, 10);
    forall(48, 0, input, |corr| {
        let cluster = ClusterConfig::new(2, 10).expect("cluster");
        let opt = cut_cost(corr, &optimal(corr, &cluster));
        let mut rng = DetRng::new(1);
        for cut in [
            cut_cost(corr, &min_cost(corr, &cluster)),
            cut_cost(corr, &jarvis_patrick(corr, &cluster)),
            cut_cost(
                corr,
                &anneal(corr, &cluster, &AnnealConfig::default(), &mut rng),
            ),
            cut_cost(corr, &Mapping::stretch(&cluster)),
        ] {
            assert!(opt <= cut, "optimal {opt} vs heuristic {cut}");
        }
    });
}

/// Moving more pages never costs less, and adding threads to a
/// migration never costs less either.
#[test]
fn cost_is_monotone_in_pages_and_moves() {
    let input = |rng: &mut DetRng| {
        let pages = (rng.next_below(10_000), rng.next_below(10_000));
        (model(rng), pages, rng.range(1, 500) as usize)
    };
    forall(48, 0, input, |&(model, (a, b), moves)| {
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(model.page_cost(lo) <= model.page_cost(hi));
        assert!(model.migration_cost(moves) <= model.migration_cost(moves + 1));
    });
}

/// The gate accepts exactly when the predicted improvement strictly
/// exceeds the migration cost — never on equality.
#[test]
fn remap_accepted_only_when_gain_strictly_exceeds_cost() {
    let input = |rng: &mut DetRng| (model(rng), rng.next_below(100_000), rng.index(500));
    forall(48, 0, input, |&(model, gain, moves)| {
        let cost = model.migration_cost(moves);
        assert_eq!(model.accepts(gain, moves), gain > cost);
        assert!(!model.accepts(cost, moves), "equality must reject");
    });
}

/// A zero-cost model degenerates to the paper's always-re-map
/// behavior: any strict improvement is taken, regardless of how many
/// threads move.
#[test]
fn zero_cost_model_degenerates_to_always_remap() {
    let input = |rng: &mut DetRng| (rng.next_below(100_000), rng.index(10_000));
    forall(48, 0, input, |&(gain, moves)| {
        let model = MigrationCostModel::zero();
        assert_eq!(model.accepts(gain, moves), gain > 0);
    });
}

/// The interchange policy never worsens the cut, preserves node
/// occupancy, and respects its swap budget on arbitrary matrices.
#[test]
fn interchange_is_safe_on_arbitrary_matrices() {
    let input = |rng: &mut DetRng| {
        let corr = matrix(rng, 12);
        (
            corr,
            rng.range(2, 5) as usize,
            rng.index(7),
            rng.next_below(1_000),
        )
    };
    forall(48, 0, input, |&(ref corr, nodes, max_swaps, seed)| {
        let cluster = ClusterConfig::new(nodes, 12).expect("cluster");
        let current = Mapping::random_balanced(&cluster, &mut DetRng::new(seed));
        let candidate = Mapping::random_balanced(&cluster, &mut DetRng::new(seed ^ 0xA5A5));
        let planned = plan_migration(
            MigrationPolicy::Interchange,
            corr,
            &current,
            &candidate,
            max_swaps,
        );
        assert!(cut_cost(corr, &planned) <= cut_cost(corr, &current));
        assert_eq!(planned.node_counts(), current.node_counts());
        assert!(planned.moves_from(&current) <= 2 * max_swaps);
    });
}
