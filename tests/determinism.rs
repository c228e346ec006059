//! The parallel experiment harness's determinism contract, end to end:
//! every study must be **byte-identical** at any worker count, because the
//! pool forks per-sample seeds up-front and collects results in index
//! order (see `acorr_sim::pool`).

use active_correlation_tracking::apps;
use active_correlation_tracking::experiment::{scale_placement_study, Workbench};
use active_correlation_tracking::place::Strategy;

fn bench(jobs: usize) -> Workbench {
    Workbench::new(4, 16).unwrap().with_threads(jobs)
}

#[test]
fn cutcost_study_is_bit_identical_across_worker_counts() {
    let app = || apps::by_name("SOR", 16).expect("known app");
    let seq = bench(1).cutcost_study(app, 12, 1).unwrap();
    for jobs in [2, 4] {
        let par = bench(jobs).cutcost_study(app, 12, 1).unwrap();
        // Full sample list, least-squares fit, and the CSV artifact the
        // bench binaries write must all match byte-for-byte.
        assert_eq!(seq.samples, par.samples, "jobs={jobs}");
        assert_eq!(seq.fit, par.fit, "jobs={jobs}");
        assert_eq!(seq.to_csv(), par.to_csv(), "jobs={jobs}");
    }
}

#[test]
fn heuristic_comparison_is_bit_identical_across_worker_counts() {
    let app = || apps::by_name("Water", 16).expect("known app");
    let strategies = [Strategy::MinCost, Strategy::RandomBalanced];
    let seq = bench(1).heuristic_comparison(app, &strategies, 2).unwrap();
    let par = bench(4).heuristic_comparison(app, &strategies, 2).unwrap();
    assert_eq!(seq, par);
}

#[test]
fn passive_study_is_bit_identical_across_worker_counts() {
    let app = || apps::by_name("FFT7", 16).expect("known app");
    let seq = bench(1).passive_study(app, 3).unwrap();
    let par = bench(4).passive_study(app, 3).unwrap();
    assert_eq!(seq.completeness, par.completeness);
    assert_eq!(seq.moves, par.moves);
}

#[test]
fn scale_placement_is_pinned_at_every_worker_count() {
    // 10k threads on 64 nodes through the sparse generator and the
    // multilevel partitioner: the mapping digest and cut are pure
    // functions of (threads, nodes, degree, seed), whatever `jobs` the
    // generator runs on.
    for jobs in [1, 4, 8] {
        let row = scale_placement_study(10_000, 64, 8, 42, jobs).unwrap();
        assert_eq!(row.digest, "fnv1a:c8b9583da5ea3075", "jobs={jobs}");
        assert_eq!(row.cut, 525_364, "jobs={jobs}");
    }
}

// ---------------------------------------------------------------------
// The online placement service: the whole decision loop is a pure
// function of (seed, scenario, jobs) — the decision timeline and the
// final mapping must be byte-identical at any worker count and across
// reruns with a fixed seed.
// ---------------------------------------------------------------------

use active_correlation_tracking::place::MigrationPolicy;
use active_correlation_tracking::sim::Scenario;
use active_correlation_tracking::ServeOptions;

fn serve_bench(jobs: usize) -> Workbench {
    Workbench::new(8, 64).unwrap().with_threads(jobs)
}

#[test]
fn serve_timeline_is_bit_identical_across_worker_counts() {
    for scenario in [Scenario::Hotspot, Scenario::Churn] {
        for policy in [MigrationPolicy::Greedy, MigrationPolicy::Interchange] {
            let options = ServeOptions::new(scenario).with_policy(policy);
            let seq = serve_bench(1).serve_traffic(&options);
            for jobs in [4, 8] {
                let par = serve_bench(jobs).serve_traffic(&options);
                assert_eq!(
                    seq.timeline_text(),
                    par.timeline_text(),
                    "{scenario}/{policy} jobs={jobs}"
                );
                assert_eq!(
                    seq.final_mapping, par.final_mapping,
                    "{scenario}/{policy} jobs={jobs}"
                );
                assert_eq!(
                    seq.snapshot(),
                    par.snapshot(),
                    "{scenario}/{policy} jobs={jobs}"
                );
            }
        }
    }
}

#[test]
fn serve_reruns_with_a_fixed_seed_are_identical() {
    let options = ServeOptions::new(Scenario::Churn);
    let run = || serve_bench(4).with_seed(0xFEED).serve_traffic(&options);
    let (a, b) = (run(), run());
    assert_eq!(a.snapshot(), b.snapshot());
    assert_eq!(a.timeline_digest(), b.timeline_digest());
    assert_eq!(a.final_mapping, b.final_mapping);
    assert_eq!(a.served_cut, b.served_cut);
}

#[test]
fn serve_seed_actually_matters() {
    // Churn draws its matchings from the seed: two different seeds must
    // not produce the same timeline (guards against a driver that
    // silently ignores the workbench seed).
    let options = ServeOptions::new(Scenario::Churn);
    let a = serve_bench(1).with_seed(1).serve_traffic(&options);
    let b = serve_bench(1).with_seed(2).serve_traffic(&options);
    assert_ne!(a.snapshot(), b.snapshot());
}
