//! Cross-crate integration: the full track → analyze → place → migrate
//! pipeline on reduced application instances.

use active_correlation_tracking::apps::{self, Fft, Sor, Water};
use active_correlation_tracking::dsm::Program;
use active_correlation_tracking::experiment::Workbench;
use active_correlation_tracking::place::{min_cost, optimal};
use active_correlation_tracking::sim::{DetRng, Mapping};
use active_correlation_tracking::track::{
    cut_cost, render_ascii, render_pgm, sharing_degree, CorrelationMatrix, MapStyle,
};

fn bench() -> Workbench {
    Workbench::new(4, 16).unwrap()
}

#[test]
fn full_pipeline_reduces_misses() {
    let bench = bench();
    let app = || Sor::new(512, 512, 16);
    let truth = bench.ground_truth(app).unwrap();
    // Start scrambled, migrate to min-cost, verify steady-state improvement.
    let mut rng = DetRng::new(3);
    let scrambled = Mapping::stretch(&bench.cluster).permuted(&mut rng);
    let mut dsm = bench.dsm(app(), scrambled).unwrap();
    dsm.run_iterations(1).unwrap();
    let before = dsm.run_iterations(3).unwrap();
    dsm.migrate_to(min_cost(&truth.corr, &bench.cluster))
        .unwrap();
    dsm.run_iterations(1).unwrap(); // re-cache
    let after = dsm.run_iterations(3).unwrap();
    assert!(
        after.remote_misses < before.remote_misses,
        "{} -> {}",
        before.remote_misses,
        after.remote_misses
    );
}

#[test]
fn tracked_access_information_is_exhaustive_and_exact() {
    // Active tracking sees every (thread, page) the program touches: the
    // union of tracked bitmaps covers exactly the pages the scripts address.
    let bench = bench();
    let app = Water::new(128, 16);
    let truth = bench.ground_truth(|| Water::new(128, 16)).unwrap();
    let mut expected = std::collections::BTreeSet::new();
    for t in 0..16 {
        for op in app.script(t, 2) {
            if let active_correlation_tracking::dsm::Op::Read { addr, len }
            | active_correlation_tracking::dsm::Op::Write { addr, len } = op
            {
                if len > 0 {
                    for p in (addr / 4096)..=((addr + len - 1) / 4096) {
                        expected.insert((t, p as u32));
                    }
                }
            }
        }
    }
    let mut observed = std::collections::BTreeSet::new();
    for t in 0..16 {
        for p in truth.access.bitmap(t).iter_ones() {
            observed.insert((t, p as u32));
        }
    }
    let expected: std::collections::BTreeSet<(usize, u32)> = expected.into_iter().collect();
    assert_eq!(observed, expected);
}

#[test]
fn correlation_pipeline_is_deterministic() {
    let run = || {
        let bench = bench();
        let truth = bench
            .ground_truth(|| Fft::new("fft", 16, 16, 16, 16))
            .unwrap();
        (
            render_pgm(&truth.corr),
            truth.baseline.remote_misses,
            truth.tracked.elapsed,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn min_cost_tracks_optimal_on_real_app_correlations() {
    // The §5.1 claim, on correlations measured from a real (reduced) app
    // rather than synthetic matrices.
    let bench = Workbench::new(3, 12).unwrap();
    for make in [
        || apps::by_name("Water", 12).unwrap(),
        || apps::by_name("SOR", 12).unwrap(),
    ] {
        let truth = bench.ground_truth(make).unwrap();
        let heur = cut_cost(&truth.corr, &min_cost(&truth.corr, &bench.cluster));
        let opt = cut_cost(&truth.corr, &optimal(&truth.corr, &bench.cluster));
        assert!(
            heur as f64 <= opt as f64 * 1.01 + 1e-9,
            "{}: min-cost {heur} vs optimal {opt}",
            truth.app
        );
    }
}

#[test]
fn maps_render_for_tracked_apps() {
    let bench = bench();
    let truth = bench.ground_truth(|| Sor::new(256, 256, 16)).unwrap();
    let ascii = render_ascii(&truth.corr, &MapStyle::default());
    assert_eq!(ascii.lines().count(), 16);
    // SOR: nearest-neighbor only — the far corner is blank, the
    // near-diagonal is not.
    let bottom: Vec<char> = ascii.lines().last().unwrap().chars().collect();
    assert_eq!(bottom[15], ' ');
    assert_ne!(bottom[1], ' ');
    let pgm = render_pgm(&truth.corr);
    assert!(pgm.starts_with("P2"));
}

#[test]
fn sharing_degree_orders_apps_like_the_paper() {
    // SOR (boundary-only sharing) must have a much lower sharing degree
    // than Water (half-window sharing) at the same scale.
    let bench = bench();
    let sor = bench.ground_truth(|| Sor::new(256, 256, 16)).unwrap();
    let water = bench.ground_truth(|| Water::new(256, 16)).unwrap();
    let d_sor = sharing_degree(&sor.access, &sor.mapping);
    let d_water = sharing_degree(&water.access, &water.mapping);
    assert!(
        d_sor < 1.6 && d_water > 2.0 && d_water > d_sor,
        "SOR {d_sor} vs Water {d_water}"
    );
}

#[test]
fn aged_correlations_follow_a_phase_change() {
    use active_correlation_tracking::track::AgedCorrelation;
    let mut aged = AgedCorrelation::new(4, 0.5);
    let phase_a = CorrelationMatrix::from_edges(4, [(0, 1, 50)]);
    let phase_b = CorrelationMatrix::from_edges(4, [(2, 3, 50)]);
    for _ in 0..4 {
        aged.observe(&phase_a);
    }
    for _ in 0..3 {
        aged.observe(&phase_b);
    }
    let snap = aged.snapshot();
    assert!(snap.get(2, 3) > snap.get(0, 1));
}
