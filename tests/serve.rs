//! Integration suite for the online placement service (`acorr serve`).
//!
//! The tentpole claims under test, at paper scale (64 threads, 8 nodes):
//!
//! * the hotspot-migration scenario's phase shifts are detected within
//!   one window of the traffic driver's ground truth;
//! * accepted re-mappings reduce measured cut cost against the
//!   never-re-mapped baseline;
//! * a static workload produces zero re-mapping decisions;
//! * the full decision timeline is pinned by a golden snapshot;
//! * decisions flow through the obs sinks (JSONL + Perfetto marks).

use active_correlation_tracking::place::{MigrationCostModel, MigrationPolicy};
use active_correlation_tracking::sim::{Mapping, Scenario, TrafficConfig, TrafficDriver};
use active_correlation_tracking::{ServeDecision, ServeOptions, ServeReport, Workbench};

fn bench() -> Workbench {
    Workbench::new(8, 64).unwrap()
}

fn serve(scenario: Scenario) -> ServeReport {
    bench().serve_traffic(&ServeOptions::new(scenario))
}

// Regenerate after an *intentional* behaviour change with:
//   UPDATE_GOLDEN=1 cargo test --test serve golden_
// and review the diff like any other code change.
fn assert_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `UPDATE_GOLDEN=1 cargo test --test serve golden_` to create",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "golden snapshot {name} drifted; if intentional, regenerate with \
         UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn golden_serve_hotspot_decision_timeline() {
    assert_golden("serve_hotspot.txt", &serve(Scenario::Hotspot).snapshot());
}

#[test]
fn hotspot_shifts_are_detected_within_one_window_of_ground_truth() {
    let options = ServeOptions::new(Scenario::Hotspot);
    let report = bench().serve_traffic(&options);
    let bench = bench();
    let driver = TrafficDriver::new(
        TrafficConfig::new(64, options.tenants, options.scenario, bench.seed)
            .with_period(options.period),
    );
    let truth = driver.shift_steps(options.steps as u64);
    assert!(!truth.is_empty(), "scenario must actually shift");
    let detected: Vec<u64> = report
        .timeline
        .iter()
        .filter_map(|d| match *d {
            ServeDecision::Shift { step, .. } => Some(step),
            ServeDecision::Remap { .. } => None,
        })
        .collect();
    assert_eq!(
        detected.len(),
        truth.len(),
        "every scripted shift is detected exactly once"
    );
    for (&shift, &fired) in truth.iter().zip(&detected) {
        assert!(
            fired >= shift && fired - shift < options.window as u64,
            "shift at step {shift} detected at step {fired}, outside one window"
        );
    }
}

#[test]
fn accepted_remaps_beat_the_never_remap_baseline() {
    let report = serve(Scenario::Hotspot);
    assert!(report.accepted >= 1, "hotspot must accept a re-mapping");
    assert!(report.migrated > 0);
    assert!(
        report.served_cut < report.static_cut,
        "served {} vs static {}",
        report.served_cut,
        report.static_cut
    );
}

#[test]
fn static_workload_fires_zero_remapping_events() {
    let report = serve(Scenario::Static);
    assert!(report.timeline.is_empty(), "{:?}", report.timeline);
    assert_eq!(report.shifts, 0);
    assert_eq!(report.accepted + report.rejected, 0);
    assert_eq!(report.migrated, 0);
    assert_eq!(report.served_cut, report.static_cut);
    let cluster = active_correlation_tracking::sim::ClusterConfig::new(8, 64).unwrap();
    assert_eq!(report.final_mapping, Mapping::stretch(&cluster));
}

#[test]
fn churn_remaps_follow_tenant_arrivals() {
    let report = serve(Scenario::Churn);
    assert!(report.shifts >= 2, "tenant churn keeps firing");
    assert!(report.accepted >= 1);
    assert!(report.served_cut < report.static_cut);
}

#[test]
fn diurnal_skew_shifts_load_but_not_placement() {
    // Intensity waves move weight, not structure: the detector's delta
    // stays below threshold and the service never re-maps.
    let report = serve(Scenario::Diurnal);
    assert_eq!(report.shifts, 0);
    assert_eq!(report.migrated, 0);
}

#[test]
fn prohibitive_cost_model_rejects_every_remap() {
    let options = ServeOptions::new(Scenario::Hotspot).with_cost_model(MigrationCostModel::new(
        u64::MAX / 4,
        2,
        0,
    ));
    let report = bench().serve_traffic(&options);
    assert!(report.shifts >= 1, "detection is independent of the gate");
    assert_eq!(report.accepted, 0);
    assert_eq!(report.migrated, 0);
    let cluster = active_correlation_tracking::sim::ClusterConfig::new(8, 64).unwrap();
    assert_eq!(
        report.final_mapping,
        Mapping::stretch(&cluster),
        "rejected plans leave the mapping alone"
    );
    assert_eq!(report.served_cut, report.static_cut);
}

#[test]
fn zero_cost_model_accepts_any_improvement() {
    let free = bench().serve_traffic(
        &ServeOptions::new(Scenario::Hotspot).with_cost_model(MigrationCostModel::zero()),
    );
    let gated = serve(Scenario::Hotspot);
    assert!(
        free.accepted >= gated.accepted,
        "the gate only removes re-maps"
    );
    assert_eq!(
        free.rejected + free.accepted,
        gated.rejected + gated.accepted
    );
}

#[test]
fn interchange_policy_bounds_movement_and_still_improves() {
    let options = ServeOptions::new(Scenario::Hotspot).with_policy(MigrationPolicy::Interchange);
    let report = bench().serve_traffic(&options);
    for decision in &report.timeline {
        if let ServeDecision::Remap { moves, .. } = *decision {
            assert!(
                moves <= 2 * options.max_swaps as u64,
                "interchange moves at most two threads per swap"
            );
        }
    }
    assert!(report.accepted >= 1);
    assert!(report.served_cut < report.static_cut);
}

#[test]
fn decisions_flow_through_the_obs_sinks() {
    let report = bench()
        .with_observer()
        .serve_traffic(&ServeOptions::new(Scenario::Hotspot));
    let obs = report.observation.expect("observer configured");
    let jsonl = obs.events_jsonl;
    assert!(jsonl.contains("\"type\":\"phase_shift\""));
    assert!(jsonl.contains("\"type\":\"remap_accepted\""));
    assert!(jsonl.contains("\"type\":\"remap_rejected\""));
    assert!(jsonl.contains("\"type\":\"migration\""));
    let chrome = obs.chrome_trace;
    assert!(chrome.contains("\"name\":\"remap_accepted\""));
    assert!(chrome.contains("\"name\":\"phase_shift\""));
}

#[test]
fn engine_backed_serve_migrates_a_drifting_app_mid_run() {
    use active_correlation_tracking::apps::Drift;
    // The live re-mapping hook: Drift's partner offset jumps mid-run;
    // the service detects it and re-places threads through
    // `Dsm::migrate_to` while the engine keeps running.
    let options = ServeOptions::new(Scenario::Static).with_steps(48);
    let report = Workbench::new(4, 8)
        .unwrap()
        .serve_app(|| Drift::new(256, 8, 8), &options)
        .unwrap();
    assert_eq!(report.label, "Drift (engine)");
    assert!(report.shifts >= 1, "drift shift detected");
    assert!(report.accepted >= 1, "re-map accepted");
    assert!(report.migrated > 0, "threads actually moved");
    assert!(report.served_cut < report.static_cut);
}

#[test]
fn engine_backed_serve_stays_quiet_on_a_stable_app() {
    use active_correlation_tracking::apps::Sor;
    let options = ServeOptions::new(Scenario::Static).with_steps(12);
    let report = Workbench::new(8, 64)
        .unwrap()
        .serve_app(|| Sor::new(64, 64, 64), &options)
        .unwrap();
    assert!(report.timeline.is_empty(), "{:?}", report.timeline);
    assert_eq!(report.migrated, 0);
}
