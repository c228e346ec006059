//! The §7 future-work scenario end-to-end: dynamic sharing patterns,
//! periodic re-tracking, aged correlations, migration.

use active_correlation_tracking::apps::Drift;
use active_correlation_tracking::experiment::Workbench;
use active_correlation_tracking::obs::stats_digest;
use active_correlation_tracking::track::CorrelationMatrix;

#[test]
fn drift_correlations_change_between_phases() {
    // Track the same application at two different phases: the measured
    // correlation structure must differ (this is what defeats track-once).
    let bench = Workbench::new(4, 16).unwrap();
    let make = || Drift::new(512, 16, 2);
    let mut dsm = bench
        .dsm(
            make(),
            active_correlation_tracking::sim::Mapping::stretch(&bench.cluster),
        )
        .unwrap();
    let (_, early) = dsm.run_tracked_iteration().unwrap();
    dsm.run_iterations(7).unwrap(); // cross several phase boundaries
    let (_, late) = dsm.run_tracked_iteration().unwrap();
    let early_corr = CorrelationMatrix::from_access(&early);
    let late_corr = CorrelationMatrix::from_access(&late);
    assert_ne!(early_corr, late_corr);
}

#[test]
fn adaptive_policy_beats_static_on_traffic() {
    // The three policies fan out over the pool: one worker runs them in
    // order, three give each its own, and every count pins the same runs.
    for workers in [1, 2, 3] {
        let bench = Workbench::new(4, 16).unwrap().with_threads(workers);
        let period = 8;
        let study = bench
            .adaptive_study(|| Drift::new(512, 16, period), 4 * period, period, 0.25)
            .unwrap();
        assert!(
            study.adaptive_stats.remote_misses < study.static_stats.remote_misses,
            "adaptive {} vs static {}",
            study.adaptive_stats.remote_misses,
            study.static_stats.remote_misses
        );
        assert!(study.adaptive_migrations > 0, "it must actually migrate");
        let digests = [
            &study.static_stats,
            &study.track_once_stats,
            &study.adaptive_stats,
        ]
        .map(stats_digest);
        assert_eq!(
            (digests, study.adaptive_migrations),
            (
                [
                    "fnv1a:dacc95e8215827fc",
                    "fnv1a:5ec0d8cd630b0c99",
                    "fnv1a:c6aa80ec108fe33d"
                ]
                .map(String::from),
                28
            ),
            "pinned policy runs at {workers} worker(s)"
        );
    }
}

#[test]
fn track_once_cannot_follow_the_drift() {
    // Track-once helps at most briefly; over several phases it converges
    // to (or below) the static baseline.
    let bench = Workbench::new(4, 16).unwrap();
    let period = 6;
    let study = bench
        .adaptive_study(|| Drift::new(512, 16, period), 5 * period, period, 0.25)
        .unwrap();
    let static_m = study.static_stats.remote_misses as f64;
    let once_m = study.track_once_stats.remote_misses as f64;
    assert!(
        once_m > static_m * 0.8,
        "track-once ({once_m}) should not durably beat static ({static_m})"
    );
    assert!(
        (study.adaptive_stats.remote_misses as f64) < once_m,
        "adaptive must beat track-once"
    );
}

#[test]
fn study_charges_tracking_costs() {
    // The adaptive policy's stats include its tracked iterations: its
    // tracking-fault count must be nonzero while static's is zero.
    let bench = Workbench::new(4, 16).unwrap();
    let study = bench
        .adaptive_study(|| Drift::new(512, 16, 8), 16, 8, 0.25)
        .unwrap();
    assert_eq!(study.static_stats.tracking_faults, 0);
    assert!(study.adaptive_stats.tracking_faults > 0);
    assert!(study.track_once_stats.tracking_faults > 0);
}

#[test]
fn drift_triggered_retracking_spends_fewer_tracked_iterations() {
    // Long stable phases: the drift detector should re-track roughly once
    // per phase boundary instead of every window, at comparable traffic.
    // The two policies run side by side; every worker count pins the same
    // runs.
    for workers in [1, 2, 3] {
        let bench = Workbench::new(4, 16).unwrap().with_threads(workers);
        let period = 12; // three checking windows per phase
        let study = bench
            .on_demand_study(|| Drift::new(512, 16, period), 4 * period, 4, 400_000, 0.25)
            .unwrap();
        assert!(
            study.on_demand_tracks < study.scheduled_tracks,
            "on-demand {} vs scheduled {} tracked iterations",
            study.on_demand_tracks,
            study.scheduled_tracks
        );
        assert!(
            study.on_demand_tracks >= 1,
            "it must react to phase changes"
        );
        // Traffic stays in the same regime as the scheduled policy.
        assert!(
            (study.on_demand.remote_misses as f64)
                < study.scheduled.remote_misses as f64 * 1.6 + 100.0,
            "on-demand {} vs scheduled {}",
            study.on_demand.remote_misses,
            study.scheduled.remote_misses
        );
        assert_eq!(
            (
                stats_digest(&study.scheduled),
                study.scheduled_tracks,
                stats_digest(&study.on_demand),
                study.on_demand_tracks,
            ),
            (
                "fnv1a:e588d8adca8de983".into(),
                12,
                "fnv1a:eeb668aed80c3cad".into(),
                4
            ),
            "pinned policy runs at {workers} worker(s)"
        );
    }
}

#[test]
fn scheduled_tracks_count_the_tracked_iterations_run() {
    // 9 iterations in windows of 4: the last window holds one iteration,
    // which leaves no room for a tracked one, so two windows re-track.
    let bench = Workbench::new(4, 16).unwrap();
    let study = bench
        .on_demand_study(|| Drift::new(512, 16, 4), 9, 4, 400_000, 0.25)
        .unwrap();
    assert_eq!(study.scheduled_tracks, 2);
}

#[test]
#[should_panic(expected = "total_iterations must be at least 1")]
fn adaptive_study_rejects_zero_iterations() {
    let bench = Workbench::new(4, 16).unwrap();
    let _ = bench.adaptive_study(|| Drift::new(512, 16, 4), 0, 4, 0.25);
}

#[test]
#[should_panic(expected = "total_iterations must be at least 1")]
fn on_demand_study_rejects_zero_iterations() {
    let bench = Workbench::new(4, 16).unwrap();
    let _ = bench.on_demand_study(|| Drift::new(512, 16, 4), 0, 4, 400_000, 0.25);
}

#[test]
fn drift_detector_stays_quiet_on_static_apps() {
    use active_correlation_tracking::apps::Sor;
    // A static application: after the calibration window, passive snapshots
    // repeat and the detector must never trigger again.
    let bench = Workbench::new(4, 16).unwrap();
    let study = bench
        .on_demand_study(|| Sor::new(256, 256, 16), 24, 4, 400_000, 0.25)
        .unwrap();
    assert!(
        study.on_demand_tracks <= 1,
        "static pattern: {} re-tracks",
        study.on_demand_tracks
    );
}
