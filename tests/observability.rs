//! Acceptance tests for the structured observability layer: sinks are pure
//! observers (bit-identical statistics and golden tables with observability
//! on or off, under fault injection, at any thread count), exported
//! artifacts are well-formed, and run manifests replay to matching digests.

use active_correlation_tracking::apps::{self, Sor};
use active_correlation_tracking::experiment::Workbench;
use active_correlation_tracking::obs::{self, json, RunManifest};
use active_correlation_tracking::place::Strategy;
use active_correlation_tracking::sim::FaultPlan;

fn bench() -> Workbench {
    Workbench::new(4, 16).unwrap()
}

#[test]
fn observer_is_pure_under_every_fault_preset() {
    for spec in ["none", "light", "moderate", "heavy"] {
        let faults = FaultPlan::parse(spec).unwrap();
        let app = || apps::by_name("FFT6", 16).unwrap();
        let plain = bench()
            .with_faults(faults.clone())
            .observed_heuristic_run(app, Strategy::MinCost, 2)
            .unwrap();
        let observed = bench()
            .with_faults(faults.clone())
            .with_observer()
            .observed_heuristic_run(app, Strategy::MinCost, 2)
            .unwrap();
        assert_eq!(plain.row, observed.row, "{spec}: row drifted");
        assert_eq!(plain.stats, observed.stats, "{spec}: stats drifted");
        assert!(plain.observation.is_none(), "{spec}");
        assert!(observed.observation.is_some(), "{spec}");

        // And the observed row still matches the un-instrumented Table 6
        // driver exactly.
        let rows = bench()
            .with_faults(faults)
            .heuristic_comparison(app, &[Strategy::MinCost], 2)
            .unwrap();
        assert_eq!(rows[0], observed.row, "{spec}: Table 6 row drifted");
    }
}

#[test]
fn observer_is_pure_at_every_thread_count() {
    let reference = bench()
        .with_faults(FaultPlan::heavy(11))
        .conformance_run(Sor::new(128, 128, 16), 2)
        .unwrap();
    for threads in [1, 2, 4] {
        let observed = bench()
            .with_threads(threads)
            .with_faults(FaultPlan::heavy(11))
            .with_observer()
            .conformance_run(Sor::new(128, 128, 16), 2)
            .unwrap();
        assert_eq!(reference, observed, "threads={threads}");
    }
}

#[test]
fn golden_tables_are_unchanged_with_all_sinks_attached() {
    let golden = |name: &str| {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name);
        std::fs::read_to_string(path).unwrap()
    };

    // Table 2 snapshot, regenerated with every sink attached.
    let mut table2 = String::from("app,sample,cut_cost,remote_misses\n");
    for name in ["SOR", "Water"] {
        let study = Workbench::new(8, 64)
            .unwrap()
            .with_threads(4)
            .with_observer()
            .cutcost_study(|| apps::by_name(name, 64).unwrap(), 6, 1)
            .unwrap();
        for (i, s) in study.samples.iter().enumerate() {
            table2.push_str(&format!("{name},{i},{},{}\n", s.cut_cost, s.remote_misses));
        }
    }
    assert_eq!(
        golden("table2.txt"),
        table2,
        "Table 2 drifted under observation"
    );

    // Table 5 fault counts for a representative subset, compared against
    // the corresponding rows of the full golden snapshot.
    let full = golden("table5.txt");
    for name in ["SOR", "Water", "FFT6"] {
        let row = Workbench::new(8, 64)
            .unwrap()
            .with_threads(2)
            .with_observer()
            .tracking_overhead(|| apps::by_name(name, 64).unwrap())
            .unwrap();
        let line = format!("{name},{},{}\n", row.tracking_faults, row.coherence_faults);
        assert!(
            full.contains(&line),
            "Table 5 drifted under observation: {line:?} not in golden"
        );
    }
}

#[test]
fn manifest_replays_to_a_matching_digest() {
    let app = || apps::by_name("Water", 16).unwrap();
    let run = bench()
        .with_faults(FaultPlan::moderate(7))
        .with_observer()
        .observed_heuristic_run(app, Strategy::MinCost, 2)
        .unwrap();
    let manifest = RunManifest::new("observability-test")
        .param("app", "Water")
        .param("faults", "moderate:7")
        .with_digest(obs::stats_digest(&run.stats));

    // Round-trip through JSON, then replay with the same parameters: the
    // recorded digest must match the replayed statistics bit-for-bit.
    let parsed = RunManifest::from_json(&manifest.to_json()).unwrap();
    assert_eq!(parsed.get("app"), Some("Water"));
    let replay = bench()
        .with_faults(FaultPlan::moderate(7))
        .observed_heuristic_run(app, Strategy::MinCost, 2)
        .unwrap();
    assert_eq!(parsed.digest, obs::stats_digest(&replay.stats));

    // A perturbed run is detected.
    let other = bench()
        .with_faults(FaultPlan::moderate(8))
        .observed_heuristic_run(app, Strategy::MinCost, 2)
        .unwrap();
    assert_ne!(parsed.digest, obs::stats_digest(&other.stats));
}

#[test]
fn exported_artifacts_are_well_formed_under_heavy_faults() {
    let run = bench()
        .with_faults(FaultPlan::heavy(3))
        .with_observer()
        .observed_heuristic_run(|| Sor::new(256, 256, 16), Strategy::MinCost, 2)
        .unwrap();
    let observation = run.observation.unwrap();

    // The Chrome trace parses as JSON with the trace_event envelope.
    let chrome = json::parse(&observation.chrome_trace).unwrap();
    assert_eq!(
        chrome.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ns")
    );
    let events = chrome.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
    assert!(!events.is_empty());
    let phase = |e: &json::Value| e.get("ph").and_then(|v| v.as_str()).map(str::to_owned);
    assert!(events.iter().any(|e| phase(e).as_deref() == Some("M")));
    assert!(events.iter().any(|e| phase(e).as_deref() == Some("X")));
    assert!(events.iter().any(|e| phase(e).as_deref() == Some("C")));

    // Every JSONL line is a standalone JSON object with a type tag.
    let jsonl = &observation.events_jsonl;
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        let value = json::parse(line).unwrap();
        assert!(value.get("type").and_then(|v| v.as_str()).is_some());
    }

    // The metrics time series has one row per barrier interval, and the
    // histograms carry at least the fetch-latency distribution.
    let metrics = &observation.metrics_csv;
    let mut rows = metrics.lines();
    assert!(rows.next().unwrap().starts_with("barrier,at_ns,elapsed_ns"));
    assert!(rows.count() >= 2, "at least one interval per iteration");
    let histograms = &observation.histograms_csv;
    assert!(histograms.starts_with("histogram,bucket,lo_ns,hi_ns,count"));
    assert!(histograms.lines().any(|l| l.starts_with("fetch,")));
}

#[test]
fn spans_and_analysis_are_pure_observers() {
    // The attached sink receives span brackets alongside every event;
    // recording spans and then running the post-hoc analytics must not
    // perturb the run by a single bit.
    let app = || apps::by_name("SOR", 64).unwrap();
    let plain = Workbench::new(8, 64)
        .unwrap()
        .observed_heuristic_run(app, Strategy::MinCost, 2)
        .unwrap();
    let observed = Workbench::new(8, 64)
        .unwrap()
        .with_observer()
        .observed_heuristic_run(app, Strategy::MinCost, 2)
        .unwrap();
    assert_eq!(plain.row, observed.row, "row drifted under span profiling");
    assert_eq!(
        plain.stats, observed.stats,
        "stats drifted under span profiling"
    );

    // Spans reached both sinks: nestable duration events in the Chrome
    // trace, span_begin/span_end records in the JSONL stream.
    let observation = observed.observation.unwrap();
    let jsonl = observation.events_jsonl;
    assert!(jsonl.contains("\"span_begin\"") && jsonl.contains("\"span_end\""));
    let chrome = json::parse(&observation.chrome_trace).unwrap();
    let events = chrome.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
    let phase = |e: &json::Value| e.get("ph").and_then(|v| v.as_str()).map(str::to_owned);
    assert!(events.iter().any(|e| phase(e).as_deref() == Some("b")));
    assert!(events.iter().any(|e| phase(e).as_deref() == Some("e")));

    // The analytics themselves are post-hoc and deterministic: two passes
    // over the same recording produce byte-identical artifacts.
    let a = obs::Analysis::from_events(&jsonl, observed.threads, observed.pages).unwrap();
    let b = obs::Analysis::from_events(&jsonl, observed.threads, observed.pages).unwrap();
    assert_eq!(a.page_heat_csv(), b.page_heat_csv());
    assert_eq!(a.thread_comm_csv(), b.thread_comm_csv());
    assert_eq!(a.critical_path_csv(), b.critical_path_csv());
    assert_eq!(a.spans_csv(), b.spans_csv());
    assert!(a.spans.iter().any(|s| s.phase == "fetch"), "fetch spans");
    assert!(!a.pages.is_empty() && !a.intervals.is_empty());
}

// Golden count snapshot of the trace analytics for SOR at paper scale
// (64 threads on 8 nodes): the top-10 page-heat rows and the full
// critical-path decomposition. Regenerate after an *intentional* change
// with `UPDATE_GOLDEN=1 cargo test --test observability golden_` and
// review the diff like any other code change.
#[test]
fn golden_analysis_sor_heat_and_critical_path() {
    let observed = Workbench::new(8, 64)
        .unwrap()
        .with_observer()
        .observed_heuristic_run(|| apps::by_name("SOR", 64).unwrap(), Strategy::MinCost, 2)
        .unwrap();
    let jsonl = observed.observation.unwrap().events_jsonl;
    let analysis = obs::Analysis::from_events(&jsonl, observed.threads, observed.pages).unwrap();

    let mut out = String::from("# page_heat (top 10)\n");
    for line in analysis.page_heat_csv().lines().take(11) {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str("# critical_path\n");
    out.push_str(&analysis.critical_path_csv());

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/analysis_sor.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &out).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `UPDATE_GOLDEN=1 cargo test --test observability golden_` to create",
            path.display()
        )
    });
    assert_eq!(
        expected, out,
        "analysis snapshot drifted; if intentional, regenerate with \
         UPDATE_GOLDEN=1 and review the diff"
    );
}
