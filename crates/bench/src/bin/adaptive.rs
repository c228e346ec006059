//! Extension: the §7 adaptive-migration experiment on the dynamic Drift
//! application.
//!
//! "We plan to extend our results with dynamic applications... Note that
//! the stretch heuristic is only applicable to applications with static
//! sharing patterns. We will need to rely on min-cost in order to obtain
//! good performance for adaptive applications."
//!
//! Three policies over the same run, all costs (tracking iterations and
//! migrations) included.
//!
//! Usage: `adaptive [--period P] [--phases N] [--threads T]` (defaults: a
//! phase every 12 iterations, 4 phases, all available worker threads).
//! The policies of each study run side by side on `T` workers; output is
//! byte-identical at any `--threads` value.

use acorr::apps::Drift;
use acorr::dsm::DsmConfig;
use acorr::experiment::Workbench;
use acorr::obs::Analysis;
use acorr::sim::{NetworkModel, SimDuration};
use acorr_bench::arg_usize;

fn main() {
    let period = arg_usize("--period", 12);
    let phases = arg_usize("--phases", 4);
    let threads = arg_usize("--threads", 0);
    if period < 2 || phases == 0 {
        eprintln!("error: --period must be at least 2 and --phases at least 1");
        std::process::exit(2);
    }
    let total = period * phases;
    println!(
        "Drift: 2048 particles, 64 threads on 8 nodes, partner offset jumps\n\
         every {period} iterations, {total} iterations total\n"
    );
    for (label, latency_us) in [
        ("Myrinet-class (60 us latency)", 60u64),
        ("commodity Ethernet-class (400 us latency)", 400),
    ] {
        let net = NetworkModel {
            latency: SimDuration::from_micros(latency_us),
            ..NetworkModel::default()
        };
        let bench = Workbench::new(8, 64)
            .expect("8x64 cluster")
            .with_threads(threads);
        let cluster = bench.cluster;
        let bench = bench.with_config(DsmConfig::new(cluster).with_network(net));
        let study = bench
            .adaptive_study(|| Drift::new(2048, 64, period), total, period, 0.25)
            .expect("study");
        println!("=== {label} ===");
        println!("{study}");
        let vs_static = study.static_stats.remote_misses as f64
            / study.adaptive_stats.remote_misses.max(1) as f64;
        let time_ratio =
            study.static_stats.elapsed.as_secs_f64() / study.adaptive_stats.elapsed.as_secs_f64();
        println!(
            "  -> adaptive: {vs_static:.1}x fewer remote misses, {time_ratio:.2}x end-to-end speedup\n"
        );
    }
    // When to re-track: fixed schedule vs drift detection on passive
    // observations.
    let bench = Workbench::new(8, 64)
        .expect("8x64 cluster")
        .with_threads(threads);
    let study = bench
        .on_demand_study(|| Drift::new(2048, 64, period), total, 4, 400_000, 0.25)
        .expect("study");
    println!("=== when to re-track (window = 4 iterations) ===");
    println!("{study}\n");
    // Analytics smoke: the phase-change detector must flag Drift's partner
    // jumps from the observed run, and the trace analytics must decompose
    // the same event stream without touching the measured statistics.
    let bench = Workbench::new(2, 8).expect("2x8 cluster").with_observer();
    let scan = bench
        .phase_scan(|| Drift::new(256, 8, 4), 16, 2)
        .expect("phase scan");
    let obs = scan.observation.expect("observer configured");
    let analysis = Analysis::from_events(&obs.events_jsonl, scan.threads, scan.pages)
        .expect("well-formed event log");
    println!("=== phase detection + trace analytics smoke (Drift 8 threads, 2 nodes) ===");
    println!(
        "  detected {} phase shift(s): {:?}",
        scan.shifts.len(),
        scan.shifts
    );
    assert!(
        !scan.shifts.is_empty(),
        "Drift's partner jumps must register as phase shifts"
    );
    println!(
        "  analytics: {} hot page(s), {} thread(s), {} interval(s), {} span phase(s)",
        analysis.pages.len(),
        analysis.threads.len(),
        analysis.intervals.len(),
        analysis.spans.len()
    );
    assert!(
        analysis.spans.iter().any(|s| s.phase == "fetch"),
        "span profiling must capture fetches"
    );
    println!();
    println!(
        "Adaptation halves the coherence traffic; end-to-end time lands near\n\
         parity because every cost is charged — the tracked iterations, the\n\
         stack copies, the post-migration re-caching, and the loss of lock\n\
         locality (min-cost optimizes page affinity, not lock affinity).\n\
         That accounting is the point: §7's adaptive story is a traffic win\n\
         first, and a time win only where coherence traffic, not compute or\n\
         synchronization, dominates."
    );
}
