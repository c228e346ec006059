//! Table 5 — 64-thread tracking overhead.
//!
//! For each application: iteration time with tracking off and on (measured
//! at the same iteration index on twin instances), the percent slowdown,
//! tracking and coherence fault counts during the tracked iteration, and
//! the sharing degree.
//!
//! Applications fan out across pool workers (each one also runs its twin
//! instances on two workers when threads allow); rows are printed in suite
//! order and are bit-identical at any `--threads` value.
//!
//! Usage: `table5 [--threads T]` (default: all available worker threads).

use acorr::apps;
use acorr::experiment::Workbench;
use acorr::sim::{par_map_indexed, resolve_threads};
use acorr_bench::{arg_usize, Table};

fn paper_row(name: &str) -> (f64, f64, u64, u64, f64) {
    // (off secs, slowdown %, tracking faults, coherence faults, degree)
    match name {
        "Barnes" => (2.24, 3.62, 8628, 8316, 6.583),
        "FFT6" => (0.37, 8.99, 5216, 928, 2.657),
        "FFT7" => (0.67, 11.28, 6112, 1824, 1.734),
        "FFT8" => (1.41, 7.32, 5600, 5920, 1.268),
        "LU1k" => (0.30, 8.11, 9855, 232, 7.359),
        "LU2k" => (0.80, 33.33, 36102, 344, 7.821),
        "Ocean" => (1.92, 69.92, 62039, 12439, 2.112),
        "Spatial" => (13.43, 1.27, 38286, 6296, 6.030),
        "SOR" => (0.15, 75.68, 8640, 56, 1.081),
        "Water" => (1.07, 2.25, 2983, 1427, 6.754),
        _ => (0.0, 0.0, 0, 0, 0.0),
    }
}

fn main() {
    let threads = resolve_threads(arg_usize("--threads", 0));
    eprintln!("{threads} worker thread(s)");
    println!("Table 5: 64-thread tracking overhead (8 threads per node)\n");
    let mut table = Table::new(&[
        "App",
        "Off (s)",
        "On (s)",
        "Slowdown",
        "Tracking",
        "Coherence",
        "Degree",
        "[paper: slow%/track/degree]",
    ]);
    let suite: Vec<&str> = apps::SUITE_NAMES.to_vec();
    let per_app = (threads / suite.len()).max(1);
    // One workbench serves every row — it is plain configuration data.
    let bench = Workbench::new(8, 64)
        .expect("8x64 cluster")
        .with_threads(per_app);
    let rows = par_map_indexed(threads.min(suite.len()), suite.clone(), |_, name| {
        bench
            .tracking_overhead(|| apps::by_name(name, 64).expect("known app"))
            .expect("overhead run")
    });
    for (name, row) in suite.into_iter().zip(rows) {
        let (_, p_slow, p_track, _, p_deg) = paper_row(name);
        table.row(&[
            name.to_string(),
            format!("{:.2}", row.time_off.as_secs_f64()),
            format!("{:.2}", row.time_on.as_secs_f64()),
            format!("{:.2}%", row.slowdown_pct),
            row.tracking_faults.to_string(),
            row.coherence_faults.to_string(),
            format!("{:.3}", row.sharing_degree),
            format!("{p_slow:.2}% / {p_track} / {p_deg:.3}"),
        ]);
    }
    println!("{}", table.render());
}
