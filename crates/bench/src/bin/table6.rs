//! Table 6 — 8-node performance by placement heuristic.
//!
//! For each application in the paper's Table 6: a full multi-iteration run
//! under the min-cost placement ("m-c") and under a random balanced
//! placement ("ran"), reporting time, remote misses, total and diff
//! megabytes, and the cut cost of the placement.
//!
//! Applications fan out across pool workers, and each application's two
//! strategy runs fan out across its workbench's thread share; rows are
//! printed in table order and are bit-identical at any `--threads` value.
//!
//! Usage: `table6 [--iters N] [--threads T]` (defaults: each application's
//! natural iteration count, all available worker threads).

use acorr::apps;
use acorr::dsm::Program;
use acorr::experiment::Workbench;
use acorr::place::Strategy;
use acorr::sim::{par_map_indexed, resolve_threads};
use acorr_bench::{arg_usize, Table};

const TABLE6_APPS: [&str; 7] = ["Barnes", "FFT7", "LU1k", "Ocean", "Spatial", "SOR", "Water"];

fn main() {
    let iters_override = arg_usize("--iters", 0);
    let threads = resolve_threads(arg_usize("--threads", 0));
    eprintln!("{threads} worker thread(s)");
    println!("Table 6: 8-node performance by heuristic (m-c = min-cost, ran = random)\n");
    let mut table = Table::new(&[
        "App",
        "Strategy",
        "Time (s)",
        "Remote misses",
        "Total MB",
        "Diff MB",
        "Cut cost",
    ]);
    let per_app = (threads / TABLE6_APPS.len()).max(1);
    // One workbench serves every row — it is plain configuration data.
    let bench = Workbench::new(8, 64)
        .expect("8x64 cluster")
        .with_threads(per_app);
    let app_rows = par_map_indexed(
        threads.min(TABLE6_APPS.len()),
        TABLE6_APPS.to_vec(),
        |_, name| {
            let app = apps::by_name(name, 64).expect("known app");
            let iters = if iters_override > 0 {
                iters_override
            } else {
                app.default_iterations()
            };
            bench
                .heuristic_comparison(
                    || apps::by_name(name, 64).expect("known app"),
                    &[Strategy::MinCost, Strategy::RandomBalanced],
                    iters,
                )
                .expect("comparison run")
        },
    );
    for (name, rows) in TABLE6_APPS.into_iter().zip(app_rows) {
        for row in rows {
            let label = match row.strategy {
                Strategy::MinCost => "m-c",
                Strategy::RandomBalanced => "ran",
                other => {
                    table.row(&[
                        name.to_string(),
                        other.to_string(),
                        format!("{:.1}", row.time.as_secs_f64()),
                        row.remote_misses.to_string(),
                        format!("{:.1}", row.total_mbytes),
                        format!("{:.1}", row.diff_mbytes),
                        row.cut_cost.to_string(),
                    ]);
                    continue;
                }
            };
            table.row(&[
                name.to_string(),
                label.to_string(),
                format!("{:.1}", row.time.as_secs_f64()),
                row.remote_misses.to_string(),
                format!("{:.1}", row.total_mbytes),
                format!("{:.1}", row.diff_mbytes),
                row.cut_cost.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
    println!("(each app runs its natural iteration count after one warm-up iteration)");
}
