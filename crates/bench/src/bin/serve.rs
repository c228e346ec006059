//! Tabulates the online placement service (`acorr serve`).
//!
//! Runs one service per (scenario × policy) cell at paper scale (64
//! threads on 8 nodes, 48 steps), records the decision counters and cut
//! totals, re-checks the worker-invariance contract (the hotspot timeline
//! digest at `--jobs 1/4/8` must be identical), and writes
//! `results/serve.csv`. Wall-clock timing is the `benchmark` bin's job.
//!
//! Usage: `serve [--steps N]` (default: 48 steps).

use acorr::experiment::Workbench;
use acorr::place::MigrationPolicy;
use acorr::sim::Scenario;
use acorr::ServeOptions;
use acorr_bench::{arg_usize, write_artifact, Table};

fn main() {
    let steps = arg_usize("--steps", 48);

    let mut table = Table::new(&[
        "scenario",
        "policy",
        "shifts",
        "accepted",
        "rejected",
        "moved",
        "served_cut",
        "static_cut",
    ]);
    let mut csv = String::from(
        "scenario,policy,shifts,accepted,rejected,moved,served_cut,static_cut,timeline_digest\n",
    );
    for scenario in Scenario::ALL {
        for policy in MigrationPolicy::ALL {
            let options = ServeOptions::new(scenario)
                .with_steps(steps)
                .with_policy(policy);
            let report = Workbench::new(8, 64)
                .expect("paper cluster")
                .serve_traffic(&options);
            table.row(&[
                scenario.name().to_owned(),
                policy.name().to_owned(),
                report.shifts.to_string(),
                report.accepted.to_string(),
                report.rejected.to_string(),
                report.migrated.to_string(),
                report.served_cut.to_string(),
                report.static_cut.to_string(),
            ]);
            csv.push_str(&format!(
                "{},{},{},{},{},{},{},{},{}\n",
                scenario.name(),
                policy.name(),
                report.shifts,
                report.accepted,
                report.rejected,
                report.migrated,
                report.served_cut,
                report.static_cut,
                report.timeline_digest(),
            ));
        }
    }
    println!("online placement service, 64 threads x 8 nodes, {steps} steps:");
    println!("{}", table.render());

    // Worker invariance: the hotspot decision timeline must not depend
    // on how many workers generate traffic.
    let options = ServeOptions::new(Scenario::Hotspot).with_steps(steps);
    let digests: Vec<String> = [1usize, 4, 8]
        .iter()
        .map(|&jobs| {
            Workbench::new(8, 64)
                .expect("paper cluster")
                .with_threads(jobs)
                .serve_traffic(&options)
                .timeline_digest()
        })
        .collect();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "timeline digest diverged across jobs: {digests:?}"
    );
    println!("jobs invariance (hotspot timeline digest): {}", digests[0]);

    write_artifact("serve.csv", &csv);
}
