//! Chaos study — protocol robustness across fault intensities.
//!
//! Runs every suite application under every fault-plan preset in
//! [`FAULT_PRESETS`] — the single table `FaultPlan::parse` itself resolves
//! preset names from, so the accepted `--plans` names, the default list and
//! the printed legend can never drift from the parser — with the coherence
//! conformance oracle shadowing each run. For each (app, plan) cell it
//! reports simulated time, remote misses, first-send traffic,
//! fault-injected recoveries (retransmissions, duplicate deliveries,
//! checksum-caught corruptions, partition-delayed messages, crashes), and
//! what the oracle checked. A run only appears here if the oracle found
//! zero release-consistency violations — any violation aborts the cell
//! loudly.
//!
//! For barrier-only applications the paper-reproduction counters (misses,
//! first-send bytes) are *identical* across crash-free intensities: fault
//! injection perturbs timing and adds retransmissions, never protocol
//! outcomes — the binary asserts this. Crash plans are exempt: a wiped
//! cache legitimately re-fetches pages, so crashes move the miss counters
//! (the oracle still certifies the outcome). Lock-based applications
//! (Barnes, Ocean, Spatial, Water) may shift by a handful of misses
//! because perturbed timing legitimately reorders lock grants, and release
//! consistency admits either order.
//!
//! Usage: `chaos [--threads T] [--nodes N] [--iters I] [--seed S] [--jobs J]
//! [--plans LIST]` (defaults: 16 threads, 4 nodes, 3 iterations, seed 7,
//! all cores, every preset). `--plans` is a comma-separated list of
//! preset names. A malformed name prints `error: ` and the same
//! `DsmError::FaultSpec` diagnostic the CLI prints; a list that names no
//! preset prints `error: --plans selected no fault plans`. Both add the
//! preset legend and exit 2 before any run, never a panic.
//! `--threads 64 --nodes 8` reproduces the acceptance configuration.

use acorr::apps;
use acorr::dsm::DsmError;
use acorr::experiment::{ConformanceRun, Workbench};
use acorr::sim::{par_map_indexed, resolve_threads, FaultPlan, FAULT_PRESETS};
use acorr_bench::{arg_str, arg_usize, write_artifact, Table};

/// The default `--plans` list: every preset name, in table order.
fn default_plan_spec() -> String {
    FAULT_PRESETS
        .iter()
        .map(|p| p.name)
        .collect::<Vec<_>>()
        .join(",")
}

/// One line per preset: name and summary, straight from the table.
fn preset_legend() -> String {
    FAULT_PRESETS
        .iter()
        .map(|p| format!("  {:<10} {}", p.name, p.summary))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Resolves the `--plans` preset list. Each label round-trips through
/// [`FaultPlan::parse`] with the study seed appended, so unknown presets
/// surface as [`DsmError::FaultSpec`] exactly like `acorr run --faults`.
fn plans(spec: &str, seed: u64) -> Result<Vec<(String, FaultPlan)>, DsmError> {
    spec.split(',')
        .map(str::trim)
        .filter(|label| !label.is_empty())
        .map(|label| {
            let plan = if label == "none" {
                FaultPlan::parse(label)
            } else {
                FaultPlan::parse(&format!("{label},seed={seed}"))
            }
            .map_err(DsmError::from)?;
            Ok((label.to_string(), plan))
        })
        .collect()
}

/// The workbench for `nodes` × `threads`, or why that shape cannot run:
/// the cluster's own check, then each suite application's thread limit.
fn workbench(nodes: usize, threads: usize) -> Result<Workbench, String> {
    let bench = Workbench::new(nodes, threads).map_err(|e| e.to_string())?;
    for name in apps::SUITE_NAMES {
        let max = apps::max_threads(name).expect("suite application");
        if threads > max {
            return Err(format!(
                "{name} runs at most {max} threads, got --threads {threads}"
            ));
        }
    }
    Ok(bench)
}

fn main() {
    let threads = arg_usize("--threads", 16);
    let nodes = arg_usize("--nodes", 4);
    let iters = arg_usize("--iters", 3);
    let seed = arg_usize("--seed", 7) as u64;
    let jobs = resolve_threads(arg_usize("--jobs", 0));
    let plan_spec = arg_str("--plans", &default_plan_spec());
    // One base workbench serves every cell; only the fault plan differs.
    let bench = workbench(nodes, threads).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    let plans = plans(&plan_spec, seed).unwrap_or_else(|e| {
        eprintln!("error: {e}\navailable presets:\n{}", preset_legend());
        std::process::exit(2);
    });
    if plans.is_empty() {
        eprintln!(
            "error: --plans selected no fault plans\navailable presets:\n{}",
            preset_legend()
        );
        std::process::exit(2);
    }
    eprintln!("{jobs} worker thread(s)");
    println!(
        "Chaos study: {threads} threads on {nodes} nodes, {iters} iterations, \
         fault seed {seed}\nplans:\n{}\n",
        preset_legend()
    );

    let cells: Vec<(&'static str, String, FaultPlan)> = apps::SUITE_NAMES
        .iter()
        .flat_map(|&app| {
            plans
                .iter()
                .map(move |(label, plan)| (app, label.clone(), plan.clone()))
        })
        .collect();
    let runs: Vec<ConformanceRun> = par_map_indexed(jobs, cells.clone(), |_, (app, _, plan)| {
        bench
            .clone()
            .with_faults(plan)
            .conformance_run(apps::by_name(app, threads).expect("known app"), iters)
            .expect("oracle-clean run")
    });

    let mut table = Table::new(&[
        "App",
        "Plan",
        "Time (s)",
        "Misses",
        "MB sent",
        "Retries",
        "Dups",
        "Corrupt",
        "Part delay",
        "Crashes",
        "Retrans KB",
        "Checked MB",
        "Hazy B",
    ]);
    let mut csv = String::from(
        "app,plan,time_s,remote_misses,bytes_sent,retries,retrans_messages,\
         retrans_bytes,dup_messages,dup_bytes,corrupt_detected,\
         partition_delays,crashes,pages_wiped,barriers_checked,\
         bytes_compared,hazy_bytes\n",
    );
    for ((app, label, _), run) in cells.iter().zip(&runs) {
        assert_eq!(run.report.violations, 0, "{app}/{label}: oracle violation");
        let s = &run.stats;
        table.row(&[
            app.to_string(),
            label.to_string(),
            format!("{:.3}", s.elapsed.as_secs_f64()),
            s.remote_misses.to_string(),
            format!("{:.2}", s.net.total_bytes() as f64 / 1e6),
            s.retries.to_string(),
            s.dup_messages.to_string(),
            s.corrupt_detected.to_string(),
            s.partition_delays.to_string(),
            s.crashes.to_string(),
            format!("{:.1}", s.net.total_retrans_bytes() as f64 / 1e3),
            format!("{:.1}", run.report.bytes_compared as f64 / 1e6),
            run.report.hazy_bytes.to_string(),
        ]);
        csv.push_str(&format!(
            "{app},{label},{:.6},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            s.elapsed.as_secs_f64(),
            s.remote_misses,
            s.net.total_bytes(),
            s.retries,
            s.net.total_retrans_messages(),
            s.net.total_retrans_bytes(),
            s.dup_messages,
            s.dup_bytes,
            s.corrupt_detected,
            s.partition_delays,
            s.crashes,
            s.pages_wiped,
            run.report.barriers_checked,
            run.report.bytes_compared,
            run.report.hazy_bytes,
        ));
    }
    println!("{}", table.render());

    // Invariant: without locks there is no timing-dependent ordering, so
    // the paper-reproduction counters never move with the plan — except
    // under crashes, which wipe caches and legitimately re-fetch. The
    // check pins every crash-free plan to the first crash-free plan's
    // counters.
    for (cell_chunk, run_chunk) in cells.chunks(plans.len()).zip(runs.chunks(plans.len())) {
        let app = cell_chunk[0].0;
        if apps::by_name(app, threads).expect("known app").num_locks() > 0 {
            continue;
        }
        let mut baseline: Option<&acorr::dsm::IterStats> = None;
        for (cell, run) in cell_chunk.iter().zip(run_chunk) {
            if cell.2.crash_prob > 0.0 {
                continue;
            }
            match baseline {
                None => baseline = Some(&run.stats),
                Some(base) => {
                    assert_eq!(
                        run.stats.remote_misses, base.remote_misses,
                        "{}/{}: crash-free faults must not change barrier-only \
                         protocol outcomes",
                        cell.0, cell.1
                    );
                    assert_eq!(run.stats.net.total_bytes(), base.net.total_bytes());
                }
            }
        }
    }
    println!(
        "invariant holds: barrier-only apps keep identical misses and \
         first-send bytes across crash-free plans"
    );
    write_artifact("chaos.csv", &csv);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_list_matches_the_presets() {
        // The default spec is derived from FAULT_PRESETS, so every name
        // resolves and builds exactly the preset's plan for the study seed.
        let resolved = plans(&default_plan_spec(), 7).unwrap();
        assert_eq!(resolved.len(), FAULT_PRESETS.len());
        for (preset, (label, plan)) in FAULT_PRESETS.iter().zip(&resolved) {
            assert_eq!(preset.name, label);
            assert_eq!(*plan, (preset.build)(7), "{label}");
        }
        // The listing and the parser share the table: every legend line
        // names an accepted preset.
        let legend = preset_legend();
        for preset in FAULT_PRESETS {
            assert!(legend.contains(preset.name), "{legend}");
            assert!(legend.contains(preset.summary), "{legend}");
        }
        // The classic four are still the table's head, in order.
        let labels: Vec<&str> = resolved.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(&labels[..4], ["none", "light", "moderate", "heavy"]);
        assert_eq!(resolved[0].1, FaultPlan::none());
    }

    #[test]
    fn malformed_preset_routes_through_dsm_error() {
        let err = plans("light,bogus", 7).unwrap_err();
        assert!(matches!(err, DsmError::FaultSpec(_)));
        assert!(err.to_string().starts_with("fault spec error:"), "{err}");
        assert!(err.to_string().contains("bogus"), "{err}");
    }
}
