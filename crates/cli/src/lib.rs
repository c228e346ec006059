//! # acorr-cli — command-line front end
//!
//! A small CLI over the `acorr` library for the workflows a DSM operator or
//! performance engineer actually repeats:
//!
//! ```text
//! acorr track   --app SOR --threads 64 --nodes 8 [--format ascii|pgm|csv|svg] [--out FILE]
//! acorr profile --app FFT6 --threads 64 | --csv corr.csv
//! acorr place   --app LU2k --threads 64 --nodes 8 --strategy min-cost | --csv corr.csv
//! acorr run     --app Ocean --threads 64 --nodes 8 --strategy min-cost --iters 10
//! acorr overhead --app Water --threads 64 --nodes 8
//! acorr explore --app sor --budget 500 [--mode random|systematic] [--replay TOKEN]
//! acorr apps
//! ```
//!
//! Every command is a thin composition of public library calls — the CLI is
//! also living documentation of the API.
//!
//! Every command but `apps` and `verify` accepts `--jobs N`, the
//! worker-thread count of the deterministic parallel runner (`--threads`
//! already names the *simulated application* thread count, so the
//! host-parallelism flag is spelled `--jobs`). The default `0` uses all
//! available cores; `--jobs 1` is the exact sequential path. Results are
//! bit-identical either way — every sample forks its own RNG stream and
//! results are collected in index order (see `acorr::sim::pool`). A flag
//! a command does not read is an error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;

use acorr::apps;
use acorr::experiment::Workbench;
use acorr::place::{place, Strategy};
use acorr::sim::{DetRng, FaultPlan};
use acorr::track::{
    compatible_node_sizes, cut_cost, page_report, profile_map, render_ascii, render_csv,
    render_pgm, render_svg, CorrelationMatrix, MapStyle,
};
use args::Args;

/// A command: what it prints for its arguments.
type Command = fn(&Args) -> Result<String, String>;

/// Runs one CLI invocation, returning the text to print.
///
/// Each command is listed once, with the flags it reads (space-separated);
/// any other flag is an error before the command starts.
///
/// # Errors
///
/// Returns a user-facing message on an unknown command or flag, bad
/// arguments or engine failures.
pub fn run(args: &Args) -> Result<String, String> {
    let (flags, command): (&str, Command) = match args.command() {
        "apps" => ("", |_| Ok(list_apps())),
        "track" => ("app threads nodes format out jobs", track),
        "profile" => ("app threads nodes csv jobs", profile),
        "place" => (
            "app threads nodes strategy seed csv scale degree jobs",
            place_cmd,
        ),
        "run" => (
            "app threads nodes strategy iters faults obs-dir jobs",
            run_cmd,
        ),
        "serve" => (
            "scenario app threads nodes tenants steps window period policy pages-per-thread \
             cost-per-page remap-cost max-swaps seed jobs timeline obs-dir",
            serve_cmd,
        ),
        "report" => ("manifest jobs", report),
        "analyze" => ("obs-dir top window jobs", analyze),
        "overhead" => ("app threads nodes faults jobs", overhead),
        "explore" => (
            "app threads nodes budget iters mode seed preemptions faults inject decision-log \
             strategy replay jobs",
            explore,
        ),
        "hot" => ("app threads nodes k jobs", hot),
        "verify" => ("app threads nodes iters faults crash", verify),
        "help" => ("", |_| Ok(usage())),
        other => return Err(format!("unknown command `{other}`\n\n{}", usage())),
    };
    let known: Vec<&str> = flags.split_whitespace().collect();
    match args.unknown_keys(&known).first() {
        Some(unknown) => Err(format!("unknown flag --{unknown}")),
        None => command(args),
    }
}

/// The usage text.
pub fn usage() -> String {
    "\
acorr — Active Correlation Tracking toolkit

USAGE:
  acorr apps
  acorr track    --app NAME [--threads N] [--nodes N] [--format ascii|pgm|csv|svg] [--out FILE]
  acorr profile  --app NAME [--threads N] | --csv FILE
  acorr place    --app NAME [--threads N] [--nodes N] [--strategy S] | --csv FILE --nodes N
                 | --scale THREADSxNODES [--degree N] [--seed N] [--jobs N]
  acorr run      --app NAME [--threads N] [--nodes N] [--strategy S] [--iters N] [--faults SPEC]
                 [--obs-dir DIR]
  acorr serve    --scenario static|hotspot|churn|diurnal [--threads N] [--nodes N]
                 [--tenants N] [--steps N] [--window N] [--period N]
                 [--policy greedy|interchange] [--pages-per-thread N] [--cost-per-page N]
                 [--remap-cost N] [--max-swaps N] [--seed N] [--jobs N]
                 [--timeline FILE] [--obs-dir DIR]
                 | --app NAME [--steps N] ...
  acorr report   --manifest FILE [--jobs N]
  acorr analyze  --obs-dir DIR [--top K] [--window N] [--jobs N]
  acorr overhead --app NAME [--threads N] [--nodes N] [--faults SPEC]
  acorr explore  --app NAME [--threads N] [--nodes N] [--budget N] [--iters N]
                 [--mode random|systematic|model-check] [--seed N] [--preemptions N]
                 [--faults N] [--inject BUG] [--decision-log FILE]
                 [--strategy S] [--replay TOKEN] [--jobs N]
  acorr hot      --app NAME [--threads N] [--nodes N] [--k N]
  acorr verify   --app NAME [--threads N] [--nodes N] [--iters N] [--faults SPEC]
                 [--crash PROB]

Strategies: stretch, random, min-cost, jarvis-patrick, anneal, optimal
Defaults: --threads 64 --nodes 8 --strategy min-cost --format ascii
Scale mode: `place --scale 1000000x1000` skips the simulator and places a
synthetic power-law affinity workload (~`--degree` edges per thread, default
8) with the multilevel partitioner, reporting generation/placement times,
cut cost vs the stretch baseline, and a machine-independent `mapping
digest:` line. Output is bit-identical at any --jobs. THREADS must lie in
2..=4294967295, and NODES in 1..=65535 (node ids are 16-bit) and at most
THREADS.
Fault specs: a preset (none, light, moderate, heavy) and/or key=value
overrides, comma-separated — e.g. `moderate`, `heavy,seed=7`,
`drop_prob=0.05,max_retries=6`. Plans are deterministic per seed; `verify`
additionally shadows the run with the coherence conformance oracle.
Flags: a command rejects any flag it does not read.
Parallelism: every command but apps and verify takes --jobs N (worker threads
for the deterministic parallel runner; 0 = all cores, 1 = sequential;
--threads is the simulated app thread count). Output is bit-identical at any
--jobs.
Observability: `run --obs-dir DIR` writes events.jsonl, trace.json (open in
chrome://tracing or Perfetto), metrics.csv, histograms.csv and manifest.json
into DIR; sinks are pure observers, so the reported row is unchanged.
`report --manifest FILE` replays a run from its manifest and checks the
final statistics digest bit-for-bit.
Analytics: `analyze --obs-dir DIR` replay-verifies DIR/manifest.json and then
distills DIR/events.jsonl into DIR/analysis/ — page_heat.csv (per-page
fetch/twin/diff/transfer heat, hottest first), thread_comm.csv (per-thread
attribution), critical_path.csv (per-barrier-interval slowest node with its
fetch/lock wait split), spans.csv (engine self-profiling totals), phases.csv
(windowed correlation phase shifts) and report.txt (top `--top K` pages,
digest-stamped). `--window N` sets the phase-detection window in barrier
intervals. Output is byte-identical across runs and `--jobs` values.
Exploration: `explore` drives the app under steered schedules, checking each
against the default-schedule baseline with happens-before race detection,
the conformance oracle, and multi-writer vs single-writer differential
memory comparison. App names are case-insensitive here, and the seeded-race
fixture `Racey` is accepted (forced to 2 threads on 1 node). Counterexamples
shrink to a minimal replay token; `--replay TOKEN` reruns one exactly.
A reported failure (found or replayed) is an error: exit 1. `--replay` takes
no search flag, and each --mode only its own.
Model checking: `explore --mode model-check` enumerates the fault x schedule
product space (partition, duplication, corruption, one-node crash at barrier
intervals) with state-hash pruning; in this mode `--faults N` is the fault
budget per schedule (default 1), `--inject lose-partitioned-invalidations`
plants the seeded protocol bug the checker must find, and tokens gain a `!`
fault section (e.g. `s1!1`). `--decision-log FILE` writes a machine-readable
summary of the search (CI uploads it when the smoke check fails).
`verify --crash PROB` adds barrier-interval node crashes to the fault plan.
Online service: `serve` runs the live placement loop — a deterministic
multi-tenant traffic driver (or, with --app, tracked engine iterations)
streams into windowed detection; on each phase shift the service recomputes
placement, gates re-mapping on predicted cut improvement strictly beating
the migration cost model (--pages-per-thread x --cost-per-page + flat
--remap-cost), and migrates under --policy (greedy adopts the candidate,
interchange realizes it with at most --max-swaps profitable pairwise
swaps). Prints the decision timeline plus stable `timeline digest:` and
`final mapping digest:` lines (CI pins the former); --timeline FILE writes
the timeline snapshot; --obs-dir DIR writes the decision events through the
obs sinks (Perfetto marks on the decision lane). Output is bit-identical at
any --jobs.
"
    .to_owned()
}

fn list_apps() -> String {
    let mut out = String::from("Table 1 applications:\n");
    for name in apps::SUITE_NAMES {
        out.push_str(&format!("  {name}\n"));
    }
    out.push_str("plus: Drift (dynamic, §7)\n");
    out
}

fn strategy_of(name: &str) -> Result<Strategy, String> {
    Strategy::parse(name).ok_or_else(|| format!("unknown strategy `{name}`"))
}

/// The `--jobs` option: pool worker threads (0 = available parallelism).
fn jobs_of(args: &Args) -> Result<usize, String> {
    args.get_usize("jobs", 0)
}

/// The `--faults` option: a deterministic fault-plan spec (see
/// [`FaultPlan::parse`]); absent means no faults. Parse failures are
/// routed through [`acorr::dsm::DsmError`] so `run`, `verify`, `overhead`
/// and `report` all print the same uniform diagnostic.
fn faults_of(args: &Args) -> Result<FaultPlan, String> {
    parse_faults(args.get("faults").unwrap_or("none"))
}

fn parse_faults(spec: &str) -> Result<FaultPlan, String> {
    FaultPlan::parse(spec).map_err(|e| acorr::dsm::DsmError::from(e).to_string())
}

fn app_factory(args: &Args) -> Result<(String, usize), String> {
    let name = args.get("app").ok_or("--app is required")?.to_owned();
    let threads = args.get_usize("threads", 64)?;
    check_app(&name, threads)?;
    Ok((name, threads))
}

/// Checks that [`build`] knows `name` and can build it with `threads`
/// threads, so no application constructor panics on a bad `--threads`.
fn check_app(name: &str, threads: usize) -> Result<(), String> {
    let unknown = || format!("unknown application `{name}` (try `acorr apps`)");
    let max = match name {
        "Drift" => usize::MAX,
        _ => apps::max_threads(name).ok_or_else(unknown)?,
    };
    match threads {
        0 => Err(format!("{name} needs at least 1 thread, got --threads 0")),
        t if t > max => Err(format!(
            "{name} runs at most {max} threads, got --threads {t}"
        )),
        _ => Ok(()),
    }
}

fn build(name: &str, threads: usize) -> Box<dyn acorr::dsm::Program> {
    if name == "Drift" {
        Box::new(apps::Drift::new(32 * threads, threads, 8))
    } else {
        apps::by_name(name, threads).expect("validated earlier")
    }
}

fn correlations(args: &Args) -> Result<(String, CorrelationMatrix), String> {
    if let Some(path) = args.get("csv") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let corr = CorrelationMatrix::from_csv(&text)?;
        Ok((path.to_owned(), corr))
    } else {
        let (name, threads) = app_factory(args)?;
        let nodes = args.get_usize("nodes", 8)?;
        let bench = Workbench::new(nodes, threads)
            .map_err(|e| e.to_string())?
            .with_threads(jobs_of(args)?);
        let truth = bench
            .ground_truth(|| build(&name, threads))
            .map_err(|e| e.to_string())?;
        Ok((name, truth.corr))
    }
}

fn track(args: &Args) -> Result<String, String> {
    let (label, corr) = correlations(args)?;
    let format = args.get_or("format", "ascii");
    let rendered = match format {
        "ascii" => render_ascii(&corr, &MapStyle::default()),
        "pgm" => render_pgm(&corr),
        "csv" => render_csv(&corr),
        "svg" => render_svg(&corr, &MapStyle::default()),
        other => return Err(format!("unknown format `{other}`")),
    };
    let profile = profile_map(&corr);
    let body = match args.get("out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("{path}: {e}"))?;
            format!("wrote {path}\n")
        }
        None => rendered,
    };
    Ok(format!("{label}: {profile}\n{body}"))
}

fn profile(args: &Args) -> Result<String, String> {
    let (label, corr) = correlations(args)?;
    let p = profile_map(&corr);
    let sizes = compatible_node_sizes(&p, corr.num_threads());
    Ok(format!(
        "{label}: {p}\ncompatible per-node thread counts: {sizes:?}\n"
    ))
}

fn place_cmd(args: &Args) -> Result<String, String> {
    if let Some(spec) = args.get("scale") {
        return place_scale(args, spec);
    }
    let (label, corr) = correlations(args)?;
    let nodes = args.get_usize("nodes", 8)?;
    let cluster =
        acorr::sim::ClusterConfig::new(nodes, corr.num_threads()).map_err(|e| e.to_string())?;
    let strategy = strategy_of(args.get_or("strategy", "min-cost"))?;
    let mut rng = DetRng::new(args.get_usize("seed", 42)? as u64);
    let mapping = place(strategy, &corr, &cluster, &mut rng);
    let cut = cut_cost(&corr, &mapping);
    Ok(format!(
        "{label}: {strategy} on {nodes} nodes\nmapping: {mapping}\ncut cost: {cut}\n"
    ))
}

/// `place --scale TxN`: the multilevel production-scale path. Generates a
/// synthetic power-law affinity store and places it, reporting timings,
/// cut costs and the assignment digest (stable `mapping digest:` line for
/// scripts and CI to pin).
fn place_scale(args: &Args, spec: &str) -> Result<String, String> {
    let (threads, nodes) = parse_scale(spec)?;
    let degree = args.get_usize("degree", 8)?;
    let seed = args.get_usize("seed", 42)? as u64;
    let row =
        acorr::experiment::scale_placement_study(threads, nodes, degree, seed, jobs_of(args)?)
            .map_err(|e| e.to_string())?;
    Ok(format!(
        "scale placement (multilevel, degree {degree}, seed {seed}): {row}\n\
         mapping digest: {}\n",
        row.digest
    ))
}

/// Parses `--scale` specs like `1000000x1000` (threads x nodes).
fn parse_scale(spec: &str) -> Result<(usize, usize), String> {
    let (t, n) = spec
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("--scale wants THREADSxNODES (e.g. 100000x256), got `{spec}`"))?;
    let threads = t
        .parse::<usize>()
        .map_err(|_| format!("--scale: bad thread count `{t}`"))?;
    let nodes = n
        .parse::<usize>()
        .map_err(|_| format!("--scale: bad node count `{n}`"))?;
    Ok((threads, nodes))
}

fn run_cmd(args: &Args) -> Result<String, String> {
    let (name, threads) = app_factory(args)?;
    let nodes = args.get_usize("nodes", 8)?;
    let iters = args.get_usize("iters", 10)?;
    let strategy_name = args.get_or("strategy", "min-cost").to_owned();
    let strategy = strategy_of(&strategy_name)?;
    let faults_spec = args.get("faults").unwrap_or("none").to_owned();
    let obs_dir = args.get("obs-dir").map(std::path::PathBuf::from);
    let mut bench = Workbench::new(nodes, threads)
        .map_err(|e| e.to_string())?
        .with_threads(jobs_of(args)?)
        .with_faults(parse_faults(&faults_spec)?);
    if obs_dir.is_some() {
        bench = bench.with_observer();
    }
    let run = bench
        .observed_heuristic_run(|| build(&name, threads), strategy, iters)
        .map_err(|e| e.to_string())?;
    let mut out = format!("{}\n", run.row);
    if let Some(dir) = obs_dir {
        let observation = run.observation.expect("observer was configured");
        let mut written = observation
            .write_to(&dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        let manifest = acorr::obs::RunManifest::new("acorr run")
            .param("app", &name)
            .param("threads", &threads.to_string())
            .param("nodes", &nodes.to_string())
            .param("iters", &iters.to_string())
            .param("strategy", &strategy_name)
            .param("faults", &faults_spec)
            .param("seed", &bench.seed.to_string())
            .with_digest(acorr::obs::stats_digest(&run.stats));
        let manifest_path = dir.join("manifest.json");
        std::fs::write(&manifest_path, manifest.to_json())
            .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
        written.push(manifest_path);
        for path in &written {
            out.push_str(&format!("wrote {}\n", path.display()));
        }
        out.push_str(&format!("stats digest: {}\n", manifest.digest));
    }
    Ok(out)
}

/// `acorr serve`: the online placement service. Traffic mode by default;
/// `--app NAME` drives a live engine (one tracked iteration per step)
/// through the same decision core, re-mapping mid-run.
fn serve_cmd(args: &Args) -> Result<String, String> {
    let scenario_name = args.get_or("scenario", "hotspot");
    let scenario = acorr::sim::Scenario::parse(scenario_name).ok_or_else(|| {
        format!("unknown scenario `{scenario_name}` (static, hotspot, churn, diurnal)")
    })?;
    let policy_name = args.get_or("policy", "greedy");
    let policy = acorr::place::MigrationPolicy::parse(policy_name)
        .ok_or_else(|| format!("unknown policy `{policy_name}` (greedy, interchange)"))?;
    let defaults = acorr::place::MigrationCostModel::default();
    let cost_model = acorr::place::MigrationCostModel::new(
        args.get_usize("pages-per-thread", defaults.pages_per_thread as usize)? as u64,
        args.get_usize("cost-per-page", defaults.cost_per_page as usize)? as u64,
        args.get_usize("remap-cost", defaults.fixed_cost as usize)? as u64,
    );
    let base = acorr::ServeOptions::new(scenario);
    let options = acorr::ServeOptions {
        scenario,
        steps: args.get_usize("steps", base.steps)?,
        tenants: args.get_usize("tenants", base.tenants)?,
        window: args.get_usize("window", base.window)?,
        period: args.get_usize("period", base.period as usize)? as u64,
        policy,
        cost_model,
        max_swaps: args.get_usize("max-swaps", base.max_swaps)?,
        ..base
    };
    let nodes = args.get_usize("nodes", 8)?;
    let obs_dir = args.get("obs-dir").map(std::path::PathBuf::from);
    let report = if args.get("app").is_some() {
        let (name, threads) = app_factory(args)?;
        let mut bench = Workbench::new(nodes, threads)
            .map_err(|e| e.to_string())?
            .with_threads(jobs_of(args)?);
        if let Some(seed) = args.get("seed") {
            bench = bench.with_seed(seed.parse().map_err(|_| format!("bad --seed `{seed}`"))?);
        }
        if obs_dir.is_some() {
            bench = bench.with_observer();
        }
        bench
            .serve_app(|| build(&name, threads), &options)
            .map_err(|e| e.to_string())?
    } else {
        let threads = args.get_usize("threads", 64)?;
        if threads < 2 {
            return Err(format!(
                "serve traffic needs at least 2 threads to pair, got --threads {threads}"
            ));
        }
        let mut bench = Workbench::new(nodes, threads)
            .map_err(|e| e.to_string())?
            .with_threads(jobs_of(args)?);
        if let Some(seed) = args.get("seed") {
            bench = bench.with_seed(seed.parse().map_err(|_| format!("bad --seed `{seed}`"))?);
        }
        if obs_dir.is_some() {
            bench = bench.with_observer();
        }
        bench.serve_traffic(&options)
    };
    let mut out = format!(
        "{report}\nfinal mapping digest: {}\ntimeline digest: {}\n",
        report.final_mapping_digest(),
        report.timeline_digest()
    );
    if report.timeline.is_empty() {
        out.push_str("timeline: (no decisions)\n");
    } else {
        out.push_str("timeline:\n");
        for decision in &report.timeline {
            out.push_str(&format!("  {decision}\n"));
        }
    }
    if let Some(path) = args.get("timeline") {
        std::fs::write(path, report.snapshot()).map_err(|e| format!("{path}: {e}"))?;
        out.push_str(&format!("wrote {path}\n"));
    }
    if let Some(dir) = obs_dir {
        let observation = report
            .observation
            .as_ref()
            .expect("observer was configured");
        let written = observation
            .write_to(&dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        for path in &written {
            out.push_str(&format!("wrote {}\n", path.display()));
        }
    }
    Ok(out)
}

/// Replays a run from its manifest and checks the statistics digest.
/// Returns the manifest, the replayed run and the (matching) digest;
/// a digest mismatch is an error.
fn replay_manifest(
    args: &Args,
    path: &str,
) -> Result<
    (
        acorr::obs::RunManifest,
        acorr::experiment::ObservedRun,
        String,
    ),
    String,
> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let manifest = acorr::obs::RunManifest::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    if manifest.tool != "acorr run" {
        return Err(format!(
            "{path}: cannot replay manifests from `{}` (only `acorr run`)",
            manifest.tool
        ));
    }
    let param = |key: &str| -> Result<&str, String> {
        manifest
            .get(key)
            .ok_or_else(|| format!("{path}: manifest is missing param \"{key}\""))
    };
    let usize_param = |key: &str| -> Result<usize, String> {
        param(key)?
            .parse()
            .map_err(|e| format!("{path}: bad \"{key}\": {e}"))
    };
    let name = param("app")?.to_owned();
    let threads = usize_param("threads")?;
    let nodes = usize_param("nodes")?;
    let iters = usize_param("iters")?;
    let strategy = strategy_of(param("strategy")?)?;
    let faults = parse_faults(param("faults")?)?;
    let seed: u64 = param("seed")?
        .parse()
        .map_err(|e| format!("{path}: bad \"seed\": {e}"))?;
    check_app(&name, threads).map_err(|e| format!("{path}: {e}"))?;
    let bench = Workbench::new(nodes, threads)
        .map_err(|e| e.to_string())?
        .with_seed(seed)
        .with_threads(jobs_of(args)?)
        .with_faults(faults);
    let run = bench
        .observed_heuristic_run(|| build(&name, threads), strategy, iters)
        .map_err(|e| e.to_string())?;
    let digest = acorr::obs::stats_digest(&run.stats);
    if digest == manifest.digest {
        Ok((manifest, run, digest))
    } else {
        Err(format!(
            "replay MISMATCH: manifest digest {} (recorded under {}), replay digest {digest}\n{}",
            manifest.digest, manifest.git, run.row
        ))
    }
}

fn report(args: &Args) -> Result<String, String> {
    let path = args.get("manifest").ok_or("--manifest is required")?;
    let (manifest, run, digest) = replay_manifest(args, path)?;
    Ok(format!(
        "{}\nreplay OK: digest {digest} matches manifest (recorded under {})\n",
        run.row, manifest.git
    ))
}

/// Distills a `run --obs-dir` artifact directory into `DIR/analysis/`:
/// attribution CSVs, the critical-path decomposition, span totals, phase
/// shifts, and a digest-stamped human-readable report. The manifest is
/// replay-verified first, so the analysis is never built over artifacts
/// that no longer reproduce.
fn analyze(args: &Args) -> Result<String, String> {
    let dir = std::path::PathBuf::from(args.get("obs-dir").ok_or("--obs-dir is required")?);
    let top_k = args.get_usize("top", acorr::obs::analyze::DEFAULT_TOP_K)?;
    let window = args.get_usize("window", acorr::obs::analyze::DEFAULT_PHASE_WINDOW)?;
    let manifest_path = dir.join("manifest.json");
    let manifest_str = manifest_path
        .to_str()
        .ok_or("--obs-dir is not valid UTF-8")?
        .to_owned();
    let (_, run, digest) = replay_manifest(args, &manifest_str)?;
    let events_path = dir.join("events.jsonl");
    let events = std::fs::read_to_string(&events_path)
        .map_err(|e| format!("{}: {e}", events_path.display()))?;
    let analysis =
        acorr::obs::Analysis::from_events_windowed(&events, run.threads, run.pages, window)
            .map_err(|e| format!("{}: {e}", events_path.display()))?;
    let report = analysis.report(&digest, top_k);
    let out_dir = dir.join("analysis");
    let written = analysis
        .write_to(&out_dir, &report)
        .map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut out = format!("{}\n", run.row);
    for path in &written {
        out.push_str(&format!("wrote {}\n", path.display()));
    }
    out.push_str(&format!(
        "analyzed {} page(s), {} thread(s), {} interval(s); {} phase shift(s)\n",
        analysis.pages.len(),
        analysis.threads.len(),
        analysis.intervals.len(),
        analysis.shifts.len()
    ));
    out.push_str(&format!("stats digest: {digest}\n"));
    Ok(out)
}

fn verify(args: &Args) -> Result<String, String> {
    let (name, threads) = app_factory(args)?;
    let nodes = args.get_usize("nodes", 8)?;
    let iters = args.get_usize("iters", 3)?;
    let mut plan = faults_of(args)?;
    // `--crash P` sugar: barrier-interval node crashes on top of whatever
    // `--faults` specified (the oracle tolerates the wiped state — crashed
    // caches reconstruct lazily from the surviving directory).
    if let Some(crash) = args.get("crash") {
        let p: f64 = crash
            .parse()
            .map_err(|e| format!("bad --crash value `{crash}`: {e}"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("--crash {p} is not a probability in [0, 1]"));
        }
        plan.crash_prob = p;
    }
    let bench = Workbench::new(nodes, threads)
        .map_err(|e| e.to_string())?
        .with_faults(plan);
    let run = bench
        .conformance_run(build(&name, threads), iters)
        .map_err(|e| e.to_string())?;
    Ok(format!("{run}\nconformance OK\n"))
}

/// Resolves `--app` case-insensitively against the suite plus the
/// explorer-only names, returning the canonical spelling. The acceptance
/// workflow spells apps in lowercase (`--app sor`), so `explore` is more
/// forgiving than the measurement commands.
fn explore_app(raw: &str) -> Result<&'static str, String> {
    apps::SUITE_NAMES
        .iter()
        .copied()
        .chain(["Drift", "Racey"])
        .find(|n| n.eq_ignore_ascii_case(raw))
        .ok_or_else(|| format!("unknown application `{raw}` (try `acorr apps`)"))
}

fn explore(args: &Args) -> Result<String, String> {
    use acorr::explore::ExploreOptions;
    use acorr::sched::{ExploreMode, Schedule};

    let name = explore_app(args.get("app").ok_or("--app is required")?)?;
    // Racey's shape is fixed: two threads that must share a node for
    // dispatch order to be steerable.
    let racey = name == "Racey";
    let threads = if racey {
        2
    } else {
        let threads = args.get_usize("threads", 64)?;
        check_app(name, threads)?;
        threads
    };
    let nodes = if racey {
        1
    } else {
        args.get_usize("nodes", 8)?
    };
    let mode = match args.get_or("mode", "random") {
        "random" => ExploreMode::Random {
            seed: args.get_usize("seed", 0xACE5)? as u64,
        },
        "systematic" => ExploreMode::Systematic {
            preemptions: args.get_usize("preemptions", 1)?,
        },
        "model-check" => ExploreMode::ModelCheck {
            preemptions: args.get_usize("preemptions", 1)?,
            faults: args.get_usize("faults", 1)?,
        },
        other => {
            return Err(format!(
                "unknown mode `{other}` (random|systematic|model-check)"
            ))
        }
    };
    // A search flag the run does not read is an error: a replay reads none
    // of them, and each mode reads only its own.
    let (reads, context): (&[&str], &str) = match (args.get("replay"), mode) {
        (Some(_), _) => (&[], "--replay"),
        (None, ExploreMode::Random { .. }) => (&["mode", "budget", "seed"], "random mode"),
        (None, ExploreMode::Systematic { .. }) => {
            (&["mode", "budget", "preemptions"], "systematic mode")
        }
        (None, ExploreMode::ModelCheck { .. }) => (
            &["mode", "budget", "preemptions", "faults"],
            "model-check mode",
        ),
    };
    let search_flags = ["mode", "budget", "seed", "preemptions", "faults"];
    if let Some(flag) = search_flags
        .into_iter()
        .find(|&flag| args.get(flag).is_some() && !reads.contains(&flag))
    {
        return Err(format!("--{flag} does not apply with {context}"));
    }
    let replay = match args.get("replay") {
        Some(token) => Some(Schedule::parse_token(token).map_err(|e| e.to_string())?),
        None => None,
    };
    let inject = match args.get("inject") {
        Some("lose-partitioned-invalidations") => {
            Some(acorr::dsm::InjectedBug::LosePartitionedInvalidations)
        }
        Some(other) => {
            return Err(format!(
                "unknown injected bug `{other}` (lose-partitioned-invalidations)"
            ))
        }
        None => None,
    };
    let options = ExploreOptions {
        strategy: strategy_of(args.get_or("strategy", "min-cost"))?,
        iterations: args.get_usize("iters", 1)?,
        budget: args.get_usize("budget", 20)?.max(1),
        mode,
        replay,
        inject,
        jobs: jobs_of(args)?,
    };
    let bench = Workbench::new(nodes, threads).map_err(|e| e.to_string())?;
    let report = bench
        .explore_run(
            || {
                if racey {
                    Box::new(apps::Racey) as Box<dyn acorr::dsm::Program>
                } else {
                    build(name, threads)
                }
            },
            &options,
        )
        .map_err(|e| e.to_string())?;
    if let Some(path) = args.get("decision-log") {
        // A replay searches nothing, so it logs no search mode.
        let mode = match args.get("replay") {
            Some(_) => "replay",
            None => args.get_or("mode", "random"),
        };
        let mut artifact = format!(
            "app={}\nmode={mode}\nschedules_run={}\ndecision_points={}\ndistinct_states={}\n",
            report.app, report.schedules_run, report.decision_points, report.distinct_states,
        );
        match &report.failure {
            Some(fail) => {
                artifact.push_str(&format!(
                    "failure_token={}\nfailure_kind={}\nfailure_mode={}\nfailure_detail={}\n",
                    fail.token, fail.kind, fail.write_mode, fail.detail
                ));
            }
            None => artifact.push_str("failure_token=none\n"),
        }
        std::fs::write(path, artifact).map_err(|e| format!("{path}: {e}"))?;
    }
    // A found (or replayed) counterexample fails the command, as an oracle
    // violation fails `verify`.
    match report.failure {
        Some(_) => Err(report.to_string()),
        None => Ok(format!("{report}\n")),
    }
}

fn hot(args: &Args) -> Result<String, String> {
    let (name, threads) = app_factory(args)?;
    let nodes = args.get_usize("nodes", 8)?;
    let k = args.get_usize("k", 10)?;
    let bench = Workbench::new(nodes, threads)
        .map_err(|e| e.to_string())?
        .with_threads(jobs_of(args)?);
    let truth = bench
        .ground_truth(|| build(&name, threads))
        .map_err(|e| e.to_string())?;
    let report = page_report(&truth.access, k);
    Ok(format!("{name}: {report}"))
}

fn overhead(args: &Args) -> Result<String, String> {
    let (name, threads) = app_factory(args)?;
    let nodes = args.get_usize("nodes", 8)?;
    let bench = Workbench::new(nodes, threads)
        .map_err(|e| e.to_string())?
        .with_threads(jobs_of(args)?)
        .with_faults(faults_of(args)?);
    let row = bench
        .tracking_overhead(|| build(&name, threads))
        .map_err(|e| e.to_string())?;
    Ok(format!("{row}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(tokens: &[&str]) -> Result<String, String> {
        run(&Args::parse(tokens.iter().map(|s| s.to_string())).unwrap())
    }

    #[test]
    fn apps_lists_the_suite() {
        let out = cli(&["apps"]).unwrap();
        for name in apps::SUITE_NAMES {
            assert!(out.contains(name));
        }
        assert!(out.contains("Drift"));
    }

    #[test]
    fn track_renders_a_map_with_profile() {
        let out = cli(&["track", "--app", "SOR", "--threads", "8", "--nodes", "2"]).unwrap();
        assert!(out.contains("nearest-neighbor"), "{out}");
        assert!(out.lines().count() > 8);
    }

    #[test]
    fn track_rejects_unknown_flags_and_apps() {
        assert!(cli(&["track", "--app", "SOR", "--thread", "8"])
            .unwrap_err()
            .contains("--thread"));
        assert!(cli(&["track", "--app", "NotAnApp"])
            .unwrap_err()
            .contains("NotAnApp"));
    }

    #[test]
    fn profile_and_place_work_from_csv() {
        // Build a CSV via track, feed it back through profile and place.
        let dir = std::env::temp_dir().join("acorr-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corr.csv");
        let out = cli(&[
            "track",
            "--app",
            "FFT6",
            "--threads",
            "16",
            "--nodes",
            "4",
            "--format",
            "csv",
            "--out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("wrote"));
        let prof = cli(&["profile", "--csv", path.to_str().unwrap()]).unwrap();
        assert!(prof.contains("compatible per-node thread counts"));
        let placed = cli(&[
            "place",
            "--csv",
            path.to_str().unwrap(),
            "--nodes",
            "4",
            "--strategy",
            "min-cost",
        ])
        .unwrap();
        assert!(placed.contains("cut cost:"), "{placed}");
    }

    #[test]
    fn csv_values_past_the_kernel_range_are_errors_and_an_empty_csv_profiles() {
        // Pairs (0,1) and (2,3) both sharing u64::MAX pages once made
        // min-cost cut both in release and aborted debug builds.
        let dir = std::env::temp_dir().join("acorr-cli-csv-range");
        std::fs::create_dir_all(&dir).unwrap();
        let big = dir.join("big.csv");
        let max = u64::MAX;
        let text = format!("0,{max},0,0\n{max},0,0,0\n0,0,0,{max}\n0,0,{max},0\n");
        std::fs::write(&big, text).unwrap();
        let big = big.to_str().unwrap();
        for args in [
            &["place", "--csv", big, "--nodes", "2"][..],
            &["profile", "--csv", big][..],
        ] {
            let err = cli(args).unwrap_err();
            assert!(err.contains("row 0: values sum past"), "{args:?}: {err}");
        }
        let empty = dir.join("empty.csv");
        std::fs::write(&empty, "").unwrap();
        let prof = cli(&["profile", "--csv", empty.to_str().unwrap()]).unwrap();
        assert!(prof.contains("independent"), "{prof}");
    }

    #[test]
    fn place_scale_reports_a_digest_and_is_jobs_invariant() {
        let base = cli(&["place", "--scale", "1000x8", "--jobs", "1"]).unwrap();
        assert!(base.contains("mapping digest: fnv1a:"), "{base}");
        assert!(base.contains("cut"), "{base}");
        let par = cli(&["place", "--scale", "1000x8", "--jobs", "4"]).unwrap();
        let digest_of = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("mapping digest:"))
                .map(str::to_owned)
        };
        assert_eq!(digest_of(&base), digest_of(&par));
    }

    #[test]
    fn place_scale_rejects_malformed_specs() {
        assert!(cli(&["place", "--scale", "1000"])
            .unwrap_err()
            .contains("THREADSxNODES"));
        assert!(cli(&["place", "--scale", "axb"])
            .unwrap_err()
            .contains("bad thread count"));
        assert!(
            cli(&["place", "--scale", "8x1000"]).is_err(),
            "threads < nodes"
        );
    }

    #[test]
    fn run_reports_a_table6_style_row() {
        let out = cli(&[
            "run",
            "--app",
            "Water",
            "--threads",
            "8",
            "--nodes",
            "2",
            "--iters",
            "2",
            "--strategy",
            "stretch",
        ])
        .unwrap();
        assert!(out.contains("stretch"), "{out}");
        assert!(out.contains("misses"));
    }

    #[test]
    fn overhead_reports_a_table5_style_row() {
        let out = cli(&["overhead", "--app", "SOR", "--threads", "8", "--nodes", "2"]).unwrap();
        assert!(out.contains("tracking"), "{out}");
    }

    #[test]
    fn hot_lists_hot_pages() {
        let out = cli(&[
            "hot",
            "--app",
            "Water",
            "--threads",
            "8",
            "--nodes",
            "2",
            "--k",
            "3",
        ])
        .unwrap();
        assert!(out.contains("touched pages"), "{out}");
        assert!(out.contains("sharers"));
    }

    #[test]
    fn verify_reports_conformance_with_and_without_faults() {
        let clean = cli(&["verify", "--app", "SOR", "--threads", "8", "--nodes", "2"]).unwrap();
        assert!(clean.contains("conformance OK"), "{clean}");
        assert!(clean.contains("oracle"));
        let faulty = cli(&[
            "verify",
            "--app",
            "SOR",
            "--threads",
            "8",
            "--nodes",
            "2",
            "--iters",
            "3",
            "--faults",
            "heavy,seed=9",
        ])
        .unwrap();
        assert!(faulty.contains("conformance OK"), "{faulty}");
    }

    #[test]
    fn run_accepts_a_fault_spec_and_rejects_bad_ones() {
        let out = cli(&[
            "run",
            "--app",
            "Water",
            "--threads",
            "8",
            "--nodes",
            "2",
            "--iters",
            "2",
            "--strategy",
            "stretch",
            "--faults",
            "moderate,seed=3",
        ])
        .unwrap();
        assert!(out.contains("misses"), "{out}");
        let err = cli(&[
            "run",
            "--app",
            "Water",
            "--threads",
            "8",
            "--nodes",
            "2",
            "--faults",
            "bogus",
        ])
        .unwrap_err();
        assert!(err.contains("bogus"), "{err}");
    }

    #[test]
    fn run_with_obs_dir_emits_artifacts_and_report_replays() {
        let dir = std::env::temp_dir().join(format!("acorr-cli-obs-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let out = cli(&[
            "run",
            "--app",
            "Water",
            "--threads",
            "8",
            "--nodes",
            "2",
            "--iters",
            "2",
            "--strategy",
            "stretch",
            "--faults",
            "moderate,seed=3",
            "--obs-dir",
            dir.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("stats digest: fnv1a:"), "{out}");
        for name in [
            "events.jsonl",
            "trace.json",
            "metrics.csv",
            "histograms.csv",
            "manifest.json",
        ] {
            assert!(dir.join(name).exists(), "missing {name}");
        }
        // The manifest replays to the same digest.
        let manifest = dir.join("manifest.json");
        let replayed = cli(&["report", "--manifest", manifest.to_str().unwrap()]).unwrap();
        assert!(replayed.contains("replay OK"), "{replayed}");
        // Tampering with the digest is caught.
        let tampered = std::fs::read_to_string(&manifest)
            .unwrap()
            .replace("fnv1a:", "fnv1a:f");
        std::fs::write(&manifest, tampered).unwrap();
        let err = cli(&["report", "--manifest", manifest.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("replay MISMATCH"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_builds_digest_verified_artifacts() {
        let dir = std::env::temp_dir().join(format!("acorr-cli-analyze-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        cli(&[
            "run",
            "--app",
            "SOR",
            "--threads",
            "8",
            "--nodes",
            "2",
            "--iters",
            "3",
            "--strategy",
            "stretch",
            "--obs-dir",
            dir.to_str().unwrap(),
        ])
        .unwrap();
        let out = cli(&["analyze", "--obs-dir", dir.to_str().unwrap(), "--top", "5"]).unwrap();
        assert!(out.contains("stats digest: fnv1a:"), "{out}");
        assert!(out.contains("phase shift(s)"), "{out}");
        for name in [
            "page_heat.csv",
            "thread_comm.csv",
            "critical_path.csv",
            "spans.csv",
            "phases.csv",
            "report.txt",
        ] {
            assert!(dir.join("analysis").join(name).exists(), "missing {name}");
        }
        // The report's digest line matches the manifest's digest.
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        let report = std::fs::read_to_string(dir.join("analysis/report.txt")).unwrap();
        let digest_line = report
            .lines()
            .find(|l| l.starts_with("stats digest: "))
            .unwrap();
        let digest = digest_line.trim_start_matches("stats digest: ");
        assert!(manifest.contains(digest), "{digest_line} not in manifest");
        // Spans were captured and decomposed.
        assert!(report.contains("span totals:"), "{report}");
        assert!(report.contains("fetch"), "{report}");
        // The analysis is byte-identical when re-run (and at --jobs 1).
        let first: std::collections::BTreeMap<String, String> = [
            "page_heat.csv",
            "critical_path.csv",
            "spans.csv",
            "report.txt",
        ]
        .iter()
        .map(|n| {
            let body = std::fs::read_to_string(dir.join("analysis").join(n)).unwrap();
            (n.to_string(), body)
        })
        .collect();
        cli(&[
            "analyze",
            "--obs-dir",
            dir.to_str().unwrap(),
            "--top",
            "5",
            "--jobs",
            "1",
        ])
        .unwrap();
        for (name, body) in &first {
            let again = std::fs::read_to_string(dir.join("analysis").join(name)).unwrap();
            assert_eq!(&again, body, "{name} drifted across runs");
        }
        // An edited log still replays its manifest: a thread the run does
        // not have is an error naming the line, and diff bytes saturate.
        let events = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
        let line = events.lines().count() + 1;
        let analyze_with = |extra: &str| {
            std::fs::write(dir.join("events.jsonl"), format!("{events}{extra}\n")).unwrap();
            cli(&["analyze", "--obs-dir", dir.to_str().unwrap()])
        };
        for thread in ["3000000", "18446744073709551615"] {
            let err = analyze_with(&format!(
                r#"{{"type":"correlation_fault","node":0,"thread":{thread},"page":4000000000}}"#
            ))
            .unwrap_err();
            assert!(
                err.contains(&format!("line {line}: thread {thread} ")),
                "{err}"
            );
        }
        analyze_with(concat!(
            r#"{"type":"diff_created","node":0,"page":7,"bytes":18446744073709551615}"#,
            "\n",
            r#"{"type":"diff_created","node":0,"page":7,"bytes":2}"#
        ))
        .unwrap();
        let heat = std::fs::read_to_string(dir.join("analysis/page_heat.csv")).unwrap();
        let page7 = heat.lines().find(|l| l.starts_with("7,")).unwrap();
        assert_eq!(page7.split(',').nth(4), Some("18446744073709551615"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_refuses_a_tampered_manifest() {
        let dir =
            std::env::temp_dir().join(format!("acorr-cli-anal-tamper-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        cli(&[
            "run",
            "--app",
            "Water",
            "--threads",
            "8",
            "--nodes",
            "2",
            "--iters",
            "2",
            "--strategy",
            "stretch",
            "--obs-dir",
            dir.to_str().unwrap(),
        ])
        .unwrap();
        let manifest = dir.join("manifest.json");
        let tampered = std::fs::read_to_string(&manifest)
            .unwrap()
            .replace("fnv1a:", "fnv1a:f");
        std::fs::write(&manifest, tampered).unwrap();
        let err = cli(&["analyze", "--obs-dir", dir.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("replay MISMATCH"), "{err}");
        assert!(!dir.join("analysis").exists(), "must not write on mismatch");
        let err = cli(&["analyze"]).unwrap_err();
        assert!(err.contains("--obs-dir"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_rejects_missing_and_malformed_manifests() {
        let err = cli(&["report"]).unwrap_err();
        assert!(err.contains("--manifest"));
        let dir = std::env::temp_dir().join(format!("acorr-cli-badman-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("manifest.json");
        std::fs::write(&bad, "{not json").unwrap();
        let err = cli(&["report", "--manifest", bad.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_spec_errors_are_uniform_across_commands() {
        for cmd in ["run", "verify", "overhead"] {
            let err = cli(&[
                cmd,
                "--app",
                "SOR",
                "--threads",
                "8",
                "--nodes",
                "2",
                "--faults",
                "bogus",
            ])
            .unwrap_err();
            assert!(err.starts_with("fault spec error:"), "{cmd}: {err}");
        }
    }

    #[test]
    fn explore_is_case_insensitive_and_reports_clean_apps() {
        let out = cli(&[
            "explore",
            "--app",
            "drift",
            "--threads",
            "8",
            "--nodes",
            "2",
            "--budget",
            "2",
        ])
        .unwrap();
        assert!(out.contains("Drift: 2 schedule(s)"), "{out}");
        assert!(out.contains("no new races, no divergences"), "{out}");
    }

    #[test]
    fn explore_finds_and_replays_the_seeded_race() {
        let err = cli(&[
            "explore",
            "--app",
            "racey",
            "--mode",
            "systematic",
            "--budget",
            "8",
        ])
        .unwrap_err();
        assert!(err.contains("FAILED"), "{err}");
        assert!(err.contains("s1:1"), "{err}");
        assert!(err.contains("write-write race"), "{err}");
        // The printed token replays the identical counterexample, and the
        // decision log names the replay, which searches nothing.
        let dir = std::env::temp_dir().join(format!("acorr-cli-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("decisions.log");
        let replayed = cli(&[
            "explore",
            "--app",
            "Racey",
            "--replay",
            "s1:1",
            "--decision-log",
            log.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(replayed.contains("FAILED"), "{replayed}");
        assert!(replayed.contains("s1:1"), "{replayed}");
        let artifact = std::fs::read_to_string(&log).unwrap();
        assert!(artifact.contains("\nmode=replay\n"), "{artifact}");
        assert!(artifact.contains("\nfailure_token=s1:1\n"), "{artifact}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explore_rejects_bad_modes_and_tokens() {
        let err = cli(&["explore", "--app", "SOR", "--mode", "magic"]).unwrap_err();
        assert!(err.contains("magic"), "{err}");
        let err = cli(&["explore", "--app", "SOR", "--replay", "v2:9"]).unwrap_err();
        assert!(err.contains("v2:9"), "{err}");
        let err = cli(&["explore", "--app", "SOR", "--inject", "gremlins"]).unwrap_err();
        assert!(err.contains("gremlins"), "{err}");
    }

    #[test]
    fn explore_rejects_search_flags_its_mode_does_not_read() {
        for (args, expected) in [
            (
                &["--faults", "3"][..],
                "--faults does not apply with random mode",
            ),
            (
                &["--preemptions", "4"],
                "--preemptions does not apply with random mode",
            ),
            (
                &["--mode", "systematic", "--seed", "9"],
                "--seed does not apply with systematic mode",
            ),
            (
                &["--mode", "systematic", "--faults", "1"],
                "--faults does not apply with systematic mode",
            ),
            (
                &["--mode", "model-check", "--seed", "9"],
                "--seed does not apply with model-check mode",
            ),
            (
                &["--replay", "s1:1", "--mode", "random"],
                "--mode does not apply with --replay",
            ),
            (
                &["--replay", "s1:1", "--budget", "3"],
                "--budget does not apply with --replay",
            ),
            (
                &["--replay", "s1", "--seed", "9"],
                "--seed does not apply with --replay",
            ),
        ] {
            let argv: Vec<&str> = ["explore", "--app", "SOR"]
                .iter()
                .chain(args)
                .copied()
                .collect();
            assert_eq!(cli(&argv).unwrap_err(), expected, "{args:?}");
        }
    }

    #[test]
    fn explore_model_check_sweeps_clean_and_writes_decision_log() {
        let dir = std::env::temp_dir().join(format!("acorr-cli-mc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("decisions.log");
        let out = cli(&[
            "explore",
            "--app",
            "drift",
            "--threads",
            "8",
            "--nodes",
            "2",
            "--mode",
            "model-check",
            "--budget",
            "4",
            "--decision-log",
            log.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("no new races, no divergences"), "{out}");
        assert!(out.contains("distinct states:"), "{out}");
        let artifact = std::fs::read_to_string(&log).unwrap();
        assert!(artifact.contains("mode=model-check"), "{artifact}");
        assert!(artifact.contains("failure_token=none"), "{artifact}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explore_model_check_finds_the_injected_partition_bug() {
        let err = cli(&[
            "explore",
            "--app",
            "drift",
            "--threads",
            "8",
            "--nodes",
            "2",
            "--mode",
            "model-check",
            "--budget",
            "8",
            "--inject",
            "lose-partitioned-invalidations",
        ])
        .unwrap_err();
        assert!(err.contains("FAILED"), "{err}");
        assert!(err.contains("s1!1"), "{err}");
        // The printed token replays the identical counterexample, fault
        // section included.
        let replayed = cli(&[
            "explore",
            "--app",
            "drift",
            "--threads",
            "8",
            "--nodes",
            "2",
            "--replay",
            "s1!1",
            "--inject",
            "lose-partitioned-invalidations",
        ])
        .unwrap_err();
        assert!(replayed.contains("FAILED"), "{replayed}");
        assert!(replayed.contains("s1!1"), "{replayed}");
    }

    #[test]
    fn verify_crash_sugar_survives_and_rejects_bad_probabilities() {
        let out = cli(&[
            "verify",
            "--app",
            "SOR",
            "--threads",
            "8",
            "--nodes",
            "2",
            "--crash",
            "1.0",
        ])
        .unwrap();
        assert!(out.contains("conformance OK"), "{out}");
        let err = cli(&[
            "verify",
            "--app",
            "SOR",
            "--threads",
            "8",
            "--nodes",
            "2",
            "--crash",
            "7",
        ])
        .unwrap_err();
        assert!(err.contains("probability"), "{err}");
    }

    #[test]
    fn unknown_command_shows_usage() {
        let err = cli(&["frobnicate"]).unwrap_err();
        assert!(err.contains("USAGE"));
        assert!(cli(&["help"]).unwrap().contains("USAGE"));
    }

    #[test]
    fn bad_strategy_is_reported() {
        let err = cli(&[
            "place",
            "--app",
            "SOR",
            "--threads",
            "8",
            "--nodes",
            "2",
            "--strategy",
            "magic",
        ])
        .unwrap_err();
        assert!(err.contains("unknown strategy `magic`"), "{err}");
    }

    #[test]
    fn thread_counts_an_app_cannot_take_are_errors() {
        let commands = [
            "track", "profile", "place", "run", "hot", "overhead", "verify", "serve", "explore",
        ];
        for command in commands {
            let err = cli(&[command, "--app", "Water", "--threads", "0"]).unwrap_err();
            assert!(err.contains("at least 1 thread"), "{command}: {err}");
            let err = cli(&[command, "--app", "Water", "--threads", "600"]).unwrap_err();
            assert!(err.contains("at most 512 threads"), "{command}: {err}");
        }
        for (app, max) in [("SOR", 2048), ("Barnes", 8192), ("Spatial", 512)] {
            let over = (max + 1).to_string();
            let err = cli(&["track", "--app", app, "--threads", &over]).unwrap_err();
            assert!(
                err.contains(&format!("at most {max} threads")),
                "{app}: {err}"
            );
        }
        let err = cli(&["run", "--app", "Drift", "--threads", "0"]).unwrap_err();
        assert!(err.contains("at least 1 thread"), "{err}");
    }

    #[test]
    fn drift_is_available_to_the_cli() {
        let out = cli(&[
            "run",
            "--app",
            "Drift",
            "--threads",
            "8",
            "--nodes",
            "2",
            "--iters",
            "2",
        ])
        .unwrap();
        assert!(out.contains("Drift"), "{out}");
    }

    #[test]
    fn serve_reports_the_window_that_ran() {
        let out = cli(&["serve", "--scenario", "churn", "--window", "0"]).unwrap();
        assert!(
            out.starts_with("serve churn: policy greedy, 48 step(s), window 1\n"),
            "{out}"
        );
    }
}
