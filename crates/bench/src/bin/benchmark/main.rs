//! One benchmark for the three acorr pipelines: four named workloads, the
//! end-to-end metrics a user sees, and a traced run that splits the time
//! by layer. See `README.md` beside this file.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! benchmark --all [--seed N] [--seconds S] [--trace 0|1]
//! benchmark --compare A1[,A2,…] B1[,B2,…]
//! ```
//!
//! A run prints its metrics by name with their units, a `result {...}`
//! line with the host context and per-unit samples, and as its last line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` holding the
//! metrics `BENCHMARK.json` declares: the end-to-end ones, or with
//! `--trace 1` the per-layer ones. `--all` runs every workload in its own
//! child process. `--compare` checks the saved outputs of repeated runs of
//! B against those of A, metric by metric, against the bounds.

mod runner;
mod stats;
mod trace;
mod workloads;

use acorr::obs::json::{self, Obj, Value};
use runner::{Report, RunConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// The benchmark's declaration: workloads, metrics, units, bounds and the
/// measuring time used when `--seconds` is not given.
const SPEC_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug)]
struct MetricSpec {
    name: String,
    unit: String,
    lower_is_better: bool,
    /// Share of the baseline median by which it may worsen (end-to-end only).
    bound: Option<f64>,
}

#[derive(Debug)]
struct Spec {
    run_seconds: f64,
    workloads: Vec<String>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

fn spec() -> Result<Spec, String> {
    let doc = json::parse(SPEC_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<&[Value], String> {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        list(key)?
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .map(str::to_owned)
                        .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry lacks `{f}`"))
                };
                Ok(MetricSpec {
                    name: field("name")?,
                    unit: field("unit")?,
                    lower_is_better: field("better")? == "lower",
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    let spec = Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: `run_seconds` is not a number")?,
        workloads: list("workloads")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_owned))
            .collect(),
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    };
    if spec.workloads != workloads::NAMES {
        return Err("BENCHMARK.json names other workloads than this program runs".into());
    }
    let mut names = spec
        .end_to_end
        .iter()
        .chain(&spec.per_layer)
        .map(|m| &m.name);
    if let Some(bad) = names.find(|n| !stats::valid_name(n)) {
        return Err(format!(
            "BENCHMARK.json: `{bad}` is not a valid metric name"
        ));
    }
    Ok(spec)
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    compare: Option<(Vec<String>, Vec<String>)>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                args.seed = Some(v.parse().map_err(|_| format!("bad --seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value("a number")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {v} is outside 0..=3600"));
                }
                args.seconds = Some(s);
            }
            "--compare" => {
                let files = |list: String| list.split(',').map(str::to_owned).collect();
                let a = value("two lists of result files")?;
                let b = value("two lists of result files")?;
                args.compare = Some((files(a), files(b)));
            }
            "--all" => args.all = true,
            // `--trace` alone, or with an explicit 0 or 1.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some(v @ ("0" | "1")) => {
                    args.trace = v == "1";
                    it.next();
                }
                _ => args.trace = true,
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let code = match cli(&raw) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn cli(raw: &[String]) -> Result<i32, String> {
    let args = parse_args(raw)?;
    let spec = spec()?;
    if let Some((a, b)) = &args.compare {
        return compare(&spec, a, b);
    }
    let config = |workload: &str| RunConfig {
        workload: workload.to_owned(),
        seed: args.seed.unwrap_or(workloads::DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(spec.run_seconds),
        trace: args.trace,
    };
    if args.all {
        return run_all(&config(""));
    }
    let name = args
        .workload
        .ok_or("give --workload <name>, --all or --compare A B")?;
    let workload = workloads::by_name(&name).ok_or_else(|| {
        format!(
            "unknown workload `{name}` (one of {})",
            workloads::NAMES.join(", ")
        )
    })?;
    let config = config(&name);
    let mut report = runner::run(&workload, &config)?;
    if let Some(tracer) = &report.tracer {
        let note = write_trace(&config, tracer);
        report.notes.push(note);
    }
    for line in render(&config, &report, &spec)? {
        println!("{line}");
    }
    Ok(0)
}

/// Writes the spans as Chrome trace JSON under the build directory and
/// says where.
fn write_trace(config: &RunConfig, tracer: &trace::Tracer) -> String {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark");
    let path = dir.join(format!(
        "{}-seed{}.trace.json",
        config.workload, config.seed
    ));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.chrome_json(&config.workload)));
    match written {
        Ok(()) => format!("trace written to {}", path.display()),
        Err(e) => format!("trace not written to {}: {e}", path.display()),
    }
}

fn git_describe() -> String {
    // Only in a git checkout: elsewhere git would search parent directories.
    if std::path::Path::new(".git").exists() {
        acorr::obs::git_describe()
    } else {
        "none".to_owned()
    }
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", items.join(","))
}

/// Everything a run prints, last line being the declared metrics as JSON.
fn render(config: &RunConfig, report: &Report, spec: &Spec) -> Result<Vec<String>, String> {
    let jobs = workloads::JOBS;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let git = git_describe();
    let m = &report.metrics;
    let mut out = vec![format!(
        "# {}: seed {}, jobs {jobs}, nproc {nproc}, git {git}, seconds {}, trace {}",
        config.workload,
        config.seed,
        config.seconds,
        u8::from(config.trace)
    )];
    let (p25, p50, p75) = stats::quartiles(&report.run_s);
    out.push(format!(
        "setup_s     {:.4} s    median of {} set-ups (input build + cold unit)",
        m["setup_s"],
        report.setup_s.len()
    ));
    out.push(format!(
        "run_s       {p50:.4} s    p25 {p25:.4}  p75 {p75:.4}  N {}",
        report.run_s.len()
    ));
    out.push(format!("peak_rss_mb {:.1} MiB", m["peak_rss_mb"]));
    out.push(format!("cut_ratio   {:.6}", m["cut_ratio"]));
    let pinned = report
        .pinned
        .map_or("n/a (nothing pinned for this seed)".to_owned(), |p| {
            p.to_string()
        });
    out.push(format!(
        "units: attempted {}, failed {}, digest {}, digest_pinned={pinned}",
        report.attempted, report.failed, report.digest
    ));
    out.extend(report.notes.iter().map(|n| format!("note: {n}")));
    if report.tracer.is_some() {
        out.extend(layer_table(m));
        if !report.replica_match {
            out.push("STALE: the traced copy diverged from the public call; per-layer numbers are not valid".to_owned());
        }
    }

    let mut samples = Obj::new();
    samples
        .raw("setup_s", &json_list(&report.setup_s))
        .raw("run_s", &json_list(&report.run_s));
    if config.trace {
        samples.raw("traced_run_s", &json_list(&report.traced_run_s));
    }
    let mut all = Obj::new();
    for (name, v) in m {
        all.f64(name, *v);
    }
    let mut result = Obj::new();
    result
        .str("workload", &config.workload)
        .u64("seed", config.seed)
        .f64("seconds", config.seconds)
        .bool("trace", config.trace)
        .u64("jobs", jobs as u64)
        .u64("nproc", nproc as u64)
        .str("git", &git)
        .u64("setups", report.setup_s.len() as u64)
        .u64("n", report.run_s.len() as u64)
        .raw("samples", &samples.finish())
        .str("digest", &report.digest)
        .raw(
            "digest_pinned",
            &report.pinned.map_or("null".to_owned(), |p| p.to_string()),
        )
        .u64("attempted", report.attempted)
        .u64("failed", report.failed)
        .raw("metrics", &all.finish());
    out.push(format!("result {}", result.finish()));

    let declared = if config.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut metrics = Obj::new();
    for d in declared {
        let v = m
            .get(&d.name)
            .ok_or_else(|| format!("declared metric `{}` was not measured", d.name))?;
        let mut entry = Obj::new();
        entry.f64("value", *v).str("unit", &d.unit);
        metrics.raw(&d.name, &entry.finish());
    }
    let mut last = Obj::new();
    last.bool("correct", report.failed == 0 && report.replica_match)
        .u64("attempted", report.attempted)
        .u64("failed", report.failed)
        .raw("metrics", &metrics.finish());
    out.push(last.finish());
    Ok(out)
}

/// The traced run's layers, largest self share first.
fn layer_table(m: &BTreeMap<String, f64>) -> Vec<String> {
    let mut rows: Vec<(&str, f64, f64)> = runner::LAYERS
        .iter()
        .map(|l| (*l, m[&format!("{l}_ms")], m[&format!("{l}.share")]))
        .filter(|(_, ms, _)| *ms > 0.0)
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(b.0)));
    let mut out = vec![format!(
        "{:<18} {:>12} {:>10}",
        "layer", "ms/unit", "self share"
    )];
    out.extend(
        rows.iter()
            .map(|(l, ms, share)| format!("{l:<18} {ms:>12.3} {:>9.1}%", share * 100.0)),
    );
    for (k, v) in m {
        let timed = runner::LAYERS
            .iter()
            .any(|l| k == &format!("{l}_ms") || k == &format!("{l}.share"));
        if !timed
            && !matches!(
                k.as_str(),
                "setup_s" | "run_s" | "peak_rss_mb" | "cut_ratio"
            )
        {
            out.push(format!("{k} = {v}"));
        }
    }
    out
}

/// Runs every workload in its own child process, so each one's peak
/// memory is its own.
fn run_all(config: &RunConfig) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for name in workloads::NAMES {
        let output = Command::new(&exe)
            .args(["--workload", name, "--seed", &config.seed.to_string()])
            .args(["--seconds", &config.seconds.to_string()])
            .args(["--trace", if config.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{name}: cannot start: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        if !output.status.success() {
            return Err(format!("{name} exited with {}", output.status));
        }
        let last = stdout.lines().last().unwrap_or_default();
        let doc = json::parse(last).map_err(|e| format!("{name}: bad last line: {e}"))?;
        correct &= doc.get("correct") == Some(&Value::Bool(true));
        attempted += doc.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        failed += doc.get("failed").and_then(Value::as_u64).unwrap_or(0);
    }
    let mut summary = Obj::new();
    summary
        .bool("correct", correct)
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw(
            "workloads",
            &format!("[\"{}\"]", workloads::NAMES.join("\",\"")),
        );
    println!("{}", summary.finish());
    Ok(0)
}

/// Fewest runs on each side from which `--compare` takes a spread. With
/// fewer, the quartiles are little more than the smallest and largest run.
const MIN_RUNS: usize = 5;

/// The `result` records of saved outputs (single workloads or `--all`),
/// grouped by workload: one record per run.
fn load_runs(paths: &[String]) -> Result<BTreeMap<String, Vec<Value>>, String> {
    let mut runs = BTreeMap::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        add_runs(&text, &mut runs).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(runs)
}

/// Adds the `result` records of one saved output to `runs`.
fn add_runs(text: &str, runs: &mut BTreeMap<String, Vec<Value>>) -> Result<(), String> {
    let mut found = false;
    for body in text.lines().filter_map(|l| l.strip_prefix("result ")) {
        let doc = json::parse(body).map_err(|e| e.to_string())?;
        let name = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("a result without a workload")?
            .to_owned();
        runs.entry(name).or_default().push(doc);
        found = true;
    }
    if found {
        Ok(())
    } else {
        Err("no `result` lines".into())
    }
}

/// Each run's value of `metric`.
fn per_run(runs: &[Value], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

/// The verdict on one metric of one workload, B measured against A.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, or B is worse by more
    /// than the bound but too few runs were given to tell that from noise.
    Unresolved,
}

/// Compares the per-run values of one metric. The spread is the larger
/// side's interquartile range over median across runs, and is only taken
/// from [`MIN_RUNS`] runs a side or more.
fn assess(metric: &MetricSpec, a: &[f64], b: &[f64]) -> (Verdict, f64, Option<f64>) {
    let bound = metric.bound.unwrap_or(0.0);
    let (ma, mb) = (stats::median(a), stats::median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse = if metric.lower_is_better {
        change
    } else {
        -change
    };
    let spread = (a.len() >= MIN_RUNS && b.len() >= MIN_RUNS)
        .then(|| stats::spread(a).max(stats::spread(b)));
    // Every run of B better than every run of A needs no spread to call.
    let better = |x: f64, y: f64| if metric.lower_is_better { x < y } else { x > y };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let verdict = match spread {
        Some(s) if s > bound && !all_better => Verdict::Unresolved,
        _ if worse <= bound => Verdict::Ok,
        Some(_) => Verdict::Regressed,
        None => Verdict::Unresolved,
    };
    (verdict, change, spread)
}

/// Checks the runs in B against the runs in A metric by metric; exits 1
/// unless every pair is ok.
fn compare(spec: &Spec, a_paths: &[String], b_paths: &[String]) -> Result<i32, String> {
    let (a, b) = (load_runs(a_paths)?, load_runs(b_paths)?);
    let mut all_ok = true;
    let mut compared = 0;
    println!(
        "{:<18} {:<12} {:>5} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "runs", "A median", "B median", "change", "spread", "bound"
    );
    for (workload, ra) in &a {
        let Some(rb) = b.get(workload) else {
            println!("{workload}: missing from B");
            all_ok = false;
            continue;
        };
        for metric in &spec.end_to_end {
            let (sa, sb) = (per_run(ra, &metric.name), per_run(rb, &metric.name));
            if sa.is_empty() || sb.is_empty() {
                println!("{workload:<18} {:<12} missing", metric.name);
                all_ok = false;
                continue;
            }
            let (verdict, change, spread) = assess(metric, &sa, &sb);
            all_ok &= verdict == Verdict::Ok;
            compared += 1;
            println!(
                "{workload:<18} {:<12} {:>5} {:>12.6} {:>12.6} {:>+7.2}% {:>8} {:>6.2}%  {}",
                metric.name,
                format!("{}/{}", sa.len(), sb.len()),
                stats::median(&sa),
                stats::median(&sb),
                change * 100.0,
                spread.map_or("n/a".to_owned(), |s| format!("{:.2}%", s * 100.0)),
                metric.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!(
        "{compared} pairs compared: {}",
        if all_ok { "all ok" } else { "NOT all ok" }
    );
    Ok(if all_ok { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Paper, Scale, Serve, Workload};
    use acorr::sim::Scenario;

    #[test]
    fn spec_is_well_formed_and_matches_the_workloads() {
        let spec = spec().expect("BENCHMARK.json parses");
        assert_eq!(spec.workloads, workloads::NAMES.to_vec());
        let mut names = std::collections::BTreeSet::new();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(stats::valid_name(&m.name), "{}", m.name);
            assert!(names.insert(m.name.clone()), "{} declared twice", m.name);
        }
        for w in &spec.workloads {
            assert!(stats::valid_name(w), "{w}");
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
    }

    fn smoke(workload: Workload, name: &str) {
        let spec = spec().unwrap();
        for trace in [false, true] {
            let config = RunConfig {
                workload: name.to_owned(),
                seed: 7,
                seconds: 0.0,
                trace,
            };
            let report = runner::run(&workload, &config).expect("toy run");
            assert_eq!(report.failed, 0, "{name}: {:?}", report.notes);
            assert!(report.replica_match, "{name}: traced copy diverged");
            let lines = render(&config, &report, &spec).expect("every declared metric");
            let last = json::parse(lines.last().unwrap()).unwrap();
            assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
            let declared = if trace {
                &spec.per_layer
            } else {
                &spec.end_to_end
            };
            let printed = last.get("metrics").unwrap();
            for m in declared {
                let entry = printed
                    .get(&m.name)
                    .unwrap_or_else(|| panic!("{} missing", m.name));
                assert_eq!(
                    entry.get("unit").and_then(Value::as_str),
                    Some(m.unit.as_str())
                );
            }
            if let Some(tracer) = &report.tracer {
                for span in tracer.spans() {
                    assert!(
                        span.name == trace::UNIT || runner::LAYERS.contains(&span.name),
                        "span {} is not a reported layer",
                        span.name
                    );
                }
                assert!(report.metrics["trace.coverage"] > 0.5, "{name}");
            }
        }
    }

    #[test]
    fn paper_pipeline_smoke() {
        smoke(Workload::Paper(Paper::toy()), "paper-toy");
    }

    #[test]
    fn scale_pipeline_smoke() {
        let scale = Scale {
            threads: 10_000,
            nodes: 64,
            degree: 8,
            pin: None,
        };
        smoke(Workload::Scale(scale), "scale-toy");
    }

    #[test]
    fn serve_pipeline_smoke() {
        for scenario in [Scenario::Churn, Scenario::Static] {
            let serve = Serve {
                threads: 64,
                nodes: 8,
                scenario,
                steps: 48,
                pin: None,
            };
            smoke(Workload::Serve(serve), "serve-toy");
        }
    }

    #[test]
    fn compare_flags_regressions_and_wide_spreads() {
        let metric = MetricSpec {
            name: "run_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound: Some(0.1),
        };
        // Per-run values, one per saved run.
        let base = [1.0, 1.01, 0.99, 1.0, 1.02];
        let slower = [1.3, 1.31, 1.29, 1.3, 1.32];
        assert_eq!(
            assess(&metric, &base, &[1.05, 1.04, 1.06, 1.05, 1.03]).0,
            Verdict::Ok
        );
        assert_eq!(assess(&metric, &base, &slower).0, Verdict::Regressed);
        assert_eq!(
            assess(&metric, &base, &[0.5, 0.7, 1.0, 1.3, 1.5]).0,
            Verdict::Unresolved
        );
        // A wide spread, but every run of B beats every run of A.
        assert_eq!(
            assess(
                &metric,
                &[1.0, 1.5, 2.0, 2.5, 3.0],
                &[0.1, 0.2, 0.4, 0.6, 0.9]
            )
            .0,
            Verdict::Ok
        );
        // Too few runs a side: no spread, so a large change cannot be called.
        let (verdict, _, spread) = assess(&metric, &base[..3], &slower[..3]);
        assert_eq!((verdict, spread), (Verdict::Unresolved, None));
        assert_eq!(assess(&metric, &[1.0], &[1.05]).0, Verdict::Ok);
        let higher = MetricSpec {
            lower_is_better: false,
            ..metric
        };
        assert_eq!(assess(&higher, &base, &slower).0, Verdict::Ok);
    }

    #[test]
    fn compare_reads_one_value_per_run_from_result_lines() {
        let mut runs = BTreeMap::new();
        for run_s in [2.0, 2.1, 1.9] {
            let text = format!(
                "run_s {run_s} s\nresult {{\"workload\":\"w\",\"metrics\":{{\"run_s\":{run_s}}}}}\n{{}}\n"
            );
            add_runs(&text, &mut runs).unwrap();
        }
        assert_eq!(per_run(&runs["w"], "run_s"), vec![2.0, 2.1, 1.9]);
        assert!(per_run(&runs["w"], "setup_s").is_empty());
        assert!(add_runs("{}\n", &mut runs).is_err());
    }

    #[test]
    fn arguments_parse_in_the_benchmark_json_form() {
        let raw: Vec<String> = [
            "--workload",
            "scale-1m",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let args = parse_args(&raw).unwrap();
        assert_eq!(args.workload.as_deref(), Some("scale-1m"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (Some(3), Some(10.0), true)
        );
        assert!(parse_args(&["--trace".to_string()]).unwrap().trace);
        let raw = ["--compare", "a1.txt,a2.txt", "b1.txt"].map(String::from);
        assert_eq!(
            parse_args(&raw).unwrap().compare,
            Some((
                vec!["a1.txt".to_string(), "a2.txt".to_string()],
                vec!["b1.txt".to_string()]
            ))
        );
        assert!(parse_args(&["--bogus".to_string()]).is_err());
        assert!(parse_args(&["--seed".to_string(), "x".to_string()]).is_err());
    }
}
