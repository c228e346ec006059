//! Drives one workload: set-up, untraced measured units, and in a traced
//! run the traced copies, then turns what it saw into metrics.
//!
//! Load: one process, one driving thread, one closed-loop client (the next
//! unit starts when the previous one returns); the program's own worker
//! pools get [`JOBS`](crate::workloads::JOBS) workers.

use crate::stats::{median, tail};
use crate::trace::{durations_ms, layer_times, Tracer, UNIT};
use crate::workloads::{Outcome, Pipeline, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups in an untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Fewest measured units in any timed phase, so quartiles exist.
pub const MIN_UNITS: usize = 3;

/// Span names the traced copies record, each reported as `<name>_ms` and
/// `<name>.share`.
pub const LAYERS: [&str; 17] = [
    "dsm.new",
    "dsm.run",
    "dsm.tracked",
    "dsm.migrate",
    "track.from_access",
    "track.aging",
    "track.ingest",
    "track.cut",
    "place.min_cost",
    "place.synth",
    "place.multilevel",
    "place.plan",
    "place.gate",
    "obs.detect",
    "sim.traffic",
    "serve.step",
    "serve.decide",
];

/// Counts the traced copies record, reported per unit.
pub const COUNTS: [&str; 13] = [
    "dsm.iterations",
    "dsm.remote_misses",
    "dsm.tracking_faults",
    "dsm.diffs_created",
    "dsm.migrated_threads",
    "track.edges",
    "track.edges_per_step",
    "place.cut",
    "place.stretch_cut",
    "obs.windows",
    "obs.shifts",
    "serve.moved_threads",
    "serve.accept_ratio",
];

/// What to run.
#[derive(Debug)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Seed every input is made from.
    pub seed: u64,
    /// Measuring time of the run.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Untraced unit times, seconds.
    pub run_s: Vec<f64>,
    /// Traced unit times, seconds (traced runs only).
    pub traced_run_s: Vec<f64>,
    /// Units attempted, set-up and traced units included.
    pub attempted: u64,
    /// Units that returned an error or failed a check.
    pub failed: u64,
    /// Digest of the first unit's output.
    pub digest: String,
    /// Whether every unit matched the pinned digests (`None`: no pin).
    pub pinned: Option<bool>,
    /// Whether every traced copy reproduced the public call's output.
    pub replica_match: bool,
    /// Every metric, end-to-end and per-layer, by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable notes (tail percentiles, failures).
    pub notes: Vec<String>,
    /// The tracer, for the Chrome trace file (traced runs only).
    pub tracer: Option<Tracer>,
}

impl Report {
    fn record(&mut self, outcome: Result<Outcome, String>) -> Option<Outcome> {
        self.attempted += 1;
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                self.failed += 1;
                self.notes
                    .push(format!("unit {} failed: {e}", self.attempted));
                return None;
            }
        };
        if self.digest.is_empty() {
            self.digest = outcome.digest.clone();
        }
        let problem = outcome.problem.clone().or_else(|| {
            (outcome.digest != self.digest).then(|| {
                format!(
                    "digest {} differs from the first unit's {}",
                    outcome.digest, self.digest
                )
            })
        });
        if let Some(p) = problem {
            self.failed += 1;
            self.notes
                .push(format!("unit {} failed its check: {p}", self.attempted));
        }
        self.pinned = match (self.pinned, outcome.pinned) {
            (Some(a), Some(b)) => Some(a && b),
            (a, b) => a.or(b),
        };
        Some(outcome)
    }
}

/// Runs `config` on the named workload.
pub fn run(workload: &Workload, config: &RunConfig) -> Result<Report, String> {
    match workload {
        Workload::Paper(p) => drive(p, config),
        Workload::Scale(p) => drive(p, config),
        Workload::Serve(p) => drive(p, config),
    }
}

/// Runs at least [`MIN_UNITS`] units, then more while one of median length
/// still ends within `budget`; returns each unit's wall time in seconds.
fn timed_units(budget: Duration, mut unit: impl FnMut() -> Duration) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_UNITS
        || start.elapsed().as_secs_f64() + median(&times) <= budget.as_secs_f64()
    {
        times.push(unit().as_secs_f64());
    }
    times
}

fn drive<P: Pipeline>(p: &P, config: &RunConfig) -> Result<Report, String> {
    let mut report = Report {
        replica_match: true,
        ..Report::default()
    };
    let mut tracer = Tracer::new();
    let mut input = None;
    let mut quality = None;
    for _ in 0..if config.trace { 1 } else { SETUPS } {
        // Free the previous input first, so peak memory holds one.
        drop(input.take());
        let start = Instant::now();
        let built = p.build(config.seed, &mut tracer)?;
        let output = p.unit(&built);
        report.setup_s.push(start.elapsed().as_secs_f64());
        let outcome = report.record(output.map(|o| p.judge(&built, &o)));
        quality = quality.or(outcome.map(|o| (o.cut, o.stretch_cut)));
        input = Some(built);
    }
    let input = input.expect("at least one set-up ran");
    let budget = Duration::from_secs_f64(config.seconds);
    // A traced run spends its budget on traced units; the fewest untraced
    // ones serve only as the baseline of `trace.overhead_frac`.
    let untraced_budget = if config.trace { Duration::ZERO } else { budget };
    let run_s = timed_units(untraced_budget, || {
        let start = Instant::now();
        let output = p.unit(&input);
        let elapsed = start.elapsed();
        report.record(output.map(|o| p.judge(&input, &o)));
        elapsed
    });
    report.run_s = run_s;

    let (cut, stretch_cut) = quality.unwrap_or((0, 0));
    let e2e = &mut report.metrics;
    e2e.insert("setup_s".into(), median(&report.setup_s));
    e2e.insert("run_s".into(), median(&report.run_s));
    e2e.insert("cut_ratio".into(), cut as f64 / stretch_cut.max(1) as f64);

    if config.trace {
        let mut unit_id = 0;
        let reference = report.digest.clone();
        let traced_run_s = timed_units(budget, || {
            unit_id += 1;
            tracer.set_unit(unit_id);
            let start = Instant::now();
            let output = tracer.span(UNIT, |t| p.traced_unit(&input, t));
            let elapsed = start.elapsed();
            let outcome = report.record(output.map(|o| p.judge(&input, &o)));
            if outcome.is_none_or(|o| o.digest != reference) {
                report.replica_match = false;
            }
            elapsed
        });
        report.traced_run_s = traced_run_s;
        let layers = layer_metrics(&tracer, &mut report);
        report.metrics.extend(layers);
        report.tracer = Some(tracer);
    }
    report
        .metrics
        .insert("peak_rss_mb".into(), peak_rss_mb().unwrap_or(0.0));
    Ok(report)
}

/// Per-layer metrics from the traced units (ids 1..) and, for layers that
/// only run during set-up, from set-up (id 0).
fn layer_metrics(tracer: &Tracer, report: &mut Report) -> BTreeMap<String, f64> {
    let spans = tracer.spans();
    let measured = |u: u32| u > 0;
    let run = layer_times(spans, measured);
    let setup = layer_times(spans, |u| u == 0);
    let units = report.traced_run_s.len() as f64;
    let root = run.get(UNIT).copied().unwrap_or_default();
    let mut m = BTreeMap::new();
    for layer in LAYERS {
        let (ms, share) = match run.get(layer) {
            Some(l) => (
                l.total_ns as f64 / units / 1e6,
                l.self_ns as f64 / root.total_ns.max(1) as f64,
            ),
            None => (
                setup.get(layer).map_or(0.0, |l| l.total_ns as f64 / 1e6),
                0.0,
            ),
        };
        m.insert(format!("{layer}_ms"), ms);
        m.insert(format!("{layer}.share"), share);
    }
    let distributions = [
        (
            "serve.step",
            durations_ms(spans, "serve.step", Some(UNIT), measured),
        ),
        (
            "serve.decide",
            durations_ms(spans, "serve.decide", Some("serve.step"), measured),
        ),
        (
            "place.candidate",
            durations_ms(spans, "place.multilevel", Some("serve.decide"), measured),
        ),
    ];
    for (name, samples) in distributions {
        m.insert(format!("{name}_ms_p50"), median(&samples));
        let tail_ms = match tail(&samples) {
            Some(t) => {
                report.notes.push(format!(
                    "{name}_ms_tail is p{:.1} of {} samples",
                    t.percentile, t.samples
                ));
                t.value
            }
            None => {
                if !samples.is_empty() {
                    report.notes.push(format!(
                        "{name}_ms_tail: {} samples, too few for a tail",
                        samples.len()
                    ));
                }
                0.0
            }
        };
        m.insert(format!("{name}_ms_tail"), tail_ms);
    }
    let mut counts: BTreeMap<&str, f64> = COUNTS.iter().map(|&c| (c, 0.0)).collect();
    for unit in 1..=report.traced_run_s.len() as u32 {
        for (name, v) in tracer.unit_counts(unit) {
            *counts.entry(name).or_insert(0.0) += v;
        }
    }
    for (name, v) in counts {
        m.entry(name.to_owned()).or_insert(v / units);
    }
    let untraced = median(&report.run_s);
    m.insert(
        "trace.overhead_frac".into(),
        median(&report.traced_run_s) / untraced.max(f64::MIN_POSITIVE) - 1.0,
    );
    m.insert(
        "trace.replica_match".into(),
        f64::from(u8::from(report.replica_match)),
    );
    m.insert(
        "trace.coverage".into(),
        1.0 - root.self_ns as f64 / root.total_ns.max(1) as f64,
    );
    m
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
