//! Schedule-space exploration: the driver tying `acorr-sched` to the
//! engine and its checkers.
//!
//! [`Workbench::explore_run`] runs one application under many thread
//! interleavings and checks every run three ways:
//!
//! 1. **Happens-before races** — the vector-clock detector records the
//!    races of each run; the *default* schedule's race set is the
//!    per-protocol baseline (the paper's applications are structurally
//!    racy by design, e.g. Water's multi-writer windows), and any race
//!    *not* in the baseline is a schedule-dependent bug.
//! 2. **Differential protocol checking** — every run's per-barrier
//!    program-visible memory digests must equal the multi-writer default
//!    baseline's. Since both the multi-writer and single-writer protocol
//!    are checked against the same anchor, MW and SW agree at every
//!    barrier of every schedule transitively.
//! 3. **Oracle cross-checks** — the coherence oracle shadows every run
//!    (violations fail the schedule), and every page the oracle marked
//!    *hazy* must carry a detector write-write race: the two mechanisms
//!    must agree on where unordered writes live.
//!
//! On failure the schedule is concretized (the failing run's decision logs
//! replayed as an explicit prefix pair), shrunk to a minimal pair with
//! [`acorr_sched::shrink_pair`], and reported as a replay token that
//! `acorr explore --replay TOKEN` (or [`ExploreOptions::replay`])
//! reproduces byte-for-byte.
//!
//! With `budget: 1` only the default schedule runs, and its multi-writer
//! measurement is bit-identical to
//! [`Workbench::heuristic_comparison`]'s row for the same parameters —
//! steering with all-default choices is the unsteered engine.

use crate::experiment::{HeuristicRow, Workbench};
use acorr_dsm::{DsmError, InjectedBug, IterStats, Program, WriteMode};
use acorr_mem::{PageId, Race, RaceReport};
use acorr_place::Strategy;
use acorr_sched::{shrink_pair, ExploreMode, Explorer, Schedule};
use acorr_sim::{DecisionRecord, Mapping, SimDuration};
use std::collections::BTreeSet;
use std::fmt;

/// What [`Workbench::explore_run`] should do.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Placement strategy for the explored runs (the mapping is computed
    /// once, from the unsteered ground truth, exactly as
    /// [`Workbench::heuristic_comparison`] does for its first strategy).
    pub strategy: Strategy,
    /// Measured iterations per run (after one warm-up iteration).
    pub iterations: usize,
    /// Maximum schedules to try, including the default schedule. Each
    /// schedule runs twice: once multi-writer, once single-writer.
    pub budget: usize,
    /// How schedules beyond the default are generated.
    pub mode: ExploreMode,
    /// Replay exactly this schedule instead of exploring (the budget and
    /// mode are ignored; the default-schedule baseline still runs first).
    pub replay: Option<Schedule>,
    /// Protocol bug to inject into every explored run (the adversarial
    /// fixture: the model checker must *find* the counterexample the bug
    /// plants). `None` checks the real protocol.
    pub inject: Option<InjectedBug>,
    /// Worker threads for the explored schedules (`0` = all the host
    /// offers, `1` = sequential). Schedules are drained from the explorer
    /// in waves and run on [`acorr_sim::pool::par_map_indexed`]; results
    /// are judged in wave order, so the report — schedules run, first
    /// failure, shrunk token — is bit-identical at any job count. With an
    /// observer attached the runs stay sequential regardless (sinks
    /// stream to external backends).
    pub jobs: usize,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            strategy: Strategy::MinCost,
            iterations: 2,
            budget: 20,
            mode: ExploreMode::Random { seed: 0xACE5 },
            replay: None,
            inject: None,
            jobs: 1,
        }
    }
}

/// The kind of check a schedule failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The coherence oracle flagged a violation during the run.
    OracleViolation,
    /// The run produced a happens-before race absent from the default
    /// schedule's baseline race set for the same protocol.
    NewRace,
    /// A per-barrier program-visible memory digest differed from the
    /// multi-writer default baseline.
    Divergence,
    /// The oracle marked a page hazy but the detector recorded no
    /// write-write race on it (the two mechanisms disagree).
    HazyUncovered,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::OracleViolation => write!(f, "oracle violation"),
            FailureKind::NewRace => write!(f, "new race"),
            FailureKind::Divergence => write!(f, "visible-memory divergence"),
            FailureKind::HazyUncovered => write!(f, "hazy page without write-write race"),
        }
    }
}

/// A failing schedule, shrunk and ready to replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreFailure {
    /// Replay token of the (shrunk) failing schedule.
    pub token: String,
    /// Which check failed.
    pub kind: FailureKind,
    /// Protocol under which the check failed.
    pub write_mode: &'static str,
    /// Human-readable description of the failure.
    pub detail: String,
}

impl fmt::Display for ExploreFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} under {} at schedule {}: {}",
            self.kind, self.write_mode, self.token, self.detail
        )
    }
}

/// Outcome of a schedule-space exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// Application name.
    pub app: String,
    /// Schedules evaluated (each under both protocols), incl. the default.
    pub schedules_run: usize,
    /// Decision points the default multi-writer run consulted.
    pub decision_points: usize,
    /// The default schedule's multi-writer measurement — bit-identical to
    /// [`Workbench::heuristic_comparison`]'s row for the same strategy.
    pub baseline: HeuristicRow,
    /// Distinct baseline races under (multi-writer, single-writer); these
    /// are the program's structural races, present in every schedule.
    pub baseline_races: (usize, usize),
    /// The first failing schedule found, if any, shrunk to a minimal
    /// replay token.
    pub failure: Option<ExploreFailure>,
    /// Model-check mode: distinct state keys observed (0 in other modes).
    /// Runs whose state was already known are pruned — they expand no
    /// further deviations.
    pub distinct_states: usize,
}

impl fmt::Display for ExploreReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} schedule(s), {} decision point(s) in the default run",
            self.app, self.schedules_run, self.decision_points
        )?;
        writeln!(
            f,
            "baseline races: {} multi-writer, {} single-writer (structural)",
            self.baseline_races.0, self.baseline_races.1
        )?;
        if self.distinct_states > 0 {
            writeln!(
                f,
                "distinct states: {} (state-hash pruning)",
                self.distinct_states
            )?;
        }
        match &self.failure {
            None => write!(f, "no new races, no divergences"),
            Some(fail) => write!(f, "FAILED: {fail}"),
        }
    }
}

/// One protocol's run of one schedule.
struct ProtoRun {
    stats: Option<IterStats>,
    races: BTreeSet<Race>,
    report: RaceReport,
    digests: Vec<u64>,
    hazy: Vec<PageId>,
    log: Vec<DecisionRecord>,
    fault_log: Vec<DecisionRecord>,
    state_key: u64,
    violation: Option<String>,
}

const MW: &str = "multi-writer";
const SW: &str = "single-writer";
/// Delta interval of the single-writer runs.
const SW_DELTA: SimDuration = SimDuration::from_micros(200);

/// FNV-1a fold of one `u64` into a running hash.
fn mix(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// The model checker's pruning key for one schedule's (MW, SW) run pair.
/// Each run's key already folds its per-barrier `VisibleImage` digest
/// stream with the *structure* (alternatives columns) of its decision
/// logs; chosen columns are deliberately excluded so distinct decision
/// paths that converge to the same memory state and expose the same
/// downstream decision structure collapse into one state.
fn pair_state_key(mw: &ProtoRun, sw: &ProtoRun) -> u64 {
    mix(mix(0xCBF2_9CE4_8422_2325, mw.state_key), sw.state_key)
}

/// Applies every check to a schedule's two runs against the default
/// baselines. Returns the first failure as (kind, protocol, detail).
fn judge(
    mw: &ProtoRun,
    sw: &ProtoRun,
    base_mw: &ProtoRun,
    base_sw: &ProtoRun,
) -> Option<(FailureKind, &'static str, String)> {
    for (run, base, mode) in [(mw, base_mw, MW), (sw, base_sw, SW)] {
        if let Some(v) = &run.violation {
            return Some((FailureKind::OracleViolation, mode, v.clone()));
        }
        // A race is *new* when the default schedule produced no race at
        // all on the same page. Novelty is judged per page, not per
        // thread pair or kind: inside a structurally racy page (a
        // multi-writer window, an unsynchronized producer/consumer
        // overlap) steering dispatch and lock-grant order legitimately
        // permutes which threads collide and how — but no schedule can
        // make a race-free page racy.
        let known: BTreeSet<PageId> = base.races.iter().map(|r| r.page).collect();
        if let Some(race) = run.races.iter().find(|r| !known.contains(&r.page)) {
            return Some((
                FailureKind::NewRace,
                mode,
                format!("{race} (the default schedule has no race on {})", race.page),
            ));
        }
        // Every schedule's digests must match the MW default baseline:
        // non-sensitive bytes are single-writer-per-interval with pure
        // write tokens, so they are schedule- and protocol-invariant.
        if run.digests != base_mw.digests {
            let barrier = run
                .digests
                .iter()
                .zip(&base_mw.digests)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| run.digests.len().min(base_mw.digests.len()));
            return Some((
                FailureKind::Divergence,
                mode,
                format!(
                    "visible-memory digest differs from the multi-writer default \
                     baseline first at barrier {barrier} \
                     ({} vs {} barriers total)",
                    run.digests.len(),
                    base_mw.digests.len()
                ),
            ));
        }
    }
    // Hazy/race agreement is only meaningful where hazy bytes exist: the
    // multi-writer protocol's unordered concurrent diffs.
    for page in &mw.hazy {
        if !mw.report.has_ww_on(*page) {
            return Some((
                FailureKind::HazyUncovered,
                MW,
                format!("oracle marked {page} hazy but no write-write race was detected on it"),
            ));
        }
    }
    None
}

impl Workbench {
    /// Explores the schedule space of `factory`'s application, checking
    /// every run for new happens-before races, visible-memory divergence
    /// against the multi-writer default baseline, and oracle agreement
    /// (see the [module docs](crate::explore)).
    ///
    /// # Errors
    ///
    /// Propagates engine errors other than oracle violations (those are a
    /// per-schedule failure signal, reported in the returned
    /// [`ExploreReport`], not an `Err`).
    ///
    /// # Panics
    ///
    /// Panics if `options.budget` is zero.
    pub fn explore_run<P, F>(
        &self,
        factory: F,
        options: &ExploreOptions,
    ) -> Result<ExploreReport, DsmError>
    where
        P: Program,
        F: Fn() -> P + Sync,
    {
        assert!(options.budget > 0, "budget must be at least 1");
        let truth = self.ground_truth(&factory)?;
        // Table 6's run of the strategy, steered by the default schedule,
        // so the baseline row is bit-identical to heuristic_comparison's.
        let default = Schedule::default_order();
        let (baseline, (mapping, base_mw, base_sw)) =
            self.table6_run(&truth, 0, options.strategy, |mapping| {
                let mw = self.steered_run(&factory, &mapping, &default, MW, options)?;
                let sw = self.steered_run(&factory, &mapping, &default, SW, options)?;
                // A run the oracle stopped measured nothing: its row reads zero.
                Ok((mw.stats.unwrap_or_default(), (mapping, mw, sw)))
            })?;
        let mut report = ExploreReport {
            app: truth.app.clone(),
            schedules_run: 1,
            decision_points: base_mw.log.len(),
            baseline,
            baseline_races: (base_mw.races.len(), base_sw.races.len()),
            failure: None,
            distinct_states: 0,
        };

        // The default schedule itself must pass the absolute checks
        // (oracle, digest agreement, hazy coverage).
        if let Some(fail) = judge(&base_mw, &base_sw, &base_mw, &base_sw) {
            report.failure = Some(self.shrunk(
                &factory, &mapping, options, &base_mw, &base_sw, &base_mw, &base_sw, fail,
            )?);
            return Ok(report);
        }

        if let Some(replay) = &options.replay {
            let mw = self.steered_run(&factory, &mapping, replay, MW, options)?;
            let sw = self.steered_run(&factory, &mapping, replay, SW, options)?;
            report.schedules_run += 1;
            // A replay reports what it found verbatim — no shrinking; the
            // token the caller passed in is already the counterexample.
            report.failure =
                judge(&mw, &sw, &base_mw, &base_sw).map(|(kind, mode, detail)| ExploreFailure {
                    token: replay.token(),
                    kind,
                    write_mode: mode,
                    detail,
                });
            return Ok(report);
        }

        // Schedules are drained from the explorer in waves of up to `jobs`
        // and run on the deterministic pool. The wave sequence visits
        // exactly the serial schedule order: draining never outruns the
        // frontier (a short wave just ends early), and children observed
        // while replaying a wave's logs land *behind* every entry the wave
        // already drained — the same relative order the serial loop
        // produces. Results are observed and judged in wave index order, so
        // the first failure (and with it `schedules_run` and the shrunk
        // token) is bit-identical at any job count. A wave may run a few
        // schedules past a failure; those runs are pure and discarded.
        let jobs = if self.observer {
            1 // sinks stream to external backends; keep runs sequential
        } else {
            acorr_sim::pool::resolve_threads(options.jobs)
        };
        let mut explorer = Explorer::new(options.mode, options.budget);
        let first = explorer
            .next_schedule()
            .expect("budget >= 1 yields the default schedule");
        debug_assert!(first.is_default());
        explorer.observe(
            &base_mw.log,
            &base_mw.fault_log,
            pair_state_key(&base_mw, &base_sw),
        );
        loop {
            let mut wave = Vec::new();
            while wave.len() < jobs.max(1) {
                match explorer.next_schedule() {
                    Some(schedule) => wave.push(schedule),
                    None => break,
                }
            }
            if wave.is_empty() {
                report.distinct_states = explorer.distinct_states();
                return Ok(report);
            }
            let runs = acorr_sim::pool::par_map_indexed(jobs, wave, |_, schedule| {
                let mw = self.steered_run(&factory, &mapping, &schedule, MW, options)?;
                let sw = self.steered_run(&factory, &mapping, &schedule, SW, options)?;
                Ok::<_, DsmError>((mw, sw))
            });
            for run in runs {
                let (mw, sw) = run?;
                report.schedules_run += 1;
                explorer.observe(&mw.log, &mw.fault_log, pair_state_key(&mw, &sw));
                if let Some(fail) = judge(&mw, &sw, &base_mw, &base_sw) {
                    report.distinct_states = explorer.distinct_states();
                    report.failure = Some(self.shrunk(
                        &factory, &mapping, options, &base_mw, &base_sw, &mw, &sw, fail,
                    )?);
                    return Ok(report);
                }
            }
        }
    }

    /// Runs one (schedule, protocol) instance with the oracle, the race
    /// detector and the visible image attached, collecting everything the
    /// checks need. Oracle violations are captured, not propagated.
    fn steered_run<P, F>(
        &self,
        factory: &F,
        mapping: &Mapping,
        schedule: &Schedule,
        write_mode: &'static str,
        options: &ExploreOptions,
    ) -> Result<ProtoRun, DsmError>
    where
        P: Program,
        F: Fn() -> P + Sync,
    {
        let mut config = self.config.clone();
        config.write_mode = if write_mode == MW {
            WriteMode::MultiWriter
        } else {
            WriteMode::SingleWriter { delta: SW_DELTA }
        };
        if let Some(bug) = options.inject {
            config = config.with_injected_bug(bug);
        }
        let (mut dsm, _handle) = self.observed_dsm(config, factory(), mapping.clone())?;
        dsm.steer(schedule.queue(), schedule.fault_queue());
        dsm.enable_oracle();
        dsm.enable_race_detection();
        dsm.enable_visible_image();
        let outcome = dsm
            .run_iterations(1) // cold-start warm-up
            .and_then(|_| dsm.run_iterations(options.iterations));
        let (stats, violation) = match outcome {
            Ok(stats) => (Some(stats), None),
            Err(DsmError::OracleViolation { iteration, detail }) => {
                (None, Some(format!("iteration {iteration}: {detail}")))
            }
            Err(e) => return Err(e),
        };
        let race = dsm.race_report().expect("race detection was enabled");
        let visible = dsm.visible_image().expect("visible image was enabled");
        let (log, fault_log) = dsm.decisions();
        let (log, fault_log) = (log.to_vec(), fault_log.to_vec());
        // Per-run pruning key: the digest stream plus the decision
        // *structure* of both logs (see `pair_state_key`).
        let mut state_key = mix(0xCBF2_9CE4_8422_2325, visible.state_key());
        for r in log.iter().chain(&fault_log) {
            state_key = mix(state_key, u64::from(r.alternatives));
        }
        Ok(ProtoRun {
            stats,
            races: race.races.iter().copied().collect(),
            report: race,
            digests: visible.digests().to_vec(),
            hazy: dsm.oracle_hazy_pages().expect("oracle was enabled"),
            log,
            fault_log,
            state_key,
            violation,
        })
    }

    /// Concretizes a failing schedule from its decision logs, shrinks it
    /// to a minimal prefix and renders the replay token. Shrinking
    /// re-runs both protocols per candidate; a candidate "fails" when
    /// *any* check fails, so the result stays a genuine counterexample
    /// throughout.
    #[allow(clippy::too_many_arguments)]
    fn shrunk<P, F>(
        &self,
        factory: &F,
        mapping: &Mapping,
        options: &ExploreOptions,
        base_mw: &ProtoRun,
        base_sw: &ProtoRun,
        mw: &ProtoRun,
        sw: &ProtoRun,
        fail: (FailureKind, &'static str, String),
    ) -> Result<ExploreFailure, DsmError>
    where
        P: Program,
        F: Fn() -> P + Sync,
    {
        let choices =
            |log: &[DecisionRecord]| -> Vec<u32> { log.iter().map(|r| r.chosen).collect() };
        // Concretize from the failing protocol's logs: a prescribed
        // (schedule, fault) prefix pair of its own recorded choices
        // reproduces that run — and therefore its failure — exactly.
        let failing = if fail.1 == SW { sw } else { mw };
        let primary = choices(&failing.log);
        let primary_faults = choices(&failing.fault_log);
        let mut error: Option<DsmError> = None;
        let (min_sched, min_faults) = shrink_pair(&primary, &primary_faults, |prefix, faults| {
            if error.is_some() {
                return false;
            }
            let schedule = Schedule::prescribed(prefix.to_vec()).with_faults(faults.to_vec());
            let m = match self.steered_run(factory, mapping, &schedule, MW, options) {
                Ok(m) => m,
                Err(e) => {
                    error = Some(e);
                    return false;
                }
            };
            let s = match self.steered_run(factory, mapping, &schedule, SW, options) {
                Ok(s) => s,
                Err(e) => {
                    error = Some(e);
                    return false;
                }
            };
            judge(&m, &s, base_mw, base_sw).is_some()
        });
        if let Some(e) = error {
            return Err(e);
        }
        // Re-judge the minimal schedule so the reported kind and detail
        // describe the schedule the token actually names.
        let schedule = Schedule::prescribed(min_sched).with_faults(min_faults);
        let m = self.steered_run(factory, mapping, &schedule, MW, options)?;
        let s = self.steered_run(factory, mapping, &schedule, SW, options)?;
        let (kind, mode, detail) = judge(&m, &s, base_mw, base_sw).unwrap_or(fail);
        Ok(ExploreFailure {
            token: schedule.token(),
            kind,
            write_mode: mode,
            detail,
        })
    }
}
