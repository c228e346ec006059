//! The online placement service (`acorr serve`).
//!
//! This closes ROADMAP item 1: the paper's tracking, detection and
//! placement machinery runs *while the workload runs*. A deterministic
//! traffic driver ([`TrafficDriver`]) streams per-step sharing edges
//! into windowed correlation tracking; when the [`PhaseDetector`]
//! fires, the service recomputes placement (incremental Kernighan-Lin
//! refinement at small scale, the multilevel partitioner at large),
//! gates re-mapping on the predicted cut-cost improvement strictly
//! exceeding a [`MigrationCostModel`] charge, and realizes accepted
//! plans under a selectable [`MigrationPolicy`].
//!
//! Every decision — phase shift, accept/reject with its costs, the
//! migrations applied — lands on the decision timeline (and, when an
//! observer is attached, in the obs sinks as Perfetto marks on the
//! decision lane). The loop is a pure function of `(seed, scenario,
//! jobs)`: traffic generation runs tenants in parallel and collects them
//! in order, and a step's two cut sums run on a second worker beside the
//! detector's window fold, reading the step's store only. So the timeline
//! and final mapping are bit-identical at any worker count.
//!
//! [`Workbench::serve_app`] runs the same decision core against a live
//! DSM engine instead of synthetic traffic, re-mapping threads through
//! [`Dsm::migrate_to`](acorr_dsm::Dsm::migrate_to) mid-run.

use crate::experiment::{mapping_digest, Workbench};
use acorr_dsm::trace::Event;
use acorr_dsm::{DsmError, Program};
use acorr_obs::{bytes_digest, MultiSink, ObsHandle, Observation};
use acorr_place::{
    multilevel_place, plan_migration, refine_kl, MigrationCostModel, MigrationPolicy,
};
use acorr_sim::{
    par_join, ClusterConfig, Mapping, Scenario, SimTime, TrafficConfig, TrafficDriver,
};
use acorr_track::{cut_cost, CorrelationMatrix, PhaseDetector, PhaseShiftMark};
use std::fmt;

/// Knobs of one service run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOptions {
    /// The traffic script (ignored by [`Workbench::serve_app`]).
    pub scenario: Scenario,
    /// Steps (traffic steps or tracked engine iterations) to serve.
    pub steps: usize,
    /// Tenants sharing the thread range (traffic mode only).
    pub tenants: usize,
    /// Detector window length, in steps.
    pub window: usize,
    /// Traffic generation/cycle period, in steps (traffic mode only).
    pub period: u64,
    /// How accepted candidates become thread movement.
    pub policy: MigrationPolicy,
    /// The re-mapping gate.
    pub cost_model: MigrationCostModel,
    /// Thread count above which candidates come from the multilevel
    /// partitioner instead of incremental Kernighan-Lin refinement.
    pub multilevel_above: usize,
    /// Swap budget per decision for the interchange policy.
    pub max_swaps: usize,
}

impl ServeOptions {
    /// Defaults tuned for the paper-scale cluster (8×64): 48 steps of
    /// four tenants, window 2, period 12, greedy policy, the default
    /// cost model.
    pub fn new(scenario: Scenario) -> ServeOptions {
        ServeOptions {
            scenario,
            steps: 48,
            tenants: 4,
            window: 2,
            period: 12,
            policy: MigrationPolicy::Greedy,
            cost_model: MigrationCostModel::default(),
            multilevel_above: 512,
            max_swaps: 8,
        }
    }

    /// Replaces the step count.
    #[must_use]
    pub fn with_steps(mut self, steps: usize) -> ServeOptions {
        self.steps = steps;
        self
    }

    /// Replaces the migration policy.
    #[must_use]
    pub fn with_policy(mut self, policy: MigrationPolicy) -> ServeOptions {
        self.policy = policy;
        self
    }

    /// Replaces the migration cost model.
    #[must_use]
    pub fn with_cost_model(mut self, cost_model: MigrationCostModel) -> ServeOptions {
        self.cost_model = cost_model;
        self
    }
}

/// One entry of the decision timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeDecision {
    /// The detector fired: the sharing structure shifted.
    Shift {
        /// Step whose observation closed the firing window.
        step: u64,
        /// Detector window ordinal that fired.
        window: u64,
        /// Divergence, parts per million.
        delta_ppm: u64,
    },
    /// A re-mapping verdict taken right after a shift.
    Remap {
        /// Step the verdict was taken at.
        step: u64,
        /// Whether the plan beat the cost gate and was applied.
        accepted: bool,
        /// Threads the plan moves.
        moves: u64,
        /// Cut cost of the incumbent mapping on the firing window.
        cut_before: u64,
        /// Predicted cut cost of the planned mapping.
        cut_after: u64,
        /// Migration cost charged by the model.
        cost: u64,
    },
}

impl fmt::Display for ServeDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ServeDecision::Shift {
                step,
                window,
                delta_ppm,
            } => write!(f, "shift step={step} window={window} delta_ppm={delta_ppm}"),
            ServeDecision::Remap {
                step,
                accepted,
                moves,
                cut_before,
                cut_after,
                cost,
            } => write!(
                f,
                "remap step={step} decision={} moves={moves} cut_before={cut_before} \
                 cut_after={cut_after} cost={cost}",
                if accepted { "accept" } else { "reject" }
            ),
        }
    }
}

/// What one service run did, with the full decision timeline.
#[derive(Debug)]
pub struct ServeReport {
    /// Scenario name (traffic mode) or `"<app> (engine)"`.
    pub label: String,
    /// Policy the run migrated under.
    pub policy: MigrationPolicy,
    /// Steps served.
    pub steps: usize,
    /// Detector window length.
    pub window: usize,
    /// Every decision, in step order.
    pub timeline: Vec<ServeDecision>,
    /// Phase shifts detected.
    pub shifts: usize,
    /// Re-mappings accepted.
    pub accepted: usize,
    /// Re-mappings rejected by the cost gate.
    pub rejected: usize,
    /// Total threads moved across accepted re-mappings.
    pub migrated: u64,
    /// Cut cost summed over all steps under the served (re-mapped)
    /// placement.
    pub served_cut: u64,
    /// Cut cost summed over the same steps under the never-re-mapped
    /// initial placement — the baseline an accepted re-map must beat.
    pub static_cut: u64,
    /// The mapping the service ended on.
    pub final_mapping: Mapping,
    /// Collected artifacts when the workbench had an observer attached.
    pub observation: Option<Observation>,
}

impl ServeReport {
    /// The timeline as stable text: one decision per line.
    pub fn timeline_text(&self) -> String {
        let mut text = String::new();
        for decision in &self.timeline {
            text.push_str(&decision.to_string());
            text.push('\n');
        }
        text
    }

    /// FNV-1a digest of [`ServeReport::timeline_text`] — the pinned
    /// value CI smoke greps.
    pub fn timeline_digest(&self) -> String {
        bytes_digest(self.timeline_text().as_bytes())
    }

    /// Digest of the final mapping.
    pub fn final_mapping_digest(&self) -> String {
        mapping_digest(&self.final_mapping)
    }

    /// The golden-snapshot text: header counters, digests, then the
    /// full timeline.
    pub fn snapshot(&self) -> String {
        format!(
            "scenario={} steps={} window={} policy={}\n\
             shifts={} accepted={} rejected={} migrated={}\n\
             served_cut={} static_cut={}\n\
             final_mapping={}\n\
             {}",
            self.label,
            self.steps,
            self.window,
            self.policy,
            self.shifts,
            self.accepted,
            self.rejected,
            self.migrated,
            self.served_cut,
            self.static_cut,
            self.final_mapping_digest(),
            self.timeline_text(),
        )
    }
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "serve {}: policy {}, {} step(s), window {}",
            self.label, self.policy, self.steps, self.window
        )?;
        writeln!(
            f,
            "shifts {}, remaps accepted {}, rejected {}, threads moved {}",
            self.shifts, self.accepted, self.rejected, self.migrated
        )?;
        write!(
            f,
            "cut served {} vs never-remap {}",
            self.served_cut, self.static_cut
        )
    }
}

/// One evaluated re-mapping opportunity.
struct RemapVerdict {
    planned: Mapping,
    moves: usize,
    cut_before: u64,
    cut_after: u64,
    cost: u64,
    accepted: bool,
}

/// The decision core shared by both service modes: recompute a
/// candidate on the firing window's correlation, plan its realization
/// under the policy, and gate on predicted improvement vs. cost.
fn evaluate_remap(
    options: &ServeOptions,
    cluster: &ClusterConfig,
    corr: &CorrelationMatrix,
    current: &Mapping,
) -> RemapVerdict {
    let candidate = if cluster.num_threads() <= options.multilevel_above {
        refine_kl(corr, current.clone())
    } else {
        multilevel_place(corr, cluster)
    };
    let planned = plan_migration(options.policy, corr, current, &candidate, options.max_swaps);
    let moves = planned.moves_from(current);
    let cut_before = cut_cost(corr, current);
    let cut_after = cut_cost(corr, &planned);
    let gain = cut_before.saturating_sub(cut_after);
    let cost = options.cost_model.migration_cost(moves);
    let accepted = moves > 0 && options.cost_model.accepts(gain, moves);
    RemapVerdict {
        planned,
        moves,
        cut_before,
        cut_after,
        cost,
        accepted,
    }
}

impl RemapVerdict {
    fn decision(&self, step: u64) -> ServeDecision {
        ServeDecision::Remap {
            step,
            accepted: self.accepted,
            moves: self.moves as u64,
            cut_before: self.cut_before,
            cut_after: self.cut_after,
            cost: self.cost,
        }
    }

    fn event(&self, step: u64) -> Event {
        let (moves, cut_before, cut_after, cost) = (
            self.moves as u64,
            self.cut_before,
            self.cut_after,
            self.cost,
        );
        if self.accepted {
            Event::RemapAccepted {
                step,
                moves,
                cut_before,
                cut_after,
                cost,
            }
        } else {
            Event::RemapRejected {
                step,
                moves,
                cut_before,
                cut_after,
                cost,
            }
        }
    }
}

impl Workbench {
    /// Runs the online placement service against synthetic traffic: the
    /// workbench's seed feeds the driver, its worker count generates
    /// tenant edges in parallel, and the full decision timeline plus
    /// final mapping are bit-identical for every worker count.
    pub fn serve_traffic(&self, options: &ServeOptions) -> ServeReport {
        let threads = self.cluster.num_threads();
        let traffic = TrafficDriver::new(
            TrafficConfig::new(threads, options.tenants, options.scenario, self.seed)
                .with_period(options.period),
        );
        // Stand-alone handle: the serve loop is the event source, there
        // is no engine to attach the sink half to.
        let handle = self
            .observer
            .then(|| MultiSink::new(self.cluster.num_nodes()).1);
        let initial = Mapping::stretch(&self.cluster);
        let mut current = initial.clone();
        let mut detector = PhaseDetector::new(threads, options.window);
        let mut report = ReportBuilder::new(options, handle);
        for step in 0..options.steps as u64 {
            let edges = traffic.step_edges(step, self.threads);
            let corr = CorrelationMatrix::from_edges(threads, edges);
            // Cut is charged before the step's verdict applies, so an
            // accepted re-map pays off from the next step on. The two sums
            // only read the step's store, so the second worker takes them
            // while the detector folds.
            let (fired, (served, fixed)) = par_join(
                self.threads,
                || detector.observe(&corr),
                || (cut_cost(&corr, &current), cut_cost(&corr, &initial)),
            );
            report.served_cut += served;
            report.static_cut += fixed;
            let at = SimTime::from_nanos(100_000 * (step + 1));
            let Some(mark) = fired else {
                continue;
            };
            report.shift(step, mark, at);
            let verdict = evaluate_remap(options, &self.cluster, &corr, &current);
            report.remap(step, &verdict, at, &current);
            if verdict.accepted {
                current = verdict.planned;
            }
        }
        report.finish(options.scenario.to_string(), current)
    }

    /// Runs the service against a live DSM engine: each step is one
    /// tracked iteration, and accepted re-mappings go through
    /// [`Dsm::migrate_to`](acorr_dsm::Dsm::migrate_to) mid-run.
    /// Traffic-only options (`scenario`, `tenants`, `period`) are
    /// ignored.
    ///
    /// # Errors
    ///
    /// Propagates engine construction, execution and migration errors.
    pub fn serve_app<P, F>(
        &self,
        factory: F,
        options: &ServeOptions,
    ) -> Result<ServeReport, DsmError>
    where
        P: Program,
        F: Fn() -> P + Sync,
    {
        let threads = self.cluster.num_threads();
        let initial = Mapping::stretch(&self.cluster);
        let (mut dsm, handle) =
            self.observed_dsm(self.config.clone(), factory(), initial.clone())?;
        let label = format!("{} (engine)", dsm.program().name());
        let mut current = initial.clone();
        let mut detector = PhaseDetector::new(threads, options.window);
        let mut report = ReportBuilder::new(options, handle);
        for step in 0..options.steps as u64 {
            let (_stats, access) = dsm.run_tracked_iteration()?;
            let corr = CorrelationMatrix::from_access(&access);
            report.served_cut += cut_cost(&corr, &current);
            report.static_cut += cut_cost(&corr, &initial);
            let at = dsm.now();
            let Some(mark) = detector.observe(&corr) else {
                continue;
            };
            report.shift(step, mark, at);
            let verdict = evaluate_remap(options, &self.cluster, &corr, &current);
            report.remap(step, &verdict, at, &current);
            if verdict.accepted {
                // The live re-mapping hook: the engine invalidates and
                // re-homes under the new mapping and keeps running.
                dsm.migrate_to(verdict.planned.clone())?;
                current = verdict.planned;
            }
        }
        Ok(report.finish(label, current))
    }
}

/// Accumulates timeline entries, counters and obs events for a run.
struct ReportBuilder {
    steps: usize,
    window: usize,
    policy: MigrationPolicy,
    timeline: Vec<ServeDecision>,
    shifts: usize,
    accepted: usize,
    rejected: usize,
    migrated: u64,
    served_cut: u64,
    static_cut: u64,
    /// The run's obs handle, when the workbench observes.
    handle: Option<ObsHandle>,
}

impl ReportBuilder {
    fn new(options: &ServeOptions, handle: Option<ObsHandle>) -> ReportBuilder {
        ReportBuilder {
            steps: options.steps,
            window: options.window,
            policy: options.policy,
            timeline: Vec::new(),
            shifts: 0,
            accepted: 0,
            rejected: 0,
            migrated: 0,
            served_cut: 0,
            static_cut: 0,
            handle,
        }
    }

    fn shift(&mut self, step: u64, mark: PhaseShiftMark, at: SimTime) {
        let (window, delta_ppm) = (mark.window, mark.delta_ppm);
        self.shifts += 1;
        self.timeline.push(ServeDecision::Shift {
            step,
            window,
            delta_ppm,
        });
        if let Some(h) = &self.handle {
            h.record_event(at, &Event::PhaseShift { window, delta_ppm });
        }
    }

    fn remap(&mut self, step: u64, verdict: &RemapVerdict, at: SimTime, current: &Mapping) {
        self.timeline.push(verdict.decision(step));
        if let Some(h) = &self.handle {
            h.record_event(at, &verdict.event(step));
        }
        if verdict.accepted {
            self.accepted += 1;
            self.migrated += verdict.moves as u64;
            if let Some(h) = &self.handle {
                for t in 0..current.num_threads() {
                    let to = verdict.planned.node_of(t);
                    if to != current.node_of(t) {
                        h.record_event(at, &Event::Migration { thread: t, to });
                    }
                }
            }
        } else {
            self.rejected += 1;
        }
    }

    fn finish(self, label: String, final_mapping: Mapping) -> ServeReport {
        ServeReport {
            label,
            policy: self.policy,
            steps: self.steps,
            window: self.window,
            timeline: self.timeline,
            shifts: self.shifts,
            accepted: self.accepted,
            rejected: self.rejected,
            migrated: self.migrated,
            served_cut: self.served_cut,
            static_cut: self.static_cut,
            final_mapping,
            observation: self.handle.map(|h| h.finish()),
        }
    }
}
