//! Experiment drivers for the paper's tables and figures.
//!
//! Each driver encapsulates one measurement methodology from the paper:
//!
//! * [`Workbench::ground_truth`] — one active-tracking phase (§4.2),
//!   yielding the exact per-thread access bitmaps every analysis builds on.
//! * [`Workbench::tracking_overhead`] — Table 5: iteration time with
//!   tracking off and on, fault counts, sharing degree.
//! * [`Workbench::cutcost_study`] — Table 2 / Figure 1: run many random
//!   configurations, regress remote misses against cut cost.
//! * [`Workbench::heuristic_comparison`] — Table 6: full runs under
//!   different placement strategies.
//! * [`Workbench::passive_study`] — Figure 2: passive tracking with
//!   migration rounds, measuring information completeness per round.

use acorr_dsm::trace::Event;
use acorr_dsm::{Dsm, DsmConfig, DsmError, IterStats, OracleReport, Program};
use acorr_mem::AccessMatrix;
use acorr_obs::{MultiSink, ObsHandle, Observation};
use acorr_place::{min_cost, place, Strategy};
use acorr_sim::{
    linear_fit, par_join, par_map_indexed, par_map_range, ClusterConfig, DetRng, FaultPlan,
    LinearFit, Mapping, SimDuration, TopologyError,
};
use acorr_track::{
    cut_cost, sharing_degree, AgedCorrelation, CorrelationMatrix, PhaseDetector, PhaseShiftMark,
};
use std::fmt;

/// A configured experiment environment: cluster shape + DSM cost models.
#[derive(Debug, Clone)]
pub struct Workbench {
    /// The cluster (nodes, threads).
    pub cluster: ClusterConfig,
    /// DSM configuration used for every instance the workbench builds.
    pub config: DsmConfig,
    /// Root seed for randomized methodology (forked per use).
    pub seed: u64,
    /// Worker threads for every driver that runs independent DSM
    /// instances (1 = sequential): the ground-truth twins, the cut-cost
    /// samples, the heuristic strategies and the §7 policies. A randomized
    /// run forks its own RNG stream from `seed` up-front and results are
    /// collected in index order, so output is bit-identical at any worker
    /// count (see [`acorr_sim::pool`]).
    pub threads: usize,
    /// Whether every DSM instance the workbench builds gets an observer
    /// sink (JSONL, Chrome trace, metrics, span brackets) attached. Sinks
    /// are pure observers, so every statistic and table the drivers
    /// produce is bit-identical with this set or not.
    pub observer: bool,
}

impl Workbench {
    /// A workbench over `nodes` nodes and `threads` threads with default
    /// cost models (the paper's environment is `Workbench::new(8, 64)`).
    ///
    /// # Errors
    ///
    /// Propagates topology validation.
    pub fn new(nodes: usize, threads: usize) -> Result<Self, DsmError> {
        let cluster = ClusterConfig::new(nodes, threads)?;
        Ok(Workbench {
            cluster,
            config: DsmConfig::new(cluster),
            seed: 0x000A_C044,
            threads: 1,
            observer: false,
        })
    }

    /// Replaces the root seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count for the drivers that run independent
    /// DSM instances (`0` means the host's available parallelism, `1` exact
    /// sequential execution — results are bit-identical either way).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = acorr_sim::resolve_threads(threads);
        self
    }

    /// Replaces the DSM configuration (cluster is kept in sync).
    #[must_use]
    pub fn with_config(mut self, mut config: DsmConfig) -> Self {
        config.cluster = self.cluster;
        self.config = config;
        self
    }

    /// Replaces the network fault plan every DSM instance runs under.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.config.faults = faults;
        self
    }

    /// Enables observability: every DSM instance the workbench builds gets
    /// an observer sink attached. Collection is per-run — use
    /// [`Workbench::observed_heuristic_run`] (or attach a sink by hand via
    /// `Dsm::attach_sink`) when the artifacts themselves are wanted; the
    /// drivers discard them but still exercise the full sink path, which
    /// is what the purity tests rely on.
    #[must_use]
    pub fn with_observer(mut self) -> Self {
        self.observer = true;
        self
    }

    /// Builds a DSM instance for `program` under `mapping`, attaching the
    /// workbench's observer sink when observing.
    ///
    /// # Errors
    ///
    /// Propagates construction errors.
    pub fn dsm<P: Program>(&self, program: P, mapping: Mapping) -> Result<Dsm<P>, DsmError> {
        Ok(self.observed_dsm(self.config.clone(), program, mapping)?.0)
    }

    /// Builds a DSM instance from `config`, attaches the one observer sink
    /// when the workbench observes, and returns the handle that collects
    /// it (`None` when not observing).
    pub(crate) fn observed_dsm<P: Program>(
        &self,
        config: DsmConfig,
        program: P,
        mapping: Mapping,
    ) -> Result<(Dsm<P>, Option<ObsHandle>), DsmError> {
        let mut dsm = Dsm::new(config, program, mapping)?;
        let handle = self.observer.then(|| {
            let (sink, handle) = MultiSink::new(self.cluster.num_nodes());
            dsm.attach_sink(Box::new(sink));
            handle
        });
        Ok((dsm, handle))
    }

    /// Runs `program` for `iterations` under the stretch placement with the
    /// coherence oracle shadowing every protocol action (and whatever fault
    /// plan the workbench carries), returning the aggregate statistics and
    /// the oracle's checking summary.
    ///
    /// # Errors
    ///
    /// Propagates engine errors; an oracle violation surfaces as
    /// [`DsmError::OracleViolation`].
    pub fn conformance_run<P: Program>(
        &self,
        program: P,
        iterations: usize,
    ) -> Result<ConformanceRun, DsmError> {
        let mut dsm = self.dsm(program, Mapping::stretch(&self.cluster))?;
        dsm.enable_oracle();
        let stats = dsm.run_iterations(iterations)?;
        let report = dsm.oracle_report().expect("oracle was enabled");
        Ok(ConformanceRun {
            app: dsm.program().name().to_owned(),
            stats,
            report,
        })
    }

    /// Warm-up iterations run before any measurement (cold misses and GC
    /// phase-in settle).
    const WARMUP: usize = 2;

    /// Measures the exact access information of one actively tracked
    /// iteration under the stretch placement.
    ///
    /// Tracking-off and tracking-on times are measured on *twin instances*
    /// at the **same iteration index** after identical warm-up, so protocol
    /// state (caches, pending diffs, GC schedule) is identical and the
    /// difference is attributable to the tracking mechanism alone. (With a
    /// single instance, periodic GC makes adjacent iterations incomparable.)
    ///
    /// The twins are fully independent DSM instances, so with `threads >= 2`
    /// they run on two pool workers; the result is bit-identical to the
    /// sequential order.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn ground_truth<P, F>(&self, factory: F) -> Result<GroundTruth, DsmError>
    where
        P: Program,
        F: Fn() -> P + Sync,
    {
        enum Twin {
            Off(Box<IterStats>),
            On(Box<(IterStats, AccessMatrix, String)>),
        }
        let mapping = Mapping::stretch(&self.cluster);
        let mut twins = par_map_range(self.threads.min(2), 2, |which| -> Result<Twin, DsmError> {
            if which == 0 {
                // Twin A: tracking off at the measured iteration.
                let mut off_dsm = self.dsm(factory(), mapping.clone())?;
                off_dsm.run_iterations(Self::WARMUP)?;
                Ok(Twin::Off(Box::new(off_dsm.run_iterations(1)?)))
            } else {
                // Twin B: tracking on at the same iteration.
                let mut on_dsm = self.dsm(factory(), mapping.clone())?;
                on_dsm.run_iterations(Self::WARMUP)?;
                let (tracked, access) = on_dsm.run_tracked_iteration()?;
                let name = on_dsm.program().name().to_owned();
                Ok(Twin::On(Box::new((tracked, access, name))))
            }
        })
        .into_iter();
        let baseline = match twins.next().expect("two twins")? {
            Twin::Off(stats) => *stats,
            Twin::On(_) => unreachable!("index 0 is the tracking-off twin"),
        };
        let (tracked, access, name) = match twins.next().expect("two twins")? {
            Twin::On(boxed) => *boxed,
            Twin::Off(_) => unreachable!("index 1 is the tracking-on twin"),
        };
        let corr = CorrelationMatrix::from_access(&access);
        Ok(GroundTruth {
            app: name,
            access,
            corr,
            mapping,
            baseline,
            tracked,
        })
    }

    /// Table 5 methodology: the tracked-iteration overhead of one
    /// application.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn tracking_overhead<P, F>(&self, factory: F) -> Result<TrackingOverheadRow, DsmError>
    where
        P: Program,
        F: Fn() -> P + Sync,
    {
        let truth = self.ground_truth(&factory)?;
        let off = truth.baseline.elapsed;
        let on = truth.tracked.elapsed;
        let slowdown_pct = if off.is_zero() {
            0.0
        } else {
            (on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0
        };
        let degree = sharing_degree(&truth.access, &truth.mapping);
        Ok(TrackingOverheadRow {
            app: truth.app,
            time_off: off,
            time_on: on,
            slowdown_pct,
            tracking_faults: truth.tracked.tracking_faults,
            coherence_faults: truth.tracked.coherence_faults,
            sharing_degree: degree,
        })
    }

    /// Table 2 / Figure 1 methodology: collect ground-truth correlations,
    /// generate `samples` random configurations (≥2 threads per node, not
    /// necessarily balanced), run each and record (cut cost, remote misses),
    /// then fit the least-squares line.
    ///
    /// Each sample runs `measure_iters` measured iterations after one
    /// cold-start warm-up.
    ///
    /// Samples are independent by construction — sample `s` draws only from
    /// the RNG stream forked as `rng.fork(s)` — so they fan out across the
    /// workbench's worker threads and are collected in index order; the
    /// study (samples, fit, CSV) is bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn cutcost_study<P, F>(
        &self,
        factory: F,
        samples: usize,
        measure_iters: usize,
    ) -> Result<CutCostStudy, DsmError>
    where
        P: Program,
        F: Fn() -> P + Sync,
    {
        let truth = self.ground_truth(&factory)?;
        let rng = DetRng::new(self.seed).fork(0x7AB2);
        let points: Vec<CutCostSample> = par_map_range(
            self.threads,
            samples,
            |s| -> Result<CutCostSample, DsmError> {
                let mapping = Mapping::random_min_two(&self.cluster, &mut rng.fork(s as u64));
                let cut = cut_cost(&truth.corr, &mapping);
                let mut dsm = self.dsm(factory(), mapping)?;
                dsm.run_iterations(1)?; // cold-start warm-up
                let stats = dsm.run_iterations(measure_iters)?;
                Ok(CutCostSample {
                    cut_cost: cut,
                    remote_misses: stats.remote_misses,
                })
            },
        )
        .into_iter()
        .collect::<Result<_, _>>()?;
        let xs: Vec<f64> = points.iter().map(|p| p.cut_cost as f64).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.remote_misses as f64).collect();
        let fit = linear_fit(&xs, &ys);
        Ok(CutCostStudy {
            app: truth.app,
            samples: points,
            fit,
        })
    }

    /// Table 6 methodology: run the application to completion under each
    /// strategy and report time, misses, traffic and cut cost.
    ///
    /// Strategies are evaluated on independent DSM instances with
    /// per-strategy forked RNG streams, so they fan out across the
    /// workbench's worker threads; rows come back in strategy order.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn heuristic_comparison<P, F>(
        &self,
        factory: F,
        strategies: &[Strategy],
        iterations: usize,
    ) -> Result<Vec<HeuristicRow>, DsmError>
    where
        P: Program,
        F: Fn() -> P + Sync,
    {
        let truth = self.ground_truth(&factory)?;
        par_map_indexed(
            self.threads,
            strategies.to_vec(),
            |i, strategy| -> Result<HeuristicRow, DsmError> {
                let (row, ()) = self.table6_run(&truth, i, strategy, |mapping| {
                    let mut dsm = self.dsm(factory(), mapping)?;
                    dsm.run_iterations(1)?; // cold-start warm-up
                    Ok((dsm.run_iterations(iterations)?, ()))
                })?;
                Ok(row)
            },
        )
        .into_iter()
        .collect()
    }

    /// Runs one application to completion under a single placement
    /// strategy with the workbench's observer sink attached and
    /// **collected**: returns the Table 6 row plus the rendered
    /// observability artifacts (`None` when not observing).
    ///
    /// The measured run is [`Workbench::heuristic_comparison`]'s run of
    /// `&[strategy]` — same ground-truth phase, same forked RNG stream
    /// (`0x6E1 + 0`), same single warm-up iteration — so the returned row
    /// is bit-identical to that driver's first row. This is the property
    /// the manifest replay path (`acorr report`) leans on: re-running from
    /// a manifest's parameters reproduces the digest.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn observed_heuristic_run<P, F>(
        &self,
        factory: F,
        strategy: Strategy,
        iterations: usize,
    ) -> Result<ObservedRun, DsmError>
    where
        P: Program,
        F: Fn() -> P + Sync,
    {
        let truth = self.ground_truth(&factory)?;
        let (row, (stats, pages, handle)) = self.table6_run(&truth, 0, strategy, |mapping| {
            let (mut dsm, handle) = self.observed_dsm(self.config.clone(), factory(), mapping)?;
            dsm.run_iterations(1)?; // cold-start warm-up
            let stats = dsm.run_iterations(iterations)?;
            Ok((stats, (stats, dsm.num_pages(), handle)))
        })?;
        Ok(ObservedRun {
            row,
            stats,
            threads: self.cluster.num_threads(),
            pages,
            observation: handle.map(|h| h.finish()),
        })
    }

    /// Table 6's run of `strategy` as strategy `i` of a comparison: places
    /// `truth`'s correlations on the RNG stream forked as `0x6E1 + i`, and
    /// `measure` runs the mapping for one cold-start warm-up iteration and
    /// then the measured ones, returning their statistics with anything
    /// else its caller keeps. The row pairs those statistics with the
    /// mapping's cut cost. [`Workbench::heuristic_comparison`],
    /// [`Workbench::observed_heuristic_run`] and [`Workbench::explore_run`]
    /// all run through here, so their rows agree bit for bit.
    pub(crate) fn table6_run<T>(
        &self,
        truth: &GroundTruth,
        i: usize,
        strategy: Strategy,
        measure: impl FnOnce(Mapping) -> Result<(IterStats, T), DsmError>,
    ) -> Result<(HeuristicRow, T), DsmError> {
        let mut rng = DetRng::new(self.seed).fork(0x6E1 + i as u64);
        let mapping = place(strategy, &truth.corr, &self.cluster, &mut rng);
        let cut = cut_cost(&truth.corr, &mapping);
        let (stats, kept) = measure(mapping)?;
        let row = HeuristicRow {
            app: truth.app.clone(),
            strategy,
            time: stats.elapsed,
            remote_misses: stats.remote_misses,
            total_mbytes: stats.total_mbytes(),
            diff_mbytes: stats.diff_mbytes(),
            cut_cost: cut,
        };
        Ok((row, kept))
    }

    /// Phase-change scan: runs `iterations` actively tracked iterations
    /// under the stretch placement, feeding each iteration's correlation
    /// matrix into a windowed [`PhaseDetector`] (window length in
    /// iterations). Every detected shift is recorded — and, when the
    /// workbench observes, injected into the run's artifacts as an
    /// `Event::PhaseShift` at the current simulated time, so the trace
    /// timeline shows the re-mapping trigger ROADMAP item 2 needs.
    ///
    /// Detection is derived purely from observations; simulated time and
    /// statistics are bit-identical with detection on or off.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn phase_scan<P, F>(
        &self,
        factory: F,
        iterations: usize,
        window: usize,
    ) -> Result<PhaseScan, DsmError>
    where
        P: Program,
        F: Fn() -> P + Sync,
    {
        let (mut dsm, handle) = self.observed_dsm(
            self.config.clone(),
            factory(),
            Mapping::stretch(&self.cluster),
        )?;
        let mut detector = PhaseDetector::new(self.cluster.num_threads(), window);
        let mut stats = IterStats::new();
        let record = |mark: Option<PhaseShiftMark>, at| {
            if let (Some(mark), Some(h)) = (mark, &handle) {
                let (window, delta_ppm) = (mark.window, mark.delta_ppm);
                h.record_event(at, &Event::PhaseShift { window, delta_ppm });
            }
        };
        for _ in 0..iterations {
            let (iter_stats, access) = dsm.run_tracked_iteration()?;
            stats += iter_stats;
            record(
                detector.observe(&CorrelationMatrix::from_access(&access)),
                dsm.now(),
            );
        }
        record(detector.flush(), dsm.now());
        Ok(PhaseScan {
            app: dsm.program().name().to_owned(),
            shifts: detector.shifts().to_vec(),
            stats,
            threads: self.cluster.num_threads(),
            pages: dsm.num_pages(),
            observation: handle.map(|h| h.finish()),
        })
    }

    /// Figure 2 methodology: passive tracking with migration rounds. Each
    /// round runs one iteration observing only remote faults, accumulates
    /// the observations, re-places with min-cost on the partial
    /// correlations, and migrates. Completeness is measured against the
    /// active-tracking ground truth.
    ///
    /// The migration rounds themselves form a dependency chain (each round
    /// observes the mapping the previous round migrated to), so only the
    /// ground-truth phase parallelizes here; per-application fan-out lives
    /// in the callers (e.g. the `figure2` binary).
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn passive_study<P, F>(&self, factory: F, rounds: usize) -> Result<PassiveStudy, DsmError>
    where
        P: Program,
        F: Fn() -> P + Sync,
    {
        let truth = self.ground_truth(&factory)?;
        let mut dsm = self.dsm(factory(), Mapping::stretch(&self.cluster))?;
        let mut accumulated = AccessMatrix::new(self.cluster.num_threads(), dsm.num_pages());
        let mut completeness = Vec::with_capacity(rounds);
        let mut moves = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            dsm.enable_passive_tracking();
            dsm.run_iterations(1)?;
            let obs = dsm
                .take_passive_observations()
                .expect("passive tracking was enabled");
            accumulated.merge(&obs);
            completeness.push(accumulated.completeness_vs(&truth.access));
            // Re-place on what has been learned so far and migrate.
            let partial = CorrelationMatrix::from_access(&accumulated);
            let next = min_cost(&partial, &self.cluster);
            let report = dsm.migrate_to(next)?;
            moves.push(report.moved);
        }
        Ok(PassiveStudy {
            app: truth.app,
            completeness,
            moves,
        })
    }

    /// §7 methodology (future work, implemented): a dynamic application run
    /// under three policies over `total_iterations`:
    ///
    /// 1. static stretch;
    /// 2. one tracked iteration up front, min-cost placement, no further
    ///    adaptation;
    /// 3. a tracked iteration every `retrack_every` iterations, folded into
    ///    an exponentially aged correlation accumulator (`decay`), followed
    ///    by min-cost re-placement and migration.
    ///
    /// All tracking and migration costs are charged inside the reported
    /// statistics, so the comparison is end-to-end fair.
    ///
    /// Each policy runs its own DSM instance on a program built on the
    /// calling thread, so the three fan out across the workbench's worker
    /// threads and come back in policy order; the study is bit-identical
    /// at any worker count.
    ///
    /// # Errors
    ///
    /// Propagates engine errors. When several policies fail, the error is
    /// the first one in the order above.
    ///
    /// # Panics
    ///
    /// Panics if `total_iterations` is zero or `retrack_every` is below 2.
    pub fn adaptive_study<P, F>(
        &self,
        factory: F,
        total_iterations: usize,
        retrack_every: usize,
        decay: f64,
    ) -> Result<AdaptiveStudy, DsmError>
    where
        P: Program,
        F: Fn() -> P,
    {
        assert!(total_iterations >= 1, "total_iterations must be at least 1");
        assert!(retrack_every >= 2, "retrack_every must be at least 2");
        let policies = [
            Policy::Static,
            Policy::TrackOnce,
            Policy::Periodic {
                every: retrack_every,
                decay,
            },
        ];
        let work: Vec<(Policy, P)> = policies.map(|policy| (policy, factory())).into();
        let app = work[0].1.name().to_owned();
        let runs: Vec<PolicyRun> = par_map_indexed(self.threads, work, |_, (policy, program)| {
            self.run_policy(policy, program, total_iterations)
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
        let [fixed, once, adaptive]: [PolicyRun; 3] = runs.try_into().expect("one run per policy");
        Ok(AdaptiveStudy {
            app,
            static_stats: fixed.stats,
            track_once_stats: once.stats,
            adaptive_stats: adaptive.stats,
            adaptive_migrations: adaptive.migrations,
        })
    }

    /// Compares two answers to §7's "when should we re-track?":
    ///
    /// * **scheduled** — an active tracking phase (plus re-placement) every
    ///   `check_every` iterations, unconditionally: the periodic policy of
    ///   [`Workbench::adaptive_study`];
    /// * **drift-triggered** — run each window with cheap passive tracking
    ///   on; re-track actively only when the passive correlation snapshot
    ///   diverges from the previous window's by at least `threshold_ppm`
    ///   parts-per-million (normalized L1, see
    ///   [`AgedCorrelation::observe`]). The decision is a
    ///   [`PhaseDetector`] with one-unit windows and no baseline memory
    ///   (decay 0), so its baseline is exactly the previous passive
    ///   snapshot.
    ///
    /// Passive snapshots are biased (first local toucher only), but
    /// *consistently* biased, so window-over-window divergence is a clean
    /// phase-change signal.
    ///
    /// The two policies run side by side on the workbench's worker threads,
    /// each on its own DSM instance; the study is bit-identical at any
    /// worker count.
    ///
    /// # Errors
    ///
    /// Propagates engine errors. When both policies fail, the error is the
    /// scheduled policy's.
    ///
    /// # Panics
    ///
    /// Panics if `total_iterations` is zero or `check_every` is below 2.
    pub fn on_demand_study<P, F>(
        &self,
        factory: F,
        total_iterations: usize,
        check_every: usize,
        threshold_ppm: u64,
        decay: f64,
    ) -> Result<OnDemandStudy, DsmError>
    where
        P: Program,
        F: Fn() -> P,
    {
        assert!(total_iterations >= 1, "total_iterations must be at least 1");
        assert!(check_every >= 2, "check_every must be at least 2");
        let scheduled = Policy::Periodic {
            every: check_every,
            decay,
        };
        let drift = Policy::DriftTriggered {
            window: check_every,
            threshold_ppm,
            decay,
        };
        let (scheduled_program, drift_program) = (factory(), factory());
        let app = scheduled_program.name().to_owned();
        let (scheduled, on_demand) = par_join(
            self.threads,
            || self.run_policy(scheduled, scheduled_program, total_iterations),
            || self.run_policy(drift, drift_program, total_iterations),
        );
        let (scheduled, on_demand) = (scheduled?, on_demand?);
        Ok(OnDemandStudy {
            app,
            scheduled: scheduled.stats,
            scheduled_tracks: scheduled.tracks,
            on_demand: on_demand.stats,
            on_demand_tracks: on_demand.tracks,
        })
    }

    /// Runs one §7 placement policy for `total_iterations` on a DSM
    /// instance of its own, starting from the stretch placement, and drops
    /// the instance when the policy ends.
    fn run_policy<P: Program>(
        &self,
        policy: Policy,
        program: P,
        total_iterations: usize,
    ) -> Result<PolicyRun, DsmError> {
        let threads = self.cluster.num_threads();
        let mut dsm = self.dsm(program, Mapping::stretch(&self.cluster))?;
        let mut run = PolicyRun::default();
        match policy {
            Policy::Static => run.stats += dsm.run_iterations(total_iterations)?,
            Policy::TrackOnce => {
                let (tracked, access) = dsm.run_tracked_iteration()?;
                run.stats += tracked;
                run.tracks += 1;
                let corr = CorrelationMatrix::from_access(&access);
                run.migrations += dsm.migrate_to(min_cost(&corr, &self.cluster))?.moved;
                run.stats += dsm.run_iterations(total_iterations - 1)?;
            }
            Policy::Periodic { every, decay } => {
                let mut aged = AgedCorrelation::new(threads, decay);
                let mut done = 0;
                while done < total_iterations {
                    // Let one ordinary iteration re-cache first (latency
                    // hiding on), so the pinned tracking iteration is not
                    // also paying serialized cold misses.
                    run.stats += dsm.run_iterations(1)?;
                    done += 1;
                    if done >= total_iterations {
                        break;
                    }
                    run.retrack(&mut dsm, &mut aged, &self.cluster)?;
                    done += 1;
                    let rest = (every - 2).min(total_iterations - done);
                    run.stats += dsm.run_iterations(rest)?;
                    done += rest;
                }
            }
            Policy::DriftTriggered {
                window,
                threshold_ppm,
                decay,
            } => {
                // One tracked placement up front, then passive windows;
                // migration changes which threads fault, so the first
                // window after each migration only calibrates a new
                // baseline.
                let mut aged = AgedCorrelation::new(threads, decay);
                run.retrack(&mut dsm, &mut aged, &self.cluster)?;
                let mut done = 1;
                let detector = || {
                    PhaseDetector::with_thresholds(threads, 1, threshold_ppm, threshold_ppm, 0.0)
                };
                // A fresh detector's first window only calibrates its
                // baseline.
                let mut drift = detector();
                while done < total_iterations {
                    let span = window.min(total_iterations - done);
                    dsm.enable_passive_tracking();
                    run.stats += dsm.run_iterations(span)?;
                    done += span;
                    let observed = dsm
                        .take_passive_observations()
                        .expect("passive tracking was enabled");
                    let shifted = drift
                        .observe(&CorrelationMatrix::from_access(&observed))
                        .is_some();
                    if shifted && done < total_iterations {
                        run.retrack(&mut dsm, &mut aged, &self.cluster)?;
                        done += 1;
                        drift = detector(); // recalibrate under the new mapping
                    }
                }
            }
        }
        Ok(run)
    }
}

/// One placement policy of the §7 studies ([`Workbench::adaptive_study`],
/// [`Workbench::on_demand_study`]).
#[derive(Debug, Clone, Copy)]
enum Policy {
    /// Static stretch placement throughout.
    Static,
    /// One tracked iteration up front, min-cost placement, no adaptation.
    TrackOnce,
    /// A tracked iteration every `every` iterations, folded into
    /// correlations aged by `decay`, then min-cost re-placement.
    Periodic { every: usize, decay: f64 },
    /// Passive windows of `window` iterations; a tracked iteration and
    /// re-placement whenever a window drifts by `threshold_ppm`.
    DriftTriggered {
        window: usize,
        threshold_ppm: u64,
        decay: f64,
    },
}

/// What one policy run charged: its statistics (tracked iterations and
/// migrations included), the threads it migrated and the tracked
/// iterations it spent.
#[derive(Debug, Default)]
struct PolicyRun {
    stats: IterStats,
    migrations: usize,
    tracks: usize,
}

impl PolicyRun {
    /// One re-tracking step: an actively tracked iteration folded into
    /// `aged`, then min-cost re-placement on the aged snapshot and
    /// migration.
    fn retrack<P: Program>(
        &mut self,
        dsm: &mut Dsm<P>,
        aged: &mut AgedCorrelation,
        cluster: &ClusterConfig,
    ) -> Result<(), DsmError> {
        let (tracked, access) = dsm.run_tracked_iteration()?;
        self.stats += tracked;
        self.tracks += 1;
        aged.observe(&CorrelationMatrix::from_access(&access));
        self.migrations += dsm.migrate_to(min_cost(&aged.snapshot(), cluster))?.moved;
        Ok(())
    }
}

/// Outcome of comparing scheduled re-tracking against drift-triggered
/// re-tracking (see [`Workbench::on_demand_study`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OnDemandStudy {
    /// Application name.
    pub app: String,
    /// Re-track on a fixed schedule.
    pub scheduled: IterStats,
    /// Tracked iterations spent by the scheduled policy.
    pub scheduled_tracks: usize,
    /// Re-track only when passive observations drift.
    pub on_demand: IterStats,
    /// Tracked iterations spent by the on-demand policy.
    pub on_demand_tracks: usize,
}

impl fmt::Display for OnDemandStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", self.app)?;
        writeln!(
            f,
            "  scheduled re-tracking : {:>8} misses, {} ({} tracked iterations)",
            self.scheduled.remote_misses, self.scheduled.elapsed, self.scheduled_tracks
        )?;
        write!(
            f,
            "  drift-triggered       : {:>8} misses, {} ({} tracked iterations)",
            self.on_demand.remote_misses, self.on_demand.elapsed, self.on_demand_tracks
        )
    }
}

/// Outcome of the adaptive-migration study (§7's future work): the same
/// dynamic application run under three policies.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveStudy {
    /// Application name.
    pub app: String,
    /// Never adapt: static stretch placement.
    pub static_stats: IterStats,
    /// Track once at the start, place with min-cost, never adapt again.
    pub track_once_stats: IterStats,
    /// Re-track periodically, age the correlations, re-place and migrate.
    pub adaptive_stats: IterStats,
    /// Threads migrated by the adaptive policy over the whole run.
    pub adaptive_migrations: usize,
}

impl fmt::Display for AdaptiveStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", self.app)?;
        writeln!(
            f,
            "  static stretch : {:>8} misses, {}",
            self.static_stats.remote_misses, self.static_stats.elapsed
        )?;
        writeln!(
            f,
            "  track-once     : {:>8} misses, {}",
            self.track_once_stats.remote_misses, self.track_once_stats.elapsed
        )?;
        write!(
            f,
            "  adaptive       : {:>8} misses, {} ({} migrations)",
            self.adaptive_stats.remote_misses,
            self.adaptive_stats.elapsed,
            self.adaptive_migrations
        )
    }
}

/// One row of a node-count study (§3's four-node vs eight-node
/// discussion).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCountRow {
    /// Nodes in the configuration.
    pub nodes: usize,
    /// Total simulated run time.
    pub time: SimDuration,
    /// Remote misses over the measured iterations.
    pub remote_misses: u64,
    /// Data traffic in megabytes.
    pub total_mbytes: f64,
    /// Cut cost of the stretch mapping at this node count.
    pub cut_cost: u64,
}

impl fmt::Display for NodeCountRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes: {:>8.2}s, {:>8} misses, {:>7.1} MB, cut {:>8}",
            self.nodes,
            self.time.as_secs_f64(),
            self.remote_misses,
            self.total_mbytes,
            self.cut_cost
        )
    }
}

/// §3 methodology: run the same application (fixed thread count, stretch
/// placement) on different node counts, reporting the communication and
/// time of each. The paper uses this on 32-thread LU2k to show that the
/// eight-node configuration communicates so much more than the four-node
/// one that it can end up slower on some clusters.
///
/// Standalone function (not a [`Workbench`] method) because it varies the
/// cluster itself. Node counts are independent runs, so they fan out over
/// `jobs` pool workers (`0` = available parallelism, `1` = sequential);
/// rows come back in `node_counts` order either way.
///
/// # Errors
///
/// Propagates engine errors.
pub fn node_count_study<P, F>(
    factory: F,
    threads: usize,
    node_counts: &[usize],
    iterations: usize,
    jobs: usize,
) -> Result<Vec<NodeCountRow>, DsmError>
where
    P: Program,
    F: Fn() -> P + Sync,
{
    par_map_indexed(
        acorr_sim::resolve_threads(jobs),
        node_counts.to_vec(),
        |_, nodes| -> Result<NodeCountRow, DsmError> {
            let bench = Workbench::new(nodes, threads)?;
            let truth = bench.ground_truth(&factory)?;
            let mapping = Mapping::stretch(&bench.cluster);
            let cut = cut_cost(&truth.corr, &mapping);
            let mut dsm = bench.dsm(factory(), mapping)?;
            dsm.run_iterations(1)?; // cold-start warm-up
            let stats = dsm.run_iterations(iterations)?;
            Ok(NodeCountRow {
                nodes,
                time: stats.elapsed,
                remote_misses: stats.remote_misses,
                total_mbytes: stats.total_mbytes(),
                cut_cost: cut,
            })
        },
    )
    .into_iter()
    .collect()
}

/// Outcome of a conformance run: aggregate statistics plus the oracle's
/// checking summary (see [`Workbench::conformance_run`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceRun {
    /// Application name.
    pub app: String,
    /// Aggregate statistics over the checked iterations.
    pub stats: IterStats,
    /// What the oracle checked (violations abort the run instead).
    pub report: OracleReport,
}

impl fmt::Display for ConformanceRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<8} {} | oracle: {} barriers, {} releases, {} fetches, {:.1} MB compared, {} hazy",
            self.app,
            self.stats,
            self.report.barriers_checked,
            self.report.lock_releases_checked,
            self.report.fetches_checked,
            self.report.bytes_compared as f64 / 1e6,
            self.report.hazy_bytes,
        )
    }
}

/// Exact access information from one active-tracking phase, plus the
/// baseline and tracked iteration statistics.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Application name.
    pub app: String,
    /// Per-thread access bitmaps (the tracking phase's direct output).
    pub access: AccessMatrix,
    /// Thread correlations derived from `access`.
    pub corr: CorrelationMatrix,
    /// The placement used while tracking (stretch).
    pub mapping: Mapping,
    /// Statistics of the untracked baseline iteration.
    pub baseline: IterStats,
    /// Statistics of the tracked iteration.
    pub tracked: IterStats,
}

/// One row of Table 5.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackingOverheadRow {
    /// Application name.
    pub app: String,
    /// Iteration time with tracking off.
    pub time_off: SimDuration,
    /// Iteration time with tracking on.
    pub time_on: SimDuration,
    /// Percent slowdown from off to on.
    pub slowdown_pct: f64,
    /// Correlation faults during the tracked iteration.
    pub tracking_faults: u64,
    /// Coherence faults during the tracked iteration.
    pub coherence_faults: u64,
    /// Sharing degree (Table 5's last column).
    pub sharing_degree: f64,
}

impl fmt::Display for TrackingOverheadRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<8} off {:>9.3}s on {:>9.3}s (+{:.2}%) tracking {:>7} coherence {:>7} degree {:.3}",
            self.app,
            self.time_off.as_secs_f64(),
            self.time_on.as_secs_f64(),
            self.slowdown_pct,
            self.tracking_faults,
            self.coherence_faults,
            self.sharing_degree,
        )
    }
}

/// One (configuration, outcome) point of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutCostSample {
    /// Cut cost of the random configuration.
    pub cut_cost: u64,
    /// Remote misses measured under it.
    pub remote_misses: u64,
}

/// Table 2 row plus the Figure 1 scatter data behind it.
#[derive(Debug, Clone)]
pub struct CutCostStudy {
    /// Application name.
    pub app: String,
    /// The per-configuration samples.
    pub samples: Vec<CutCostSample>,
    /// Least-squares fit of misses against cut cost (`None` if degenerate).
    pub fit: Option<LinearFit>,
}

impl CutCostStudy {
    /// Serializes the scatter as `cut_cost,remote_misses` CSV (Figure 1).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("cut_cost,remote_misses\n");
        for s in &self.samples {
            out.push_str(&format!("{},{}\n", s.cut_cost, s.remote_misses));
        }
        out
    }
}

/// One row of Table 6.
#[derive(Debug, Clone, PartialEq)]
pub struct HeuristicRow {
    /// Application name.
    pub app: String,
    /// The placement strategy used.
    pub strategy: Strategy,
    /// Total simulated run time.
    pub time: SimDuration,
    /// Remote misses over the run.
    pub remote_misses: u64,
    /// Total data traffic in megabytes.
    pub total_mbytes: f64,
    /// Diff traffic in megabytes.
    pub diff_mbytes: f64,
    /// Cut cost of the placement.
    pub cut_cost: u64,
}

impl fmt::Display for HeuristicRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<8} {:<10} {:>9.2}s {:>9} misses {:>8.1} MB {:>8.1} MB diff cut {:>8}",
            self.app,
            self.strategy.to_string(),
            self.time.as_secs_f64(),
            self.remote_misses,
            self.total_mbytes,
            self.diff_mbytes,
            self.cut_cost,
        )
    }
}

/// Outcome of [`Workbench::observed_heuristic_run`]: the Table 6 row, the
/// complete measured statistics (the manifest digest's preimage), and the
/// rendered observability artifacts when the workbench observes.
#[derive(Debug)]
pub struct ObservedRun {
    /// The Table 6 row, bit-identical to
    /// [`Workbench::heuristic_comparison`]'s first row for the same
    /// parameters.
    pub row: HeuristicRow,
    /// Aggregate statistics over the measured iterations (excluding the
    /// warm-up iteration).
    pub stats: IterStats,
    /// Application threads of the run.
    pub threads: usize,
    /// Shared pages of the run: with `threads`, what its event log can name.
    pub pages: usize,
    /// Rendered artifacts (`None` without [`Workbench::with_observer`]).
    pub observation: Option<Observation>,
}

/// One phase-change scan: detected correlation shifts plus the run's
/// statistics and artifacts.
#[derive(Debug)]
pub struct PhaseScan {
    /// Application name.
    pub app: String,
    /// Detected phase shifts, in firing order (window ordinals are
    /// 0-based window indices of `iterations / window` tumbling windows).
    pub shifts: Vec<PhaseShiftMark>,
    /// Aggregate statistics over the scanned iterations.
    pub stats: IterStats,
    /// Application threads of the run.
    pub threads: usize,
    /// Shared pages of the run: with `threads`, what its event log can name.
    pub pages: usize,
    /// Rendered artifacts (`None` without [`Workbench::with_observer`]).
    pub observation: Option<Observation>,
}

/// Figure 2 data: information completeness per passive migration round.
#[derive(Debug, Clone, PartialEq)]
pub struct PassiveStudy {
    /// Application name.
    pub app: String,
    /// Fraction of the complete sharing information gathered after each
    /// round (cumulative).
    pub completeness: Vec<f64>,
    /// Threads migrated after each round (the ping-pong signal).
    pub moves: Vec<usize>,
}

/// One production-scale placement run: synthetic workload statistics,
/// wall-clock timings and a reproducibility digest (see
/// [`scale_placement_study`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePlacement {
    /// Threads placed.
    pub threads: usize,
    /// Nodes placed onto.
    pub nodes: usize,
    /// Affinity edges per thread requested of the generator.
    pub degree: usize,
    /// Generator seed.
    pub seed: u64,
    /// Distinct nonzero thread pairs in the generated store.
    pub edges: usize,
    /// Wall-clock time to generate the synthetic store.
    pub gen_ms: f64,
    /// Wall-clock time of the multilevel placement itself.
    pub place_ms: f64,
    /// Cut cost of the multilevel mapping (ordered-pair convention).
    pub cut: u64,
    /// Cut cost of the stretch baseline on the same store.
    pub stretch_cut: u64,
    /// `fnv1a:` digest over the assignment (`u16` little-endian node ids in
    /// thread order) — bit-identical runs agree on this string.
    pub digest: String,
}

impl fmt::Display for ScalePlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} threads x {} nodes: {} edges, gen {:.0} ms, place {:.0} ms, \
             cut {} (stretch {}), digest {}",
            self.threads,
            self.nodes,
            self.edges,
            self.gen_ms,
            self.place_ms,
            self.cut,
            self.stretch_cut,
            self.digest
        )
    }
}

/// FNV-1a digest of a mapping's assignment: node ids in thread order as
/// little-endian `u16` bytes. The machine-independent fingerprint the scale
/// benches and CI pin.
pub fn mapping_digest(mapping: &Mapping) -> String {
    let mut bytes = Vec::with_capacity(mapping.num_threads() * 2);
    for t in 0..mapping.num_threads() {
        bytes.extend_from_slice(&mapping.node_of(t).0.to_le_bytes());
    }
    acorr_obs::bytes_digest(&bytes)
}

/// ROADMAP scale point: place `threads` synthetic threads (power-law
/// affinity, ~`degree` edges each, seeded by `seed`) on `nodes` nodes with
/// the multilevel partitioner and report timings, cut costs and the
/// assignment digest.
///
/// Standalone function (not a [`Workbench`] method) because its thread
/// counts are far beyond what the DSM engine simulates. `jobs` parallelises
/// only the synthetic generation (`0` = available cores); the placement is
/// sequential and the entire result is bit-identical for every `jobs`
/// value.
///
/// # Errors
///
/// Returns, before generating anything,
/// [`TopologyError::ThreadsOutOfRange`] unless `2 <= threads <=
/// u32::MAX` (affinity edges need two endpoints, and store rows name
/// partners in 32 bits), and propagates [`ClusterConfig::new`]'s
/// validation: [`TopologyError::NoNodes`] for `nodes == 0`,
/// [`TopologyError::TooManyNodes`] for more nodes than 16-bit node ids can
/// name, and [`TopologyError::TooFewThreads`] for `threads < nodes`.
pub fn scale_placement_study(
    threads: usize,
    nodes: usize,
    degree: usize,
    seed: u64,
    jobs: usize,
) -> Result<ScalePlacement, DsmError> {
    use acorr_place::{multilevel_place, power_law_affinity};

    let max = u32::MAX as usize;
    if !(2..=max).contains(&threads) {
        return Err(TopologyError::ThreadsOutOfRange {
            threads,
            min: 2,
            max,
        }
        .into());
    }
    let cluster = ClusterConfig::new(nodes, threads)?;
    let start = std::time::Instant::now();
    let corr = power_law_affinity(threads, degree, seed, jobs);
    let gen_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = std::time::Instant::now();
    let mapping = multilevel_place(&corr, &cluster);
    let place_ms = start.elapsed().as_secs_f64() * 1e3;
    Ok(ScalePlacement {
        threads,
        nodes,
        degree,
        seed,
        edges: corr.edge_count(),
        gen_ms,
        place_ms,
        cut: cut_cost(&corr, &mapping),
        stretch_cut: cut_cost(&corr, &Mapping::stretch(&cluster)),
        digest: mapping_digest(&mapping),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorr_apps::{Sor, Water};

    fn bench() -> Workbench {
        Workbench::new(2, 8).unwrap()
    }

    #[test]
    fn ground_truth_has_complete_access_info() {
        let truth = bench().ground_truth(|| Sor::new(64, 64, 8)).unwrap();
        // Every thread touches its own rows at minimum.
        for t in 0..8 {
            assert!(truth.access.pages_touched(t) > 0, "thread {t}");
        }
        assert!(truth.tracked.tracking_faults >= truth.access.total_observations() as u64);
        assert_eq!(truth.corr.num_threads(), 8);
    }

    #[test]
    fn tracking_overhead_is_positive() {
        let row = bench().tracking_overhead(|| Sor::new(64, 64, 8)).unwrap();
        assert!(row.slowdown_pct > 0.0, "{row}");
        assert!(row.time_on > row.time_off);
        assert!(row.sharing_degree >= 1.0);
    }

    #[test]
    fn cutcost_study_produces_fit_and_samples() {
        let study = bench()
            .cutcost_study(|| Sor::new(64, 64, 8), 12, 1)
            .unwrap();
        assert_eq!(study.samples.len(), 12);
        let fit = study.fit.expect("non-degenerate");
        assert!(fit.r > 0.0, "misses grow with cut cost: {fit}");
        let csv = study.to_csv();
        assert!(csv.lines().count() == 13);
    }

    #[test]
    fn heuristic_comparison_favors_min_cost_on_sor() {
        let rows = bench()
            .heuristic_comparison(
                || Sor::new(64, 64, 8),
                &[Strategy::MinCost, Strategy::RandomBalanced],
                3,
            )
            .unwrap();
        assert_eq!(rows.len(), 2);
        let (mc, ran) = (&rows[0], &rows[1]);
        assert!(mc.cut_cost <= ran.cut_cost);
        assert!(mc.remote_misses <= ran.remote_misses, "{mc}\n{ran}");
    }

    #[test]
    fn passive_study_is_monotone_and_incomplete() {
        let study = bench().passive_study(|| Water::new(64, 8), 5).unwrap();
        assert_eq!(study.completeness.len(), 5);
        for w in study.completeness.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "cumulative: {:?}", study.completeness);
        }
        // Passive tracking cannot see node-0-local silent sharers in one
        // round; it starts below 100%.
        assert!(study.completeness[0] < 1.0);
        assert_eq!(study.moves.len(), 5);
    }

    #[test]
    fn workbench_is_deterministic() {
        let a = bench().cutcost_study(|| Water::new(64, 8), 5, 1).unwrap();
        let b = bench().cutcost_study(|| Water::new(64, 8), 5, 1).unwrap();
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn parallel_studies_are_bit_identical_to_sequential() {
        let seq = bench()
            .with_threads(1)
            .cutcost_study(|| Water::new(64, 8), 8, 1)
            .unwrap();
        let par = bench()
            .with_threads(4)
            .cutcost_study(|| Water::new(64, 8), 8, 1)
            .unwrap();
        assert_eq!(seq.samples, par.samples);
        assert_eq!(seq.to_csv(), par.to_csv());
        let strategies = [Strategy::MinCost, Strategy::RandomBalanced];
        let rows_seq = bench()
            .with_threads(1)
            .heuristic_comparison(|| Sor::new(64, 64, 8), &strategies, 2)
            .unwrap();
        let rows_par = bench()
            .with_threads(3)
            .heuristic_comparison(|| Sor::new(64, 64, 8), &strategies, 2)
            .unwrap();
        assert_eq!(rows_seq, rows_par);
    }

    #[test]
    fn conformance_run_is_clean_and_faults_slow_it_down() {
        let clean = bench().conformance_run(Sor::new(64, 64, 8), 3).unwrap();
        assert_eq!(clean.report.violations, 0);
        assert!(clean.report.barriers_checked >= 3);
        assert_eq!(clean.stats.retries, 0);
        let faulty = bench()
            .with_faults(FaultPlan::heavy(17))
            .conformance_run(Sor::new(64, 64, 8), 3)
            .unwrap();
        assert_eq!(faulty.report.violations, 0);
        assert!(faulty.stats.retries > 0, "heavy plan must drop something");
        assert!(faulty.stats.elapsed > clean.stats.elapsed);
        // The paper-reproduction counters are unchanged by faults.
        assert_eq!(faulty.stats.remote_misses, clean.stats.remote_misses);
        assert_eq!(
            faulty.stats.net.total_bytes(),
            clean.stats.net.total_bytes()
        );
        assert!(clean.to_string().contains("oracle"));
    }

    #[test]
    fn faulty_workbench_studies_are_deterministic() {
        let make = || {
            bench()
                .with_faults(FaultPlan::moderate(5))
                .cutcost_study(|| Water::new(64, 8), 4, 1)
                .unwrap()
        };
        let (a, b) = (make(), make());
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn observer_is_a_pure_observer_for_studies() {
        let plain = bench().cutcost_study(|| Water::new(64, 8), 4, 1).unwrap();
        let observed = bench()
            .with_observer()
            .cutcost_study(|| Water::new(64, 8), 4, 1)
            .unwrap();
        assert_eq!(plain.samples, observed.samples);
    }

    #[test]
    fn observed_run_matches_heuristic_comparison_row() {
        let rows = bench()
            .heuristic_comparison(|| Sor::new(64, 64, 8), &[Strategy::MinCost], 2)
            .unwrap();
        let run = bench()
            .with_observer()
            .observed_heuristic_run(|| Sor::new(64, 64, 8), Strategy::MinCost, 2)
            .unwrap();
        assert_eq!(run.row, rows[0]);
        assert_eq!(run.stats.remote_misses, rows[0].remote_misses);
        let obs = run.observation.expect("observer configured");
        assert!(!obs.events_jsonl.is_empty());
        assert!(obs.metrics_csv.lines().count() > 1);
        // Without an observer there is nothing to collect, but the row
        // and stats are unchanged.
        let plain = bench()
            .observed_heuristic_run(|| Sor::new(64, 64, 8), Strategy::MinCost, 2)
            .unwrap();
        assert_eq!(plain.row, rows[0]);
        assert_eq!(plain.stats, run.stats);
        assert!(plain.observation.is_none());
    }

    #[test]
    fn node_count_study_parallel_matches_sequential() {
        let app = || Sor::new(64, 64, 8);
        let seq = node_count_study(app, 8, &[2, 4], 2, 1).unwrap();
        let par = node_count_study(app, 8, &[2, 4], 2, 4).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn scale_placement_study_is_jobs_invariant() {
        let seq = scale_placement_study(2000, 10, 6, 42, 1).unwrap();
        let par = scale_placement_study(2000, 10, 6, 42, 8).unwrap();
        assert_eq!(seq.digest, par.digest, "jobs must not change the mapping");
        assert_eq!(seq.cut, par.cut);
        assert_eq!(seq.edges, par.edges);
        assert!(
            seq.cut < seq.stretch_cut,
            "multilevel {} must beat stretch {} on community structure",
            seq.cut,
            seq.stretch_cut
        );
        assert!(seq.digest.starts_with("fnv1a:"));
    }

    #[test]
    fn scale_placement_study_rejects_bad_topology() {
        assert!(scale_placement_study(4, 8, 4, 1, 1).is_err());
        let out_of_range = |threads| {
            DsmError::from(TopologyError::ThreadsOutOfRange {
                threads,
                min: 2,
                max: u32::MAX as usize,
            })
        };
        for threads in [0, 1, u32::MAX as usize + 1, 5_000_000_000] {
            assert_eq!(
                scale_placement_study(threads, 1, 4, 1, 1),
                Err(out_of_range(threads))
            );
        }
        assert_eq!(
            scale_placement_study(70_000, 70_000, 4, 1, 1),
            Err(DsmError::from(TopologyError::TooManyNodes {
                nodes: 70_000
            }))
        );
    }

    #[test]
    fn phase_scan_flags_drift_shift_within_one_window() {
        use acorr_apps::Drift;
        // Drift's partner offset jumps every `period` iterations; with a
        // detector window of 2 the first post-shift window is ordinal 2
        // (iterations 4-5), so the acceptance bound "within one window of
        // ground truth" allows windows 2 or 3.
        let scan = bench()
            .with_observer()
            .phase_scan(|| Drift::new(256, 8, 4), 12, 2)
            .unwrap();
        assert_eq!(scan.app, "Drift");
        let first = scan.shifts.first().expect("drift shift detected");
        assert!(
            (2..=3).contains(&first.window),
            "fired at window {} (boundary window is 2)",
            first.window
        );
        // The detected shift lands on the Perfetto control lane and in the
        // structured log.
        let obs = scan.observation.expect("observer configured");
        assert!(obs.chrome_trace.contains("\"phase_shift\""));
        assert!(obs.events_jsonl.contains("\"phase_shift\""));
        // Span profiling rode along: the engine bracketed its phases.
        assert!(obs.events_jsonl.contains("\"span_begin\""));
    }

    #[test]
    fn phase_scan_without_shift_stays_quiet_and_deterministic() {
        let run = || bench().phase_scan(|| Sor::new(64, 64, 8), 8, 2).unwrap();
        let (a, b) = (run(), run());
        assert!(
            a.shifts.is_empty(),
            "static SOR must not fire: {:?}",
            a.shifts
        );
        assert_eq!(a.shifts, b.shifts);
        assert_eq!(a.stats, b.stats);
        assert!(a.observation.is_none(), "no observer configured");
    }
}
