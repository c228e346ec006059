//! The four named workloads and the three pipelines behind them.
//!
//! Each pipeline has an untraced unit, which is one call to the program's
//! public entry point and the only source of end-to-end numbers, and a
//! traced unit: a copy of that entry point's loop rebuilt from public calls
//! with a span around each call. The copy must produce the same output as
//! the entry point; the runner checks that on every traced unit.

use crate::trace::Tracer;
use acorr::apps::{by_name as app_by_name, Drift, SUITE_NAMES};
use acorr::dsm::{IterStats, Program};
use acorr::experiment::{mapping_digest, AdaptiveStudy, Workbench};
use acorr::obs::{bytes_digest, stats_digest, PhaseDetector};
use acorr::place::{min_cost, multilevel_place, plan_migration, power_law_affinity, refine_kl};
use acorr::sim::{ClusterConfig, Mapping, Scenario, TrafficConfig, TrafficDriver};
use acorr::track::{cut_cost, AgedCorrelation, CorrelationMatrix, SparseCorrelation};
use acorr::{ServeDecision, ServeOptions, ServeReport};

/// Worker count handed to every public function that takes one. Fixed, so
/// results from machines with different core counts stay comparable; it
/// equals `nproc` on the 2-core reference machine.
pub const JOBS: usize = 2;

/// The seed the digest pins below were recorded at.
pub const DEFAULT_SEED: u64 = 42;

/// Workload names, in `--all` order.
pub const NAMES: [&str; 4] = [
    "paper-64x8",
    "scale-1m",
    "serve-churn-100k",
    "serve-static-100k",
];

/// Per-study digests of `paper-64x8` (see [`study_digest`]); the engine
/// is deterministic and takes no seed, so these hold at every seed.
const PAPER_PINS: [(&str, &str); 11] = [
    ("Barnes", "fnv1a:e8f919f745d5dbca"),
    ("FFT6", "fnv1a:87b01a9131e975e0"),
    ("FFT7", "fnv1a:3895397da3abfff3"),
    ("FFT8", "fnv1a:418300e83dfbd5e7"),
    ("LU1k", "fnv1a:145fd5ae32caaba6"),
    ("LU2k", "fnv1a:2194b375b1bc4582"),
    ("Ocean", "fnv1a:75f5927f93737ddd"),
    ("Spatial", "fnv1a:fc671d888516d29f"),
    ("SOR", "fnv1a:b6668600ea20a9d9"),
    ("Water", "fnv1a:03901b58230b3287"),
    ("Drift", "fnv1a:ef5c19afc04d04f0"),
];

/// Steps per serve unit: five traffic generations, so 4 tenant re-matches
/// on churn traffic, and short enough that a run measures about ten units.
const SERVE_STEPS: usize = 60;

/// Re-track period and aging decay of the adaptive study.
const RETRACK_EVERY: usize = 5;
const DECAY: f64 = 0.25;

/// What the output checks found in one unit.
#[derive(Debug)]
pub struct Outcome {
    /// Digest of the whole output. Every unit of a run must repeat it, and
    /// the traced copy must reproduce it.
    pub digest: String,
    /// Whether the output matches the values recorded at [`DEFAULT_SEED`];
    /// `None` when nothing is pinned for this seed and size.
    pub pinned: Option<bool>,
    /// Cross-node traffic under the placement the system chose.
    pub cut: u64,
    /// The same traffic under the stretch placement.
    pub stretch_cut: u64,
    /// The first output check that failed.
    pub problem: Option<String>,
}

/// One pipeline as the runner drives it.
pub trait Pipeline {
    /// What set-up builds from the seed.
    type Input;
    /// What one unit returns.
    type Output;
    /// Builds the input (set-up work; spans go to `tracer`).
    fn build(&self, seed: u64, tracer: &mut Tracer) -> Result<Self::Input, String>;
    /// One untraced call to the public entry point.
    fn unit(&self, input: &Self::Input) -> Result<Self::Output, String>;
    /// The same unit, rebuilt from public calls with a span around each.
    fn traced_unit(&self, input: &Self::Input, tracer: &mut Tracer)
        -> Result<Self::Output, String>;
    /// Checks an output and digests it.
    fn judge(&self, input: &Self::Input, output: &Self::Output) -> Outcome;
}

/// A workload: a name bound to one pipeline at one size.
pub enum Workload {
    /// `adaptive_study` over the paper's suite.
    Paper(Paper),
    /// `multilevel_place` on a synthetic power-law store.
    Scale(Scale),
    /// `serve_traffic` on synthetic multi-tenant traffic.
    Serve(Serve),
}

/// The workload called `name`, at benchmark size.
pub fn by_name(name: &str) -> Option<Workload> {
    Some(match name {
        "paper-64x8" => Workload::Paper(Paper::suite()),
        "scale-1m" => Workload::Scale(Scale {
            threads: 1_000_000,
            nodes: 1000,
            degree: 8,
            pin: Some("fnv1a:abcdd71d87d9eced"),
        }),
        "serve-churn-100k" => Workload::Serve(Serve {
            threads: 100_000,
            nodes: 256,
            scenario: Scenario::Churn,
            steps: SERVE_STEPS,
            pin: Some(("fnv1a:7fb11872e6be710e", "fnv1a:b1b76bcb81765175")),
        }),
        "serve-static-100k" => Workload::Serve(Serve {
            threads: 100_000,
            nodes: 256,
            scenario: Scenario::Static,
            steps: SERVE_STEPS,
            pin: Some(("fnv1a:cbf29ce484222325", "fnv1a:30301386387f5925")),
        }),
        _ => return None,
    })
}

/// Per-node populations of the stretch placement, which every placement
/// the program returns must keep.
fn quota_problem(mapping: &Mapping, quotas: &[usize]) -> Option<String> {
    let counts = mapping.node_counts();
    (counts != quotas).then(|| "mapping breaks the stretch per-node quotas".to_owned())
}

fn pin_check(seed: u64, pinned: Option<&str>, digest: &str) -> Option<bool> {
    pinned
        .filter(|_| seed == DEFAULT_SEED)
        .map(|pin| pin == digest)
}

type AppFactory = Box<dyn Fn() -> Box<dyn Program>>;

/// The paper pipeline: engine → tracking → placement → migration.
pub struct Paper {
    nodes: usize,
    threads: usize,
    apps: Vec<AppFactory>,
    pins: Option<&'static [(&'static str, &'static str)]>,
}

impl Paper {
    /// All ten Table 1 apps plus Drift, 64 threads on 8 nodes.
    pub fn suite() -> Paper {
        let mut apps: Vec<AppFactory> = SUITE_NAMES
            .iter()
            .map(|&name| {
                Box::new(move || app_by_name(name, 64).expect("suite names are known"))
                    as AppFactory
            })
            .collect();
        apps.push(Box::new(|| Box::new(Drift::new(2048, 64, 12))));
        Paper {
            nodes: 8,
            threads: 64,
            apps,
            pins: Some(&PAPER_PINS),
        }
    }

    /// Two small apps on 8 threads, for tests.
    #[cfg(test)]
    pub fn toy() -> Paper {
        use acorr::apps::Sor;
        Paper {
            nodes: 2,
            threads: 8,
            apps: vec![
                Box::new(|| Box::new(Sor::new(64, 64, 8))),
                Box::new(|| Box::new(Drift::new(256, 8, 4))),
            ],
            pins: None,
        }
    }
}

/// Input of [`Paper`]: the workbench and each app's iteration count.
pub struct PaperInput {
    bench: Workbench,
    iterations: Vec<usize>,
}

impl Pipeline for Paper {
    type Input = PaperInput;
    type Output = Vec<AdaptiveStudy>;

    fn build(&self, seed: u64, _tracer: &mut Tracer) -> Result<PaperInput, String> {
        let bench = Workbench::new(self.nodes, self.threads)
            .map_err(|e| e.to_string())?
            .with_seed(seed)
            .with_threads(JOBS);
        let iterations = self.apps.iter().map(|f| f().default_iterations()).collect();
        Ok(PaperInput { bench, iterations })
    }

    fn unit(&self, input: &PaperInput) -> Result<Vec<AdaptiveStudy>, String> {
        self.apps
            .iter()
            .zip(&input.iterations)
            .map(|(f, &total)| {
                input
                    .bench
                    .adaptive_study(f, total, RETRACK_EVERY, DECAY)
                    .map_err(|e| e.to_string())
            })
            .collect()
    }

    fn traced_unit(
        &self,
        input: &PaperInput,
        t: &mut Tracer,
    ) -> Result<Vec<AdaptiveStudy>, String> {
        let mut studies = Vec::with_capacity(self.apps.len());
        for (f, &total) in self.apps.iter().zip(&input.iterations) {
            let study =
                traced_adaptive_study(&input.bench, f, total, t).map_err(|e| e.to_string())?;
            for stats in [
                &study.static_stats,
                &study.track_once_stats,
                &study.adaptive_stats,
            ] {
                t.count("dsm.iterations", total as f64);
                t.count("dsm.remote_misses", stats.remote_misses as f64);
                t.count("dsm.tracking_faults", stats.tracking_faults as f64);
                t.count("dsm.diffs_created", stats.diffs_created as f64);
            }
            studies.push(study);
        }
        Ok(studies)
    }

    fn judge(&self, _input: &PaperInput, studies: &Vec<AdaptiveStudy>) -> Outcome {
        let digests: Vec<String> = studies.iter().map(study_digest).collect();
        Outcome {
            digest: bytes_digest(digests.join("\n").as_bytes()),
            pinned: self.pins.map(|pins| {
                let got = studies
                    .iter()
                    .zip(&digests)
                    .map(|(s, d)| (s.app.as_str(), d.as_str()));
                got.eq(pins.iter().copied())
            }),
            cut: studies.iter().map(|s| s.adaptive_stats.remote_misses).sum(),
            stretch_cut: studies.iter().map(|s| s.static_stats.remote_misses).sum(),
            problem: (studies.len() != self.apps.len())
                .then(|| format!("{} studies for {} apps", studies.len(), self.apps.len())),
        }
    }
}

/// Digest of one study's simulated statistics under all three policies.
fn study_digest(study: &AdaptiveStudy) -> String {
    let text = format!(
        "{} {} {} {} {}",
        study.app,
        stats_digest(&study.static_stats),
        stats_digest(&study.track_once_stats),
        stats_digest(&study.adaptive_stats),
        study.adaptive_migrations
    );
    bytes_digest(text.as_bytes())
}

/// `Workbench::adaptive_study`'s three policies, call for call.
fn traced_adaptive_study(
    bench: &Workbench,
    factory: &AppFactory,
    total: usize,
    t: &mut Tracer,
) -> Result<AdaptiveStudy, acorr::dsm::DsmError> {
    let threads = bench.cluster.num_threads();
    let stretch = Mapping::stretch(&bench.cluster);

    let mut static_dsm = t.span("dsm.new", |_| bench.dsm(factory(), stretch.clone()))?;
    let static_stats = t.span("dsm.run", |_| static_dsm.run_iterations(total))?;
    let app = static_dsm.program().name().to_owned();

    let mut once_dsm = t.span("dsm.new", |_| bench.dsm(factory(), stretch.clone()))?;
    let (mut track_once_stats, access) =
        t.span("dsm.tracked", |_| once_dsm.run_tracked_iteration())?;
    let corr = t.span("track.from_access", |_| {
        CorrelationMatrix::from_access(&access)
    });
    let target = t.span("place.min_cost", |_| min_cost(&corr, &bench.cluster));
    let moved = t
        .span("dsm.migrate", |_| once_dsm.migrate_to(target))?
        .moved;
    t.count("dsm.migrated_threads", moved as f64);
    track_once_stats += t.span("dsm.run", |_| once_dsm.run_iterations(total - 1))?;

    let mut adaptive_dsm = t.span("dsm.new", |_| bench.dsm(factory(), stretch))?;
    let mut aged = AgedCorrelation::new(threads, DECAY);
    let mut adaptive_stats = IterStats::new();
    let mut migrations = 0;
    let mut done = 0;
    while done < total {
        adaptive_stats += t.span("dsm.run", |_| adaptive_dsm.run_iterations(1))?;
        done += 1;
        if done >= total {
            break;
        }
        let (tracked, access) = t.span("dsm.tracked", |_| adaptive_dsm.run_tracked_iteration())?;
        adaptive_stats += tracked;
        done += 1;
        let corr = t.span("track.from_access", |_| {
            CorrelationMatrix::from_access(&access)
        });
        let snapshot = t.span("track.aging", |_| {
            aged.observe(&corr);
            aged.snapshot()
        });
        let target = t.span("place.min_cost", |_| min_cost(&snapshot, &bench.cluster));
        migrations += t
            .span("dsm.migrate", |_| adaptive_dsm.migrate_to(target))?
            .moved;
        let rest = (RETRACK_EVERY - 2).min(total - done);
        adaptive_stats += t.span("dsm.run", |_| adaptive_dsm.run_iterations(rest))?;
        done += rest;
    }
    t.count("dsm.migrated_threads", migrations as f64);
    Ok(AdaptiveStudy {
        app,
        static_stats,
        track_once_stats,
        adaptive_stats,
        adaptive_migrations: migrations,
    })
}

/// The scale pipeline: generate → multilevel placement → cut.
pub struct Scale {
    /// Threads placed.
    pub threads: usize,
    /// Nodes placed onto.
    pub nodes: usize,
    /// Affinity edges per thread.
    pub degree: usize,
    /// Mapping digest at [`DEFAULT_SEED`].
    pub pin: Option<&'static str>,
}

/// Input of [`Scale`]: the synthetic store and its stretch baseline.
pub struct ScaleInput {
    seed: u64,
    corr: SparseCorrelation,
    cluster: ClusterConfig,
    quotas: Vec<usize>,
    stretch_cut: u64,
}

impl Pipeline for Scale {
    type Input = ScaleInput;
    type Output = (Mapping, u64);

    fn build(&self, seed: u64, t: &mut Tracer) -> Result<ScaleInput, String> {
        let cluster = ClusterConfig::new(self.nodes, self.threads).map_err(|e| e.to_string())?;
        let corr = t.span("place.synth", |_| {
            power_law_affinity(self.threads, self.degree, seed, JOBS)
        });
        let stretch = Mapping::stretch(&cluster);
        let stretch_cut = t.span("track.cut", |_| cut_cost(&corr, &stretch));
        Ok(ScaleInput {
            seed,
            corr,
            cluster,
            quotas: stretch.node_counts(),
            stretch_cut,
        })
    }

    fn unit(&self, input: &ScaleInput) -> Result<(Mapping, u64), String> {
        let mapping = multilevel_place(&input.corr, &input.cluster);
        let cut = cut_cost(&input.corr, &mapping);
        Ok((mapping, cut))
    }

    fn traced_unit(&self, input: &ScaleInput, t: &mut Tracer) -> Result<(Mapping, u64), String> {
        let mapping = t.span("place.multilevel", |_| {
            multilevel_place(&input.corr, &input.cluster)
        });
        let cut = t.span("track.cut", |_| cut_cost(&input.corr, &mapping));
        t.count("track.edges", input.corr.edge_count() as f64);
        t.count("place.cut", cut as f64);
        t.count("place.stretch_cut", input.stretch_cut as f64);
        Ok((mapping, cut))
    }

    fn judge(&self, input: &ScaleInput, (mapping, cut): &(Mapping, u64)) -> Outcome {
        // Recount the cut from the adjacency lists rather than through
        // `cut_cost`, so a change to `cut_cost` cannot vouch for itself.
        let mut recount = 0u64;
        for t in 0..input.corr.num_threads() {
            let node = mapping.node_of(t);
            for &(u, v) in input.corr.neighbors(t) {
                if mapping.node_of(u as usize) != node {
                    recount += v;
                }
            }
        }
        let digest = mapping_digest(mapping);
        let problem = quota_problem(mapping, &input.quotas).or_else(|| {
            (recount != *cut).then(|| format!("cut reported {cut}, recounted {recount}"))
        });
        Outcome {
            pinned: pin_check(input.seed, self.pin, &digest),
            digest,
            cut: *cut,
            stretch_cut: input.stretch_cut,
            problem,
        }
    }
}

/// The serve pipeline: traffic → ingest → detect → candidate → gate.
pub struct Serve {
    /// Threads served.
    pub threads: usize,
    /// Nodes served on.
    pub nodes: usize,
    /// Traffic script.
    pub scenario: Scenario,
    /// Steps per unit.
    pub steps: usize,
    /// (timeline digest, final mapping digest) at [`DEFAULT_SEED`].
    pub pin: Option<(&'static str, &'static str)>,
}

/// Input of [`Serve`]: the seeded workbench and the service options.
pub struct ServeInput {
    seed: u64,
    bench: Workbench,
    options: ServeOptions,
    quotas: Vec<usize>,
}

impl Pipeline for Serve {
    type Input = ServeInput;
    type Output = ServeReport;

    fn build(&self, seed: u64, _tracer: &mut Tracer) -> Result<ServeInput, String> {
        let bench = Workbench::new(self.nodes, self.threads)
            .map_err(|e| e.to_string())?
            .with_seed(seed)
            .with_threads(JOBS);
        let quotas = Mapping::stretch(&bench.cluster).node_counts();
        Ok(ServeInput {
            seed,
            bench,
            options: ServeOptions::new(self.scenario).with_steps(self.steps),
            quotas,
        })
    }

    fn unit(&self, input: &ServeInput) -> Result<ServeReport, String> {
        Ok(input.bench.serve_traffic(&input.options))
    }

    fn traced_unit(&self, input: &ServeInput, t: &mut Tracer) -> Result<ServeReport, String> {
        Ok(traced_serve_traffic(&input.bench, &input.options, t))
    }

    fn judge(&self, input: &ServeInput, report: &ServeReport) -> Outcome {
        let timeline = pin_check(
            input.seed,
            self.pin.map(|(tl, _)| tl),
            &report.timeline_digest(),
        );
        let mapping = pin_check(
            input.seed,
            self.pin.map(|(_, map)| map),
            &report.final_mapping_digest(),
        );
        let pinned = timeline.zip(mapping).map(|(tl, map)| tl && map);
        Outcome {
            digest: bytes_digest(report.snapshot().as_bytes()),
            pinned,
            cut: report.served_cut,
            stretch_cut: report.static_cut,
            problem: quota_problem(&report.final_mapping, &input.quotas)
                .or_else(|| timeline_problem(report)),
        }
    }
}

/// Checks that the timeline agrees with the report's counters and that
/// every accepted re-map passed the gate.
fn timeline_problem(report: &ServeReport) -> Option<String> {
    let (mut shifts, mut accepted, mut rejected, mut moved) = (0, 0, 0, 0u64);
    for decision in &report.timeline {
        match *decision {
            ServeDecision::Shift { .. } => shifts += 1,
            ServeDecision::Remap {
                accepted: true,
                moves,
                cut_before,
                cut_after,
                cost,
                ..
            } => {
                if cut_before.saturating_sub(cut_after) <= cost {
                    return Some(format!("accepted re-map fails the gate: {decision}"));
                }
                accepted += 1;
                moved += moves;
            }
            ServeDecision::Remap { .. } => rejected += 1,
        }
    }
    let counted = (shifts, accepted, rejected, moved);
    let reported = (
        report.shifts,
        report.accepted,
        report.rejected,
        report.migrated,
    );
    (counted != reported).then(|| format!("timeline counts {counted:?}, report says {reported:?}"))
}

/// `Workbench::serve_traffic`'s step loop (including its private
/// `evaluate_remap`), call for call, without an observer attached.
fn traced_serve_traffic(bench: &Workbench, options: &ServeOptions, t: &mut Tracer) -> ServeReport {
    let threads = bench.cluster.num_threads();
    let traffic = TrafficDriver::new(
        TrafficConfig::new(threads, options.tenants, options.scenario, bench.seed)
            .with_period(options.period),
    );
    let initial = Mapping::stretch(&bench.cluster);
    let mut current = initial.clone();
    let mut detector = PhaseDetector::<SparseCorrelation>::new(threads, options.window);
    let mut timeline = Vec::new();
    let (mut shifts, mut accepted, mut rejected, mut migrated) = (0, 0, 0, 0u64);
    let (mut served_cut, mut static_cut, mut edge_total) = (0, 0, 0);
    for step in 0..options.steps as u64 {
        let edges = t.span("sim.traffic", |_| traffic.step_edges(step, bench.threads));
        edge_total += edges.len();
        t.span("serve.step", |t| {
            let corr = t.span("track.ingest", |_| {
                SparseCorrelation::from_edges(threads, edges)
            });
            served_cut += t.span("track.cut", |_| cut_cost(&corr, &current));
            static_cut += t.span("track.cut", |_| cut_cost(&corr, &initial));
            let Some(mark) = t.span("obs.detect", |_| detector.observe(&corr)) else {
                return;
            };
            shifts += 1;
            timeline.push(ServeDecision::Shift {
                step,
                window: mark.window,
                delta_ppm: mark.delta_ppm,
            });
            t.span("serve.decide", |t| {
                let candidate = if threads <= options.multilevel_above {
                    // Only below benchmark size; its time stays in `serve.decide`.
                    refine_kl(&corr, current.clone())
                } else {
                    t.span("place.multilevel", |_| {
                        multilevel_place(&corr, &bench.cluster)
                    })
                };
                let (planned, moves) = t.span("place.plan", |_| {
                    let planned = plan_migration(
                        options.policy,
                        &corr,
                        &current,
                        &candidate,
                        options.max_swaps,
                    );
                    let moves = planned.moves_from(&current);
                    (planned, moves)
                });
                let (cut_before, cut_after, cost, ok) = t.span("place.gate", |t| {
                    let cut_before = t.span("track.cut", |_| cut_cost(&corr, &current));
                    let cut_after = t.span("track.cut", |_| cut_cost(&corr, &planned));
                    let gain = cut_before.saturating_sub(cut_after);
                    let cost = options.cost_model.migration_cost(moves);
                    let ok = moves > 0 && options.cost_model.accepts(gain, moves);
                    (cut_before, cut_after, cost, ok)
                });
                timeline.push(ServeDecision::Remap {
                    step,
                    accepted: ok,
                    moves: moves as u64,
                    cut_before,
                    cut_after,
                    cost,
                });
                if ok {
                    accepted += 1;
                    migrated += moves as u64;
                    current = planned;
                } else {
                    rejected += 1;
                }
            });
        });
    }
    t.count("track.edges", edge_total as f64);
    t.count(
        "track.edges_per_step",
        edge_total as f64 / options.steps.max(1) as f64,
    );
    t.count("obs.windows", detector.windows_closed() as f64);
    t.count("obs.shifts", shifts as f64);
    t.count("serve.moved_threads", migrated as f64);
    t.count(
        "serve.accept_ratio",
        if shifts == 0 {
            0.0
        } else {
            accepted as f64 / shifts as f64
        },
    );
    t.count("place.cut", served_cut as f64);
    t.count("place.stretch_cut", static_cut as f64);
    ServeReport {
        label: options.scenario.to_string(),
        policy: options.policy,
        steps: options.steps,
        window: options.window,
        timeline,
        shifts,
        accepted,
        rejected,
        migrated,
        served_cut,
        static_cut,
        final_mapping: current,
        observation: None,
    }
}
