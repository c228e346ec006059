//! # acorr — Active Correlation Tracking
//!
//! A full reproduction of *"Active Correlation Tracking"* (Thitikamol &
//! Keleher, ICDCS 1999) as a Rust library: a CVM-like software DSM with
//! per-node multithreading and thread migration, the active and passive
//! correlation-tracking mechanisms, correlation maps, cut costs, placement
//! heuristics, and the paper's application suite — all running on a
//! deterministic simulated cluster.
//!
//! This crate is the facade: it re-exports the layered API and provides the
//! [`experiment`] drivers that reproduce each of the paper's tables and
//! figures.
//!
//! ## Quick start
//!
//! ```
//! use acorr::apps::Sor;
//! use acorr::experiment::Workbench;
//! use acorr::place::min_cost;
//! use acorr::track::{cut_cost, CorrelationMatrix};
//!
//! # fn main() -> Result<(), acorr::dsm::DsmError> {
//! // A small SOR instance on a 4-node cluster with 16 threads.
//! let bench = Workbench::new(4, 16)?;
//! let truth = bench.ground_truth(|| Sor::new(256, 256, 16))?;
//!
//! // Thread correlations → cut costs → a better placement.
//! let corr = CorrelationMatrix::from_access(&truth.access);
//! let better = min_cost(&corr, &bench.cluster);
//! assert!(cut_cost(&corr, &better) <= cut_cost(&corr, &truth.mapping));
//! # Ok(())
//! # }
//! ```
//!
//! ## Layers
//!
//! * [`sim`] — simulated time, deterministic RNG, topology, cost models.
//! * [`mem`] — pages, protections, bitmaps, dirty ranges, access matrices.
//! * [`dsm`] — the DSM engine: LRC protocol, scheduler, migration, both
//!   tracking mechanisms.
//! * [`track`] — correlations, maps, cut costs, sharing degree, aging.
//! * [`place`] — stretch / random / min-cost / optimal placement.
//! * [`apps`] — the Table 1 application suite.
//! * [`obs`] — observability: event sinks (JSONL, Chrome/Perfetto trace),
//!   metrics time series and histograms, reproducible run manifests.
//! * [`sched`] — controllable schedules: replay tokens, random and
//!   preemption-bounded systematic exploration, shrinking.
//! * [`experiment`] — drivers for Tables 1-6 and Figures 1-3.
//! * [`explore`] — schedule-space exploration with happens-before race
//!   detection and differential protocol checking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod explore;
pub mod serve;

/// The application suite (re-export of `acorr-apps`).
pub mod apps {
    pub use acorr_apps::*;
}

/// The DSM engine (re-export of `acorr-dsm`).
pub mod dsm {
    pub use acorr_dsm::*;
}

/// Memory substrate (re-export of `acorr-mem`).
pub mod mem {
    pub use acorr_mem::*;
}

/// Observability: sinks, metrics, manifests (re-export of `acorr-obs`).
pub mod obs {
    pub use acorr_obs::*;
    // The detector lives in `track`; this path stays because the frozen
    // benchmark imports `acorr::obs::PhaseDetector`.
    pub use acorr_track::PhaseDetector;
}

/// Placement heuristics (re-export of `acorr-place`).
pub mod place {
    pub use acorr_place::*;
}

/// Controllable schedules and exploration (re-export of `acorr-sched`).
pub mod sched {
    pub use acorr_sched::*;
}

/// Simulation substrate (re-export of `acorr-sim`).
pub mod sim {
    pub use acorr_sim::*;
}

/// Correlation analysis (re-export of `acorr-track`).
pub mod track {
    pub use acorr_track::*;
}

pub use experiment::{
    mapping_digest, node_count_study, scale_placement_study, AdaptiveStudy, ConformanceRun,
    CutCostSample, CutCostStudy, GroundTruth, HeuristicRow, NodeCountRow, ObservedRun,
    OnDemandStudy, PassiveStudy, PhaseScan, ScalePlacement, TrackingOverheadRow, Workbench,
};
pub use explore::{ExploreFailure, ExploreOptions, ExploreReport, FailureKind};
pub use serve::{ServeDecision, ServeOptions, ServeReport};
