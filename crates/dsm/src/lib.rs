//! # acorr-dsm — the CVM-like software distributed shared memory
//!
//! This crate is the reproduction's stand-in for CVM, the page-based
//! software DSM the paper builds on. It executes deterministic
//! multi-threaded [`Program`]s over a simulated cluster, implementing:
//!
//! * **Multi-writer lazy release consistency** — twins on first write,
//!   word-range diffs finalized at releases and barriers, write notices,
//!   version-based invalidation, and periodic garbage collection that
//!   consolidates diffs and invalidates replicas.
//! * **Per-node multithreading** — threads on one node interleave and hide
//!   each other's remote-fetch latency; context switches and protection
//!   sweeps are costed ([`engine`]).
//! * **Thread migration** — reconfiguring a running application by copying
//!   thread stacks between nodes ([`Dsm::migrate_to`]).
//! * **Active correlation tracking** (§4.2 of the paper) — the headline
//!   mechanism: [`Dsm::run_tracked_iteration`] read-protects all pages, sets
//!   per-page correlation bits, pins each node's scheduler to one thread per
//!   barrier segment, and collects exact per-thread page-access bitmaps in
//!   one iteration.
//! * **Passive correlation tracking** (§4.1) — the prior-art baseline:
//!   [`Dsm::enable_passive_tracking`] observes only remote faults, so only
//!   the first local toucher of each page is ever seen.
//! * **A single-writer protocol mode** ([`WriteMode::SingleWriter`]) with a
//!   Mirage-style delta interval — §6's comparison point, complete with the
//!   page ping-ponging it is famous for.
//! * **Protocol events** ([`Dsm::attach_sink`]) — every protocol event,
//!   stamped with simulated time, goes to one attached [`EventSink`].
//! * **Fault injection & conformance** — a deterministic [`FaultPlan`]
//!   (delay jitter, bounded reordering, transient drops with retry,
//!   per-node slowdown windows) perturbs every send, while the coherence
//!   oracle ([`Dsm::enable_oracle`]) shadows the protocol with a
//!   sequential reference memory and checks release-consistency
//!   expectations at every barrier and lock release ([`OracleReport`]).
//! * **Controllable scheduling** — two [`DecisionQueue`]s
//!   ([`Dsm::steer`]) steer the engine's legal-but-arbitrary choices
//!   (ready-queue dispatch, lock-grant order) and its per-interval fault
//!   actions for schedule-space exploration, and log what they chose
//!   ([`Dsm::decisions`]); happens-before race detection
//!   ([`Dsm::enable_race_detection`]) and the program-visible memory model
//!   ([`Dsm::enable_visible_image`]) check each steered run.
//!
//! [`FaultPlan`]: acorr_sim::FaultPlan
//! [`DecisionQueue`]: acorr_sim::DecisionQueue
//!
//! The crate deliberately knows nothing about *analyzing* the collected
//! access bitmaps — correlation matrices, maps, cut costs and placement live
//! in `acorr-track` and `acorr-place`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod error;
mod locks;
mod node;
mod oracle;
pub mod program;
mod protocol;
pub mod stats;
mod thread;
pub mod trace;

pub use config::{DsmConfig, InjectedBug, WriteMode};
pub use engine::{Dsm, MigrationReport};
pub use error::DsmError;
pub use oracle::OracleReport;
pub use program::{validate_iteration, LockId, Op, Program, ScriptError};
pub use stats::IterStats;
pub use trace::{Event, EventSink};
