//! # acorr-sched — controllable-schedule exploration
//!
//! The DSM engine is deterministic, but several of its scheduling choices
//! are policy rather than causality: which ready thread a node dispatches,
//! which queued waiter receives a released lock, which fault (if any) opens
//! a barrier interval. This crate turns those decision points (steered
//! through `acorr-dsm`'s [`Dsm::steer`](acorr_dsm::Dsm::steer) by two
//! [`DecisionQueue`](acorr_sim::DecisionQueue)s) into a searchable
//! schedule space:
//!
//! * [`schedule`] — [`Schedule`]: a decision prefix plus a tail policy
//!   (engine default or seeded random) and a fault prefix, with a
//!   replay-token grammar (`s1`, `s1:1.0.2`, `s1!1`) so any failing
//!   schedule can be reproduced byte-for-byte from a printed string.
//!   [`Schedule::queue`] and [`Schedule::fault_queue`] build the two
//!   queues the engine takes; their logs, read back through
//!   [`Dsm::decisions`](acorr_dsm::Dsm::decisions), are the run's concrete
//!   schedule.
//! * [`explore`] — [`Explorer`]: seeded random exploration, a
//!   preemption-bounded systematic mode (breadth-first enumeration of
//!   single-point deviations from observed runs), and a model-checking
//!   mode over the fault × schedule product space with state-hash
//!   pruning; plus [`shrink_pair`]: reducing a failing (schedule, fault)
//!   decision-prefix pair to a minimal counterexample.
//!
//! The crate knows nothing about *what* failure means — callers run each
//! yielded schedule, decide pass/fail (races, divergences, oracle
//! violations), and hand observed decision logs back to the explorer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod schedule;

pub use explore::{shrink_pair, ExploreMode, Explorer};
pub use schedule::{Schedule, ScheduleParseError, Tail};
