//! Controllable scheduling: decision points and the policy that steers them.
//!
//! The engine's conservative event loop is deterministic, but a few of its
//! choices are *policy*, not causality: which ready thread a node dispatches
//! next, and which queued waiter receives a released lock. Any choice at
//! those points yields a legal execution — the engine's built-in behavior
//! is always FIFO (choice `0`).
//!
//! A [`SchedulePolicy`] attached via
//! [`Dsm::set_schedule_policy`](crate::Dsm::set_schedule_policy) is
//! consulted at exactly those points, and only when more than one choice is
//! legal, so a policy that always answers `0` reproduces the unsteered
//! engine bit-for-bit. Time-driven choices (which *node* steps next, when
//! blocked threads wake) stay causality-ordered and are never offered to
//! the policy; the pinned scheduler of tracked iterations has no choices at
//! all.

use acorr_sim::NodeId;

/// One steerable choice the engine is about to make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionPoint {
    /// Which thread from `node`'s ready queue runs next. Alternative `k`
    /// is the queue's `k`-th entry; `0` is FIFO order.
    Run {
        /// The dispatching node.
        node: NodeId,
    },
    /// Which queued waiter is granted lock `lock` at a release.
    /// Alternative `k` is the wait queue's `k`-th entry; `0` is FIFO.
    Grant {
        /// The released lock's index.
        lock: usize,
    },
}

/// A scheduling policy: answers every decision point with a choice index.
///
/// Implementations must be `Send` (DSM instances run on the deterministic
/// worker pool) and are consulted synchronously from the event loop.
pub trait SchedulePolicy: std::fmt::Debug + Send {
    /// Chooses among `alternatives` (≥ 2) legal outcomes at `point`.
    /// Returns an index in `0..alternatives`; out-of-range answers are
    /// clamped by the engine.
    fn choose(&mut self, point: DecisionPoint, alternatives: usize) -> usize;

    /// Chooses the fault action for barrier interval `interval` from a menu
    /// of `alternatives` (action `0` is always "no fault"). Consulted once
    /// per interval whenever a policy is attached; the default answers `0`,
    /// so schedule-only policies never inject anything.
    fn inject(&mut self, interval: u64, alternatives: usize) -> usize {
        let _ = (interval, alternatives);
        0
    }
}
