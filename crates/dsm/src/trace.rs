//! Protocol events and the sink they go to.
//!
//! The engine stamps every protocol-level event (faults, fetches, twins,
//! diffs, ownership transfers, barriers, locks, migrations) with simulated
//! time and hands it to the [`EventSink`] attached with
//! [`Dsm::attach_sink`](crate::Dsm::attach_sink). With no sink attached,
//! no event is kept. A sink that wants the protocol timeline alone skips
//! the profiling spans:
//!
//! ```
//! use acorr_dsm::trace::{Event, EventSink};
//! use acorr_sim::SimTime;
//!
//! #[derive(Debug, Default)]
//! struct Timeline(Vec<(SimTime, Event)>);
//!
//! impl EventSink for Timeline {
//!     fn record_event(&mut self, at: SimTime, event: &Event) {
//!         if !matches!(event, Event::SpanBegin { .. } | Event::SpanEnd { .. }) {
//!             self.0.push((at, *event));
//!         }
//!     }
//! }
//!
//! let mut timeline = Timeline::default();
//! timeline.record_event(SimTime::ZERO, &Event::BarrierRelease { index: 0 });
//! assert_eq!(timeline.0[0].1.to_string(), "barrier #0");
//! ```

use crate::stats::IterStats;
use acorr_mem::PageId;
use acorr_sim::{NodeId, SimDuration, SimTime};
use std::fmt;

/// A destination for protocol events and derived measurements.
///
/// The engine forwards every [`Event`] (with its simulated timestamp) to the
/// attached sink, plus three derived streams: remote-fetch latencies,
/// lock-grant latencies, and per-barrier-interval statistic deltas. All
/// callbacks are **observation-only**: the engine's simulated time,
/// statistics and scheduling are bit-identical with or without a sink
/// attached (the purity tests in `tests/observability.rs` enforce this).
///
/// Implementations must be `Send` because DSM instances run on the
/// deterministic worker pool; each instance owns its own sink, so no
/// synchronization beyond `Send` is required.
pub trait EventSink: fmt::Debug + Send {
    /// Receives one protocol event at simulated time `at`.
    fn record_event(&mut self, at: SimTime, event: &Event);

    /// Receives the total delivery latency of one remote fetch (the page
    /// and diff traffic resolving a coherence miss), charged at `at` on
    /// `node`. Fault-injected retransmission timeouts are included, so
    /// under a fault plan the distribution's tail is the injector's work.
    fn record_fetch_latency(&mut self, at: SimTime, node: NodeId, latency: SimDuration) {
        let _ = (at, node, latency);
    }

    /// Receives the grant latency of one lock acquisition at `at` on
    /// `node`: the local grant cost for node-local handoffs, or the
    /// two-message control exchange (plus any fault-injected delay) for
    /// cross-node transfers.
    fn record_lock_latency(&mut self, at: SimTime, node: NodeId, latency: SimDuration) {
        let _ = (at, node, latency);
    }

    /// Receives the delta of the iteration counters accumulated since the
    /// previous barrier (or iteration start), at the release time of
    /// barrier `barrier` (a run-global ordinal). `delta.elapsed` is the
    /// simulated span of the interval itself.
    fn record_interval(&mut self, at: SimTime, barrier: u64, delta: &IterStats) {
        let _ = (at, barrier, delta);
    }
}

/// An engine phase profiled by the span instrumentation.
///
/// Spans are emitted to the attached sink whenever there is one (see
/// `Dsm::attach_sink`). `Fetch` nests `Apply` (the diff application inside
/// a remote fetch) — the Chrome sink renders the pair as nestable duration
/// events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPhase {
    /// First-write twin creation (or single-writer re-upgrade).
    TwinCreate,
    /// Diff construction at a release or barrier.
    DiffBuild,
    /// Remote fetch resolving a coherence miss (network transfer + apply).
    Fetch,
    /// Diff application inside a fetch (nested under [`SpanPhase::Fetch`]).
    Apply,
    /// Lock grant: local handoff or cross-node control exchange.
    LockGrant,
    /// Barrier close: finalization, rendezvous and release.
    BarrierClose,
}

impl SpanPhase {
    /// Stable lowercase name used in artifacts (JSONL `phase` member and
    /// Chrome span names).
    pub fn name(self) -> &'static str {
        match self {
            SpanPhase::TwinCreate => "twin_create",
            SpanPhase::DiffBuild => "diff_build",
            SpanPhase::Fetch => "fetch",
            SpanPhase::Apply => "apply",
            SpanPhase::LockGrant => "lock_grant",
            SpanPhase::BarrierClose => "barrier_close",
        }
    }
}

impl fmt::Display for SpanPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One protocol event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Active tracking recorded a first touch.
    CorrelationFault {
        /// Faulting thread (global index).
        thread: usize,
        /// Page touched.
        page: PageId,
    },
    /// A coherence fault resolved by remote fetch.
    RemoteMiss {
        /// Faulting node.
        node: NodeId,
        /// Faulting thread (global index).
        thread: usize,
        /// Page fetched.
        page: PageId,
    },
    /// First write of an interval created a twin (or re-upgraded an owned
    /// page under the single-writer protocol).
    WriteFault {
        /// Writing node.
        node: NodeId,
        /// Page twinned/upgraded.
        page: PageId,
    },
    /// Single-writer protocol moved a page's ownership.
    OwnershipTransfer {
        /// Page transferred.
        page: PageId,
        /// New owner.
        to: NodeId,
    },
    /// A diff was finalized at a release or barrier.
    DiffCreated {
        /// Writing node.
        node: NodeId,
        /// Page diffed.
        page: PageId,
        /// Diff payload bytes.
        bytes: u64,
    },
    /// Garbage collection consolidated a page.
    GcConsolidated {
        /// Page consolidated.
        page: PageId,
        /// The consolidating owner.
        owner: NodeId,
    },
    /// A global barrier released.
    BarrierRelease {
        /// Barrier ordinal within the run.
        index: u64,
    },
    /// A lock was granted.
    LockGranted {
        /// Lock index.
        lock: usize,
        /// Receiving thread (global index).
        thread: usize,
        /// Whether the grant crossed nodes.
        remote: bool,
    },
    /// A thread migrated.
    Migration {
        /// Thread (global index).
        thread: usize,
        /// Destination node.
        to: NodeId,
    },
    /// The schedule queue was consulted at a decision point (only emitted
    /// while the run is steered and more than one choice was legal).
    ScheduleDecision {
        /// Run-global decision ordinal: the index of this decision in the
        /// schedule log.
        seq: u64,
        /// Number of legal alternatives at this point.
        alternatives: u32,
        /// Index the queue chose (`0` is the engine's FIFO default).
        choice: u32,
    },
    /// A fault action fired at a barrier-interval boundary (never emitted
    /// for action `0`, "no fault", so fault-free runs have clean streams).
    FaultDecision {
        /// Run-global barrier-interval ordinal (spans iterations).
        interval: u64,
        /// Size of the fault-action menu at this interval.
        alternatives: u32,
        /// Index of the action taken.
        choice: u32,
    },
    /// A node crashed at a barrier and rejoined with a cold cache; its
    /// protocol state reconstructs from the surviving directory.
    NodeCrash {
        /// The crashed node.
        node: NodeId,
        /// Cached page copies wiped by the crash.
        pages: u64,
    },
    /// A profiled engine phase opened (sent to an attached sink only;
    /// closed by the [`Event::SpanEnd`] carrying the same `id`).
    SpanBegin {
        /// Run-global span ordinal pairing begin with end.
        id: u64,
        /// The profiled phase.
        phase: SpanPhase,
        /// Node the phase ran on.
        node: NodeId,
    },
    /// A profiled engine phase closed (see [`Event::SpanBegin`]).
    SpanEnd {
        /// Run-global span ordinal pairing end with begin.
        id: u64,
        /// The profiled phase.
        phase: SpanPhase,
        /// Node the phase ran on.
        node: NodeId,
    },
    /// Windowed correlation tracking detected a sharing-structure shift:
    /// the delta norm between consecutive tracked windows crossed the
    /// detector's threshold (emitted by the observability layer's phase
    /// detector, never by the engine itself).
    PhaseShift {
        /// Ordinal of the tracked window that closed shifted (iterations
        /// or barrier intervals, depending on the detector's driver).
        window: u64,
        /// Correlation delta norm in parts per million (`delta * 1e6`,
        /// kept integral so the event stays `Eq`).
        delta_ppm: u64,
    },
    /// The online placement service accepted a re-mapping: predicted
    /// cut-cost improvement strictly exceeded the migration cost model's
    /// charge (emitted by the serve loop, never by the engine itself).
    RemapAccepted {
        /// Traffic/iteration step at which the decision was taken.
        step: u64,
        /// Threads the accepted plan moves.
        moves: u64,
        /// Cut cost of the pre-migration mapping on the firing window.
        cut_before: u64,
        /// Predicted cut cost of the planned mapping.
        cut_after: u64,
        /// Migration cost charged by the model.
        cost: u64,
    },
    /// The online placement service rejected a candidate re-mapping:
    /// the predicted improvement did not beat the migration cost.
    RemapRejected {
        /// Traffic/iteration step at which the decision was taken.
        step: u64,
        /// Threads the rejected plan would have moved.
        moves: u64,
        /// Cut cost of the current mapping on the firing window.
        cut_before: u64,
        /// Predicted cut cost of the rejected candidate.
        cut_after: u64,
        /// Migration cost charged by the model.
        cost: u64,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Event::CorrelationFault { thread, page } => {
                write!(f, "corr-fault t{thread} {page}")
            }
            Event::RemoteMiss { node, thread, page } => {
                write!(f, "miss {node} t{thread} {page}")
            }
            Event::WriteFault { node, page } => write!(f, "write-fault {node} {page}"),
            Event::OwnershipTransfer { page, to } => write!(f, "own {page} -> {to}"),
            Event::DiffCreated { node, page, bytes } => {
                write!(f, "diff {node} {page} {bytes}B")
            }
            Event::GcConsolidated { page, owner } => write!(f, "gc {page} @ {owner}"),
            Event::BarrierRelease { index } => write!(f, "barrier #{index}"),
            Event::LockGranted {
                lock,
                thread,
                remote,
            } => write!(
                f,
                "lock l{lock} -> t{thread}{}",
                if remote { " (remote)" } else { "" }
            ),
            Event::Migration { thread, to } => write!(f, "migrate t{thread} -> {to}"),
            Event::ScheduleDecision {
                seq,
                alternatives,
                choice,
            } => write!(f, "decide #{seq} {choice}/{alternatives}"),
            Event::FaultDecision {
                interval,
                alternatives,
                choice,
            } => write!(f, "inject #{interval} {choice}/{alternatives}"),
            Event::NodeCrash { node, pages } => {
                write!(f, "crash {node} ({pages} pages wiped)")
            }
            Event::SpanBegin { id, phase, node } => write!(f, "span+ {phase} {node} #{id}"),
            Event::SpanEnd { id, phase, node } => write!(f, "span- {phase} {node} #{id}"),
            Event::PhaseShift { window, delta_ppm } => {
                write!(f, "phase-shift w{window} delta {delta_ppm}ppm")
            }
            Event::RemapAccepted {
                step,
                moves,
                cut_before,
                cut_after,
                cost,
            } => write!(
                f,
                "remap+ s{step} {moves}mv cut {cut_before}->{cut_after} cost {cost}"
            ),
            Event::RemapRejected {
                step,
                moves,
                cut_before,
                cut_after,
                cost,
            } => write!(
                f,
                "remap- s{step} {moves}mv cut {cut_before}->{cut_after} cost {cost}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_sink_derived_streams_default_to_no_ops() {
        /// Implements only the required method.
        #[derive(Debug, Default)]
        struct Events(Vec<u64>);
        impl EventSink for Events {
            fn record_event(&mut self, at: SimTime, _event: &Event) {
                self.0.push(at.as_nanos());
            }
        }
        let mut events = Events::default();
        let sink: &mut dyn EventSink = &mut events;
        for i in 0..3 {
            sink.record_event(SimTime::from_nanos(i), &Event::BarrierRelease { index: i });
        }
        // Derived streams have no-op defaults.
        sink.record_fetch_latency(SimTime::ZERO, NodeId(0), SimDuration::from_micros(1));
        sink.record_lock_latency(SimTime::ZERO, NodeId(0), SimDuration::from_micros(1));
        sink.record_interval(SimTime::ZERO, 0, &IterStats::new());
        assert_eq!(events.0, vec![0, 1, 2]);
    }

    #[test]
    fn event_display_covers_all_variants() {
        let samples = [
            Event::CorrelationFault {
                thread: 1,
                page: PageId(2),
            },
            Event::RemoteMiss {
                node: NodeId(0),
                thread: 1,
                page: PageId(2),
            },
            Event::WriteFault {
                node: NodeId(0),
                page: PageId(2),
            },
            Event::OwnershipTransfer {
                page: PageId(2),
                to: NodeId(1),
            },
            Event::DiffCreated {
                node: NodeId(0),
                page: PageId(2),
                bytes: 64,
            },
            Event::GcConsolidated {
                page: PageId(2),
                owner: NodeId(1),
            },
            Event::BarrierRelease { index: 3 },
            Event::LockGranted {
                lock: 0,
                thread: 2,
                remote: true,
            },
            Event::Migration {
                thread: 2,
                to: NodeId(1),
            },
            Event::ScheduleDecision {
                seq: 0,
                alternatives: 2,
                choice: 1,
            },
            Event::FaultDecision {
                interval: 4,
                alternatives: 5,
                choice: 1,
            },
            Event::NodeCrash {
                node: NodeId(1),
                pages: 3,
            },
            Event::SpanBegin {
                id: 0,
                phase: SpanPhase::Fetch,
                node: NodeId(0),
            },
            Event::SpanEnd {
                id: 0,
                phase: SpanPhase::Fetch,
                node: NodeId(0),
            },
            Event::PhaseShift {
                window: 2,
                delta_ppm: 412_000,
            },
            Event::RemapAccepted {
                step: 12,
                moves: 8,
                cut_before: 400,
                cut_after: 120,
                cost: 32,
            },
            Event::RemapRejected {
                step: 24,
                moves: 2,
                cut_before: 96,
                cut_after: 90,
                cost: 8,
            },
        ];
        for ev in samples {
            assert!(!ev.to_string().is_empty());
        }
        let miss = Event::RemoteMiss {
            node: NodeId(1),
            thread: 4,
            page: PageId(7),
        };
        assert_eq!(miss.to_string(), "miss n1 t4 p7");
    }

    #[test]
    fn span_phase_names_are_stable_artifact_identifiers() {
        // These strings appear in events.jsonl and trace.json; renaming one
        // is an artifact-schema change, so pin them.
        let expected = [
            (SpanPhase::TwinCreate, "twin_create"),
            (SpanPhase::DiffBuild, "diff_build"),
            (SpanPhase::Fetch, "fetch"),
            (SpanPhase::Apply, "apply"),
            (SpanPhase::LockGrant, "lock_grant"),
            (SpanPhase::BarrierClose, "barrier_close"),
        ];
        for (phase, name) in expected {
            assert_eq!(phase.name(), name);
            assert_eq!(phase.to_string(), name);
        }
    }
}
