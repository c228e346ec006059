//! The DSM execution engine.
//!
//! [`Dsm`] runs a [`Program`] over a simulated cluster under a multi-writer
//! lazy-release-consistency protocol, with per-node multithreading and
//! latency hiding, and implements the paper's two tracking mechanisms:
//!
//! * **Active correlation tracking** (§4.2): [`Dsm::run_tracked_iteration`]
//!   arms a correlation bit on every page, pins each node's scheduler to one
//!   thread per barrier segment, logs first-touches into per-thread access
//!   bitmaps, and re-arms at every thread switch. The full protection-sweep
//!   and fault costs are charged, so the tracked iteration exhibits the
//!   Table 5 slowdown.
//! * **Passive correlation tracking** (§4.1): with
//!   [`Dsm::enable_passive_tracking`], the engine attributes a page to a
//!   thread only when that thread's access triggers a *remote* fault — so
//!   only the first local toucher of each invalidated page is observed,
//!   reproducing the partial-information pathology of Figure 2.
//!
//! Time is per-node virtual time: threads on a node interleave, block on
//! remote fetches (letting siblings run — the latency tolerance that active
//! tracking deliberately forfeits), and rendezvous at barriers. The engine
//! is a conservative discrete-event loop: the node with the smallest local
//! time that can make progress always steps next, so runs are deterministic.

use crate::config::{DsmConfig, InjectedBug, WriteMode};
use crate::error::DsmError;
use crate::locks::LockState;
use crate::node::NodeState;
use crate::oracle::{CoherenceOracle, OracleReport};
use crate::program::{LockId, Op, Program, ScriptChecker};
use crate::protocol::{FetchPlan, PageDirectory};
use crate::stats::IterStats;
use crate::thread::{ThreadState, ThreadStatus};
use crate::trace::{Event, EventSink, SpanPhase};
use acorr_mem::{
    pages_for, span_pages, AccessKind, AccessMatrix, Arena, HbRaceDetector, PageId, PageSpan,
    Protection, RaceReport, VisibleImage,
};
use acorr_sim::{
    DecisionQueue, DecisionRecord, FaultAction, FaultInjector, Mapping, MessageKind, NodeId,
    SimDuration, SimTime,
};

/// Fixed framing overhead charged per diff, on top of the dirty bytes.
const DIFF_HEADER_BYTES: u64 = 16;
/// Per-fragment framing inside a diff.
const DIFF_RANGE_BYTES: u64 = 8;
/// Payload of one write notice.
const NOTICE_BYTES: u64 = 16;
/// Payload of one lock control message.
const LOCK_MSG_BYTES: u64 = 64;
/// Payload of one barrier control message.
const BARRIER_MSG_BYTES: u64 = 32;

/// Result of a reconfiguration via [`Dsm::migrate_to`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationReport {
    /// Threads that changed node.
    pub moved: usize,
    /// Stack bytes shipped.
    pub bytes: u64,
}

enum AccessOutcome {
    /// The access completed locally; move to the next span.
    Proceed,
    /// The access faulted; the span must be *retried* after the block (the
    /// multi-writer path: a fetched page stays valid until a sync point, so
    /// the retry always succeeds).
    Block(SimDuration),
    /// The access faulted and is considered performed at fetch completion;
    /// move to the next span, then block. The single-writer path needs
    /// this: a rival steal may invalidate the page again before this thread
    /// resumes, and retrying would livelock — real ownership protocols
    /// guarantee the faulting access completes when the page arrives
    /// (without that guarantee, §6's page thrashing becomes livelock).
    BlockCompleted(SimDuration),
}

/// A software DSM instance executing one program.
///
/// ```
/// use acorr_dsm::{Dsm, DsmConfig, Op, Program};
/// use acorr_sim::{ClusterConfig, Mapping};
///
/// struct TwoReaders;
/// impl Program for TwoReaders {
///     fn name(&self) -> &str { "two-readers" }
///     fn shared_bytes(&self) -> u64 { 8192 }
///     fn num_threads(&self) -> usize { 2 }
///     fn script(&self, thread: usize, _iter: usize) -> Vec<Op> {
///         vec![Op::read(thread as u64 * 4096, 64)]
///     }
/// }
///
/// # fn main() -> Result<(), acorr_dsm::DsmError> {
/// let cluster = ClusterConfig::new(2, 2)?;
/// let mapping = Mapping::stretch(&cluster);
/// let mut dsm = Dsm::new(DsmConfig::new(cluster), TwoReaders, mapping)?;
/// let stats = dsm.run_iterations(1)?;
/// // The thread on node 1 cold-misses its page; node 0 owns all pages.
/// assert_eq!(stats.remote_misses, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Dsm<P: Program> {
    program: P,
    config: DsmConfig,
    mapping: Mapping,
    nodes: Vec<NodeState>,
    threads: Vec<ThreadState>,
    directory: PageDirectory,
    locks: Vec<LockState>,
    num_pages: usize,
    next_iteration: usize,
    total: IterStats,
    cur: IterStats,
    tracking: Option<AccessMatrix>,
    passive: Option<AccessMatrix>,
    sink: Option<Box<dyn EventSink>>,
    /// Monotone ordinal pairing each `SpanBegin` with its `SpanEnd`.
    span_seq: u64,
    interval_mark: IterStats,
    interval_start: SimTime,
    barrier_arrived: usize,
    faults: FaultInjector,
    oracle: Option<CoherenceOracle>,
    /// The (schedule, fault) queues steering the run, if attached; each
    /// logs the choices it answers.
    steer: Option<(DecisionQueue, DecisionQueue)>,
    race: Option<HbRaceDetector>,
    visible: Option<VisibleImage>,
    /// Bump arena for per-interval page lists (write sets, lock write
    /// records); reset once per barrier interval.
    interval_arena: Arena<PageId>,
    /// Reusable fetch-plan buffer: every coherence fault fills this in
    /// place instead of allocating a fresh diff vector.
    plan_scratch: FetchPlan,
    /// Run-global barrier-interval ordinal: the index of fault decision
    /// points (one per interval, spanning iterations).
    fault_interval: u64,
    /// Active partition cut, if any: links crossing `split` are down for
    /// the current interval.
    partition_split: Option<usize>,
    /// Simulated time the active partition heals; cross-cut messages sent
    /// before it are buffered (delivered at the heal), never lost.
    partition_until: SimTime,
    /// Interval-scoped fault: every message this interval is delivered
    /// twice (the duplicate is absorbed idempotently).
    interval_dup: bool,
    /// Interval-scoped fault: every message this interval arrives corrupted
    /// once — caught by checksum, repaired by retransmission.
    interval_corrupt: bool,
}

impl<P: Program> Dsm<P> {
    /// Creates a DSM instance with all shared pages initially owned by
    /// node 0 (where a real application's master thread would have
    /// initialized them).
    ///
    /// # Errors
    ///
    /// Returns [`DsmError::MappingMismatch`] when the mapping does not cover
    /// exactly the program's threads. Scripts are checked as each
    /// iteration loads them, so a script error surfaces from the run
    /// methods.
    pub fn new(config: DsmConfig, program: P, mapping: Mapping) -> Result<Self, DsmError> {
        if mapping.num_threads() != program.num_threads()
            || mapping.num_threads() != config.cluster.num_threads()
        {
            return Err(DsmError::MappingMismatch {
                mapping_threads: mapping.num_threads(),
                program_threads: program.num_threads(),
            });
        }
        let num_pages = pages_for(program.shared_bytes()) as usize;
        let num_nodes = config.cluster.num_nodes();
        let mut nodes: Vec<NodeState> = (0..num_nodes)
            .map(|i| NodeState::new(NodeId(i as u16), num_pages, i == 0))
            .collect();
        let mut threads = Vec::with_capacity(mapping.num_threads());
        for t in 0..mapping.num_threads() {
            let node = mapping.node_of(t);
            nodes[node.idx()].threads.push(t);
            threads.push(ThreadState::new(node));
        }
        let locks = (0..program.num_locks()).map(|_| LockState::new()).collect();
        let faults = FaultInjector::new(config.faults.clone(), num_nodes);
        Ok(Dsm {
            directory: PageDirectory::new(num_pages, NodeId(0)),
            program,
            config,
            mapping,
            nodes,
            threads,
            locks,
            num_pages,
            next_iteration: 0,
            total: IterStats::new(),
            cur: IterStats::new(),
            tracking: None,
            passive: None,
            sink: None,
            span_seq: 0,
            interval_mark: IterStats::new(),
            interval_start: SimTime::ZERO,
            barrier_arrived: 0,
            faults,
            oracle: None,
            steer: None,
            race: None,
            visible: None,
            interval_arena: Arena::new(),
            plan_scratch: FetchPlan::default(),
            fault_interval: 0,
            partition_split: None,
            partition_until: SimTime::ZERO,
            interval_dup: false,
            interval_corrupt: false,
        })
    }

    /// The program being executed.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// The current thread-to-node mapping.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Number of shared pages.
    pub fn num_pages(&self) -> usize {
        self.num_pages
    }

    /// The iteration the next run will execute.
    pub fn next_iteration(&self) -> usize {
        self.next_iteration
    }

    /// Aggregate statistics since construction.
    pub fn total_stats(&self) -> IterStats {
        self.total
    }

    /// Current global virtual time (all nodes are synchronized between
    /// iterations).
    pub fn now(&self) -> SimTime {
        self.nodes
            .iter()
            .map(|n| n.time)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Attaches an external event sink. Every protocol event, remote-fetch
    /// latency, lock-grant latency, and per-barrier-interval statistic delta
    /// is forwarded to it, at the same sites the fault injector already
    /// wraps, and engine phases (twin create, diff build, fetch, apply,
    /// lock grant, barrier close) are bracketed by
    /// [`Event::SpanBegin`]/[`Event::SpanEnd`] pairs for duration
    /// profiling. Sinks are a pure observer: simulated time, statistics and
    /// scheduling are bit-identical with or without one attached.
    pub fn attach_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sink = Some(sink);
    }

    /// Forwards `event` to the sink, stamped with node `i`'s current time.
    fn emit(&mut self, i: usize, event: Event) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record_event(self.nodes[i].time, &event);
        }
    }

    /// Forwards one remote-fetch latency to the sink, charged at node `i`'s
    /// current time.
    fn emit_fetch_latency(&mut self, i: usize, latency: SimDuration) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record_fetch_latency(self.nodes[i].time, self.nodes[i].id, latency);
        }
    }

    /// Forwards one lock-grant latency to the sink, charged at node `i`'s
    /// current time.
    fn emit_lock_latency(&mut self, i: usize, latency: SimDuration) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record_lock_latency(self.nodes[i].time, self.nodes[i].id, latency);
        }
    }

    /// Emits one profiling span `[start, start + dur]` for `phase` on node
    /// `i`, when a sink is attached. Spans are an observability artifact,
    /// not a protocol event, and charge no simulated time; the span ordinal
    /// only advances while emitting.
    fn emit_span(&mut self, i: usize, phase: SpanPhase, start: SimTime, dur: SimDuration) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let id = self.span_seq;
        self.span_seq += 1;
        let node = self.nodes[i].id;
        sink.record_event(start, &Event::SpanBegin { id, phase, node });
        sink.record_event(start + dur, &Event::SpanEnd { id, phase, node });
    }

    /// Starts recording passive observations: pages are attributed to
    /// threads only when their access takes a *remote* fault.
    pub fn enable_passive_tracking(&mut self) {
        if self.passive.is_none() {
            self.passive = Some(AccessMatrix::new(self.threads.len(), self.num_pages));
        }
    }

    /// Stops passive tracking and returns the observations, if enabled.
    pub fn take_passive_observations(&mut self) -> Option<AccessMatrix> {
        self.passive.take()
    }

    /// Enables the conformance oracle: a sequential reference memory that
    /// shadows the protocol and checks release-consistency visibility at
    /// every fetch, finalization, lock release and barrier. Violations
    /// surface as [`DsmError::OracleViolation`] from the run methods.
    ///
    /// The oracle is observation-only: enabling it changes no simulated
    /// time, traffic or scheduling.
    pub fn enable_oracle(&mut self) {
        if self.oracle.is_none() {
            let sw = matches!(self.config.write_mode, WriteMode::SingleWriter { .. });
            self.oracle = Some(CoherenceOracle::new(self.nodes.len(), self.num_pages, sw));
        }
    }

    /// The oracle's checking summary, if the oracle is enabled.
    pub fn oracle_report(&self) -> Option<OracleReport> {
        self.oracle.as_ref().map(|o| o.report())
    }

    /// Pages the oracle currently masks as hazy (data-raced), if enabled.
    pub fn oracle_hazy_pages(&self) -> Option<Vec<PageId>> {
        self.oracle.as_ref().map(|o| o.hazy_pages())
    }

    /// Steers the run. `schedule` answers every steerable decision point
    /// with more than one legal choice: which ready thread a node
    /// dispatches, and which queued waiter a released lock goes to
    /// (alternative `k` is the queue's `k`-th entry). `faults` answers once
    /// per barrier interval with an index into the fault-action menu, in
    /// place of the fault plan's stochastic draw. Choice `0` is the engine
    /// default (FIFO, no fault), so two queues that always answer `0`
    /// reproduce the unsteered engine bit for bit. Time-driven choices
    /// (which node steps next, when blocked threads wake) are never
    /// offered, and the pinned scheduler of tracked iterations has none.
    pub fn steer(&mut self, schedule: DecisionQueue, faults: DecisionQueue) {
        self.steer = Some((schedule, faults));
    }

    /// The (schedule, fault) logs of the steering queues: one record per
    /// consulted point, in order. Both are empty while the run is not
    /// steered.
    pub fn decisions(&self) -> (&[DecisionRecord], &[DecisionRecord]) {
        match &self.steer {
            Some((schedule, faults)) => (schedule.log(), faults.log()),
            None => (&[], &[]),
        }
    }

    /// Enables happens-before race detection over the simulated page
    /// accesses: vector clocks per thread and lock, histories cleared at
    /// each global barrier. Observation-only, like the oracle.
    pub fn enable_race_detection(&mut self) {
        if self.race.is_none() {
            self.race = Some(HbRaceDetector::new(
                self.threads.len(),
                self.locks.len(),
                self.num_pages,
            ));
        }
    }

    /// The race detector's findings, if enabled.
    pub fn race_report(&self) -> Option<RaceReport> {
        self.race.as_ref().map(|r| r.report())
    }

    /// Enables the program-visible memory model used for differential
    /// protocol checking: deterministic write tokens, order-sensitive byte
    /// masking, and a per-barrier digest stream. When the oracle is also
    /// enabled, its committed image is cross-checked against this model at
    /// every barrier. Observation-only.
    pub fn enable_visible_image(&mut self) {
        if self.visible.is_none() {
            self.visible = Some(VisibleImage::new(self.threads.len(), self.num_pages));
        }
    }

    /// The visible-memory model, if enabled.
    pub fn visible_image(&self) -> Option<&VisibleImage> {
        self.visible.as_ref()
    }

    /// Consults the schedule queue at a decision point with `alternatives`
    /// legal choices (callers guarantee the run is steered and
    /// `alternatives >= 2`), emitting the decision as a trace event.
    fn decide(&mut self, i: usize, alternatives: usize) -> usize {
        let (schedule, _) = self.steer.as_mut().expect("caller checked steer");
        let seq = schedule.log().len() as u64;
        let choice = schedule.next(alternatives);
        self.emit(
            i,
            Event::ScheduleDecision {
                seq,
                alternatives: alternatives as u32,
                choice: choice as u32,
            },
        );
        choice
    }

    /// Forwards one completed application access to the race detector and
    /// (for writes) the visible-memory model.
    fn observe_access(&mut self, t: usize, span: PageSpan, kind: AccessKind) {
        if self.race.is_none() && self.visible.is_none() {
            return;
        }
        let write = kind == AccessKind::Write;
        if let Some(r) = self.race.as_mut() {
            r.on_access(t, span, write);
        }
        if write {
            let under_lock = !self.threads[t].held_locks.is_empty();
            if let Some(v) = self.visible.as_mut() {
                v.on_write(t, span, under_lock);
            }
        }
    }

    /// Sends one protocol message charged to node `i`: records it, lets the
    /// fault injector perturb it (timeouts and retransmissions, stochastic
    /// duplication and corruption), then applies any interval-scoped fault —
    /// forced duplication or corruption, or an active partition when the
    /// destination `dst` sits across the cut. Returns the total delivery
    /// latency. With no fault plan and no active interval fault this is
    /// exactly `base`.
    ///
    /// `dst` is `None` for messages with no single destination (broadcast
    /// write notices, lock control whose peer the model keeps abstract);
    /// those never stall at a partition.
    fn net_send(
        &mut self,
        i: usize,
        kind: MessageKind,
        bytes: u64,
        base: SimDuration,
        dst: Option<usize>,
    ) -> SimDuration {
        self.cur.net.record(kind, bytes);
        if self.faults.is_none()
            && self.partition_split.is_none()
            && !self.interval_dup
            && !self.interval_corrupt
        {
            return base;
        }
        let d = self
            .faults
            .deliver(self.nodes[i].id, self.nodes[i].time, base, bytes);
        if d.retries > 0 {
            self.cur.retries += d.retries as u64;
            self.cur.net.record_retrans(kind, bytes, d.retries as u64);
        }
        if d.duplicates > 0 {
            self.cur.dup_messages += d.duplicates as u64;
            self.cur.dup_bytes += bytes * d.duplicates as u64;
            self.cur
                .net
                .record_retrans(kind, bytes, d.duplicates as u64);
        }
        if d.corrupt_detected > 0 {
            self.cur.corrupt_detected += d.corrupt_detected as u64;
            self.cur
                .net
                .record_retrans(kind, bytes, d.corrupt_detected as u64);
        }
        let mut latency = d.latency;
        if self.interval_dup {
            // The duplicate is absorbed idempotently: traffic in the
            // retransmission ledger, no extra protocol latency.
            self.cur.dup_messages += 1;
            self.cur.dup_bytes += bytes;
            self.cur.net.record_retrans(kind, bytes, 1);
        }
        if self.interval_corrupt {
            // Checksum catches the corruption; one full retransmission.
            self.cur.corrupt_detected += 1;
            self.cur.net.record_retrans(kind, bytes, 1);
            latency += base;
        }
        if let (Some(split), Some(dst)) = (self.partition_split, dst) {
            let now = self.nodes[i].time;
            if (i < split) != (dst < split) && now < self.partition_until {
                // The cut buffers the message until it heals: delivered
                // late, never lost (the delivered multiset is preserved).
                latency += self.partition_until.saturating_since(now);
                self.cur.partition_delays += 1;
            }
        }
        latency
    }

    /// Like [`Dsm::net_send`] for messages the baseline cost model treats as
    /// free (write notices, barrier control): only the fault-induced *extra*
    /// latency beyond the nominal cost is charged, so a zero-fault run stays
    /// byte-identical to one without the injector.
    fn net_send_extra(
        &mut self,
        i: usize,
        kind: MessageKind,
        bytes: u64,
        dst: Option<usize>,
    ) -> SimDuration {
        let base = self.config.network.control_time();
        self.net_send(i, kind, bytes, base, dst)
            .saturating_sub(base)
    }

    /// Opens a new barrier interval for fault purposes: any interval-scoped
    /// fault from the previous interval ends (the partition heals), then
    /// one fault action is decided for the new interval — by the fault
    /// queue when the run is steered (the model checker's systematic
    /// enumeration), by the stochastic plan otherwise.
    ///
    /// Pure runs — unsteered, and a plan without interval-scoped faults —
    /// return before consuming anything, so fault-free executions stay
    /// bit-identical to an engine without fault decision points.
    fn begin_fault_interval(&mut self) {
        self.partition_split = None;
        self.interval_dup = false;
        self.interval_corrupt = false;
        if self.steer.is_none() && !self.config.faults.has_interval_faults() {
            return;
        }
        let interval = self.fault_interval;
        self.fault_interval += 1;
        let nodes = self.nodes.len();
        let alternatives = FaultAction::alternatives(nodes);
        let (action, choice) = if let Some((_, faults)) = self.steer.as_mut() {
            let choice = faults.next(alternatives);
            (FaultAction::from_choice(choice, nodes), choice)
        } else {
            let action = self.faults.interval_action(interval, nodes);
            // The stochastic draw maps back onto the same menu the model
            // checker enumerates, so a random counterexample can be
            // replayed as a prescribed fault token.
            let choice = match action {
                FaultAction::None => 0,
                FaultAction::Partition { .. } => 1,
                FaultAction::Duplicate => 2,
                FaultAction::Corrupt => 3,
                FaultAction::Crash { .. } => 4,
            };
            (action, choice)
        };
        if action == FaultAction::None {
            return;
        }
        self.emit(
            0,
            Event::FaultDecision {
                interval,
                alternatives: alternatives as u32,
                choice: choice as u32,
            },
        );
        match action {
            FaultAction::None => {}
            FaultAction::Partition { split } => {
                let split = split.clamp(1, nodes - 1);
                self.partition_split = Some(split);
                let window = if self.config.faults.partition_window.is_zero() {
                    SimDuration::from_millis(2)
                } else {
                    self.config.faults.partition_window
                };
                self.partition_until = self.now() + window;
            }
            FaultAction::Duplicate => self.interval_dup = true,
            FaultAction::Corrupt => self.interval_corrupt = true,
            FaultAction::Crash { node } => self.crash_node(node.min(nodes - 1)),
        }
    }

    /// Crashes node `victim` at a barrier boundary and rejoins it with a
    /// cold cache: every cached page copy and all per-page protocol
    /// metadata are wiped. Recovery is protocol-level state reconstruction:
    /// under the multi-writer protocol the surviving directory (stable
    /// storage in this model) holds every finalized diff, so each page
    /// re-fetches lazily on the next access; under single-writer, pages the
    /// victim owned transfer to a survivor, which receives the current
    /// committed copy. The reconstruction traffic is charged where it
    /// happens — at the recovery fetches — not here.
    fn crash_node(&mut self, victim: usize) {
        let nodes = self.nodes.len();
        if nodes < 2 {
            return;
        }
        let victim = victim.min(nodes - 1);
        let mut wiped = 0u64;
        for p in 0..self.num_pages {
            let pages = &mut self.nodes[victim].pages;
            if pages.has_copy(p) {
                wiped += 1;
            }
            pages.set_valid(p, false);
            pages.set_has_copy(p, false);
            pages.set_twin(p, false);
            pages.set_prot(p, Protection::None);
            pages.set_applied_version(p, 0);
            pages.dirty_mut(p).clear();
        }
        self.nodes[victim].write_set.clear();
        self.cur.crashes += 1;
        self.cur.pages_wiped += wiped;
        if let Some(o) = self.oracle.as_mut() {
            o.on_crash(victim);
        }
        self.emit(
            victim,
            Event::NodeCrash {
                node: self.nodes[victim].id,
                pages: wiped,
            },
        );
        if matches!(self.config.write_mode, WriteMode::SingleWriter { .. }) {
            // Ownership must not die with the node: every victim-owned page
            // transfers to a survivor, which takes the committed copy (the
            // single valid replica the eager protocol requires).
            let survivor = usize::from(victim == 0);
            let survivor_id = self.nodes[survivor].id;
            let victim_id = self.nodes[victim].id;
            let now = self.now();
            for p in 0..self.num_pages {
                let page = PageId(p as u32);
                if self.directory.page(page).owner != victim_id {
                    continue;
                }
                self.directory.transfer_ownership(page, survivor_id, now);
                let pages = &mut self.nodes[survivor].pages;
                pages.set_valid(p, true);
                pages.set_has_copy(p, true);
                if pages.prot(p) == Protection::None {
                    pages.set_prot(p, Protection::Read);
                }
                if let Some(o) = self.oracle.as_mut() {
                    o.on_fetch_sw(survivor, page);
                }
                self.emit(
                    survivor,
                    Event::OwnershipTransfer {
                        page,
                        to: survivor_id,
                    },
                );
            }
        }
    }

    /// Runs `n` ordinary iterations and returns their aggregate statistics.
    ///
    /// # Errors
    ///
    /// Propagates script validation failures and deadlocks. A script error
    /// returns before its iteration starts: no simulated time passes and
    /// [`Dsm::next_iteration`] does not move.
    pub fn run_iterations(&mut self, n: usize) -> Result<IterStats, DsmError> {
        let mut agg = IterStats::new();
        for _ in 0..n {
            agg += self.run_one(false)?;
        }
        Ok(agg)
    }

    /// Runs one iteration under active correlation tracking (§4.2) and
    /// returns its statistics plus the per-thread access bitmaps.
    ///
    /// # Errors
    ///
    /// Propagates script validation failures and deadlocks.
    pub fn run_tracked_iteration(&mut self) -> Result<(IterStats, AccessMatrix), DsmError> {
        let stats = self.run_one(true)?;
        let matrix = self.tracking.take().expect("tracked run stores its matrix");
        Ok((stats, matrix))
    }

    /// Reconfigures the running application to `new_mapping` by migrating
    /// threads (stack copies) between iterations, as §5 describes.
    ///
    /// # Errors
    ///
    /// Returns [`DsmError::MappingMismatch`] when the mapping covers a
    /// different thread count.
    pub fn migrate_to(&mut self, new_mapping: Mapping) -> Result<MigrationReport, DsmError> {
        if new_mapping.num_threads() != self.threads.len() {
            return Err(DsmError::MappingMismatch {
                mapping_threads: new_mapping.num_threads(),
                program_threads: self.threads.len(),
            });
        }
        let stack = self.config.cost.migration_stack_bytes;
        let mut moved = 0usize;
        let mut incoming = vec![0u64; self.nodes.len()];
        for t in 0..self.threads.len() {
            let from = self.threads[t].node;
            let to = new_mapping.node_of(t);
            if from != to {
                moved += 1;
                incoming[to.idx()] += 1;
                self.total.migrations += 1;
                self.total.net.record(MessageKind::Migration, stack);
                self.threads[t].node = to;
                self.emit(to.idx(), Event::Migration { thread: t, to });
            }
        }
        if moved > 0 {
            // Each node receives its incoming stacks, then all nodes
            // rendezvous (migration happens inside a barrier).
            let per_stack = self.config.network.transfer_time(stack);
            for (i, &arriving) in incoming.iter().enumerate() {
                if self.faults.is_none() {
                    self.nodes[i].time += per_stack * arriving;
                    continue;
                }
                for _ in 0..arriving {
                    let d =
                        self.faults
                            .deliver(self.nodes[i].id, self.nodes[i].time, per_stack, stack);
                    if d.retries > 0 {
                        self.total.retries += d.retries as u64;
                        self.total.net.record_retrans(
                            MessageKind::Migration,
                            stack,
                            d.retries as u64,
                        );
                    }
                    self.nodes[i].time += d.latency;
                }
            }
            let release = self
                .nodes
                .iter()
                .map(|n| n.time)
                .max()
                .expect("at least one node")
                + self.config.cost.barrier(self.nodes.len() as u64);
            for node in &mut self.nodes {
                node.time = release;
                node.threads.clear();
                node.last_ran = None;
            }
            for t in 0..self.threads.len() {
                let node = self.threads[t].node;
                self.nodes[node.idx()].threads.push(t);
            }
        }
        self.mapping = new_mapping;
        Ok(MigrationReport {
            moved,
            bytes: moved as u64 * stack,
        })
    }

    // ------------------------------------------------------------------
    // Iteration driver
    // ------------------------------------------------------------------

    fn run_one(&mut self, tracked: bool) -> Result<IterStats, DsmError> {
        let iteration = self.next_iteration;
        // Build each script once and check it, then copy it into the
        // thread's kept buffer and drop it before building the next, so
        // one set of scripts is held at a time. A script error returns
        // before any simulated time passes.
        let mut checker = ScriptChecker::new(&self.program, iteration);
        for t in 0..self.threads.len() {
            let script = self.program.script(t, iteration);
            checker.check(t, &script)?;
            self.threads[t].load(&script);
        }
        let start = self.now();
        for node in &mut self.nodes {
            node.ready.clear();
            node.last_ran = None;
            node.write_set.clear();
            for &t in &node.threads {
                node.ready.push_back(t);
            }
        }
        self.cur = IterStats::new();
        self.interval_mark = IterStats::new();
        self.interval_start = start;
        self.barrier_arrived = 0;
        if let Some(o) = self.oracle.as_mut() {
            o.begin_iteration(iteration);
        }
        if tracked {
            self.tracking = Some(AccessMatrix::new(self.threads.len(), self.num_pages));
            let sweep = self.config.cost.protect_sweep(self.num_pages as u64);
            for node in &mut self.nodes {
                node.arm_all_pages();
                node.time += sweep;
                node.pinned = if node.threads.is_empty() {
                    None
                } else {
                    Some(0)
                };
            }
        } else {
            self.tracking = None;
            for node in &mut self.nodes {
                node.pinned = None;
            }
        }
        self.begin_fault_interval();

        loop {
            if self.threads.iter().all(|t| t.status == ThreadStatus::Done) {
                break;
            }
            if self.barrier_arrived == self.threads.len() {
                self.release_barrier(tracked);
                continue;
            }
            match self.pick_node(tracked) {
                Some(n) => self.step_node(n, tracked),
                None => return Err(DsmError::Deadlock { iteration }),
            }
        }

        if tracked {
            let sweep = self.config.cost.protect_sweep(self.num_pages as u64);
            for node in &mut self.nodes {
                node.disarm_all_pages();
                node.time += sweep;
                node.pinned = None;
            }
        }
        // Nodes finished at the final barrier release; align on the max
        // (tracking disarm sweeps may have nudged them apart).
        let end = self.now();
        for node in &mut self.nodes {
            node.time = end;
        }
        self.cur.elapsed = end.saturating_since(start);
        self.total += self.cur;
        self.next_iteration += 1;
        if let Some(detail) = self.oracle.as_ref().and_then(|o| o.first_violation()) {
            return Err(DsmError::OracleViolation {
                iteration,
                detail: detail.to_string(),
            });
        }
        Ok(self.cur)
    }

    /// Picks the progress-capable node with the smallest local time.
    fn pick_node(&self, tracked: bool) -> Option<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.node_can_progress(i, tracked))
            .min_by_key(|&i| (self.nodes[i].time, i))
    }

    fn node_can_progress(&self, i: usize, tracked: bool) -> bool {
        let node = &self.nodes[i];
        if tracked {
            let Some(p) = node.pinned else { return false };
            let t = node.threads[p];
            match self.threads[t].status {
                ThreadStatus::Ready => true,
                ThreadStatus::Blocked => self.threads[t].wake_at < SimTime::MAX,
                _ => false,
            }
        } else {
            node.threads.iter().any(|&t| match self.threads[t].status {
                ThreadStatus::Ready => true,
                ThreadStatus::Blocked => self.threads[t].wake_at < SimTime::MAX,
                _ => false,
            })
        }
    }

    fn step_node(&mut self, i: usize, tracked: bool) {
        if tracked {
            let p = self.nodes[i].pinned.expect("progressable pinned node");
            let t = self.nodes[i].threads[p];
            if self.threads[t].status == ThreadStatus::Blocked {
                // No sibling may run: latency is exposed, not hidden.
                let wake = self.threads[t].wake_at;
                let node = &mut self.nodes[i];
                node.time = node.time.max(wake);
                self.threads[t].status = ThreadStatus::Ready;
            }
            self.run_thread(i, t, tracked);
            return;
        }
        self.wake_eligible(i);
        if self.nodes[i].ready.is_empty() {
            // Advance to the earliest completion among blocked threads.
            let min_wake = self.nodes[i]
                .threads
                .iter()
                .filter(|&&t| {
                    self.threads[t].status == ThreadStatus::Blocked
                        && self.threads[t].wake_at < SimTime::MAX
                })
                .map(|&t| self.threads[t].wake_at)
                .min()
                .expect("progressable node has a finite wake");
            let node = &mut self.nodes[i];
            node.time = node.time.max(min_wake);
            self.wake_eligible(i);
        }
        let t = if self.steer.is_some() && self.nodes[i].ready.len() > 1 {
            let alternatives = self.nodes[i].ready.len();
            let c = self.decide(i, alternatives);
            self.nodes[i].ready.remove(c).expect("choice in range")
        } else {
            let Some(t) = self.nodes[i].ready.pop_front() else {
                return;
            };
            t
        };
        if self.nodes[i].last_ran != Some(t) {
            self.nodes[i].time += self.config.cost.context_switch;
            self.nodes[i].last_ran = Some(t);
        }
        self.run_thread(i, t, tracked);
    }

    /// Moves blocked local threads whose wake time has passed to the ready
    /// queue, in thread order.
    fn wake_eligible(&mut self, i: usize) {
        let now = self.nodes[i].time;
        for k in 0..self.nodes[i].threads.len() {
            let t = self.nodes[i].threads[k];
            if self.threads[t].status == ThreadStatus::Blocked && self.threads[t].wake_at <= now {
                self.threads[t].status = ThreadStatus::Ready;
                self.nodes[i].ready.push_back(t);
            }
        }
    }

    /// Runs thread `t` on node `i` until it blocks, parks, or finishes.
    fn run_thread(&mut self, i: usize, t: usize, tracked: bool) {
        loop {
            if self.threads[t].finished() {
                self.threads[t].status = ThreadStatus::Done;
                return;
            }
            let op = self.threads[t].script[self.threads[t].pc];
            match op {
                Op::Compute { ns } => {
                    self.nodes[i].time += SimDuration::from_nanos(ns);
                    self.threads[t].pc += 1;
                }
                Op::Read { addr, len } | Op::Write { addr, len } => {
                    let kind = if matches!(op, Op::Write { .. }) {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    // The op's next page span starts `done` bytes in; an
                    // exhausted op has none left.
                    let done = self.threads[t].done;
                    let Some(span) = span_pages(addr + done, len - done).next() else {
                        self.threads[t].done = 0;
                        self.threads[t].pc += 1;
                        continue;
                    };
                    let dur = match self.access_page(i, t, span, kind, tracked) {
                        AccessOutcome::Proceed => {
                            self.threads[t].done += span.len() as u64;
                            continue;
                        }
                        AccessOutcome::Block(dur) => dur,
                        AccessOutcome::BlockCompleted(dur) => {
                            self.threads[t].done += span.len() as u64;
                            dur
                        }
                    };
                    self.cur.stall += dur;
                    self.threads[t].wake_at = self.nodes[i].time + dur;
                    self.threads[t].status = ThreadStatus::Blocked;
                    return;
                }
                Op::Barrier => {
                    self.threads[t].status = ThreadStatus::AtBarrier;
                    self.barrier_arrived += 1;
                    if tracked {
                        self.advance_pin(i);
                    }
                    return;
                }
                Op::Lock(l) => {
                    if self.acquire_lock(i, t, l) {
                        continue;
                    }
                    return;
                }
                Op::Unlock(l) => {
                    self.release_lock(i, t, l);
                    self.threads[t].pc += 1;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Memory access
    // ------------------------------------------------------------------

    fn access_page(
        &mut self,
        i: usize,
        t: usize,
        span: PageSpan,
        kind: AccessKind,
        tracked: bool,
    ) -> AccessOutcome {
        let page = span.page;
        // Correlation fault (active tracking).
        if tracked && self.nodes[i].pages.corr_armed(page.idx()) {
            self.nodes[i].pages.disarm(page.idx());
            self.tracking
                .as_mut()
                .expect("tracking matrix present while tracked")
                .record(t, page);
            self.nodes[i].time += self.config.cost.tracking_fault;
            self.cur.tracking_faults += 1;
            self.emit(i, Event::CorrelationFault { thread: t, page });
        }
        if let WriteMode::SingleWriter { delta } = self.config.write_mode {
            let outcome = self.access_page_sw(i, t, span, kind, delta);
            // Every single-writer outcome except a plain retrying block
            // completes the access (see `AccessOutcome::BlockCompleted`).
            if !matches!(outcome, AccessOutcome::Block(_)) {
                self.observe_access(t, span, kind);
            }
            return outcome;
        }
        // Coherence fault: fetch a current copy.
        if !self.nodes[i].pages.valid(page.idx()) {
            self.record_miss(i, t, page);
            let fetch_start = self.nodes[i].time;
            let applied = self.nodes[i].pages.applied_version(page.idx());
            let has_copy = self.nodes[i].pages.has_copy(page.idx());
            // Fill the reusable scratch plan in place; take/put-back keeps
            // the borrow checker out of the `net_send` calls below.
            let mut plan = std::mem::take(&mut self.plan_scratch);
            self.directory
                .fetch_plan_into(page, self.nodes[i].id, applied, has_copy, &mut plan);
            let mut dur = SimDuration::ZERO;
            if let Some(src) = plan.full_page_from {
                let bytes = acorr_mem::PAGE_SIZE as u64;
                let base = self.config.network.transfer_time(bytes);
                dur += self.net_send(i, MessageKind::PageFetch, bytes, base, Some(src.idx()));
            }
            for d in &plan.diffs {
                let base = self.config.network.transfer_time(d.bytes);
                dur += self.net_send(i, MessageKind::DiffFetch, d.bytes, base, Some(d.node.idx()));
            }
            let apply = self.config.cost.diff_apply(plan.diff_bytes());
            self.nodes[i].time += apply;
            let pages = &mut self.nodes[i].pages;
            pages.set_valid(page.idx(), true);
            pages.set_has_copy(page.idx(), true);
            pages.set_applied_version(page.idx(), plan.new_version);
            if pages.prot(page.idx()) == Protection::None {
                pages.set_prot(page.idx(), Protection::Read);
            }
            if let Some(o) = self.oracle.as_mut() {
                o.on_fetch(i, page, plan.new_version);
            }
            self.plan_scratch = plan;
            self.emit_fetch_latency(i, dur);
            self.emit_span(i, SpanPhase::Fetch, fetch_start, dur + apply);
            self.emit_span(i, SpanPhase::Apply, fetch_start + dur, apply);
            return AccessOutcome::Block(dur);
        }
        // Write fault: twin on first write of the interval.
        if kind == AccessKind::Write {
            let needs_twin = !self.nodes[i].pages.twin(page.idx());
            if needs_twin {
                self.cur.twin_faults += 1;
                let twin_start = self.nodes[i].time;
                self.nodes[i].time += self.config.cost.twin_create;
                self.nodes[i].pages.set_twin(page.idx(), true);
                self.nodes[i]
                    .pages
                    .set_prot(page.idx(), Protection::ReadWrite);
                self.nodes[i].write_set.push(page);
                self.emit(
                    i,
                    Event::WriteFault {
                        node: self.nodes[i].id,
                        page,
                    },
                );
                self.emit_span(
                    i,
                    SpanPhase::TwinCreate,
                    twin_start,
                    self.config.cost.twin_create,
                );
            }
            self.nodes[i]
                .pages
                .dirty_mut(page.idx())
                .insert(span.start, span.end);
            if let Some(o) = self.oracle.as_mut() {
                o.on_write(i, t, span);
            }
            if !self.threads[t].held_locks.is_empty()
                && !self.threads[t].lock_writes.contains(&page)
            {
                self.threads[t].lock_writes.push(page);
            }
        }
        // Multi-writer accesses complete exactly once on this path (the
        // fetch above blocks and *retries* the span).
        self.observe_access(t, span, kind);
        AccessOutcome::Proceed
    }

    /// Single-writer protocol access path (Mirage-style, §6): one writable
    /// copy at a time, ownership migrates on write faults, and a freshly
    /// transferred page is frozen at its owner for the delta interval.
    fn access_page_sw(
        &mut self,
        i: usize,
        t: usize,
        span: PageSpan,
        kind: AccessKind,
        delta: SimDuration,
    ) -> AccessOutcome {
        let page = span.page;
        let node_id = self.nodes[i].id;
        let is_owner = self.directory.page(page).owner == node_id;
        let valid = self.nodes[i].pages.valid(page.idx());
        match kind {
            AccessKind::Read => {
                if valid {
                    return AccessOutcome::Proceed;
                }
                self.record_miss(i, t, page);
                let now = self.nodes[i].time;
                let stall = self
                    .directory
                    .page(page)
                    .sw_frozen_until
                    .saturating_since(now);
                let owner = self.directory.page(page).owner;
                let bytes = acorr_mem::PAGE_SIZE as u64;
                let base = self.config.network.transfer_time(bytes);
                let transfer =
                    self.net_send(i, MessageKind::PageFetch, bytes, base, Some(owner.idx()));
                // The owner is downgraded so its next write faults and
                // re-invalidates this reader.
                if owner != node_id {
                    let opages = &mut self.nodes[owner.idx()].pages;
                    if opages.prot(page.idx()) == Protection::ReadWrite {
                        opages.set_prot(page.idx(), Protection::Read);
                    }
                }
                let pages = &mut self.nodes[i].pages;
                pages.set_valid(page.idx(), true);
                pages.set_has_copy(page.idx(), true);
                pages.set_prot(page.idx(), Protection::Read);
                if let Some(o) = self.oracle.as_mut() {
                    o.on_fetch_sw(i, page);
                }
                self.emit_fetch_latency(i, stall + transfer);
                self.emit_span(i, SpanPhase::Fetch, now, stall + transfer);
                AccessOutcome::BlockCompleted(stall + transfer)
            }
            AccessKind::Write => {
                if is_owner && valid {
                    if self.nodes[i].pages.prot(page.idx()) != Protection::ReadWrite {
                        // Local re-upgrade: invalidate the reader copies.
                        self.cur.twin_faults += 1;
                        let twin_start = self.nodes[i].time;
                        self.nodes[i].time += self.config.cost.twin_create;
                        self.invalidate_others_sw(i, page);
                        self.nodes[i]
                            .pages
                            .set_prot(page.idx(), Protection::ReadWrite);
                        self.nodes[i].write_set.push(page);
                        self.emit(
                            i,
                            Event::WriteFault {
                                node: self.nodes[i].id,
                                page,
                            },
                        );
                        self.emit_span(
                            i,
                            SpanPhase::TwinCreate,
                            twin_start,
                            self.config.cost.twin_create,
                        );
                    }
                    if let Some(o) = self.oracle.as_mut() {
                        o.on_write(i, t, span);
                    }
                    return AccessOutcome::Proceed;
                }
                // Ownership transfer (steal), delayed by the freeze.
                self.record_miss(i, t, page);
                self.cur.ownership_transfers += 1;
                let now = self.nodes[i].time;
                let stall = self
                    .directory
                    .page(page)
                    .sw_frozen_until
                    .saturating_since(now);
                let old_owner = self.directory.page(page).owner;
                let bytes = acorr_mem::PAGE_SIZE as u64;
                let base = self.config.network.transfer_time(bytes);
                let transfer = self.net_send(
                    i,
                    MessageKind::PageFetch,
                    bytes,
                    base,
                    Some(old_owner.idx()),
                );
                self.invalidate_others_sw(i, page);
                let wake = now + stall + transfer;
                self.directory
                    .transfer_ownership(page, node_id, wake + delta);
                self.emit(i, Event::OwnershipTransfer { page, to: node_id });
                let pages = &mut self.nodes[i].pages;
                pages.set_valid(page.idx(), true);
                pages.set_has_copy(page.idx(), true);
                pages.set_prot(page.idx(), Protection::ReadWrite);
                self.nodes[i].write_set.push(page);
                if let Some(o) = self.oracle.as_mut() {
                    o.on_fetch_sw(i, page);
                    o.on_write(i, t, span);
                }
                self.emit_fetch_latency(i, stall + transfer);
                self.emit_span(i, SpanPhase::Fetch, now, stall + transfer);
                AccessOutcome::BlockCompleted(stall + transfer)
            }
        }
    }

    /// Miss bookkeeping shared by both protocols.
    fn record_miss(&mut self, i: usize, t: usize, page: PageId) {
        self.cur.remote_misses += 1;
        self.cur.coherence_faults += 1;
        self.nodes[i].time += self.config.cost.coherence_fault;
        if let Some(passive) = self.passive.as_mut() {
            passive.record(t, page);
        }
        self.emit(
            i,
            Event::RemoteMiss {
                node: self.nodes[i].id,
                thread: t,
                page,
            },
        );
    }

    /// Invalidates every other node's copy of `page` (single-writer
    /// protocol), with write-notice accounting.
    fn invalidate_others_sw(&mut self, i: usize, page: PageId) {
        // The planted partition-tolerance bug: invalidations crossing an
        // active cut are silently dropped instead of queued for the heal.
        let lose_across = match self.config.inject {
            Some(InjectedBug::LosePartitionedInvalidations) => self.partition_split,
            None => None,
        };
        let mut invalidated = 0u64;
        for (j, node) in self.nodes.iter_mut().enumerate() {
            if j != i
                && node.pages.valid(page.idx())
                && lose_across.is_none_or(|split| (i < split) == (j < split))
            {
                node.pages.set_valid(page.idx(), false);
                node.pages.set_prot(page.idx(), Protection::None);
                invalidated += 1;
            }
        }
        for _ in 0..invalidated {
            let extra = self.net_send_extra(i, MessageKind::WriteNotice, NOTICE_BYTES, None);
            self.nodes[i].time += extra;
        }
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    fn release_barrier(&mut self, tracked: bool) {
        self.cur.barriers += 1;
        let close_start = self.nodes[0].time;
        let barrier_index = self.total.barriers + self.cur.barriers - 1;
        if matches!(self.config.write_mode, WriteMode::SingleWriter { .. }) {
            // Single-writer invalidations are eager; nothing to finalize,
            // and there are no diffs to garbage-collect. Write sets only
            // drive a barrier version bump for the statistics.
            for node in &mut self.nodes {
                node.write_set.clear();
            }
        } else {
            // Finalize every node's write intervals (creates diffs, sends
            // write notices, invalidates remote copies). Write sets are
            // bump-copied into the interval arena so both the node's vector
            // and the arena keep their capacity across intervals.
            for i in 0..self.nodes.len() {
                let range = self.interval_arena.take_from(&mut self.nodes[i].write_set);
                for k in range.indices() {
                    let page = self.interval_arena.at(k);
                    self.finalize_page(i, page);
                }
            }
            if self.directory.pending_records() > self.config.gc_diff_threshold {
                self.run_gc();
            }
        }
        // The barrier closes the interval: every arena range handed out
        // since the last barrier (write sets above, lock-write records) is
        // dead, so the whole buffer resets in one length store.
        self.interval_arena.reset();
        // Conformance check: every page's visible contents must match the
        // sequential reference memory now that write intervals are closed.
        if let Some(o) = self.oracle.as_mut() {
            o.check_barrier(&self.nodes, &self.directory);
        }
        // Differential checking: the protocol-independent visible-memory
        // model must agree with the oracle's committed image, then both the
        // model and the race detector roll into the next interval.
        if let Some(v) = self.visible.as_ref() {
            if let Some(o) = self.oracle.as_mut() {
                o.check_visible(v);
            }
        }
        if let Some(v) = self.visible.as_mut() {
            v.on_barrier();
        }
        if let Some(r) = self.race.as_mut() {
            r.on_barrier();
        }
        // Rendezvous: each non-root node reports in, the root releases.
        // Fault-injected delays on these control messages push out the
        // sender's arrival (and with it the release time).
        for j in 1..self.nodes.len() {
            let extra = self.net_send_extra(j, MessageKind::Barrier, BARRIER_MSG_BYTES, Some(0));
            self.nodes[j].time += extra;
            let extra = self.net_send_extra(0, MessageKind::Barrier, BARRIER_MSG_BYTES, Some(j));
            self.nodes[0].time += extra;
        }
        let n = self.nodes.len() as u64;
        let release = self
            .nodes
            .iter()
            .map(|nd| nd.time)
            .max()
            .expect("at least one node")
            + self.config.cost.barrier(n);
        for node in &mut self.nodes {
            node.time = release;
            node.ready.clear();
        }
        // Every clock reads the release time now, as the interval record
        // below is stamped.
        self.emit(
            0,
            Event::BarrierRelease {
                index: barrier_index,
            },
        );
        // Span: barrier close covers finalization through release, on the
        // root node's lane.
        self.emit_span(
            0,
            SpanPhase::BarrierClose,
            close_start,
            release.saturating_since(close_start),
        );
        // Observability: emit the per-interval statistics delta at the
        // release time, then re-mark. Purely observational — no simulated
        // cost is charged and no engine state other than the mark changes.
        if self.sink.is_some() {
            let mut delta = self.cur - self.interval_mark;
            delta.elapsed = release.saturating_since(self.interval_start);
            if let Some(sink) = self.sink.as_mut() {
                sink.record_interval(release, barrier_index, &delta);
            }
            self.interval_mark = self.cur;
            self.interval_start = release;
        }
        // Wake the world.
        self.barrier_arrived = 0;
        for t in 0..self.threads.len() {
            if self.threads[t].status == ThreadStatus::AtBarrier {
                self.threads[t].pc += 1;
                if self.threads[t].finished() {
                    self.threads[t].status = ThreadStatus::Done;
                } else {
                    self.threads[t].status = ThreadStatus::Ready;
                    let node = self.threads[t].node;
                    self.nodes[node.idx()].ready.push_back(t);
                }
            }
        }
        // Tracking: restart each node's sequential sweep at its first live
        // thread and re-arm the correlation bits.
        if tracked {
            let sweep = self.config.cost.protect_sweep(self.num_pages as u64);
            for node in &mut self.nodes {
                let next = node
                    .threads
                    .iter()
                    .position(|&t| self.threads[t].status != ThreadStatus::Done);
                node.pinned = next;
                if next.is_some() {
                    node.arm_all_pages();
                    node.time += sweep;
                }
            }
        }
        // The release opens the next interval: decide its fault action
        // (the oracle just checked the pre-crash state above, so a crash
        // here is validated at the *next* barrier). The final barrier of an
        // iteration opens nothing — the next `run_one` does.
        if self.threads.iter().any(|t| t.status != ThreadStatus::Done) {
            self.begin_fault_interval();
        }
    }

    /// After the pinned thread parks at a barrier, hand the node to its next
    /// live thread and re-arm the correlation bits (the per-switch
    /// protection restore the paper charges for).
    fn advance_pin(&mut self, i: usize) {
        let node = &self.nodes[i];
        let start = node.pinned.map_or(0, |p| p + 1);
        let next = (start..node.threads.len()).find(|&p| {
            let t = node.threads[p];
            !matches!(
                self.threads[t].status,
                ThreadStatus::AtBarrier | ThreadStatus::Done
            )
        });
        let node = &mut self.nodes[i];
        node.pinned = next;
        if next.is_some() {
            node.arm_all_pages();
            node.time += self.config.cost.protect_sweep(self.num_pages as u64)
                + self.config.cost.context_switch;
        }
    }

    /// Ends a node's write interval on one page: creates the diff, files the
    /// write notice, invalidates other replicas.
    fn finalize_page(&mut self, i: usize, page: PageId) {
        if matches!(self.config.write_mode, WriteMode::SingleWriter { .. }) {
            return; // single-writer invalidations are eager
        }
        let pages = &self.nodes[i].pages;
        if !pages.twin(page.idx()) && pages.dirty(page.idx()).is_empty() {
            return; // already finalized (e.g. at an earlier unlock)
        }
        let dirty_len = pages.dirty(page.idx()).total_len();
        let fragments = pages.dirty(page.idx()).fragment_count();
        let bytes = dirty_len + DIFF_RANGE_BYTES * fragments as u64 + DIFF_HEADER_BYTES;
        let build = self.config.cost.diff_create(bytes);
        let build_start = self.nodes[i].time;
        self.nodes[i].time += build;
        let ver = self.directory.record_diff(page, self.nodes[i].id, bytes);
        self.cur.diffs_created += 1;
        self.cur.diff_bytes_created += bytes;
        self.emit(
            i,
            Event::DiffCreated {
                node: self.nodes[i].id,
                page,
                bytes,
            },
        );
        self.emit_span(i, SpanPhase::DiffBuild, build_start, build);
        let extra = self.net_send_extra(i, MessageKind::WriteNotice, NOTICE_BYTES, None);
        self.nodes[i].time += extra;
        let pages = &mut self.nodes[i].pages;
        pages.set_twin(page.idx(), false);
        pages.dirty_mut(page.idx()).clear();
        if pages.prot(page.idx()) == Protection::ReadWrite {
            pages.set_prot(page.idx(), Protection::Read);
        }
        // Invalidate every other replica; a concurrent writer keeps its twin
        // and will merge on its next fetch. Under the planted bug, notices
        // crossing an active partition cut are silently lost.
        let lose_across = match self.config.inject {
            Some(InjectedBug::LosePartitionedInvalidations) => self.partition_split,
            None => None,
        };
        for (j, node) in self.nodes.iter_mut().enumerate() {
            if j != i
                && node.pages.valid(page.idx())
                && lose_across.is_none_or(|split| (i < split) == (j < split))
            {
                node.pages.set_valid(page.idx(), false);
                node.pages.set_prot(page.idx(), Protection::None);
            }
        }
        // A still-valid single writer now reflects the newest version.
        let pages = &mut self.nodes[i].pages;
        let still_valid = pages.valid(page.idx());
        if still_valid {
            pages.set_applied_version(page.idx(), ver);
        }
        if let Some(o) = self.oracle.as_mut() {
            o.on_finalize(i, page, dirty_len, fragments, ver, still_valid);
        }
    }

    /// Garbage collection: consolidate every page's pending diffs at its
    /// last writer and invalidate the other replicas (§2's source of extra
    /// remote faults).
    fn run_gc(&mut self) {
        self.cur.gc_runs += 1;
        for page in self.directory.pages_with_diffs() {
            let owner = self
                .directory
                .page(page)
                .diffs
                .last()
                .expect("page listed with diffs")
                .node;
            let oi = owner.idx();
            let applied = self.nodes[oi].pages.applied_version(page.idx());
            let has_copy = self.nodes[oi].pages.has_copy(page.idx());
            let mut plan = std::mem::take(&mut self.plan_scratch);
            self.directory
                .fetch_plan_into(page, owner, applied, has_copy, &mut plan);
            if let Some(src) = plan.full_page_from {
                let bytes = acorr_mem::PAGE_SIZE as u64;
                let base = self.config.network.transfer_time(bytes);
                let dur = self.net_send(oi, MessageKind::Gc, bytes, base, Some(src.idx()));
                self.nodes[oi].time += dur;
            }
            for d in &plan.diffs {
                let base = self.config.network.transfer_time(d.bytes);
                let dur = self.net_send(oi, MessageKind::Gc, d.bytes, base, Some(d.node.idx()));
                self.nodes[oi].time += dur;
            }
            self.nodes[oi].time += self.config.cost.diff_apply(plan.diff_bytes());
            let pages = &mut self.nodes[oi].pages;
            pages.set_valid(page.idx(), true);
            pages.set_has_copy(page.idx(), true);
            pages.set_applied_version(page.idx(), plan.new_version);
            if pages.prot(page.idx()) == Protection::None {
                pages.set_prot(page.idx(), Protection::Read);
            }
            if let Some(o) = self.oracle.as_mut() {
                o.on_fetch(oi, page, plan.new_version);
            }
            self.plan_scratch = plan;
            self.directory.consolidate(page, owner);
            self.cur.gc_pages += 1;
            self.emit(oi, Event::GcConsolidated { page, owner });
            for (j, node) in self.nodes.iter_mut().enumerate() {
                if j != oi && node.pages.valid(page.idx()) {
                    node.pages.set_valid(page.idx(), false);
                    node.pages.set_prot(page.idx(), Protection::None);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Locks
    // ------------------------------------------------------------------

    /// Attempts to acquire `l` for thread `t`. Returns `true` when the
    /// thread may keep running synchronously; `false` when it blocked.
    fn acquire_lock(&mut self, i: usize, t: usize, l: LockId) -> bool {
        let node_id = self.nodes[i].id;
        if self.locks[l.idx()].holder.is_some() {
            self.locks[l.idx()].queue.push_back(t);
            self.threads[t].status = ThreadStatus::Blocked;
            self.threads[t].wake_at = SimTime::MAX;
            return false;
        }
        self.cur.lock_acquires += 1;
        let lock = &mut self.locks[l.idx()];
        lock.holder = Some(t);
        let remote = lock.last_node.is_some() && lock.last_node != Some(node_id);
        lock.last_node = Some(node_id);
        let grant_base = self.nodes[i].time.max(lock.free_at);
        self.threads[t].held_locks.push(l);
        self.threads[t].pc += 1;
        if let Some(r) = self.race.as_mut() {
            r.on_lock_acquire(t, l.idx());
        }
        self.emit(
            i,
            Event::LockGranted {
                lock: l.idx(),
                thread: t,
                remote,
            },
        );
        if remote {
            self.cur.remote_lock_acquires += 1;
            let base = self.config.network.control_time();
            let delay = self.net_send(i, MessageKind::Lock, LOCK_MSG_BYTES, base, None)
                + self.net_send(i, MessageKind::Lock, LOCK_MSG_BYTES, base, None);
            self.threads[t].status = ThreadStatus::Blocked;
            self.cur.stall += delay;
            self.threads[t].wake_at = grant_base + delay;
            self.emit_lock_latency(i, delay);
            self.emit_span(i, SpanPhase::LockGrant, grant_base, delay);
            false
        } else {
            let node = &mut self.nodes[i];
            node.time = grant_base + self.config.cost.lock_local;
            let local = self.config.cost.lock_local;
            self.emit_lock_latency(i, local);
            self.emit_span(i, SpanPhase::LockGrant, grant_base, local);
            true
        }
    }

    fn release_lock(&mut self, i: usize, t: usize, l: LockId) {
        let popped = self.threads[t].held_locks.pop();
        debug_assert_eq!(popped, Some(l), "validated scripts unlock in order");
        // Eager-at-release: finalize the pages written under the lock so the
        // next acquirer sees them (the engine's stand-in for carrying write
        // notices with the lock grant).
        let range = self
            .interval_arena
            .take_from(&mut self.threads[t].lock_writes);
        for k in range.indices() {
            let page = self.interval_arena.at(k);
            self.finalize_page(i, page);
        }
        // Conformance check: everything written under the lock must now be
        // published for the next acquirer.
        if let Some(o) = self.oracle.as_mut() {
            o.check_lock_release(i, self.interval_arena.get(range), &self.directory);
        }
        if let Some(r) = self.race.as_mut() {
            r.on_lock_release(t, l.idx());
        }
        let now = self.nodes[i].time;
        let lock = &mut self.locks[l.idx()];
        lock.holder = None;
        lock.free_at = now;
        let next = if self.steer.is_some() && self.locks[l.idx()].queue.len() > 1 {
            let alternatives = self.locks[l.idx()].queue.len();
            let c = self.decide(i, alternatives);
            self.locks[l.idx()].queue.remove(c)
        } else {
            self.locks[l.idx()].queue.pop_front()
        };
        if let Some(next) = next {
            self.grant_queued(next, l, now);
        }
    }

    fn grant_queued(&mut self, t: usize, l: LockId, unlock_time: SimTime) {
        self.cur.lock_acquires += 1;
        let node_id = self.threads[t].node;
        let lock = &mut self.locks[l.idx()];
        lock.holder = Some(t);
        let remote = lock.last_node != Some(node_id);
        lock.last_node = Some(node_id);
        let delay = if remote {
            self.cur.remote_lock_acquires += 1;
            let ni = node_id.idx();
            let base = self.config.network.control_time();
            self.net_send(ni, MessageKind::Lock, LOCK_MSG_BYTES, base, None)
                + self.net_send(ni, MessageKind::Lock, LOCK_MSG_BYTES, base, None)
        } else {
            self.config.cost.lock_local
        };
        self.threads[t].held_locks.push(l);
        self.threads[t].pc += 1;
        if let Some(r) = self.race.as_mut() {
            r.on_lock_acquire(t, l.idx());
        }
        self.threads[t].status = ThreadStatus::Blocked;
        self.cur.stall += delay;
        self.threads[t].wake_at = unlock_time + delay;
        let node = self.threads[t].node.idx();
        self.emit(
            node,
            Event::LockGranted {
                lock: l.idx(),
                thread: t,
                remote,
            },
        );
        self.emit_lock_latency(node, delay);
        self.emit_span(node, SpanPhase::LockGrant, unlock_time, delay);
    }
}
