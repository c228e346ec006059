//! [`EventSink`] implementations: JSONL, Chrome/Perfetto `trace_event`,
//! and a composite that fans one engine event stream out to both of them
//! and the metrics registry behind a shared handle.

use crate::json::Obj;
use crate::metrics::MetricsRegistry;
use acorr_dsm::trace::{Event, EventSink, SpanPhase};
use acorr_dsm::IterStats;
use acorr_sim::{FaultAction, NodeId, SimDuration, SimTime};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Renders one event's type tag and payload members into `obj`.
fn push_event_fields(obj: &mut Obj, event: &Event) {
    match *event {
        Event::CorrelationFault { thread, page } => {
            obj.str("type", "correlation_fault")
                .u64("thread", thread as u64)
                .u64("page", page.as_u64());
        }
        Event::RemoteMiss { node, thread, page } => {
            obj.str("type", "remote_miss")
                .u64("node", u64::from(node.0))
                .u64("thread", thread as u64)
                .u64("page", page.as_u64());
        }
        Event::WriteFault { node, page } => {
            obj.str("type", "write_fault")
                .u64("node", u64::from(node.0))
                .u64("page", page.as_u64());
        }
        Event::OwnershipTransfer { page, to } => {
            obj.str("type", "ownership_transfer")
                .u64("page", page.as_u64())
                .u64("to", u64::from(to.0));
        }
        Event::DiffCreated { node, page, bytes } => {
            obj.str("type", "diff_created")
                .u64("node", u64::from(node.0))
                .u64("page", page.as_u64())
                .u64("bytes", bytes);
        }
        Event::GcConsolidated { page, owner } => {
            obj.str("type", "gc_consolidated")
                .u64("page", page.as_u64())
                .u64("owner", u64::from(owner.0));
        }
        Event::BarrierRelease { index } => {
            obj.str("type", "barrier_release").u64("index", index);
        }
        Event::LockGranted {
            lock,
            thread,
            remote,
        } => {
            obj.str("type", "lock_granted")
                .u64("lock", lock as u64)
                .u64("thread", thread as u64)
                .bool("remote", remote);
        }
        Event::Migration { thread, to } => {
            obj.str("type", "migration")
                .u64("thread", thread as u64)
                .u64("to", u64::from(to.0));
        }
        Event::ScheduleDecision {
            seq,
            alternatives,
            choice,
        } => {
            obj.str("type", "schedule_decision")
                .u64("seq", seq)
                .u64("alternatives", u64::from(alternatives))
                .u64("choice", u64::from(choice));
        }
        Event::FaultDecision {
            interval,
            alternatives,
            choice,
        } => {
            obj.str("type", "fault_decision")
                .u64("interval", interval)
                .u64("alternatives", u64::from(alternatives))
                .u64("choice", u64::from(choice));
        }
        Event::NodeCrash { node, pages } => {
            obj.str("type", "node_crash")
                .u64("node", u64::from(node.0))
                .u64("pages", pages);
        }
        Event::SpanBegin { id, phase, node } => {
            obj.str("type", "span_begin")
                .u64("id", id)
                .str("phase", phase.name())
                .u64("node", u64::from(node.0));
        }
        Event::SpanEnd { id, phase, node } => {
            obj.str("type", "span_end")
                .u64("id", id)
                .str("phase", phase.name())
                .u64("node", u64::from(node.0));
        }
        Event::PhaseShift { window, delta_ppm } => {
            obj.str("type", "phase_shift")
                .u64("window", window)
                .u64("delta_ppm", delta_ppm);
        }
        Event::RemapAccepted {
            step,
            moves,
            cut_before,
            cut_after,
            cost,
        } => {
            obj.str("type", "remap_accepted")
                .u64("step", step)
                .u64("moves", moves)
                .u64("cut_before", cut_before)
                .u64("cut_after", cut_after)
                .u64("cost", cost);
        }
        Event::RemapRejected {
            step,
            moves,
            cut_before,
            cut_after,
            cost,
        } => {
            obj.str("type", "remap_rejected")
                .u64("step", step)
                .u64("moves", moves)
                .u64("cut_before", cut_before)
                .u64("cut_after", cut_after)
                .u64("cost", cost);
        }
    }
}

/// The short stable name of a decoded [`FaultAction`], used in trace args.
fn fault_kind(action: FaultAction) -> &'static str {
    match action {
        FaultAction::None => "none",
        FaultAction::Partition { .. } => "partition",
        FaultAction::Duplicate => "dup",
        FaultAction::Corrupt => "corrupt",
        FaultAction::Crash { .. } => "crash",
    }
}

/// The fault section of a replay token prescribing exactly this decision:
/// `!` followed by `interval` zero choices, then `choice` — paste it after
/// a schedule token to replay the injected fault deterministically.
fn fault_token_fragment(interval: u64, choice: u32) -> String {
    let mut token = String::from("!");
    for _ in 0..interval {
        token.push_str("0.");
    }
    token.push_str(&choice.to_string());
    token
}

/// An [`EventSink`] that renders every callback as one JSON object per
/// line. Protocol events carry `"type"` tags; the derived streams appear
/// as `"fetch_latency"`, `"lock_latency"` and `"interval"` records, so the
/// file is a complete structured log of the run.
#[derive(Debug, Default)]
pub struct JsonlSink {
    lines: Vec<String>,
}

impl JsonlSink {
    /// An empty sink.
    pub fn new() -> Self {
        JsonlSink::default()
    }

    /// The rendered log: newline-separated JSON objects (trailing newline
    /// included when non-empty).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

impl EventSink for JsonlSink {
    fn record_event(&mut self, at: SimTime, event: &Event) {
        let mut obj = Obj::new();
        obj.u64("ts", at.as_nanos());
        push_event_fields(&mut obj, event);
        self.lines.push(obj.finish());
    }

    fn record_fetch_latency(&mut self, at: SimTime, node: NodeId, latency: SimDuration) {
        let mut obj = Obj::new();
        obj.u64("ts", at.as_nanos())
            .str("type", "fetch_latency")
            .u64("node", u64::from(node.0))
            .u64("latency_ns", latency.as_nanos());
        self.lines.push(obj.finish());
    }

    fn record_lock_latency(&mut self, at: SimTime, node: NodeId, latency: SimDuration) {
        let mut obj = Obj::new();
        obj.u64("ts", at.as_nanos())
            .str("type", "lock_latency")
            .u64("node", u64::from(node.0))
            .u64("latency_ns", latency.as_nanos());
        self.lines.push(obj.finish());
    }

    fn record_interval(&mut self, at: SimTime, barrier: u64, delta: &IterStats) {
        let mut obj = Obj::new();
        obj.u64("ts", at.as_nanos())
            .str("type", "interval")
            .u64("barrier", barrier)
            .raw("delta", &crate::json::iter_stats_json(delta));
        self.lines.push(obj.finish());
    }
}

/// Synthetic process IDs structuring the Chrome trace: one process for
/// protocol events, one for latency slices, one for the fault-plan lane.
const PID_PROTOCOL: u32 = 1;
const PID_LATENCY: u32 = 2;
const PID_FAULTS: u32 = 3;

/// An [`EventSink`] emitting Chrome `trace_event` JSON, loadable in
/// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
///
/// Track layout:
/// * **protocol** process — one track per node carrying instant events for
///   node-attributed protocol activity, plus a `control` track for
///   cluster-wide events (barriers, correlation faults, lock grants).
/// * **latency** process — one track per node with duration slices for
///   remote fetches and lock grants (slice end = completion time).
/// * **faults** process — one counter lane fed per barrier interval with
///   the fault injector's observable work (retries, retransmitted bytes).
///
/// Timestamps are microseconds with nanosecond fractions, as the format
/// requires.
#[derive(Debug)]
pub struct ChromeTraceSink {
    nodes: usize,
    events: Vec<String>,
}

fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

impl ChromeTraceSink {
    /// Creates a sink for a cluster of `nodes` nodes, pre-populating the
    /// process/thread naming metadata.
    pub fn new(nodes: usize) -> Self {
        let mut sink = ChromeTraceSink {
            nodes,
            events: Vec::new(),
        };
        for (pid, name) in [
            (PID_PROTOCOL, "protocol"),
            (PID_LATENCY, "latency"),
            (PID_FAULTS, "faults"),
        ] {
            let mut obj = Obj::new();
            obj.str("name", "process_name")
                .str("ph", "M")
                .u64("pid", u64::from(pid))
                .u64("tid", 0)
                .raw("args", &Obj::new().str("name", name).finish());
            sink.events.push(obj.finish());
        }
        for node in 0..nodes {
            for pid in [PID_PROTOCOL, PID_LATENCY] {
                let mut obj = Obj::new();
                obj.str("name", "thread_name")
                    .str("ph", "M")
                    .u64("pid", u64::from(pid))
                    .u64("tid", node as u64)
                    .raw(
                        "args",
                        &Obj::new().str("name", &format!("node {node}")).finish(),
                    );
                sink.events.push(obj.finish());
            }
        }
        for (offset, name) in [(0u64, "control"), (1, "scheduler")] {
            let mut obj = Obj::new();
            obj.str("name", "thread_name")
                .str("ph", "M")
                .u64("pid", u64::from(PID_PROTOCOL))
                .u64("tid", nodes as u64 + offset)
                .raw("args", &Obj::new().str("name", name).finish());
            sink.events.push(obj.finish());
        }
        sink
    }

    /// The lane (tid within the protocol process) an event is drawn on:
    /// its node when it has one, the `control` lane otherwise.
    fn lane_of(&self, event: &Event) -> u64 {
        match *event {
            Event::RemoteMiss { node, .. }
            | Event::WriteFault { node, .. }
            | Event::DiffCreated { node, .. } => u64::from(node.0),
            Event::OwnershipTransfer { to, .. } | Event::Migration { to, .. } => u64::from(to.0),
            Event::GcConsolidated { owner, .. } => u64::from(owner.0),
            Event::CorrelationFault { .. }
            | Event::BarrierRelease { .. }
            | Event::LockGranted { .. } => self.nodes as u64,
            // Schedule and fault decisions share the scheduler track, so an
            // explored interleaving reads as a lane of choice markers in
            // Perfetto with the injected faults inline.
            Event::ScheduleDecision { .. } | Event::FaultDecision { .. } => self.nodes as u64 + 1,
            Event::NodeCrash { node, .. } => u64::from(node.0),
            // Spans are rendered as nestable slices before lane dispatch;
            // these arms only keep the match exhaustive.
            Event::SpanBegin { node, .. } | Event::SpanEnd { node, .. } => u64::from(node.0),
            // A phase shift is a cluster-wide detection, not a node event.
            Event::PhaseShift { .. } => self.nodes as u64,
            // Re-mapping verdicts are placement decisions: they join the
            // scheduler/decision track next to schedule and fault choices.
            Event::RemapAccepted { .. } | Event::RemapRejected { .. } => self.nodes as u64 + 1,
        }
    }

    /// Emits one endpoint of a nestable duration span (`ph` is `"b"` or
    /// `"e"`) on the latency process, on the owning node's track.
    fn span_mark(&mut self, at: SimTime, ph: &str, id: u64, phase: SpanPhase, node: NodeId) {
        let mut obj = Obj::new();
        obj.str("name", phase.name())
            .str("cat", "span")
            .str("ph", ph)
            .u64("id", id)
            .u64("pid", u64::from(PID_LATENCY))
            .u64("tid", u64::from(node.0))
            .raw("ts", &micros(at.as_nanos()));
        self.events.push(obj.finish());
    }

    fn instant(&mut self, at: SimTime, name: &str, tid: u64, args_json: &str) {
        let mut obj = Obj::new();
        obj.str("name", name)
            .str("ph", "i")
            .str("s", "t")
            .u64("pid", u64::from(PID_PROTOCOL))
            .u64("tid", tid)
            .raw("ts", &micros(at.as_nanos()))
            .raw("args", args_json);
        self.events.push(obj.finish());
    }

    fn slice(&mut self, end: SimTime, name: &str, tid: u64, dur: SimDuration) {
        let start_ns = end.as_nanos().saturating_sub(dur.as_nanos());
        let mut obj = Obj::new();
        obj.str("name", name)
            .str("ph", "X")
            .u64("pid", u64::from(PID_LATENCY))
            .u64("tid", tid)
            .raw("ts", &micros(start_ns))
            .raw("dur", &micros(dur.as_nanos()));
        self.events.push(obj.finish());
    }

    /// The rendered trace document: `{"displayTimeUnit":"ns",
    /// "traceEvents":[...]}`.
    pub fn render(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(ev);
        }
        out.push_str("]}");
        out
    }
}

impl EventSink for ChromeTraceSink {
    fn record_event(&mut self, at: SimTime, event: &Event) {
        // Profiling spans render as Perfetto nestable slices, not instants.
        match *event {
            Event::SpanBegin { id, phase, node } => {
                self.span_mark(at, "b", id, phase, node);
                return;
            }
            Event::SpanEnd { id, phase, node } => {
                self.span_mark(at, "e", id, phase, node);
                return;
            }
            _ => {}
        }
        let tid = self.lane_of(event);
        let mut args = Obj::new();
        push_event_fields(&mut args, event);
        // Fault decisions additionally carry the decoded fault kind and the
        // replay-token fragment that reproduces them, so the scheduler lane
        // doubles as a copy-paste repro line.
        if let Event::FaultDecision {
            interval, choice, ..
        } = *event
        {
            let action = FaultAction::from_choice(choice as usize, self.nodes);
            args.str("kind", fault_kind(action))
                .str("token", &fault_token_fragment(interval, choice));
        }
        let args_json = args.finish();
        // The "type" member doubles as the slice name; Perfetto groups
        // instants by name, so kinds form visual rows.
        let name = match *event {
            Event::CorrelationFault { .. } => "correlation_fault",
            Event::RemoteMiss { .. } => "remote_miss",
            Event::WriteFault { .. } => "write_fault",
            Event::OwnershipTransfer { .. } => "ownership_transfer",
            Event::DiffCreated { .. } => "diff_created",
            Event::GcConsolidated { .. } => "gc_consolidated",
            Event::BarrierRelease { .. } => "barrier_release",
            Event::LockGranted { .. } => "lock_granted",
            Event::Migration { .. } => "migration",
            Event::ScheduleDecision { .. } => "schedule_decision",
            Event::FaultDecision { .. } => "fault_decision",
            Event::NodeCrash { .. } => "node_crash",
            // Handled above; kept for exhaustiveness.
            Event::SpanBegin { .. } => "span_begin",
            Event::SpanEnd { .. } => "span_end",
            Event::PhaseShift { .. } => "phase_shift",
            Event::RemapAccepted { .. } => "remap_accepted",
            Event::RemapRejected { .. } => "remap_rejected",
        };
        self.instant(at, name, tid, &args_json);
    }

    fn record_fetch_latency(&mut self, at: SimTime, node: NodeId, latency: SimDuration) {
        self.slice(at, "fetch", u64::from(node.0), latency);
    }

    fn record_lock_latency(&mut self, at: SimTime, node: NodeId, latency: SimDuration) {
        self.slice(at, "lock", u64::from(node.0), latency);
    }

    fn record_interval(&mut self, at: SimTime, barrier: u64, delta: &IterStats) {
        let mut args = Obj::new();
        args.u64("retries", delta.retries)
            .u64("retrans_bytes", delta.net.total_retrans_bytes());
        let mut obj = Obj::new();
        obj.str("name", "fault-plan")
            .str("ph", "C")
            .u64("pid", u64::from(PID_FAULTS))
            .u64("tid", 0)
            .u64("id", barrier)
            .raw("ts", &micros(at.as_nanos()))
            .raw("args", &args.finish());
        self.events.push(obj.finish());
    }
}

/// The three backends every observed run records into, shared by a
/// [`MultiSink`] and its [`ObsHandle`]. Its [`EventSink`] impl is the one
/// fan-out both of them use.
#[derive(Debug)]
struct ObsBuffers {
    jsonl: JsonlSink,
    chrome: ChromeTraceSink,
    metrics: MetricsRegistry,
}

impl ObsBuffers {
    fn new(nodes: usize) -> Self {
        ObsBuffers {
            jsonl: JsonlSink::new(),
            chrome: ChromeTraceSink::new(nodes),
            metrics: MetricsRegistry::new(),
        }
    }
}

impl EventSink for ObsBuffers {
    fn record_event(&mut self, at: SimTime, event: &Event) {
        self.jsonl.record_event(at, event);
        self.chrome.record_event(at, event);
    }

    fn record_fetch_latency(&mut self, at: SimTime, node: NodeId, latency: SimDuration) {
        self.jsonl.record_fetch_latency(at, node, latency);
        self.chrome.record_fetch_latency(at, node, latency);
        self.metrics.record_fetch(latency);
    }

    fn record_lock_latency(&mut self, at: SimTime, node: NodeId, latency: SimDuration) {
        self.jsonl.record_lock_latency(at, node, latency);
        self.chrome.record_lock_latency(at, node, latency);
        self.metrics.record_lock(latency);
    }

    fn record_interval(&mut self, at: SimTime, barrier: u64, delta: &IterStats) {
        self.jsonl.record_interval(at, barrier, delta);
        self.chrome.record_interval(at, barrier, delta);
        self.metrics.record_interval(at, barrier, delta);
    }
}

type Shared = Arc<Mutex<ObsBuffers>>;

fn lock(shared: &Shared) -> MutexGuard<'_, ObsBuffers> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A composite [`EventSink`] fanning each callback out to the JSONL log,
/// the Chrome trace and the metrics registry. The buffers live behind an
/// `Arc`, so the paired [`ObsHandle`] can collect the results after the
/// engine (which owns the boxed sink) is done — no trait-object
/// downcasting required.
#[derive(Debug)]
pub struct MultiSink {
    inner: Shared,
}

/// The collection side of a [`MultiSink`]: call [`ObsHandle::finish`] once
/// the run completes to take the rendered artifacts.
#[derive(Debug, Clone)]
pub struct ObsHandle {
    inner: Shared,
}

/// Rendered observability artifacts for one run.
#[derive(Debug)]
pub struct Observation {
    /// JSONL structured log (`events.jsonl`).
    pub events_jsonl: String,
    /// Chrome `trace_event` document (`trace.json`).
    pub chrome_trace: String,
    /// Interval time-series CSV (`metrics.csv`).
    pub metrics_csv: String,
    /// Latency histogram CSV (`histograms.csv`).
    pub histograms_csv: String,
}

impl MultiSink {
    /// Builds a composite sink for a cluster of `nodes` nodes, returning
    /// the sink (to attach to the engine) and the handle (to collect
    /// results from).
    pub fn new(nodes: usize) -> (MultiSink, ObsHandle) {
        let inner = Arc::new(Mutex::new(ObsBuffers::new(nodes)));
        (
            MultiSink {
                inner: Arc::clone(&inner),
            },
            ObsHandle { inner },
        )
    }
}

impl EventSink for MultiSink {
    fn record_event(&mut self, at: SimTime, event: &Event) {
        lock(&self.inner).record_event(at, event);
    }

    fn record_fetch_latency(&mut self, at: SimTime, node: NodeId, latency: SimDuration) {
        lock(&self.inner).record_fetch_latency(at, node, latency);
    }

    fn record_lock_latency(&mut self, at: SimTime, node: NodeId, latency: SimDuration) {
        lock(&self.inner).record_lock_latency(at, node, latency);
    }

    fn record_interval(&mut self, at: SimTime, barrier: u64, delta: &IterStats) {
        lock(&self.inner).record_interval(at, barrier, delta);
    }
}

impl ObsHandle {
    /// Records one event into the shared backends from the collection
    /// side. This is how post-hoc detections (e.g. [`Event::PhaseShift`]
    /// from a phase detector) join the same artifacts as engine events:
    /// the handle shares the buffers with the attached [`MultiSink`].
    pub fn record_event(&self, at: SimTime, event: &Event) {
        lock(&self.inner).record_event(at, event);
    }

    /// Takes the buffers, leaving empty ones behind, and renders them.
    /// Call after the run; a later call sees only what was recorded since.
    pub fn finish(&self) -> Observation {
        let mut guard = lock(&self.inner);
        let fresh = ObsBuffers::new(guard.chrome.nodes);
        let buffers = std::mem::replace(&mut *guard, fresh);
        drop(guard);
        Observation {
            events_jsonl: buffers.jsonl.render(),
            chrome_trace: buffers.chrome.render(),
            metrics_csv: buffers.metrics.timeseries_csv(),
            histograms_csv: buffers.metrics.histogram_csv(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use acorr_mem::PageId;

    fn feed(sink: &mut dyn EventSink) {
        sink.record_event(
            SimTime::from_nanos(100),
            &Event::RemoteMiss {
                node: NodeId(1),
                thread: 3,
                page: PageId(7),
            },
        );
        sink.record_event(
            SimTime::from_nanos(200),
            &Event::BarrierRelease { index: 0 },
        );
        sink.record_fetch_latency(
            SimTime::from_nanos(300),
            NodeId(1),
            SimDuration::from_nanos(250),
        );
        sink.record_lock_latency(
            SimTime::from_nanos(400),
            NodeId(0),
            SimDuration::from_nanos(50),
        );
        let mut delta = IterStats::new();
        delta.retries = 2;
        sink.record_interval(SimTime::from_nanos(500), 0, &delta);
    }

    #[test]
    fn jsonl_lines_are_each_valid_json() {
        let mut sink = JsonlSink::new();
        feed(&mut sink);
        let text = sink.render();
        let mut types = Vec::new();
        for line in text.lines() {
            let v = parse(line).expect("valid JSON line");
            types.push(v.get("type").unwrap().as_str().unwrap().to_string());
        }
        assert_eq!(
            types,
            vec![
                "remote_miss",
                "barrier_release",
                "fetch_latency",
                "lock_latency",
                "interval"
            ]
        );
    }

    #[test]
    fn chrome_trace_is_valid_and_structured() {
        let mut sink = ChromeTraceSink::new(2);
        feed(&mut sink);
        let doc = parse(&sink.render()).expect("valid trace JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // Metadata: 3 process names + 2 nodes x 2 pids + control and
        // scheduler lanes.
        let meta = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .count();
        assert_eq!(meta, 9);
        // The miss is an instant on node 1's protocol track.
        let miss = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("remote_miss"))
            .unwrap();
        assert_eq!(miss.get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(miss.get("tid").unwrap().as_u64(), Some(1));
        // The barrier lands on the control lane (tid == nodes).
        let barrier = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("barrier_release"))
            .unwrap();
        assert_eq!(barrier.get("tid").unwrap().as_u64(), Some(2));
        // The fetch is a duration slice ending at its completion time.
        let fetch = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("fetch"))
            .unwrap();
        assert_eq!(fetch.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(fetch.get("ts").unwrap().as_f64(), Some(0.05));
        assert_eq!(fetch.get("dur").unwrap().as_f64(), Some(0.25));
        // The fault lane is a counter.
        let faults = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("fault-plan"))
            .unwrap();
        assert_eq!(faults.get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(
            faults.get("args").unwrap().get("retries").unwrap().as_u64(),
            Some(2)
        );
    }

    #[test]
    fn spans_render_as_nestable_slices() {
        let mut sink = ChromeTraceSink::new(2);
        sink.record_event(
            SimTime::from_nanos(1000),
            &Event::SpanBegin {
                id: 7,
                phase: SpanPhase::Fetch,
                node: NodeId(1),
            },
        );
        sink.record_event(
            SimTime::from_nanos(3000),
            &Event::SpanEnd {
                id: 7,
                phase: SpanPhase::Fetch,
                node: NodeId(1),
            },
        );
        let doc = parse(&sink.render()).expect("valid trace JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // No new metadata lanes: spans reuse the latency process tracks.
        let meta = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .count();
        assert_eq!(meta, 9);
        let begin = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("b"))
            .unwrap();
        assert_eq!(begin.get("name").unwrap().as_str(), Some("fetch"));
        assert_eq!(begin.get("cat").unwrap().as_str(), Some("span"));
        assert_eq!(begin.get("id").unwrap().as_u64(), Some(7));
        assert_eq!(begin.get("pid").unwrap().as_u64(), Some(2));
        assert_eq!(begin.get("tid").unwrap().as_u64(), Some(1));
        assert_eq!(begin.get("ts").unwrap().as_f64(), Some(1.0));
        let end = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("e"))
            .unwrap();
        assert_eq!(end.get("id").unwrap().as_u64(), Some(7));
        assert_eq!(end.get("ts").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn fault_decisions_carry_kind_and_replay_token() {
        let mut sink = ChromeTraceSink::new(4);
        sink.record_event(
            SimTime::from_nanos(500),
            &Event::FaultDecision {
                interval: 2,
                alternatives: 5,
                choice: 1,
            },
        );
        let doc = parse(&sink.render()).expect("valid trace JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let fd = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("fault_decision"))
            .unwrap();
        // Scheduler lane: tid == nodes + 1.
        assert_eq!(fd.get("tid").unwrap().as_u64(), Some(5));
        let args = fd.get("args").unwrap();
        assert_eq!(args.get("kind").unwrap().as_str(), Some("partition"));
        assert_eq!(args.get("token").unwrap().as_str(), Some("!0.0.1"));
    }

    #[test]
    fn phase_shift_lands_on_the_control_lane() {
        let mut sink = ChromeTraceSink::new(2);
        sink.record_event(
            SimTime::from_nanos(900),
            &Event::PhaseShift {
                window: 3,
                delta_ppm: 412_000,
            },
        );
        let doc = parse(&sink.render()).expect("valid trace JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let shift = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("phase_shift"))
            .unwrap();
        assert_eq!(shift.get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(shift.get("tid").unwrap().as_u64(), Some(2));
        let args = shift.get("args").unwrap();
        assert_eq!(args.get("window").unwrap().as_u64(), Some(3));
        assert_eq!(args.get("delta_ppm").unwrap().as_u64(), Some(412_000));
    }

    #[test]
    fn remap_verdicts_land_on_the_decision_lane_with_costs() {
        let mut sink = ChromeTraceSink::new(2);
        sink.record_event(
            SimTime::from_nanos(1000),
            &Event::RemapAccepted {
                step: 12,
                moves: 8,
                cut_before: 400,
                cut_after: 120,
                cost: 32,
            },
        );
        sink.record_event(
            SimTime::from_nanos(1100),
            &Event::RemapRejected {
                step: 24,
                moves: 2,
                cut_before: 96,
                cut_after: 90,
                cost: 8,
            },
        );
        let doc = parse(&sink.render()).expect("valid trace JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let accepted = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("remap_accepted"))
            .unwrap();
        // Decision lane: tid == nodes + 1, next to schedule choices.
        assert_eq!(accepted.get("tid").unwrap().as_u64(), Some(3));
        let args = accepted.get("args").unwrap();
        assert_eq!(args.get("moves").unwrap().as_u64(), Some(8));
        assert_eq!(args.get("cut_before").unwrap().as_u64(), Some(400));
        assert_eq!(args.get("cut_after").unwrap().as_u64(), Some(120));
        assert_eq!(args.get("cost").unwrap().as_u64(), Some(32));
        let rejected = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("remap_rejected"))
            .unwrap();
        assert_eq!(rejected.get("tid").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn remap_events_reach_jsonl_through_the_handle() {
        let (_sink, handle) = MultiSink::new(2);
        handle.record_event(
            SimTime::from_nanos(700),
            &Event::RemapRejected {
                step: 3,
                moves: 4,
                cut_before: 50,
                cut_after: 48,
                cost: 16,
            },
        );
        let jsonl = handle.finish().events_jsonl;
        assert!(jsonl.contains("\"type\":\"remap_rejected\""));
        assert!(jsonl.contains("\"cut_before\":50"));
    }

    #[test]
    fn handle_record_event_joins_the_same_buffers() {
        let (mut sink, handle) = MultiSink::new(2);
        feed(&mut sink);
        handle.record_event(
            SimTime::from_nanos(600),
            &Event::PhaseShift {
                window: 1,
                delta_ppm: 500_000,
            },
        );
        let obs = handle.finish();
        assert!(obs.events_jsonl.contains("\"type\":\"phase_shift\""));
        assert!(obs.chrome_trace.contains("\"name\":\"phase_shift\""));
    }

    #[test]
    fn multi_sink_fans_out_and_handle_collects() {
        let (mut sink, handle) = MultiSink::new(2);
        feed(&mut sink);
        let obs = handle.finish();
        assert_eq!(obs.events_jsonl.lines().count(), 5);
        assert!(parse(&obs.chrome_trace).is_ok());
        assert_eq!(obs.metrics_csv.lines().count(), 2);
        assert!(obs.histograms_csv.contains("fetch,"));
        // A second finish sees empty buffers.
        let again = handle.finish();
        assert!(again.events_jsonl.is_empty());
        assert_eq!(again.metrics_csv.lines().count(), 1, "header only");
    }
}
