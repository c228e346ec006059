//! Watching the protocol work: event tracing.
//!
//! Attaches a small event sink to a tiny two-node run and prints the event
//! timeline — write faults creating twins, diffs finalized at the barrier,
//! the reader's remote miss, the barrier releases. Each event is stamped
//! with its own node's clock, and the clocks run apart between barriers,
//! so the events are sorted (stably) by their stamps before printing. Then
//! switches the same program to the single-writer protocol and shows the
//! ownership ping-pong §6 talks about.
//!
//! Run with: `cargo run --release --example protocol_trace`

use active_correlation_tracking::dsm::{
    Dsm, DsmConfig, DsmError, Event, EventSink, Op, Program, WriteMode,
};
use active_correlation_tracking::sim::{ClusterConfig, Mapping, SimDuration, SimTime};
use std::sync::{Arc, Mutex};

/// Keeps every protocol event the engine hands it, skipping the profiling
/// spans.
#[derive(Debug, Clone, Default)]
struct Timeline(Arc<Mutex<Vec<(SimTime, Event)>>>);

impl EventSink for Timeline {
    fn record_event(&mut self, at: SimTime, event: &Event) {
        if !matches!(event, Event::SpanBegin { .. } | Event::SpanEnd { .. }) {
            self.0.lock().unwrap().push((at, *event));
        }
    }
}

/// Two threads on two nodes, taking turns with one shared page.
#[derive(Clone)]
struct PingPong;

impl Program for PingPong {
    fn name(&self) -> &str {
        "ping-pong"
    }
    fn shared_bytes(&self) -> u64 {
        4096
    }
    fn num_threads(&self) -> usize {
        2
    }
    fn script(&self, thread: usize, _iteration: usize) -> Vec<Op> {
        if thread == 0 {
            vec![Op::write(0, 128), Op::Barrier, Op::read(2048, 128)]
        } else {
            vec![Op::Barrier, Op::write(2048, 128), Op::read(0, 128)]
        }
    }
}

fn run_with(mode: WriteMode) -> Result<(), DsmError> {
    let cluster = ClusterConfig::new(2, 2)?;
    let mut dsm = Dsm::new(
        DsmConfig::new(cluster).with_write_mode(mode),
        PingPong,
        Mapping::stretch(&cluster),
    )?;
    let timeline = Timeline::default();
    dsm.attach_sink(Box::new(timeline.clone()));
    dsm.run_iterations(2)?;
    let mut events = timeline.0.lock().unwrap().clone();
    events.sort_by_key(|&(at, _)| at);
    for (at, event) in &events {
        println!("{at}  {event}");
    }
    println!();
    let transfers = events
        .iter()
        .filter(|(_, e)| matches!(e, Event::OwnershipTransfer { .. }))
        .count();
    let diffs = events
        .iter()
        .filter(|(_, e)| matches!(e, Event::DiffCreated { .. }))
        .count();
    println!("ownership transfers: {transfers}, diffs created: {diffs}\n");
    Ok(())
}

fn main() -> Result<(), DsmError> {
    println!("=== multi-writer LRC (CVM's protocol) ===");
    run_with(WriteMode::MultiWriter)?;
    println!("=== single-writer with 100us delta (Mirage-style) ===");
    run_with(WriteMode::SingleWriter {
        delta: SimDuration::from_micros(100),
    })?;
    println!(
        "Under multi-writer, writes produce twins and diffs and nobody\n\
         steals pages; under single-writer the same program moves page\n\
         ownership back and forth instead."
    );
    Ok(())
}
