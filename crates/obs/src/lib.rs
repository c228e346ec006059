//! # acorr-obs — structured observability for the DSM reproduction
//!
//! Turns the engine's protocol event stream into inspectable artifacts
//! without perturbing the simulation. Built on the [`EventSink`] hook in
//! `acorr-dsm`, this crate provides:
//!
//! * **Sinks** — a JSONL structured log, a Chrome/Perfetto `trace_event`
//!   exporter (one track per node, a control lane, latency slices and a
//!   fault-plan counter lane), and the composite [`MultiSink`] that fans
//!   out to both of them and the metrics registry; its [`ObsHandle`]
//!   collects everything into one [`Observation`].
//! * **Metrics** — per-barrier-interval time series of statistic deltas
//!   and log2-bucketed histograms of remote-fetch and lock-grant
//!   latencies, exported as the observation's two CSVs.
//! * **Spans** — per-phase totals ([`SpanTotals`]) of the engine's
//!   `SpanBegin`/`SpanEnd` brackets, which every attached sink receives.
//! * **Manifests** ([`manifest`]) — a JSON reproducibility record per run
//!   or artifact: parameters, git revision, and an FNV-1a digest of the
//!   final statistics, so any result can be replayed and checked
//!   bit-for-bit.
//! * **JSON** ([`json`]) — the dependency-free encoder/parser everything
//!   above uses, preserving the workspace's offline-build guarantee.
//! * **Analysis** ([`analyze`]) — post-run attribution, critical path,
//!   span totals and phase shifts over a recorded `events.jsonl`.
//!
//! Observability is a **pure observer**: attaching the sink leaves
//! simulated time, statistics and golden tables bit-identical
//! (`tests/observability.rs` in the workspace root enforces this), and
//! nothing here decides anything — the phase detector that triggers
//! re-mapping lives in `acorr-track`.
//!
//! ```
//! use acorr_obs::MultiSink;
//! use acorr_dsm::trace::{Event, EventSink};
//! use acorr_sim::SimTime;
//!
//! let (mut sink, handle) = MultiSink::new(4);
//! sink.record_event(SimTime::ZERO, &Event::BarrierRelease { index: 0 });
//! let observation = handle.finish();
//! assert_eq!(observation.events_jsonl.lines().count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod json;
pub mod manifest;
mod metrics;
mod sinks;
mod spans;

pub use analyze::{Analysis, IntervalPath, PageHeat, ThreadComm};
pub use manifest::{bytes_digest, fnv1a, git_describe, stats_digest, RunManifest};
pub use sinks::{MultiSink, ObsHandle, Observation};
pub use spans::SpanTotals;

use acorr_dsm::trace::EventSink;
use std::io;
use std::path::{Path, PathBuf};

/// Builds a boxed composite sink (ready for `Dsm::attach_sink`) and its
/// collection handle for a cluster of `nodes` nodes.
pub fn observer(nodes: usize) -> (Box<dyn EventSink>, ObsHandle) {
    let (sink, handle) = MultiSink::new(nodes);
    (Box::new(sink), handle)
}

impl Observation {
    /// Writes the four artifacts into `dir` (created if needed) under
    /// their standard names — `events.jsonl`, `trace.json`, `metrics.csv`,
    /// `histograms.csv` — and returns the paths written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from directory creation or writes.
    pub fn write_to(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for (name, contents) in [
            ("events.jsonl", &self.events_jsonl),
            ("trace.json", &self.chrome_trace),
            ("metrics.csv", &self.metrics_csv),
            ("histograms.csv", &self.histograms_csv),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, contents)?;
            written.push(path);
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorr_dsm::trace::Event;
    use acorr_sim::SimTime;

    #[test]
    fn observer_builds_boxed_sink() {
        let (mut sink, handle) = observer(2);
        sink.record_event(SimTime::ZERO, &Event::BarrierRelease { index: 0 });
        let obs = handle.finish();
        assert_eq!(obs.events_jsonl.lines().count(), 1);
        assert!(obs.chrome_trace.contains("\"barrier_release\""));
    }

    #[test]
    fn write_to_emits_standard_names() {
        let dir = std::env::temp_dir().join(format!("acorr-obs-test-{}", std::process::id()));
        let (mut sink, handle) = observer(1);
        sink.record_event(SimTime::ZERO, &Event::BarrierRelease { index: 0 });
        let obs = handle.finish();
        let written = obs.write_to(&dir).unwrap();
        let names: Vec<String> = written
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            vec![
                "events.jsonl",
                "trace.json",
                "metrics.csv",
                "histograms.csv"
            ]
        );
        for p in &written {
            assert!(p.exists());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
