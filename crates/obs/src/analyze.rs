//! Post-run trace analytics: attribution and critical-path decomposition
//! over a recorded `events.jsonl` stream.
//!
//! The sinks record *what happened*; this pass answers *who caused it and
//! where the time went*:
//!
//! * **Page heat** — per-page counts of remote fetches, twin (write)
//!   faults, diffs and diff bytes, and ownership transfers; sorted hottest
//!   first so the top-K report names the pages behind the cut cost.
//! * **Thread attribution** — per-thread communication footprint (remote
//!   misses, tracking faults, lock grants, migrations).
//! * **Critical path** — per barrier interval, the node whose accumulated
//!   fetch + lock wait is largest, with the wait decomposed; the slowest
//!   chain the interval's elapsed time hides.
//! * **Span totals** — aggregated engine self-profiling spans
//!   ([`crate::spans`]).
//! * **Phase shifts** — windowed correlation phase-change detection over
//!   the tracked correlation faults ([`acorr_track::phases`]).
//!
//! Everything is computed with sorted maps and saturating integer
//! arithmetic in event order, so a fixed event stream produces
//! byte-identical artifacts on every run at any `--jobs` value. The caller
//! names the run's thread and page counts; an event outside them is an
//! error, so a corrupt stream cannot size the phase pass.

use crate::json::parse;
use crate::spans::{SpanProfile, SpanTotals};
use acorr_mem::{AccessMatrix, PageId};
use acorr_track::{CorrelationMatrix, PhaseDetector, PhaseShiftMark};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Default phase-detection window, in barrier intervals.
pub const DEFAULT_PHASE_WINDOW: usize = 4;
/// Default number of pages the human-readable report names.
pub const DEFAULT_TOP_K: usize = 10;

/// Communication heat attributed to one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageHeat {
    /// The page (artifact-side `u64` encoding of [`PageId`]).
    pub page: u64,
    /// Remote fetches (coherence misses) of this page.
    pub fetches: u64,
    /// Twin creations (first write of an interval).
    pub twins: u64,
    /// Diffs created from this page's twin.
    pub diffs: u64,
    /// Total diff bytes created for this page (saturating).
    pub diff_bytes: u64,
    /// Single-writer ownership transfers of this page.
    pub transfers: u64,
}

impl PageHeat {
    /// The sort key: protocol operations caused by this page.
    pub fn heat(&self) -> u64 {
        self.fetches + self.twins + self.diffs + self.transfers
    }
}

/// Communication footprint attributed to one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ThreadComm {
    /// The thread.
    pub thread: u64,
    /// Remote misses this thread's accesses took.
    pub remote_misses: u64,
    /// Correlation-tracking faults this thread took.
    pub tracking_faults: u64,
    /// Lock grants to this thread.
    pub lock_grants: u64,
    /// Lock grants that crossed nodes.
    pub remote_lock_grants: u64,
    /// Times this thread migrated.
    pub migrations: u64,
}

/// Critical-path decomposition of one barrier interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalPath {
    /// Barrier index closing the interval.
    pub barrier: u64,
    /// Interval wall time (simulated), from the interval record.
    pub elapsed_ns: u64,
    /// Accumulated stall, from the interval record.
    pub stall_ns: u64,
    /// The node with the largest fetch + lock wait this interval.
    pub critical_node: u64,
    /// That node's accumulated remote-fetch wait (saturating).
    pub fetch_wait_ns: u64,
    /// That node's accumulated lock-grant wait (saturating).
    pub lock_wait_ns: u64,
}

/// The complete analytics result for one run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Per-page heat, hottest first (ties by page id).
    pub pages: Vec<PageHeat>,
    /// Per-thread attribution, by thread id.
    pub threads: Vec<ThreadComm>,
    /// Per-interval critical path, by barrier index.
    pub intervals: Vec<IntervalPath>,
    /// Aggregated self-profiling spans, by phase name.
    pub spans: Vec<SpanTotals>,
    /// Detected correlation phase shifts, in firing order.
    pub shifts: Vec<PhaseShiftMark>,
    /// CSV rendering of the span totals (kept alongside the parsed form so
    /// writers don't re-derive it).
    spans_csv: String,
}

/// One parsed event stream, split into the pieces the passes consume.
#[derive(Debug, Default)]
struct StreamState {
    /// The run's thread and page counts: every event must fall inside.
    num_threads: u64,
    num_pages: u64,
    pages: BTreeMap<u64, PageHeat>,
    threads: BTreeMap<u64, ThreadComm>,
    intervals: Vec<IntervalPath>,
    spans: SpanProfile,
    fetch_wait: BTreeMap<u64, u64>,
    lock_wait: BTreeMap<u64, u64>,
    /// (thread, page) tracking observations per interval; the open
    /// interval's list is last.
    tracked: Vec<Vec<(u64, u64)>>,
}

/// Checks that `id` is one of the run's `count` threads or pages.
fn within(kind: &str, id: u64, count: u64) -> Result<(), String> {
    if id < count {
        return Ok(());
    }
    Err(format!("{kind} {id} is outside the run's {count} {kind}s"))
}

impl StreamState {
    fn page(&mut self, id: u64) -> Result<&mut PageHeat, String> {
        within("page", id, self.num_pages)?;
        Ok(self.pages.entry(id).or_insert_with(|| PageHeat {
            page: id,
            ..PageHeat::default()
        }))
    }

    fn thread(&mut self, id: u64) -> Result<&mut ThreadComm, String> {
        within("thread", id, self.num_threads)?;
        Ok(self.threads.entry(id).or_insert_with(|| ThreadComm {
            thread: id,
            ..ThreadComm::default()
        }))
    }

    fn open_interval(&mut self) -> &mut Vec<(u64, u64)> {
        if self.tracked.is_empty() {
            self.tracked.push(Vec::new());
        }
        self.tracked.last_mut().expect("pushed above")
    }
}

fn field_u64(v: &crate::json::Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(|f| f.as_u64())
        .ok_or_else(|| format!("missing or non-u64 member {key:?}"))
}

impl Analysis {
    /// Runs every analytics pass over the `events.jsonl` document of a run
    /// of `threads` threads over `pages` shared pages, with the default
    /// phase window.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line, or the first
    /// line whose thread or page the run does not have.
    pub fn from_events(jsonl: &str, threads: usize, pages: usize) -> Result<Analysis, String> {
        Analysis::from_events_windowed(jsonl, threads, pages, DEFAULT_PHASE_WINDOW)
    }

    /// Runs every analytics pass, closing a phase-detection window every
    /// `window` barrier intervals.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line, or the first
    /// line whose thread or page the run does not have.
    pub fn from_events_windowed(
        jsonl: &str,
        threads: usize,
        pages: usize,
        window: usize,
    ) -> Result<Analysis, String> {
        let mut st = StreamState {
            num_threads: threads as u64,
            num_pages: pages as u64,
            ..StreamState::default()
        };
        for (lineno, line) in jsonl.lines().enumerate() {
            let v = parse(line).map_err(|e| format!("events.jsonl line {}: {e}", lineno + 1))?;
            let ty = v
                .get("type")
                .and_then(|t| t.as_str())
                .ok_or_else(|| format!("events.jsonl line {}: no type", lineno + 1))?
                .to_string();
            Analysis::fold(&mut st, &ty, &v)
                .map_err(|e| format!("events.jsonl line {}: {e}", lineno + 1))?;
        }
        Ok(Analysis::finish(st, threads, pages, window))
    }

    fn fold(st: &mut StreamState, ty: &str, v: &crate::json::Value) -> Result<(), String> {
        match ty {
            "remote_miss" => {
                let page = field_u64(v, "page")?;
                let thread = field_u64(v, "thread")?;
                st.page(page)?.fetches += 1;
                st.thread(thread)?.remote_misses += 1;
            }
            "write_fault" => st.page(field_u64(v, "page")?)?.twins += 1,
            "diff_created" => {
                let page = field_u64(v, "page")?;
                let bytes = field_u64(v, "bytes")?;
                let heat = st.page(page)?;
                heat.diffs += 1;
                heat.diff_bytes = heat.diff_bytes.saturating_add(bytes);
            }
            "ownership_transfer" => st.page(field_u64(v, "page")?)?.transfers += 1,
            "correlation_fault" => {
                let thread = field_u64(v, "thread")?;
                let page = field_u64(v, "page")?;
                st.thread(thread)?.tracking_faults += 1;
                st.page(page)?; // the page joins the heat table
                st.open_interval().push((thread, page));
            }
            "lock_granted" => {
                let thread = field_u64(v, "thread")?;
                let remote = matches!(v.get("remote"), Some(crate::json::Value::Bool(true)));
                let t = st.thread(thread)?;
                t.lock_grants += 1;
                if remote {
                    t.remote_lock_grants += 1;
                }
            }
            "migration" => st.thread(field_u64(v, "thread")?)?.migrations += 1,
            "fetch_latency" => {
                let node = field_u64(v, "node")?;
                let ns = field_u64(v, "latency_ns")?;
                let wait = st.fetch_wait.entry(node).or_insert(0);
                *wait = wait.saturating_add(ns);
            }
            "lock_latency" => {
                let node = field_u64(v, "node")?;
                let ns = field_u64(v, "latency_ns")?;
                let wait = st.lock_wait.entry(node).or_insert(0);
                *wait = wait.saturating_add(ns);
            }
            "interval" => {
                let barrier = field_u64(v, "barrier")?;
                let delta = v.get("delta").ok_or("interval without delta")?;
                let elapsed_ns = field_u64(delta, "elapsed_ns")?;
                let stall_ns = field_u64(delta, "stall_ns")?;
                // Critical node: largest fetch + lock wait, ties to the
                // lowest node id (BTreeMap iteration order).
                let mut critical = (0u64, 0u64, 0u64); // (node, fetch, lock)
                let mut best = 0u64;
                let nodes: std::collections::BTreeSet<u64> = st
                    .fetch_wait
                    .keys()
                    .chain(st.lock_wait.keys())
                    .copied()
                    .collect();
                for node in nodes {
                    let f = st.fetch_wait.get(&node).copied().unwrap_or(0);
                    let l = st.lock_wait.get(&node).copied().unwrap_or(0);
                    if f.saturating_add(l) > best {
                        best = f.saturating_add(l);
                        critical = (node, f, l);
                    }
                }
                st.intervals.push(IntervalPath {
                    barrier,
                    elapsed_ns,
                    stall_ns,
                    critical_node: critical.0,
                    fetch_wait_ns: critical.1,
                    lock_wait_ns: critical.2,
                });
                st.fetch_wait.clear();
                st.lock_wait.clear();
                // The interval closes for phase detection too.
                st.tracked.push(Vec::new());
            }
            "span_begin" => {
                let id = field_u64(v, "id")?;
                let ts = field_u64(v, "ts")?;
                let phase = v
                    .get("phase")
                    .and_then(|p| p.as_str())
                    .ok_or("span_begin without phase")?;
                st.spans.begin(id, phase, ts);
            }
            "span_end" => {
                let id = field_u64(v, "id")?;
                let ts = field_u64(v, "ts")?;
                st.spans.end(id, ts);
            }
            // Markers that carry no attribution: tolerated, not folded.
            "barrier_release" | "gc_consolidated" | "schedule_decision" | "fault_decision"
            | "node_crash" | "phase_shift" => {}
            other => return Err(format!("unknown event type {other:?}")),
        }
        Ok(())
    }

    fn finish(st: StreamState, num_threads: usize, num_pages: usize, window: usize) -> Analysis {
        let mut pages: Vec<PageHeat> = st.pages.into_values().collect();
        pages.sort_by(|a, b| b.heat().cmp(&a.heat()).then(a.page.cmp(&b.page)));
        let threads: Vec<ThreadComm> = st.threads.into_values().collect();
        // Phase detection over the tracked observations, one correlation
        // matrix per barrier interval, sized by the run (`fold` checked
        // every observation against it).
        let mut shifts = Vec::new();
        if st.tracked.iter().any(|i| !i.is_empty()) {
            let mut detector = PhaseDetector::new(num_threads, window);
            for interval in st.tracked.iter().filter(|i| !i.is_empty()) {
                let mut access = AccessMatrix::new(num_threads, num_pages);
                for &(t, p) in interval {
                    if let Some(page) = PageId::from_u64(p) {
                        access.record(t as usize, page);
                    }
                }
                detector.observe(&CorrelationMatrix::from_access(&access));
            }
            detector.flush();
            shifts = detector.shifts().to_vec();
        }
        let spans_csv = st.spans.csv();
        Analysis {
            pages,
            threads,
            intervals: st.intervals,
            spans: st.spans.totals(),
            shifts,
            spans_csv,
        }
    }

    /// CSV: `page,fetches,twins,diffs,diff_bytes,transfers,heat`, hottest
    /// page first.
    pub fn page_heat_csv(&self) -> String {
        let mut out = String::from("page,fetches,twins,diffs,diff_bytes,transfers,heat\n");
        for p in &self.pages {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                p.page,
                p.fetches,
                p.twins,
                p.diffs,
                p.diff_bytes,
                p.transfers,
                p.heat()
            ));
        }
        out
    }

    /// CSV: `thread,remote_misses,tracking_faults,lock_grants,remote_lock_grants,migrations`.
    pub fn thread_comm_csv(&self) -> String {
        let mut out = String::from(
            "thread,remote_misses,tracking_faults,lock_grants,remote_lock_grants,migrations\n",
        );
        for t in &self.threads {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                t.thread,
                t.remote_misses,
                t.tracking_faults,
                t.lock_grants,
                t.remote_lock_grants,
                t.migrations
            ));
        }
        out
    }

    /// CSV: `barrier,elapsed_ns,stall_ns,critical_node,fetch_wait_ns,lock_wait_ns`.
    pub fn critical_path_csv(&self) -> String {
        let mut out =
            String::from("barrier,elapsed_ns,stall_ns,critical_node,fetch_wait_ns,lock_wait_ns\n");
        for i in &self.intervals {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                i.barrier,
                i.elapsed_ns,
                i.stall_ns,
                i.critical_node,
                i.fetch_wait_ns,
                i.lock_wait_ns
            ));
        }
        out
    }

    /// CSV: `window,delta_ppm`, one row per detected shift.
    pub fn phases_csv(&self) -> String {
        let mut out = String::from("window,delta_ppm\n");
        for s in &self.shifts {
            out.push_str(&format!("{},{}\n", s.window, s.delta_ppm));
        }
        out
    }

    /// CSV: `phase,count,total_ns,max_ns`, one row per profiled phase.
    pub fn spans_csv(&self) -> String {
        self.spans_csv.clone()
    }

    /// The human-readable report. `digest` is the manifest's stats digest
    /// (`fnv1a:...`), echoed so the report is verifiable against the
    /// manifest; `top_k` bounds the hot-page table.
    pub fn report(&self, digest: &str, top_k: usize) -> String {
        let mut out = String::new();
        out.push_str("acorr trace analytics\n");
        out.push_str("=====================\n");
        out.push_str(&format!("stats digest: {digest}\n\n"));
        out.push_str(&format!(
            "hot pages (top {} of {}):\n",
            top_k.min(self.pages.len()),
            self.pages.len()
        ));
        out.push_str("  page    fetches  twins  diffs  diff_bytes  transfers  heat\n");
        for p in self.pages.iter().take(top_k) {
            out.push_str(&format!(
                "  {:<7} {:<8} {:<6} {:<6} {:<11} {:<10} {}\n",
                p.page,
                p.fetches,
                p.twins,
                p.diffs,
                p.diff_bytes,
                p.transfers,
                p.heat()
            ));
        }
        out.push('\n');
        out.push_str(&format!("threads attributed: {}\n", self.threads.len()));
        let busiest = self
            .threads
            .iter()
            .max_by_key(|t| (t.remote_misses, std::cmp::Reverse(t.thread)));
        if let Some(t) = busiest {
            out.push_str(&format!(
                "busiest thread: {} ({} remote misses, {} tracking faults)\n",
                t.thread, t.remote_misses, t.tracking_faults
            ));
        }
        out.push('\n');
        out.push_str(&format!(
            "barrier intervals decomposed: {}\n",
            self.intervals.len()
        ));
        let worst = self.intervals.iter().max_by_key(|i| {
            (
                i.fetch_wait_ns.saturating_add(i.lock_wait_ns),
                std::cmp::Reverse(i.barrier),
            )
        });
        if let Some(w) = worst {
            out.push_str(&format!(
                "worst interval: barrier {} (critical node {}, fetch wait {} ns, lock wait {} ns)\n",
                w.barrier, w.critical_node, w.fetch_wait_ns, w.lock_wait_ns
            ));
        }
        out.push('\n');
        out.push_str("span totals:\n");
        if self.spans.is_empty() {
            out.push_str("  (no spans recorded)\n");
        }
        for s in &self.spans {
            out.push_str(&format!(
                "  {:<14} count {:<8} total {} ns (max {} ns)\n",
                s.phase, s.count, s.total_ns, s.max_ns
            ));
        }
        out.push('\n');
        if self.shifts.is_empty() {
            out.push_str("phase shifts: none detected\n");
        } else {
            out.push_str(&format!("phase shifts: {}\n", self.shifts.len()));
            for s in &self.shifts {
                out.push_str(&format!(
                    "  window {} delta {} ppm\n",
                    s.window, s.delta_ppm
                ));
            }
        }
        out
    }

    /// Writes the analysis artifacts into `dir` (created if needed):
    /// `page_heat.csv`, `thread_comm.csv`, `critical_path.csv`,
    /// `spans.csv`, `phases.csv`, `report.txt`. Returns the paths written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path, report: &str) -> io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let entries: [(&str, String); 6] = [
            ("page_heat.csv", self.page_heat_csv()),
            ("thread_comm.csv", self.thread_comm_csv()),
            ("critical_path.csv", self.critical_path_csv()),
            ("spans.csv", self.spans_csv()),
            ("phases.csv", self.phases_csv()),
            ("report.txt", report.to_string()),
        ];
        let mut written = Vec::new();
        for (name, contents) in entries {
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
    use crate::sinks::JsonlSink;
    use acorr_dsm::trace::{Event, EventSink, SpanPhase};
    use acorr_dsm::IterStats;
    use acorr_sim::{NodeId, SimDuration, SimTime};

    /// The run [`sample_log`] stands for: threads 0..4, pages 0..8.
    const THREADS: usize = 4;
    const PAGES: usize = 8;

    fn sample(jsonl: &str) -> Result<Analysis, String> {
        Analysis::from_events(jsonl, THREADS, PAGES)
    }

    fn sample_log() -> String {
        let mut sink = JsonlSink::new();
        let t = |ns| SimTime::from_nanos(ns);
        sink.record_event(
            t(10),
            &Event::RemoteMiss {
                node: NodeId(1),
                thread: 3,
                page: PageId(7),
            },
        );
        sink.record_event(
            t(11),
            &Event::RemoteMiss {
                node: NodeId(1),
                thread: 3,
                page: PageId(7),
            },
        );
        sink.record_event(
            t(12),
            &Event::WriteFault {
                node: NodeId(0),
                page: PageId(2),
            },
        );
        sink.record_event(
            t(13),
            &Event::DiffCreated {
                node: NodeId(0),
                page: PageId(2),
                bytes: 128,
            },
        );
        sink.record_event(
            t(14),
            &Event::LockGranted {
                lock: 0,
                thread: 3,
                remote: true,
            },
        );
        sink.record_fetch_latency(t(20), NodeId(1), SimDuration::from_nanos(500));
        sink.record_fetch_latency(t(21), NodeId(0), SimDuration::from_nanos(100));
        sink.record_lock_latency(t(22), NodeId(1), SimDuration::from_nanos(50));
        sink.record_event(
            t(30),
            &Event::SpanBegin {
                id: 0,
                phase: SpanPhase::Fetch,
                node: NodeId(1),
            },
        );
        sink.record_event(
            t(40),
            &Event::SpanEnd {
                id: 0,
                phase: SpanPhase::Fetch,
                node: NodeId(1),
            },
        );
        let mut delta = IterStats::new();
        delta.elapsed = SimDuration::from_nanos(1000);
        delta.stall = SimDuration::from_nanos(300);
        sink.record_interval(t(50), 0, &delta);
        sink.render()
    }

    #[test]
    fn attributes_pages_threads_and_critical_path() {
        let a = sample(&sample_log()).unwrap();
        // Page 7 is hottest (2 fetches beats 1 twin + 1 diff on ties by
        // heat then page id: both have heat 2, page 2 sorts first).
        assert_eq!(a.pages.len(), 2);
        assert_eq!(a.pages[0].page, 2);
        assert_eq!(a.pages[0].heat(), 2);
        assert_eq!(a.pages[0].diff_bytes, 128);
        assert_eq!(a.pages[1].page, 7);
        assert_eq!(a.pages[1].fetches, 2);
        // Thread 3 took both misses and one remote lock grant.
        assert_eq!(a.threads.len(), 1);
        assert_eq!(a.threads[0].thread, 3);
        assert_eq!(a.threads[0].remote_misses, 2);
        assert_eq!(a.threads[0].lock_grants, 1);
        assert_eq!(a.threads[0].remote_lock_grants, 1);
        // Node 1 is critical: 500 fetch + 50 lock > node 0's 100.
        assert_eq!(a.intervals.len(), 1);
        let i = &a.intervals[0];
        assert_eq!(i.barrier, 0);
        assert_eq!(i.elapsed_ns, 1000);
        assert_eq!(i.stall_ns, 300);
        assert_eq!(i.critical_node, 1);
        assert_eq!(i.fetch_wait_ns, 500);
        assert_eq!(i.lock_wait_ns, 50);
        // One completed fetch span.
        assert_eq!(a.spans.len(), 1);
        assert_eq!(a.spans[0].phase, "fetch");
        assert_eq!(a.spans[0].total_ns, 10);
    }

    #[test]
    fn csvs_are_deterministic_and_headed() {
        let log = sample_log();
        let a = sample(&log).unwrap();
        let b = sample(&log).unwrap();
        assert_eq!(a.page_heat_csv(), b.page_heat_csv());
        assert_eq!(a.critical_path_csv(), b.critical_path_csv());
        assert!(a
            .page_heat_csv()
            .starts_with("page,fetches,twins,diffs,diff_bytes,transfers,heat\n"));
        assert!(a
            .critical_path_csv()
            .starts_with("barrier,elapsed_ns,stall_ns,critical_node,fetch_wait_ns,lock_wait_ns\n"));
        assert!(a.thread_comm_csv().contains("3,2,0,1,1,0\n"));
    }

    #[test]
    fn report_carries_the_digest_line() {
        let a = sample(&sample_log()).unwrap();
        let report = a.report("fnv1a:deadbeef00000000", 5);
        assert!(report.contains("stats digest: fnv1a:deadbeef00000000\n"));
        assert!(report.contains("hot pages"));
        assert!(report.contains("span totals:"));
    }

    #[test]
    fn detects_a_phase_shift_in_tracked_streams() {
        // Synthesize a tracked log: intervals 0..6 pair (0,1)+(2,3);
        // intervals 6..12 pair (1,2)+(3,0) — a rotation at interval 6 with
        // window 2 ⇒ fires at window 3 (intervals 6-7).
        let mut sink = JsonlSink::new();
        let mut ns = 0u64;
        for interval in 0..12u64 {
            let pairs: [(u64, u64); 4] = if interval < 6 {
                [(0, 10), (1, 10), (2, 20), (3, 20)]
            } else {
                [(1, 30), (2, 30), (3, 40), (0, 40)]
            };
            for (thread, page) in pairs {
                ns += 1;
                sink.record_event(
                    SimTime::from_nanos(ns),
                    &Event::CorrelationFault {
                        thread: thread as usize,
                        page: PageId(page as u32),
                    },
                );
            }
            ns += 1;
            sink.record_interval(SimTime::from_nanos(ns), interval, &IterStats::new());
        }
        let a = Analysis::from_events_windowed(&sink.render(), 4, 41, 2).unwrap();
        assert_eq!(a.shifts.len(), 1, "{:?}", a.shifts);
        assert_eq!(a.shifts[0].window, 3);
        assert!(a.phases_csv().contains("3,"));
    }

    #[test]
    fn untracked_streams_detect_nothing() {
        let a = sample(&sample_log()).unwrap();
        assert!(a.shifts.is_empty());
        assert_eq!(a.phases_csv(), "window,delta_ppm\n");
    }

    #[test]
    fn malformed_lines_are_reported_with_position() {
        let err = sample("{\"ts\":1,\"type\":\"interval\"}").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = sample("not json").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    /// `sample_log` plus `lines`, `MAX` standing for `u64::MAX`.
    fn with_lines(lines: &[&str]) -> String {
        let mut log = sample_log();
        for line in lines {
            log.push_str(&line.replace("MAX", &u64::MAX.to_string()));
            log.push('\n');
        }
        log
    }

    #[test]
    fn a_thread_the_run_lacks_is_an_error_not_a_threads_squared_matrix() {
        // Refused before anything is sized from it: a dense aged matrix
        // over 3,000,000 threads does not fit in memory.
        let err = sample(&with_lines(&[
            r#"{"type":"correlation_fault","node":0,"thread":3000000,"page":4000000000}"#,
        ]));
        assert_eq!(
            err.unwrap_err(),
            "events.jsonl line 12: thread 3000000 is outside the run's 4 threads"
        );
        let err = sample(&with_lines(&[
            r#"{"type":"write_fault","node":0,"page":8}"#,
        ]));
        assert!(err
            .unwrap_err()
            .ends_with("line 12: page 8 is outside the run's 8 pages"));
    }

    #[test]
    fn a_u64_max_thread_is_an_error_not_a_wrapped_index() {
        // Counting `u64::MAX + 1` threads would wrap to zero.
        let line = r#"{"type":"correlation_fault","node":0,"thread":MAX,"page":2}"#;
        let err = sample(&with_lines(&[line])).unwrap_err();
        assert!(err.starts_with(&format!("events.jsonl line 12: thread {}", u64::MAX)));
    }

    #[test]
    fn sums_saturate_instead_of_wrapping() {
        // A wrapped sum would report these two diffs as 1 byte.
        let a = sample(&with_lines(&[
            r#"{"type":"diff_created","node":0,"page":7,"bytes":MAX}"#,
            r#"{"type":"diff_created","node":0,"page":7,"bytes":2}"#,
            r#"{"type":"fetch_latency","node":0,"latency_ns":MAX}"#,
            r#"{"type":"fetch_latency","node":0,"latency_ns":1}"#,
            r#"{"type":"lock_latency","node":0,"latency_ns":MAX}"#,
            r#"{"type":"interval","barrier":1,"delta":{"elapsed_ns":0,"stall_ns":0}}"#,
            r#"{"type":"span_begin","ts":0,"id":5,"phase":"fetch"}"#,
            r#"{"type":"span_end","ts":MAX,"id":5}"#,
        ]))
        .unwrap();
        let max = u64::MAX;
        assert!(a
            .page_heat_csv()
            .contains(&format!("\n7,2,0,2,{max},0,4\n")));
        assert!(a
            .critical_path_csv()
            .ends_with(&format!("\n1,0,0,0,{max},{max}\n")));
        assert_eq!(a.spans[0].total_ns, max);
        assert!(a.report("fnv1a:0", 3).contains("worst interval: barrier 1"));
    }

    #[test]
    fn write_to_emits_all_artifacts() {
        let dir = std::env::temp_dir().join(format!("acorr-analyze-test-{}", std::process::id()));
        let a = sample(&sample_log()).unwrap();
        let written = a.write_to(&dir, &a.report("fnv1a:0", 3)).unwrap();
        let names: Vec<String> = written
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            vec![
                "page_heat.csv",
                "thread_comm.csv",
                "critical_path.csv",
                "spans.csv",
                "phases.csv",
                "report.txt"
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
