//! In-memory spans recorded around the program's public calls.
//!
//! A span has a name, a parent, a start, an end and the id of the unit it
//! belongs to (0 = set-up, 1.. = measured units). Spans nest strictly
//! because one thread drives every workload, so a span's self time is its
//! duration minus its direct children's. Counts are recorded at the same
//! boundaries. Nothing is written until the run ends.

use acorr::obs::json::{escape, Obj};
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the span that wraps one whole traced unit.
pub const UNIT: &str = "unit";

/// One timed call.
#[derive(Debug)]
pub struct Span {
    /// Layer name, e.g. `track.ingest`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Unit id (0 = set-up).
    pub unit: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans and counts in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u32,
    counts: BTreeMap<(u32, &'static str), f64>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Tags the spans and counts recorded from now on with `unit`.
    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            unit: self.unit,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Adds `value` to the count `name` of the current unit.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry((self.unit, name)).or_insert(0.0) += value;
    }

    /// Every span recorded, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The counts of `unit`, by name.
    pub fn unit_counts(&self, unit: u32) -> BTreeMap<&'static str, f64> {
        self.counts
            .iter()
            .filter(|((u, _), _)| *u == unit)
            .map(|((_, name), v)| (*name, *v))
            .collect()
    }

    /// Chrome `trace_event` JSON (complete events, microseconds), which
    /// Perfetto and `chrome://tracing` open.
    pub fn chrome_json(&self, process: &str) -> String {
        let mut events = Vec::with_capacity(self.spans.len() + 1);
        events.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":1,"tid":1,"args":{{"name":"{}"}}}}"#,
            escape(process)
        ));
        for span in &self.spans {
            let mut args = Obj::new();
            args.u64("unit", u64::from(span.unit));
            let mut event = Obj::new();
            event
                .str("name", span.name)
                .str("cat", span.name.split('.').next().unwrap_or(span.name))
                .str("ph", "X")
                .f64("ts", span.start_ns as f64 / 1e3)
                .f64("dur", span.duration_ns() as f64 / 1e3)
                .u64("pid", 1)
                .u64("tid", 1)
                .raw("args", &args.finish());
            events.push(event.finish());
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] -= span.duration_ns();
        }
    }
    own
}

/// Time one layer spent over a set of units.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Inclusive time (children counted).
    pub total_ns: u64,
    /// Self time (children excluded).
    pub self_ns: u64,
}

/// Per-layer totals over the spans whose unit satisfies `keep`.
pub fn layer_times(
    spans: &[Span],
    keep: impl Fn(u32) -> bool,
) -> BTreeMap<&'static str, LayerTime> {
    let own = self_times(spans);
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(own) {
        if keep(span.unit) {
            let layer = layers.entry(span.name).or_default();
            layer.total_ns += span.duration_ns();
            layer.self_ns += self_ns;
        }
    }
    layers
}

/// Durations, in milliseconds, of every span named `name` whose parent is
/// named `parent` (any parent when `None`), over units `keep` accepts.
pub fn durations_ms(
    spans: &[Span],
    name: &str,
    parent: Option<&str>,
    keep: impl Fn(u32) -> bool,
) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && keep(s.unit))
        .filter(|s| parent.is_none_or(|p| s.parent.is_some_and(|i| spans[i].name == p)))
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            unit: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // unit [0,100) > a [10,60) > b [20,30); unit > c [70,90)
        let spans = vec![
            span(UNIT, None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(1), 20, 30),
            span("c", Some(0), 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        let layers = layer_times(&spans, |_| true);
        assert_eq!(layers["a"].total_ns, 50);
        assert_eq!(layers["a"].self_ns, 40);
        let self_sum: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, 100, "self times partition the root span");
        assert!(layer_times(&spans, |u| u == 0).is_empty());
    }

    #[test]
    fn tracer_nests_spans_and_keeps_counts_per_unit() {
        let mut tracer = Tracer::new();
        tracer.set_unit(3);
        let out = tracer.span(UNIT, |t| {
            t.count("x.items", 2.0);
            t.span("inner", |t| {
                t.count("x.items", 1.0);
                7
            })
        });
        assert_eq!(out, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(tracer.unit_counts(3)["x.items"], 3.0);
        assert!(tracer.unit_counts(0).is_empty());
        assert_eq!(durations_ms(spans, "inner", Some(UNIT), |_| true).len(), 1);
        assert!(durations_ms(spans, "inner", Some("other"), |_| true).is_empty());
        let json = acorr::obs::json::parse(&tracer.chrome_json("test")).expect("valid JSON");
        assert_eq!(
            json.get("traceEvents")
                .and_then(|e| e.as_arr())
                .map(<[_]>::len),
            Some(3)
        );
    }
}
