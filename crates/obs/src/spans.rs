//! Span aggregation: folds the engine's `SpanBegin`/`SpanEnd` profiling
//! brackets into per-phase totals.
//!
//! The engine emits one begin/end pair per profiled phase occurrence (twin
//! create, diff build, fetch, apply, lock grant, barrier close), matched by
//! a run-unique ordinal. [`SpanProfile`] pairs them back up and accumulates
//! count, total and maximum duration per phase — the "where did the time
//! go" half of the analytics report.

use std::collections::BTreeMap;

/// Aggregated durations for one span phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTotals {
    /// The phase name (`SpanPhase::name` on the engine side).
    pub phase: String,
    /// Completed spans observed.
    pub count: u64,
    /// Sum of span durations, nanoseconds (saturating).
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

/// Pairs span begin/end events by ordinal and accumulates per-phase totals.
#[derive(Debug, Default)]
pub struct SpanProfile {
    /// Spans begun but not yet ended: ordinal → (phase, begin timestamp).
    open: BTreeMap<u64, (String, u64)>,
    /// Phase → (count, total, max).
    totals: BTreeMap<String, (u64, u64, u64)>,
}

impl SpanProfile {
    /// Records a span begin at `ts_ns`.
    pub fn begin(&mut self, id: u64, phase: &str, ts_ns: u64) {
        self.open.insert(id, (phase.to_string(), ts_ns));
    }

    /// Records a span end at `ts_ns`. Ends without a matching begin are
    /// ignored (a truncated log loses the pair, not the pass).
    pub fn end(&mut self, id: u64, ts_ns: u64) {
        if let Some((phase, begin)) = self.open.remove(&id) {
            let dur = ts_ns.saturating_sub(begin);
            let entry = self.totals.entry(phase).or_insert((0, 0, 0));
            entry.0 += 1;
            entry.1 = entry.1.saturating_add(dur);
            entry.2 = entry.2.max(dur);
        }
    }

    /// Per-phase totals, sorted by phase name for deterministic output.
    pub fn totals(&self) -> Vec<SpanTotals> {
        self.totals
            .iter()
            .map(|(phase, &(count, total_ns, max_ns))| SpanTotals {
                phase: phase.clone(),
                count,
                total_ns,
                max_ns,
            })
            .collect()
    }

    /// CSV rendering: `phase,count,total_ns,max_ns`, one row per phase.
    pub fn csv(&self) -> String {
        let mut out = String::from("phase,count,total_ns,max_ns\n");
        for t in self.totals() {
            out.push_str(&format!(
                "{},{},{},{}\n",
                t.phase, t.count, t.total_ns, t.max_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_spans_and_accumulates_totals() {
        let mut p = SpanProfile::default();
        p.begin(0, "fetch", 100);
        p.begin(1, "apply", 150);
        p.end(1, 180);
        p.end(0, 400);
        p.begin(2, "fetch", 500);
        p.end(2, 600);
        let totals = p.totals();
        assert_eq!(totals.len(), 2);
        // Sorted by phase name: apply before fetch.
        assert_eq!(totals[0].phase, "apply");
        assert_eq!(totals[0].count, 1);
        assert_eq!(totals[0].total_ns, 30);
        assert_eq!(totals[1].phase, "fetch");
        assert_eq!(totals[1].count, 2);
        assert_eq!(totals[1].total_ns, 400);
        assert_eq!(totals[1].max_ns, 300);
        assert_eq!(p.open.len(), 0);
    }

    #[test]
    fn unmatched_ends_are_ignored() {
        let mut p = SpanProfile::default();
        p.end(9, 100);
        assert!(p.totals().is_empty());
        p.begin(3, "lock_grant", 50);
        assert_eq!(p.open.len(), 1);
    }

    #[test]
    fn csv_is_deterministic() {
        let mut p = SpanProfile::default();
        p.begin(0, "twin_create", 10);
        p.end(0, 25);
        assert_eq!(
            p.csv(),
            "phase,count,total_ns,max_ns\ntwin_create,1,15,15\n"
        );
    }
}
