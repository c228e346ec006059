//! Metrics: per-barrier-interval time series and log2-bucketed latency
//! histograms, exportable as CSV.

use acorr_dsm::IterStats;
use acorr_sim::{SimDuration, SimTime};
use std::fmt::Write as _;

/// A histogram with power-of-two bucket boundaries.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` nanoseconds; bucket 0
/// additionally absorbs zero. With 64 buckets every `u64` nanosecond value
/// has a home, so recording never saturates or clips: a 0-tick sample lands
/// in bucket 0 alongside 1 ns, and a `u64::MAX`-tick sample lands in
/// bucket 63, whose exclusive upper bound `2^64` is unrepresentable and is
/// deliberately reported as `u64::MAX` in [`Log2Histogram::rows`] — the
/// terminal bucket's bound saturates, never the counts.
#[derive(Debug, Clone)]
pub struct Log2Histogram {
    buckets: [u64; 64],
    count: u64,
    sum_ns: u128,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; 64],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram::default()
    }

    /// Bucket index for a duration: `floor(log2(ns))`, with 0 ns in
    /// bucket 0.
    pub fn bucket_of(d: SimDuration) -> usize {
        let ns = d.as_nanos();
        if ns == 0 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        }
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.buckets[Self::bucket_of(d)] += 1;
        self.count += 1;
        self.sum_ns += u128::from(d.as_nanos());
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, in nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Occupied `(bucket_index, lo_ns, hi_ns, count)` rows, ascending.
    /// `hi_ns` is exclusive; the last bucket reports `u64::MAX`.
    pub fn rows(&self) -> Vec<(usize, u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| {
                let lo = if i == 0 { 0 } else { 1u64 << i };
                let hi = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
                (i, lo, hi, n)
            })
            .collect()
    }
}

/// One sampled barrier interval.
#[derive(Debug, Clone)]
struct IntervalSample {
    /// Simulated release time of the closing barrier.
    at: SimTime,
    /// Run-global barrier ordinal.
    barrier: u64,
    /// Counter deltas accumulated over the interval.
    delta: IterStats,
}

/// Collects interval samples and latency histograms for one run.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    intervals: Vec<IntervalSample>,
    fetch: Log2Histogram,
    lock: Log2Histogram,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Records one barrier-interval delta.
    pub fn record_interval(&mut self, at: SimTime, barrier: u64, delta: &IterStats) {
        self.intervals.push(IntervalSample {
            at,
            barrier,
            delta: *delta,
        });
    }

    /// Records one remote-fetch latency sample.
    pub fn record_fetch(&mut self, latency: SimDuration) {
        self.fetch.record(latency);
    }

    /// Records one lock-grant latency sample.
    pub fn record_lock(&mut self, latency: SimDuration) {
        self.lock.record(latency);
    }

    /// Renders the interval time series as CSV, one row per barrier. The
    /// columns are the headline per-interval deltas (the quantities the
    /// paper's tables aggregate), plus total/retransmitted network bytes.
    pub fn timeseries_csv(&self) -> String {
        let mut out = String::from(
            "barrier,at_ns,elapsed_ns,stall_ns,remote_misses,tracking_faults,\
             diffs_created,diff_bytes,lock_acquires,retries,net_bytes,retrans_bytes\n",
        );
        for s in &self.intervals {
            let d = &s.delta;
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{}",
                s.barrier,
                s.at.as_nanos(),
                d.elapsed.as_nanos(),
                d.stall.as_nanos(),
                d.remote_misses,
                d.tracking_faults,
                d.diffs_created,
                d.diff_bytes_created,
                d.lock_acquires,
                d.retries,
                d.net.total_bytes(),
                d.net.total_retrans_bytes(),
            );
        }
        out
    }

    /// Renders both latency histograms as CSV: one row per occupied bucket,
    /// tagged by histogram name (`fetch` / `lock`), with inclusive lower
    /// and exclusive upper bucket bounds in nanoseconds.
    pub fn histogram_csv(&self) -> String {
        let mut out = String::from("histogram,bucket,lo_ns,hi_ns,count\n");
        for (name, hist) in [("fetch", &self.fetch), ("lock", &self.lock)] {
            for (i, lo, hi, n) in hist.rows() {
                let _ = writeln!(out, "{name},{i},{lo},{hi},{n}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorr_sim::MessageKind;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Log2Histogram::bucket_of(SimDuration::ZERO), 0);
        assert_eq!(Log2Histogram::bucket_of(SimDuration::from_nanos(1)), 0);
        assert_eq!(Log2Histogram::bucket_of(SimDuration::from_nanos(2)), 1);
        assert_eq!(Log2Histogram::bucket_of(SimDuration::from_nanos(3)), 1);
        assert_eq!(Log2Histogram::bucket_of(SimDuration::from_nanos(4)), 2);
        assert_eq!(Log2Histogram::bucket_of(SimDuration::from_nanos(1023)), 9);
        assert_eq!(Log2Histogram::bucket_of(SimDuration::from_nanos(1024)), 10);
        assert_eq!(
            Log2Histogram::bucket_of(SimDuration::from_nanos(u64::MAX)),
            63
        );
    }

    #[test]
    fn edge_samples_land_in_terminal_buckets() {
        // A 0-tick sample shares bucket 0 with 1 ns; a u64::MAX-tick sample
        // fills bucket 63, whose reported upper bound saturates to u64::MAX
        // (2^64 is unrepresentable) while its count stays exact.
        let mut h = Log2Histogram::new();
        h.record(SimDuration::ZERO);
        h.record(SimDuration::from_nanos(1));
        h.record(SimDuration::from_nanos(u64::MAX));
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_ns(), 1 + u128::from(u64::MAX));
        assert_eq!(h.rows(), vec![(0, 0, 2, 2), (63, 1 << 63, u64::MAX, 1)]);
        // The CSV export carries the same saturated bound.
        let mut m = MetricsRegistry::new();
        m.record_fetch(SimDuration::ZERO);
        m.record_fetch(SimDuration::from_nanos(u64::MAX));
        let csv = m.histogram_csv();
        assert!(csv.contains("fetch,0,0,2,1\n"), "{csv}");
        assert!(
            csv.contains(&format!("fetch,63,{},{},1\n", 1u64 << 63, u64::MAX)),
            "{csv}"
        );
    }

    #[test]
    fn histogram_rows_and_moments() {
        let mut h = Log2Histogram::new();
        h.record(SimDuration::from_nanos(5));
        h.record(SimDuration::from_nanos(6));
        h.record(SimDuration::from_nanos(100));
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_ns(), 111);
        assert!((h.mean_ns() - 37.0).abs() < 1e-9);
        let rows = h.rows();
        assert_eq!(rows, vec![(2, 4, 8, 2), (6, 64, 128, 1)]);
    }

    #[test]
    fn csv_exports_have_headers_and_rows() {
        let mut m = MetricsRegistry::new();
        let mut delta = IterStats::new();
        delta.elapsed = SimDuration::from_nanos(11);
        delta.stall = SimDuration::from_nanos(5);
        delta.remote_misses = 7;
        delta.tracking_faults = 2;
        delta.diffs_created = 3;
        delta.diff_bytes_created = 96;
        delta.lock_acquires = 4;
        delta.retries = 1;
        delta.net.record(MessageKind::PageFetch, 4096);
        delta.net.record_retrans(MessageKind::PageFetch, 4096, 2);
        m.record_interval(SimTime::from_nanos(1000), 0, &delta);
        m.record_fetch(SimDuration::from_micros(3));
        m.record_lock(SimDuration::from_nanos(10));
        let ts = m.timeseries_csv();
        assert!(ts.starts_with("barrier,at_ns"));
        assert_eq!(ts.lines().count(), 2);
        // Every counter lands in its own column.
        assert_eq!(
            ts.lines().nth(1),
            Some("0,1000,11,5,7,2,3,96,4,1,4096,8192")
        );
        let hg = m.histogram_csv();
        assert!(hg.starts_with("histogram,bucket"));
        assert!(hg.contains("fetch,"));
        assert!(hg.contains("lock,"));
    }
}
