//! Network cost model and traffic accounting.
//!
//! The paper's testbed interconnect was Myrinet, with remote page fetches in
//! the hundreds of microseconds. [`NetworkModel`] is a LogP-style substitute:
//! every message pays a fixed latency, a per-byte serialization cost, and a
//! small per-message CPU overhead. [`NetStats`] accumulates the message and
//! byte counts per [`MessageKind`] — these counters are what Tables 2 and 6
//! report ("remote misses", "Total Mbytes", "Diff Mbytes").

use crate::time::SimDuration;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Classifies simulated protocol messages for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Full-page data fetch (a remote miss resolved from the owner).
    PageFetch,
    /// Diff fetch (a remote miss resolved by applying writers' diffs).
    DiffFetch,
    /// Write-notice exchange at synchronization points.
    WriteNotice,
    /// Barrier arrival/release control traffic.
    Barrier,
    /// Lock request/grant control traffic.
    Lock,
    /// Thread-migration payload (stack copy).
    Migration,
    /// Garbage-collection consolidation traffic.
    Gc,
}

impl MessageKind {
    /// All kinds, in display order.
    pub const ALL: [MessageKind; 7] = [
        MessageKind::PageFetch,
        MessageKind::DiffFetch,
        MessageKind::WriteNotice,
        MessageKind::Barrier,
        MessageKind::Lock,
        MessageKind::Migration,
        MessageKind::Gc,
    ];

    const fn index(self) -> usize {
        match self {
            MessageKind::PageFetch => 0,
            MessageKind::DiffFetch => 1,
            MessageKind::WriteNotice => 2,
            MessageKind::Barrier => 3,
            MessageKind::Lock => 4,
            MessageKind::Migration => 5,
            MessageKind::Gc => 6,
        }
    }

    /// A short label for reports.
    pub const fn label(self) -> &'static str {
        match self {
            MessageKind::PageFetch => "page",
            MessageKind::DiffFetch => "diff",
            MessageKind::WriteNotice => "notice",
            MessageKind::Barrier => "barrier",
            MessageKind::Lock => "lock",
            MessageKind::Migration => "migration",
            MessageKind::Gc => "gc",
        }
    }
}

/// LogP-style point-to-point message cost model.
///
/// The time to deliver a message of `n` payload bytes is
/// `latency + n * ns_per_byte + per_message_cpu`.
///
/// ```
/// use acorr_sim::{NetworkModel, SimDuration};
/// let net = NetworkModel::default();
/// let small = net.transfer_time(64);
/// let page = net.transfer_time(4096);
/// assert!(page > small);
/// assert!(page > SimDuration::from_micros(100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// One-way message latency (wire + protocol stack).
    pub latency: SimDuration,
    /// Serialization cost per payload byte, in nanoseconds.
    pub ns_per_byte: f64,
    /// Fixed CPU cost charged to the requester per message.
    pub per_message_cpu: SimDuration,
}

impl Default for NetworkModel {
    /// Era-plausible Myrinet-class defaults: 60 us latency, ~33 MB/s
    /// effective bandwidth (30 ns/byte), 10 us per-message CPU.
    fn default() -> Self {
        NetworkModel {
            latency: SimDuration::from_micros(60),
            ns_per_byte: 30.0,
            per_message_cpu: SimDuration::from_micros(10),
        }
    }
}

impl NetworkModel {
    /// Commodity-Ethernet-class parameters of the era: higher latency,
    /// lower bandwidth. Useful for sensitivity studies — placement matters
    /// more on slower networks.
    pub fn ethernet() -> Self {
        NetworkModel {
            latency: SimDuration::from_micros(400),
            ns_per_byte: 100.0,
            per_message_cpu: SimDuration::from_micros(25),
        }
    }

    /// Time for a request/response exchange carrying `payload_bytes` of data
    /// back to the requester. Charged entirely to the requesting node (the
    /// server-side CPU is assumed overlapped).
    pub fn transfer_time(&self, payload_bytes: u64) -> SimDuration {
        let wire = SimDuration::from_nanos((payload_bytes as f64 * self.ns_per_byte) as u64);
        // Request latency + response latency + payload + fixed CPU.
        self.latency + self.latency + wire + self.per_message_cpu
    }

    /// Time for a one-way control message (no payload to speak of).
    pub fn control_time(&self) -> SimDuration {
        self.latency + self.per_message_cpu
    }
}

/// Accumulated network traffic, split by [`MessageKind`].
///
/// First-sends and fault-induced retransmissions are counted separately:
/// the paper-reproduction columns ([`NetStats::data_bytes`],
/// [`NetStats::diff_bytes`], per-kind [`NetStats::messages`]) cover
/// first-sends only, so fault-injected runs do not inflate reproduced
/// numbers; retransmitted traffic is reported through the `retrans_*`
/// accessors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    messages: [u64; 7],
    bytes: [u64; 7],
    retrans_messages: [u64; 7],
    retrans_bytes: [u64; 7],
}

impl NetStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Records one message of `kind` carrying `bytes` of payload.
    pub fn record(&mut self, kind: MessageKind, bytes: u64) {
        self.messages[kind.index()] += 1;
        self.bytes[kind.index()] += bytes;
    }

    /// Records `times` retransmissions of a message of `kind` carrying
    /// `bytes` of payload (the first send goes through [`NetStats::record`]).
    pub fn record_retrans(&mut self, kind: MessageKind, bytes: u64, times: u64) {
        self.retrans_messages[kind.index()] += times;
        self.retrans_bytes[kind.index()] += bytes * times;
    }

    /// Retransmitted messages of one kind.
    pub fn retrans_messages(&self, kind: MessageKind) -> u64 {
        self.retrans_messages[kind.index()]
    }

    /// Retransmitted payload bytes of one kind.
    pub fn retrans_bytes(&self, kind: MessageKind) -> u64 {
        self.retrans_bytes[kind.index()]
    }

    /// Total retransmitted messages across all kinds.
    pub fn total_retrans_messages(&self) -> u64 {
        self.retrans_messages.iter().sum()
    }

    /// Total retransmitted payload bytes across all kinds.
    pub fn total_retrans_bytes(&self) -> u64 {
        self.retrans_bytes.iter().sum()
    }

    /// Messages of one kind.
    pub fn messages(&self, kind: MessageKind) -> u64 {
        self.messages[kind.index()]
    }

    /// Payload bytes of one kind.
    pub fn bytes(&self, kind: MessageKind) -> u64 {
        self.bytes[kind.index()]
    }

    /// Total messages across all kinds.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// Total payload bytes across all kinds.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Bytes moved by data-carrying messages (page + diff + migration + gc);
    /// the paper's "Total Mbytes" column counts data traffic.
    pub fn data_bytes(&self) -> u64 {
        self.bytes(MessageKind::PageFetch)
            + self.bytes(MessageKind::DiffFetch)
            + self.bytes(MessageKind::Migration)
            + self.bytes(MessageKind::Gc)
            + self.bytes(MessageKind::WriteNotice)
    }

    /// Bytes moved as diffs (the paper's "Diff Mbytes" column).
    pub fn diff_bytes(&self) -> u64 {
        self.bytes(MessageKind::DiffFetch) + self.bytes(MessageKind::Gc)
    }
}

impl Add for NetStats {
    type Output = NetStats;
    fn add(self, rhs: NetStats) -> NetStats {
        let mut out = self;
        out += rhs;
        out
    }
}

/// Counter difference between two snapshots of the *same* accumulating
/// ledger (`later - earlier`), used to derive per-interval traffic. All
/// counters are monotonic, and subtraction saturates so misuse yields zeros
/// rather than a panic.
impl Sub for NetStats {
    type Output = NetStats;
    fn sub(self, rhs: NetStats) -> NetStats {
        let mut out = NetStats::new();
        for i in 0..7 {
            out.messages[i] = self.messages[i].saturating_sub(rhs.messages[i]);
            out.bytes[i] = self.bytes[i].saturating_sub(rhs.bytes[i]);
            out.retrans_messages[i] =
                self.retrans_messages[i].saturating_sub(rhs.retrans_messages[i]);
            out.retrans_bytes[i] = self.retrans_bytes[i].saturating_sub(rhs.retrans_bytes[i]);
        }
        out
    }
}

impl AddAssign for NetStats {
    fn add_assign(&mut self, rhs: NetStats) {
        for i in 0..7 {
            self.messages[i] += rhs.messages[i];
            self.bytes[i] += rhs.bytes[i];
            self.retrans_messages[i] += rhs.retrans_messages[i];
            self.retrans_bytes[i] += rhs.retrans_bytes[i];
        }
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net{{")?;
        for (i, kind) in MessageKind::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{}: {} msgs / {} B",
                kind.label(),
                self.messages(*kind),
                self.bytes(*kind)
            )?;
        }
        if self.total_retrans_messages() > 0 {
            write!(
                f,
                ", retrans: {} msgs / {} B",
                self.total_retrans_messages(),
                self.total_retrans_bytes()
            )?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_payload() {
        let net = NetworkModel::default();
        let t0 = net.transfer_time(0);
        let t1 = net.transfer_time(4096);
        let t2 = net.transfer_time(8192);
        assert!(t0 < t1 && t1 < t2);
        // Payload component is linear.
        assert_eq!((t2 - t1).as_nanos(), (t1 - t0).as_nanos());
    }

    #[test]
    fn control_cheaper_than_page() {
        let net = NetworkModel::default();
        assert!(net.control_time() < net.transfer_time(4096));
    }

    #[test]
    fn presets_are_ordered_by_speed() {
        let myri = NetworkModel::default();
        let eth = NetworkModel::ethernet();
        assert!(eth.transfer_time(4096) > myri.transfer_time(4096) * 2);
    }

    #[test]
    fn stats_accumulate_per_kind() {
        let mut s = NetStats::new();
        s.record(MessageKind::PageFetch, 4096);
        s.record(MessageKind::PageFetch, 4096);
        s.record(MessageKind::DiffFetch, 128);
        assert_eq!(s.messages(MessageKind::PageFetch), 2);
        assert_eq!(s.bytes(MessageKind::PageFetch), 8192);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.total_bytes(), 8320);
        assert_eq!(s.diff_bytes(), 128);
        assert_eq!(s.data_bytes(), 8320);
    }

    #[test]
    fn stats_add() {
        let mut a = NetStats::new();
        a.record(MessageKind::Lock, 8);
        let mut b = NetStats::new();
        b.record(MessageKind::Lock, 8);
        b.record(MessageKind::Barrier, 0);
        let c = a + b;
        assert_eq!(c.messages(MessageKind::Lock), 2);
        assert_eq!(c.messages(MessageKind::Barrier), 1);
        assert_eq!(c.bytes(MessageKind::Lock), 16);
    }

    #[test]
    fn display_mentions_every_kind() {
        let s = NetStats::new();
        let txt = s.to_string();
        for kind in MessageKind::ALL {
            assert!(txt.contains(kind.label()), "missing {}", kind.label());
        }
    }

    #[test]
    fn retransmissions_are_counted_separately() {
        let mut s = NetStats::new();
        s.record(MessageKind::PageFetch, 4096);
        s.record_retrans(MessageKind::PageFetch, 4096, 2);
        // Paper-reproduction counters see the first send only.
        assert_eq!(s.messages(MessageKind::PageFetch), 1);
        assert_eq!(s.bytes(MessageKind::PageFetch), 4096);
        assert_eq!(s.data_bytes(), 4096);
        assert_eq!(s.total_bytes(), 4096);
        // Retransmitted traffic is reported on its own.
        assert_eq!(s.retrans_messages(MessageKind::PageFetch), 2);
        assert_eq!(s.retrans_bytes(MessageKind::PageFetch), 8192);
        assert_eq!(s.total_retrans_messages(), 2);
        assert_eq!(s.total_retrans_bytes(), 8192);
        // They accumulate and survive display.
        let sum = s + s;
        assert_eq!(sum.retrans_messages(MessageKind::PageFetch), 4);
        assert!(sum.to_string().contains("retrans"));
        assert!(!NetStats::new().to_string().contains("retrans"));
    }

    #[test]
    fn snapshot_subtraction_isolates_an_interval() {
        let mut earlier = NetStats::new();
        earlier.record(MessageKind::PageFetch, 4096);
        earlier.record_retrans(MessageKind::PageFetch, 4096, 1);
        let mut later = earlier;
        later.record(MessageKind::DiffFetch, 100);
        later.record(MessageKind::PageFetch, 4096);
        let delta = later - earlier;
        assert_eq!(delta.messages(MessageKind::PageFetch), 1);
        assert_eq!(delta.messages(MessageKind::DiffFetch), 1);
        assert_eq!(delta.total_bytes(), 4196);
        assert_eq!(delta.total_retrans_messages(), 0);
        // Misuse saturates to zero.
        assert_eq!((earlier - later).total_bytes(), 0);
    }

    #[test]
    fn barrier_and_lock_are_control_not_data() {
        let mut s = NetStats::new();
        s.record(MessageKind::Barrier, 100);
        s.record(MessageKind::Lock, 100);
        assert_eq!(s.data_bytes(), 0);
    }
}
