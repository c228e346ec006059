//! Deterministic network fault injection.
//!
//! The paper's testbed was real Myrinet: messages were delayed, occasionally
//! lost (and retransmitted by the transport), and nodes stalled under daemon
//! activity. [`FaultPlan`] describes such misbehaviour as a small set of
//! knobs — delay jitter, bounded reordering, transient drop-with-retry,
//! per-node slowdown windows, message duplication, checksum-detected payload
//! corruption, group-based network partitions and node crashes — and
//! [`FaultInjector`] applies it at the send path.
//!
//! Faults come in two granularities:
//!
//! * **per-message** faults (delay, drop, reorder, duplicate, corrupt) are
//!   drawn inside [`FaultInjector::deliver`], one independent RNG stream per
//!   message;
//! * **per-interval** faults (partition, crash) are drawn once per barrier
//!   interval via [`FaultInjector::interval_action`], or prescribed by a
//!   model checker as a [`FaultAction`] choice — the same enumeration either
//!   way, so a stochastic counterexample can be replayed as a prescribed
//!   fault token.
//!
//! Everything is a pure function of `(plan, message identity)`: each message
//! gets its own RNG stream forked from the plan seed and a per-node sequence
//! number, so a run with a fixed `(seed, plan)` pair is byte-deterministic
//! regardless of host parallelism, and [`FaultPlan::none`] perturbs nothing
//! at all (zero-fault runs are bit-identical to runs without the injector).
//!
//! Drops are *transient*: the sender times out and retransmits with
//! exponential backoff, and the number of consecutive losses is bounded by
//! [`FaultPlan::max_retries`], so every experiment still terminates.
//!
//! ```
//! use acorr_sim::{FaultInjector, FaultPlan, NodeId, SimDuration, SimTime};
//!
//! let plan = FaultPlan::moderate(42);
//! let mut inj = FaultInjector::new(plan, 2);
//! let base = SimDuration::from_micros(120);
//! let d = inj.deliver(NodeId(0), SimTime::ZERO, base, 4096);
//! assert!(d.latency >= base);
//!
//! // Same plan, fresh injector: the same message sees the same fate.
//! let mut again = FaultInjector::new(FaultPlan::moderate(42), 2);
//! assert_eq!(again.deliver(NodeId(0), SimTime::ZERO, base, 4096), d);
//! ```

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::NodeId;
use std::fmt;

/// A seeded, deterministic description of network misbehaviour.
///
/// All probabilities are per message. The default plan ([`FaultPlan::none`])
/// injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's RNG streams.
    pub seed: u64,
    /// Probability a message suffers extra delay jitter.
    pub delay_prob: f64,
    /// Maximum extra delay added to a jittered message (uniform in
    /// `[0, max_delay]`).
    pub max_delay: SimDuration,
    /// Probability a transmission attempt is lost in flight.
    pub drop_prob: f64,
    /// Maximum consecutive losses of one message before the transport
    /// delivers it unconditionally (bounds retries, guaranteeing
    /// termination).
    pub max_retries: u32,
    /// Sender timeout before the first retransmission; doubles per retry
    /// (capped at 64x).
    pub retry_timeout: SimDuration,
    /// Probability a message is overtaken by later traffic (bounded
    /// reordering).
    pub reorder_prob: f64,
    /// Maximum number of messages that may overtake a reordered one; each
    /// overtake costs one extra network latency.
    pub reorder_depth: u32,
    /// Every `slow_every`-th node (1-based; 0 disables) suffers periodic
    /// slowdown windows.
    pub slow_every: usize,
    /// Period of the slowdown cycle on affected nodes.
    pub slow_period: SimDuration,
    /// Fraction of each period spent slowed (0..=1).
    pub slow_duty: f64,
    /// Multiplier applied to message latency inside a slowdown window.
    pub slow_factor: f64,
    /// Probability a message is duplicated in flight. The duplicate is
    /// discarded by the receiver (sequence numbers), so it costs bandwidth
    /// but never changes protocol state or delivery latency.
    pub dup_prob: f64,
    /// Probability a message payload is corrupted in flight. Corruption is
    /// detected by the per-message checksum ([`message_checksum`]) and
    /// repaired with one retransmission round (`+base` latency).
    pub corrupt_prob: f64,
    /// Probability a barrier interval begins under a network partition
    /// (group-based link cut between two node groups, healed by the next
    /// barrier).
    pub partition_prob: f64,
    /// How long cross-partition messages stall before the cut heals within
    /// the interval. Zero means the parse-time default of 2 ms.
    pub partition_window: SimDuration,
    /// Probability a node crashes at a barrier interval boundary and
    /// recovers by protocol-level state reconstruction (cache wiped,
    /// valid pages re-fetched from surviving directories).
    pub crash_prob: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no perturbation whatsoever.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            delay_prob: 0.0,
            max_delay: SimDuration::ZERO,
            drop_prob: 0.0,
            max_retries: 0,
            retry_timeout: SimDuration::ZERO,
            reorder_prob: 0.0,
            reorder_depth: 0,
            slow_every: 0,
            slow_period: SimDuration::ZERO,
            slow_duty: 0.0,
            slow_factor: 1.0,
            dup_prob: 0.0,
            corrupt_prob: 0.0,
            partition_prob: 0.0,
            partition_window: SimDuration::ZERO,
            crash_prob: 0.0,
        }
    }

    /// Mild jitter only: occasional small delays, no losses.
    pub fn light(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_prob: 0.05,
            max_delay: SimDuration::from_micros(100),
            ..FaultPlan::none()
        }
    }

    /// Jitter, reordering and rare transient losses.
    pub fn moderate(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_prob: 0.15,
            max_delay: SimDuration::from_micros(300),
            drop_prob: 0.02,
            max_retries: 4,
            retry_timeout: SimDuration::from_micros(500),
            reorder_prob: 0.05,
            reorder_depth: 3,
            ..FaultPlan::none()
        }
    }

    /// Frequent jitter and losses plus periodic slowdown on every other
    /// node.
    pub fn heavy(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_prob: 0.30,
            max_delay: SimDuration::from_micros(1_000),
            drop_prob: 0.08,
            max_retries: 6,
            retry_timeout: SimDuration::from_micros(800),
            reorder_prob: 0.12,
            reorder_depth: 5,
            slow_every: 2,
            slow_period: SimDuration::from_millis(5),
            slow_duty: 0.3,
            slow_factor: 3.0,
            ..FaultPlan::none()
        }
    }

    /// Recurring group-based partitions plus light duplication: each barrier
    /// interval has a 25% chance of starting cut in two, healing 2 ms in.
    pub fn partition(seed: u64) -> Self {
        FaultPlan {
            seed,
            partition_prob: 0.25,
            partition_window: SimDuration::from_millis(2),
            dup_prob: 0.05,
            ..FaultPlan::none()
        }
    }

    /// Everything at once: moderate network misbehaviour plus partitions,
    /// duplication, checksum-detected corruption and node crashes.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            partition_prob: 0.15,
            partition_window: SimDuration::from_millis(1),
            dup_prob: 0.05,
            corrupt_prob: 0.02,
            crash_prob: 0.05,
            ..FaultPlan::moderate(seed)
        }
    }

    /// Returns the plan with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// True when the plan perturbs nothing (regardless of seed).
    pub fn is_none(&self) -> bool {
        self.delay_prob <= 0.0
            && self.drop_prob <= 0.0
            && self.reorder_prob <= 0.0
            && (self.slow_every == 0 || self.slow_factor <= 1.0 || self.slow_duty <= 0.0)
            && self.dup_prob <= 0.0
            && self.corrupt_prob <= 0.0
            && !self.has_interval_faults()
    }

    /// True when the plan draws per-interval fault actions (partitions or
    /// crashes), which the engine must consult at every barrier boundary.
    pub fn has_interval_faults(&self) -> bool {
        self.partition_prob > 0.0 || self.crash_prob > 0.0
    }

    /// Parses a CLI fault spec.
    ///
    /// The spec is a comma-separated list; the first element may be a preset
    /// name (one of [`FAULT_PRESETS`]: `none`, `light`, `moderate`, `heavy`,
    /// `partition`, `chaos`), the rest are `key=value` overrides. Durations
    /// are in microseconds.
    ///
    /// ```
    /// use acorr_sim::FaultPlan;
    /// let plan = FaultPlan::parse("moderate,seed=7,drop_prob=0.05").unwrap();
    /// assert_eq!(plan.seed, 7);
    /// assert_eq!(plan.drop_prob, 0.05);
    /// assert_eq!(FaultPlan::parse("none").unwrap(), FaultPlan::none());
    /// assert!(FaultPlan::parse("bogus").is_err());
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan::none();
        let mut parts = spec.split(',').map(str::trim).filter(|s| !s.is_empty());
        let mut pending: Option<&str> = None;
        if let Some(first) = parts.next() {
            if let Some(preset) = FAULT_PRESETS.iter().find(|p| p.name == first) {
                plan = (preset.build)(0);
            } else if first.contains('=') {
                pending = Some(first);
            } else {
                return Err(FaultSpecError::unknown_preset(first));
            }
        }
        for part in pending.into_iter().chain(parts) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| FaultSpecError::bad_pair(part))?;
            let (key, value) = (key.trim(), value.trim());
            let us = |v: &str| -> Result<SimDuration, FaultSpecError> {
                v.parse::<u64>()
                    .ok()
                    .filter(|us| us.checked_mul(1_000).is_some())
                    .map(SimDuration::from_micros)
                    .ok_or_else(|| FaultSpecError::bad_value(key, value))
            };
            let prob = |v: &str| -> Result<f64, FaultSpecError> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| FaultSpecError::bad_value(key, value))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(FaultSpecError::bad_value(key, value));
                }
                Ok(p)
            };
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| FaultSpecError::bad_value(key, value))?
                }
                "delay_prob" => plan.delay_prob = prob(value)?,
                "max_delay_us" => plan.max_delay = us(value)?,
                "drop_prob" => plan.drop_prob = prob(value)?,
                "max_retries" => {
                    plan.max_retries = value
                        .parse()
                        .map_err(|_| FaultSpecError::bad_value(key, value))?
                }
                "retry_timeout_us" => plan.retry_timeout = us(value)?,
                "reorder_prob" => plan.reorder_prob = prob(value)?,
                "reorder_depth" => {
                    plan.reorder_depth = value
                        .parse()
                        .map_err(|_| FaultSpecError::bad_value(key, value))?
                }
                "slow_every" => {
                    plan.slow_every = value
                        .parse()
                        .map_err(|_| FaultSpecError::bad_value(key, value))?
                }
                "slow_period_us" => plan.slow_period = us(value)?,
                "slow_duty" => plan.slow_duty = prob(value)?,
                "dup_prob" => plan.dup_prob = prob(value)?,
                "corrupt_prob" => plan.corrupt_prob = prob(value)?,
                "partition_prob" => plan.partition_prob = prob(value)?,
                "partition_window_us" => plan.partition_window = us(value)?,
                "crash_prob" => plan.crash_prob = prob(value)?,
                "slow_factor" => {
                    let f: f64 = value
                        .parse()
                        .map_err(|_| FaultSpecError::bad_value(key, value))?;
                    if !f.is_finite() || f < 1.0 {
                        return Err(FaultSpecError::bad_value(key, value));
                    }
                    plan.slow_factor = f;
                }
                _ => return Err(FaultSpecError::unknown_key(key)),
            }
        }
        if plan.drop_prob > 0.0 {
            // Losses need a working retransmit path to terminate.
            if plan.max_retries == 0 {
                plan.max_retries = 4;
            }
            if plan.retry_timeout.is_zero() {
                plan.retry_timeout = SimDuration::from_micros(500);
            }
        }
        if plan.partition_prob > 0.0 && plan.partition_window.is_zero() {
            // A zero-length cut would be invisible; give it the preset width.
            plan.partition_window = SimDuration::from_millis(2);
        }
        Ok(plan)
    }

    /// True when `node` sits inside a slowdown window at local time `now`.
    pub fn in_slow_window(&self, node: NodeId, now: SimTime) -> bool {
        if self.slow_every == 0
            || self.slow_factor <= 1.0
            || self.slow_duty <= 0.0
            || self.slow_period.is_zero()
        {
            return false;
        }
        if !(node.0 as usize + 1).is_multiple_of(self.slow_every) {
            return false;
        }
        let phase = now.as_nanos() % self.slow_period.as_nanos();
        (phase as f64) < self.slow_period.as_nanos() as f64 * self.slow_duty
    }
}

/// A named [`FaultPlan`] builder.
///
/// The single source of truth for preset names: [`FaultPlan::parse`], the
/// CLI usage text and the chaos bench's `--plans` default all iterate
/// [`FAULT_PRESETS`], so the accepted names and the documented names cannot
/// drift apart.
#[derive(Debug, Clone, Copy)]
pub struct FaultPreset {
    /// The name accepted by [`FaultPlan::parse`] and `--plans`.
    pub name: &'static str,
    /// One-line description for usage text and bench listings.
    pub summary: &'static str,
    /// Builds the plan for a given seed.
    pub build: fn(u64) -> FaultPlan,
}

/// Every named fault preset, in increasing order of hostility.
pub const FAULT_PRESETS: &[FaultPreset] = &[
    FaultPreset {
        name: "none",
        summary: "no perturbation",
        build: |_| FaultPlan::none(),
    },
    FaultPreset {
        name: "light",
        summary: "occasional small delays",
        build: FaultPlan::light,
    },
    FaultPreset {
        name: "moderate",
        summary: "jitter, reordering, rare transient losses",
        build: FaultPlan::moderate,
    },
    FaultPreset {
        name: "heavy",
        summary: "frequent jitter/losses plus periodic node slowdown",
        build: FaultPlan::heavy,
    },
    FaultPreset {
        name: "partition",
        summary: "recurring partition + heal, light duplication",
        build: FaultPlan::partition,
    },
    FaultPreset {
        name: "chaos",
        summary: "moderate network faults plus partitions, duplication, corruption and crashes",
        build: FaultPlan::chaos,
    },
];

/// Error from [`FaultPlan::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(String);

impl FaultSpecError {
    fn unknown_preset(name: &str) -> Self {
        let names: Vec<&str> = FAULT_PRESETS.iter().map(|p| p.name).collect();
        FaultSpecError(format!(
            "unknown fault preset '{name}' (expected one of: {})",
            names.join(", ")
        ))
    }
    fn unknown_key(key: &str) -> Self {
        FaultSpecError(format!("unknown fault knob '{key}'"))
    }
    fn bad_pair(part: &str) -> Self {
        FaultSpecError(format!("expected key=value, got '{part}'"))
    }
    fn bad_value(key: &str, value: &str) -> Self {
        FaultSpecError(format!("bad value '{value}' for fault knob '{key}'"))
    }
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for FaultSpecError {}

/// The fate of one message under a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Total time from first send to delivery, including timeouts and
    /// retransmissions.
    pub latency: SimDuration,
    /// Number of retransmissions (0 when the first attempt got through).
    pub retries: u32,
    /// Number of spurious duplicate copies delivered (discarded by the
    /// receiver; bandwidth only, never latency).
    pub duplicates: u32,
    /// Number of checksum-detected corruptions, each repaired with one
    /// retransmission round already included in `latency`.
    pub corrupt_detected: u32,
}

/// One per-barrier-interval fault decision.
///
/// This is the alternative menu the model checker enumerates at each
/// interval boundary: choice `0` is always "no fault", so a fault-free
/// prescription is bit-identical to a run without any fault machinery. The
/// same enumeration backs the stochastic path
/// ([`FaultInjector::interval_action`]), which is what makes a randomly
/// found counterexample replayable as a prescribed choice sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault this interval.
    None,
    /// Cut the cluster into nodes `[0, split)` vs `[split, n)` for the
    /// partition window; cross-cut messages stall until the cut heals.
    Partition {
        /// First node of the second group.
        split: usize,
    },
    /// Duplicate every message sent this interval (bandwidth only).
    Duplicate,
    /// Corrupt every message sent this interval; each corruption is caught
    /// by its checksum and costs one retransmission round.
    Corrupt,
    /// Crash a node at the interval boundary; it recovers immediately with
    /// its page cache wiped and reconstructs state through the protocol.
    Crash {
        /// The crashing node.
        node: usize,
    },
}

impl FaultAction {
    /// Number of alternatives the model checker enumerates per interval.
    /// Partition and crash need at least two nodes to mean anything.
    pub fn alternatives(nodes: usize) -> usize {
        if nodes >= 2 {
            5
        } else {
            3
        }
    }

    /// Decodes a replay-token choice into an action. Choice `0` (and any
    /// out-of-range value, which the decision queue clamps anyway) is
    /// [`FaultAction::None`].
    pub fn from_choice(choice: usize, nodes: usize) -> FaultAction {
        if nodes >= 2 {
            match choice {
                1 => FaultAction::Partition { split: nodes / 2 },
                2 => FaultAction::Duplicate,
                3 => FaultAction::Corrupt,
                4 => FaultAction::Crash { node: nodes - 1 },
                _ => FaultAction::None,
            }
        } else {
            match choice {
                1 => FaultAction::Duplicate,
                2 => FaultAction::Corrupt,
                _ => FaultAction::None,
            }
        }
    }
}

/// FNV-1a checksum over a message's identity and payload length.
///
/// The simulator carries no payload bytes, so the checksum covers what
/// uniquely identifies a message on the wire: sender, per-sender sequence
/// number and size. Corruption flips payload bits, which shows up as a
/// checksum mismatch at the receiver and triggers a retransmission.
pub fn message_checksum(node: NodeId, seq: u64, bytes: u64) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for b in node
        .0
        .to_le_bytes()
        .into_iter()
        .chain(seq.to_le_bytes())
        .chain(bytes.to_le_bytes())
    {
        h = (h ^ b as u32).wrapping_mul(0x0100_0193);
    }
    h
}

/// Applies a [`FaultPlan`] to individual sends.
///
/// The injector keeps one sequence counter per sending node; the fate of a
/// message is a pure function of `(plan.seed, node, sequence number)`, so
/// two runs that issue the same message sequence see the same faults.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    root: DetRng,
    seq: Vec<u64>,
}

impl FaultInjector {
    /// Creates an injector for `num_nodes` sending nodes.
    pub fn new(plan: FaultPlan, num_nodes: usize) -> Self {
        let root = DetRng::new(plan.seed ^ 0xfa17_b01d_cafe_f00d);
        FaultInjector {
            plan,
            root,
            seq: vec![0; num_nodes],
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True when the injector never perturbs anything.
    pub fn is_none(&self) -> bool {
        self.plan.is_none()
    }

    /// Delivers one `bytes`-sized message charged to `node` at local time
    /// `now` whose fault-free cost is `base`. Returns the perturbed latency
    /// and the retransmission/duplication/corruption counts. With an empty
    /// plan this returns exactly `base` and does not consume any randomness
    /// or sequence numbers.
    pub fn deliver(
        &mut self,
        node: NodeId,
        now: SimTime,
        base: SimDuration,
        bytes: u64,
    ) -> Delivery {
        if self.plan.is_none() {
            return Delivery {
                latency: base,
                retries: 0,
                duplicates: 0,
                corrupt_detected: 0,
            };
        }
        let idx = node.0 as usize;
        let seq = self.seq[idx];
        self.seq[idx] += 1;
        let mut rng = self.root.fork(((idx as u64) << 40) ^ seq);

        let mut latency = base;
        let mut retries = 0u32;
        // Transient loss: the sender times out (exponential backoff, capped)
        // and retransmits; a bounded number of consecutive losses guarantees
        // the message eventually lands.
        while retries < self.plan.max_retries && rng.chance(self.plan.drop_prob) {
            let backoff = 1u64 << (retries.min(6));
            latency += self.plan.retry_timeout * backoff + base;
            retries += 1;
        }
        // Delay jitter on the surviving attempt.
        if rng.chance(self.plan.delay_prob) {
            let cap = self.plan.max_delay.as_nanos();
            if cap > 0 {
                latency += SimDuration::from_nanos(rng.next_below(cap + 1));
            }
        }
        // Bounded reordering: overtaken by up to `reorder_depth` later
        // messages, each costing roughly one message service time.
        if self.plan.reorder_depth > 0 && rng.chance(self.plan.reorder_prob) {
            let overtaken = 1 + rng.next_below(self.plan.reorder_depth as u64);
            latency += base * overtaken;
        }
        // Duplication: a second copy of the same frame arrives; the receiver
        // discards it by sequence number, so it costs bandwidth but neither
        // latency nor protocol state. The draw is guarded so plans without
        // duplication consume an unchanged RNG stream.
        let mut duplicates = 0u32;
        if self.plan.dup_prob > 0.0 && rng.chance(self.plan.dup_prob) {
            duplicates = 1;
        }
        // Payload corruption: flip one payload bit and let the receiver
        // recompute the checksum. A mismatch (all but certain for a 32-bit
        // FNV under a single-bit flip) triggers one retransmission round; a
        // colliding flip would slip through silently — the residual risk any
        // real checksum carries.
        let mut corrupt_detected = 0u32;
        if self.plan.corrupt_prob > 0.0 && rng.chance(self.plan.corrupt_prob) {
            let sent = message_checksum(node, seq, bytes);
            let flipped = bytes ^ (1u64 << rng.next_below(64));
            if message_checksum(node, seq, flipped) != sent {
                corrupt_detected = 1;
                latency += base;
            }
        }
        // Per-node slowdown windows, deterministic in local time.
        if self.plan.in_slow_window(node, now) {
            let scaled = (latency.as_nanos() as f64 * self.plan.slow_factor) as u64;
            latency = SimDuration::from_nanos(scaled);
        }
        Delivery {
            latency,
            retries,
            duplicates,
            corrupt_detected,
        }
    }

    /// Draws the stochastic fault action for barrier interval `interval`.
    ///
    /// Pure in `(plan.seed, interval)`: the fork tag sets bit 63, which
    /// per-message streams (node index in bits 40..56, sequence below) can
    /// never collide with, so adding interval faults to a plan leaves every
    /// per-message fate untouched.
    pub fn interval_action(&self, interval: u64, nodes: usize) -> FaultAction {
        if nodes < 2 || !self.plan.has_interval_faults() {
            return FaultAction::None;
        }
        let mut rng = self.root.fork((1u64 << 63) | interval);
        if self.plan.crash_prob > 0.0 && rng.chance(self.plan.crash_prob) {
            return FaultAction::Crash {
                node: rng.index(nodes),
            };
        }
        if self.plan.partition_prob > 0.0 && rng.chance(self.plan.partition_prob) {
            return FaultAction::Partition {
                split: 1 + rng.index(nodes - 1),
            };
        }
        FaultAction::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimDuration {
        SimDuration::from_micros(130)
    }

    #[test]
    fn none_plan_is_identity() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 4);
        for i in 0..32 {
            let d = inj.deliver(NodeId(i % 4), SimTime::from_nanos(i as u64), base(), 4096);
            assert_eq!(d.latency, base());
            assert_eq!(d.retries, 0);
            assert_eq!(d.duplicates, 0);
            assert_eq!(d.corrupt_detected, 0);
        }
        // No sequence numbers consumed: determinism against PR-1 runs that
        // never called the injector.
        assert!(inj.seq.iter().all(|&s| s == 0));
    }

    #[test]
    fn deterministic_per_message() {
        let mk = || FaultInjector::new(FaultPlan::heavy(99), 4);
        let (mut a, mut b) = (mk(), mk());
        for i in 0..200u64 {
            let node = NodeId((i % 4) as u16);
            let now = SimTime::from_nanos(i * 1_000);
            assert_eq!(
                a.deliver(node, now, base(), 4096),
                b.deliver(node, now, base(), 4096)
            );
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let mut a = FaultInjector::new(FaultPlan::heavy(1), 1);
        let mut b = FaultInjector::new(FaultPlan::heavy(2), 1);
        let fates_a: Vec<_> = (0..100)
            .map(|_| a.deliver(NodeId(0), SimTime::ZERO, base(), 4096))
            .collect();
        let fates_b: Vec<_> = (0..100)
            .map(|_| b.deliver(NodeId(0), SimTime::ZERO, base(), 4096))
            .collect();
        assert_ne!(fates_a, fates_b);
    }

    #[test]
    fn latency_never_below_base_and_retries_bounded() {
        let plan = FaultPlan::heavy(7);
        let max_retries = plan.max_retries;
        let mut inj = FaultInjector::new(plan, 2);
        for i in 0..500u64 {
            let d = inj.deliver(
                NodeId((i % 2) as u16),
                SimTime::from_nanos(i * 777),
                base(),
                64,
            );
            assert!(d.latency >= base());
            assert!(d.retries <= max_retries);
        }
    }

    #[test]
    fn drops_do_happen_under_heavy_plan() {
        let mut inj = FaultInjector::new(FaultPlan::heavy(3), 1);
        let total: u32 = (0..500)
            .map(|_| inj.deliver(NodeId(0), SimTime::ZERO, base(), 4096).retries)
            .sum();
        assert!(total > 0, "heavy plan should produce retransmissions");
    }

    #[test]
    fn slow_window_is_periodic_and_node_selective() {
        let plan = FaultPlan::heavy(0);
        // heavy: slow_every = 2, so node 1 (1-based 2nd) is slow, node 0 not.
        assert!(!plan.in_slow_window(NodeId(0), SimTime::ZERO));
        assert!(plan.in_slow_window(NodeId(1), SimTime::ZERO));
        // Past the duty cycle the window closes.
        let late = SimTime::from_nanos(
            (plan.slow_period.as_nanos() as f64 * (plan.slow_duty + 0.1)) as u64,
        );
        assert!(!plan.in_slow_window(NodeId(1), late));
        // And reopens next period.
        let next = SimTime::from_nanos(plan.slow_period.as_nanos());
        assert!(plan.in_slow_window(NodeId(1), next));
    }

    #[test]
    fn parse_presets_and_overrides() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("light").unwrap(), FaultPlan::light(0));
        let p = FaultPlan::parse("heavy,seed=11,max_delay_us=50,slow_factor=2.5").unwrap();
        assert_eq!(p.seed, 11);
        assert_eq!(p.max_delay, SimDuration::from_micros(50));
        assert_eq!(p.slow_factor, 2.5);
        // Bare key=value list without a preset works too.
        let q = FaultPlan::parse("drop_prob=0.1,seed=3").unwrap();
        assert_eq!(q.drop_prob, 0.1);
        assert_eq!(q.seed, 3);
        // Drops imply a usable retransmit path.
        assert!(q.max_retries > 0);
        assert!(!q.retry_timeout.is_zero());
    }

    #[test]
    fn parse_rejects_nonsense() {
        assert!(FaultPlan::parse("turbo").is_err());
        assert!(FaultPlan::parse("drop_prob=1.5").is_err());
        assert!(FaultPlan::parse("slow_factor=0.5").is_err());
        assert!(FaultPlan::parse("frobnicate=1").is_err());
        assert!(FaultPlan::parse("light,oops").is_err());
        // Microseconds whose nanosecond count overflows u64.
        assert!(FaultPlan::parse("max_delay_us=18446744073709552").is_err());
        assert!(FaultPlan::parse("max_delay_us=18446744073709551").is_ok());
    }

    #[test]
    fn preset_intensity_ordering() {
        // More intense presets perturb more in expectation; spot-check via
        // mean latency over many messages.
        let mean = |plan: FaultPlan| -> f64 {
            let mut inj = FaultInjector::new(plan, 1);
            let n = 2_000;
            let total: u64 = (0..n)
                .map(|i| {
                    inj.deliver(NodeId(0), SimTime::from_nanos(i * 10_000), base(), 4096)
                        .latency
                        .as_nanos()
                })
                .sum();
            total as f64 / n as f64
        };
        let none = mean(FaultPlan::none());
        let light = mean(FaultPlan::light(5));
        let moderate = mean(FaultPlan::moderate(5));
        let heavy = mean(FaultPlan::heavy(5));
        assert_eq!(none, base().as_nanos() as f64);
        assert!(light > none);
        assert!(moderate > light);
        assert!(heavy > moderate);
    }

    #[test]
    fn preset_table_drives_parse() {
        // Every listed preset name parses to exactly its builder's plan, and
        // nothing outside the table is accepted — the table IS the grammar.
        for preset in FAULT_PRESETS {
            let parsed = FaultPlan::parse(preset.name).unwrap();
            assert_eq!(parsed, (preset.build)(0), "preset {}", preset.name);
            assert!(!preset.summary.is_empty());
        }
        let err = FaultPlan::parse("bogus").unwrap_err().to_string();
        for preset in FAULT_PRESETS {
            assert!(
                err.contains(preset.name),
                "error should list {}",
                preset.name
            );
        }
    }

    #[test]
    fn parse_new_knobs_and_partition_default_window() {
        let p = FaultPlan::parse("dup_prob=0.5,corrupt_prob=0.25,crash_prob=0.1,seed=9").unwrap();
        assert_eq!(p.dup_prob, 0.5);
        assert_eq!(p.corrupt_prob, 0.25);
        assert_eq!(p.crash_prob, 0.1);
        assert!(p.has_interval_faults());
        assert!(!p.is_none());
        // A partition probability without an explicit window gets the
        // preset's 2 ms default; an explicit window survives.
        let q = FaultPlan::parse("partition_prob=0.3").unwrap();
        assert_eq!(q.partition_window, SimDuration::from_millis(2));
        let r = FaultPlan::parse("partition_prob=0.3,partition_window_us=700").unwrap();
        assert_eq!(r.partition_window, SimDuration::from_micros(700));
        assert!(FaultPlan::parse("crash_prob=1.5").is_err());
        assert!(FaultPlan::parse("dup_prob=-0.1").is_err());
    }

    #[test]
    fn duplication_and_corruption_are_drawn_and_counted() {
        let dup = FaultPlan {
            dup_prob: 1.0,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(dup.with_seed(3), 2);
        for i in 0..64u64 {
            let d = inj.deliver(NodeId((i % 2) as u16), SimTime::ZERO, base(), 4096);
            assert_eq!(d.duplicates, 1);
            // Duplicates never touch latency.
            assert_eq!(d.latency, base());
        }
        let corrupt = FaultPlan {
            corrupt_prob: 1.0,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(corrupt.with_seed(3), 2);
        for i in 0..64u64 {
            let d = inj.deliver(NodeId((i % 2) as u16), SimTime::ZERO, base(), 4096);
            assert_eq!(d.corrupt_detected, 1, "single-bit flips must be caught");
            // One retransmission round repairs the corruption.
            assert_eq!(d.latency, base() * 2);
        }
    }

    #[test]
    fn new_draws_leave_existing_fault_streams_untouched() {
        // Adding duplication to a heavy plan must not perturb the latency or
        // retry stream: the new draws come after the old ones, and only when
        // their probability is non-zero.
        let mut plain = FaultInjector::new(FaultPlan::heavy(17), 2);
        let mut dup = FaultInjector::new(
            FaultPlan {
                dup_prob: 0.5,
                ..FaultPlan::heavy(17)
            },
            2,
        );
        for i in 0..300u64 {
            let node = NodeId((i % 2) as u16);
            let now = SimTime::from_nanos(i * 1_111);
            let a = plain.deliver(node, now, base(), 4096);
            let b = dup.deliver(node, now, base(), 4096);
            assert_eq!(a.latency, b.latency);
            assert_eq!(a.retries, b.retries);
        }
    }

    #[test]
    fn message_checksum_is_stable_and_sensitive() {
        let sum = message_checksum(NodeId(3), 41, 4096);
        assert_eq!(sum, message_checksum(NodeId(3), 41, 4096));
        assert_ne!(sum, message_checksum(NodeId(4), 41, 4096));
        assert_ne!(sum, message_checksum(NodeId(3), 42, 4096));
        assert_ne!(sum, message_checksum(NodeId(3), 41, 4097));
    }

    #[test]
    fn interval_actions_are_deterministic_and_plan_scoped() {
        let inj = FaultInjector::new(FaultPlan::chaos(5), 4);
        let (mut crashes, mut partitions) = (0usize, 0usize);
        for interval in 0..400u64 {
            let action = inj.interval_action(interval, 4);
            assert_eq!(
                action,
                inj.interval_action(interval, 4),
                "pure per interval"
            );
            match action {
                FaultAction::Crash { node } => {
                    assert!(node < 4);
                    crashes += 1;
                }
                FaultAction::Partition { split } => {
                    assert!((1..4).contains(&split));
                    partitions += 1;
                }
                _ => {}
            }
        }
        assert!(crashes > 0, "chaos plan should crash sometimes");
        assert!(partitions > 0, "chaos plan should partition sometimes");

        let part = FaultInjector::new(FaultPlan::partition(5), 4);
        for interval in 0..400u64 {
            assert!(!matches!(
                part.interval_action(interval, 4),
                FaultAction::Crash { .. }
            ));
        }
        let none = FaultInjector::new(FaultPlan::none(), 4);
        for interval in 0..64u64 {
            assert_eq!(none.interval_action(interval, 4), FaultAction::None);
        }
        // Single-node clusters cannot partition or crash meaningfully.
        assert_eq!(inj.interval_action(0, 1), FaultAction::None);
    }

    #[test]
    fn fault_action_choice_menu_round_trips() {
        assert_eq!(FaultAction::alternatives(4), 5);
        assert_eq!(FaultAction::alternatives(1), 3);
        assert_eq!(FaultAction::from_choice(0, 4), FaultAction::None);
        assert_eq!(
            FaultAction::from_choice(1, 4),
            FaultAction::Partition { split: 2 }
        );
        assert_eq!(FaultAction::from_choice(2, 4), FaultAction::Duplicate);
        assert_eq!(FaultAction::from_choice(3, 4), FaultAction::Corrupt);
        assert_eq!(
            FaultAction::from_choice(4, 4),
            FaultAction::Crash { node: 3 }
        );
        // One-node menu: no partition or crash slots.
        assert_eq!(FaultAction::from_choice(1, 1), FaultAction::Duplicate);
        assert_eq!(FaultAction::from_choice(2, 1), FaultAction::Corrupt);
        // Out-of-range choices degrade to no-fault.
        assert_eq!(FaultAction::from_choice(9, 4), FaultAction::None);
    }
}
