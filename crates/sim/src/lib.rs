//! # acorr-sim — simulation substrate
//!
//! Deterministic building blocks shared by every layer of the Active
//! Correlation Tracking reproduction:
//!
//! * [`time`] — simulated time ([`SimTime`]) and durations ([`SimDuration`]);
//!   the simulator never consults a wall clock.
//! * [`rng`] — a seedable, fork-able xoshiro256** generator ([`DetRng`]) so a
//!   run is a pure function of its seed, and the seeded property-test
//!   harness ([`forall`]) built on it.
//! * [`decisions`] — decision-point queues ([`DecisionQueue`]) prescribing
//!   scheduler choices for controllable-schedule exploration.
//! * [`pool`] — deterministic scoped-thread parallelism
//!   ([`par_map_indexed`]): seeds forked up-front, results collected in
//!   index order, bit-identical to sequential execution at any worker count.
//! * [`topology`] — cluster shape ([`ClusterConfig`]), node identities
//!   ([`NodeId`]) and thread-to-node assignments ([`Mapping`]).
//! * [`network`] — a LogP-style message cost model ([`NetworkModel`]) with
//!   full per-kind message/byte accounting ([`NetStats`]).
//! * [`faults`] — seeded deterministic fault injection ([`FaultPlan`],
//!   [`FaultInjector`]): delay jitter, bounded reordering, transient
//!   drop-with-retry, per-node slowdown windows, message duplication,
//!   checksum-detected corruption, and per-barrier-interval partition/crash
//!   actions ([`FaultAction`]), all a pure function of the plan seed.
//! * [`cost`] — CPU-side cost parameters ([`CostModel`]) for faults,
//!   protection changes, context switches, diffs and barriers.
//! * [`stats`] — summary statistics and the least-squares fit
//!   ([`LinearFit`]) used by the paper's Table 2 methodology.
//!
//! The paper ran on eight Pentium II workstations on Myrinet; this crate is
//! the substitute for that hardware. The default model parameters are chosen
//! to be era-plausible, but every experiment in the workspace reports counts
//! (misses, faults, bytes) in addition to modeled time, so conclusions do not
//! hinge on the exact constants.
//!
//! ```
//! use acorr_sim::{ClusterConfig, Mapping, NetworkModel, SimDuration};
//!
//! let cluster = ClusterConfig::new(8, 64)?;
//! let mapping = Mapping::stretch(&cluster);
//! assert_eq!(mapping.node_of(0), mapping.node_of(7));
//!
//! let net = NetworkModel::default();
//! assert!(net.transfer_time(4096) > SimDuration::ZERO);
//! # Ok::<(), acorr_sim::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod decisions;
pub mod faults;
pub mod network;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;
pub mod topology;
pub mod traffic;

pub use cost::CostModel;
pub use decisions::{DecisionQueue, DecisionRecord};
pub use faults::{
    message_checksum, Delivery, FaultAction, FaultInjector, FaultPlan, FaultPreset, FaultSpecError,
    FAULT_PRESETS,
};
pub use network::{MessageKind, NetStats, NetworkModel};
pub use pool::{available_threads, par_join, par_map_indexed, par_map_range, resolve_threads};
pub use rng::{forall, DetRng};
pub use stats::{linear_fit, mean, stddev, LinearFit};
pub use time::{SimDuration, SimTime};
pub use topology::{ClusterConfig, Mapping, NodeId, TopologyError};
pub use traffic::{Scenario, TrafficConfig, TrafficDriver};
