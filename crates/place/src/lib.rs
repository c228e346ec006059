//! # acorr-place — thread placement
//!
//! §5.1 of the paper: finding the optimal mapping of threads to nodes is a
//! form of the NP-hard multi-way cut problem, so the paper compares:
//!
//! * **stretch** — keep the program's thread order, slice it into equal
//!   contiguous blocks ([`Mapping::stretch`](acorr_sim::Mapping::stretch));
//!   exactly right for nearest-neighbor sharing, neutral for all-to-all.
//! * **min-cost** — cluster-analysis heuristics. [`min_cost`] seeds clusters
//!   greedily from the strongest affinities and refines with
//!   Kernighan-Lin-style pairwise swaps; the paper found such heuristics
//!   land within 1% of optimal on its applications (a claim the test suite
//!   checks against [`optimal()`](optimal()) on tractable instances).
//! * **random** — the baseline of Tables 2 and 6
//!   ([`Mapping::random_balanced`](acorr_sim::Mapping::random_balanced),
//!   [`Mapping::random_min_two`](acorr_sim::Mapping::random_min_two)).
//! * **optimal** — the paper used integer programming; [`optimal()`](optimal()) is an
//!   exact branch-and-bound usable on reduced instances.
//! * **multilevel** — [`multilevel_place`]: heavy-edge-matching coarsening,
//!   affinity-greedy coarse partition and refined uncoarsening over the
//!   matrix's non-zero pairs; the `O(T + E)` path that carries placement to
//!   the ROADMAP's 10⁶-thread scale (synthetic instances from
//!   [`synth::power_law_affinity`]).
//!
//! Re-mapping a running program goes through [`plan_migration`]: the
//! paper's greedy adoption of a candidate mapping, or a NUMA-style
//! interchange of a bounded number of profitable pairwise swaps, behind
//! the [`MigrationCostModel`] accept gate.
//!
//! ```
//! use acorr_place::{min_cost, Strategy};
//! use acorr_sim::ClusterConfig;
//! use acorr_track::CorrelationMatrix;
//!
//! // A 4-thread nearest-neighbor chain on 2 nodes: min-cost recovers the
//! // contiguous split.
//! let corr = CorrelationMatrix::from_edges(4, [(0, 1, 10), (1, 2, 1), (2, 3, 10)]);
//! let cluster = ClusterConfig::new(2, 4)?;
//! let m = min_cost(&corr, &cluster);
//! assert_eq!(m.node_of(0), m.node_of(1));
//! assert_eq!(m.node_of(2), m.node_of(3));
//! # Ok::<(), acorr_sim::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anneal;
pub mod jarvis_patrick;
pub mod migrate;
pub mod mincost;
pub mod multilevel;
pub mod optimal;
pub mod strategy;
pub mod synth;

pub use anneal::{anneal, AnnealConfig};
pub use jarvis_patrick::jarvis_patrick;
pub use migrate::{plan_migration, MigrationCostModel, MigrationPolicy};
pub use mincost::{min_cost, refine_kl, DegreeCache};
pub use multilevel::multilevel_place;
pub use optimal::optimal;
pub use strategy::{place, Strategy};
pub use synth::power_law_affinity;
