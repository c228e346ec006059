//! # acorr-track — correlation analysis
//!
//! Everything the paper derives *from* tracked access information:
//!
//! * [`correlation`] — the [`CorrelationMatrix`]: for every thread pair, the
//!   number of shared pages both touch (§1's *thread correlation*). One
//!   store from 64 threads to 10⁶: a dense diagonal plus flat CSR rows of
//!   the non-zero pairs, `O(T + E)` memory.
//! * [`cut`] — *cut costs* (§2): the pairwise correlation mass crossing node
//!   boundaries under a given [`Mapping`](acorr_sim::Mapping), the paper's
//!   predictor of communication.
//! * [`map`] — *correlation maps* (§3): renderings of the full pairwise
//!   grid (ASCII, PGM, CSV), optionally overlaying the same-node "free
//!   zones" of Figure 3.
//! * [`sharing`] — the *sharing degree* of Table 5 and per-node access
//!   unions.
//! * [`aging`] — exponential aging of correlations across tracking rounds,
//!   the adaptation mechanism prior systems used and the paper's future-work
//!   hook for dynamic applications, and how far a window of rounds diverges
//!   from that aged baseline.
//! * [`phases`] — the [`PhaseDetector`] that turns that divergence into
//!   re-mapping triggers: tumbling windows against an aged baseline, with
//!   integer ppm thresholds and fire/re-arm hysteresis.
//! * [`structure`] — machine classification of a map's dominant sharing
//!   structure (nearest-neighbor / blocked / all-to-all) with a node-size
//!   advisor, mechanizing §3's by-eye judgement.
//! * [`pages`] — per-page sharer counts, hot-page ranking and histograms:
//!   the page-level complement to the thread-pair view.
//!
//! ```
//! use acorr_mem::{AccessMatrix, PageId};
//! use acorr_sim::{ClusterConfig, Mapping};
//! use acorr_track::{cut_cost, CorrelationMatrix};
//!
//! let mut access = AccessMatrix::new(4, 8);
//! for t in 0..4 {
//!     access.record(t, PageId(0)); // everyone shares page 0
//! }
//! let corr = CorrelationMatrix::from_access(&access);
//! let cluster = ClusterConfig::new(2, 4)?;
//! let together = Mapping::stretch(&cluster);
//! assert_eq!(cut_cost(&corr, &together), 8); // 4 cross-node ordered pairs × 1 page... × 2
//! # Ok::<(), acorr_sim::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aging;
pub mod correlation;
pub mod cut;
pub mod map;
pub mod pages;
pub mod phases;
pub mod sharing;
pub mod structure;

pub use aging::AgedCorrelation;
pub use correlation::CorrelationMatrix;
pub use cut::{cut_cost, internal_cost, pair_is_cut};
pub use map::{render_ascii, render_csv, render_pgm, render_svg, MapStyle};
pub use pages::{
    hottest_pages, page_report, page_sharers, sharer_histogram, sharers_of, PageReport, PageSharers,
};
pub use phases::{PhaseDetector, PhaseShiftMark};
pub use sharing::{node_page_unions, sharing_degree};
pub use structure::{compatible_node_sizes, profile_map, MapProfile, Structure};

/// The one store's former name, kept only because the benchmark still imports it.
pub type SparseCorrelation = CorrelationMatrix;
