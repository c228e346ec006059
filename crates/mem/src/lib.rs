//! # acorr-mem — memory substrate
//!
//! The paper's mechanism lives entirely at page granularity: CVM traps
//! accesses with virtual-memory protections and reasons about which 4 KiB
//! pages each thread touches. This crate provides those building blocks,
//! independent of any protocol:
//!
//! * [`page`] — page size/ids and address arithmetic, including splitting a
//!   byte range into per-page subranges.
//! * [`prot`] — protection states and access kinds, with the
//!   permission-check predicate that classifies faults.
//! * [`bitset`] — fixed-width bitsets; one per thread serves as the paper's
//!   *access bitmap*.
//! * [`ranges`] — the word-chunked [`DirtyMask`] of dirty bytes within a
//!   page, the representation behind multi-writer *diffs*, pinned
//!   byte-for-byte against a merged-range reference in its tests.
//! * [`arena`] — a bump arena for per-interval protocol records, reset once
//!   per barrier interval.
//! * [`layout`] — a page-aligned bump allocator laying out an application's
//!   shared segments.
//! * [`access`] — the [`AccessMatrix`]: per-thread page-access bitmaps, the
//!   direct output of a tracking phase and the input to correlation
//!   analysis.
//! * [`vclock`] — vector clocks and a happens-before race detector
//!   ([`HbRaceDetector`]) over the same page accesses.
//! * [`visible`] — the protocol-independent program-visible memory model
//!   ([`VisibleImage`]) behind differential MW-vs-SW checking.
//!
//! ```
//! use acorr_mem::{AccessMatrix, PageId, PAGE_SIZE};
//! let mut m = AccessMatrix::new(2, 4);
//! m.record(0, PageId(1));
//! m.record(1, PageId(1));
//! assert_eq!(m.shared_pages(0, 1), 1);
//! assert_eq!(PAGE_SIZE, 4096);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod arena;
pub mod bitset;
pub mod layout;
pub mod page;
pub mod prot;
pub mod ranges;
pub mod vclock;
pub mod visible;

pub use access::AccessMatrix;
pub use arena::{Arena, ArenaRange};
pub use bitset::FixedBitset;
pub use layout::{Segment, SharedLayout};
pub use page::{page_of, pages_for, span_pages, PageId, PageSpan, PageTable, PAGE_SIZE};
pub use prot::{AccessKind, Protection};
pub use ranges::DirtyMask;
pub use vclock::{HbRaceDetector, Race, RaceKind, RaceReport, VectorClock};
pub use visible::{write_token, VisibleImage};
