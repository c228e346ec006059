//! Global coherence state: the page directory.
//!
//! The reproduction implements CVM's multi-writer lazy-release-consistency
//! family at the granularity the paper's measurements need. Each page has a
//! monotonically increasing *version*; every finalized write interval
//! contributes a [`DiffRecord`]. A node's copy is current when it has
//! applied every diff up to the page's version. Remote misses are resolved
//! either by applying the missing diffs (cheap, "Diff Mbytes") or — when the
//! faulting node's copy predates the owner's consolidated base — by fetching
//! the full page plus any still-pending diffs.
//!
//! Periodic *garbage collection* consolidates all of a page's pending diffs
//! at a single owner and invalidates other replicas, exactly the behaviour
//! §2 of the paper cites as a source of extra remote faults.

use acorr_mem::PageId;
use acorr_sim::{NodeId, SimTime};

/// One finalized write interval of one node on one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffRecord {
    /// The node that created the diff.
    pub node: NodeId,
    /// The page version this diff produced.
    pub version: u64,
    /// Diff payload size in bytes (dirty ranges plus framing).
    pub bytes: u64,
}

/// Global (directory) state of one page.
#[derive(Debug, Clone)]
pub struct PageGlobal {
    /// Latest version of the page anywhere in the system.
    pub version: u64,
    /// The node holding a full copy at `base_version`.
    pub owner: NodeId,
    /// Version of the owner's consolidated full copy.
    pub base_version: u64,
    /// Pending diffs, ascending by version, covering
    /// `(base_version, version]`.
    pub diffs: Vec<DiffRecord>,
    /// Single-writer protocol only: the page may not be stolen from its
    /// owner before this instant (the Mirage-style delta interval).
    pub sw_frozen_until: SimTime,
}

/// What a faulting node must fetch to make its copy current.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FetchPlan {
    /// Fetch a full page image from this node first (cold miss or
    /// post-GC miss).
    pub full_page_from: Option<NodeId>,
    /// Diffs to fetch and apply, ascending by version.
    pub diffs: Vec<DiffRecord>,
    /// The version the copy reflects after the fetch.
    pub new_version: u64,
}

impl FetchPlan {
    /// Total diff payload bytes in the plan.
    pub fn diff_bytes(&self) -> u64 {
        self.diffs.iter().map(|d| d.bytes).sum()
    }
}

/// The page directory: global versions, owners and pending diffs for every
/// shared page.
///
/// In CVM this state is distributed among page managers; the reproduction
/// centralizes the bookkeeping (the *traffic* it would cause is still
/// accounted by the engine) for determinism and simplicity.
#[derive(Debug, Clone)]
pub struct PageDirectory {
    pages: Vec<PageGlobal>,
    pending_records: usize,
}

impl PageDirectory {
    /// Creates a directory for `num_pages` pages, all owned (with a full,
    /// current copy) by `initial_owner`.
    pub fn new(num_pages: usize, initial_owner: NodeId) -> Self {
        PageDirectory {
            pages: (0..num_pages)
                .map(|_| PageGlobal {
                    version: 0,
                    owner: initial_owner,
                    base_version: 0,
                    diffs: Vec::new(),
                    sw_frozen_until: SimTime::ZERO,
                })
                .collect(),
            pending_records: 0,
        }
    }

    /// Read access to one page's global state.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn page(&self, page: PageId) -> &PageGlobal {
        &self.pages[page.idx()]
    }

    /// Current version of a page.
    pub fn version(&self, page: PageId) -> u64 {
        self.pages[page.idx()].version
    }

    /// Total pending diff records across all pages (the GC trigger).
    pub fn pending_records(&self) -> usize {
        self.pending_records
    }

    /// Records a finalized write interval: bumps the page version and files
    /// the diff. Returns the new version.
    pub fn record_diff(&mut self, page: PageId, node: NodeId, bytes: u64) -> u64 {
        let pg = &mut self.pages[page.idx()];
        pg.version += 1;
        pg.diffs.push(DiffRecord {
            node,
            version: pg.version,
            bytes,
        });
        self.pending_records += 1;
        pg.version
    }

    /// An allocating [`fetch_plan_into`](Self::fetch_plan_into), for tests.
    #[cfg(test)]
    pub fn fetch_plan(
        &self,
        page: PageId,
        requester: NodeId,
        applied_version: u64,
        has_copy: bool,
    ) -> FetchPlan {
        let mut plan = FetchPlan::default();
        self.fetch_plan_into(page, requester, applied_version, has_copy, &mut plan);
        plan
    }

    /// Computes into `out` what a node must fetch to bring its copy of
    /// `page` current, reusing `out`'s diff buffer — the engine keeps one
    /// scratch plan and every coherence fault fills it in place.
    ///
    /// `applied_version` is the version the node's copy reflects and
    /// `has_copy` whether the node holds any (possibly stale) image. Diffs
    /// authored by `requester` itself are never refetched — the node already
    /// has its own modifications in place.
    pub fn fetch_plan_into(
        &self,
        page: PageId,
        requester: NodeId,
        applied_version: u64,
        has_copy: bool,
        out: &mut FetchPlan,
    ) {
        let pg = &self.pages[page.idx()];
        out.diffs.clear();
        out.new_version = pg.version;
        if has_copy && applied_version >= pg.base_version {
            // The copy can be patched forward with diffs alone.
            out.full_page_from = None;
            out.diffs.extend(
                pg.diffs
                    .iter()
                    .filter(|d| d.version > applied_version && d.node != requester),
            );
        } else {
            // Cold miss, or the copy predates the owner's consolidated base:
            // full page plus everything still pending.
            out.full_page_from = Some(pg.owner);
            out.diffs
                .extend(pg.diffs.iter().filter(|d| d.node != requester));
        }
    }

    /// Pages that currently have pending diffs (GC candidates), ascending.
    pub fn pages_with_diffs(&self) -> Vec<PageId> {
        self.pages
            .iter()
            .enumerate()
            .filter(|(_, pg)| !pg.diffs.is_empty())
            .map(|(i, _)| PageId(i as u32))
            .collect()
    }

    /// Single-writer protocol: moves ownership of `page` to `new_owner` and
    /// freezes it there until `frozen_until`.
    pub fn transfer_ownership(&mut self, page: PageId, new_owner: NodeId, frozen_until: SimTime) {
        let pg = &mut self.pages[page.idx()];
        pg.owner = new_owner;
        pg.version += 1;
        pg.sw_frozen_until = frozen_until;
    }

    /// Consolidates `page` at `new_owner`: the owner is assumed to have
    /// applied all pending diffs; they are drained and returned for traffic
    /// accounting, and the base version advances to the current version.
    pub fn consolidate(&mut self, page: PageId, new_owner: NodeId) -> Vec<DiffRecord> {
        let pg = &mut self.pages[page.idx()];
        pg.owner = new_owner;
        pg.base_version = pg.version;
        let drained = std::mem::take(&mut pg.diffs);
        self.pending_records -= drained.len();
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);
    const N2: NodeId = NodeId(2);
    const P: PageId = PageId(0);

    #[test]
    fn initial_state_is_owned_and_clean() {
        let d = PageDirectory::new(4, N0);
        assert_eq!(d.pages.len(), 4);
        assert_eq!(d.version(P), 0);
        assert_eq!(d.pending_records(), 0);
        assert_eq!(d.page(P).owner, N0);
        assert!(d.pages_with_diffs().is_empty());
    }

    #[test]
    fn record_diff_bumps_version() {
        let mut d = PageDirectory::new(1, N0);
        assert_eq!(d.record_diff(P, N1, 100), 1);
        assert_eq!(d.record_diff(P, N2, 50), 2);
        assert_eq!(d.version(P), 2);
        assert_eq!(d.pending_records(), 2);
        assert_eq!(d.pages_with_diffs(), vec![P]);
    }

    #[test]
    fn current_copy_needs_nothing() {
        let mut d = PageDirectory::new(1, N0);
        d.record_diff(P, N1, 100);
        let plan = d.fetch_plan(P, N2, 1, true);
        assert_eq!(plan.full_page_from, None);
        assert!(plan.diffs.is_empty());
        assert_eq!(plan.new_version, 1);
    }

    #[test]
    fn stale_copy_fetches_missing_diffs_only() {
        let mut d = PageDirectory::new(1, N0);
        d.record_diff(P, N1, 100);
        d.record_diff(P, N2, 50);
        // Node 0 has version 0 → needs both diffs.
        let plan = d.fetch_plan(P, N0, 0, true);
        assert_eq!(plan.full_page_from, None);
        assert_eq!(plan.diffs.len(), 2);
        assert_eq!(plan.diff_bytes(), 150);
        assert_eq!(plan.new_version, 2);
    }

    #[test]
    fn own_diffs_are_never_refetched() {
        let mut d = PageDirectory::new(1, N0);
        d.record_diff(P, N1, 100);
        d.record_diff(P, N2, 50);
        let plan = d.fetch_plan(P, N1, 0, true);
        assert_eq!(plan.diffs.len(), 1);
        assert_eq!(plan.diffs[0].node, N2);
    }

    #[test]
    fn cold_miss_takes_full_page_plus_diffs() {
        let mut d = PageDirectory::new(1, N0);
        d.record_diff(P, N1, 100);
        let plan = d.fetch_plan(P, N2, 0, false);
        assert_eq!(plan.full_page_from, Some(N0));
        assert_eq!(plan.diffs.len(), 1);
    }

    #[test]
    fn consolidation_resets_and_forces_full_fetches() {
        let mut d = PageDirectory::new(1, N0);
        d.record_diff(P, N1, 100);
        d.record_diff(P, N2, 50);
        let drained = d.consolidate(P, N2);
        assert_eq!(drained.len(), 2);
        assert_eq!(d.pending_records(), 0);
        assert_eq!(d.page(P).owner, N2);
        assert_eq!(d.page(P).base_version, 2);
        // A copy at version 1 now predates the base → full fetch from N2.
        let plan = d.fetch_plan(P, N0, 1, true);
        assert_eq!(plan.full_page_from, Some(N2));
        assert!(plan.diffs.is_empty());
        // The owner itself stays current.
        let owner_plan = d.fetch_plan(P, N2, 2, true);
        assert_eq!(owner_plan.full_page_from, None);
        assert!(owner_plan.diffs.is_empty());
    }

    #[test]
    fn diffs_after_consolidation_patch_forward() {
        let mut d = PageDirectory::new(1, N0);
        d.record_diff(P, N1, 100);
        d.consolidate(P, N1);
        d.record_diff(P, N2, 40);
        let plan = d.fetch_plan(P, N0, 1, true);
        assert_eq!(plan.full_page_from, None);
        assert_eq!(plan.diffs.len(), 1);
        assert_eq!(plan.diffs[0].bytes, 40);
    }
}
