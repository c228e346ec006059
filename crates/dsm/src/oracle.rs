//! Conformance oracle: a sequential reference memory shadowing the protocol.
//!
//! The engine prices coherence traffic but holds no page contents, so a
//! protocol bug (a lost invalidation, a misapplied diff, a version that
//! drifts from reality) would be invisible to the statistics. The
//! [`CoherenceOracle`] closes that gap: it maintains an independent
//! byte-level model of the shared memory — a *committed* image per page
//! (what a sequentially consistent observer would see after every finalized
//! write interval) plus a per-node *view* (what that node's physical copy
//! must contain under multi-writer lazy release consistency) — and checks,
//! at every page fetch, diff finalization, lock release and barrier, that
//! the engine's validity, version and diff bookkeeping agree with the
//! model.
//!
//! Writes deposit unique tokens, so any merge or invalidation mistake shows
//! up as a byte mismatch. Concurrent unsynchronized writes to the *same*
//! byte are a data race — release consistency leaves their outcome
//! unspecified — so the oracle marks such bytes *hazy* and excludes them
//! from content comparisons until a properly ordered write makes them
//! definite again. Race-free programs (all paper applications) are checked
//! byte-for-byte.
//!
//! The oracle is pure bookkeeping on the side: enabling it never changes
//! simulated time, traffic or scheduling, so an oracle-enabled run produces
//! bit-identical statistics to a plain one.

use crate::node::NodeState;
use crate::protocol::PageDirectory;
use acorr_mem::{write_token, PageId, PageSpan, VisibleImage, PAGE_SIZE};

/// How many violations the oracle records in detail before only counting.
const MAX_RECORDED: usize = 8;

/// Summary of the checking work an oracle performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleReport {
    /// Barrier-time full-memory checks performed.
    pub barriers_checked: u64,
    /// Lock releases checked.
    pub lock_releases_checked: u64,
    /// Page fetches cross-checked against the reference memory.
    pub fetches_checked: u64,
    /// Diff finalizations independently re-merged and verified.
    pub finalizes_checked: u64,
    /// Bytes compared between node views and the committed image.
    pub bytes_compared: u64,
    /// Bytes currently excluded from comparison as data-raced.
    pub hazy_bytes: u64,
    /// Violations detected (0 on a conforming run).
    pub violations: u64,
}

/// The committed (sequential-reference) state of one page.
struct PageShadow {
    /// Reference contents after every finalized write interval so far.
    committed: Box<[u8; PAGE_SIZE]>,
    /// Number of finalized write intervals (must track the directory
    /// version in multi-writer mode).
    version: u64,
    /// Per-byte version of the interval that last committed it (saturated
    /// to `u32::MAX`); used to distinguish ordered rewrites from races.
    last_commit: Box<[u32; PAGE_SIZE]>,
    /// Bitset of bytes whose committed value is unspecified because two
    /// unordered write intervals both stored to them.
    hazy: Box<[u64; PAGE_SIZE / 64]>,
}

impl PageShadow {
    fn new() -> Self {
        PageShadow {
            committed: Box::new([0; PAGE_SIZE]),
            version: 0,
            last_commit: Box::new([0; PAGE_SIZE]),
            hazy: Box::new([0; PAGE_SIZE / 64]),
        }
    }

    fn set_hazy(&mut self, b: usize, v: bool) {
        if v {
            self.hazy[b / 64] |= 1 << (b % 64);
        } else {
            self.hazy[b / 64] &= !(1 << (b % 64));
        }
    }

    fn hazy_count(&self) -> u64 {
        self.hazy.iter().map(|w| w.count_ones() as u64).sum()
    }
}

/// One node's modelled physical copy of one page.
struct NodeView {
    /// Expected contents of the node's copy.
    data: Box<[u8; PAGE_SIZE]>,
    /// Version the copy reflects (mirrors the engine's `applied_version`).
    base_version: u64,
    /// Un-finalized write spans of the current interval, in insertion
    /// order (the oracle's independent "twin": merged only at finalize).
    pending: Vec<(u16, u16)>,
}

impl NodeView {
    fn new() -> Self {
        NodeView {
            data: Box::new([0; PAGE_SIZE]),
            base_version: 0,
            pending: Vec::new(),
        }
    }
}

/// Sequential reference memory + release-consistency checker.
///
/// See the [module docs](self) for the model. Created through
/// [`Dsm::enable_oracle`](crate::Dsm::enable_oracle); violations surface as
/// [`DsmError::OracleViolation`](crate::DsmError::OracleViolation) from the
/// run methods.
pub struct CoherenceOracle {
    num_pages: usize,
    single_writer: bool,
    iteration: u64,
    /// Per-thread count of nonempty writes: the token ordinal, shared with
    /// [`VisibleImage`] so differential checks can compare byte-for-byte.
    write_seq: Vec<u64>,
    shadows: Vec<Option<Box<PageShadow>>>,
    /// Indexed `node * num_pages + page`.
    views: Vec<Option<Box<NodeView>>>,
    violations: Vec<String>,
    violation_count: u64,
    report: OracleReport,
}

impl std::fmt::Debug for CoherenceOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoherenceOracle")
            .field("num_pages", &self.num_pages)
            .field("single_writer", &self.single_writer)
            .field("report", &self.report())
            .finish_non_exhaustive()
    }
}

impl CoherenceOracle {
    /// Creates an oracle for `num_nodes` nodes and `num_pages` pages.
    pub fn new(num_nodes: usize, num_pages: usize, single_writer: bool) -> Self {
        CoherenceOracle {
            num_pages,
            single_writer,
            iteration: 0,
            write_seq: Vec::new(),
            shadows: (0..num_pages).map(|_| None).collect(),
            views: (0..num_nodes * num_pages).map(|_| None).collect(),
            violations: Vec::new(),
            violation_count: 0,
            report: OracleReport::default(),
        }
    }

    /// The checking summary so far.
    pub fn report(&self) -> OracleReport {
        let mut r = self.report;
        r.violations = self.violation_count;
        r.hazy_bytes = self.shadows.iter().flatten().map(|s| s.hazy_count()).sum();
        r
    }

    /// The first recorded violation, if any.
    pub fn first_violation(&self) -> Option<&str> {
        self.violations.first().map(String::as_str)
    }

    /// Pages that currently contain hazy (data-raced) bytes. Used by the
    /// exploration layer to cross-check the happens-before race detector:
    /// every hazy page must also carry a detected write-write race.
    pub fn hazy_pages(&self) -> Vec<PageId> {
        self.shadows
            .iter()
            .enumerate()
            .filter_map(|(p, s)| match s {
                Some(s) if s.hazy_count() > 0 => Some(PageId(p as u32)),
                _ => None,
            })
            .collect()
    }

    fn violate(&mut self, detail: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(detail);
        }
    }

    fn shadow(&mut self, page: PageId) -> &mut PageShadow {
        self.shadows[page.idx()].get_or_insert_with(|| Box::new(PageShadow::new()))
    }

    fn view_mut(
        views: &mut [Option<Box<NodeView>>],
        num_pages: usize,
        node: usize,
        page: PageId,
    ) -> &mut NodeView {
        views[node * num_pages + page.idx()].get_or_insert_with(|| Box::new(NodeView::new()))
    }

    /// A fresh, non-zero write token, so merge mistakes cannot alias back
    /// to a correct-looking byte by accident. A pure function of the
    /// writing thread and its per-thread write ordinal — *not* of global
    /// write order — so the token stream is identical across schedules and
    /// protocols, and [`CoherenceOracle::check_visible`] can compare the
    /// committed image against the [`VisibleImage`] model byte-for-byte.
    fn token(&mut self, thread: usize) -> u8 {
        if thread >= self.write_seq.len() {
            self.write_seq.resize(thread + 1, 0);
        }
        let seq = self.write_seq[thread];
        self.write_seq[thread] += 1;
        write_token(thread, seq)
    }

    /// Called at the start of every iteration.
    pub fn begin_iteration(&mut self, iteration: usize) {
        self.iteration = iteration as u64;
    }

    // --------------------------------------------------------------
    // Event hooks (multi-writer)
    // --------------------------------------------------------------

    /// A thread stored to `span` on `node` (multi-writer: buffered in the
    /// local copy until finalization; single-writer: immediately global).
    pub fn on_write(&mut self, node: usize, thread: usize, span: PageSpan) {
        if span.start == span.end {
            return; // zero-length stores leave no trace (mirrors DirtyMask)
        }
        let token = self.token(thread);
        let num_pages = self.num_pages;
        let view = Self::view_mut(&mut self.views, num_pages, node, span.page);
        view.data[span.start as usize..span.end as usize].fill(token);
        if self.single_writer {
            // Eager protocol: the owner's store is the global truth at once.
            let shadow = self.shadow(span.page);
            shadow.committed[span.start as usize..span.end as usize].fill(token);
        } else {
            view.pending.push((span.start, span.end));
        }
    }

    /// A node brought its copy current (multi-writer fetch): the engine
    /// claims the copy now reflects `new_version`. The modelled result is
    /// the committed image with the node's own un-finalized writes
    /// re-applied on top (the twin-preservation merge).
    pub fn on_fetch(&mut self, node: usize, page: PageId, new_version: u64) {
        self.report.fetches_checked += 1;
        let shadow_version = self.shadows[page.idx()].as_ref().map_or(0, |s| s.version);
        if new_version != shadow_version {
            self.violate(format!(
                "fetch of page {} at node {node}: directory version {new_version} \
                 but {shadow_version} write intervals were finalized",
                page.idx()
            ));
        }
        let committed: Box<[u8; PAGE_SIZE]> = match &self.shadows[page.idx()] {
            Some(s) => s.committed.clone(),
            None => Box::new([0; PAGE_SIZE]),
        };
        let num_pages = self.num_pages;
        let view = Self::view_mut(&mut self.views, num_pages, node, page);
        let mut data = committed;
        for &(s, e) in &view.pending {
            data[s as usize..e as usize].copy_from_slice(&view.data[s as usize..e as usize]);
        }
        view.data = data;
        view.base_version = new_version;
    }

    /// A node finalized its write interval on `page` (diff creation). The
    /// oracle independently merges the pending spans and cross-checks the
    /// engine's dirty-range bookkeeping, then commits the bytes.
    pub fn on_finalize(
        &mut self,
        node: usize,
        page: PageId,
        dirty_len: u64,
        fragments: usize,
        new_version: u64,
        still_valid: bool,
    ) {
        self.report.finalizes_checked += 1;
        let num_pages = self.num_pages;
        let view = Self::view_mut(&mut self.views, num_pages, node, page);
        let base_version = view.base_version;
        // Independent merge of the raw write spans (sorted; overlapping or
        // adjacent spans coalesce, mirroring a word-level diff).
        let mut spans = std::mem::take(&mut view.pending);
        spans.sort_unstable();
        let mut merged: Vec<(u16, u16)> = Vec::new();
        for (s, e) in spans {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        let merged_len: u64 = merged.iter().map(|&(s, e)| (e - s) as u64).sum();
        if merged_len != dirty_len || merged.len() != fragments {
            self.violate(format!(
                "finalize of page {} at node {node}: engine diff covers {dirty_len} B in \
                 {fragments} fragments, independent merge got {merged_len} B in {}",
                page.idx(),
                merged.len()
            ));
        }
        // Commit the bytes and classify each as ordered or raced: a write
        // whose interval began at or after a byte's previous commit has seen
        // it (synchronized); an older base means two unordered intervals
        // stored to the same byte — a data race, content unspecified.
        let view_ptr = node * num_pages + page.idx();
        let single_writer = self.single_writer;
        let shadow = self.shadow(page);
        shadow.version += 1;
        let shadow_version = shadow.version;
        if shadow_version != new_version && !single_writer {
            self.violate(format!(
                "finalize of page {} at node {node}: directory version {new_version} \
                 but this is finalized interval {shadow_version}",
                page.idx()
            ));
        }
        let commit_mark =
            u32::try_from(self.shadows[page.idx()].as_ref().unwrap().version).unwrap_or(u32::MAX);
        let view = self.views[view_ptr].as_ref().expect("created above");
        let shadow = self.shadows[page.idx()].as_mut().expect("created above");
        for &(s, e) in &merged {
            for b in s as usize..e as usize {
                let ordered =
                    base_version >= shadow.last_commit[b] as u64 || shadow.last_commit[b] == 0;
                shadow.committed[b] = view.data[b];
                shadow.set_hazy(b, !ordered);
                shadow.last_commit[b] = commit_mark;
            }
        }
        if still_valid {
            let view = self.views[view_ptr].as_mut().expect("created above");
            view.base_version = new_version;
        }
    }

    // --------------------------------------------------------------
    // Event hooks (single-writer)
    // --------------------------------------------------------------

    /// Node `node` crashed at a barrier boundary: its physical copies are
    /// gone, so every modelled view for it is dropped. The committed image
    /// — stable storage in the recovery model — is untouched; the node's
    /// views are rebuilt by the ordinary fetches recovery triggers.
    pub fn on_crash(&mut self, node: usize) {
        for p in 0..self.num_pages {
            self.views[node * self.num_pages + p] = None;
        }
    }

    /// A node fetched a page copy under the single-writer protocol: the
    /// copy is the current global contents.
    pub fn on_fetch_sw(&mut self, node: usize, page: PageId) {
        self.report.fetches_checked += 1;
        let committed: Box<[u8; PAGE_SIZE]> = match &self.shadows[page.idx()] {
            Some(s) => s.committed.clone(),
            None => Box::new([0; PAGE_SIZE]),
        };
        let num_pages = self.num_pages;
        let view = Self::view_mut(&mut self.views, num_pages, node, page);
        view.data = committed;
    }

    // --------------------------------------------------------------
    // Checks
    // --------------------------------------------------------------

    /// At a lock release, every page written under the lock must have been
    /// finalized (published to the next acquirer) and the directory version
    /// must match the finalized-interval count.
    pub fn check_lock_release(&mut self, node: usize, pages: &[PageId], directory: &PageDirectory) {
        self.report.lock_releases_checked += 1;
        for &page in pages {
            let view = &self.views[node * self.num_pages + page.idx()];
            if let Some(view) = view {
                if !view.pending.is_empty() {
                    self.violate(format!(
                        "lock release at node {node}: page {} still has {} \
                         un-finalized write spans",
                        page.idx(),
                        view.pending.len()
                    ));
                }
            }
            if !self.single_writer {
                let shadow_version = self.shadows[page.idx()].as_ref().map_or(0, |s| s.version);
                let dir_version = directory.version(page);
                if shadow_version != dir_version {
                    self.violate(format!(
                        "lock release at node {node}: page {} directory version \
                         {dir_version} vs {shadow_version} finalized intervals",
                        page.idx()
                    ));
                }
            }
        }
    }

    /// At a barrier, checks release-consistency visibility for every page
    /// on every node: validity implies currency, and every valid copy's
    /// contents must equal the committed image (outside raced bytes).
    pub fn check_barrier(&mut self, nodes: &[NodeState], directory: &PageDirectory) {
        self.report.barriers_checked += 1;
        let mut compared = 0u64;
        let zeros = [0u8; PAGE_SIZE];
        for p in 0..self.num_pages {
            let page = PageId(p as u32);
            let shadow_version = self.shadows[p].as_ref().map_or(0, |s| s.version);
            if !self.single_writer && directory.version(page) != shadow_version {
                let dv = directory.version(page);
                self.violate(format!(
                    "barrier: page {p} directory version {dv} vs {shadow_version} \
                     finalized intervals"
                ));
            }
            for (n, node) in nodes.iter().enumerate() {
                let view = &self.views[n * self.num_pages + p];
                if let Some(view) = view {
                    if !self.single_writer && !view.pending.is_empty() {
                        self.violate(format!(
                            "barrier: node {n} page {p} carries {} write spans past \
                             the barrier without finalization",
                            view.pending.len()
                        ));
                        continue;
                    }
                }
                if !node.pages.valid(p) {
                    continue; // an invalid copy may be arbitrarily stale
                }
                if !node.pages.has_copy(p) {
                    self.violate(format!("barrier: node {n} page {p} valid without a copy"));
                    continue;
                }
                if !self.single_writer && node.pages.applied_version(p) != directory.version(page) {
                    let (av, dv) = (node.pages.applied_version(p), directory.version(page));
                    self.violate(format!(
                        "barrier: node {n} page {p} valid at version {av} but the \
                         directory is at {dv}"
                    ));
                    continue;
                }
                // Content check: the valid copy must show the committed image.
                let Some(shadow) = &self.shadows[p] else {
                    // Never written: both the view (if any) and the reference
                    // are all-zeros by construction.
                    continue;
                };
                let data: &[u8; PAGE_SIZE] = match view {
                    Some(v) => &v.data,
                    None => &zeros,
                };
                // Word-granular comparison: whole 64-byte blocks compare as
                // slices (memcmp); only blocks containing raced bytes fall
                // back to byte stepping.
                let mut mismatch = None;
                'blocks: for (w, &hazy_word) in shadow.hazy.iter().enumerate() {
                    let lo = w * 64;
                    let hi = lo + 64;
                    if hazy_word == 0 {
                        compared += 64;
                        if data[lo..hi] != shadow.committed[lo..hi] {
                            mismatch = (lo..hi).find(|&b| data[b] != shadow.committed[b]);
                            break 'blocks;
                        }
                    } else {
                        let block = data[lo..hi].iter().zip(&shadow.committed[lo..hi]);
                        for (bit, (&got, &want)) in block.enumerate() {
                            if hazy_word >> bit & 1 != 0 {
                                continue;
                            }
                            compared += 1;
                            if got != want {
                                mismatch = Some(lo + bit);
                                break 'blocks;
                            }
                        }
                    }
                }
                if let Some(b) = mismatch {
                    let (got, want) = (data[b], shadow.committed[b]);
                    self.violate(format!(
                        "barrier: node {n} page {p} byte {b} reads {got:#04x} but the \
                         reference memory holds {want:#04x}"
                    ));
                }
            }
        }
        self.report.bytes_compared += compared;
    }

    /// Differential check at a barrier: the committed image must agree with
    /// the protocol-independent [`VisibleImage`] model on every byte that
    /// is neither order-sensitive (the model's mask) nor hazy (the
    /// oracle's). Any disagreement means the protocol delivered a value the
    /// program could not have produced under *any* legal ordering.
    pub fn check_visible(&mut self, image: &VisibleImage) {
        let zeros = [0u8; PAGE_SIZE];
        let mut compared = 0u64;
        let mut mismatch = None;
        'pages: for p in 0..self.num_pages.min(image.num_pages()) {
            let shadow = self.shadows[p].as_deref();
            let committed: &[u8; PAGE_SIZE] = shadow.map_or(&zeros, |s| &s.committed);
            let modeled: &[u8; PAGE_SIZE] = image.page_data(p).unwrap_or(&zeros);
            for b in 0..PAGE_SIZE {
                if image.is_sensitive(p, b) {
                    continue;
                }
                if let Some(s) = shadow {
                    if s.hazy[b / 64] >> (b % 64) & 1 == 1 {
                        continue;
                    }
                }
                compared += 1;
                if committed[b] != modeled[b] {
                    mismatch = Some((p, b, committed[b], modeled[b]));
                    break 'pages;
                }
            }
        }
        self.report.bytes_compared += compared;
        if let Some((p, b, got, want)) = mismatch {
            let iter = self.iteration;
            self.violate(format!(
                "visible-memory check (iteration {iter}): page {p} byte {b} committed \
                 {got:#04x} but the program-order model holds {want:#04x}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(page: u32, start: u16, end: u16) -> PageSpan {
        PageSpan {
            page: PageId(page),
            start,
            end,
        }
    }

    #[test]
    fn write_fetch_finalize_round_trip_is_clean() {
        let mut o = CoherenceOracle::new(2, 4, false);
        o.begin_iteration(0);
        // Node 1 writes page 0, finalizes; node 0 fetches it.
        o.on_write(1, 0, span(0, 0, 64));
        o.on_write(1, 0, span(0, 64, 128)); // adjacent: one fragment
        o.on_finalize(1, PageId(0), 128, 1, 1, true);
        o.on_fetch(0, PageId(0), 1);
        assert_eq!(o.first_violation(), None);
        assert_eq!(o.report().finalizes_checked, 1);
        assert_eq!(o.report().fetches_checked, 1);
    }

    #[test]
    fn fragment_mismatch_is_flagged() {
        let mut o = CoherenceOracle::new(1, 1, false);
        o.on_write(0, 0, span(0, 0, 8));
        o.on_write(0, 0, span(0, 100, 108));
        // Engine claims one fragment of 16 bytes; oracle merged two.
        o.on_finalize(0, PageId(0), 16, 1, 1, true);
        assert!(o.first_violation().unwrap().contains("independent merge"));
    }

    #[test]
    fn version_drift_is_flagged() {
        let mut o = CoherenceOracle::new(1, 1, false);
        o.on_fetch(0, PageId(0), 3); // directory claims v3, nothing finalized
        assert!(o.first_violation().unwrap().contains("version"));
    }

    #[test]
    fn raced_bytes_go_hazy_and_ordered_writes_recover_them() {
        let mut o = CoherenceOracle::new(2, 1, false);
        // Two nodes write the same byte range in the same interval, both
        // from base version 0: a data race.
        o.on_write(0, 0, span(0, 0, 8));
        o.on_write(1, 1, span(0, 0, 8));
        o.on_finalize(0, PageId(0), 8, 1, 1, true);
        o.on_finalize(1, PageId(0), 8, 1, 2, false);
        assert_eq!(o.first_violation(), None);
        assert_eq!(o.report().hazy_bytes, 8);
        // A writer that has seen version 2 re-writes: definite again.
        o.on_fetch(0, PageId(0), 2);
        o.on_write(0, 0, span(0, 0, 8));
        o.on_finalize(0, PageId(0), 8, 1, 3, true);
        assert_eq!(o.report().hazy_bytes, 0);
        assert_eq!(o.first_violation(), None);
    }

    #[test]
    fn single_writer_commits_eagerly() {
        let mut o = CoherenceOracle::new(2, 1, true);
        o.on_write(0, 0, span(0, 0, 16));
        o.on_fetch_sw(1, PageId(0));
        // The reader's copy equals the committed image immediately.
        let view = o.views[1].as_ref().unwrap();
        let shadow = o.shadows[0].as_ref().unwrap();
        assert_eq!(view.data[..16], shadow.committed[..16]);
        assert_eq!(o.first_violation(), None);
    }
}
