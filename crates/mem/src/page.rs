//! Pages, address arithmetic, and the SoA page table.
//!
//! All consistency and tracking state is kept per 4 KiB page, matching the
//! x86 page size of the paper's testbed. Applications address shared memory
//! with flat byte addresses; [`span_pages`] splits a byte range into the
//! per-page subranges the engine needs for fault checks and dirty-range
//! recording. [`PageTable`] holds one node's per-page protocol state in
//! struct-of-arrays layout: the boolean flags live in [`FixedBitset`]
//! masks (so whole-table sweeps are word fills), and the dirty state is a
//! 4-byte slot per page into a pool holding a [`DirtyMask`] only for each
//! page written since its last take.

use crate::bitset::FixedBitset;
use crate::prot::Protection;
use crate::ranges::DirtyMask;
use std::fmt;

/// Size of a virtual-memory page, in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Identifies one page of the shared address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(pub u32);

impl PageId {
    /// The page's index, for use with slices.
    pub const fn idx(self) -> usize {
        self.0 as usize
    }

    /// The first byte address of this page.
    pub const fn base_addr(self) -> u64 {
        self.0 as u64 * PAGE_SIZE as u64
    }

    /// The page id widened to `u64`, the width observability artifacts
    /// (JSONL members, trace args, analysis CSV columns) carry page ids at.
    pub const fn as_u64(self) -> u64 {
        self.0 as u64
    }

    /// Rebuilds a page id from its artifact-side `u64` encoding, when it
    /// fits.
    pub fn from_u64(raw: u64) -> Option<PageId> {
        u32::try_from(raw).ok().map(PageId)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The page containing byte address `addr`.
pub const fn page_of(addr: u64) -> PageId {
    PageId((addr / PAGE_SIZE as u64) as u32)
}

/// One page's slice of a byte range: the page plus the in-page byte range
/// `[start, end)` that the access covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageSpan {
    /// The page touched.
    pub page: PageId,
    /// First byte within the page (0-4095).
    pub start: u16,
    /// One past the last byte within the page (1-4096).
    pub end: u16,
}

impl PageSpan {
    /// Number of bytes of the access falling on this page.
    pub const fn len(&self) -> u16 {
        self.end - self.start
    }

    /// Whether the span is empty (never produced by [`span_pages`]).
    pub const fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Splits the byte range `[addr, addr + len)` into per-page spans, in
/// ascending page order. A zero-length range yields nothing.
///
/// ```
/// use acorr_mem::{span_pages, PAGE_SIZE};
/// let spans: Vec<_> = span_pages(4090, 10).collect();
/// assert_eq!(spans.len(), 2);
/// assert_eq!(spans[0].page.idx(), 0);
/// assert_eq!((spans[0].start, spans[0].end), (4090, 4096));
/// assert_eq!(spans[1].page.idx(), 1);
/// assert_eq!((spans[1].start, spans[1].end), (0, 4));
/// assert_eq!(PAGE_SIZE, 4096);
/// ```
pub fn span_pages(addr: u64, len: u64) -> impl Iterator<Item = PageSpan> {
    let end = addr + len;
    let mut cur = addr;
    std::iter::from_fn(move || {
        if cur >= end {
            return None;
        }
        let page = page_of(cur);
        let page_end = page.base_addr() + PAGE_SIZE as u64;
        let stop = end.min(page_end);
        let span = PageSpan {
            page,
            start: (cur - page.base_addr()) as u16,
            end: (stop - page.base_addr()) as u16,
        };
        cur = stop;
        Some(span)
    })
}

/// Number of pages needed to hold `bytes` bytes.
pub const fn pages_for(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE as u64)
}

/// One node's per-page protocol state, struct-of-arrays.
///
/// The previous array-of-structs layout paid a pointer-chasing `Vec` of
/// per-page records; here each field is its own dense array, and the four
/// boolean flags (`valid`, `has_copy`, `twin`, `corr_armed`) are packed
/// bitsets — arming every correlation bit, the per-thread-switch sweep of
/// active tracking, is a `num_pages / 64` word fill.
///
/// Field semantics (per page):
/// * **valid** — the local copy reflects the latest version it applied and
///   no newer version exists that it is missing.
/// * **has_copy** — the node holds *some* image (possibly stale); governs
///   whether a miss can be patched with diffs or needs the full page.
/// * **prot** — current virtual-memory protection.
/// * **applied_version** — the page version the local copy reflects.
/// * **twin** — a twin exists: the page has been written this interval.
/// * **dirty** — bytes written this interval (the future diff): the slot
///   of the page's mask in the table's pool, or none while the page is
///   clean. A page takes a slot on its first non-empty write and gives it
///   back when [`PageTable::take_dirty`] sizes its diff, so the pool holds
///   no more masks than the most pages dirty at once, not one per page.
/// * **corr_armed** — correlation bit armed by active tracking; the next
///   access by the pinned thread takes a correlation fault.
#[derive(Debug, Clone)]
pub struct PageTable {
    valid: FixedBitset,
    has_copy: FixedBitset,
    twin: FixedBitset,
    corr_armed: FixedBitset,
    prot: Vec<Protection>,
    applied_version: Vec<u64>,
    /// Each page's slot in `masks`, or [`CLEAN`].
    dirty: Vec<u32>,
    /// The mask pool; a free slot's mask is clean.
    masks: Vec<DirtyMask>,
    /// Slots of `masks` no page holds.
    free: Vec<u32>,
}

/// The `dirty` slot of a page with nothing written since its last take.
const CLEAN: u32 = u32::MAX;

impl PageTable {
    /// Creates a table of `num_pages` pages: all invalid, or (for the
    /// initial owner node) all valid read-protected copies at version 0.
    pub fn new(num_pages: usize, is_initial_owner: bool) -> Self {
        let mut table = PageTable {
            valid: FixedBitset::new(num_pages),
            has_copy: FixedBitset::new(num_pages),
            twin: FixedBitset::new(num_pages),
            corr_armed: FixedBitset::new(num_pages),
            prot: vec![Protection::None; num_pages],
            applied_version: vec![0; num_pages],
            dirty: vec![CLEAN; num_pages],
            masks: Vec::new(),
            free: Vec::new(),
        };
        if is_initial_owner {
            table.valid.insert_all();
            table.has_copy.insert_all();
            table.prot.fill(Protection::Read);
        }
        table
    }

    /// Number of pages tracked.
    pub fn len(&self) -> usize {
        self.prot.len()
    }

    /// True for a zero-page table.
    pub fn is_empty(&self) -> bool {
        self.prot.is_empty()
    }

    /// Whether page `p`'s local copy is current.
    pub fn valid(&self, p: usize) -> bool {
        self.valid.contains(p)
    }

    /// Sets or clears page `p`'s validity.
    pub fn set_valid(&mut self, p: usize, v: bool) {
        if v {
            self.valid.insert(p);
        } else {
            self.valid.remove(p);
        }
    }

    /// Whether the node holds any (possibly stale) image of page `p`.
    pub fn has_copy(&self, p: usize) -> bool {
        self.has_copy.contains(p)
    }

    /// Records that the node now holds an image of page `p`.
    pub fn set_has_copy(&mut self, p: usize, v: bool) {
        if v {
            self.has_copy.insert(p);
        } else {
            self.has_copy.remove(p);
        }
    }

    /// Whether page `p` has a twin this interval.
    pub fn twin(&self, p: usize) -> bool {
        self.twin.contains(p)
    }

    /// Sets or clears page `p`'s twin flag.
    pub fn set_twin(&mut self, p: usize, v: bool) {
        if v {
            self.twin.insert(p);
        } else {
            self.twin.remove(p);
        }
    }

    /// Page `p`'s current protection.
    pub fn prot(&self, p: usize) -> Protection {
        self.prot[p]
    }

    /// Sets page `p`'s protection.
    pub fn set_prot(&mut self, p: usize, prot: Protection) {
        self.prot[p] = prot;
    }

    /// The version page `p`'s local copy reflects.
    pub fn applied_version(&self, p: usize) -> u64 {
        self.applied_version[p]
    }

    /// Records the version page `p`'s copy now reflects.
    pub fn set_applied_version(&mut self, p: usize, v: u64) {
        self.applied_version[p] = v;
    }

    /// Records bytes `[start, end)` of page `p` as written. The page's
    /// first non-empty span takes a mask from the pool; an empty span
    /// takes none.
    ///
    /// # Panics
    ///
    /// Panics as [`DirtyMask::insert`] does on an inverted span or one
    /// past the page.
    pub fn mark_dirty(&mut self, p: usize, start: u16, end: u16) {
        let slot = match self.dirty[p] {
            CLEAN if start == end => return,
            CLEAN => {
                let slot = self.free.pop().unwrap_or_else(|| {
                    self.masks.push(DirtyMask::new());
                    (self.masks.len() - 1) as u32
                });
                self.dirty[p] = slot;
                slot
            }
            slot => slot,
        };
        self.masks[slot as usize].insert(start, end);
    }

    /// Whether any byte of page `p` was written since its last take.
    pub fn is_dirty(&self, p: usize) -> bool {
        self.dirty[p] != CLEAN
    }

    /// Page `p`'s dirty bytes and dirty runs, as
    /// [`DirtyMask::take_extent`] counts them, leaving the page clean and
    /// its mask back in the pool. A clean page answers `(0, 0)`.
    pub fn take_dirty(&mut self, p: usize) -> (u64, usize) {
        match std::mem::replace(&mut self.dirty[p], CLEAN) {
            CLEAN => (0, 0),
            slot => {
                self.free.push(slot);
                self.masks[slot as usize].take_extent()
            }
        }
    }

    /// Whether page `p`'s correlation bit is armed.
    pub fn corr_armed(&self, p: usize) -> bool {
        self.corr_armed.contains(p)
    }

    /// Clears page `p`'s correlation bit (the fault was taken).
    pub fn disarm(&mut self, p: usize) {
        self.corr_armed.remove(p);
    }

    /// Arms the correlation bit on every page (start of a tracking
    /// segment) — a word fill.
    pub fn arm_all(&mut self) {
        self.corr_armed.insert_all();
    }

    /// Clears every correlation bit (end of the tracking phase).
    pub fn disarm_all(&mut self) {
        self.corr_armed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranges::RangeSet;
    use acorr_sim::{forall, DetRng};

    #[test]
    fn page_of_boundaries() {
        assert_eq!(page_of(0), PageId(0));
        assert_eq!(page_of(4095), PageId(0));
        assert_eq!(page_of(4096), PageId(1));
        assert_eq!(PageId(3).base_addr(), 3 * 4096);
    }

    #[test]
    fn span_within_one_page() {
        let spans: Vec<_> = span_pages(100, 50).collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].page, PageId(0));
        assert_eq!(spans[0].start, 100);
        assert_eq!(spans[0].end, 150);
        assert_eq!(spans[0].len(), 50);
        assert!(!spans[0].is_empty());
    }

    #[test]
    fn span_exact_page() {
        let spans: Vec<_> = span_pages(4096, 4096).collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].page, PageId(1));
        assert_eq!((spans[0].start, spans[0].end), (0, 4096));
    }

    #[test]
    fn span_many_pages() {
        let spans: Vec<_> = span_pages(10, 3 * 4096).collect();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].page, PageId(0));
        assert_eq!(spans[3].page, PageId(3));
        let total: u64 = spans.iter().map(|s| s.len() as u64).sum();
        assert_eq!(total, 3 * 4096);
        // Spans are contiguous across page boundaries.
        assert_eq!(spans[0].end, 4096);
        assert_eq!(spans[1].start, 0);
    }

    #[test]
    fn empty_span_yields_nothing() {
        assert_eq!(span_pages(500, 0).count(), 0);
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(4096), 1);
        assert_eq!(pages_for(4097), 2);
        assert_eq!(pages_for(16 * 1024 * 1024), 4096);
    }

    #[test]
    fn page_table_initial_owner_state() {
        let t = PageTable::new(130, true);
        assert_eq!(t.len(), 130);
        assert!(!t.is_empty());
        assert_eq!(t.valid.count(), 130);
        assert!((0..130).all(|p| t.valid(p) && t.has_copy(p)));
        assert!((0..130).all(|p| t.prot(p) == Protection::Read));
        assert!((0..130).all(|p| !t.twin(p) && !t.corr_armed(p)));
        let u = PageTable::new(130, false);
        assert_eq!(u.valid.count(), 0);
        assert!((0..130).all(|p| !u.valid(p) && !u.has_copy(p)));
        assert!((0..130).all(|p| u.prot(p) == Protection::None));
    }

    #[test]
    fn page_table_flags_round_trip() {
        let mut t = PageTable::new(70, false);
        t.set_valid(69, true);
        t.set_has_copy(69, true);
        t.set_twin(69, true);
        t.set_prot(69, Protection::ReadWrite);
        t.set_applied_version(69, 7);
        t.mark_dirty(69, 100, 200);
        assert!(t.valid(69) && t.has_copy(69) && t.twin(69) && t.is_dirty(69));
        assert_eq!(t.prot(69), Protection::ReadWrite);
        assert_eq!(t.applied_version(69), 7);
        assert_eq!(t.take_dirty(69), (100, 1));
        assert!(!t.is_dirty(69));
        assert_eq!(t.valid.count(), 1);
        assert_eq!(
            t.prot
                .iter()
                .filter(|&&p| p == Protection::ReadWrite)
                .count(),
            1
        );
        t.set_valid(69, false);
        t.set_twin(69, false);
        assert!(!t.valid(69) && !t.twin(69));
    }

    #[test]
    fn page_table_arm_sweeps_are_word_fills() {
        let mut t = PageTable::new(129, false);
        assert!(t.corr_armed.is_empty());
        t.arm_all();
        assert!(!t.corr_armed.is_empty());
        assert!((0..129).all(|p| t.corr_armed(p)));
        t.disarm(64);
        assert!(!t.corr_armed(64) && t.corr_armed(65));
        t.disarm_all();
        assert!(t.corr_armed.is_empty());
    }

    #[derive(Debug, Clone, Copy)]
    enum DirtyOp {
        Mark(usize, u16, u16),
        Take(usize),
    }

    /// A table of 1–130 pages and up to 399 marks (a quarter of them
    /// empty spans) and takes on it.
    fn dirty_ops(rng: &mut DetRng) -> (usize, Vec<DirtyOp>) {
        let pages = 1 + rng.index(130);
        let ops = (0..rng.index(400))
            .map(|_| {
                let p = rng.index(pages);
                let (a, b) = (rng.next_below(4097) as u16, rng.next_below(4097) as u16);
                match rng.index(4) {
                    0 => DirtyOp::Take(p),
                    1 => DirtyOp::Mark(p, a, a),
                    _ => DirtyOp::Mark(p, a.min(b), a.max(b)),
                }
            })
            .collect();
        (pages, ops)
    }

    /// The slot pool answers as a dense reference with one range set per
    /// page, and holds exactly as many masks as the most pages dirty at
    /// once.
    #[test]
    fn pooled_dirty_masks_match_a_dense_reference() {
        forall(256, 0, dirty_ops, |(pages, ops)| {
            let mut table = PageTable::new(*pages, false);
            let mut reference = vec![RangeSet::new(); *pages];
            let mut most_dirty = 0;
            let take = |table: &mut PageTable, set: &mut RangeSet, p| {
                let want = (set.total_len(), set.fragment_count());
                assert_eq!(table.take_dirty(p), want, "take of page {p} holding {set}");
                set.clear();
            };
            for &op in ops {
                match op {
                    DirtyOp::Mark(p, start, end) => {
                        table.mark_dirty(p, start, end);
                        reference[p].insert(start, end);
                    }
                    DirtyOp::Take(p) => take(&mut table, &mut reference[p], p),
                }
                let dirty = reference.iter().filter(|set| !set.is_empty()).count();
                most_dirty = most_dirty.max(dirty);
                for (p, set) in reference.iter().enumerate() {
                    assert_eq!(table.is_dirty(p), !set.is_empty(), "page {p} after {op:?}");
                }
                assert_eq!(table.masks.len(), most_dirty, "pool after {op:?}");
                assert!(table
                    .free
                    .iter()
                    .all(|&s| table.masks[s as usize].is_empty()));
            }
            for (p, set) in reference.iter_mut().enumerate() {
                take(&mut table, set, p);
                assert_eq!(table.take_dirty(p), (0, 0), "second take of page {p}");
            }
            assert_eq!(table.free.len(), table.masks.len());
        });
    }
}
