//! Per-node state: page tables and the local scheduler's bookkeeping.

use acorr_mem::{PageId, PageTable};
use acorr_sim::{NodeId, SimTime};
use std::collections::VecDeque;

/// One node of the simulated cluster: page table, local virtual time, and
/// scheduler bookkeeping.
///
/// Page state lives in an SoA [`PageTable`]: the boolean flags are packed
/// bitset masks (whole-table sweeps are word fills), and a page written
/// since its last diff holds a word-chunked dirty mask from the table's
/// pool — see `acorr_mem::page` for the field semantics.
#[derive(Debug, Clone)]
pub struct NodeState {
    /// This node's identity.
    pub id: NodeId,
    /// The node's local virtual time.
    pub time: SimTime,
    /// Per-page protocol state, struct-of-arrays.
    pub pages: PageTable,
    /// Pages twinned this interval (candidates for diff finalization).
    pub write_set: Vec<PageId>,
    /// Local threads (global thread indices) in scheduling order.
    pub threads: Vec<usize>,
    /// Ready queue of global thread indices (entries of `threads`, not
    /// positions in it).
    pub ready: VecDeque<usize>,
    /// Active-tracking pin: only this local index may run, if set.
    pub pinned: Option<usize>,
    /// The global index of the thread that ran last (for context-switch
    /// accounting).
    pub last_ran: Option<usize>,
}

impl NodeState {
    /// Creates a node whose pages are all invalid (or all owned, for the
    /// initial owner node).
    pub fn new(id: NodeId, num_pages: usize, is_initial_owner: bool) -> Self {
        NodeState {
            id,
            time: SimTime::ZERO,
            pages: PageTable::new(num_pages, is_initial_owner),
            write_set: Vec::new(),
            threads: Vec::new(),
            ready: VecDeque::new(),
            pinned: None,
            last_ran: None,
        }
    }

    /// Arms the correlation bit on every page (start of a tracking
    /// segment) — a word fill over the packed mask.
    pub fn arm_all_pages(&mut self) {
        self.pages.arm_all();
    }

    /// Clears every correlation bit (end of the tracking phase).
    pub fn disarm_all_pages(&mut self) {
        self.pages.disarm_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorr_mem::Protection;

    #[test]
    fn initial_owner_pages_are_valid() {
        let n = NodeState::new(NodeId(0), 3, true);
        assert!((0..3).all(|p| n.pages.valid(p) && n.pages.has_copy(p)));
        assert!((0..3).all(|p| n.pages.prot(p) == Protection::Read));
        let m = NodeState::new(NodeId(1), 3, false);
        assert!((0..3).all(|p| !m.pages.valid(p) && !m.pages.has_copy(p)));
        assert!((0..3).all(|p| m.pages.prot(p) == Protection::None));
    }

    #[test]
    fn arm_and_disarm_sweep_all_pages() {
        let mut n = NodeState::new(NodeId(0), 5, false);
        n.arm_all_pages();
        assert!((0..5).all(|p| n.pages.corr_armed(p)));
        n.disarm_all_pages();
        assert!((0..5).all(|p| !n.pages.corr_armed(p)));
    }
}
