//! Distributed application locks.
//!
//! Locks serialize across the cluster: a grant to a node other than the last
//! holder pays a network transfer (and, under lazy release consistency,
//! carries the write notices that make the releaser's modifications
//! visible — the engine finalizes the releaser's lock-interval writes at
//! unlock). Waiters queue FIFO in request-processing order.

use acorr_sim::{NodeId, SimTime};
use std::collections::VecDeque;

/// State of one application lock.
#[derive(Debug, Clone, Default)]
pub struct LockState {
    /// The thread (global index) currently holding the lock.
    pub holder: Option<usize>,
    /// The node of the last holder (grants to the same node are cheap).
    pub last_node: Option<NodeId>,
    /// When the lock last became free.
    pub free_at: SimTime,
    /// Threads (global indices) waiting for the lock, FIFO.
    pub queue: VecDeque<usize>,
}

impl LockState {
    /// A fresh, free lock.
    pub fn new() -> Self {
        LockState::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_lock_is_free() {
        let l = LockState::new();
        assert_eq!(l.holder, None);
        assert!(l.queue.is_empty());
        assert_eq!(l.last_node, None);
        assert_eq!(l.free_at, SimTime::ZERO);
    }
}
