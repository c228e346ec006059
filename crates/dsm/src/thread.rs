//! Per-thread execution state.

use crate::program::{LockId, Op};
use acorr_mem::{AccessKind, PageId, PageSpan};
use acorr_sim::{NodeId, SimTime};

/// What a thread is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadStatus {
    /// Runnable.
    Ready,
    /// Waiting for a remote fetch or a lock grant; `wake_at` says when
    /// ([`SimTime::MAX`] while queued on a held lock).
    Blocked,
    /// Parked at a barrier.
    AtBarrier,
    /// Finished this iteration's script.
    Done,
}

/// An access op in progress, split into page spans; survives across blocks
/// so a thread resumes mid-op after a remote fetch completes.
#[derive(Debug, Clone)]
pub struct OngoingAccess {
    /// Read or write.
    pub kind: AccessKind,
    /// The per-page spans of the access.
    pub spans: Vec<PageSpan>,
    /// Index of the next span to process.
    pub next: usize,
}

/// Execution state of one application thread.
#[derive(Debug, Clone)]
pub struct ThreadState {
    /// Node currently hosting the thread.
    pub node: NodeId,
    /// Current status.
    pub status: ThreadStatus,
    /// When a blocked thread becomes runnable.
    pub wake_at: SimTime,
    /// This iteration's script.
    pub script: Vec<Op>,
    /// Program counter into `script`.
    pub pc: usize,
    /// Access op in progress, if any.
    pub ongoing: Option<OngoingAccess>,
    /// Locks currently held (innermost last).
    pub held_locks: Vec<LockId>,
    /// Pages written while holding at least one lock (finalized at unlock).
    pub lock_writes: Vec<PageId>,
}

impl ThreadState {
    /// A fresh thread on `node` with an empty script.
    pub fn new(node: NodeId) -> Self {
        ThreadState {
            node,
            status: ThreadStatus::Done,
            wake_at: SimTime::ZERO,
            script: Vec::new(),
            pc: 0,
            ongoing: None,
            held_locks: Vec::new(),
            lock_writes: Vec::new(),
        }
    }

    /// Loads a new iteration's script and resets execution state.
    pub fn load(&mut self, script: Vec<Op>) {
        self.script = script;
        self.pc = 0;
        self.ongoing = None;
        self.status = ThreadStatus::Ready;
        self.wake_at = SimTime::ZERO;
        debug_assert!(self.held_locks.is_empty(), "locks held across iterations");
        self.lock_writes.clear();
    }

    /// True when the script is exhausted.
    pub fn finished(&self) -> bool {
        self.pc >= self.script.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_resets_state() {
        let mut t = ThreadState::new(NodeId(2));
        t.pc = 5;
        t.status = ThreadStatus::Done;
        t.load(vec![Op::Barrier]);
        assert_eq!(t.pc, 0);
        assert_eq!(t.status, ThreadStatus::Ready);
        assert_eq!(t.script.get(t.pc), Some(&Op::Barrier));
        assert!(!t.finished());
        t.pc = 1;
        assert!(t.finished());
        assert_eq!(t.script.get(t.pc), None);
    }
}
