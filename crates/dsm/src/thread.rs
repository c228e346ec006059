//! Per-thread execution state.

use crate::program::{LockId, Op};
use acorr_mem::PageId;
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

/// Execution state of one application thread.
#[derive(Debug, Clone)]
pub struct ThreadState {
    /// Node currently hosting the thread.
    pub node: NodeId,
    /// Current status.
    pub status: ThreadStatus,
    /// When a blocked thread becomes runnable.
    pub wake_at: SimTime,
    /// This iteration's script. The buffer keeps its capacity across
    /// iterations, so loading a script allocates nothing once it has held
    /// the longest one.
    pub script: Vec<Op>,
    /// Program counter into `script`.
    pub pc: usize,
    /// Bytes of the access op at `pc` already performed: a thread blocked
    /// on a remote fetch resumes the op at this offset.
    pub done: u64,
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
            done: 0,
            held_locks: Vec::new(),
            lock_writes: Vec::new(),
        }
    }

    /// Copies a new iteration's script into the kept buffer, followed by
    /// the implicit end-of-iteration barrier, and resets execution state.
    pub fn load(&mut self, script: &[Op]) {
        self.script.clear();
        self.script.reserve_exact(script.len() + 1);
        self.script.extend_from_slice(script);
        self.script.push(Op::Barrier);
        self.pc = 0;
        self.done = 0;
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
        t.done = 7;
        t.load(&[]);
        assert_eq!((t.pc, t.done), (0, 0));
        assert_eq!(t.status, ThreadStatus::Ready);
        assert_eq!(t.script.get(t.pc), Some(&Op::Barrier));
        assert!(!t.finished());
        t.pc = 1;
        assert!(t.finished());
        assert_eq!(t.script.get(t.pc), None);
        // A shorter script reuses the buffer and replaces its contents.
        t.load(&[Op::compute(1), Op::compute(2)]);
        let capacity = t.script.capacity();
        t.load(&[Op::compute(3)]);
        assert_eq!(t.script, [Op::compute(3), Op::Barrier]);
        assert_eq!(t.script.capacity(), capacity);
    }
}
