//! The program model.
//!
//! Applications run against the DSM through a CVM-like API: they read and
//! write ranges of a flat shared address space and synchronize with barriers
//! and locks. A [`Program`] describes, for every `(thread, iteration)` pair,
//! the [`Op`] sequence that thread executes — the same information a real
//! application would generate by running, but in replayable form so the
//! engine, the tracking mechanisms and the experiments are deterministic.
//!
//! Correlation tracking observes *which pages a thread touches between
//! synchronizations*; replaying each application's data layout, partition and
//! communication pattern therefore reproduces exactly the signal the paper
//! measures (see DESIGN.md §1).

use std::fmt;

/// Identifies one application lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LockId(pub u16);

impl LockId {
    /// The lock's index, for use with slices.
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// One step of a thread's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Load `len` bytes starting at shared address `addr`.
    Read {
        /// Starting shared address.
        addr: u64,
        /// Bytes read.
        len: u64,
    },
    /// Store `len` bytes starting at shared address `addr`.
    Write {
        /// Starting shared address.
        addr: u64,
        /// Bytes written.
        len: u64,
    },
    /// Spin the CPU for `ns` nanoseconds of local computation.
    Compute {
        /// Nanoseconds of work.
        ns: u64,
    },
    /// Wait for every thread in the application.
    Barrier,
    /// Acquire an application lock.
    Lock(LockId),
    /// Release an application lock.
    Unlock(LockId),
}

impl Op {
    /// Convenience constructor for a read.
    pub const fn read(addr: u64, len: u64) -> Op {
        Op::Read { addr, len }
    }

    /// Convenience constructor for a write.
    pub const fn write(addr: u64, len: u64) -> Op {
        Op::Write { addr, len }
    }

    /// Convenience constructor for compute time.
    pub const fn compute(ns: u64) -> Op {
        Op::Compute { ns }
    }
}

/// A deterministic multi-threaded DSM application.
///
/// Implementations describe the shared-memory footprint and, per thread and
/// iteration, the operation script. Scripts must be *barrier-aligned*: every
/// thread's script for a given iteration must contain the same number of
/// [`Op::Barrier`]s (the engine appends an implicit barrier at the end of
/// each iteration). Lock/unlock pairs must be properly matched within one
/// iteration.
///
/// Implementations must be `Send + Sync`: an experiment driver builds each
/// program on the calling thread (a `Box<dyn Program>` included) and moves
/// it to a worker of the deterministic pool, whose closures run behind
/// shared references. A program is an immutable script read through
/// `&self`, so this costs no synchronization.
pub trait Program: Send + Sync {
    /// Human-readable application name (e.g. `"SOR"`).
    fn name(&self) -> &str;

    /// Size of the shared address space in bytes. Accesses beyond this are
    /// rejected by the engine.
    fn shared_bytes(&self) -> u64;

    /// Total number of threads the program is configured for.
    fn num_threads(&self) -> usize;

    /// Number of application locks (lock ids must be `< num_locks`).
    fn num_locks(&self) -> usize {
        0
    }

    /// Default number of iterations for a full run.
    fn default_iterations(&self) -> usize {
        10
    }

    /// The operation script of `thread` during `iteration`.
    fn script(&self, thread: usize, iteration: usize) -> Vec<Op>;
}

impl<P: Program + ?Sized> Program for &P {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn shared_bytes(&self) -> u64 {
        (**self).shared_bytes()
    }
    fn num_threads(&self) -> usize {
        (**self).num_threads()
    }
    fn num_locks(&self) -> usize {
        (**self).num_locks()
    }
    fn default_iterations(&self) -> usize {
        (**self).default_iterations()
    }
    fn script(&self, thread: usize, iteration: usize) -> Vec<Op> {
        (**self).script(thread, iteration)
    }
}

impl<P: Program + ?Sized> Program for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn shared_bytes(&self) -> u64 {
        (**self).shared_bytes()
    }
    fn num_threads(&self) -> usize {
        (**self).num_threads()
    }
    fn num_locks(&self) -> usize {
        (**self).num_locks()
    }
    fn default_iterations(&self) -> usize {
        (**self).default_iterations()
    }
    fn script(&self, thread: usize, iteration: usize) -> Vec<Op> {
        (**self).script(thread, iteration)
    }
}

/// Problems detected while validating a script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptError {
    /// Threads disagree on barrier counts within one iteration.
    BarrierMismatch {
        /// The iteration in question.
        iteration: usize,
        /// Barrier count of thread 0.
        expected: usize,
        /// The offending thread.
        thread: usize,
        /// That thread's barrier count.
        got: usize,
    },
    /// An access referenced memory beyond [`Program::shared_bytes`].
    OutOfBounds {
        /// The offending thread.
        thread: usize,
        /// Access address.
        addr: u64,
        /// Access length.
        len: u64,
        /// The shared-space size.
        shared_bytes: u64,
    },
    /// An `Unlock` without a matching `Lock`, or vice versa.
    LockMismatch {
        /// The offending thread.
        thread: usize,
        /// The lock involved.
        lock: LockId,
    },
    /// A lock id outside `0..num_locks`.
    UnknownLock {
        /// The offending thread.
        thread: usize,
        /// The lock involved.
        lock: LockId,
    },
    /// A lock held across a barrier — illegal because active tracking runs
    /// each thread barrier-to-barrier atomically (§4.2), and a held lock
    /// would deadlock the pinned scheduler.
    LockAcrossBarrier {
        /// The offending thread.
        thread: usize,
        /// The lock involved.
        lock: LockId,
    },
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptError::BarrierMismatch {
                iteration,
                expected,
                thread,
                got,
            } => write!(
                f,
                "iteration {iteration}: thread {thread} reaches {got} barriers, thread 0 reaches {expected}"
            ),
            ScriptError::OutOfBounds {
                thread,
                addr,
                len,
                shared_bytes,
            } => write!(
                f,
                "thread {thread}: access [{addr}, {}) beyond shared space of {shared_bytes} bytes",
                addr + len
            ),
            ScriptError::LockMismatch { thread, lock } => {
                write!(f, "thread {thread}: unbalanced lock/unlock on {lock}")
            }
            ScriptError::UnknownLock { thread, lock } => {
                write!(f, "thread {thread}: lock id {lock} out of range")
            }
            ScriptError::LockAcrossBarrier { thread, lock } => {
                write!(f, "thread {thread}: holds {lock} across a barrier")
            }
        }
    }
}

impl std::error::Error for ScriptError {}

/// Validates one iteration's scripts across all threads: barrier alignment,
/// bounds, lock pairing.
///
/// # Errors
///
/// Returns the first [`ScriptError`] found.
pub fn validate_iteration<P: Program + ?Sized>(
    program: &P,
    iteration: usize,
) -> Result<(), ScriptError> {
    let mut checker = ScriptChecker::new(program, iteration);
    (0..program.num_threads())
        .try_for_each(|thread| checker.check(thread, &program.script(thread, iteration)))
}

/// Checks one iteration's built scripts, fed in thread order: each op
/// against the program's bounds and locks, then each thread's barrier
/// count against thread 0's. The engine checks the scripts it loads with
/// it, so each script is built once per iteration.
pub(crate) struct ScriptChecker {
    iteration: usize,
    shared: u64,
    locks: usize,
    expected_barriers: Option<usize>,
    held: Vec<LockId>,
}

impl ScriptChecker {
    pub(crate) fn new<P: Program + ?Sized>(program: &P, iteration: usize) -> Self {
        ScriptChecker {
            iteration,
            shared: program.shared_bytes(),
            locks: program.num_locks(),
            expected_barriers: None,
            held: Vec::new(),
        }
    }

    /// Checks `thread`'s script; threads must come in order from 0.
    pub(crate) fn check(&mut self, thread: usize, script: &[Op]) -> Result<(), ScriptError> {
        let mut barriers = 0usize;
        self.held.clear();
        for op in script {
            match *op {
                Op::Barrier => {
                    if let Some(&lock) = self.held.last() {
                        return Err(ScriptError::LockAcrossBarrier { thread, lock });
                    }
                    barriers += 1;
                }
                Op::Read { addr, len } | Op::Write { addr, len } => {
                    if len > 0 && addr.checked_add(len).is_none_or(|end| end > self.shared) {
                        return Err(ScriptError::OutOfBounds {
                            thread,
                            addr,
                            len,
                            shared_bytes: self.shared,
                        });
                    }
                }
                Op::Lock(l) => {
                    if l.idx() >= self.locks {
                        return Err(ScriptError::UnknownLock { thread, lock: l });
                    }
                    self.held.push(l);
                }
                Op::Unlock(l) => {
                    if self.held.pop() != Some(l) {
                        return Err(ScriptError::LockMismatch { thread, lock: l });
                    }
                }
                Op::Compute { .. } => {}
            }
        }
        if let Some(l) = self.held.pop() {
            return Err(ScriptError::LockMismatch { thread, lock: l });
        }
        match self.expected_barriers {
            None => self.expected_barriers = Some(barriers),
            Some(expected) if expected != barriers => {
                return Err(ScriptError::BarrierMismatch {
                    iteration: self.iteration,
                    expected,
                    thread,
                    got: barriers,
                });
            }
            Some(_) => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny two-thread program for validation tests.
    struct Toy {
        scripts: Vec<Vec<Op>>,
        locks: usize,
    }

    impl Program for Toy {
        fn name(&self) -> &str {
            "toy"
        }
        fn shared_bytes(&self) -> u64 {
            8192
        }
        fn num_threads(&self) -> usize {
            self.scripts.len()
        }
        fn num_locks(&self) -> usize {
            self.locks
        }
        fn script(&self, thread: usize, _iteration: usize) -> Vec<Op> {
            self.scripts[thread].clone()
        }
    }

    #[test]
    fn aligned_scripts_validate() {
        let toy = Toy {
            scripts: vec![
                vec![Op::read(0, 100), Op::Barrier, Op::write(4096, 10)],
                vec![Op::compute(50), Op::Barrier],
            ],
            locks: 0,
        };
        assert!(validate_iteration(&toy, 0).is_ok());
    }

    #[test]
    fn barrier_mismatch_detected() {
        let toy = Toy {
            scripts: vec![vec![Op::Barrier], vec![]],
            locks: 0,
        };
        assert_eq!(
            validate_iteration(&toy, 0),
            Err(ScriptError::BarrierMismatch {
                iteration: 0,
                expected: 1,
                thread: 1,
                got: 0
            })
        );
    }

    #[test]
    fn out_of_bounds_detected() {
        let toy = Toy {
            scripts: vec![vec![Op::read(8190, 10)]],
            locks: 0,
        };
        assert!(matches!(
            validate_iteration(&toy, 0),
            Err(ScriptError::OutOfBounds { thread: 0, .. })
        ));
    }

    #[test]
    fn overflowing_access_detected() {
        let toy = Toy {
            scripts: vec![vec![Op::read(u64::MAX - 1, 10)]],
            locks: 0,
        };
        assert!(matches!(
            validate_iteration(&toy, 0),
            Err(ScriptError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn zero_length_access_at_end_is_fine() {
        let toy = Toy {
            scripts: vec![vec![Op::read(8192, 0)]],
            locks: 0,
        };
        assert!(validate_iteration(&toy, 0).is_ok());
    }

    #[test]
    fn lock_pairing_enforced() {
        let l = LockId(0);
        let unmatched_unlock = Toy {
            scripts: vec![vec![Op::Unlock(l)]],
            locks: 1,
        };
        assert!(matches!(
            validate_iteration(&unmatched_unlock, 0),
            Err(ScriptError::LockMismatch { .. })
        ));
        let dangling_lock = Toy {
            scripts: vec![vec![Op::Lock(l)]],
            locks: 1,
        };
        assert!(matches!(
            validate_iteration(&dangling_lock, 0),
            Err(ScriptError::LockMismatch { .. })
        ));
        let nested_wrong_order = Toy {
            scripts: vec![vec![
                Op::Lock(LockId(0)),
                Op::Lock(LockId(0)),
                Op::Unlock(LockId(0)),
                Op::Unlock(LockId(0)),
            ]],
            locks: 1,
        };
        assert!(validate_iteration(&nested_wrong_order, 0).is_ok());
    }

    #[test]
    fn unknown_lock_detected() {
        let toy = Toy {
            scripts: vec![vec![Op::Lock(LockId(3)), Op::Unlock(LockId(3))]],
            locks: 1,
        };
        assert_eq!(
            validate_iteration(&toy, 0),
            Err(ScriptError::UnknownLock {
                thread: 0,
                lock: LockId(3)
            })
        );
    }

    #[test]
    fn trait_objects_delegate() {
        let toy = Toy {
            scripts: vec![vec![Op::Barrier]],
            locks: 0,
        };
        let boxed: Box<dyn Program> = Box::new(toy);
        assert_eq!(boxed.name(), "toy");
        assert_eq!(boxed.num_threads(), 1);
        assert_eq!(boxed.script(0, 0), vec![Op::Barrier]);
        assert!(validate_iteration(&boxed, 0).is_ok());
    }

    #[test]
    fn error_messages_are_informative() {
        let e = ScriptError::BarrierMismatch {
            iteration: 2,
            expected: 3,
            thread: 7,
            got: 1,
        };
        assert!(e.to_string().contains("thread 7"));
    }
}
