//! Barnes — the SPLASH-2 Barnes-Hut N-body simulation.
//!
//! 8192 bodies (Table 1: 251 shared pages) in three phases per iteration:
//! a lock-protected octree build, a force-computation phase in which every
//! thread traverses the shared tree and reads many other threads' bodies
//! (near neighbours fully, the rest through a deterministic sample standing
//! in for the tree-guided partial traversal), and a local update phase with
//! a lock-protected global reduction.
//!
//! The correlation map this produces — a strong diagonal over a broad
//! shared background — is largely insensitive to the thread count, as the
//! paper observes in Table 3.

use crate::common::block_range;
use acorr_dsm::{LockId, Op, Program};
use acorr_mem::SharedLayout;
use acorr_sim::DetRng;

/// Bodies in the paper input.
pub(crate) const PAPER_BODIES: usize = 8192;
/// Bytes per body record (mass, position, velocity, acceleration, links).
const BODY_BYTES: u64 = 120;
/// Pages of shared octree cells.
const TREE_BYTES: u64 = 10 * 4096;
const LOCKS: usize = 32;
/// Fraction (out of 256) of far body pages sampled during force
/// computation.
const SAMPLE_DENSITY: u64 = 80;
/// Calibrated toward the paper's ≈2.2 s 64-thread iteration.
const FORCE_NS_PER_BODY: u64 = 2_000_000;

/// Barnes-Hut over `bodies` bodies.
#[derive(Debug, Clone)]
pub struct Barnes {
    bodies: usize,
    threads: usize,
    bodies_base: u64,
    tree_base: u64,
    globals_base: u64,
    shared_bytes: u64,
}

impl Barnes {
    /// Creates an instance with an explicit body count.
    ///
    /// # Panics
    ///
    /// Panics if `bodies` or `threads` is zero, or `threads > bodies`.
    pub fn new(bodies: usize, threads: usize) -> Self {
        assert!(bodies > 0 && threads > 0, "degenerate Barnes");
        assert!(threads <= bodies, "more threads than bodies");
        let mut layout = SharedLayout::new();
        let b = layout.alloc("bodies", bodies as u64 * BODY_BYTES);
        let t = layout.alloc("tree", TREE_BYTES);
        let g = layout.alloc("globals", 256);
        Barnes {
            bodies,
            threads,
            bodies_base: b.base(),
            tree_base: t.base(),
            globals_base: g.base(),
            shared_bytes: layout.total_bytes(),
        }
    }

    /// The paper's input: 8192 bodies.
    pub fn paper(threads: usize) -> Self {
        Barnes::new(PAPER_BODIES, threads)
    }

    fn body_addr(&self, body: usize) -> u64 {
        self.bodies_base + body as u64 * BODY_BYTES
    }

    fn block_ops_for(&self, thread: usize) -> (u64, u64) {
        let own = block_range(self.bodies, self.threads, thread);
        (self.body_addr(own.start), own.len() as u64 * BODY_BYTES)
    }
}

impl Program for Barnes {
    fn name(&self) -> &str {
        "Barnes"
    }

    fn shared_bytes(&self) -> u64 {
        self.shared_bytes
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn num_locks(&self) -> usize {
        LOCKS
    }

    fn default_iterations(&self) -> usize {
        15
    }

    fn script(&self, thread: usize, _iteration: usize) -> Vec<Op> {
        let (own_addr, own_bytes) = self.block_ops_for(thread);
        let own = block_range(self.bodies, self.threads, thread);
        let mut ops = Vec::new();

        // Phase 1: tree build. Each thread inserts its bodies under a
        // per-subtree lock, reading and writing shared cell pages.
        ops.push(Op::read(own_addr, own_bytes));
        let lock = LockId((thread % LOCKS) as u16);
        ops.push(Op::Lock(lock));
        ops.push(Op::read(self.tree_base, TREE_BYTES));
        // Each thread dirties its slice of the cell pool.
        let slice = block_range(TREE_BYTES as usize, self.threads, thread);
        ops.push(Op::write(
            self.tree_base + slice.start as u64,
            slice.len() as u64,
        ));
        ops.push(Op::Unlock(lock));
        ops.push(Op::compute(own.len() as u64 * 9_000));
        ops.push(Op::Barrier);

        // Phase 2: force computation. Read the whole tree, the neighbouring
        // threads' bodies in full, and a deterministic sample of far body
        // pages (the tree-opening criterion admits a subset of far cells).
        ops.push(Op::read(self.tree_base, TREE_BYTES));
        for d in 1..=2usize {
            for dir in [-1i64, 1] {
                let nb = (thread as i64 + dir * d as i64).rem_euclid(self.threads as i64) as usize;
                if nb != thread {
                    let (a, l) = self.block_ops_for(nb);
                    ops.push(Op::read(a, l));
                }
            }
        }
        let body_pages = (self.bodies as u64 * BODY_BYTES).div_ceil(4096);
        let mut rng = DetRng::new(0xBA_u64.wrapping_mul(thread as u64 + 1));
        for page in 0..body_pages {
            if rng.next_below(256) < SAMPLE_DENSITY {
                ops.push(Op::read(self.bodies_base + page * 4096 + 64, 256));
            }
        }
        ops.push(Op::compute(own.len() as u64 * FORCE_NS_PER_BODY));
        ops.push(Op::write(own_addr, own_bytes));
        ops.push(Op::Barrier);

        // Phase 3: position update plus a lock-protected global reduction.
        ops.push(Op::read(own_addr, own_bytes));
        ops.push(Op::compute(own.len() as u64 * 4_000));
        ops.push(Op::write(own_addr, own_bytes));
        let glock = LockId(((thread + 7) % LOCKS) as u16);
        ops.push(Op::Lock(glock));
        ops.push(Op::read(self.globals_base, 64));
        ops.push(Op::write(self.globals_base, 64));
        ops.push(Op::Unlock(glock));
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorr_dsm::validate_iteration;
    use acorr_mem::pages_for;

    #[test]
    fn paper_input_matches_table1_pages() {
        let b = Barnes::paper(64);
        // Table 1: 251 pages. 8192 × 120 B = 240 pages + 10 tree + globals.
        assert_eq!(pages_for(b.shared_bytes()), 251);
    }

    #[test]
    fn scripts_validate() {
        for threads in [8, 32, 48, 64] {
            validate_iteration(&Barnes::paper(threads), 0).unwrap();
        }
    }

    #[test]
    fn sample_is_deterministic_per_thread() {
        let b = Barnes::paper(32);
        assert_eq!(b.script(5, 0), b.script(5, 9), "static across iterations");
        assert_ne!(b.script(5, 0), b.script(6, 0), "distinct across threads");
    }

    #[test]
    fn everyone_reads_the_tree() {
        let b = Barnes::paper(16);
        for t in 0..16 {
            let tree_reads = b
                .script(t, 0)
                .iter()
                .filter(|op| {
                    matches!(**op, Op::Read { addr, len }
                        if addr == b.tree_base && len == TREE_BYTES)
                })
                .count();
            assert_eq!(tree_reads, 2, "build + force phases");
        }
    }

    #[test]
    fn neighbors_wrap_cyclically() {
        let b = Barnes::paper(8);
        let script = b.script(0, 0);
        let (a7, l7) = b.block_ops_for(7);
        assert!(
            script
                .iter()
                .any(|op| matches!(*op, Op::Read { addr, len } if addr == a7 && len == l7)),
            "thread 0 reads thread 7's bodies via wraparound"
        );
    }

    #[test]
    fn accesses_stay_in_bounds() {
        let b = Barnes::paper(48);
        for t in 0..48 {
            for op in b.script(t, 0) {
                if let Op::Read { addr, len } | Op::Write { addr, len } = op {
                    assert!(addr + len <= b.shared_bytes());
                }
            }
        }
    }
}
