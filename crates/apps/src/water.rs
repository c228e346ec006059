//! Water — the SPLASH-2 water-nsquared molecular dynamics kernel.
//!
//! 512 molecules in 44 shared pages (Table 1). Every thread owns a block of
//! molecules and, in the O(n²) force phase, reads the *cyclically next half*
//! of the molecule array — the classic half-interaction trick that computes
//! each pair once. At page granularity the read windows of two threads
//! overlap in proportion to `T/2 - distance`, which yields exactly the
//! correlation map the paper describes: *"nearest-neighbor traffic that
//! starts high, smoothly decreases, and then increases with 'distance'
//! between the threads"*. Global reductions use locks.

use crate::common::block_range;
use acorr_dsm::{LockId, Op, Program};
use acorr_mem::SharedLayout;

/// Molecules in the paper input.
pub(crate) const PAPER_MOLECULES: usize = 512;
/// Bytes per molecule record (positions, velocities, forces, energies for a
/// 3-site model) — sized so 512 molecules occupy the paper's 44 pages.
const MOL_BYTES: u64 = 352;
/// Calibrated toward the paper's ≈1.07 s 64-thread iteration.
const FORCE_NS_PER_PAIR: u64 = 62_000;
const LOCKS: usize = 8;

/// Water-nsquared over `mols` molecules.
#[derive(Debug, Clone)]
pub struct Water {
    mols: usize,
    threads: usize,
    mols_base: u64,
    globals_base: u64,
    shared_bytes: u64,
}

impl Water {
    /// Creates an instance with an explicit molecule count.
    ///
    /// # Panics
    ///
    /// Panics if `mols` or `threads` is zero, or `threads > mols`.
    pub fn new(mols: usize, threads: usize) -> Self {
        assert!(mols > 0 && threads > 0, "degenerate Water");
        assert!(threads <= mols, "more threads than molecules");
        let mut layout = SharedLayout::new();
        let m = layout.alloc("molecules", mols as u64 * MOL_BYTES);
        let g = layout.alloc("globals", 128);
        Water {
            mols,
            threads,
            mols_base: m.base(),
            globals_base: g.base(),
            shared_bytes: layout.total_bytes(),
        }
    }

    /// The paper's input: 512 molecules.
    pub fn paper(threads: usize) -> Self {
        Water::new(PAPER_MOLECULES, threads)
    }

    fn mol_addr(&self, mol: usize) -> u64 {
        self.mols_base + mol as u64 * MOL_BYTES
    }
}

impl Program for Water {
    fn name(&self) -> &str {
        "Water"
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
        20
    }

    fn script(&self, thread: usize, _iteration: usize) -> Vec<Op> {
        let own = block_range(self.mols, self.threads, thread);
        let own_addr = self.mol_addr(own.start);
        let own_bytes = own.len() as u64 * MOL_BYTES;
        // Phase 1: predict — purely local update of owned molecules.
        let mut ops = vec![
            Op::read(own_addr, own_bytes),
            Op::compute(own.len() as u64 * 2_000),
            Op::write(own_addr, own_bytes),
            Op::Barrier,
        ];

        // Phase 2: intermolecular forces — half-interaction window. The
        // window is the cyclically-next half of the molecule array.
        let window = self.mols / 2;
        let start = own.end % self.mols;
        if start + window <= self.mols {
            ops.push(Op::read(self.mol_addr(start), window as u64 * MOL_BYTES));
        } else {
            let first = self.mols - start;
            ops.push(Op::read(self.mol_addr(start), first as u64 * MOL_BYTES));
            ops.push(Op::read(
                self.mol_addr(0),
                (window - first) as u64 * MOL_BYTES,
            ));
        }
        ops.push(Op::read(own_addr, own_bytes));
        let pairs = own.len() as u64 * window as u64;
        ops.push(Op::compute(pairs * FORCE_NS_PER_PAIR));
        // Forces accumulate into *both* molecules of each pair: the window
        // is written back (multi-writer pages), as is the owned block.
        if start + window <= self.mols {
            ops.push(Op::write(self.mol_addr(start), window as u64 * MOL_BYTES));
        } else {
            let first = self.mols - start;
            ops.push(Op::write(self.mol_addr(start), first as u64 * MOL_BYTES));
            ops.push(Op::write(
                self.mol_addr(0),
                (window - first) as u64 * MOL_BYTES,
            ));
        }
        ops.push(Op::write(own_addr, own_bytes));
        let lock = LockId((thread % LOCKS) as u16);
        ops.push(Op::Lock(lock));
        ops.push(Op::read(self.globals_base, 64));
        ops.push(Op::write(self.globals_base, 64));
        ops.push(Op::Unlock(lock));
        ops.push(Op::Barrier);

        // Phase 3: correct — local again.
        ops.push(Op::read(own_addr, own_bytes));
        ops.push(Op::compute(own.len() as u64 * 2_000));
        ops.push(Op::write(own_addr, own_bytes));
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
        let w = Water::paper(64);
        // Table 1: 44 shared pages. 512 × 352 B = 44 pages + 1 globals page.
        assert_eq!(pages_for(w.shared_bytes()), 45);
    }

    #[test]
    fn scripts_validate() {
        for threads in [8, 32, 48, 64] {
            let w = Water::paper(threads);
            validate_iteration(&w, 0).unwrap();
        }
    }

    #[test]
    fn window_wraps_cyclically() {
        let w = Water::new(64, 8);
        // Last thread's window must wrap to the array start: two reads.
        let script = w.script(7, 0);
        let force_reads: Vec<u64> = script
            .iter()
            .filter_map(|op| match *op {
                Op::Read { addr, len } if len > 8 * MOL_BYTES => Some(addr),
                _ => None,
            })
            .collect();
        assert!(force_reads.contains(&0), "wrapped read starts at base");
    }

    #[test]
    fn window_overlap_decreases_with_distance() {
        // The defining property behind the paper's Water map: read-window
        // overlap (in molecules) falls linearly with cyclic thread distance.
        let _w = Water::new(512, 64);
        let window_of = |t: usize| {
            let own = block_range(512, 64, t);
            let start = own.end % 512;
            (0..256).map(move |k| (start + k) % 512)
        };
        let overlap = |a: usize, b: usize| {
            let wa: std::collections::HashSet<usize> = window_of(a).collect();
            window_of(b).filter(|m| wa.contains(m)).count()
        };
        let d1 = overlap(0, 1);
        let d8 = overlap(0, 8);
        let d31 = overlap(0, 31);
        let d63 = overlap(0, 63);
        assert!(d1 > d8 && d8 > d31, "{d1} > {d8} > {d31}");
        assert!(d63 > d31, "cyclic distance: thread 63 is a near neighbor");
    }

    #[test]
    fn every_thread_locks_and_unlocks() {
        let w = Water::paper(16);
        for t in 0..16 {
            let script = w.script(t, 0);
            let locks = script.iter().filter(|o| matches!(o, Op::Lock(_))).count();
            let unlocks = script.iter().filter(|o| matches!(o, Op::Unlock(_))).count();
            assert_eq!(locks, 1);
            assert_eq!(unlocks, 1);
        }
    }
}
