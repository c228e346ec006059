//! Spatial — the SPLASH-2 water-spatial molecular dynamics kernel.
//!
//! 4096 molecules stored per 3D cell (an 8x8x8 cell grid, one page per
//! cell — Table 1's ≈569 pages including the cell metadata), with **two
//! force phases that partition the cells differently**: phase A slices the
//! cell grid along z (z-major order), phase B along x (x-major order). Each
//! phase reads the owned cells plus their 27-neighbourhoods and updates
//! neighbour cells under per-cell locks.
//!
//! The two orderings group threads differently, which is what the paper
//! sees in Table 3: *"Spatial's behavior is the result of phases with
//! distinct sharing patterns"*, with the block structure changing between
//! 32 and 64 threads and degrading at 48 (where the cell count does not
//! divide evenly).

use crate::common::block_range;
use acorr_dsm::{LockId, Op, Program};
use acorr_mem::SharedLayout;

/// Cells per axis.
const DIM: usize = 8;
pub(crate) const CELLS: usize = DIM * DIM * DIM;
/// One page per cell (8 molecules × 512 B).
const CELL_BYTES: u64 = 4096;
const LOCKS: usize = 64;
/// Calibrated toward the paper's ≈13.4 s 64-thread iteration.
const NS_PER_CELL_PAIR: u64 = 7_300_000;

/// Water-spatial over an 8x8x8 cell grid.
#[derive(Debug, Clone)]
pub struct Spatial {
    threads: usize,
    cells_base: u64,
    meta_base: u64,
    meta_bytes: u64,
    globals_base: u64,
    shared_bytes: u64,
}

impl Spatial {
    /// Creates an instance.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or exceeds the cell count.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "threads must be positive");
        assert!(threads <= CELLS, "more threads than cells");
        let mut layout = SharedLayout::new();
        let cells = layout.alloc("cells", CELLS as u64 * CELL_BYTES);
        let meta = layout.alloc("cell-metadata", 55 * 4096);
        let globals = layout.alloc("globals", 256);
        Spatial {
            threads,
            cells_base: cells.base(),
            meta_base: meta.base(),
            meta_bytes: meta.len(),
            globals_base: globals.base(),
            shared_bytes: layout.total_bytes(),
        }
    }

    /// The paper's input: 4096 molecules (8 per cell).
    pub fn paper(threads: usize) -> Self {
        Spatial::new(threads)
    }

    /// Linear cell index in z-major order (z slowest).
    fn z_major(x: usize, y: usize, z: usize) -> usize {
        (z * DIM + y) * DIM + x
    }

    /// Linear cell index in x-major order (x slowest).
    fn x_major(x: usize, y: usize, z: usize) -> usize {
        (x * DIM + y) * DIM + z
    }

    fn cell_addr(&self, cell: usize) -> u64 {
        self.cells_base + cell as u64 * CELL_BYTES
    }

    /// Force-phase ops for the cells owned under the given ordering.
    fn force_phase(&self, thread: usize, x_major_order: bool, ops: &mut Vec<Op>) {
        let owned = block_range(CELLS, self.threads, thread);
        let mut neighbor_cells = std::collections::BTreeSet::new();
        let mut owned_cells = Vec::new();
        for linear in owned.clone() {
            // Decode the linear index under the phase ordering.
            let (x, y, z) = if x_major_order {
                (linear / (DIM * DIM), (linear / DIM) % DIM, linear % DIM)
            } else {
                (linear % DIM, (linear / DIM) % DIM, linear / (DIM * DIM))
            };
            debug_assert_eq!(
                linear,
                if x_major_order {
                    Self::x_major(x, y, z)
                } else {
                    Self::z_major(x, y, z)
                },
                "decode must invert the phase ordering"
            );
            owned_cells.push(Self::z_major(x, y, z));
            for dx in -1i64..=1 {
                for dy in -1i64..=1 {
                    for dz in -1i64..=1 {
                        let nx = x as i64 + dx;
                        let ny = y as i64 + dy;
                        let nz = z as i64 + dz;
                        if (0..DIM as i64).contains(&nx)
                            && (0..DIM as i64).contains(&ny)
                            && (0..DIM as i64).contains(&nz)
                        {
                            neighbor_cells.insert(Self::z_major(
                                nx as usize,
                                ny as usize,
                                nz as usize,
                            ));
                        }
                    }
                }
            }
        }
        // Read the neighbourhood (cells are stored in z-major order
        // regardless of the phase's ownership ordering).
        for &cell in &neighbor_cells {
            ops.push(Op::read(self.cell_addr(cell), CELL_BYTES));
        }
        // Update owned cells; only the region-boundary cells accumulate
        // into neighbours under per-cell locks (interior cells need none).
        for &cell in &owned_cells {
            ops.push(Op::write(self.cell_addr(cell), CELL_BYTES));
        }
        for &cell in [owned_cells.first(), owned_cells.last()]
            .into_iter()
            .flatten()
        {
            let lock = LockId((cell % LOCKS) as u16);
            ops.push(Op::Lock(lock));
            ops.push(Op::write(self.cell_addr(cell) + 256, 64));
            ops.push(Op::Unlock(lock));
        }
        ops.push(Op::compute(
            owned_cells.len() as u64 * 27 * NS_PER_CELL_PAIR / 2,
        ));
    }
}

impl Program for Spatial {
    fn name(&self) -> &str {
        "Spatial"
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
        10
    }

    fn script(&self, thread: usize, _iteration: usize) -> Vec<Op> {
        let mut ops = Vec::new();
        // Everyone scans the cell metadata (lists, boundaries).
        ops.push(Op::read(self.meta_base, self.meta_bytes));

        // Phase A: z-major ownership.
        self.force_phase(thread, false, &mut ops);
        ops.push(Op::Barrier);

        // Phase B: x-major ownership — a different thread grouping.
        self.force_phase(thread, true, &mut ops);
        ops.push(Op::Barrier);

        // Global reduction under a lock.
        let lock = LockId((thread % LOCKS) as u16);
        ops.push(Op::Lock(lock));
        ops.push(Op::read(self.globals_base, 64));
        ops.push(Op::write(self.globals_base, 64));
        ops.push(Op::Unlock(lock));
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
        let s = Spatial::paper(64);
        // Table 1: 569 pages. 512 cell pages + 55 metadata + globals.
        assert_eq!(pages_for(s.shared_bytes()), 568);
    }

    #[test]
    fn scripts_validate() {
        for threads in [8, 32, 48, 64] {
            validate_iteration(&Spatial::paper(threads), 0).unwrap();
        }
    }

    #[test]
    fn orderings_are_bijections() {
        let mut seen_z = std::collections::HashSet::new();
        let mut seen_x = std::collections::HashSet::new();
        for x in 0..DIM {
            for y in 0..DIM {
                for z in 0..DIM {
                    seen_z.insert(Spatial::z_major(x, y, z));
                    seen_x.insert(Spatial::x_major(x, y, z));
                }
            }
        }
        assert_eq!(seen_z.len(), CELLS);
        assert_eq!(seen_x.len(), CELLS);
    }

    #[test]
    fn phases_have_distinct_footprints() {
        // The same thread reads different cell pages in phase A vs phase B
        // (the paper's "phases with distinct sharing patterns").
        let s = Spatial::paper(64);
        let script = s.script(17, 0);
        let barrier_pos = script
            .iter()
            .position(|op| matches!(op, Op::Barrier))
            .unwrap();
        let cell_reads = |ops: &[Op]| -> std::collections::BTreeSet<u64> {
            ops.iter()
                .filter_map(|op| match *op {
                    Op::Read { addr, len }
                        if len == CELL_BYTES
                            && addr >= s.cells_base
                            && addr < s.cells_base + CELLS as u64 * CELL_BYTES =>
                    {
                        Some(addr)
                    }
                    _ => None,
                })
                .collect()
        };
        let a = cell_reads(&script[..barrier_pos]);
        let b = cell_reads(&script[barrier_pos..]);
        assert!(!a.is_empty() && !b.is_empty());
        assert_ne!(a, b);
    }

    #[test]
    fn locks_balance_and_validate_under_contention() {
        let s = Spatial::paper(64);
        for t in [0, 31, 63] {
            let script = s.script(t, 0);
            let locks = script.iter().filter(|o| matches!(o, Op::Lock(_))).count();
            let unlocks = script.iter().filter(|o| matches!(o, Op::Unlock(_))).count();
            assert_eq!(locks, unlocks);
            assert!(locks > 2, "per-cell locks plus the reduction");
        }
    }

    #[test]
    fn accesses_stay_in_bounds() {
        for threads in [8, 48, 64] {
            let s = Spatial::paper(threads);
            for t in 0..threads {
                for op in s.script(t, 0) {
                    if let Op::Read { addr, len } | Op::Write { addr, len } = op {
                        assert!(addr + len <= s.shared_bytes());
                    }
                }
            }
        }
    }
}
