//! LU — blocked dense LU factorization (SPLASH-2 contiguous-threads style).
//!
//! The `n x n` `f32` matrix is stored **row-major** (as the paper's page
//! counts imply: 1024² × 4 B = the 1032 pages of Table 1's LU1k) and
//! processed in `B x B` blocks owned by a 2D-scattered thread grid. One
//! program iteration is one outer elimination step `k`:
//!
//! 1. the owner of diagonal block `(k,k)` factorizes it;
//! 2. owners of perimeter blocks `(i,k)`/`(k,j)` update them against the
//!    diagonal block;
//! 3. owners of interior blocks `(i,j)` update them against their
//!    perimeter row and column blocks.
//!
//! Because the matrix is row-major, every block touches `B` row-segments
//! whose pages are shared with the other threads of the same grid row —
//! the origin of LU's blocked correlation maps (Table 3) and its high
//! sharing degree (Table 5: 7.8 with 8 threads per node).

use acorr_dsm::{Op, Program};
use acorr_mem::SharedLayout;
use std::iter::StepBy;
use std::ops::Range;

const ELEM_BYTES: u64 = 4; // f32
const BLOCK: usize = 32;
/// Calibrated toward the paper's LU1k/LU2k iteration times.
const NS_PER_FLOP: u64 = 22;

/// Blocked LU factorization of an `n x n` matrix.
#[derive(Debug, Clone)]
pub struct Lu {
    name: String,
    n: usize,
    nb: usize,
    threads: usize,
    grid_rows: usize,
    grid_cols: usize,
    base: u64,
    shared_bytes: u64,
}

impl Lu {
    /// Creates an LU instance for an `n x n` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a positive multiple of the 32-element block
    /// size, or if `threads` is zero.
    pub fn new(name: &str, n: usize, threads: usize) -> Self {
        assert!(
            n > 0 && n.is_multiple_of(BLOCK),
            "n must be a positive multiple of {BLOCK}"
        );
        assert!(threads > 0, "threads must be positive");
        let (grid_rows, grid_cols) = crate::common::thread_grid(threads);
        let mut layout = SharedLayout::new();
        let m = layout.alloc("matrix", n as u64 * n as u64 * ELEM_BYTES);
        let _globals = layout.alloc("globals", 512);
        Lu {
            name: name.to_owned(),
            n,
            nb: n / BLOCK,
            threads,
            grid_rows,
            grid_cols,
            base: m.base(),
            shared_bytes: layout.total_bytes(),
        }
    }

    /// The paper's 1024x1024 input (LU1k).
    pub fn paper1k(threads: usize) -> Self {
        Lu::new("LU1k", 1024, threads)
    }

    /// The paper's 2048x2048 input (LU2k).
    pub fn paper2k(threads: usize) -> Self {
        Lu::new("LU2k", 2048, threads)
    }

    /// The 2D-scatter owner of block `(bi, bj)`.
    fn owner(&self, bi: usize, bj: usize) -> usize {
        (bi % self.grid_rows) * self.grid_cols + (bj % self.grid_cols)
    }

    /// The block indices in `from..nb` congruent to `residue` modulo
    /// `step`: one grid row's (or column's) share of the matrix.
    fn owned_from(&self, from: usize, residue: usize, step: usize) -> StepBy<Range<usize>> {
        let first = from + (residue + step - from % step) % step;
        (first..self.nb).step_by(step)
    }

    /// Emits the ops accessing block `(bi, bj)`: one op per matrix row
    /// segment (row-major layout).
    fn block_ops(&self, bi: usize, bj: usize, write: bool, ops: &mut Vec<Op>) {
        let row_bytes = self.n as u64 * ELEM_BYTES;
        let seg = BLOCK as u64 * ELEM_BYTES;
        for r in 0..BLOCK {
            let addr = self.base
                + (bi * BLOCK + r) as u64 * row_bytes
                + bj as u64 * BLOCK as u64 * ELEM_BYTES;
            if write {
                ops.push(Op::write(addr, seg));
            } else {
                ops.push(Op::read(addr, seg));
            }
        }
    }
}

impl Program for Lu {
    fn name(&self) -> &str {
        &self.name
    }

    fn shared_bytes(&self) -> u64 {
        self.shared_bytes
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn default_iterations(&self) -> usize {
        self.nb - 1
    }

    fn script(&self, thread: usize, iteration: usize) -> Vec<Op> {
        let k = iteration % (self.nb - 1);
        let b3 = (BLOCK * BLOCK * BLOCK) as u64;
        let mut ops = Vec::new();

        // Phase 1: factorize the diagonal block.
        if self.owner(k, k) == thread {
            self.block_ops(k, k, false, &mut ops);
            ops.push(Op::compute(2 * b3 / 3 * NS_PER_FLOP));
            self.block_ops(k, k, true, &mut ops);
        }
        ops.push(Op::Barrier);

        // Phase 2: perimeter updates against the diagonal block.
        let mut did_perimeter = false;
        for i in (k + 1)..self.nb {
            if self.owner(i, k) == thread {
                if !did_perimeter {
                    self.block_ops(k, k, false, &mut ops);
                    did_perimeter = true;
                }
                self.block_ops(i, k, false, &mut ops);
                ops.push(Op::compute(b3 * NS_PER_FLOP));
                self.block_ops(i, k, true, &mut ops);
            }
            if self.owner(k, i) == thread {
                if !did_perimeter {
                    self.block_ops(k, k, false, &mut ops);
                    did_perimeter = true;
                }
                self.block_ops(k, i, false, &mut ops);
                ops.push(Op::compute(b3 * NS_PER_FLOP));
                self.block_ops(k, i, true, &mut ops);
            }
        }
        ops.push(Op::Barrier);

        // Phase 3: interior updates against perimeter row/column blocks.
        // The thread owns block `(i, j)` exactly when `i` has its grid row
        // and `j` its grid column, so its interior blocks are the product
        // of two stepped ranges. Read each needed perimeter block once,
        // then update the owned blocks in row-major order.
        let rows = self.owned_from(k + 1, thread / self.grid_cols, self.grid_rows);
        let cols = self.owned_from(k + 1, thread % self.grid_cols, self.grid_cols);
        let interior = (rows.len() * cols.len()) as u64;
        if interior > 0 {
            for i in rows.clone() {
                self.block_ops(i, k, false, &mut ops);
            }
            for j in cols.clone() {
                self.block_ops(k, j, false, &mut ops);
            }
            for i in rows {
                for j in cols.clone() {
                    self.block_ops(i, j, false, &mut ops);
                    self.block_ops(i, j, true, &mut ops);
                }
            }
            ops.push(Op::compute(interior * 2 * b3 * NS_PER_FLOP));
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorr_dsm::validate_iteration;
    use acorr_mem::pages_for;
    use std::collections::BTreeSet;

    #[test]
    fn paper_inputs_match_table1_pages() {
        // Table 1: LU1k 1032 pages, LU2k 4105 pages.
        assert_eq!(pages_for(Lu::paper1k(64).shared_bytes()), 1025);
        assert_eq!(pages_for(Lu::paper2k(64).shared_bytes()), 4097);
    }

    #[test]
    fn scripts_validate_across_iterations() {
        let lu = Lu::new("lu", 256, 16);
        for iter in [0, 1, 3, 6] {
            validate_iteration(&lu, iter).unwrap();
        }
    }

    #[test]
    fn ownership_is_a_2d_scatter() {
        let lu = Lu::paper2k(64);
        assert_eq!(lu.grid_rows, 8);
        assert_eq!(lu.grid_cols, 8);
        assert_eq!(lu.owner(0, 0), 0);
        assert_eq!(lu.owner(0, 8), 0, "wraps by grid cols");
        assert_eq!(lu.owner(1, 0), 8);
        // Every thread owns some interior block at k=0.
        let mut owners = std::collections::HashSet::new();
        for i in 1..lu.nb {
            for j in 1..lu.nb {
                owners.insert(lu.owner(i, j));
            }
        }
        assert_eq!(owners.len(), 64);
    }

    /// Phase 3 of step `k` as a scan of every interior block: the
    /// reference the owned-block walk must match op for op.
    fn full_scan_phase3(lu: &Lu, thread: usize, k: usize) -> Vec<Op> {
        let b3 = (BLOCK * BLOCK * BLOCK) as u64;
        let owned: Vec<(usize, usize)> = ((k + 1)..lu.nb)
            .flat_map(|i| ((k + 1)..lu.nb).map(move |j| (i, j)))
            .filter(|&(i, j)| lu.owner(i, j) == thread)
            .collect();
        let rows: BTreeSet<usize> = owned.iter().map(|&(i, _)| i).collect();
        let cols: BTreeSet<usize> = owned.iter().map(|&(_, j)| j).collect();
        let mut ops = Vec::new();
        for &i in &rows {
            lu.block_ops(i, k, false, &mut ops);
        }
        for &j in &cols {
            lu.block_ops(k, j, false, &mut ops);
        }
        for &(i, j) in &owned {
            lu.block_ops(i, j, false, &mut ops);
            lu.block_ops(i, j, true, &mut ops);
        }
        if !owned.is_empty() {
            ops.push(Op::compute(owned.len() as u64 * 2 * b3 * NS_PER_FLOP));
        }
        ops
    }

    #[test]
    fn owned_block_walk_matches_the_full_scan() {
        let thread_counts = [1, 2, 3, 4, 6, 8, 12, 16, 48, 64];
        let mut shapes: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        for n in [64, 128, 1024] {
            // Every iteration, and the first two past the wrap at nb - 1.
            let iterations: Vec<usize> = (0..n / BLOCK + 1).collect();
            shapes.extend(thread_counts.map(|t| (n, t, iterations.clone())));
        }
        // LU2k in the debug profile: a sample of steps, the wrap included.
        shapes.extend([3, 48, 64].map(|t| (2048, t, vec![0, 1, 31, 61, 62, 63])));
        for (n, threads, iterations) in shapes {
            let lu = Lu::new("lu", n, threads);
            for iteration in iterations {
                let k = iteration % (lu.nb - 1);
                for thread in 0..threads {
                    let script = lu.script(thread, iteration);
                    let phase3 = script
                        .iter()
                        .enumerate()
                        .filter(|(_, op)| **op == Op::Barrier)
                        .nth(1)
                        .map(|(at, _)| at + 1)
                        .expect("two barriers");
                    assert!(
                        script[phase3..] == full_scan_phase3(&lu, thread, k),
                        "n {n}, {threads} threads, iteration {iteration}, thread {thread}"
                    );
                }
            }
        }
    }

    #[test]
    fn later_iterations_shrink_the_active_region() {
        let lu = Lu::new("lu", 256, 4);
        let early: usize = (0..4).map(|t| lu.script(t, 0).len()).sum();
        let late: usize = (0..4).map(|t| lu.script(t, 5).len()).sum();
        assert!(late < early);
    }

    #[test]
    fn iteration_index_wraps() {
        let lu = Lu::new("lu", 256, 4);
        // nb = 8, so iterations cycle with period 7.
        assert_eq!(lu.script(2, 0), lu.script(2, 7));
    }

    #[test]
    fn block_rows_hit_row_major_pages() {
        let lu = Lu::paper2k(64);
        let mut ops = Vec::new();
        lu.block_ops(0, 1, false, &mut ops);
        assert_eq!(ops.len(), BLOCK);
        // Consecutive rows are a full 8 KiB row apart.
        if let (Op::Read { addr: a0, .. }, Op::Read { addr: a1, .. }) = (ops[0], ops[1]) {
            assert_eq!(a1 - a0, 2048 * 4);
        } else {
            panic!("expected reads");
        }
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn rejects_unaligned_matrix() {
        Lu::new("lu", 100, 4);
    }
}
