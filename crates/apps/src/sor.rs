//! SOR — red/black successive over-relaxation.
//!
//! The paper's simplest application (Table 1: 2048x2048 input, 4099 shared
//! pages, barrier-only synchronization). Threads own contiguous row blocks
//! of one `f32` grid and exchange only the boundary rows with their
//! neighbors, giving the pure nearest-neighbor correlation map of Table 3
//! and a sharing degree barely above 1 (Table 5: 1.081).

use crate::common::block_range;
use acorr_dsm::{Op, Program};
use acorr_mem::SharedLayout;

/// Rows (and columns) of the paper grid.
pub(crate) const PAPER_ROWS: usize = 2048;
const ELEM_BYTES: u64 = 4; // f32
/// Calibrated so a 64-thread, 8-node run of the 2048x2048 input takes on
/// the order of the paper's 0.15 s per iteration.
const NS_PER_POINT: u64 = 140;

/// Red/black SOR over an `rows x cols` grid of `f32`.
#[derive(Debug, Clone)]
pub struct Sor {
    rows: usize,
    cols: usize,
    threads: usize,
    grid_base: u64,
    shared_bytes: u64,
}

impl Sor {
    /// Creates an instance with an explicit grid size.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the thread count is zero, or if there are
    /// more threads than rows.
    pub fn new(rows: usize, cols: usize, threads: usize) -> Self {
        assert!(rows > 0 && cols > 0 && threads > 0, "degenerate SOR");
        assert!(threads <= rows, "more threads than rows");
        let mut layout = SharedLayout::new();
        let grid = layout.alloc("grid", rows as u64 * cols as u64 * ELEM_BYTES);
        let _globals = layout.alloc("globals", 256);
        Sor {
            rows,
            cols,
            threads,
            grid_base: grid.base(),
            shared_bytes: layout.total_bytes(),
        }
    }

    /// The paper's input: a 2048x2048 grid.
    pub fn paper(threads: usize) -> Self {
        Sor::new(PAPER_ROWS, PAPER_ROWS, threads)
    }

    fn row_bytes(&self) -> u64 {
        self.cols as u64 * ELEM_BYTES
    }

    fn row_addr(&self, row: usize) -> u64 {
        self.grid_base + row as u64 * self.row_bytes()
    }
}

impl Program for Sor {
    fn name(&self) -> &str {
        "SOR"
    }

    fn shared_bytes(&self) -> u64 {
        self.shared_bytes
    }

    fn num_threads(&self) -> usize {
        self.threads
    }

    fn default_iterations(&self) -> usize {
        20
    }

    fn script(&self, thread: usize, _iteration: usize) -> Vec<Op> {
        let rows = block_range(self.rows, self.threads, thread);
        let own_addr = self.row_addr(rows.start);
        let own_bytes = rows.len() as u64 * self.row_bytes();
        let points = rows.len() as u64 * self.cols as u64;
        let mut ops = Vec::new();
        // Two half-sweeps (red, black) separated by a barrier; the final
        // barrier is implicit.
        for phase in 0..2 {
            if rows.start > 0 {
                ops.push(Op::read(self.row_addr(rows.start - 1), self.row_bytes()));
            }
            if rows.end < self.rows {
                ops.push(Op::read(self.row_addr(rows.end), self.row_bytes()));
            }
            ops.push(Op::read(own_addr, own_bytes));
            ops.push(Op::compute(points * NS_PER_POINT / 2));
            ops.push(Op::write(own_addr, own_bytes));
            if phase == 0 {
                ops.push(Op::Barrier);
            }
        }
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
        let sor = Sor::paper(64);
        let pages = pages_for(sor.shared_bytes());
        // Table 1: 4099 shared pages; one 16 MiB grid plus a globals page.
        assert_eq!(pages, 4097);
        assert!((pages as i64 - 4099).abs() <= 4);
    }

    #[test]
    fn scripts_validate_for_all_thread_counts() {
        for threads in [8, 32, 48, 64] {
            let sor = Sor::new(256, 256, threads);
            validate_iteration(&sor, 0).unwrap();
        }
    }

    #[test]
    fn only_boundary_rows_are_read_from_neighbors() {
        let sor = Sor::new(64, 64, 8);
        let script = sor.script(3, 0);
        let reads: Vec<(u64, u64)> = script
            .iter()
            .filter_map(|op| match *op {
                Op::Read { addr, len } => Some((addr, len)),
                _ => None,
            })
            .collect();
        // Rows 24..32 owned; neighbor reads are rows 23 and 32 (one row
        // each), own read is the 8-row block — per phase.
        let row = 64 * 4;
        assert!(reads.contains(&((23 * row) as u64, row as u64)));
        assert!(reads.contains(&((32 * row) as u64, row as u64)));
        assert!(reads.contains(&((24 * row) as u64, (8 * row) as u64)));
    }

    #[test]
    fn edge_threads_skip_missing_neighbors() {
        let sor = Sor::new(64, 64, 8);
        let first = sor.script(0, 0);
        let last = sor.script(7, 0);
        let count_reads = |s: &[Op]| s.iter().filter(|op| matches!(op, Op::Read { .. })).count();
        let middle = sor.script(3, 0);
        assert_eq!(count_reads(&middle) - count_reads(&first), 2);
        assert_eq!(count_reads(&middle) - count_reads(&last), 2);
    }

    #[test]
    fn scripts_are_static_across_iterations() {
        let sor = Sor::new(128, 128, 4);
        assert_eq!(sor.script(1, 0), sor.script(1, 7));
    }

    #[test]
    #[should_panic(expected = "more threads than rows")]
    fn rejects_overdecomposition() {
        Sor::new(4, 64, 8);
    }
}
