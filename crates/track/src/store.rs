//! The correlation-store abstraction behind dense and sparse backends.
//!
//! The paper's 64-thread experiments are served perfectly well by the dense
//! [`CorrelationMatrix`]; the ROADMAP's production-scale target (10⁵–10⁶
//! threads) is not — O(T²) memory alone is the wall. [`CorrelationStore`]
//! captures the surface every consumer actually uses (updates, merging,
//! aging, divergence, edge iteration), so small-T code paths stay on the
//! dense matrix **unchanged and bit-identical** while large-T paths select
//! [`SparseCorrelation`](crate::SparseCorrelation) behind the same calls.
//!
//! Contracts every implementation must honour:
//!
//! * Values are symmetric: `get(a, b) == get(b, a)`; the diagonal holds a
//!   thread's own page count and never participates in cut costs.
//! * [`for_each_edge`](CorrelationStore::for_each_edge) visits each
//!   **non-zero** off-diagonal pair exactly once as `(a, b, v)` with
//!   `a < b`, in ascending lexicographic order — deterministic, so every
//!   downstream sum and tie-break is reproducible.
//! * [`delta`](CorrelationStore::delta) computes the same normalized L1
//!   divergence as [`correlation_delta`](crate::correlation_delta): the
//!   `u64` diff/mass sums are order-independent and zero pairs contribute
//!   nothing, so dense and sparse backends return **bit-identical** `f64`s.
//! * [`AgedStore::fold_window`] returns, bit for bit, what the dense
//!   composition returns — merge the window's rounds, snapshot the
//!   baseline, take the delta, observe the window — however it gets there.

use crate::aging::AgedCorrelation;
use crate::correlation::CorrelationMatrix;
use crate::delta::correlation_delta;

/// Common surface of correlation backends (dense matrix, sparse adjacency).
pub trait CorrelationStore: Clone + PartialEq + std::fmt::Debug {
    /// The aged (exponentially decayed) accumulator paired with this store.
    type Aged: AgedStore<Self>;

    /// An empty store over `n` threads.
    fn zeros(n: usize) -> Self;

    /// Number of threads covered.
    fn num_threads(&self) -> usize;

    /// The correlation of a thread pair (diagonal: own page count).
    fn get(&self, a: usize, b: usize) -> u64;

    /// Sets both symmetric entries.
    fn set(&mut self, a: usize, b: usize, v: u64);

    /// Adds `v` to both symmetric entries.
    fn add(&mut self, a: usize, b: usize, v: u64) {
        if v > 0 {
            let cur = self.get(a, b);
            self.set(a, b, cur + v);
        }
    }

    /// Accumulates another round (elementwise sum, diagonal included).
    ///
    /// # Panics
    ///
    /// Panics if the stores cover different thread counts.
    fn merge(&mut self, other: &Self);

    /// Normalized L1 divergence against `other` — bit-identical to
    /// [`correlation_delta`](crate::correlation_delta) on the dense matrix.
    ///
    /// # Panics
    ///
    /// Panics if the stores cover different thread counts.
    fn delta(&self, other: &Self) -> f64;

    /// Visits every non-zero off-diagonal pair once, `a < b`, ascending.
    fn for_each_edge(&self, f: impl FnMut(usize, usize, u64));

    /// Visits every thread `u != t` with `get(t, u) > 0`, ascending `u`.
    fn for_each_neighbor(&self, t: usize, f: impl FnMut(usize, u64));

    /// Number of non-zero off-diagonal (unordered) pairs.
    fn edge_count(&self) -> usize {
        let mut count = 0;
        self.for_each_edge(|_, _, _| count += 1);
        count
    }

    /// Sum of all off-diagonal entries (ordered-pair convention).
    fn total_correlation(&self) -> u64 {
        let mut sum = 0;
        self.for_each_edge(|_, _, v| sum += 2 * v);
        sum
    }

    /// The largest off-diagonal correlation.
    fn max_off_diagonal(&self) -> u64 {
        let mut max = 0;
        self.for_each_edge(|_, _, v| max = max.max(v));
        max
    }
}

/// Exponentially aged accumulation over a [`CorrelationStore`].
///
/// The aging arithmetic is pinned by
/// [`AgedCorrelation`](crate::AgedCorrelation): per present pair,
/// `val = val * decay + round`, and snapshots normalize by the
/// geometric-series weight before rounding. A window closes in one call,
/// [`fold_window`](AgedStore::fold_window), which must return exactly what
/// the dense composition returns: the divergence of the rounded snapshot
/// taken before the fold from the window, then the window folded in as one
/// round. Sparse implementations apply the identical `f64` operation
/// sequence per stored edge (absent edges are exact zeros under it), so
/// the deltas and the aged values are bit-identical.
pub trait AgedStore<C>: Clone + std::fmt::Debug {
    /// An empty accumulator over `n` threads with retention `decay`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= decay < 1.0`.
    fn new(n: usize, decay: f64) -> Self;

    /// Closes a window whose rounds sum to `open + last` (`open` absent:
    /// the window is `last` alone). Returns the normalized divergence of
    /// the baseline's rounded snapshot, as it stood before this call, from
    /// the window, then folds the window into the baseline as one round.
    ///
    /// # Panics
    ///
    /// Panics if a round covers a different thread count.
    fn fold_window(&mut self, open: Option<&C>, last: &C) -> f64;
}

impl CorrelationStore for CorrelationMatrix {
    type Aged = AgedCorrelation;

    fn zeros(n: usize) -> Self {
        CorrelationMatrix::zeros(n)
    }

    fn num_threads(&self) -> usize {
        self.num_threads()
    }

    fn get(&self, a: usize, b: usize) -> u64 {
        self.get(a, b)
    }

    fn set(&mut self, a: usize, b: usize, v: u64) {
        self.set(a, b, v);
    }

    fn merge(&mut self, other: &Self) {
        self.merge(other);
    }

    fn delta(&self, other: &Self) -> f64 {
        correlation_delta(self, other)
    }

    fn for_each_edge(&self, mut f: impl FnMut(usize, usize, u64)) {
        for (a, b, v) in self.pairs() {
            if v > 0 {
                f(a, b, v);
            }
        }
    }

    fn for_each_neighbor(&self, t: usize, mut f: impl FnMut(usize, u64)) {
        for u in 0..self.num_threads() {
            if u != t {
                let v = self.get(t, u);
                if v > 0 {
                    f(u, v);
                }
            }
        }
    }

    fn total_correlation(&self) -> u64 {
        self.total_correlation()
    }

    fn max_off_diagonal(&self) -> u64 {
        self.max_off_diagonal()
    }
}

/// The literal composition every other implementation must reproduce bit
/// for bit: merge, snapshot, delta, observe.
impl AgedStore<CorrelationMatrix> for AgedCorrelation {
    fn new(n: usize, decay: f64) -> Self {
        AgedCorrelation::new(n, decay)
    }

    fn fold_window(&mut self, open: Option<&CorrelationMatrix>, last: &CorrelationMatrix) -> f64 {
        let mut window = open
            .cloned()
            .unwrap_or_else(|| CorrelationMatrix::zeros(last.num_threads()));
        window.merge(last);
        let delta = correlation_delta(&self.snapshot(), &window);
        self.observe(&window);
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(n: usize, edges: &[(usize, usize, u64)]) -> CorrelationMatrix {
        let mut m = CorrelationMatrix::zeros(n);
        for &(a, b, v) in edges {
            m.set(a, b, v);
        }
        m
    }

    #[test]
    fn dense_edge_iteration_is_sorted_and_nonzero() {
        let m = dense(4, &[(0, 3, 2), (1, 2, 5)]);
        let mut seen = Vec::new();
        CorrelationStore::for_each_edge(&m, |a, b, v| seen.push((a, b, v)));
        assert_eq!(seen, vec![(0, 3, 2), (1, 2, 5)]);
        assert_eq!(CorrelationStore::edge_count(&m), 2);
    }

    #[test]
    fn dense_neighbors_skip_zeros_and_self() {
        let m = dense(4, &[(1, 0, 3), (1, 3, 4)]);
        let mut seen = Vec::new();
        m.for_each_neighbor(1, |u, v| seen.push((u, v)));
        assert_eq!(seen, vec![(0, 3), (3, 4)]);
    }

    #[test]
    fn trait_delta_matches_free_function() {
        let a = dense(5, &[(0, 1, 10), (2, 3, 4)]);
        let b = dense(5, &[(0, 1, 8), (3, 4, 4)]);
        assert_eq!(
            CorrelationStore::delta(&a, &b).to_bits(),
            correlation_delta(&a, &b).to_bits()
        );
    }

    #[test]
    fn trait_add_accumulates() {
        let mut m = <CorrelationMatrix as CorrelationStore>::zeros(3);
        m.add(0, 2, 4);
        m.add(2, 0, 1);
        assert_eq!(m.get(0, 2), 5);
    }

    #[test]
    fn trait_totals_match_inherent() {
        let m = dense(6, &[(0, 1, 1), (0, 5, 9), (2, 4, 3)]);
        assert_eq!(
            CorrelationStore::total_correlation(&m),
            m.total_correlation()
        );
        assert_eq!(CorrelationStore::max_off_diagonal(&m), 9);
    }
}
