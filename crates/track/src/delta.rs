//! Detecting sharing-pattern drift.
//!
//! §7 plans periodic re-tracking for dynamic applications — but *when* to
//! re-track? Re-tracking on a schedule wastes tracked iterations while the
//! pattern is stable and lags when it shifts. This module quantifies how
//! far two correlation matrices diverge, so a runtime can re-track (and
//! re-place) only when cheap passive observations stop resembling the last
//! active snapshot. The firing decision on top of it (threshold and
//! hysteresis) is [`PhaseDetector`](crate::PhaseDetector).

use crate::correlation::CorrelationMatrix;

/// Normalized L1 divergence between two correlation matrices: the summed
/// absolute off-diagonal difference divided by the summed off-diagonal mass
/// of both. Ranges in `[0, 1]`: 0 for identical matrices, 1 for disjoint
/// sharing.
///
/// # Panics
///
/// Panics if the matrices cover different thread counts.
///
/// ```
/// use acorr_track::{correlation_delta, CorrelationMatrix};
/// let mut a = CorrelationMatrix::zeros(3);
/// a.set(0, 1, 10);
/// let mut b = CorrelationMatrix::zeros(3);
/// b.set(1, 2, 10);
/// assert_eq!(correlation_delta(&a, &a), 0.0);
/// assert_eq!(correlation_delta(&a, &b), 1.0); // sharing moved entirely
/// ```
pub fn correlation_delta(a: &CorrelationMatrix, b: &CorrelationMatrix) -> f64 {
    assert_eq!(
        a.num_threads(),
        b.num_threads(),
        "matrices must cover the same threads"
    );
    let mut diff = 0u64;
    let mut mass = 0u64;
    for (x, y, va) in a.pairs() {
        let vb = b.get(x, y);
        diff += va.abs_diff(vb);
        mass += va + vb;
    }
    normalized_divergence(diff, mass)
}

/// The one `f64` step of every divergence: the summed absolute difference
/// over the summed mass, 0 for no mass. Every backend sums the same `u64`s
/// and ends here, so their results are bit-identical.
pub(crate) fn normalized_divergence(diff: u64, mass: u64) -> f64 {
    if mass == 0 {
        0.0
    } else {
        (diff as f64 / mass as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(n: usize, a: usize, b: usize, v: u64) -> CorrelationMatrix {
        let mut m = CorrelationMatrix::zeros(n);
        m.set(a, b, v);
        m
    }

    #[test]
    fn identical_matrices_have_zero_delta() {
        let m = pair(4, 0, 1, 7);
        assert_eq!(correlation_delta(&m, &m), 0.0);
    }

    #[test]
    fn disjoint_sharing_has_delta_one() {
        let a = pair(4, 0, 1, 7);
        let b = pair(4, 2, 3, 7);
        assert_eq!(correlation_delta(&a, &b), 1.0);
    }

    #[test]
    fn intensity_change_is_a_small_delta() {
        // Same structure, 20% stronger: delta = 2/22 ≈ 0.09.
        let a = pair(4, 0, 1, 10);
        let b = pair(4, 0, 1, 12);
        let d = correlation_delta(&a, &b);
        assert!(d < 0.1, "{d}");
    }

    #[test]
    fn partial_rotation_is_intermediate() {
        let mut a = CorrelationMatrix::zeros(6);
        a.set(0, 1, 10);
        a.set(2, 3, 10);
        let mut b = CorrelationMatrix::zeros(6);
        b.set(0, 1, 10); // kept
        b.set(4, 5, 10); // moved
        let d = correlation_delta(&a, &b);
        assert!((d - 0.5).abs() < 1e-12, "{d}");
    }

    #[test]
    fn empty_matrices_do_not_divide_by_zero() {
        let a = CorrelationMatrix::zeros(4);
        assert_eq!(correlation_delta(&a, &a), 0.0);
    }

    #[test]
    fn delta_is_symmetric() {
        let a = pair(5, 0, 2, 9);
        let b = pair(5, 1, 3, 4);
        assert_eq!(correlation_delta(&a, &b), correlation_delta(&b, &a));
    }

    #[test]
    #[should_panic(expected = "same threads")]
    fn size_mismatch_panics() {
        correlation_delta(&CorrelationMatrix::zeros(3), &CorrelationMatrix::zeros(4));
    }
}
