//! Aging of correlation information.
//!
//! §1 of the paper notes that systems tracking access sets over time
//! *"accommodate changes in sharing patterns through the use of an aging
//! mechanism"*, and §7 plans to rely on periodic re-tracking for dynamic
//! applications. [`AgedCorrelation`] implements the standard exponential
//! decay: each new tracking round contributes fully while older rounds fade
//! geometrically, so a phase change overtakes stale affinities after a few
//! rounds.

use crate::correlation::CorrelationMatrix;
use std::fmt;

/// An exponentially aged accumulation of correlation matrices.
///
/// ```
/// use acorr_track::{AgedCorrelation, CorrelationMatrix};
/// let mut aged = AgedCorrelation::new(2, 0.5);
/// let mut phase = CorrelationMatrix::zeros(2);
/// phase.set(0, 1, 100);
/// aged.observe(&phase);
/// assert_eq!(aged.snapshot().get(0, 1), 100);
/// aged.observe(&CorrelationMatrix::zeros(2)); // sharing stopped
/// // Weighted history: (0*1 + 100*0.5) / (1 + 0.5) ≈ 33 — fading, not gone.
/// assert_eq!(aged.snapshot().get(0, 1), 33);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AgedCorrelation {
    n: usize,
    decay: f64,
    vals: Vec<f64>,
    rounds: usize,
}

impl AgedCorrelation {
    /// Creates an empty accumulator over `n` threads with retention factor
    /// `decay` in `[0, 1)`: after each new observation, old mass is worth
    /// `decay` of its previous weight (0 = only the latest round counts).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= decay < 1.0`.
    pub fn new(n: usize, decay: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&decay),
            "decay must be in [0, 1), got {decay}"
        );
        AgedCorrelation {
            n,
            decay,
            vals: vec![0.0; n * n],
            rounds: 0,
        }
    }

    /// Number of threads covered.
    pub fn num_threads(&self) -> usize {
        self.n
    }

    /// Number of observations folded in so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Folds in a new tracking round.
    ///
    /// # Panics
    ///
    /// Panics if the matrix covers a different thread count.
    pub fn observe(&mut self, round: &CorrelationMatrix) {
        assert_eq!(round.num_threads(), self.n, "thread counts differ");
        for a in 0..self.n {
            for b in 0..self.n {
                let idx = a * self.n + b;
                self.vals[idx] = self.vals[idx] * self.decay + round.get(a, b) as f64;
            }
        }
        self.rounds += 1;
    }

    /// The aged value for one pair.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn get(&self, a: usize, b: usize) -> f64 {
        assert!(a < self.n && b < self.n, "index out of range");
        self.vals[a * self.n + b]
    }

    /// Rounds the aged values into an integer [`CorrelationMatrix`] usable
    /// by the placement heuristics.
    pub fn snapshot(&self) -> CorrelationMatrix {
        let mut m = CorrelationMatrix::zeros(self.n);
        // Normalize by the geometric-series weight so a *stable* pattern
        // snapshots to its per-round magnitude regardless of round count.
        let weight: f64 = (0..self.rounds).map(|r| self.decay.powi(r as i32)).sum();
        let scale = if weight > 0.0 { 1.0 / weight } else { 0.0 };
        for a in 0..self.n {
            for b in a..self.n {
                m.set(a, b, (self.get(a, b) * scale).round() as u64);
            }
        }
        m
    }
}

impl fmt::Display for AgedCorrelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "aged correlation: {} threads, decay {}, {} rounds",
            self.n, self.decay, self.rounds
        )
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
    fn stable_pattern_snapshots_to_itself() {
        let mut aged = AgedCorrelation::new(3, 0.5);
        for _ in 0..10 {
            aged.observe(&pair(3, 0, 1, 40));
        }
        let snap = aged.snapshot();
        assert_eq!(snap.get(0, 1), 40);
        assert_eq!(snap.get(1, 2), 0);
        assert_eq!(aged.rounds(), 10);
    }

    #[test]
    fn phase_change_overtakes_old_affinity() {
        let mut aged = AgedCorrelation::new(3, 0.5);
        for _ in 0..5 {
            aged.observe(&pair(3, 0, 1, 100));
        }
        // Sharing moves from (0,1) to (1,2).
        for _ in 0..3 {
            aged.observe(&pair(3, 1, 2, 100));
        }
        assert!(
            aged.get(1, 2) > aged.get(0, 1),
            "new phase {} should dominate old {}",
            aged.get(1, 2),
            aged.get(0, 1)
        );
        assert!(aged.get(0, 1) > 0.0, "old affinity fades, not vanishes");
    }

    #[test]
    fn zero_decay_is_latest_round_only() {
        let mut aged = AgedCorrelation::new(2, 0.0);
        aged.observe(&pair(2, 0, 1, 77));
        aged.observe(&pair(2, 0, 1, 3));
        assert_eq!(aged.snapshot().get(0, 1), 3);
    }

    #[test]
    fn empty_accumulator_snapshots_to_zero() {
        let aged = AgedCorrelation::new(2, 0.9);
        assert_eq!(aged.snapshot().get(0, 1), 0);
    }

    #[test]
    #[should_panic(expected = "decay must be in [0, 1)")]
    fn decay_of_one_rejected() {
        AgedCorrelation::new(2, 1.0);
    }

    #[test]
    #[should_panic(expected = "thread counts differ")]
    fn mismatched_observation_rejected() {
        AgedCorrelation::new(2, 0.5).observe(&CorrelationMatrix::zeros(3));
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn get_out_of_range_panics() {
        let mut aged = AgedCorrelation::new(4, 0.5);
        aged.observe(&pair(4, 1, 0, 9));
        aged.get(0, 4);
    }

    #[test]
    fn display_summarizes() {
        let aged = AgedCorrelation::new(4, 0.25);
        assert!(aged.to_string().contains("4 threads"));
    }
}
