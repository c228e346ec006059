//! Aging of correlation information.
//!
//! §1 of the paper notes that systems tracking access sets over time
//! *"accommodate changes in sharing patterns through the use of an aging
//! mechanism"*, and §7 plans to rely on periodic re-tracking for dynamic
//! applications. [`AgedCorrelation`] implements the standard exponential
//! decay: each new tracking round contributes fully while older rounds fade
//! geometrically, so a phase change overtakes stale affinities after a few
//! rounds.
//!
//! It also measures drift. §7 plans periodic re-tracking — but *when* to
//! re-track? Re-tracking on a schedule wastes tracked iterations while the
//! pattern is stable and lags when it shifts.
//! [`fold_window`](AgedCorrelation::fold_window) returns how far a window
//! of rounds diverges from the aged baseline before folding it in, so a
//! runtime can re-track (and re-place) only when cheap observations stop
//! resembling it. The firing decision on top of that (threshold and
//! hysteresis) is [`PhaseDetector`](crate::PhaseDetector).
//!
//! The store keeps the flat CSR rows of [`CorrelationMatrix`] with `f64`
//! values. Per pair, every fold applies `val·decay + round`; pairs absent
//! from both sides are exact zeros under that recurrence, so dropping them
//! is lossless, and an edge only leaves the rows when decay underflows it
//! to exactly `0.0`.

use crate::correlation::{for_each_union, CorrelationMatrix, Rows};
use std::fmt;

/// The divergence of two stores from their summed absolute off-diagonal
/// difference and summed off-diagonal mass: in `[0, 1]`, 0 for identical
/// stores (or no mass), 1 for disjoint sharing.
fn normalized_divergence(diff: u64, mass: u64) -> f64 {
    if mass == 0 {
        0.0
    } else {
        (diff as f64 / mass as f64).min(1.0)
    }
}

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
    rounds: usize,
    /// The snapshot normalizer `Σ decay^r` over the rounds folded so far,
    /// kept running so a close costs no pass over the round count.
    weight: f64,
    diag: Vec<f64>,
    rows: Rows<f64>,
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
            rounds: 0,
            weight: 0.0,
            diag: vec![0.0; n],
            rows: Rows::empty(n),
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

    /// The aged value for one pair.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn get(&self, a: usize, b: usize) -> f64 {
        assert!(a < self.n && b < self.n, "index out of range");
        if a == b {
            self.diag[a]
        } else {
            self.rows.find(a, b).unwrap_or(0.0)
        }
    }

    /// Number of pairs currently held.
    pub fn edge_count(&self) -> usize {
        self.rows.pairs()
    }

    /// The factor that normalizes aged values by the geometric-series
    /// weight, so a *stable* pattern snapshots to its per-round magnitude
    /// regardless of round count.
    fn scale(&self) -> f64 {
        if self.weight > 0.0 {
            1.0 / self.weight
        } else {
            0.0
        }
    }

    /// Folds in a new tracking round.
    ///
    /// # Panics
    ///
    /// Panics if the matrix covers a different thread count.
    pub fn observe(&mut self, round: &CorrelationMatrix) {
        self.fold_window(None, round);
    }

    /// Rounds the aged values into an integer [`CorrelationMatrix`] usable
    /// by the placement heuristics: each value times the normalizer,
    /// rounded, with pairs that round to zero dropped.
    pub fn snapshot(&self) -> CorrelationMatrix {
        let scale = self.scale();
        let round = |v: f64| (v * scale).round() as u64;
        let diag = self.diag.iter().map(|&d| round(d)).collect();
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut entries = Vec::with_capacity(self.rows.entries.len());
        offsets.push(0);
        for row in self.rows.iter() {
            let rounded = row.iter().map(|&(u, v)| (u, round(v)));
            entries.extend(rounded.filter(|e| e.1 != 0));
            offsets.push(entries.len());
        }
        CorrelationMatrix::from_rows(diag, Rows { offsets, entries })
    }

    /// Closes a detector window in one pass: the window is `open + last`
    /// (`last` alone without `open`). Returns the normalized divergence of
    /// the rounded [`snapshot`](AgedCorrelation::snapshot) before the fold
    /// from the window, then folds the window in as one round:
    ///
    /// * the snapshot rounds `val / Σ decay^r` per pair, and the diff and
    ///   mass sums are `u64`, so summing them during the walk gives what
    ///   taking the snapshot first would;
    /// * the fold writes `val·decay + (open + last)` per pair, with the
    ///   `u64` add done first, as merging the rounds would. Pairs the
    ///   decay underflows to exactly `0.0` are dropped.
    ///
    /// # Panics
    ///
    /// Panics if a round covers a different thread count.
    pub fn fold_window(
        &mut self,
        open: Option<&CorrelationMatrix>,
        last: &CorrelationMatrix,
    ) -> f64 {
        for round in open.into_iter().chain([last]) {
            assert_eq!(round.num_threads(), self.n, "thread counts differ");
        }
        let decay = self.decay;
        let scale = self.scale();
        for (t, d) in self.diag.iter_mut().enumerate() {
            let w = last.diag[t] + open.map_or(0, |o| o.diag[t]);
            *d = *d * decay + w as f64;
        }
        let (mut diff, mut mass) = (0u64, 0u64);
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut entries = Vec::with_capacity(self.rows.entries.len().max(last.rows.entries.len()));
        offsets.push(0);
        let mut open_rows = open.into_iter().flat_map(|o| o.rows.iter());
        for (t, (aged, last_row)) in self.rows.iter().zip(last.rows.iter()).enumerate() {
            // One pair: `val` is its aged value (0.0 when absent), `w` its
            // window value. Each pair is summed once, from its lower row.
            let mut fold = |u: u32, val: f64, w: u64| {
                if u as usize > t {
                    let snap = (val * scale).round() as u64;
                    diff += snap.abs_diff(w);
                    mass += snap + w;
                }
                let next = val * decay + w as f64;
                if next != 0.0 {
                    entries.push((u, next));
                }
            };
            // The window row streams out of the open/last union in partner
            // order; aged partners below each window partner go first.
            let mut i = 0;
            let open_row = open_rows.next().unwrap_or(&[]);
            for_each_union(open_row, last_row, |u, o, l| {
                while let Some(&(p, val)) = aged.get(i).filter(|e| e.0 < u) {
                    fold(p, val, 0);
                    i += 1;
                }
                let val = match aged.get(i) {
                    Some(&(p, val)) if p == u => {
                        i += 1;
                        val
                    }
                    _ => 0.0,
                };
                fold(u, val, o.unwrap_or(0) + l.unwrap_or(0));
            });
            for &(p, val) in &aged[i..] {
                fold(p, val, 0);
            }
            offsets.push(entries.len());
        }
        self.rows = Rows { offsets, entries };
        // The same terms in the same order as summing from round 0, with
        // the exponent saturated instead of wrapping past `i32::MAX`.
        self.weight += decay.powi(self.rounds.min(i32::MAX as usize) as i32);
        self.rounds += 1;
        normalized_divergence(diff, mass)
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

    /// The divergence of `b` from `a`: at decay 0 the baseline is exactly
    /// the previous window.
    fn delta(a: &CorrelationMatrix, b: &CorrelationMatrix) -> f64 {
        let mut aged = AgedCorrelation::new(a.num_threads(), 0.0);
        aged.fold_window(None, a);
        aged.fold_window(None, b)
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
    #[should_panic(expected = "thread counts differ")]
    fn fold_of_a_mismatched_open_round_panics() {
        let last = CorrelationMatrix::zeros(4);
        AgedCorrelation::new(4, 0.5).fold_window(Some(&CorrelationMatrix::zeros(3)), &last);
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn get_out_of_range_panics() {
        let mut aged = AgedCorrelation::new(4, 0.5);
        aged.observe(&pair(4, 1, 0, 9));
        aged.get(0, 4);
    }

    /// Also on a store that holds no rows yet.
    #[test]
    #[should_panic(expected = "index out of range")]
    fn aged_get_out_of_range_panics() {
        AgedCorrelation::new(4, 0.5).get(0, 99);
    }

    #[test]
    fn display_summarizes() {
        let aged = AgedCorrelation::new(4, 0.25);
        assert!(aged.to_string().contains("4 threads"));
    }

    #[test]
    fn identical_matrices_have_zero_delta() {
        let m = pair(4, 0, 1, 7);
        assert_eq!(delta(&m, &m), 0.0);
    }

    #[test]
    fn disjoint_sharing_has_delta_one() {
        assert_eq!(delta(&pair(4, 0, 1, 7), &pair(4, 2, 3, 7)), 1.0);
    }

    #[test]
    fn intensity_change_is_a_small_delta() {
        // Same structure, 20% stronger: delta = 2/22 ≈ 0.09.
        let d = delta(&pair(4, 0, 1, 10), &pair(4, 0, 1, 12));
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
        let d = delta(&a, &b);
        assert!((d - 0.5).abs() < 1e-12, "{d}");
    }

    #[test]
    fn empty_matrices_do_not_divide_by_zero() {
        let a = CorrelationMatrix::zeros(4);
        assert_eq!(delta(&a, &a), 0.0);
    }

    #[test]
    fn delta_is_symmetric() {
        let a = pair(5, 0, 2, 9);
        let b = pair(5, 1, 3, 4);
        assert_eq!(delta(&a, &b), delta(&b, &a));
    }

    #[test]
    #[should_panic(expected = "thread counts differ")]
    fn size_mismatch_panics() {
        delta(&CorrelationMatrix::zeros(3), &CorrelationMatrix::zeros(4));
    }

    #[test]
    fn aged_keeps_decayed_edges() {
        let mut aged = AgedCorrelation::new(4, 0.5);
        aged.fold_window(None, &pair(4, 0, 1, 100));
        let quiet = CorrelationMatrix::zeros(4);
        for _ in 0..20 {
            aged.fold_window(Some(&quiet), &quiet);
        }
        assert_eq!(aged.edge_count(), 1, "still decaying, still held");
        assert!(aged.get(0, 1) > 0.0);
    }

    #[test]
    fn aged_underflow_drop_is_exact() {
        // Exact-zero drops are lossless: 0.0 is absorbing under the
        // recurrence.
        let mut aged = AgedCorrelation::new(2, 0.0);
        aged.fold_window(None, &pair(2, 0, 1, 7));
        assert_eq!(aged.edge_count(), 1);
        // decay = 0.0 underflows the edge on the next quiet round.
        aged.fold_window(None, &CorrelationMatrix::zeros(2));
        assert_eq!(aged.edge_count(), 0);
        assert_eq!(aged.get(0, 1), 0.0);
    }

    #[test]
    fn running_weight_matches_the_sum_from_round_zero() {
        let quiet = CorrelationMatrix::zeros(1);
        for decay in [0.0, 0.25, 0.5, 0.9, 0.999] {
            let mut aged = AgedCorrelation::new(1, decay);
            for rounds in 1..=10_000usize {
                aged.fold_window(None, &quiet);
                // The sum from round 0, checked where it stays cheap.
                if rounds <= 100 || rounds % 997 == 0 || rounds == 10_000 {
                    let sum: f64 = (0..rounds).map(|r| decay.powi(r as i32)).sum();
                    assert_eq!(
                        aged.weight.to_bits(),
                        sum.to_bits(),
                        "decay {decay}, {rounds} rounds"
                    );
                }
            }
        }
    }

    #[test]
    fn running_weight_saturates_instead_of_wrapping() {
        // A stable service past 2^31 closes: a wrapping exponent would add
        // 0.5^-(2^31) = inf, the snapshot would read zero and the next
        // close would report a full divergence.
        let round = pair(2, 0, 1, 10);
        let mut aged = AgedCorrelation::new(2, 0.5);
        for _ in 0..64 {
            aged.fold_window(None, &round);
        }
        aged.rounds = i32::MAX as usize + 1;
        for _ in 0..2 {
            assert_eq!(aged.fold_window(None, &round), 0.0, "no spurious shift");
            assert!(aged.weight.is_finite());
        }
    }

    #[test]
    fn snapshot_past_the_saturation_point_reads_the_stable_pattern() {
        let round = pair(2, 0, 1, 10);
        let mut aged = AgedCorrelation::new(2, 0.5);
        for _ in 0..64 {
            aged.observe(&round);
        }
        aged.rounds = i32::MAX as usize + 1;
        aged.observe(&round);
        assert_eq!(aged.rounds(), i32::MAX as usize + 2);
        assert_eq!(aged.snapshot(), round, "the stable pattern, not zero");
    }
}
