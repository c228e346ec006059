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
//! [`observe`](AgedCorrelation::observe) returns how far a round diverges
//! from the aged baseline before folding it in, so a runtime can re-track
//! (and re-place) only when cheap observations stop resembling it. The
//! firing decision on top of that (tumbling windows, threshold and
//! hysteresis) is [`PhaseDetector`](crate::PhaseDetector), which closes a
//! window of rounds given as pair lists through the same fold.
//!
//! The baseline holds each pair once, as one pair list (see
//! [`correlation`](crate::correlation)) with `f64` values, beside a dense
//! diagonal that stays unallocated until a round brings a non-zero one.
//! Per pair, every fold applies `val·decay + round`; pairs absent from
//! both sides are exact zeros under that recurrence, so dropping them is
//! lossless, and a pair only leaves the list when decay underflows it to
//! exactly `0.0`. A fold is one merge of three ascending streams: the
//! baseline, the detector's open window and the window's last round.
//! [`snapshot`](AgedCorrelation::snapshot) mirrors the list once into the
//! [`CorrelationMatrix`] the placement heuristics read.

use crate::correlation::{union_pairs, CorrelationMatrix, Pair};
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
/// let phase = CorrelationMatrix::from_edges(2, [(0, 1, 100)]);
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
    /// Each thread's aged own-page value; empty while every one is zero,
    /// as in a detector's baseline, whose rounds carry no diagonal.
    diag: Vec<f64>,
    /// Each non-zero pair once, ascending by `(a, b)` with `a < b`.
    pairs: Vec<(u32, u32, f64)>,
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
            diag: Vec::new(),
            pairs: Vec::new(),
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
            return self.diag.get(a).copied().unwrap_or(0.0);
        }
        let key = (a.min(b) as u32, a.max(b) as u32);
        self.pairs
            .binary_search_by_key(&key, |&(p, q, _)| (p, q))
            .map_or(0.0, |i| self.pairs[i].2)
    }

    /// Number of pairs currently held.
    pub fn edge_count(&self) -> usize {
        self.pairs.len()
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

    /// Folds in a new tracking round, streaming the store's pairs, and
    /// returns the normalized divergence of the rounded
    /// [`snapshot`](AgedCorrelation::snapshot) before the fold from the
    /// round: in `[0, 1]`, 0 for the same pairs (or no mass), 1 for
    /// disjoint sharing. The diagonal is folded in but never compared.
    ///
    /// # Panics
    ///
    /// Panics if the matrix covers a different thread count.
    pub fn observe(&mut self, round: &CorrelationMatrix) -> f64 {
        assert_eq!(round.num_threads(), self.n, "thread counts differ");
        let delta = self.fold(&[], round.edges());
        self.add_diagonal(round.diag.iter().enumerate().map(|(t, &w)| (t, w)));
        delta
    }

    /// Rounds the aged values into an integer [`CorrelationMatrix`] usable
    /// by the placement heuristics: each value times the normalizer,
    /// rounded, with pairs that round to zero dropped.
    pub fn snapshot(&self) -> CorrelationMatrix {
        let scale = self.scale();
        let round = move |v: f64| (v * scale).round() as u64;
        let diag = match self.diag.as_slice() {
            [] => vec![0; self.n],
            diag => diag.iter().map(|&d| round(d)).collect(),
        };
        let pairs = self.pairs.iter().map(move |&(a, b, v)| (a, b, round(v)));
        CorrelationMatrix::from_pairs(diag, pairs.filter(|p| p.2 != 0))
    }

    /// Closes a window given as canonical pair lists, `open + last`, in one
    /// merge of the baseline with the window's two parts: returns the
    /// window's divergence from the snapshot before the fold, as
    /// [`observe`](AgedCorrelation::observe) does for a round, then folds
    /// the window in as one round. Decays the diagonal, which the caller
    /// then adds the window's diagonal to, if it has one:
    ///
    /// * the snapshot rounds `val / Σ decay^r` per pair, and the diff and
    ///   mass sums are `u64`, so summing them during the merge gives what
    ///   taking the snapshot first would;
    /// * the fold writes `val·decay + (open + last)` per pair, with the
    ///   `u64` add done first, as one store of the window's rounds would
    ///   hold it. Pairs the decay underflows to exactly `0.0` are dropped.
    pub(crate) fn fold(&mut self, open: &[Pair], last: impl Iterator<Item = Pair>) -> f64 {
        let decay = self.decay;
        let scale = self.scale();
        self.diag.iter_mut().for_each(|d| *d *= decay);
        let (mut diff, mut mass) = (0u64, 0u64);
        let aged = std::mem::take(&mut self.pairs);
        let mut next = Vec::with_capacity(aged.len().max(open.len()));
        // One pair: `val` is its aged value (0.0 when absent), `w` its
        // window value.
        let mut fold = |a: u32, b: u32, val: f64, w: u64| {
            let snap = (val * scale).round() as u64;
            diff += snap.abs_diff(w);
            mass += snap + w;
            let v = val * decay + w as f64;
            if v != 0.0 {
                next.push((a, b, v));
            }
        };
        // The window streams out of the open/last union in pair order;
        // aged pairs below each window pair go first.
        let mut i = 0;
        for (a, b, w) in union_pairs(open.iter().copied(), last) {
            while let Some(&(p, q, val)) = aged.get(i).filter(|e| (e.0, e.1) < (a, b)) {
                fold(p, q, val, 0);
                i += 1;
            }
            let val = match aged.get(i) {
                Some(&(p, q, val)) if (p, q) == (a, b) => {
                    i += 1;
                    val
                }
                _ => 0.0,
            };
            fold(a, b, val, w);
        }
        for &(p, q, val) in &aged[i..] {
            fold(p, q, val, 0);
        }
        self.pairs = next;
        // The same terms in the same order as summing from round 0, with
        // the exponent saturated instead of wrapping past `i32::MAX`.
        self.weight += decay.powi(self.rounds.min(i32::MAX as usize) as i32);
        self.rounds += 1;
        normalized_divergence(diff, mass)
    }

    /// Adds a folded round's diagonal values `(t, w)` onto the decayed
    /// diagonal, allocating it at the first non-zero one.
    fn add_diagonal(&mut self, own: impl Iterator<Item = (usize, u64)>) {
        for (t, w) in own.filter(|&(_, w)| w != 0) {
            if self.diag.is_empty() {
                self.diag = vec![0.0; self.n];
            }
            self.diag[t] += w as f64;
        }
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

    fn pair(n: usize, a: u32, b: u32, v: u64) -> CorrelationMatrix {
        CorrelationMatrix::from_edges(n, [(a, b, v)])
    }

    /// The divergence of `b` from `a`: at decay 0 the baseline is exactly
    /// the previous window.
    fn delta(a: &CorrelationMatrix, b: &CorrelationMatrix) -> f64 {
        let mut aged = AgedCorrelation::new(a.num_threads(), 0.0);
        aged.observe(a);
        aged.observe(b)
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
        let a = CorrelationMatrix::from_edges(6, [(0, 1, 10), (2, 3, 10)]);
        // (0, 1) kept, (2, 3) moved to (4, 5).
        let b = CorrelationMatrix::from_edges(6, [(0, 1, 10), (4, 5, 10)]);
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
        aged.observe(&pair(4, 0, 1, 100));
        for _ in 0..20 {
            aged.observe(&CorrelationMatrix::zeros(4));
        }
        assert_eq!(aged.edge_count(), 1, "still decaying, still held");
        assert!(aged.get(0, 1) > 0.0);
    }

    #[test]
    fn aged_underflow_drop_is_exact() {
        // Exact-zero drops are lossless: 0.0 is absorbing under the
        // recurrence.
        let mut aged = AgedCorrelation::new(2, 0.0);
        aged.observe(&pair(2, 0, 1, 7));
        assert_eq!(aged.edge_count(), 1);
        // decay = 0.0 underflows the edge on the next quiet round.
        aged.observe(&CorrelationMatrix::zeros(2));
        assert_eq!(aged.edge_count(), 0);
        assert_eq!(aged.get(0, 1), 0.0);
    }

    #[test]
    fn running_weight_matches_the_sum_from_round_zero() {
        let quiet = CorrelationMatrix::zeros(1);
        for decay in [0.0, 0.25, 0.5, 0.9, 0.999] {
            let mut aged = AgedCorrelation::new(1, decay);
            for rounds in 1..=10_000usize {
                aged.observe(&quiet);
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
            aged.observe(&round);
        }
        aged.rounds = i32::MAX as usize + 1;
        for _ in 0..2 {
            assert_eq!(aged.observe(&round), 0.0, "no spurious shift");
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
