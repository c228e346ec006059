//! Windowed correlation phase-change detection.
//!
//! ROADMAP's online re-mapping trigger needs to know *when* an
//! application's sharing pattern shifts. This module folds a stream of
//! per-unit correlation observations (one per tracked iteration or per
//! barrier interval) into tumbling windows, compares each closed window
//! against an exponentially aged baseline of the preceding windows
//! (§7's aging), and fires a [`PhaseShiftMark`] when the normalized
//! divergence crosses a threshold — with hysteresis, so a sustained new
//! phase fires once instead of every window.
//!
//! The 64-thread adaptive study, `acorr analyze` and the 10⁵-thread serve
//! loop run the same detector over the one [`CorrelationMatrix`] store. A
//! window close is one [`AgedCorrelation::fold_window`] call. The detector
//! copies a window's first round and never merges its last, so a close
//! allocates no store.
//!
//! Thresholds are carried in parts-per-million so detection is a pure
//! integer comparison on a deterministically rounded delta: the same event
//! stream always yields the same shifts.

use crate::aging::AgedCorrelation;
use crate::correlation::CorrelationMatrix;
use std::marker::PhantomData;

/// Default firing threshold: delta ≥ 0.35. Intensity wiggle stays below
/// 0.3; a structural rotation lands well above it.
pub const DEFAULT_THRESHOLD_PPM: u64 = 350_000;
/// Default re-arm threshold: delta ≤ 0.15 means the pattern has settled.
pub const DEFAULT_REARM_PPM: u64 = 150_000;
/// Default baseline decay: each older window weighs half as much.
pub const DEFAULT_DECAY: f64 = 0.5;

/// One detected phase change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseShiftMark {
    /// Ordinal of the window whose close fired the detection (0-based).
    pub window: u64,
    /// The divergence that fired it, parts-per-million of full rotation.
    pub delta_ppm: u64,
}

/// Tumbling-window phase-change detector with hysteresis.
///
/// `C` is unused: it only keeps the benchmark's `PhaseDetector::<SparseCorrelation>` compiling.
#[derive(Debug)]
pub struct PhaseDetector<C = CorrelationMatrix> {
    window: usize,
    threshold_ppm: u64,
    rearm_ppm: u64,
    aged: AgedCorrelation,
    /// The open window's rounds but its last. Between windows it holds
    /// stale rounds, which the next window's first round overwrites.
    cur: CorrelationMatrix,
    in_window: usize,
    windows_closed: u64,
    /// Whether the baseline holds at least one full window.
    primed: bool,
    /// Hysteresis state: a firing disarms; settling re-arms.
    armed: bool,
    shifts: Vec<PhaseShiftMark>,
    store: PhantomData<C>,
}

impl PhaseDetector {
    /// A detector over `threads` threads closing a window every `window`
    /// observations (clamped to ≥ 1), with the default thresholds.
    pub fn new(threads: usize, window: usize) -> Self {
        PhaseDetector::with_thresholds(
            threads,
            window,
            DEFAULT_THRESHOLD_PPM,
            DEFAULT_REARM_PPM,
            DEFAULT_DECAY,
        )
    }

    /// A detector with explicit firing/re-arm thresholds (ppm) and baseline
    /// decay.
    pub fn with_thresholds(
        threads: usize,
        window: usize,
        threshold_ppm: u64,
        rearm_ppm: u64,
        decay: f64,
    ) -> Self {
        PhaseDetector {
            window: window.max(1),
            threshold_ppm,
            rearm_ppm,
            aged: AgedCorrelation::new(threads, decay),
            cur: CorrelationMatrix::zeros(threads),
            in_window: 0,
            windows_closed: 0,
            primed: false,
            armed: true,
            shifts: Vec::new(),
            store: PhantomData,
        }
    }

    /// Observation units folded into the currently open window so far.
    pub fn pending(&self) -> usize {
        self.in_window
    }

    /// Windows closed so far.
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// Every shift detected so far, in firing order.
    pub fn shifts(&self) -> &[PhaseShiftMark] {
        &self.shifts
    }

    /// Folds one observation unit into the open window; when the window
    /// fills, closes it and returns the shift it fired, if any.
    ///
    /// The window's first round is copied into the open-window store and
    /// later rounds are merged into it, except the last: a closing round
    /// goes straight to [`AgedCorrelation::fold_window`] beside the open
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `round` covers a different thread count.
    pub fn observe(&mut self, round: &CorrelationMatrix) -> Option<PhaseShiftMark> {
        assert_eq!(
            round.num_threads(),
            self.cur.num_threads(),
            "thread counts differ"
        );
        self.in_window += 1;
        if self.in_window == self.window {
            let open = (self.in_window > 1).then_some(&self.cur);
            let delta = self.aged.fold_window(open, round);
            return self.close_window(delta);
        }
        if self.in_window == 1 {
            self.cur.clone_from(round);
        } else {
            self.cur.merge(round);
        }
        None
    }

    /// Closes the open window regardless of fill (used at end of stream for
    /// a final partial window). Empty windows are a no-op.
    pub fn flush(&mut self) -> Option<PhaseShiftMark> {
        if self.in_window == 0 {
            return None;
        }
        let delta = self.aged.fold_window(None, &self.cur);
        self.close_window(delta)
    }

    /// Applies the closed window's divergence from the baseline (`delta`,
    /// meaningful once the baseline is primed) to the hysteresis state.
    fn close_window(&mut self, delta: f64) -> Option<PhaseShiftMark> {
        let ordinal = self.windows_closed;
        let mut fired = None;
        if self.primed {
            let ppm = (delta * 1_000_000.0).round() as u64;
            if self.armed && ppm >= self.threshold_ppm {
                let mark = PhaseShiftMark {
                    window: ordinal,
                    delta_ppm: ppm,
                };
                self.shifts.push(mark);
                self.armed = false;
                fired = Some(mark);
            } else if !self.armed && ppm <= self.rearm_ppm {
                self.armed = true;
            }
        }
        self.primed = true;
        self.in_window = 0;
        self.windows_closed += 1;
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A store with neighbor pairs sharing, rotated by `offset`.
    fn pattern(threads: usize, offset: usize) -> CorrelationMatrix {
        let mut m = CorrelationMatrix::zeros(threads);
        for t in (0..threads - 1).step_by(2) {
            let a = (t + offset) % threads;
            let b = (t + 1 + offset) % threads;
            if a != b {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                m.set(lo, hi, 10);
            }
        }
        m
    }

    #[test]
    fn stable_pattern_never_fires() {
        let mut d = PhaseDetector::new(8, 4);
        for _ in 0..40 {
            assert!(d.observe(&pattern(8, 0)).is_none());
        }
        assert!(d.shifts().is_empty());
        assert_eq!(d.windows_closed(), 10);
    }

    #[test]
    fn rotation_fires_within_one_window() {
        let mut d = PhaseDetector::new(8, 4);
        // Three stable windows build the baseline.
        for _ in 0..12 {
            assert!(d.observe(&pattern(8, 0)).is_none());
        }
        // The pattern rotates; the window containing the shift fires.
        let mut fired = None;
        for _ in 0..4 {
            if let Some(mark) = d.observe(&pattern(8, 1)) {
                fired = Some(mark);
            }
        }
        let mark = fired.expect("rotation detected");
        assert_eq!(mark.window, 3, "fired at the first post-shift window");
        assert!(mark.delta_ppm >= DEFAULT_THRESHOLD_PPM);
    }

    #[test]
    fn hysteresis_fires_once_per_sustained_phase() {
        let mut d = PhaseDetector::new(8, 2);
        for _ in 0..6 {
            d.observe(&pattern(8, 0));
        }
        // New phase persists for many windows: exactly one firing until the
        // baseline absorbs it and the detector re-arms.
        let mut firings = 0;
        for _ in 0..20 {
            if d.observe(&pattern(8, 1)).is_some() {
                firings += 1;
            }
        }
        assert_eq!(firings, 1);
        // Once re-armed, a second rotation fires again.
        let mut second = 0;
        for _ in 0..20 {
            if d.observe(&pattern(8, 2)).is_some() {
                second += 1;
            }
        }
        assert_eq!(second, 1);
    }

    #[test]
    fn flush_closes_a_partial_window() {
        let mut d = PhaseDetector::new(8, 100);
        for _ in 0..3 {
            d.observe(&pattern(8, 0));
        }
        assert_eq!(d.pending(), 3);
        assert!(d.flush().is_none());
        assert_eq!(d.pending(), 0);
        assert_eq!(d.windows_closed(), 1);
        // A rotated partial window against the primed baseline fires.
        for _ in 0..3 {
            d.observe(&pattern(8, 1));
        }
        assert!(d.flush().is_some());
    }

    #[test]
    fn sparse_and_dense_backends_fire_identical_shifts() {
        // The paper's full-size thread count over a multi-phase stream: the
        // marks (window, delta ppm) are literals recorded from the dense
        // matrix detector the CSR store replaced. Window 1 at decay 0 is
        // the adaptive study's detector, window 2 serve's. Phases last 23
        // observations, so windows straddle phase changes, and 98
        // observations leave windows 3 and 4 a partial last window.
        type Marks = &'static [(u64, u64)];
        let pinned: [(usize, f64, Marks); 8] = [
            (1, 0.0, &[(23, 1_000_000), (46, 1_000_000), (92, 1_000_000)]),
            (1, 0.5, &[(23, 1_000_000), (46, 1_000_000), (92, 1_000_000)]),
            (2, 0.0, &[(11, 500_000), (23, 1_000_000), (46, 1_000_000)]),
            (2, 0.5, &[(11, 500_000), (23, 1_000_000), (46, 1_000_000)]),
            (3, 0.0, &[(8, 666_667), (15, 666_667), (31, 666_667)]),
            (3, 0.5, &[(8, 833_333), (15, 666_667), (31, 833_333)]),
            (4, 0.0, &[(6, 750_000), (11, 500_000), (23, 1_000_000)]),
            (4, 0.5, &[(6, 875_000), (11, 475_000), (23, 1_000_000)]),
        ];
        let threads = 64;
        for (window, decay, marks) in pinned {
            let (fire, rearm) = (DEFAULT_THRESHOLD_PPM, DEFAULT_REARM_PPM);
            let mut d = PhaseDetector::with_thresholds(threads, window, fire, rearm, decay);
            let mut fired = Vec::new();
            for i in 0..98 {
                let offset = (i / 23) % 3; // sustained phases
                fired.extend(d.observe(&pattern(threads, offset)));
            }
            assert_eq!(d.pending(), 98 % window);
            fired.extend(d.flush());
            let got: Vec<_> = fired.iter().map(|m| (m.window, m.delta_ppm)).collect();
            assert_eq!(got, marks, "window {window} decay {decay}");
            assert_eq!(d.shifts(), fired);
            assert_eq!(d.windows_closed(), 98u64.div_ceil(window as u64));
        }
    }

    #[test]
    #[should_panic(expected = "thread counts differ")]
    fn first_round_of_a_window_with_the_wrong_size_panics() {
        let mut d = PhaseDetector::new(8, 2);
        d.observe(&pattern(8, 0));
        d.observe(&pattern(8, 0));
        // The first round of the second window is only copied, not merged.
        d.observe(&pattern(6, 0));
    }

    #[test]
    fn sparse_store_rearms_and_refires_across_three_rotations() {
        // The fire → re-arm → fire cycle at a small thread count: three
        // scripted affinity rotations, each sustained long enough (six
        // windows, decay 0.5 ⇒ residual delta ≤ 0.15 after three stable
        // windows) for the detector to settle and re-arm before the next
        // rotation hits.
        let threads = 16;
        let mut d = PhaseDetector::new(threads, 2);
        for _ in 0..12 {
            assert!(d.observe(&pattern(threads, 0)).is_none(), "baseline");
        }
        let mut fired_windows = Vec::new();
        for offset in [1usize, 2, 3] {
            let mut fired_this_phase = 0;
            for _ in 0..12 {
                if let Some(mark) = d.observe(&pattern(threads, offset)) {
                    fired_this_phase += 1;
                    fired_windows.push(mark.window);
                }
            }
            assert_eq!(
                fired_this_phase, 1,
                "rotation to offset {offset} fires exactly once"
            );
        }
        assert_eq!(fired_windows.len(), 3, "fired, re-armed, fired again");
        assert!(
            fired_windows.windows(2).all(|w| w[0] < w[1]),
            "marks arrive in window order"
        );
        assert_eq!(d.shifts().len(), 3);
    }

    #[test]
    fn detection_is_deterministic() {
        let run = || {
            let mut d = PhaseDetector::new(8, 4);
            for i in 0..32 {
                let offset = usize::from(i >= 16);
                d.observe(&pattern(8, offset));
            }
            d.shifts().to_vec()
        };
        assert_eq!(run(), run());
    }
}
