//! Decision-point queues for controllable scheduling.
//!
//! A deterministic engine occasionally reaches a point where several
//! outcomes are all legal — which ready thread to dispatch next, which
//! queued waiter receives a released lock. The engine's built-in policy is
//! always choice `0` (FIFO); a schedule explorer instead *prescribes* the
//! choices up front. A [`DecisionQueue`] holds that prescription: a finite
//! prefix of explicit choices, then a tail policy (the default choice `0`,
//! or a forked [`DetRng`] stream for seeded random exploration).
//!
//! The queue logs every answer it gives as a [`DecisionRecord`], so the
//! party it steers needs no bookkeeping of its own: after a run,
//! [`DecisionQueue::log`] *is* the concrete schedule, and replaying its
//! `chosen` column as a fresh prefix reproduces the run — which is what
//! makes a failing random run replayable and shrinkable.
//!
//! ```
//! use acorr_sim::{DecisionQueue, DetRng};
//!
//! let mut q = DecisionQueue::new(vec![2, 0], None);
//! assert_eq!(q.next(3), 2); // prescribed
//! assert_eq!(q.next(3), 0); // prescribed
//! assert_eq!(q.next(3), 0); // past the prefix: default
//! assert_eq!(q.log().len(), 3);
//!
//! let mut r = DecisionQueue::new(vec![], Some(DetRng::new(7)));
//! assert!(r.next(4) < 4); // past the prefix: seeded random
//! ```

use crate::rng::DetRng;
use std::collections::VecDeque;

/// One consulted decision point: how many alternatives were available and
/// which was taken. A sequence of records *is* a schedule — replaying the
/// `chosen` column through a fresh [`DecisionQueue`] reproduces the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Number of legal alternatives at this point (the engine consults
    /// only points with at least two).
    pub alternatives: u32,
    /// Index chosen, in `0..alternatives`; `0` is the engine's default.
    pub chosen: u32,
}

/// A prescription of scheduling choices (explicit prefix, then a tail) and
/// the log of the choices it has answered.
#[derive(Debug, Clone)]
pub struct DecisionQueue {
    prefix: VecDeque<u32>,
    tail: Option<DetRng>,
    log: Vec<DecisionRecord>,
}

impl DecisionQueue {
    /// Creates a queue that yields `prefix` first, then falls back to the
    /// default choice `0` — or, when `tail_rng` is given, to uniformly
    /// random choices drawn from that stream.
    pub fn new(prefix: Vec<u32>, tail_rng: Option<DetRng>) -> Self {
        DecisionQueue {
            prefix: prefix.into(),
            tail: tail_rng,
            log: Vec::new(),
        }
    }

    /// Returns the next choice among `alternatives` options and logs it.
    /// Prescribed choices beyond the range are clamped to the last
    /// alternative, so a stale prefix (replayed against a slightly different
    /// run) degrades gracefully instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics if `alternatives` is zero — a decision point with no options
    /// is a caller bug.
    pub fn next(&mut self, alternatives: usize) -> usize {
        assert!(alternatives > 0, "decision point with no alternatives");
        let choice = match self.prefix.pop_front() {
            Some(c) => (c as usize).min(alternatives - 1),
            None => match &mut self.tail {
                Some(rng) => rng.index(alternatives),
                None => 0,
            },
        };
        self.log.push(DecisionRecord {
            alternatives: alternatives as u32,
            chosen: choice as u32,
        });
        choice
    }

    /// Every choice answered so far, in order.
    pub fn log(&self) -> &[DecisionRecord] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_then_default_tail() {
        let mut q = DecisionQueue::new(vec![1, 3, 0], None);
        assert_eq!(q.next(2), 1);
        assert_eq!(q.next(2), 1); // 3 clamped to alternatives-1
        assert_eq!(q.next(5), 0);
        for n in 1..5 {
            assert_eq!(q.next(n), 0, "default tail is always 0");
        }
    }

    #[test]
    fn every_answer_is_logged_as_given() {
        let mut q = DecisionQueue::new(vec![1, 5], None);
        assert_eq!(q.next(3), 1); // prescribed
        assert_eq!(q.next(3), 2); // 5 clamped to alternatives-1
        assert_eq!(q.next(3), 0); // default tail
        let logged: Vec<(u32, u32)> = q.log().iter().map(|r| (r.alternatives, r.chosen)).collect();
        assert_eq!(logged, vec![(3, 1), (3, 2), (3, 0)]);
    }

    #[test]
    fn replaying_a_random_log_reproduces_its_answers() {
        let points = [4usize, 2, 7, 3, 2];
        let mut random = DecisionQueue::new(vec![], Some(DetRng::new(42)));
        let first: Vec<usize> = points.iter().map(|&n| random.next(n)).collect();
        let concrete = random.log().iter().map(|r| r.chosen).collect();
        let mut replay = DecisionQueue::new(concrete, None);
        let second: Vec<usize> = points.iter().map(|&n| replay.next(n)).collect();
        assert_eq!(first, second);
        assert_eq!(replay.log(), random.log());
    }

    #[test]
    fn random_tail_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut q = DecisionQueue::new(vec![], Some(DetRng::new(seed)));
            (0..32).map(|_| q.next(7)).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
        assert!(draw(9).iter().all(|&c| c < 7));
    }

    #[test]
    #[should_panic(expected = "no alternatives")]
    fn zero_alternatives_panics() {
        DecisionQueue::new(vec![], None).next(0);
    }
}
