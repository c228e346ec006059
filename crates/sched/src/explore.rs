//! Schedule-space exploration strategies and counterexample shrinking.
//!
//! An [`Explorer`] yields [`Schedule`]s to try, always starting with the
//! default schedule (the baseline every check compares against). Two modes:
//!
//! * **Random** — schedule `k` draws every decision uniformly from a
//!   stream derived from `(seed, k)`; cheap, embarrassingly parallel
//!   coverage of deep interleavings.
//! * **Systematic** — preemption-bounded breadth-first enumeration in the
//!   spirit of CHESS-style bounded model checking: after observing a run's
//!   decision log, every single-point deviation (`log[..i]` plus one
//!   non-chosen alternative at `i`) within the preemption bound joins the
//!   frontier. The bound counts non-default choices, so depth grows one
//!   deviation at a time and small bounds already cover the
//!   "one untimely preemption" bugs that dominate practice.
//! * **Model-check** — systematic enumeration over the *fault × schedule*
//!   product space: fault decisions (partition, duplication, corruption,
//!   crash — one per barrier interval) deviate exactly like scheduling
//!   decisions, each dimension under its own bound, and every candidate
//!   pairs a deviation in one dimension with the observed run's concrete
//!   choices in the other. Runs are pruned by *state hash*: each run's
//!   state key (per-barrier `VisibleImage` digests folded with the decision
//!   structure) comes back with its logs, and a run landing in an
//!   already-visited state expands nothing — distinct fault placements
//!   that converge to the same memory state are explored once.
//!
//! Exploration is feedback-driven: callers run each schedule, then hand
//! its two observed [`DecisionRecord`] logs and its state key back via
//! [`Explorer::observe`], so the systematic frontier can expand. Each mode
//! reads what it needs: random mode nothing, systematic mode the
//! scheduling log, model-check mode all three.

use crate::schedule::Schedule;
use acorr_sim::DecisionRecord;
use std::collections::{HashSet, VecDeque};

/// How schedules are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreMode {
    /// Seeded random tails; schedule `k` uses a stream derived from
    /// `(seed, k)`.
    Random {
        /// Base seed for the per-schedule streams.
        seed: u64,
    },
    /// Preemption-bounded systematic enumeration: at most `preemptions`
    /// non-default choices per schedule.
    Systematic {
        /// Maximum non-default choices per schedule.
        preemptions: usize,
    },
    /// Systematic enumeration over the fault × schedule product space with
    /// state-hash pruning on the key passed to [`Explorer::observe`].
    ModelCheck {
        /// Maximum non-default scheduling choices per schedule.
        preemptions: usize,
        /// Maximum non-default fault choices (injected fault actions) per
        /// schedule.
        faults: usize,
    },
}

/// splitmix64: derives one tail seed per (base, index) pair.
fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Trims trailing default (0) choices: a FIFO/no-fault tail reproduces
/// them, so `[1, 0]` and `[1]` name the same schedule.
fn trimmed(mut v: Vec<u32>) -> Vec<u32> {
    while v.last() == Some(&0) {
        v.pop();
    }
    v
}

/// Yields schedules to run, up to a budget.
#[derive(Debug)]
pub struct Explorer {
    mode: ExploreMode,
    budget: usize,
    emitted: usize,
    /// Systematic modes: (schedule, fault) prefix pairs waiting to run,
    /// oldest first. Plain systematic mode keeps the fault side empty.
    frontier: VecDeque<(Vec<u32>, Vec<u32>)>,
    /// Systematic modes: pairs ever enqueued (dedup).
    visited: HashSet<(Vec<u32>, Vec<u32>)>,
    /// Model-check mode: state keys of observed runs (pruning).
    states: HashSet<u64>,
    /// Model-check mode: observed runs whose state key was already known
    /// and which therefore expanded nothing.
    pruned: usize,
}

impl Explorer {
    /// Creates an explorer that will yield at most `budget` schedules,
    /// the first being the default schedule.
    pub fn new(mode: ExploreMode, budget: usize) -> Self {
        let mut visited = HashSet::new();
        visited.insert((Vec::new(), Vec::new()));
        Explorer {
            mode,
            budget,
            emitted: 0,
            frontier: VecDeque::from([(Vec::new(), Vec::new())]),
            visited,
            states: HashSet::new(),
            pruned: 0,
        }
    }

    /// Schedules yielded so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Model-check mode: distinct state keys observed so far.
    pub fn distinct_states(&self) -> usize {
        self.states.len()
    }

    /// Model-check mode: observed runs pruned because their state key was
    /// already known.
    pub fn pruned(&self) -> usize {
        self.pruned
    }

    /// The next schedule to run, or `None` when the budget is exhausted
    /// (or, in the systematic modes, the bounded space is).
    pub fn next_schedule(&mut self) -> Option<Schedule> {
        if self.emitted >= self.budget {
            return None;
        }
        let schedule = match self.mode {
            ExploreMode::Random { seed } => {
                if self.emitted == 0 {
                    Schedule::default_order()
                } else {
                    Schedule::random(derive_seed(seed, self.emitted as u64))
                }
            }
            ExploreMode::Systematic { .. } | ExploreMode::ModelCheck { .. } => {
                let (prefix, faults) = self.frontier.pop_front()?;
                Schedule::prescribed(prefix).with_faults(faults)
            }
        };
        self.emitted += 1;
        Some(schedule)
    }

    /// Feeds back the two decision logs and the state key of one yielded
    /// schedule's run. Random mode ignores them. Systematic mode expands
    /// the frontier with every in-bound, not-yet-seen single-point
    /// deviation of the scheduling log.
    ///
    /// Model-check mode prunes first: if `state_key` was already observed
    /// the run expands nothing — its deviations are reachable from the
    /// earlier run that produced the same state. Otherwise every in-bound
    /// single-point deviation joins the frontier: fault deviations first
    /// (paired with the run's concrete schedule choices), then schedule
    /// deviations (paired with the run's concrete fault choices).
    pub fn observe(
        &mut self,
        sched_log: &[DecisionRecord],
        fault_log: &[DecisionRecord],
        state_key: u64,
    ) {
        match self.mode {
            ExploreMode::Random { .. } => {}
            ExploreMode::Systematic { preemptions } => self.expand(sched_log, &[], preemptions, 0),
            ExploreMode::ModelCheck {
                preemptions,
                faults,
            } => {
                if self.states.insert(state_key) {
                    self.expand(sched_log, fault_log, preemptions, faults);
                } else {
                    self.pruned += 1;
                }
            }
        }
    }

    /// Expands the frontier with every in-bound, not-yet-seen single-point
    /// deviation of the observed (schedule, fault) decision-log pair. A
    /// deviation in one dimension pairs with the other dimension's
    /// concrete (trimmed `chosen` column) choices, so it replays the
    /// observed run up to the deviation point exactly.
    fn expand(
        &mut self,
        sched_log: &[DecisionRecord],
        fault_log: &[DecisionRecord],
        preemptions: usize,
        faults: usize,
    ) {
        let sched_col = trimmed(sched_log.iter().map(|r| r.chosen).collect());
        let fault_col = trimmed(fault_log.iter().map(|r| r.chosen).collect());
        // Fault deviations first: the fault dimension is coarser (one
        // decision per barrier interval), so its deviations sit earlier in
        // the breadth-first order.
        for (i, rec) in fault_log.iter().enumerate() {
            for alt in 0..rec.alternatives {
                if alt == rec.chosen {
                    continue;
                }
                let mut candidate: Vec<u32> = fault_log[..i].iter().map(|r| r.chosen).collect();
                candidate.push(alt);
                let candidate = trimmed(candidate);
                if candidate.iter().filter(|&&c| c != 0).count() > faults {
                    continue;
                }
                let pair = (sched_col.clone(), candidate);
                if self.visited.insert(pair.clone()) {
                    self.frontier.push_back(pair);
                }
            }
        }
        for (i, rec) in sched_log.iter().enumerate() {
            for alt in 0..rec.alternatives {
                if alt == rec.chosen {
                    continue;
                }
                let mut candidate: Vec<u32> = sched_log[..i].iter().map(|r| r.chosen).collect();
                candidate.push(alt);
                let candidate = trimmed(candidate);
                if candidate.iter().filter(|&&c| c != 0).count() > preemptions {
                    continue;
                }
                let pair = (candidate, fault_col.clone());
                if self.visited.insert(pair.clone()) {
                    self.frontier.push_back(pair);
                }
            }
        }
    }
}

/// Shrinks a failing (schedule, fault) decision-prefix pair to a minimal
/// counterexample.
///
/// `fails` must return `true` when running the given pair (each with a
/// default tail) still reproduces the failure. Fault choices are reverted
/// first — a counterexample that survives with fewer injected faults is
/// strictly more alarming, so the fixpoint prefers shedding faults over
/// shedding preemptions — then schedule choices, iterating to a joint
/// fixpoint. The result carries no trailing defaults and no revertible
/// choice in either dimension. A schedule-only failure passes an empty
/// fault column and gets an empty one back.
pub fn shrink_pair<F: FnMut(&[u32], &[u32]) -> bool>(
    sched: &[u32],
    faults: &[u32],
    mut fails: F,
) -> (Vec<u32>, Vec<u32>) {
    let mut s: Vec<u32> = sched.to_vec();
    let mut f: Vec<u32> = faults.to_vec();
    loop {
        let mut changed = false;
        while s.last() == Some(&0) {
            s.pop();
            changed = true;
        }
        while f.last() == Some(&0) {
            f.pop();
            changed = true;
        }
        changed |= revert_each(&mut f, |f| fails(&s, f));
        changed |= revert_each(&mut s, |s| fails(s, &f));
        if !changed {
            return (s, f);
        }
    }
}

/// Reverts each non-default choice of `column` to `0`, left to right,
/// wherever `fails` still holds without it; returns whether any reverted.
fn revert_each(column: &mut [u32], mut fails: impl FnMut(&[u32]) -> bool) -> bool {
    let mut changed = false;
    for i in 0..column.len() {
        let saved = column[i];
        if saved == 0 {
            continue;
        }
        column[i] = 0;
        if fails(column) {
            changed = true;
        } else {
            column[i] = saved;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Tail;

    fn rec(alternatives: u32, chosen: u32) -> DecisionRecord {
        DecisionRecord {
            alternatives,
            chosen,
        }
    }

    #[test]
    fn first_schedule_is_always_the_default() {
        for mode in [
            ExploreMode::Random { seed: 7 },
            ExploreMode::Systematic { preemptions: 2 },
        ] {
            let mut e = Explorer::new(mode, 10);
            assert!(e.next_schedule().unwrap().is_default());
        }
    }

    #[test]
    fn random_mode_yields_distinct_seeds_up_to_budget() {
        let mut e = Explorer::new(ExploreMode::Random { seed: 3 }, 4);
        let mut seeds = HashSet::new();
        e.next_schedule().unwrap();
        while let Some(s) = e.next_schedule() {
            match s.tail {
                Tail::Random { seed } => assert!(seeds.insert(seed)),
                Tail::Default => panic!("random mode yielded a default tail"),
            }
        }
        assert_eq!(seeds.len(), 3);
        assert_eq!(e.emitted(), 4);
        // Same base seed, same streams.
        let mut f = Explorer::new(ExploreMode::Random { seed: 3 }, 4);
        f.next_schedule();
        assert_eq!(
            f.next_schedule().unwrap().tail,
            Tail::Random {
                seed: derive_seed(3, 1)
            }
        );
    }

    #[test]
    fn systematic_mode_expands_single_point_deviations() {
        let mut e = Explorer::new(ExploreMode::Systematic { preemptions: 1 }, 100);
        assert_eq!(e.next_schedule().unwrap().prefix, Vec::<u32>::new());
        // Default run consulted two points with 2 and 3 alternatives.
        e.observe(&[rec(2, 0), rec(3, 0)], &[], 0);
        let mut got: Vec<Vec<u32>> = Vec::new();
        while let Some(s) = e.next_schedule() {
            got.push(s.prefix.clone());
            // Every deviation reproduces the same two decision points.
            let log: Vec<DecisionRecord> = [2u32, 3]
                .iter()
                .enumerate()
                .map(|(i, &n)| rec(n, s.prefix.get(i).copied().unwrap_or(0).min(n - 1)))
                .collect();
            e.observe(&log, &[], 0);
        }
        // Bound 1: exactly the three single-deviation prefixes, each
        // re-observed without growing the frontier past the bound.
        got.sort();
        assert_eq!(got, vec![vec![0, 1], vec![0, 2], vec![1]]);
    }

    #[test]
    fn systematic_bound_two_reaches_paired_deviations() {
        let mut e = Explorer::new(ExploreMode::Systematic { preemptions: 2 }, 100);
        let mut seen = HashSet::new();
        while let Some(s) = e.next_schedule() {
            seen.insert(s.prefix.clone());
            let log: Vec<DecisionRecord> = (0..2)
                .map(|i| rec(2, s.prefix.get(i).copied().unwrap_or(0)))
                .collect();
            e.observe(&log, &[], 0);
        }
        assert!(seen.contains(&vec![1, 1]), "{seen:?}");
    }

    #[test]
    fn shrink_reverts_and_trims_to_minimal() {
        // Failure iff choice at index 2 is nonzero AND choice at 0 is
        // nonzero; everything else is noise. No fault column.
        let fails = |p: &[u32], _: &[u32]| {
            p.first().is_some_and(|&c| c != 0) && p.get(2).is_some_and(|&c| c != 0)
        };
        let (min, faults) = shrink_pair(&[2, 1, 3, 0, 4, 0], &[], fails);
        assert_eq!(min, vec![2, 0, 3]);
        assert_eq!(faults, Vec::<u32>::new());
        assert!(fails(&min, &[]));
        // Already-minimal input is a fixpoint.
        assert_eq!(shrink_pair(&min, &[], fails), (min, faults));
    }

    #[test]
    fn shrink_of_all_noise_is_empty() {
        let min = shrink_pair(&[1, 2, 3], &[], |_, _| true);
        assert_eq!(min, (Vec::<u32>::new(), Vec::<u32>::new()));
    }

    #[test]
    fn systematic_mode_reads_neither_the_fault_log_nor_the_key() {
        let mut e = Explorer::new(ExploreMode::Systematic { preemptions: 1 }, 100);
        e.next_schedule().unwrap();
        e.observe(&[rec(2, 0)], &[rec(3, 0)], 0xA);
        let mut got: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
        while let Some(s) = e.next_schedule() {
            got.push((s.prefix.clone(), s.fault_prefix.clone()));
        }
        assert_eq!(got, vec![(vec![1], vec![])]);
        assert_eq!((e.distinct_states(), e.pruned()), (0, 0));
    }

    #[test]
    fn model_check_expands_fault_deviations_before_schedule_deviations() {
        let mut e = Explorer::new(
            ExploreMode::ModelCheck {
                preemptions: 1,
                faults: 1,
            },
            100,
        );
        let first = e.next_schedule().unwrap();
        assert!(first.is_default());
        // Default run: one scheduling point (2 alts), one fault interval
        // (3 alts), reaching fresh state 0xA.
        e.observe(&[rec(2, 0)], &[rec(3, 0)], 0xA);
        let second = e.next_schedule().unwrap();
        // Fault deviations enqueue first.
        assert_eq!(second.fault_prefix, vec![1]);
        assert_eq!(second.prefix, Vec::<u32>::new());
        let mut rest: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
        while let Some(s) = e.next_schedule() {
            rest.push((s.prefix.clone(), s.fault_prefix.clone()));
        }
        assert_eq!(
            rest,
            vec![(vec![], vec![2]), (vec![1], vec![])],
            "remaining frontier after the first fault deviation"
        );
    }

    #[test]
    fn model_check_prunes_already_seen_states() {
        let mut e = Explorer::new(
            ExploreMode::ModelCheck {
                preemptions: 1,
                faults: 1,
            },
            100,
        );
        e.next_schedule().unwrap();
        e.observe(&[rec(2, 0)], &[rec(2, 0)], 0xA);
        let n = {
            let mut count = 0;
            while e.next_schedule().is_some() {
                count += 1;
                // Every deviation converges back to the default state.
                e.observe(&[rec(2, 1)], &[rec(2, 1)], 0xA);
            }
            count
        };
        // Both single deviations ran, but neither expanded: same state.
        assert_eq!(n, 2);
        assert_eq!(e.distinct_states(), 1);
        assert_eq!(e.pruned(), 2);
    }

    #[test]
    fn model_check_pairs_deviations_with_observed_choices() {
        let mut e = Explorer::new(
            ExploreMode::ModelCheck {
                preemptions: 2,
                faults: 2,
            },
            100,
        );
        e.next_schedule().unwrap();
        // A non-default observed run: sched chose 1, fault chose 2.
        e.observe(&[rec(3, 1)], &[rec(3, 2)], 0xB);
        let mut pairs: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
        while let Some(s) = e.next_schedule() {
            pairs.push((s.prefix.clone(), s.fault_prefix.clone()));
        }
        // Fault deviations keep the observed schedule column, and vice
        // versa.
        assert!(pairs.contains(&(vec![1], vec![])), "{pairs:?}");
        assert!(pairs.contains(&(vec![1], vec![1])), "{pairs:?}");
        assert!(pairs.contains(&(vec![], vec![2])), "{pairs:?}");
        assert!(pairs.contains(&(vec![2], vec![2])), "{pairs:?}");
    }

    #[test]
    fn shrink_pair_reverts_faults_first_then_schedule() {
        // Failure needs fault[1] nonzero and sched[0] nonzero; the rest is
        // noise.
        let fails = |s: &[u32], f: &[u32]| {
            s.first().is_some_and(|&c| c != 0) && f.get(1).is_some_and(|&c| c != 0)
        };
        let (s, f) = shrink_pair(&[2, 1, 0], &[3, 4, 1], fails);
        assert_eq!(s, vec![2]);
        assert_eq!(f, vec![0, 4]);
        assert!(fails(&s, &f));
        // Fixpoint.
        assert_eq!(shrink_pair(&s, &f, fails), (s.clone(), f.clone()));
    }
}
