//! Deterministic parallel execution.
//!
//! The paper's randomized methodologies are embarrassingly parallel: Table 2
//! alone runs 300 random configurations per application, and every run is a
//! pure function of `(program, config, seed)`. This module provides the
//! primitive the experiment drivers need — [`par_map_indexed`] — and
//! [`par_join`], which runs two different closures side by side, both built
//! only on [`std::thread::scope`] so the workspace stays free of external
//! dependencies.
//!
//! # Determinism contract
//!
//! Output is **bit-identical** for every worker count, including the
//! sequential `threads <= 1` fallback, because:
//!
//! 1. **Seeds are forked up-front.** Callers derive one independent RNG
//!    stream per index *before* submitting work (see
//!    [`DetRng::fork`](crate::DetRng::fork)); no worker ever observes
//!    another worker's draws.
//! 2. **Work is a pure function of its index.** The closure receives
//!    `(index, item)` and shares nothing mutable.
//! 3. **Results are collected in index order.** Each result lands in the
//!    slot of its index regardless of which worker computed it or when; the
//!    returned `Vec` is ordered by index, not by completion.
//!
//! Scheduling (which worker claims which index) is the only nondeterminism,
//! and it is unobservable in the result.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The number of worker threads the host offers, with a sequential fallback
/// of 1 when the parallelism cannot be queried.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a user-facing thread-count option: `0` means "use everything
/// the host offers" ([`available_threads`]), any other value is taken
/// literally (`1` = exact sequential execution).
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// Maps `f` over `items` on up to `threads` scoped worker threads,
/// returning results **in index order**.
///
/// `threads <= 1` (or fewer than two items) runs the exact sequential path
/// on the calling thread. Otherwise `min(threads, items.len())` workers
/// claim indices from a shared counter and deposit each result into the
/// slot of its index, so the output is bit-identical to the sequential
/// path whenever `f` is a pure function of `(index, item)` — see the
/// [module docs](self) for the full determinism contract.
///
/// # Panics
///
/// Panics (after all workers are joined) if `f` panics for any item.
pub fn par_map_indexed<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }
    let workers = threads.min(n);
    // Uncontended per-slot mutexes: each item is claimed exactly once (the
    // atomic counter hands out unique indices) and each result slot is
    // written exactly once, so the locks only pay their fast path.
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .expect("work slot poisoned")
                        .take()
                        .expect("index handed out once");
                    let result = f(i, item);
                    *slots[i].lock().expect("result slot poisoned") = Some(result);
                })
            })
            .collect();
        // Join explicitly so a worker panic resurfaces with its original
        // payload instead of scope's generic "a scoped thread panicked".
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was computed")
        })
        .collect()
}

/// [`par_map_indexed`] over the bare indices `0..count`, for workloads that
/// need no per-item payload (the index selects the forked seed).
pub fn par_map_range<R, F>(threads: usize, count: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_indexed(threads, vec![(); count], |i, ()| f(i))
}

/// Runs `a` on the calling thread and `b` on one scoped worker at the same
/// time, returning `(a(), b())`.
///
/// The contract is [`par_map_indexed`]'s: `threads <= 1` runs `a` then `b`
/// on the calling thread, and with pure closures the result is the same at
/// every worker count.
///
/// # Panics
///
/// Panics (after both closures have finished) with the original payload if
/// either closure panics.
pub fn par_join<A, B, RA, RB>(threads: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    if threads <= 1 {
        let ra = a();
        return (ra, b());
    }
    // A panic in `a` unwinds out of the scope closure, and the scope
    // resumes it with its payload once `b` has finished.
    std::thread::scope(|scope| {
        let worker = scope.spawn(b);
        let ra = a();
        match worker.join() {
            Ok(rb) => (ra, rb),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetRng;

    #[test]
    fn preserves_index_order() {
        for threads in [1, 2, 4, 7] {
            let out = par_map_indexed(threads, (0..100).collect(), |i, x: i32| {
                assert_eq!(i as i32, x);
                x * 2
            });
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn matches_sequential_for_forked_seeds() {
        let rng = DetRng::new(99);
        let run = |threads| par_map_range(threads, 64, |i| rng.fork(i as u64).next_u64());
        let sequential = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), sequential, "threads={threads}");
        }
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u8> = par_map_indexed(8, Vec::new(), |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(par_map_range(8, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(par_map_range(64, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn resolve_threads_maps_zero_to_auto() {
        assert_eq!(resolve_threads(0), available_threads());
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(5), 5);
    }

    #[test]
    fn par_join_returns_both_results_in_order() {
        for threads in [1, 2] {
            let (a, b) = par_join(threads, || "left", || vec![1, 2, 3]);
            assert_eq!((a, b), ("left", vec![1, 2, 3]), "threads={threads}");
        }
    }

    #[test]
    fn par_join_panics_resurface_with_their_payload() {
        for threads in [1, 2] {
            for side in ["left", "right"] {
                let caught = std::panic::catch_unwind(|| {
                    par_join(
                        threads,
                        || assert_ne!(side, "left", "deliberate left"),
                        || assert_ne!(side, "right", "deliberate right"),
                    )
                });
                let payload = caught.expect_err("the panic resurfaces");
                let message = payload
                    .downcast_ref::<String>()
                    .expect("a formatted panic message");
                assert!(
                    message.contains(&format!("deliberate {side}")),
                    "threads={threads}: {message}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn worker_panics_propagate() {
        par_map_range(4, 16, |i| {
            if i == 9 {
                panic!("deliberate");
            }
            i
        });
    }
}
