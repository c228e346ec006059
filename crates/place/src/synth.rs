//! Synthetic affinity workloads for scale benchmarking.
//!
//! The paper's applications top out at 64 threads; exercising the
//! multilevel partitioner at its design point (10⁵–10⁶ threads) needs
//! synthetic correlation structure with the statistics real sharing
//! exhibits: strong communities of ~64 threads (the paper's full-size
//! runs) plus a power-law tail of long-range affinities (hub pages).
//!
//! Communities are deliberately *scrambled* — thread `t` belongs to class
//! `t mod (T/64)`, so community members are maximally interleaved in
//! thread order. A contiguous-block layout would make
//! [`Mapping::stretch`](acorr_sim::Mapping::stretch) accidentally optimal
//! and tell us nothing about the partitioner; interleaving forces the
//! multilevel pipeline to actually *discover* the structure, like the
//! randomized-placement columns of the paper's Table 6.
//!
//! [`power_law_affinity`] builds such a [`CorrelationMatrix`] as a pure
//! function of `(threads, degree, seed)`. Generation parallelises over
//! threads with [`par_map_range`] — each thread draws from its own forked
//! [`DetRng`] stream, and [`CorrelationMatrix::from_edges`] aggregation is
//! order-independent — so the store is bit-identical for every `jobs`
//! count.

use acorr_sim::{par_map_range, DetRng};
use acorr_track::CorrelationMatrix;

/// Approximate threads per synthetic sharing community. 64 matches the
/// paper's full-size application runs.
pub const COMMUNITY: usize = 64;

/// The number of interleaved communities for a given thread count: thread
/// `t` belongs to community `t % num_communities(threads)`.
pub fn num_communities(threads: usize) -> usize {
    (threads / COMMUNITY).max(1)
}

/// Builds a synthetic sparse correlation store over `threads` threads in
/// which each thread contributes ~`degree` affinity edges: three quarters
/// land inside its interleaved ~64-thread community (see
/// [`num_communities`]), the rest reach across the machine at
/// power-law-distributed distances (nearby threads are likelier than far
/// ones, but every scale occurs).
///
/// Deterministic: the result is a pure function of `(threads, degree,
/// seed)`; `jobs` only selects how many workers generate it (`0` = all
/// available cores) and never changes a byte of the output.
///
/// # Panics
///
/// Panics if `threads < 2` or `threads > u32::MAX as usize`.
pub fn power_law_affinity(
    threads: usize,
    degree: usize,
    seed: u64,
    jobs: usize,
) -> CorrelationMatrix {
    assert!(threads >= 2, "need at least two threads for affinity edges");
    assert!(threads <= u32::MAX as usize, "thread ids must fit in u32");
    let classes = num_communities(threads);
    let scales = 64 - (threads as u64).leading_zeros(); // floor(log2(threads)) + 1
                                                        // Work items are fixed-size chunks of threads (not single threads) to
                                                        // amortize dispatch; each *thread* still draws from its own forked
                                                        // stream, so the output is invariant to both chunking and `jobs`.
    const CHUNK: usize = 4096;
    let chunks = threads.div_ceil(CHUNK);
    let per_chunk: Vec<Vec<(u32, u32, u64)>> = par_map_range(jobs, chunks, |c| {
        let lo = c * CHUNK;
        let hi = (lo + CHUNK).min(threads);
        let mut edges = Vec::with_capacity((hi - lo) * degree);
        for t in lo..hi {
            let mut rng = DetRng::new(seed).fork(t as u64);
            let class = t % classes;
            // Members of `class` are class, class+C, class+2C, ...
            let members = (threads - 1 - class) / classes + 1;
            for _ in 0..degree {
                let partner = if rng.next_below(4) < 3 && members > 1 {
                    // Local: uniform over the (interleaved) community.
                    class + rng.next_below(members as u64) as usize * classes
                } else {
                    // Long range: offset magnitude uniform over scales, so
                    // P(distance ≈ 2^k) is flat in k — a power law in
                    // distance.
                    let k = rng.next_below(scales as u64) as u32;
                    let span = 1u64 << k;
                    let offset = (span + rng.next_below(span)) % threads as u64;
                    (t + offset as usize) % threads
                };
                if partner != t {
                    edges.push((t as u32, partner as u32, 1 + rng.next_below(16)));
                }
            }
        }
        edges
    });
    // Concatenate into one exactly-sized buffer: `from_edges` collects its
    // input, and handing it a pre-sized `Vec` lets that collect reuse the
    // allocation instead of growth-reallocating ~100 MB at the 10⁶ scale.
    let mut flat = Vec::with_capacity(threads * degree);
    for chunk in per_chunk {
        flat.extend_from_slice(&chunk);
    }
    CorrelationMatrix::from_edges(threads, flat)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_count_never_changes_the_store() {
        let base = power_law_affinity(500, 8, 42, 1);
        for jobs in [2, 4, 8] {
            assert_eq!(
                base,
                power_law_affinity(500, 8, 42, jobs),
                "jobs={jobs} must be bit-identical to sequential"
            );
        }
    }

    #[test]
    fn seed_and_shape_change_the_store() {
        let a = power_law_affinity(300, 6, 1, 1);
        assert_ne!(a, power_law_affinity(300, 6, 2, 1));
        assert_ne!(a, power_law_affinity(300, 7, 1, 1));
    }

    #[test]
    fn structure_is_sparse_and_community_heavy() {
        let n = 4096;
        let corr = power_law_affinity(n, 8, 7, 0);
        let edges = corr.edge_count();
        assert!(edges > 0 && edges < n * 8, "~degree edges per thread");
        // Count mass inside vs across communities: local draws dominate.
        let classes = num_communities(n);
        let (mut local, mut remote) = (0u64, 0u64);
        corr.for_each_edge(|a, b, v| {
            if a % classes == b % classes {
                local += v;
            } else {
                remote += v;
            }
        });
        assert!(
            local > remote,
            "local mass {local} should exceed remote {remote}"
        );
        assert!(remote > 0, "long-range tail must exist");
    }

    #[test]
    fn tiny_thread_counts_work() {
        let corr = power_law_affinity(2, 4, 3, 1);
        assert_eq!(corr.num_threads(), 2);
        // Below one full community every thread shares one class.
        assert_eq!(num_communities(63), 1);
        assert_eq!(num_communities(64), 1);
        assert_eq!(num_communities(128), 2);
    }
}
