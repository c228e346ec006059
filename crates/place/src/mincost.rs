//! The *min-cost* heuristic: greedy affinity clustering plus
//! Kernighan-Lin-style refinement.
//!
//! The paper (§5.1) built several heuristics on cluster analysis and found
//! two that identified *"thread mappings with cut costs that were within 1%
//! of optimal for all of our applications"*, referring to them collectively
//! as **min-cost**. This module implements that pipeline:
//!
//! 1. **Greedy seeding** — for each node in turn, seed a cluster with the
//!    strongest-affinity unassigned pair, then repeatedly add the unassigned
//!    thread with the highest total correlation to the cluster until the
//!    node's quota is reached (a shared-near-neighbor flavour of the
//!    Jarvis-Patrick clustering the paper cites).
//! 2. **Pairwise swap refinement** — Kernighan-Lin gains: repeatedly apply
//!    the best cut-reducing swap of two threads on different nodes until no
//!    positive gain remains.
//!
//! Both stages preserve balanced node populations, matching the paper's
//! restriction to "a constant and equal number of threads on each node".
//!
//! Both stages are **incremental**: the seeding stage maintains a sorted
//! pair list plus a running affinity accumulator instead of rescanning all
//! pairs per node, and the refinement stage maintains the classic
//! Kernighan-Lin *D-values* in a [`DegreeCache`] — each thread's
//! connectivity to every node — updated in O(n) per accepted swap, making a
//! refinement pass O(n²) instead of O(n³). The cached kernels are
//! selection-for-selection identical to the direct O(n³) implementation
//! (kept as the oracle in `tests/kl_equivalence.rs`), so they return
//! bit-identical mappings.

use acorr_sim::{ClusterConfig, Mapping, NodeId};
use acorr_track::CorrelationMatrix;

/// Per-thread node-connectivity cache behind the incremental Kernighan-Lin
/// kernels: `conn(t, node)` is the total correlation between thread `t` and
/// the threads currently mapped to `node` (excluding `t` itself).
///
/// The classic KL *D-value* of moving `t` from its node `from` to `to` is
/// `conn(t, to) - conn(t, from)`; a swap gain is evaluated in O(1) from two
/// D-values, and an accepted swap updates the cache in O(n) instead of the
/// O(n²) full rebuild. [`anneal`](crate::anneal()) shares the same cache to
/// score its swap proposals in O(1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeCache {
    nodes: usize,
    conn: Vec<i64>,
}

impl DegreeCache {
    /// Builds the cache for `mapping` in one `O(E)` sweep over the
    /// matrix's non-zero pairs.
    ///
    /// # Panics
    ///
    /// Panics if the matrix covers a different thread count than the
    /// mapping.
    pub fn new(corr: &CorrelationMatrix, mapping: &Mapping) -> Self {
        let n = corr.num_threads();
        assert_eq!(n, mapping.num_threads(), "matrix and mapping must agree");
        let nodes = mapping.node_counts().len();
        let mut conn = vec![0i64; n * nodes];
        corr.for_each_edge(|a, b, v| {
            conn[a * nodes + mapping.node_of(b).idx()] += v as i64;
            conn[b * nodes + mapping.node_of(a).idx()] += v as i64;
        });
        DegreeCache { nodes, conn }
    }

    /// The total correlation between `t` and the threads on `node`.
    fn conn(&self, t: usize, node: NodeId) -> i64 {
        self.conn[t * self.nodes + node.idx()]
    }

    /// The KL D-value of moving `t` from `from` to `to`: external-becomes-
    /// internal minus internal-becomes-external connectivity.
    fn d_value(&self, t: usize, from: NodeId, to: NodeId) -> i64 {
        self.conn(t, to) - self.conn(t, from)
    }

    /// The cut reduction from swapping threads `a` and `b` (which must live
    /// on different nodes under `mapping`): `D_a + D_b - 2*c(a,b)`.
    pub fn gain(&self, corr: &CorrelationMatrix, mapping: &Mapping, a: usize, b: usize) -> i64 {
        let na = mapping.node_of(a);
        let nb = mapping.node_of(b);
        // The (a,b) edge stays cut after the swap but was counted as a gain
        // in both D terms.
        self.d_value(a, na, nb) + self.d_value(b, nb, na) - 2 * corr.get(a, b) as i64
    }

    /// Applies the swap of `a` (moving `na` → `nb`) and `b` (moving `nb` →
    /// `na`) to the cache in O(deg(a) + deg(b)). Call with the *pre-swap*
    /// nodes, in the same breath as `Mapping::set_node_of`.
    pub fn apply_swap(
        &mut self,
        corr: &CorrelationMatrix,
        a: usize,
        b: usize,
        na: NodeId,
        nb: NodeId,
    ) {
        for &(t, v) in corr.neighbors(a) {
            let (t, v) = (t as usize, v as i64);
            self.conn[t * self.nodes + na.idx()] -= v;
            self.conn[t * self.nodes + nb.idx()] += v;
        }
        for &(t, v) in corr.neighbors(b) {
            let (t, v) = (t as usize, v as i64);
            self.conn[t * self.nodes + nb.idx()] -= v;
            self.conn[t * self.nodes + na.idx()] += v;
        }
    }
}

/// Computes a balanced placement minimizing cut cost heuristically.
///
/// # Panics
///
/// Panics if the matrix covers a different thread count than the cluster.
pub fn min_cost(corr: &CorrelationMatrix, cluster: &ClusterConfig) -> Mapping {
    assert_eq!(
        corr.num_threads(),
        cluster.num_threads(),
        "matrix and cluster must cover the same threads"
    );
    let seeded = greedy_seed(corr, cluster);
    refine_kl(corr, seeded)
}

/// Per-node quotas identical to the stretch heuristic's block sizes.
fn quotas(cluster: &ClusterConfig) -> Vec<usize> {
    Mapping::stretch(cluster).node_counts()
}

fn greedy_seed(corr: &CorrelationMatrix, cluster: &ClusterConfig) -> Mapping {
    let n = corr.num_threads();
    let mut assignment: Vec<Option<NodeId>> = vec![None; n];
    let mut unassigned: Vec<usize> = (0..n).collect();
    // All pairs sorted once (weight desc, then lexicographic) with a
    // monotone cursor, replacing the per-node O(u²) rescan of the original
    // seeding loop: a pair skipped because an endpoint is already assigned
    // stays invalid forever, so the cursor never moves backwards. The
    // (weight desc, a asc, b asc) order reproduces the rescan's "first
    // maximum over an ascending unassigned list" tie-break exactly.
    let mut pairs: Vec<(u64, usize, usize)> = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for a in 0..n {
        for b in (a + 1)..n {
            pairs.push((corr.get(a, b), a, b));
        }
    }
    pairs.sort_unstable_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));
    let mut cursor = 0usize;
    // Running affinity of every thread to the cluster under construction,
    // updated in O(n) per added member instead of recomputed per candidate.
    // Assigned threads accumulate garbage (including diagonal self-counts)
    // but are never candidates again.
    let mut affinity: Vec<u64> = vec![0; n];
    for (node_idx, quota) in quotas(cluster).iter().copied().enumerate() {
        let node = NodeId(node_idx as u16);
        let mut members: Vec<usize> = Vec::with_capacity(quota);
        affinity.iter_mut().for_each(|v| *v = 0);
        // Seed with the strongest remaining pair (or the lone remaining
        // thread for a quota of one).
        if quota >= 2 && unassigned.len() >= 2 {
            while assignment[pairs[cursor].1].is_some() || assignment[pairs[cursor].2].is_some() {
                cursor += 1;
            }
            let (_, a, b) = pairs[cursor];
            cursor += 1;
            unassigned.retain(|&t| t != a && t != b);
            members.push(a);
            members.push(b);
            for (t, slot) in affinity.iter_mut().enumerate() {
                *slot = corr.get(t, a) + corr.get(t, b);
            }
        }
        // Grow: always take the unassigned thread with the highest affinity
        // to the cluster (ties: lowest thread id, for determinism).
        while members.len() < quota && !unassigned.is_empty() {
            let (pos, _) = unassigned
                .iter()
                .enumerate()
                .map(|(pos, &t)| (pos, affinity[t]))
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .expect("unassigned is non-empty");
            let added = unassigned.remove(pos);
            members.push(added);
            for (t, slot) in affinity.iter_mut().enumerate() {
                *slot += corr.get(t, added);
            }
        }
        for m in members {
            assignment[m] = Some(node);
        }
    }
    let assignment: Vec<NodeId> = assignment
        .into_iter()
        .map(|a| a.expect("quotas cover all threads"))
        .collect();
    Mapping::from_assignment(cluster, assignment).expect("seeded mapping is valid")
}

/// Kernighan-Lin-style refinement: repeatedly performs the
/// highest-positive-gain swap of two threads on different nodes, until no
/// swap reduces the cut. Returns the refined mapping (node populations are
/// preserved).
///
/// Gains are read from a [`DegreeCache`] maintained incrementally (O(1) per
/// candidate pair, O(n) per accepted swap), so one pass is O(n²) where
/// recomputing every gain directly pays O(n³). The scan order, strict-`>`
/// selection and termination condition match that direct kernel, so the
/// two return **bit-identical** mappings (`tests/kl_equivalence.rs`).
pub fn refine_kl(corr: &CorrelationMatrix, mut mapping: Mapping) -> Mapping {
    let n = corr.num_threads();
    let mut cache = DegreeCache::new(corr, &mapping);
    loop {
        let mut best_gain = 0i64;
        let mut best_pair: Option<(usize, usize)> = None;
        for a in 0..n {
            for b in (a + 1)..n {
                if mapping.node_of(a) == mapping.node_of(b) {
                    continue;
                }
                let gain = cache.gain(corr, &mapping, a, b);
                if gain > best_gain {
                    best_gain = gain;
                    best_pair = Some((a, b));
                }
            }
        }
        match best_pair {
            Some((a, b)) => {
                let na = mapping.node_of(a);
                let nb = mapping.node_of(b);
                cache.apply_swap(corr, a, b, na, nb);
                mapping.set_node_of(a, nb);
                mapping.set_node_of(b, na);
            }
            None => return mapping,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorr_sim::DetRng;
    use acorr_track::cut_cost;

    /// The store holding `value(a, b)` on every pair `a < b` of `n`
    /// threads, drawn in ascending pair order.
    fn upper(n: usize, mut value: impl FnMut(usize, usize) -> u64) -> CorrelationMatrix {
        let pairs = (0..n).flat_map(|a| ((a + 1)..n).map(move |b| (a, b)));
        CorrelationMatrix::from_edges(n, pairs.map(|(a, b)| (a as u32, b as u32, value(a, b))))
    }

    fn chain(n: u32, w: u64) -> CorrelationMatrix {
        CorrelationMatrix::from_edges(n as usize, (1..n).map(|i| (i - 1, i, w)))
    }

    fn blocks(n: usize, block: usize, w: u64) -> CorrelationMatrix {
        upper(n, |a, b| if a / block == b / block { w } else { 0 })
    }

    #[test]
    fn chain_yields_contiguous_blocks() {
        let corr = chain(16, 3);
        let cluster = ClusterConfig::new(4, 16).unwrap();
        let m = min_cost(&corr, &cluster);
        // A contiguous split cuts exactly 3 edges → ordered cut 18; min-cost
        // must match the stretch optimum.
        assert_eq!(
            cut_cost(&corr, &m),
            cut_cost(&corr, &Mapping::stretch(&cluster))
        );
        assert!(m.is_balanced());
    }

    #[test]
    fn block_sharing_is_reunited() {
        // 16 threads sharing in blocks of 4 → a 4-node mapping exists with
        // zero cut; min-cost must find it.
        let corr = blocks(16, 4, 5);
        let cluster = ClusterConfig::new(4, 16).unwrap();
        let m = min_cost(&corr, &cluster);
        assert_eq!(cut_cost(&corr, &m), 0, "mapping {m}");
    }

    #[test]
    fn scrambled_blocks_are_recovered() {
        // Blocks of 4, but block members are interleaved across thread ids
        // (threads i, i+4, i+8, i+12 share): stretch fails, min-cost should
        // still find a zero-cut grouping.
        let corr = upper(16, |a, b| if a % 4 == b % 4 { 7 } else { 0 });
        let cluster = ClusterConfig::new(4, 16).unwrap();
        let stretch_cut = cut_cost(&corr, &Mapping::stretch(&cluster));
        let m = min_cost(&corr, &cluster);
        assert_eq!(cut_cost(&corr, &m), 0);
        assert!(stretch_cut > 0, "stretch must actually be bad here");
    }

    #[test]
    fn refinement_never_worsens() {
        let rng = DetRng::new(42);
        for seed in 0..10 {
            let n = 12;
            let mut r = rng.fork(seed);
            let corr = upper(n, |_, _| r.next_below(20));
            let cluster = ClusterConfig::new(3, n).unwrap();
            let start = Mapping::random_balanced(&cluster, &mut r);
            let before = cut_cost(&corr, &start);
            let refined = refine_kl(&corr, start);
            let after = cut_cost(&corr, &refined);
            assert!(after <= before, "seed {seed}: {after} > {before}");
            assert!(refined.is_balanced());
        }
    }

    #[test]
    fn min_cost_beats_or_matches_random() {
        let rng = DetRng::new(7);
        let corr = blocks(24, 4, 3);
        let cluster = ClusterConfig::new(6, 24).unwrap();
        let mc = cut_cost(&corr, &min_cost(&corr, &cluster));
        for s in 0..20 {
            let r = Mapping::random_balanced(&cluster, &mut rng.fork(s));
            assert!(mc <= cut_cost(&corr, &r));
        }
    }

    #[test]
    fn ragged_thread_counts_are_balanced() {
        let corr = chain(10, 2);
        let cluster = ClusterConfig::new(3, 10).unwrap();
        let m = min_cost(&corr, &cluster);
        assert!(m.is_balanced());
        let mut counts = m.node_counts();
        counts.sort_unstable();
        assert_eq!(counts, vec![3, 3, 4]);
    }

    #[test]
    fn zero_matrix_is_trivially_optimal() {
        let corr = CorrelationMatrix::zeros(8);
        let cluster = ClusterConfig::new(2, 8).unwrap();
        let m = min_cost(&corr, &cluster);
        assert_eq!(cut_cost(&corr, &m), 0);
        assert!(m.is_balanced());
    }
}
