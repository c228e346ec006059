//! Jarvis-Patrick shared-near-neighbor seeding.
//!
//! The paper's min-cost heuristics are "based on cluster analysis \[10\]" —
//! Jarvis & Patrick's 1973 shared-near-neighbor method: two points belong
//! together when their k-nearest-neighbor lists overlap enough. Applied to
//! threads: two threads are kin when they *share many of the same
//! high-affinity partners*, which groups e.g. FFT's transpose clusters even
//! when the direct pairwise correlation is noisy.
//!
//! The seeding is followed by the same Kernighan-Lin refinement as
//! [`min_cost`](crate::min_cost); [`jarvis_patrick`] is a drop-in
//! alternative whose relative quality the benches and tests compare.

use crate::mincost::refine_kl;
use acorr_sim::{ClusterConfig, Mapping, NodeId};
use acorr_track::CorrelationMatrix;

/// Number of nearest neighbours considered per thread.
const K: usize = 6;

/// The `k` highest-correlation partners of each thread (ties broken by
/// lower index, self excluded).
fn neighbor_lists(corr: &CorrelationMatrix, k: usize) -> Vec<Vec<usize>> {
    let n = corr.num_threads();
    (0..n)
        .map(|a| {
            let mut partners: Vec<usize> = (0..n).filter(|&b| b != a).collect();
            partners.sort_by(|&x, &y| corr.get(a, y).cmp(&corr.get(a, x)).then(x.cmp(&y)));
            partners.truncate(k);
            partners
        })
        .collect()
}

/// Shared-near-neighbor similarity of two threads: how many of each
/// other's top-k lists they share, plus mutual membership bonuses.
fn snn_similarity(lists: &[Vec<usize>], a: usize, b: usize) -> usize {
    let shared = lists[a].iter().filter(|t| lists[b].contains(t)).count();
    let mutual = usize::from(lists[a].contains(&b)) + usize::from(lists[b].contains(&a));
    shared + 2 * mutual
}

/// Places threads by Jarvis-Patrick shared-near-neighbor clustering plus
/// Kernighan-Lin refinement.
///
/// # Panics
///
/// Panics if the matrix covers a different thread count than the cluster.
pub fn jarvis_patrick(corr: &CorrelationMatrix, cluster: &ClusterConfig) -> Mapping {
    assert_eq!(
        corr.num_threads(),
        cluster.num_threads(),
        "matrix and cluster must cover the same threads"
    );
    let n = corr.num_threads();
    let k = K.min(n.saturating_sub(1));
    let lists = neighbor_lists(corr, k);
    let quotas = Mapping::stretch(cluster).node_counts();

    let mut assignment: Vec<Option<NodeId>> = vec![None; n];
    let mut unassigned: Vec<usize> = (0..n).collect();
    for (node_idx, quota) in quotas.iter().copied().enumerate() {
        let node = NodeId(node_idx as u16);
        let mut members: Vec<usize> = Vec::with_capacity(quota);
        // Seed with the unassigned pair of highest SNN similarity.
        if quota >= 2 && unassigned.len() >= 2 {
            let mut best = (0usize, 1usize, 0usize);
            let mut found = false;
            for (i, &a) in unassigned.iter().enumerate() {
                for (j, &b) in unassigned.iter().enumerate().skip(i + 1) {
                    let s = snn_similarity(&lists, a, b);
                    if !found || s > best.2 {
                        best = (i, j, s);
                        found = true;
                    }
                }
            }
            let (i, j, _) = best;
            let b = unassigned.remove(j);
            let a = unassigned.remove(i);
            members.push(a);
            members.push(b);
        }
        // Grow by total SNN similarity to the cluster.
        while members.len() < quota && !unassigned.is_empty() {
            let (pos, _) = unassigned
                .iter()
                .enumerate()
                .map(|(pos, &t)| {
                    let sim: usize = members.iter().map(|&m| snn_similarity(&lists, t, m)).sum();
                    (pos, sim)
                })
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .expect("non-empty");
            members.push(unassigned.remove(pos));
        }
        for m in members {
            assignment[m] = Some(node);
        }
    }
    let assignment: Vec<NodeId> = assignment
        .into_iter()
        .map(|a| a.expect("quotas cover all threads"))
        .collect();
    let seeded = Mapping::from_assignment(cluster, assignment).expect("valid seed");
    refine_kl(corr, seeded)
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

    fn blocks(n: usize, b: usize, w: u64) -> CorrelationMatrix {
        upper(n, |a, d| if a / b == d / b { w } else { 0 })
    }

    #[test]
    fn recovers_clean_blocks() {
        let corr = blocks(16, 4, 5);
        let cluster = ClusterConfig::new(4, 16).unwrap();
        let m = jarvis_patrick(&corr, &cluster);
        assert_eq!(cut_cost(&corr, &m), 0, "{m}");
        assert!(m.is_balanced());
    }

    #[test]
    fn snn_groups_through_shared_partners() {
        // Threads 0 and 1 never share directly but share partners 2 and 3
        // heavily; SNN must see them as kin.
        let c = CorrelationMatrix::from_edges(8, [(0, 2, 10), (1, 2, 10), (0, 3, 10), (1, 3, 10)]);
        let lists = neighbor_lists(&c, 3);
        assert!(snn_similarity(&lists, 0, 1) >= 2);
        // And the placement keeps the club {0,1,2,3} together.
        let cluster = ClusterConfig::new(2, 8).unwrap();
        let m = jarvis_patrick(&c, &cluster);
        assert_eq!(m.node_of(0), m.node_of(2));
        assert_eq!(m.node_of(1), m.node_of(3));
        assert_eq!(m.node_of(0), m.node_of(1));
    }

    #[test]
    fn comparable_to_min_cost_on_random_instances() {
        let rng = DetRng::new(17);
        for seed in 0..6 {
            let n = 16;
            let mut r = rng.fork(seed);
            let corr = upper(n, |_, _| r.next_below(12));
            let cluster = ClusterConfig::new(4, n).unwrap();
            let jp = cut_cost(&corr, &jarvis_patrick(&corr, &cluster));
            let mc = cut_cost(&corr, &crate::min_cost(&corr, &cluster));
            // Both end behind KL refinement; they should land close.
            assert!(
                (jp as f64) <= mc as f64 * 1.15 + 8.0,
                "seed {seed}: jp {jp} vs mc {mc}"
            );
        }
    }

    #[test]
    fn handles_tiny_instances() {
        let corr = CorrelationMatrix::zeros(2);
        let cluster = ClusterConfig::new(2, 2).unwrap();
        let m = jarvis_patrick(&corr, &cluster);
        assert_eq!(m.num_threads(), 2);
    }
}
