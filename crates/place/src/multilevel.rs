//! Multilevel partitioning for production-scale thread counts.
//!
//! The paper's min-cost heuristic is O(T² log T) to seed and O(T²) per
//! refinement pass — excellent at 64 threads, hopeless at a million. This
//! module implements the classic multilevel scheme (the sharing-matrix →
//! graph-partitioning pipeline of the STM thread-mapping survey):
//!
//! 1. **Coarsen** — repeatedly merge high-affinity threads (heavy-edge
//!    clustering, capped so no cluster outgrows a node quota) until the
//!    graph is a small multiple of the node count;
//! 2. **Partition** — place the coarse clusters greedily by affinity under
//!    the exact per-node quotas of [`Mapping::stretch`];
//! 3. **Uncoarsen** — project back level by level, refining at each level
//!    with affinity-driven moves and equal-weight neighbor swaps, and at
//!    the finest level rebalancing to the exact stretch quotas. Small
//!    instances finish with the full incremental Kernighan-Lin kernel
//!    ([`refine_kl`]) via the [`DegreeCache`](crate::DegreeCache), so the
//!    multilevel path and the paper's direct path converge on the same
//!    machinery.
//!
//! Refinement keeps a per-vertex `slack`, its weight to other nodes minus
//! its weight to its own node, which bounds `conn(p) − conn(own)` for every
//! other node `p`. A vertex with `slack ≤ 0` cannot gain by moving, and a
//! swap of `v` and `u` across an edge of weight `w` cannot gain when
//! `slack[v] + slack[u] − 2w ≤ 0`, so those candidates are skipped without
//! reading their rows. Every skipped candidate has gain `≤ 0`, which the
//! full scan would reject too: the skips change no output bit.
//!
//! Every stage visits vertices and neighbors in ascending order with
//! explicit tie-breaks and contains no randomness or parallelism, so the
//! result is a pure function of the input store — bit-identical across
//! worker counts and runs.
//!
//! Memory note: the dense `DegreeCache` is `threads × nodes`, which at
//! 1M × 1k would be 8 GB — that is why large instances refine with the
//! sparse per-vertex connectivity scratch below (O(nodes) reused across
//! vertices) and only instances of at most `KL_THRESHOLD` threads build
//! the cache.

use crate::mincost::refine_kl;
use acorr_sim::{ClusterConfig, Mapping, NodeId};
use acorr_track::CorrelationMatrix;

// Tuning. The mapping digests pinned in the tests and the scale smokes
// depend on every one of these values; change one and the output
// (deterministically) changes.

/// Stop coarsening once the graph has at most `COARSE_PER_NODE × nodes`
/// vertices.
const COARSE_PER_NODE: usize = 4;
/// Never coarsen below this many vertices regardless of node count.
const COARSE_FLOOR: usize = 128;
/// Maximum move/swap refinement passes per level.
const REFINE_PASSES: usize = 2;
/// Skip swap partners with more neighbors than this during sparse
/// refinement (hub vertices make a swap scan O(deg²) for little gain).
const SWAP_DEGREE_CAP: usize = 64;
/// Intermediate levels with more vertices than this are not refined (and
/// their graphs are freed during coarsening). The finest and coarsest
/// levels always refine.
const REFINE_SIZE_CAP: usize = 1 << 17;
/// Finish with the full incremental Kernighan-Lin kernel when the instance
/// has at most this many threads.
const KL_THRESHOLD: usize = 256;

/// A level of the multilevel hierarchy: symmetric CSR adjacency plus
/// per-vertex weights (the number of fine threads a vertex represents).
struct Graph {
    xadj: Vec<usize>,
    nbr: Vec<u32>,
    /// Edge weights, saturated to `u32`: halves the memory the hierarchy
    /// touches (the dominant cost at 10⁶ threads), and correlation counts
    /// anywhere near `u32::MAX` are far beyond any tracked workload —
    /// saturation is deterministic either way.
    wgt: Vec<u32>,
    vwgt: Vec<u64>,
}

impl Graph {
    fn len(&self) -> usize {
        self.vwgt.len()
    }

    fn neighbors(&self, v: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        (self.xadj[v]..self.xadj[v + 1]).map(|i| (self.nbr[i] as usize, self.wgt[i]))
    }

    fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// The level-0 graph: one sequential copy of each store row, because
    /// [`CorrelationMatrix::neighbors`] is already the CSR row this graph
    /// wants (sorted, mirrored, free of self-pairs).
    fn from_store(corr: &CorrelationMatrix) -> Graph {
        let n = corr.num_threads();
        let total = 2 * corr.edge_count();
        let mut xadj = Vec::with_capacity(n + 1);
        let mut nbr = Vec::with_capacity(total);
        let mut wgt = Vec::with_capacity(total);
        xadj.push(0);
        for t in 0..n {
            for &(u, v) in corr.neighbors(t) {
                nbr.push(u);
                wgt.push(v.min(u32::MAX as u64) as u32);
            }
            xadj.push(nbr.len());
        }
        Graph {
            xadj,
            nbr,
            wgt,
            vwgt: vec![1; n],
        }
    }
}

/// One round of heavy-edge clustering: visits vertices in ascending order;
/// each unassigned vertex merges with its heaviest feasible neighbor (ties:
/// lowest id) — pairing with it if it is also unassigned, *joining its
/// cluster* if it already has one — as long as the merged weight stays
/// within `max_vwgt`. Letting vertices join existing clusters (rather than
/// strict pair matching) collapses a sharing community in one round
/// instead of log₂ rounds, which matters enormously at 10⁶ threads where
/// every extra level costs an `O(E)` graph build. Returns the coarse graph
/// and the fine→coarse map, or `None` when clustering no longer shrinks
/// the graph meaningfully.
fn coarsen(g: &Graph, max_vwgt: u64) -> Option<(Graph, Vec<u32>)> {
    let n = g.len();
    let mut cmap = vec![u32::MAX; n];
    let mut cweight: Vec<u64> = Vec::new();
    for v in 0..n {
        if cmap[v] != u32::MAX {
            continue;
        }
        let wv = g.vwgt[v];
        let mut best: Option<(u32, usize)> = None;
        for (u, w) in g.neighbors(v) {
            let feasible = if cmap[u] == u32::MAX {
                wv + g.vwgt[u] <= max_vwgt
            } else {
                cweight[cmap[u] as usize] + wv <= max_vwgt
            };
            if !feasible {
                continue;
            }
            let better = match best {
                None => true,
                Some((bw, bu)) => w > bw || (w == bw && u < bu),
            };
            if better {
                best = Some((w, u));
            }
        }
        match best {
            Some((_, u)) if cmap[u] != u32::MAX => {
                let c = cmap[u];
                cmap[v] = c;
                cweight[c as usize] += wv;
            }
            Some((_, u)) => {
                let c = cweight.len() as u32;
                cmap[v] = c;
                cmap[u] = c;
                cweight.push(wv + g.vwgt[u]);
            }
            None => {
                cmap[v] = cweight.len() as u32;
                cweight.push(wv);
            }
        }
    }
    let cn = cweight.len();
    if cn * 20 > n * 19 {
        return None; // shrank less than 5% — structure is exhausted
    }
    let vwgt = cweight;
    // Counting-sort fine vertices by coarse owner so each coarse row can be
    // emitted contiguously. Everything below is flat arrays sized once —
    // per-vertex buckets and per-row sorts dominated the 10⁶-thread
    // profile on this path before.
    let mut mstart = vec![0usize; cn + 1];
    for v in 0..n {
        mstart[cmap[v] as usize + 1] += 1;
    }
    for cv in 0..cn {
        mstart[cv + 1] += mstart[cv];
    }
    let mut members = vec![0u32; n];
    let mut cursor = mstart.clone();
    for v in 0..n {
        members[cursor[cmap[v] as usize]] = v as u32;
        cursor[cmap[v] as usize] += 1;
    }
    // Emit each coarse row, coalescing parallel edges through a dense
    // last-touched-by marker instead of a sort: O(E) total. Rows come out
    // in deterministic first-encounter order (nothing downstream needs
    // them sorted; every tie-break keys on ids, not list positions).
    let mut xadj = Vec::with_capacity(cn + 1);
    xadj.push(0usize);
    let mut nbr: Vec<u32> = Vec::with_capacity(g.nbr.len());
    let mut wgt: Vec<u32> = Vec::with_capacity(g.nbr.len());
    let mut mark = vec![u32::MAX; cn];
    let mut pos = vec![0usize; cn];
    for cv in 0..cn {
        for &v in &members[mstart[cv]..mstart[cv + 1]] {
            for (u, w) in g.neighbors(v as usize) {
                let cu = cmap[u] as usize;
                if cu == cv {
                    continue;
                }
                if mark[cu] == cv as u32 {
                    wgt[pos[cu]] = wgt[pos[cu]].saturating_add(w);
                } else {
                    mark[cu] = cv as u32;
                    pos[cu] = nbr.len();
                    nbr.push(cu as u32);
                    wgt.push(w);
                }
            }
        }
        xadj.push(nbr.len());
    }
    // No shrink_to_fit: it would copy the arrays (and on this scale,
    // re-fault every page); unwritten capacity costs only address space.
    Some((
        Graph {
            xadj,
            nbr,
            wgt,
            vwgt,
        },
        cmap,
    ))
}

/// Reusable per-node connectivity scratch: `O(nodes)` memory, `O(touched)`
/// reset — the sparse stand-in for a `DegreeCache` row.
struct ConnScratch {
    conn: Vec<i64>,
    touched: Vec<u16>,
}

impl ConnScratch {
    fn new(nodes: usize) -> Self {
        ConnScratch {
            conn: vec![0; nodes],
            touched: Vec::with_capacity(16),
        }
    }

    /// Accumulates `v`'s connectivity to each node under `part`, counting
    /// only vertices for which `include` holds.
    fn gather(&mut self, g: &Graph, part: &[u16], v: usize, include: impl Fn(usize) -> bool) {
        self.clear();
        for (u, w) in g.neighbors(v) {
            if include(u) {
                let node = part[u] as usize;
                if self.conn[node] == 0 {
                    self.touched.push(part[u]);
                }
                self.conn[node] += w as i64;
            }
        }
    }

    fn get(&self, node: u16) -> i64 {
        self.conn[node as usize]
    }

    fn clear(&mut self) {
        for &node in &self.touched {
            self.conn[node as usize] = 0;
        }
        self.touched.clear();
    }
}

/// Initial partition of the coarsest graph: vertices in descending weight
/// (ties: ascending id) go to the highest-affinity node with remaining
/// quota; vertices with no placed affinity (or none that fits) fall back to
/// the node with the most remaining capacity (ties: lowest id).
fn initial_partition(g: &Graph, quotas: &[u64]) -> Vec<u16> {
    let n = g.len();
    let nodes = quotas.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| g.vwgt[b].cmp(&g.vwgt[a]).then(a.cmp(&b)));
    // `u16::MAX` marks "unplaced": `ClusterConfig::new` caps a cluster at
    // 65535 nodes, so it is never a real node.
    let mut part = vec![u16::MAX; n];
    let mut loads = vec![0u64; nodes];
    let mut scratch = ConnScratch::new(nodes);
    for v in order {
        let w = g.vwgt[v];
        scratch.gather(g, &part, v, |u| part[u] != u16::MAX);
        let mut best: Option<(i64, u16)> = None;
        for &node in &scratch.touched {
            if loads[node as usize] + w > quotas[node as usize] {
                continue;
            }
            let conn = scratch.get(node);
            let better = match best {
                None => true,
                Some((bc, bn)) => conn > bc || (conn == bc && node < bn),
            };
            if better {
                best = Some((conn, node));
            }
        }
        let node = match best {
            Some((_, node)) => node,
            None => {
                // Most remaining capacity, lowest id on ties; allow
                // overflow (fixed during uncoarsening) if nothing fits.
                let mut fallback = 0u16;
                let mut most: i64 = i64::MIN;
                for node in 0..nodes {
                    let rem = quotas[node] as i64 - loads[node] as i64;
                    if rem > most {
                        most = rem;
                        fallback = node as u16;
                    }
                }
                fallback
            }
        };
        part[v] = node;
        loads[node as usize] += w;
    }
    part
}

/// Each vertex's `slack`: its weight to other nodes minus its weight to
/// its own node. For every node `p` other than its own, `conn(p)` is part
/// of the first sum, so `conn(p) − conn(own) ≤ slack`: a vertex with
/// `slack ≤ 0` has no neighbor node it connects to more than its own.
fn slacks(g: &Graph, part: &[u16]) -> Vec<i64> {
    (0..g.len())
        .map(|v| {
            g.neighbors(v)
                .filter(|&(u, _)| u != v)
                .map(|(u, w)| {
                    if part[u] == part[v] {
                        -(w as i64)
                    } else {
                        w as i64
                    }
                })
                .sum()
        })
        .collect()
}

/// Moves `v` to node `to` and keeps every [`slacks`] entry exact in
/// `O(deg)`: `v`'s own is recounted, and a neighbor's changes by twice the
/// edge weight when `v` leaves its node (`+`) or joins it (`−`).
fn move_vertex(g: &Graph, part: &mut [u16], slack: &mut [i64], v: usize, to: u16) {
    let from = part[v];
    part[v] = to;
    let mut own = 0;
    for (u, w) in g.neighbors(v) {
        if u == v {
            continue;
        }
        let w = w as i64;
        if part[u] == to {
            slack[u] -= 2 * w;
            own -= w;
        } else {
            if part[u] == from {
                slack[u] += 2 * w;
            }
            own += w;
        }
    }
    slack[v] = own;
}

/// Affinity-driven single-vertex moves: each vertex may move to the
/// neighbor node it connects to most, when that strictly improves
/// connectivity and the target has quota room. `O(E)` per pass.
///
/// A vertex whose [`slacks`] entry is `≤ 0` cannot strictly improve, so
/// it is skipped without gathering its connectivity; the skip is exact,
/// and the visiting order and every choice are those of the full scan.
fn refine_moves(g: &Graph, part: &mut [u16], loads: &mut [u64], quotas: &[u64], passes: usize) {
    let mut scratch = ConnScratch::new(quotas.len());
    let mut slack = slacks(g, part);
    for _ in 0..passes {
        let mut moved = false;
        for v in 0..g.len() {
            if slack[v] <= 0 {
                continue;
            }
            let cur = part[v];
            let w = g.vwgt[v];
            scratch.gather(g, part, v, |u| u != v);
            let here = scratch.get(cur);
            let mut best: Option<(i64, u16)> = None;
            for &node in &scratch.touched {
                if node == cur || loads[node as usize] + w > quotas[node as usize] {
                    continue;
                }
                let conn = scratch.get(node);
                if conn <= here {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bc, bn)) => conn > bc || (conn == bc && node < bn),
                };
                if better {
                    best = Some((conn, node));
                }
            }
            if let Some((_, node)) = best {
                loads[cur as usize] -= w;
                loads[node as usize] += w;
                move_vertex(g, part, &mut slack, v, node);
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
}

/// Kernighan-Lin-flavoured neighbor swaps between equal-weight vertices on
/// different nodes (loads are invariant): first positive gain wins, applied
/// immediately, vertices and neighbors in ascending order. `O(Σ deg²)` per
/// pass, bounded by [`SWAP_DEGREE_CAP`] against hub blowup.
///
/// Swapping `v` and `u` across an edge of weight `w` gains
/// `dv + du − 2w`, where `dv = conn_v(pu) − conn_v(pv)` is at most
/// `slack[v]` and `du` at most `slack[u]` (see [`slacks`]). A pair with
/// `slack[v] + slack[u] − 2w ≤ 0` is skipped before either row is read,
/// `v`'s connectivity is gathered only for a pair that passes, and `u`'s
/// only when `dv + slack[u] − 2w > 0`. Every skipped pair has gain `≤ 0`,
/// so the swaps applied are exactly those of the full scan.
fn refine_swaps(g: &Graph, part: &mut [u16], nodes: usize, passes: usize) {
    let mut conn_v = ConnScratch::new(nodes);
    let mut conn_u = ConnScratch::new(nodes);
    let mut slack = slacks(g, part);
    for _ in 0..passes {
        let mut swapped = false;
        for v in 0..g.len() {
            if g.degree(v) > SWAP_DEGREE_CAP {
                continue;
            }
            let mut gathered = false;
            for i in self_range(g, v) {
                let u = g.nbr[i] as usize;
                let w = g.wgt[i] as i64;
                if u <= v || part[u] == part[v] || g.vwgt[u] != g.vwgt[v] {
                    continue;
                }
                if g.degree(u) > SWAP_DEGREE_CAP || slack[v] + slack[u] - 2 * w <= 0 {
                    continue;
                }
                let (pv, pu) = (part[v], part[u]);
                if !gathered {
                    conn_v.gather(g, part, v, |t| t != v);
                    gathered = true;
                }
                let dv = conn_v.get(pu) - conn_v.get(pv);
                if dv + slack[u] - 2 * w <= 0 {
                    continue;
                }
                conn_u.gather(g, part, u, |t| t != u);
                let gain = dv + (conn_u.get(pv) - conn_u.get(pu)) - 2 * w;
                if gain > 0 {
                    move_vertex(g, part, &mut slack, v, pu);
                    move_vertex(g, part, &mut slack, u, pv);
                    swapped = true;
                    gathered = false;
                }
            }
        }
        if !swapped {
            break;
        }
    }
}

fn self_range(g: &Graph, v: usize) -> std::ops::Range<usize> {
    g.xadj[v]..g.xadj[v + 1]
}

/// Restores the exact stretch quotas at the finest (unit-weight) level:
/// one ascending sweep moves vertices off over-quota nodes onto the
/// under-quota node they connect to most (ties: lowest id; no connection:
/// lowest under-quota id). Loads of full nodes never drop below quota, so
/// the sweep terminates with every node exactly at quota.
fn rebalance(g: &Graph, part: &mut [u16], loads: &mut [u64], quotas: &[u64]) {
    let nodes = quotas.len();
    let mut scratch = ConnScratch::new(nodes);
    let mut cursor = 0usize; // lowest node that might still be under quota
    for v in 0..g.len() {
        let cur = part[v] as usize;
        if loads[cur] <= quotas[cur] {
            continue;
        }
        scratch.gather(g, part, v, |u| u != v);
        let mut best: Option<(i64, u16)> = None;
        for &node in &scratch.touched {
            if loads[node as usize] >= quotas[node as usize] || node as usize == cur {
                continue;
            }
            let conn = scratch.get(node);
            let better = match best {
                None => true,
                Some((bc, bn)) => conn > bc || (conn == bc && node < bn),
            };
            if better {
                best = Some((conn, node));
            }
        }
        let target = match best {
            Some((_, node)) => node as usize,
            None => {
                while cursor < nodes && loads[cursor] >= quotas[cursor] {
                    cursor += 1;
                }
                debug_assert!(cursor < nodes, "overload implies an under-quota node");
                cursor
            }
        };
        loads[cur] -= 1;
        loads[target] += 1;
        part[v] = target as u16;
    }
}

/// Places `corr.num_threads()` threads on `cluster` by coarsen → partition
/// → uncoarsen+refine.
///
/// The result always honours the exact per-node populations of
/// [`Mapping::stretch`] (the paper's "constant and equal number of threads
/// on each node"), and is a deterministic pure function of `(corr,
/// cluster)` — independent of worker counts, machines and runs.
///
/// # Panics
///
/// Panics if the matrix covers a different thread count than the cluster.
pub fn multilevel_place(corr: &CorrelationMatrix, cluster: &ClusterConfig) -> Mapping {
    let n = corr.num_threads();
    assert_eq!(
        n,
        cluster.num_threads(),
        "store and cluster must cover the same threads"
    );
    let nodes = cluster.num_nodes();
    let quotas: Vec<u64> = Mapping::stretch(cluster)
        .node_counts()
        .into_iter()
        .map(|c| c as u64)
        .collect();
    let max_vwgt = quotas.iter().copied().max().unwrap_or(1);
    let target = (COARSE_PER_NODE * nodes).max(COARSE_FLOOR).max(nodes);

    // Coarsen. Intermediate graphs above `REFINE_SIZE_CAP` vertices are
    // dropped as soon as their coarser level exists: refining there costs
    // more (in freshly faulted memory, the bottleneck at 10⁶ threads) than
    // it buys, and the uncoarsening projection only needs the cmaps. The
    // finest graph (index 0) and every kept level stay for refinement.
    let mut graphs: Vec<Option<Graph>> = vec![Some(Graph::from_store(corr))];
    let mut cmaps: Vec<Vec<u32>> = Vec::new();
    loop {
        let cur = graphs.last().expect("one level").as_ref().expect("kept");
        if cur.len() <= target {
            break;
        }
        match coarsen(cur, max_vwgt) {
            Some((coarse, cmap)) => {
                cmaps.push(cmap);
                let idx = graphs.len() - 1;
                if idx > 0 && graphs[idx].as_ref().expect("kept").len() > REFINE_SIZE_CAP {
                    graphs[idx] = None;
                }
                graphs.push(Some(coarse));
            }
            None => break,
        }
    }

    // Partition the coarsest level, then refine it in place.
    let coarsest = graphs.last().expect("level").as_ref().expect("kept");
    let mut part = initial_partition(coarsest, &quotas);
    let mut loads = node_loads(coarsest, &part, nodes);
    refine_moves(coarsest, &mut part, &mut loads, &quotas, REFINE_PASSES);
    refine_swaps(coarsest, &mut part, nodes, REFINE_PASSES);

    // Uncoarsen: project through each map, refining at every kept level.
    for level in (0..cmaps.len()).rev() {
        let cmap = &cmaps[level];
        let mut fine = vec![0u16; cmap.len()];
        for v in 0..cmap.len() {
            fine[v] = part[cmap[v] as usize];
        }
        part = fine;
        if let Some(g) = &graphs[level] {
            let mut loads = node_loads(g, &part, nodes);
            refine_moves(g, &mut part, &mut loads, &quotas, REFINE_PASSES);
            // At the finest level a single first-improvement sweep captures
            // nearly all the swap gain; further sweeps cost seconds at 10⁶
            // threads for sub-percent cut movement (and small instances
            // finish in refine_kl below anyway).
            let swap_passes = if level == 0 { 1 } else { REFINE_PASSES };
            if level == 0 {
                rebalance(g, &mut part, &mut loads, &quotas);
            }
            refine_swaps(g, &mut part, nodes, swap_passes);
        }
    }
    if cmaps.is_empty() {
        // Never coarsened: the finest level is the one just refined above —
        // enforce the exact quotas it would otherwise get at level 0.
        let g = graphs[0].as_ref().expect("finest level is always kept");
        let mut loads = node_loads(g, &part, nodes);
        rebalance(g, &mut part, &mut loads, &quotas);
        refine_swaps(g, &mut part, nodes, REFINE_PASSES);
    }

    let mapping = Mapping::from_assignment(cluster, part.into_iter().map(NodeId).collect())
        .expect("rebalanced partition fills every node to quota");
    if n <= KL_THRESHOLD {
        // Small instances converge on the paper's own incremental KL kernel
        // (DegreeCache) for heuristic parity.
        refine_kl(corr, mapping)
    } else {
        mapping
    }
}

fn node_loads(g: &Graph, part: &[u16], nodes: usize) -> Vec<u64> {
    let mut loads = vec![0u64; nodes];
    for v in 0..g.len() {
        loads[part[v] as usize] += g.vwgt[v];
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mincost::min_cost;
    use acorr_sim::{forall, DetRng};
    use acorr_track::cut_cost;

    /// The two-pass level-0 build `Graph::from_store` replaced: count each
    /// vertex's degree, then scatter every edge into both endpoint rows.
    fn reference_from_store(corr: &CorrelationMatrix) -> Graph {
        let n = corr.num_threads();
        let mut deg = vec![0usize; n];
        corr.for_each_edge(|a, b, _| {
            deg[a] += 1;
            deg[b] += 1;
        });
        let mut xadj = Vec::with_capacity(n + 1);
        let mut total = 0;
        xadj.push(0);
        for d in &deg {
            total += d;
            xadj.push(total);
        }
        let mut cursor: Vec<usize> = xadj[..n].to_vec();
        let mut nbr = vec![0u32; total];
        let mut wgt = vec![0u32; total];
        corr.for_each_edge(|a, b, v| {
            let w = v.min(u32::MAX as u64) as u32;
            nbr[cursor[a]] = b as u32;
            wgt[cursor[a]] = w;
            cursor[a] += 1;
            nbr[cursor[b]] = a as u32;
            wgt[cursor[b]] = w;
            cursor[b] += 1;
        });
        Graph {
            xadj,
            nbr,
            wgt,
            vwgt: vec![1; n],
        }
    }

    /// `refine_moves` without the slack bound: gathers every vertex.
    fn reference_moves(
        g: &Graph,
        part: &mut [u16],
        loads: &mut [u64],
        quotas: &[u64],
        passes: usize,
    ) {
        let mut scratch = ConnScratch::new(quotas.len());
        for _ in 0..passes {
            let mut moved = false;
            for v in 0..g.len() {
                let cur = part[v];
                let w = g.vwgt[v];
                scratch.gather(g, part, v, |u| u != v);
                let here = scratch.get(cur);
                let mut best: Option<(i64, u16)> = None;
                for &node in &scratch.touched {
                    if node == cur || loads[node as usize] + w > quotas[node as usize] {
                        continue;
                    }
                    let conn = scratch.get(node);
                    if conn <= here {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some((bc, bn)) => conn > bc || (conn == bc && node < bn),
                    };
                    if better {
                        best = Some((conn, node));
                    }
                }
                if let Some((_, node)) = best {
                    loads[cur as usize] -= w;
                    loads[node as usize] += w;
                    part[v] = node;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
    }

    /// `refine_swaps` without the slack bound: gathers both rows of every
    /// candidate pair.
    fn reference_swaps(g: &Graph, part: &mut [u16], nodes: usize, passes: usize) {
        let mut conn_v = ConnScratch::new(nodes);
        let mut conn_u = ConnScratch::new(nodes);
        for _ in 0..passes {
            let mut swapped = false;
            for v in 0..g.len() {
                if g.degree(v) > SWAP_DEGREE_CAP {
                    continue;
                }
                conn_v.gather(g, part, v, |t| t != v);
                for i in self_range(g, v) {
                    let u = g.nbr[i] as usize;
                    let w = g.wgt[i];
                    if u <= v || part[u] == part[v] || g.vwgt[u] != g.vwgt[v] {
                        continue;
                    }
                    if g.degree(u) > SWAP_DEGREE_CAP {
                        continue;
                    }
                    let (pv, pu) = (part[v], part[u]);
                    conn_u.gather(g, part, u, |t| t != u);
                    let gain = (conn_v.get(pu) - conn_v.get(pv))
                        + (conn_u.get(pv) - conn_u.get(pu))
                        - 2 * w as i64;
                    if gain > 0 {
                        part[v] = pu;
                        part[u] = pv;
                        swapped = true;
                        conn_v.gather(g, part, v, |t| t != v);
                    }
                }
            }
            if !swapped {
                break;
            }
        }
    }

    /// A refinement input: a store, vertex weights, a starting part and
    /// per-node quotas that leave some nodes over and some under.
    #[derive(Debug)]
    struct RefineCase {
        corr: CorrelationMatrix,
        vwgt: Vec<u64>,
        part: Vec<u16>,
        quotas: Vec<u64>,
    }

    fn refine_case(rng: &mut DetRng) -> RefineCase {
        let n = rng.range(2, 121) as usize;
        let nodes = rng.range(1, 10) as usize;
        // Mostly sparse rows, sometimes rows past `SWAP_DEGREE_CAP`.
        let pairs = if rng.chance(0.2) {
            rng.index(n * n / 2 + 1)
        } else {
            rng.index(6 * n + 1)
        };
        let edges = (0..pairs)
            .map(|_| {
                let (a, b) = (rng.index(n) as u32, rng.index(n) as u32);
                // Some weights at and just past `u32::MAX`, so that the
                // graph's saturated `u32` weights are exercised.
                let w = match rng.next_below(16) {
                    0 => u32::MAX as u64 - rng.next_below(2),
                    1 => u32::MAX as u64 + 1 + rng.next_below(2),
                    _ => rng.range(1, 21),
                };
                (a, b, w)
            })
            .collect::<Vec<_>>();
        let heaviest = rng.range(1, 5);
        let vwgt: Vec<u64> = (0..n).map(|_| rng.range(1, heaviest + 1)).collect();
        let part: Vec<u16> = (0..n).map(|_| rng.index(nodes) as u16).collect();
        let mut loads = vec![0u64; nodes];
        for v in 0..n {
            loads[part[v] as usize] += vwgt[v];
        }
        let spread = 1 + vwgt.iter().sum::<u64>() / nodes as u64;
        let quotas = loads
            .iter()
            .map(|&l| (l + rng.range(0, 2 * spread + 1)).saturating_sub(spread))
            .collect();
        RefineCase {
            corr: CorrelationMatrix::from_edges(n, edges),
            vwgt,
            part,
            quotas,
        }
    }

    #[test]
    fn pruned_refinement_and_row_copy_match_the_full_scans() {
        forall(400, 0, refine_case, |case| {
            let mut g = Graph::from_store(&case.corr);
            let want = reference_from_store(&case.corr);
            assert_eq!(
                (&g.xadj, &g.nbr, &g.wgt, &g.vwgt),
                (&want.xadj, &want.nbr, &want.wgt, &want.vwgt),
                "from_store"
            );
            g.vwgt.clone_from(&case.vwgt);
            let nodes = case.quotas.len();
            for passes in 1..=3 {
                let mut part = case.part.clone();
                let mut want = case.part.clone();
                refine_swaps(&g, &mut part, nodes, passes);
                reference_swaps(&g, &mut want, nodes, passes);
                assert_eq!(part, want, "swaps from the start, {passes} passes");

                let mut part = case.part.clone();
                let mut loads = node_loads(&g, &part, nodes);
                let mut want = part.clone();
                let mut want_loads = loads.clone();
                refine_moves(&g, &mut part, &mut loads, &case.quotas, passes);
                reference_moves(&g, &mut want, &mut want_loads, &case.quotas, passes);
                assert_eq!(
                    (&part, &loads),
                    (&want, &want_loads),
                    "moves, {passes} passes"
                );
                refine_swaps(&g, &mut part, nodes, passes);
                reference_swaps(&g, &mut want, nodes, passes);
                assert_eq!(part, want, "swaps after moves, {passes} passes");
                assert_eq!(node_loads(&g, &part, nodes), loads, "swaps keep loads");
            }
        });
    }

    fn blocks(n: usize, block: usize, w: u64) -> CorrelationMatrix {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if a / block == b / block {
                    edges.push((a as u32, b as u32, w));
                }
            }
        }
        CorrelationMatrix::from_edges(n, edges)
    }

    fn random_sparse(n: usize, edges: usize, seed: u64) -> CorrelationMatrix {
        let mut rng = DetRng::new(seed);
        let mut list = Vec::with_capacity(edges);
        for _ in 0..edges {
            let a = rng.next_below(n as u64) as u32;
            let b = rng.next_below(n as u64) as u32;
            if a != b {
                list.push((a, b, 1 + rng.next_below(16)));
            }
        }
        CorrelationMatrix::from_edges(n, list)
    }

    fn quota_balanced(m: &Mapping, cluster: &ClusterConfig) -> bool {
        let mut got = m.node_counts();
        let mut want = Mapping::stretch(cluster).node_counts();
        got.sort_unstable();
        want.sort_unstable();
        got == want
    }

    #[test]
    fn block_structure_reaches_zero_cut() {
        let corr = blocks(64, 8, 5);
        let cluster = ClusterConfig::new(8, 64).unwrap();
        let m = multilevel_place(&corr, &cluster);
        assert_eq!(cut_cost(&corr, &m), 0, "mapping {m}");
        assert!(quota_balanced(&m, &cluster));
    }

    #[test]
    fn scrambled_blocks_are_recovered() {
        // Threads i, i+16, i+32, i+48 share: stretch is terrible, the
        // multilevel pipeline must still find a zero-cut grouping.
        let n = 64;
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if a % 16 == b % 16 {
                    edges.push((a as u32, b as u32, 7));
                }
            }
        }
        let corr = CorrelationMatrix::from_edges(n, edges);
        let cluster = ClusterConfig::new(16, n).unwrap();
        let m = multilevel_place(&corr, &cluster);
        assert_eq!(cut_cost(&corr, &m), 0);
        assert!(cut_cost(&corr, &Mapping::stretch(&cluster)) > 0);
    }

    #[test]
    fn random_instances_stay_quota_balanced_and_deterministic() {
        for seed in 0..5 {
            let n = 200;
            let corr = random_sparse(n, 900, seed);
            let cluster = ClusterConfig::new(7, n).unwrap();
            let a = multilevel_place(&corr, &cluster);
            let b = multilevel_place(&corr, &cluster);
            assert_eq!(a, b, "seed {seed}: must be deterministic");
            assert!(quota_balanced(&a, &cluster), "seed {seed}");
        }
    }

    #[test]
    fn parity_with_direct_min_cost_at_small_sizes() {
        // ≤ 256 threads: the multilevel path ends in the same refine_kl
        // kernel as min_cost; its cut must stay within 10% (plus a small
        // absolute slack) of the direct heuristic on random instances.
        for (n, nodes, seed) in [(96usize, 4usize, 1u64), (192, 6, 2), (256, 8, 3)] {
            let corr = random_sparse(n, n * 6, seed);
            let cluster = ClusterConfig::new(nodes, n).unwrap();
            let ml = cut_cost(&corr, &multilevel_place(&corr, &cluster));
            let direct = cut_cost(&corr, &min_cost(&corr, &cluster));
            assert!(
                ml <= direct + direct / 10 + 8,
                "n={n}: multilevel {ml} vs direct {direct}"
            );
        }
    }

    #[test]
    fn pinned_cut_within_bound_of_direct_min_cost_at_2048x16() {
        // Above KL_THRESHOLD the multilevel path trades full-resolution KL
        // for coarse structure. The direct cut below is a recorded
        // constant, not recomputed: `min_cost` on this instance takes
        // about 13 s in a debug build, the multilevel side about 25 ms.
        const DIRECT_MIN_COST_CUT: u64 = 65_070;
        let corr = crate::power_law_affinity(2048, 8, 42, 0);
        let cluster = ClusterConfig::new(16, 2048).unwrap();
        let ml = cut_cost(&corr, &multilevel_place(&corr, &cluster));
        assert_eq!(ml, 93_222);
        assert!(
            ml as f64 <= 1.5 * DIRECT_MIN_COST_CUT as f64,
            "multilevel {ml} vs direct {DIRECT_MIN_COST_CUT}"
        );
    }

    #[test]
    fn tiny_and_degenerate_instances_work() {
        // threads == nodes (quota 1 each), single node, empty correlation.
        let corr = random_sparse(6, 10, 4);
        let cluster = ClusterConfig::new(6, 6).unwrap();
        let m = multilevel_place(&corr, &cluster);
        assert!(quota_balanced(&m, &cluster));

        let one = ClusterConfig::new(1, 6).unwrap();
        assert_eq!(cut_cost(&corr, &multilevel_place(&corr, &one)), 0);

        let empty = CorrelationMatrix::zeros(12);
        let cluster = ClusterConfig::new(3, 12).unwrap();
        let m = multilevel_place(&empty, &cluster);
        assert!(quota_balanced(&m, &cluster));
        assert_eq!(cut_cost(&empty, &m), 0);
    }

    #[test]
    fn ragged_quotas_are_respected() {
        let corr = random_sparse(100, 400, 5);
        let cluster = ClusterConfig::new(7, 100).unwrap();
        let m = multilevel_place(&corr, &cluster);
        assert!(quota_balanced(&m, &cluster));
    }

    #[test]
    fn coarsening_respects_weight_cap_and_shrinks() {
        let corr = blocks(64, 4, 3);
        let g = Graph::from_store(&corr);
        let (coarse, cmap) = coarsen(&g, 8).expect("must shrink");
        assert!(coarse.len() < g.len());
        assert!(coarse.vwgt.iter().all(|&w| w <= 8));
        assert_eq!(cmap.len(), g.len());
        let total: u64 = coarse.vwgt.iter().sum();
        assert_eq!(total, 64, "vertex weight is conserved");
    }

    #[test]
    fn larger_instance_beats_stretch_on_scrambled_structure() {
        // 2048 threads in 32 interleaved communities on 16 nodes.
        let n = 2048;
        let mut edges = Vec::new();
        let mut rng = DetRng::new(11);
        for a in 0..n {
            for _ in 0..6 {
                let step = 32 * (1 + rng.next_below(8) as usize);
                let b = (a + step) % n;
                if a % 32 == b % 32 && a != b {
                    edges.push((a as u32, b as u32, 1 + rng.next_below(8)));
                }
            }
        }
        let corr = CorrelationMatrix::from_edges(n, edges);
        let cluster = ClusterConfig::new(16, n).unwrap();
        let ml = cut_cost(&corr, &multilevel_place(&corr, &cluster));
        let stretch = cut_cost(&corr, &Mapping::stretch(&cluster));
        assert!(ml < stretch / 2, "multilevel {ml} vs stretch {stretch}");
    }
}
