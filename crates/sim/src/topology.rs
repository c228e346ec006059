//! Cluster topology and thread-to-node mappings.
//!
//! The paper's experiments place 32-64 application threads on 4-8 nodes.
//! [`ClusterConfig`] describes the cluster shape, and [`Mapping`] is a
//! concrete assignment of threads to nodes — the object whose *cut cost* the
//! paper evaluates and whose realization is thread migration.

use crate::rng::DetRng;
use std::fmt;

/// Identifies one node (machine) of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The node's index, for use with slices.
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The most nodes a cluster may have: every id fits a [`NodeId`], and
/// `u16::MAX` itself is never a node, so placement code can use it to mark
/// "no node yet".
const MAX_NODES: usize = u16::MAX as usize;

/// Errors from constructing topologies or mappings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The cluster must contain at least one node.
    NoNodes,
    /// The cluster has more nodes than 16-bit node ids can name (65535;
    /// the id `u16::MAX` is reserved).
    TooManyNodes {
        /// Number of nodes requested.
        nodes: usize,
    },
    /// There must be at least one thread per node.
    TooFewThreads {
        /// Number of threads requested.
        threads: usize,
        /// Number of nodes requested.
        nodes: usize,
    },
    /// A thread count lies outside the range a computation supports.
    ThreadsOutOfRange {
        /// Number of threads requested.
        threads: usize,
        /// The fewest threads supported.
        min: usize,
        /// The most threads supported.
        max: usize,
    },
    /// A mapping referenced a node outside the cluster.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The number of nodes in the cluster.
        nodes: usize,
    },
    /// A mapping left some node without any thread.
    EmptyNode {
        /// The node with no threads.
        node: usize,
    },
    /// A mapping's thread count does not match the cluster.
    ThreadCountMismatch {
        /// Threads in the mapping.
        got: usize,
        /// Threads in the cluster.
        expected: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoNodes => write!(f, "cluster must contain at least one node"),
            TopologyError::TooManyNodes { nodes } => {
                write!(
                    f,
                    "{nodes} nodes exceed the limit of {MAX_NODES} (node ids are 16-bit)"
                )
            }
            TopologyError::TooFewThreads { threads, nodes } => {
                write!(f, "{threads} threads cannot populate {nodes} nodes")
            }
            TopologyError::ThreadsOutOfRange { threads, min, max } => {
                write!(
                    f,
                    "{threads} threads: supported thread counts are {min}..={max}"
                )
            }
            TopologyError::NodeOutOfRange { node, nodes } => {
                write!(f, "node index {node} out of range for {nodes}-node cluster")
            }
            TopologyError::EmptyNode { node } => {
                write!(f, "mapping leaves node {node} without threads")
            }
            TopologyError::ThreadCountMismatch { got, expected } => {
                write!(f, "mapping covers {got} threads, cluster has {expected}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The shape of the simulated cluster: how many nodes, how many application
/// threads in total.
///
/// ```
/// use acorr_sim::ClusterConfig;
/// let c = ClusterConfig::new(8, 64)?;
/// assert_eq!(c.threads_per_node(), 8);
/// # Ok::<(), acorr_sim::TopologyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterConfig {
    num_nodes: usize,
    num_threads: usize,
}

impl ClusterConfig {
    /// Creates a cluster description.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NoNodes`] for an empty cluster,
    /// [`TopologyError::TooManyNodes`] for more than 65535 nodes, and
    /// [`TopologyError::TooFewThreads`] when there are fewer threads than
    /// nodes (every node must host at least one thread).
    pub fn new(num_nodes: usize, num_threads: usize) -> Result<Self, TopologyError> {
        if num_nodes == 0 {
            return Err(TopologyError::NoNodes);
        }
        if num_nodes > MAX_NODES {
            return Err(TopologyError::TooManyNodes { nodes: num_nodes });
        }
        if num_threads < num_nodes {
            return Err(TopologyError::TooFewThreads {
                threads: num_threads,
                nodes: num_nodes,
            });
        }
        Ok(ClusterConfig {
            num_nodes,
            num_threads,
        })
    }

    /// Number of nodes in the cluster.
    pub const fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total number of application threads.
    pub const fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Threads per node under a balanced mapping (rounded up).
    pub const fn threads_per_node(&self) -> usize {
        self.num_threads.div_ceil(self.num_nodes)
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes as u16).map(NodeId)
    }
}

/// An assignment of every application thread to a node.
///
/// This is the object the paper's placement heuristics produce and whose cut
/// cost (pages shared across node boundaries) predicts communication.
///
/// ```
/// use acorr_sim::{ClusterConfig, Mapping};
/// let cluster = ClusterConfig::new(4, 32)?;
/// let m = Mapping::stretch(&cluster);
/// assert_eq!(m.threads_on(acorr_sim::NodeId(0)).count(), 8);
/// assert!(m.is_balanced());
/// # Ok::<(), acorr_sim::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mapping {
    nodes: usize,
    assignment: Vec<NodeId>,
}

impl Mapping {
    /// Builds a mapping from an explicit per-thread assignment.
    ///
    /// # Errors
    ///
    /// Rejects assignments that reference nodes outside the cluster, leave a
    /// node empty, or cover the wrong number of threads.
    pub fn from_assignment(
        cluster: &ClusterConfig,
        assignment: Vec<NodeId>,
    ) -> Result<Self, TopologyError> {
        if assignment.len() != cluster.num_threads() {
            return Err(TopologyError::ThreadCountMismatch {
                got: assignment.len(),
                expected: cluster.num_threads(),
            });
        }
        let mut seen = vec![false; cluster.num_nodes()];
        for &n in &assignment {
            if n.idx() >= cluster.num_nodes() {
                return Err(TopologyError::NodeOutOfRange {
                    node: n.idx(),
                    nodes: cluster.num_nodes(),
                });
            }
            seen[n.idx()] = true;
        }
        if let Some(node) = seen.iter().position(|s| !s) {
            return Err(TopologyError::EmptyNode { node });
        }
        Ok(Mapping {
            nodes: cluster.num_nodes(),
            assignment,
        })
    }

    /// The *stretch* heuristic of §5.1: keep the program's thread ordering
    /// and slice it into contiguous, equal blocks — thread `i` goes to node
    /// `i / (T/N)`.
    pub fn stretch(cluster: &ClusterConfig) -> Self {
        // Balanced contiguous blocks: thread t lands on node t*N/T, which
        // distributes any remainder one-per-node.
        let n = cluster.num_nodes();
        let total = cluster.num_threads();
        let assignment = (0..total).map(|t| NodeId((t * n / total) as u16)).collect();
        Mapping {
            nodes: n,
            assignment,
        }
    }

    /// A random *balanced* mapping: a uniformly random permutation of the
    /// stretch block sizes (every node receives the same number of threads,
    /// up to rounding).
    pub fn random_balanced(cluster: &ClusterConfig, rng: &mut DetRng) -> Self {
        let mut m = Mapping::stretch(cluster);
        rng.shuffle(&mut m.assignment);
        m
    }

    /// A random, possibly *unbalanced* mapping as in the paper's Table 2
    /// methodology: "equal numbers of threads were not necessarily present on
    /// each node, although no node ever ended up with fewer than two
    /// threads".
    ///
    /// # Panics
    ///
    /// Panics if the cluster has fewer than `2 * num_nodes` threads, which
    /// makes the constraint unsatisfiable.
    pub fn random_min_two(cluster: &ClusterConfig, rng: &mut DetRng) -> Self {
        let nodes = cluster.num_nodes();
        let threads = cluster.num_threads();
        assert!(
            threads >= 2 * nodes,
            "random_min_two needs at least two threads per node"
        );
        // Pin two threads to each node, scatter the rest uniformly, then
        // shuffle which thread gets which slot.
        let mut slots: Vec<NodeId> = Vec::with_capacity(threads);
        for n in cluster.nodes() {
            slots.push(n);
            slots.push(n);
        }
        for _ in slots.len()..threads {
            slots.push(NodeId(rng.index(nodes) as u16));
        }
        rng.shuffle(&mut slots);
        Mapping {
            nodes,
            assignment: slots,
        }
    }

    /// Randomly permutes which thread holds which slot, preserving the
    /// per-node thread counts (Figure 3 (c)'s "randomized thread
    /// assignments").
    pub fn permuted(&self, rng: &mut DetRng) -> Mapping {
        let mut m = self.clone();
        rng.shuffle(&mut m.assignment);
        m
    }

    /// The node hosting `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn node_of(&self, thread: usize) -> NodeId {
        self.assignment[thread]
    }

    /// Moves one thread to a new node, in place. The caller is responsible
    /// for keeping every node non-empty.
    pub fn set_node_of(&mut self, thread: usize, node: NodeId) {
        assert!(node.idx() < self.nodes, "node out of range");
        self.assignment[thread] = node;
    }

    /// Number of threads covered by this mapping.
    pub fn num_threads(&self) -> usize {
        self.assignment.len()
    }

    /// Number of nodes in the underlying cluster.
    pub const fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Iterates over the threads assigned to `node`.
    pub fn threads_on(&self, node: NodeId) -> impl Iterator<Item = usize> + '_ {
        self.assignment
            .iter()
            .enumerate()
            .filter(move |(_, &n)| n == node)
            .map(|(t, _)| t)
    }

    /// Per-node thread counts.
    pub fn node_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes];
        for n in &self.assignment {
            counts[n.idx()] += 1;
        }
        counts
    }

    /// True when every node hosts the same number of threads (up to the
    /// rounding slack of one when `threads % nodes != 0`).
    pub fn is_balanced(&self) -> bool {
        let counts = self.node_counts();
        let min = counts.iter().min().copied().unwrap_or(0);
        let max = counts.iter().max().copied().unwrap_or(0);
        max - min <= usize::from(!self.assignment.len().is_multiple_of(self.nodes))
    }

    /// Number of threads whose host differs between `self` and `other` — the
    /// migrations needed to reconfigure from `other` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if the mappings cover different thread counts.
    pub fn moves_from(&self, other: &Mapping) -> usize {
        assert_eq!(
            self.assignment.len(),
            other.assignment.len(),
            "mappings must cover the same threads"
        );
        self.assignment
            .iter()
            .zip(&other.assignment)
            .filter(|(a, b)| a != b)
            .count()
    }

    /// The raw per-thread assignment.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.assignment
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, n) in self.assignment.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", n.0)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(nodes: usize, threads: usize) -> ClusterConfig {
        ClusterConfig::new(nodes, threads).unwrap()
    }

    #[test]
    fn cluster_validation() {
        assert_eq!(ClusterConfig::new(0, 4), Err(TopologyError::NoNodes));
        assert_eq!(
            ClusterConfig::new(8, 4),
            Err(TopologyError::TooFewThreads {
                threads: 4,
                nodes: 8
            })
        );
        assert!(ClusterConfig::new(8, 64).is_ok());
        assert_eq!(cluster(8, 64).threads_per_node(), 8);
        assert_eq!(cluster(3, 8).threads_per_node(), 3);
    }

    #[test]
    fn node_ids_stay_within_u16_and_below_its_max() {
        assert_eq!(
            ClusterConfig::new(65_536, 70_000),
            Err(TopologyError::TooManyNodes { nodes: 65_536 })
        );
        let err = ClusterConfig::new(70_000, 70_000).unwrap_err();
        assert!(err.to_string().contains("70000 nodes"), "{err}");
        let widest = cluster(65_535, 70_000);
        let m = Mapping::stretch(&widest);
        assert_eq!(m.node_of(69_999), NodeId(65_534));
        assert_eq!(widest.nodes().count(), 65_535);
        assert!(m.node_counts().iter().all(|&c| c >= 1));
    }

    #[test]
    fn stretch_slices_contiguously() {
        let m = Mapping::stretch(&cluster(4, 32));
        for t in 0..32 {
            assert_eq!(m.node_of(t), NodeId((t / 8) as u16));
        }
        assert!(m.is_balanced());
        assert_eq!(m.node_counts(), vec![8, 8, 8, 8]);
    }

    #[test]
    fn stretch_handles_ragged_division() {
        let m = Mapping::stretch(&cluster(3, 8));
        assert_eq!(m.node_counts(), vec![3, 3, 2]);
        assert!(m.is_balanced());
    }

    #[test]
    fn random_balanced_preserves_counts() {
        let mut rng = DetRng::new(1);
        let m = Mapping::random_balanced(&cluster(8, 64), &mut rng);
        assert_eq!(m.node_counts(), vec![8; 8]);
        assert_ne!(m, Mapping::stretch(&cluster(8, 64)));
    }

    #[test]
    fn random_min_two_honors_floor() {
        let rng = DetRng::new(2);
        for seed in 0..50 {
            let m = Mapping::random_min_two(&cluster(8, 64), &mut rng.fork(seed));
            assert!(m.node_counts().iter().all(|&c| c >= 2), "{m}");
            assert_eq!(m.num_threads(), 64);
        }
    }

    #[test]
    fn random_min_two_is_actually_unbalanced_sometimes() {
        let rng = DetRng::new(3);
        let any_unbalanced = (0..20)
            .any(|s| !Mapping::random_min_two(&cluster(8, 64), &mut rng.fork(s)).is_balanced());
        assert!(any_unbalanced);
    }

    #[test]
    fn from_assignment_validates() {
        let c = cluster(2, 4);
        let ok = Mapping::from_assignment(&c, vec![NodeId(0), NodeId(1), NodeId(0), NodeId(1)]);
        assert!(ok.is_ok());
        assert_eq!(
            Mapping::from_assignment(&c, vec![NodeId(0); 3]),
            Err(TopologyError::ThreadCountMismatch {
                got: 3,
                expected: 4
            })
        );
        assert_eq!(
            Mapping::from_assignment(&c, vec![NodeId(0), NodeId(0), NodeId(0), NodeId(5)]),
            Err(TopologyError::NodeOutOfRange { node: 5, nodes: 2 })
        );
        assert_eq!(
            Mapping::from_assignment(&c, vec![NodeId(0); 4]),
            Err(TopologyError::EmptyNode { node: 1 })
        );
    }

    #[test]
    fn permutation_preserves_node_counts() {
        let mut rng = DetRng::new(4);
        let base = Mapping::stretch(&cluster(4, 32));
        let p = base.permuted(&mut rng);
        let mut a = base.node_counts();
        let mut b = p.node_counts();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(p.moves_from(&base) > 0);
    }

    #[test]
    fn moves_from_counts_migrations() {
        let c = cluster(2, 4);
        let a =
            Mapping::from_assignment(&c, vec![NodeId(0), NodeId(0), NodeId(1), NodeId(1)]).unwrap();
        let b =
            Mapping::from_assignment(&c, vec![NodeId(0), NodeId(1), NodeId(0), NodeId(1)]).unwrap();
        assert_eq!(a.moves_from(&b), 2);
        assert_eq!(a.moves_from(&a), 0);
    }

    #[test]
    fn threads_on_lists_members() {
        let m = Mapping::stretch(&cluster(4, 8));
        assert_eq!(m.threads_on(NodeId(1)).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn error_display_is_informative() {
        let e = TopologyError::EmptyNode { node: 3 };
        assert!(e.to_string().contains("node 3"));
    }
}
