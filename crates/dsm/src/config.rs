//! Engine configuration.

use acorr_sim::{ClusterConfig, CostModel, FaultPlan, NetworkModel, SimDuration};

/// Which write-sharing protocol the DSM runs.
///
/// The paper's CVM uses multi-writer lazy release consistency; its §6
/// discusses older *single-writer* protocols (Mirage, and the systems
/// behind PARSEC's suspension scheduling), where a page has one writable
/// copy at a time and ownership migrates on write faults. Such protocols
/// live or die by the **delta interval**: a newly arrived page is frozen at
/// its owner for a minimum time before it can be stolen away, or two
/// alternating writers ping-pong the page on every access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Multi-writer LRC with twins and diffs (CVM's protocol; the default).
    MultiWriter,
    /// Single-writer ownership protocol with a Mirage-style delta interval:
    /// after an ownership transfer, the page cannot be stolen again for
    /// `delta`.
    SingleWriter {
        /// Minimum residence time of a page at its owner.
        delta: SimDuration,
    },
}

/// A deliberately planted protocol bug, for exercising the fault
/// model-checker end to end.
///
/// The explorer's acceptance test needs a *real* seeded defect: a bug that
/// is invisible under fault-free schedules, is found by systematic
/// fault × schedule exploration, and shrinks to a minimal replay token.
/// Gating the defect behind configuration keeps it out of every production
/// path while letting tests inject it into an otherwise-stock engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedBug {
    /// While a network partition is active, invalidations (write notices)
    /// destined for nodes on the far side of the cut are silently dropped
    /// instead of queued for the heal — a classic partition-tolerance bug
    /// that leaves stale valid copies behind and trips the coherence oracle
    /// at the very next barrier.
    LosePartitionedInvalidations,
}

/// Configuration of one DSM instance.
///
/// Use [`DsmConfig::new`] for the defaults and the with-methods for
/// adjustments:
///
/// ```
/// use acorr_dsm::DsmConfig;
/// use acorr_sim::ClusterConfig;
/// let cluster = ClusterConfig::new(8, 64)?;
/// let config = DsmConfig::new(cluster).with_gc_threshold(4096);
/// assert_eq!(config.gc_diff_threshold, 4096);
/// # Ok::<(), acorr_sim::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DsmConfig {
    /// Cluster shape: nodes and total threads.
    pub cluster: ClusterConfig,
    /// Network cost model.
    pub network: NetworkModel,
    /// CPU cost model.
    pub cost: CostModel,
    /// Garbage collection fires at a barrier once this many diff records are
    /// pending across all pages.
    pub gc_diff_threshold: usize,
    /// Write-sharing protocol.
    pub write_mode: WriteMode,
    /// Deterministic network fault plan applied at every send; the default
    /// ([`FaultPlan::none`]) perturbs nothing and adds zero cost.
    pub faults: FaultPlan,
    /// Deliberately planted protocol defect for model-checker tests; `None`
    /// (the default) is the correct engine.
    pub inject: Option<InjectedBug>,
}

impl DsmConfig {
    /// A configuration with default cost models and GC threshold.
    pub fn new(cluster: ClusterConfig) -> Self {
        DsmConfig {
            cluster,
            network: NetworkModel::default(),
            cost: CostModel::default(),
            gc_diff_threshold: 16 * 1024,
            write_mode: WriteMode::MultiWriter,
            faults: FaultPlan::none(),
            inject: None,
        }
    }

    /// Replaces the network model.
    #[must_use]
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Replaces the CPU cost model.
    #[must_use]
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Replaces the GC trigger threshold (pending diff records).
    #[must_use]
    pub fn with_gc_threshold(mut self, records: usize) -> Self {
        self.gc_diff_threshold = records;
        self
    }

    /// Replaces the write-sharing protocol.
    #[must_use]
    pub fn with_write_mode(mut self, mode: WriteMode) -> Self {
        self.write_mode = mode;
        self
    }

    /// Replaces the network fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Plants a deliberate protocol defect (test fixtures only).
    #[must_use]
    pub fn with_injected_bug(mut self, bug: InjectedBug) -> Self {
        self.inject = Some(bug);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let cluster = ClusterConfig::new(4, 16).unwrap();
        let c = DsmConfig::new(cluster)
            .with_gc_threshold(100)
            .with_network(NetworkModel::default())
            .with_cost(CostModel::default());
        assert_eq!(c.gc_diff_threshold, 100);
        assert_eq!(c.cluster.num_threads(), 16);
        assert_eq!(c.write_mode, WriteMode::MultiWriter);
        let sw = c.with_write_mode(WriteMode::SingleWriter {
            delta: SimDuration::from_millis(1),
        });
        assert!(matches!(sw.write_mode, WriteMode::SingleWriter { .. }));
    }

    #[test]
    fn faults_default_to_none_and_chain() {
        let cluster = ClusterConfig::new(2, 4).unwrap();
        let c = DsmConfig::new(cluster);
        assert!(c.faults.is_none());
        let f = c.with_faults(FaultPlan::moderate(3));
        assert!(!f.faults.is_none());
        assert_eq!(f.faults.seed, 3);
    }
}
