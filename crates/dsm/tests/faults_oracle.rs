//! Integration tests for deterministic fault injection and the coherence
//! conformance oracle, exercised through small hand-built programs.
//!
//! Fault plans are themselves deterministic, so fixed seeds give full
//! reproducibility. The crash/partition tests draw their plans at random
//! through [`forall`], whose failures name a replayable case seed.

use acorr_dsm::{Dsm, DsmConfig, IterStats, LockId, Op, Program, WriteMode};
use acorr_mem::PAGE_SIZE;
use acorr_sim::{forall, ClusterConfig, DetRng, FaultPlan, Mapping, SimDuration};

/// A program built from explicit per-thread, per-iteration scripts.
struct Scripted {
    shared_bytes: u64,
    locks: usize,
    /// scripts[iteration][thread]
    scripts: Vec<Vec<Vec<Op>>>,
}

impl Scripted {
    fn new(shared_pages: u64, scripts: Vec<Vec<Vec<Op>>>) -> Self {
        Scripted {
            shared_bytes: shared_pages * PAGE_SIZE as u64,
            locks: 0,
            scripts,
        }
    }

    fn with_locks(mut self, locks: usize) -> Self {
        self.locks = locks;
        self
    }
}

impl Program for Scripted {
    fn name(&self) -> &str {
        "scripted"
    }
    fn shared_bytes(&self) -> u64 {
        self.shared_bytes
    }
    fn num_threads(&self) -> usize {
        self.scripts[0].len()
    }
    fn num_locks(&self) -> usize {
        self.locks
    }
    fn script(&self, thread: usize, iteration: usize) -> Vec<Op> {
        let it = iteration.min(self.scripts.len() - 1);
        self.scripts[it][thread].clone()
    }
}

const PAGE: u64 = PAGE_SIZE as u64;

/// A sharing-heavy workload: concurrent writers on one page, private pages,
/// a lock-protected counter, cross-iteration reads.
fn busy_program() -> Scripted {
    let l = LockId(0);
    Scripted::new(
        6,
        vec![vec![
            vec![
                Op::read(0, PAGE),
                Op::write(0, 128),
                Op::Lock(l),
                Op::read(4 * PAGE, 16),
                Op::write(4 * PAGE, 16),
                Op::Unlock(l),
                Op::Barrier,
                Op::read(PAGE, 64),
            ],
            vec![
                Op::read(0, PAGE),
                Op::write(2048, 128),
                Op::write(PAGE, 64),
                Op::Lock(l),
                Op::read(4 * PAGE, 16),
                Op::write(4 * PAGE, 16),
                Op::Unlock(l),
                Op::Barrier,
            ],
            vec![
                Op::read(2 * PAGE, PAGE),
                Op::write(2 * PAGE + 512, 256),
                Op::Barrier,
                Op::read(0, 256),
            ],
            vec![
                Op::read(3 * PAGE, 64),
                Op::write(3 * PAGE, 64),
                Op::Barrier,
                Op::read(2 * PAGE + 512, 64),
            ],
        ]],
    )
    .with_locks(1)
}

/// A lock-free variant: concurrent writers and cross-iteration reads only.
/// Without locks there is no timing-dependent ordering, so every protocol
/// counter is invariant under fault plans (only timing and retransmissions
/// move).
fn barrier_program() -> Scripted {
    Scripted::new(
        5,
        vec![vec![
            vec![
                Op::read(0, PAGE),
                Op::write(0, 128),
                Op::Barrier,
                Op::read(PAGE, 64),
            ],
            vec![
                Op::read(0, PAGE),
                Op::write(2048, 128),
                Op::write(PAGE, 64),
                Op::Barrier,
            ],
            vec![
                Op::read(2 * PAGE, PAGE),
                Op::write(2 * PAGE + 512, 256),
                Op::Barrier,
            ],
            vec![
                Op::write(3 * PAGE, 64),
                Op::Barrier,
                Op::read(2 * PAGE + 512, 64),
            ],
        ]],
    )
}

fn dsm_with(config: DsmConfig, program: Scripted) -> Dsm<Scripted> {
    let mapping = Mapping::stretch(&config.cluster);
    Dsm::new(config, program, mapping).unwrap()
}

fn run_with_plan(plan: FaultPlan, iterations: usize) -> (IterStats, u64) {
    let cluster = ClusterConfig::new(2, 4).unwrap();
    let config = DsmConfig::new(cluster)
        .with_gc_threshold(8)
        .with_faults(plan);
    let mut dsm = dsm_with(config, busy_program());
    dsm.enable_oracle();
    let stats = dsm.run_iterations(iterations).unwrap();
    let report = dsm.oracle_report().unwrap();
    assert_eq!(report.violations, 0, "oracle must stay clean");
    assert!(report.barriers_checked >= iterations as u64);
    (stats, report.bytes_compared)
}

/// Runs the lock-free program on 2 nodes under `plan`, oracle-checked.
fn run_barrier_program(plan: FaultPlan, iterations: usize) -> IterStats {
    let cluster = ClusterConfig::new(2, 4).unwrap();
    let mut dsm = dsm_with(DsmConfig::new(cluster).with_faults(plan), barrier_program());
    dsm.enable_oracle();
    let stats = dsm.run_iterations(iterations).unwrap();
    let violations = dsm.oracle_report().unwrap().violations;
    assert_eq!(violations, 0, "oracle must stay clean");
    stats
}

// ---------------------------------------------------------------------
// Determinism and zero-fault identity
// ---------------------------------------------------------------------

#[test]
fn zero_fault_plan_is_byte_identical_to_no_plan() {
    let cluster = ClusterConfig::new(2, 4).unwrap();
    let base = {
        let mut dsm = dsm_with(DsmConfig::new(cluster).with_gc_threshold(8), busy_program());
        dsm.run_iterations(4).unwrap()
    };
    let with_none = {
        let config = DsmConfig::new(cluster)
            .with_gc_threshold(8)
            .with_faults(FaultPlan::none());
        let mut dsm = dsm_with(config, busy_program());
        dsm.run_iterations(4).unwrap()
    };
    assert_eq!(base, with_none);
    assert_eq!(with_none.retries, 0);
    assert_eq!(with_none.net.total_retrans_messages(), 0);
}

#[test]
fn oracle_is_a_pure_observer() {
    // Enabling the oracle must not perturb any statistic.
    let cluster = ClusterConfig::new(2, 4).unwrap();
    let run = |oracle: bool| {
        let config = DsmConfig::new(cluster)
            .with_gc_threshold(8)
            .with_faults(FaultPlan::moderate(11));
        let mut dsm = dsm_with(config, busy_program());
        if oracle {
            dsm.enable_oracle();
        }
        dsm.run_iterations(4).unwrap()
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn same_seed_and_plan_reproduce_bytes_and_retries() {
    let a = run_with_plan(FaultPlan::heavy(42), 5);
    let b = run_with_plan(FaultPlan::heavy(42), 5);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}

#[test]
fn different_seeds_decorrelate_outcomes() {
    let run = |seed| run_barrier_program(FaultPlan::heavy(seed), 5);
    let (a, b) = (run(1), run(2));
    // Same lock-free program, same counters for protocol events...
    assert_eq!(a.remote_misses, b.remote_misses);
    assert_eq!(a.diffs_created, b.diffs_created);
    // ...but the perturbed timing differs.
    assert_ne!(a.elapsed, b.elapsed);
}

// ---------------------------------------------------------------------
// Fault-plan behaviour
// ---------------------------------------------------------------------

#[test]
fn faults_slow_the_run_monotonically_in_intensity() {
    let (none, _) = run_with_plan(FaultPlan::none(), 4);
    let (light, _) = run_with_plan(FaultPlan::light(7), 4);
    let (heavy, _) = run_with_plan(FaultPlan::heavy(7), 4);
    assert!(
        light.elapsed >= none.elapsed,
        "{} < {}",
        light.elapsed,
        none.elapsed
    );
    assert!(
        heavy.elapsed > none.elapsed,
        "{} <= {}",
        heavy.elapsed,
        none.elapsed
    );
}

#[test]
fn heavy_plan_forces_retransmissions() {
    // Lock-free program: every protocol counter is plan-invariant, so the
    // first-send ledgers must match the clean run exactly while the
    // retransmission ledgers fill up.
    let stats = run_barrier_program(FaultPlan::heavy(3), 6);
    assert!(
        stats.retries > 0,
        "drop probability 8% must trip over 6 iters"
    );
    assert!(stats.net.total_retrans_messages() > 0);
    assert!(stats.net.total_retrans_bytes() > 0);
    let clean = run_barrier_program(FaultPlan::none(), 6);
    assert_eq!(stats.net.total_messages(), clean.net.total_messages());
    assert_eq!(stats.net.total_bytes(), clean.net.total_bytes());
    assert_eq!(stats.remote_misses, clean.remote_misses);
}

#[test]
fn every_fault_intensity_terminates_and_stays_oracle_clean() {
    for plan in [
        FaultPlan::none(),
        FaultPlan::light(5),
        FaultPlan::moderate(5),
        FaultPlan::heavy(5),
    ] {
        let (stats, bytes) = run_with_plan(plan, 4);
        assert!(stats.barriers >= 4);
        assert!(bytes > 0, "oracle compared page contents");
    }
}

// ---------------------------------------------------------------------
// Oracle coverage across protocol features
// ---------------------------------------------------------------------

#[test]
fn oracle_clean_under_gc_pressure() {
    let cluster = ClusterConfig::new(2, 4).unwrap();
    let config = DsmConfig::new(cluster)
        .with_gc_threshold(1) // GC at every barrier
        .with_faults(FaultPlan::moderate(9));
    let mut dsm = dsm_with(config, busy_program());
    dsm.enable_oracle();
    let stats = dsm.run_iterations(5).unwrap();
    assert!(stats.gc_runs >= 1, "threshold 1 must trip");
    assert_eq!(dsm.oracle_report().unwrap().violations, 0);
}

#[test]
fn oracle_clean_under_single_writer_protocol() {
    let cluster = ClusterConfig::new(2, 4).unwrap();
    let config = DsmConfig::new(cluster)
        .with_write_mode(WriteMode::SingleWriter {
            delta: SimDuration::from_micros(100),
        })
        .with_faults(FaultPlan::moderate(13));
    let mut dsm = dsm_with(config, busy_program());
    dsm.enable_oracle();
    let stats = dsm.run_iterations(4).unwrap();
    assert!(stats.ownership_transfers > 0, "writers must ping-pong");
    let report = dsm.oracle_report().unwrap();
    assert_eq!(report.violations, 0, "{:?}", dsm.oracle_report());
    assert!(report.barriers_checked >= 4);
}

#[test]
fn oracle_clean_during_tracked_iterations_and_migration() {
    let cluster = ClusterConfig::new(2, 4).unwrap();
    let config = DsmConfig::new(cluster)
        .with_gc_threshold(8)
        .with_faults(FaultPlan::light(21));
    let mut dsm = dsm_with(config, busy_program());
    dsm.enable_oracle();
    dsm.run_iterations(2).unwrap();
    dsm.run_tracked_iteration().unwrap();
    let mut swapped = dsm.mapping().clone();
    let (n0, n2) = (swapped.node_of(0), swapped.node_of(2));
    swapped.set_node_of(0, n2);
    swapped.set_node_of(2, n0);
    dsm.migrate_to(swapped).unwrap();
    dsm.run_iterations(2).unwrap();
    assert_eq!(dsm.oracle_report().unwrap().violations, 0);
    assert!(dsm.total_stats().migrations > 0);
}

#[test]
fn oracle_checks_lock_releases() {
    let l = LockId(0);
    let script = |_: usize| vec![Op::Lock(l), Op::read(0, 8), Op::write(0, 8), Op::Unlock(l)];
    let p = Scripted::new(1, vec![vec![script(0), script(1)]]).with_locks(1);
    let cluster = ClusterConfig::new(2, 2).unwrap();
    let mut dsm = dsm_with(DsmConfig::new(cluster), p);
    dsm.enable_oracle();
    dsm.run_iterations(2).unwrap();
    let report = dsm.oracle_report().unwrap();
    assert!(report.lock_releases_checked >= 4);
    assert_eq!(report.violations, 0);
}

// ---------------------------------------------------------------------
// Crash/partition fault classes (PR-7)
// ---------------------------------------------------------------------

/// Partition ∘ heal is an identity on the delivered-message multiset:
/// cross-cut messages are buffered until the cut heals, never lost, so the
/// paper-reproduction counters (misses, first-send bytes) of a lock-free
/// program cannot move. Checked for any partition probability, window and
/// seed, half the cases with the partition preset's light duplication on
/// top, and the property must not be vacuous: some case has to actually
/// partition.
#[test]
fn partition_and_heal_preserve_delivered_message_multiset() {
    let clean = run_barrier_program(FaultPlan::none(), 6);
    let plan = |rng: &mut DetRng| FaultPlan {
        partition_prob: 0.01 + rng.next_f64() * 0.99,
        partition_window: SimDuration::from_micros(rng.range(100, 5_000)),
        dup_prob: if rng.chance(0.5) { 0.05 } else { 0.0 },
        ..FaultPlan::partition(rng.next_u64())
    };
    let mut partitions_seen = 0u64;
    forall(24, 0, plan, |plan| {
        let stats = run_barrier_program(plan.clone(), 6);
        assert_eq!(stats.remote_misses, clean.remote_misses);
        assert_eq!(
            stats.net.total_bytes(),
            clean.net.total_bytes(),
            "partition must only delay, never drop or resend"
        );
        assert_eq!(stats.crashes, 0);
        partitions_seen += stats.partition_delays;
    });
    assert!(
        partitions_seen > 0,
        "at least one case must cut the network, or the property is vacuous"
    );
}

/// Duplicated deliveries and checksum-caught corruptions are absorbed by
/// the protocol (idempotent receive, retransmission) without inflating any
/// paper counter: their traffic lands in the retransmission ledger only.
/// Checked for any duplication and corruption probability and seed; some
/// case must actually duplicate and some must corrupt.
#[test]
fn duplication_and_corruption_never_inflate_paper_counters() {
    let clean = run_barrier_program(FaultPlan::none(), 4);
    let plan = |rng: &mut DetRng| FaultPlan {
        seed: rng.next_u64(),
        dup_prob: rng.next_f64(),
        corrupt_prob: rng.next_f64() * 0.5,
        ..FaultPlan::none()
    };
    let (mut dups_seen, mut corruptions_seen) = (0u64, 0u64);
    forall(24, 0, plan, |plan| {
        let stats = run_barrier_program(plan.clone(), 4);
        assert_eq!(stats.remote_misses, clean.remote_misses);
        assert_eq!(
            stats.net.total_bytes(),
            clean.net.total_bytes(),
            "dup/corrupt traffic must stay in the retrans ledger"
        );
        let retrans = stats.net.total_retrans_messages();
        assert!(retrans >= stats.dup_messages + stats.corrupt_detected);
        assert!(stats.net.total_retrans_bytes() >= stats.dup_bytes);
        dups_seen += stats.dup_messages;
        corruptions_seen += stats.corrupt_detected;
    });
    assert!(dups_seen > 0, "some case must duplicate");
    assert!(corruptions_seen > 0, "some case must corrupt");
}

/// A node crash at a barrier wipes its cached pages; recovery is purely
/// protocol-level — valid copies are re-fetched from the surviving
/// directory on the next miss — and the oracle certifies every barrier
/// after the wipe. `crash_prob=1` crashes at every interval.
#[test]
fn crash_and_recovery_reach_an_oracle_clean_state() {
    let plan = FaultPlan {
        seed: 7,
        crash_prob: 1.0,
        ..FaultPlan::none()
    };
    let (stats, bytes) = run_with_plan(plan.clone(), 5);
    assert!(stats.crashes > 0, "crash_prob 1.0 must crash");
    assert!(stats.pages_wiped > 0, "a crash must wipe cached copies");
    assert!(bytes > 0, "the oracle compared post-recovery contents");

    // Single-writer: the survivor adopts the victim's owned pages.
    let cluster = ClusterConfig::new(2, 4).unwrap();
    let config = DsmConfig::new(cluster)
        .with_write_mode(WriteMode::SingleWriter {
            delta: SimDuration::from_micros(100),
        })
        .with_faults(plan);
    let mut dsm = dsm_with(config, busy_program());
    dsm.enable_oracle();
    let stats = dsm.run_iterations(4).unwrap();
    assert!(stats.crashes > 0);
    assert_eq!(dsm.oracle_report().unwrap().violations, 0);
}

/// Crashes are the one fault class allowed to move protocol counters
/// (wiped caches re-fetch), but determinism still holds under both write
/// protocols, for any crash probability and seed: same seed, same wipes,
/// same oracle-clean recovery, byte for byte. Some case must crash.
#[test]
fn crash_runs_are_deterministic_per_seed() {
    let input = |rng: &mut DetRng| {
        let plan = FaultPlan {
            seed: rng.next_u64(),
            crash_prob: 0.05 + rng.next_f64() * 0.95,
            ..FaultPlan::none()
        };
        (plan, rng.chance(0.5))
    };
    let mut crashes_seen = 0u64;
    forall(24, 0, input, |&(ref plan, single_writer)| {
        let run = || {
            let cluster = ClusterConfig::new(2, 4).unwrap();
            let mut config = DsmConfig::new(cluster)
                .with_gc_threshold(8)
                .with_faults(plan.clone());
            if single_writer {
                config = config.with_write_mode(WriteMode::SingleWriter {
                    delta: SimDuration::from_micros(100),
                });
            }
            let mut dsm = dsm_with(config, busy_program());
            dsm.enable_oracle();
            let stats = dsm.run_iterations(5).unwrap();
            let report = dsm.oracle_report().unwrap();
            assert_eq!(report.violations, 0, "oracle must stay clean");
            assert!(report.barriers_checked >= 5);
            (stats, report.bytes_compared)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        crashes_seen += a.0.crashes;
    });
    assert!(crashes_seen > 0, "crash_prob of at least 0.05 must fire");
}
