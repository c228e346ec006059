//! Integration tests for the DSM engine: coherence, diffs, multi-writer
//! merging, locks, garbage collection, migration, and both tracking
//! mechanisms, exercised through small hand-built programs.

use acorr_dsm::{Dsm, DsmConfig, DsmError, LockId, Op, Program};
use acorr_mem::PAGE_SIZE;
use acorr_sim::{ClusterConfig, Mapping, NodeId};

/// A program built from explicit per-thread, per-iteration scripts.
struct Scripted {
    name: &'static str,
    shared_bytes: u64,
    locks: usize,
    /// scripts[iteration][thread]
    scripts: Vec<Vec<Vec<Op>>>,
}

impl Scripted {
    fn new(shared_pages: u64, scripts: Vec<Vec<Vec<Op>>>) -> Self {
        Scripted {
            name: "scripted",
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
        self.name
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

fn dsm_for(nodes: usize, program: Scripted) -> Dsm<Scripted> {
    let threads = program.num_threads();
    let cluster = ClusterConfig::new(nodes, threads).unwrap();
    let mapping = Mapping::stretch(&cluster);
    Dsm::new(DsmConfig::new(cluster), program, mapping).unwrap()
}

const PAGE: u64 = PAGE_SIZE as u64;

// ---------------------------------------------------------------------
// Basic coherence
// ---------------------------------------------------------------------

#[test]
fn local_reads_never_miss() {
    // Both threads on node 0, which owns all pages initially.
    let p = Scripted::new(
        4,
        vec![vec![vec![Op::read(0, 2 * PAGE)], vec![Op::read(0, PAGE)]]],
    );
    let cluster = ClusterConfig::new(1, 2).unwrap();
    let mapping = Mapping::stretch(&cluster);
    let mut dsm = Dsm::new(DsmConfig::new(cluster), p, mapping).unwrap();
    let stats = dsm.run_iterations(1).unwrap();
    assert_eq!(stats.remote_misses, 0);
    assert_eq!(
        stats.net.total_bytes() - stats.net.bytes(acorr_sim::MessageKind::Barrier),
        0
    );
}

#[test]
fn cold_miss_fetches_full_page() {
    // Thread 1 on node 1 reads a page it never had.
    let p = Scripted::new(2, vec![vec![vec![], vec![Op::read(PAGE, 64)]]]);
    let mut dsm = dsm_for(2, p);
    let stats = dsm.run_iterations(1).unwrap();
    assert_eq!(stats.remote_misses, 1);
    assert_eq!(stats.net.messages(acorr_sim::MessageKind::PageFetch), 1);
    assert_eq!(stats.net.bytes(acorr_sim::MessageKind::PageFetch), PAGE);
}

#[test]
fn second_read_of_cached_page_is_free() {
    let p = Scripted::new(2, vec![vec![vec![], vec![Op::read(PAGE, 64)]]]);
    let mut dsm = dsm_for(2, p);
    let first = dsm.run_iterations(1).unwrap();
    assert_eq!(first.remote_misses, 1);
    let second = dsm.run_iterations(1).unwrap();
    assert_eq!(
        second.remote_misses, 0,
        "page stays cached across iterations"
    );
}

#[test]
fn write_invalidation_causes_diff_fetch() {
    // Iteration scripts: t0 (node 0) writes 100 bytes of page 0; t1 (node 1)
    // reads the page. First iteration: t1 cold-misses. Later iterations: the
    // barrier publishes t0's diff, t1 refetches just the diff.
    let p = Scripted::new(
        1,
        vec![vec![
            vec![Op::write(0, 100), Op::Barrier],
            vec![Op::Barrier, Op::read(0, 100)],
        ]],
    );
    let mut dsm = dsm_for(2, p);
    let first = dsm.run_iterations(1).unwrap();
    // t1 misses after the barrier: the diff from t0's write was finalized at
    // the explicit barrier, so the fetch is page (cold) + nothing... t1 has
    // no copy: full page + pending diff.
    assert_eq!(first.remote_misses, 1);
    assert_eq!(first.diffs_created, 1);
    let second = dsm.run_iterations(1).unwrap();
    // Now t1 has a copy at the version it fetched; t0's new write this
    // iteration invalidates it again; t1 fetches only the new diff.
    assert_eq!(second.remote_misses, 1);
    assert_eq!(second.net.messages(acorr_sim::MessageKind::PageFetch), 0);
    assert_eq!(second.net.messages(acorr_sim::MessageKind::DiffFetch), 1);
    // Diff bytes: 100 dirty + 8 range + 16 header.
    assert_eq!(second.net.bytes(acorr_sim::MessageKind::DiffFetch), 124);
}

#[test]
fn diff_size_reflects_merged_dirty_ranges() {
    // Two disjoint writes to one page → two fragments.
    let p = Scripted::new(
        1,
        vec![vec![vec![Op::write(0, 40), Op::write(1000, 60)], vec![]]],
    );
    let mut dsm = dsm_for(2, p);
    let stats = dsm.run_iterations(1).unwrap();
    assert_eq!(stats.diffs_created, 1);
    // 100 dirty + 2*8 fragment + 16 header.
    assert_eq!(stats.diff_bytes_created, 132);
}

#[test]
fn writer_keeps_its_copy_valid() {
    // t0 writes its page every iteration and re-reads it; never misses.
    let p = Scripted::new(
        1,
        vec![vec![vec![Op::write(0, 64), Op::read(0, 64)], vec![]]],
    );
    let mut dsm = dsm_for(2, p);
    let stats = dsm.run_iterations(5).unwrap();
    assert_eq!(stats.remote_misses, 0);
    assert_eq!(stats.diffs_created, 5);
}

#[test]
fn concurrent_writers_exchange_diffs() {
    // Both threads (different nodes) write disjoint halves of page 0 each
    // iteration, then read the whole page next iteration.
    let p = Scripted::new(
        1,
        vec![vec![
            vec![Op::read(0, PAGE), Op::write(0, 128)],
            vec![Op::read(0, PAGE), Op::write(2048, 128)],
        ]],
    );
    let mut dsm = dsm_for(2, p);
    let first = dsm.run_iterations(1).unwrap();
    // Iteration 1: t1 cold-misses on the read.
    assert_eq!(first.remote_misses, 1);
    assert_eq!(first.diffs_created, 2, "both writers finalize at barrier");
    let second = dsm.run_iterations(1).unwrap();
    // Both copies were invalidated (two concurrent writers): each node
    // misses once and fetches exactly the *other* node's diff.
    assert_eq!(second.remote_misses, 2);
    assert_eq!(second.net.messages(acorr_sim::MessageKind::PageFetch), 0);
    assert_eq!(second.net.messages(acorr_sim::MessageKind::DiffFetch), 2);
}

#[test]
fn twin_created_once_per_interval() {
    let p = Scripted::new(
        1,
        vec![vec![vec![
            Op::write(0, 8),
            Op::write(8, 8),
            Op::write(16, 8),
        ]]],
    );
    let cluster = ClusterConfig::new(1, 1).unwrap();
    let mut dsm = Dsm::new(DsmConfig::new(cluster), p, Mapping::stretch(&cluster)).unwrap();
    let stats = dsm.run_iterations(1).unwrap();
    assert_eq!(stats.twin_faults, 1);
    assert_eq!(stats.diffs_created, 1);
    assert_eq!(stats.diff_bytes_created, 24 + 8 + 16);
}

#[test]
fn multi_page_access_spans_pages() {
    // One read spanning 3 pages from a remote node: 3 cold misses.
    let p = Scripted::new(4, vec![vec![vec![], vec![Op::read(100, 3 * PAGE)]]]);
    let mut dsm = dsm_for(2, p);
    let stats = dsm.run_iterations(1).unwrap();
    assert_eq!(stats.remote_misses, 4, "100 + 3*PAGE straddles 4 pages");
}

// ---------------------------------------------------------------------
// Barriers and time
// ---------------------------------------------------------------------

#[test]
fn barrier_counts_include_implicit_end_barrier() {
    let p = Scripted::new(1, vec![vec![vec![Op::Barrier], vec![Op::Barrier]]]);
    let mut dsm = dsm_for(2, p);
    let stats = dsm.run_iterations(1).unwrap();
    assert_eq!(stats.barriers, 2);
}

#[test]
fn time_advances_with_compute() {
    let p = Scripted::new(1, vec![vec![vec![Op::compute(1_000_000)], vec![]]]);
    let mut dsm = dsm_for(2, p);
    let stats = dsm.run_iterations(1).unwrap();
    assert!(stats.elapsed.as_nanos() >= 1_000_000);
}

#[test]
fn latency_hiding_overlaps_fetches_across_threads() {
    // Node 1 cold-misses two pages. When the two fetches come from two
    // sibling threads, their network latencies overlap; when one thread
    // issues both, they serialize. Same work, same node counts — the
    // multithreaded variant must be faster.
    let overlapped = Scripted::new(
        4,
        vec![vec![
            vec![],
            vec![],
            vec![Op::read(2 * PAGE, 64)],
            vec![Op::read(3 * PAGE, 64)],
        ]],
    );
    let serialized = Scripted::new(
        4,
        vec![vec![
            vec![],
            vec![],
            vec![Op::read(2 * PAGE, 64), Op::read(3 * PAGE, 64)],
            vec![],
        ]],
    );
    let cluster = ClusterConfig::new(2, 4).unwrap();
    let run = |p: Scripted| {
        let mut dsm = Dsm::new(DsmConfig::new(cluster), p, Mapping::stretch(&cluster)).unwrap();
        dsm.run_iterations(1).unwrap()
    };
    let a = run(overlapped);
    let b = run(serialized);
    assert_eq!(a.remote_misses, 2);
    assert_eq!(b.remote_misses, 2);
    let net = acorr_sim::NetworkModel::default();
    assert!(
        a.elapsed + net.transfer_time(PAGE) / 2 < b.elapsed,
        "overlapped {} should clearly undercut serialized {}",
        a.elapsed,
        b.elapsed
    );
}

#[test]
fn deterministic_across_runs() {
    let make = || {
        let p = Scripted::new(
            2,
            vec![vec![
                vec![Op::write(0, 64), Op::Barrier, Op::read(PAGE, 64)],
                vec![Op::read(0, 64), Op::Barrier, Op::write(PAGE, 64)],
            ]],
        );
        dsm_for(2, p)
    };
    let a = make().run_iterations(3).unwrap();
    let b = make().run_iterations(3).unwrap();
    assert_eq!(a, b);
}

// ---------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------

#[test]
fn uncontended_local_lock_is_cheap() {
    let l = LockId(0);
    let p = Scripted::new(
        1,
        vec![vec![
            vec![Op::Lock(l), Op::write(0, 8), Op::Unlock(l)],
            vec![],
        ]],
    )
    .with_locks(1);
    let mut dsm = dsm_for(2, p);
    let stats = dsm.run_iterations(1).unwrap();
    assert_eq!(stats.lock_acquires, 1);
    assert_eq!(stats.remote_lock_acquires, 0, "fresh lock granted locally");
}

#[test]
fn lock_ping_pong_counts_remote_acquires() {
    let l = LockId(0);
    let script = vec![Op::Lock(l), Op::write(0, 8), Op::Unlock(l)];
    let p = Scripted::new(1, vec![vec![script.clone(), script]]).with_locks(1);
    let mut dsm = dsm_for(2, p);
    let stats = dsm.run_iterations(2).unwrap();
    assert_eq!(stats.lock_acquires, 4);
    // After the first local grant, the lock alternates nodes every acquire.
    assert_eq!(stats.remote_lock_acquires, 3);
    assert!(stats.net.messages(acorr_sim::MessageKind::Lock) >= 6);
}

#[test]
fn release_publishes_locked_writes_to_next_acquirer() {
    let l = LockId(0);
    // Both threads increment a shared counter under the lock; the second
    // acquirer must fetch the first's diff *within* the same interval.
    let script = |_: usize| vec![Op::Lock(l), Op::read(0, 8), Op::write(0, 8), Op::Unlock(l)];
    let p = Scripted::new(1, vec![vec![script(0), script(1)]]).with_locks(1);
    let mut dsm = dsm_for(2, p);
    let first = dsm.run_iterations(1).unwrap();
    // Whichever thread goes second takes a miss on the counter page even
    // though no barrier intervened.
    assert!(first.remote_misses >= 1);
    assert!(
        first.diffs_created >= 1,
        "unlock finalizes the locked write"
    );
}

#[test]
fn contended_lock_serializes() {
    let l = LockId(0);
    let hold = vec![Op::Lock(l), Op::compute(1_000_000), Op::Unlock(l)];
    let p = Scripted::new(1, vec![vec![hold.clone(), hold.clone(), hold]]).with_locks(1);
    let cluster = ClusterConfig::new(3, 3).unwrap();
    let mapping = Mapping::stretch(&cluster);
    let mut dsm = Dsm::new(DsmConfig::new(cluster), p, mapping).unwrap();
    let stats = dsm.run_iterations(1).unwrap();
    // Three 1 ms critical sections cannot overlap.
    assert!(stats.elapsed.as_nanos() >= 3_000_000);
    assert_eq!(stats.lock_acquires, 3);
}

#[test]
fn cyclic_lock_wait_is_reported_as_deadlock() {
    // Threads on nodes 1 and 2 take their first lock, then block on a cold
    // page fetch (yielding the engine), then request each other's lock: a
    // classic ABBA cycle. The node-0 thread is a bystander.
    let a = LockId(0);
    let b = LockId(1);
    let p = Scripted::new(
        4,
        vec![vec![
            vec![],
            vec![
                Op::Lock(a),
                Op::read(2 * PAGE, 8), // cold miss: blocks, lets node 2 run
                Op::Lock(b),
                Op::Unlock(b),
                Op::Unlock(a),
            ],
            vec![
                Op::Lock(b),
                Op::read(3 * PAGE, 8),
                Op::Lock(a),
                Op::Unlock(a),
                Op::Unlock(b),
            ],
        ]],
    )
    .with_locks(2);
    let cluster = ClusterConfig::new(3, 3).unwrap();
    let mut dsm = Dsm::new(DsmConfig::new(cluster), p, Mapping::stretch(&cluster)).unwrap();
    assert_eq!(
        dsm.run_iterations(1),
        Err(DsmError::Deadlock { iteration: 0 })
    );
}

#[test]
fn lock_across_barrier_rejected() {
    let l = LockId(0);
    let p = Scripted::new(
        1,
        vec![vec![
            vec![Op::Lock(l), Op::Barrier, Op::Unlock(l)],
            vec![Op::Barrier],
        ]],
    )
    .with_locks(1);
    let mut dsm = dsm_for(2, p);
    assert!(matches!(
        dsm.run_iterations(1),
        Err(DsmError::Script(
            acorr_dsm::ScriptError::LockAcrossBarrier { .. }
        ))
    ));
}

// ---------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------

#[test]
fn gc_consolidates_and_invalidates() {
    // Low threshold forces a GC; t0 writes two pages every iteration.
    let p = Scripted::new(
        2,
        vec![vec![
            vec![Op::write(0, 64), Op::write(PAGE, 64)],
            vec![Op::read(0, 8)],
        ]],
    );
    let cluster = ClusterConfig::new(2, 2).unwrap();
    let config = DsmConfig::new(cluster).with_gc_threshold(3);
    let mut dsm = Dsm::new(config, p, Mapping::stretch(&cluster)).unwrap();
    let stats = dsm.run_iterations(3).unwrap();
    assert!(stats.gc_runs >= 1, "threshold of 3 records must trip");
    assert!(stats.gc_pages >= 2);
    // After GC the reader's copy predates the base → full-page refetch.
    assert!(stats.net.messages(acorr_sim::MessageKind::PageFetch) > 1);
}

#[test]
fn gc_traffic_is_accounted() {
    // Two nodes write disjoint halves of the same page every iteration, so
    // at consolidation the new owner is always missing the other writer's
    // diff and must fetch it (GC data traffic).
    let p = Scripted::new(
        1,
        vec![vec![
            vec![Op::read(0, PAGE), Op::write(0, 256)],
            vec![Op::read(0, PAGE), Op::write(2048, 256)],
        ]],
    );
    let cluster = ClusterConfig::new(2, 2).unwrap();
    let config = DsmConfig::new(cluster).with_gc_threshold(1);
    let mut dsm = Dsm::new(config, p, Mapping::stretch(&cluster)).unwrap();
    let stats = dsm.run_iterations(4).unwrap();
    assert!(stats.gc_runs >= 1);
    assert!(stats.net.bytes(acorr_sim::MessageKind::Gc) > 0);
}

#[test]
fn gc_is_free_when_owner_already_current() {
    // A single writer is its own consolidation target: GC runs but moves no
    // data.
    let p = Scripted::new(1, vec![vec![vec![Op::write(0, 256)], vec![Op::read(0, 8)]]]);
    let cluster = ClusterConfig::new(2, 2).unwrap();
    let config = DsmConfig::new(cluster).with_gc_threshold(1);
    let mut dsm = Dsm::new(config, p, Mapping::stretch(&cluster)).unwrap();
    let stats = dsm.run_iterations(4).unwrap();
    assert!(stats.gc_runs >= 1);
    assert_eq!(stats.net.bytes(acorr_sim::MessageKind::Gc), 0);
}

// ---------------------------------------------------------------------
// Active tracking
// ---------------------------------------------------------------------

#[test]
fn active_tracking_records_exact_access_sets() {
    // t0 touches pages {0,1}; t1 touches {1,2}.
    let p = Scripted::new(
        3,
        vec![vec![
            vec![Op::read(0, 2 * PAGE)],
            vec![Op::read(PAGE, 2 * PAGE)],
        ]],
    );
    let mut dsm = dsm_for(2, p);
    let (stats, matrix) = dsm.run_tracked_iteration().unwrap();
    assert!(matrix.observed(0, acorr_mem::PageId(0)));
    assert!(matrix.observed(0, acorr_mem::PageId(1)));
    assert!(!matrix.observed(0, acorr_mem::PageId(2)));
    assert!(matrix.observed(1, acorr_mem::PageId(1)));
    assert!(matrix.observed(1, acorr_mem::PageId(2)));
    assert_eq!(matrix.shared_pages(0, 1), 1);
    assert_eq!(stats.tracking_faults, 4, "one per (thread, page) touch");
}

#[test]
fn tracking_faults_count_per_thread_even_on_same_node() {
    // Two threads on ONE node read the SAME page: passive tracking would see
    // only the first; active tracking faults for both.
    let p = Scripted::new(1, vec![vec![vec![Op::read(0, 8)], vec![Op::read(0, 8)]]]);
    let cluster = ClusterConfig::new(1, 2).unwrap();
    let mut dsm = Dsm::new(DsmConfig::new(cluster), p, Mapping::stretch(&cluster)).unwrap();
    let (stats, matrix) = dsm.run_tracked_iteration().unwrap();
    assert_eq!(stats.tracking_faults, 2);
    assert_eq!(matrix.shared_pages(0, 1), 1);
}

#[test]
fn tracked_iteration_is_slower() {
    // Same program, tracked vs untracked, fresh instances (warm both first).
    let build = || {
        let scripts: Vec<Vec<Op>> = (0..4)
            .map(|t| vec![Op::read(t as u64 * PAGE, PAGE), Op::compute(100_000)])
            .collect();
        let p = Scripted::new(4, vec![scripts]);
        let cluster = ClusterConfig::new(2, 4).unwrap();
        let mut dsm = Dsm::new(DsmConfig::new(cluster), p, Mapping::stretch(&cluster)).unwrap();
        dsm.run_iterations(1).unwrap(); // warm caches
        dsm
    };
    let off = build().run_iterations(1).unwrap();
    let (on, _) = build().run_tracked_iteration().unwrap();
    assert!(
        on.elapsed > off.elapsed,
        "tracking on {} must exceed off {}",
        on.elapsed,
        off.elapsed
    );
}

#[test]
fn tracking_does_not_disturb_coherence_results() {
    // Stats other than faults/time should match an untracked run.
    let build = || {
        let p = Scripted::new(
            2,
            vec![vec![
                vec![Op::write(0, 64), Op::Barrier, Op::read(PAGE, 64)],
                vec![Op::read(0, 64), Op::Barrier, Op::write(PAGE, 64)],
            ]],
        );
        dsm_for(2, p)
    };
    let mut plain = build();
    let a = plain.run_iterations(1).unwrap();
    let mut tracked = build();
    let (b, _) = tracked.run_tracked_iteration().unwrap();
    assert_eq!(a.remote_misses, b.remote_misses);
    assert_eq!(a.diffs_created, b.diffs_created);
    assert_eq!(a.diff_bytes_created, b.diff_bytes_created);
    // And subsequent behaviour is unchanged.
    assert_eq!(
        plain.run_iterations(1).unwrap().remote_misses,
        tracked.run_iterations(1).unwrap().remote_misses
    );
}

#[test]
fn tracking_survives_multiple_barriers_per_iteration() {
    // Threads touch different pages in each barrier segment; the bitmap
    // accumulates across segments.
    let p = Scripted::new(
        2,
        vec![vec![
            vec![Op::read(0, 8), Op::Barrier, Op::read(PAGE, 8)],
            vec![Op::Barrier],
        ]],
    );
    let mut dsm = dsm_for(2, p);
    let (_, matrix) = dsm.run_tracked_iteration().unwrap();
    assert!(matrix.observed(0, acorr_mem::PageId(0)));
    assert!(matrix.observed(0, acorr_mem::PageId(1)));
    assert_eq!(matrix.pages_touched(1), 0);
}

// ---------------------------------------------------------------------
// Passive tracking
// ---------------------------------------------------------------------

#[test]
fn passive_tracking_sees_only_first_local_toucher() {
    // Two threads on node 1 both read page 0 (remote). Only the first
    // faults; the second reads the already-valid copy silently.
    let p = Scripted::new(
        1,
        vec![vec![
            vec![],
            vec![],
            vec![Op::read(0, 8)],
            vec![Op::read(0, 8)],
        ]],
    );
    let cluster = ClusterConfig::new(2, 4).unwrap();
    let mut dsm = Dsm::new(DsmConfig::new(cluster), p, Mapping::stretch(&cluster)).unwrap();
    dsm.enable_passive_tracking();
    dsm.run_iterations(1).unwrap();
    let obs = dsm.take_passive_observations().unwrap();
    assert_eq!(
        obs.total_observations(),
        1,
        "only the faulting thread is observed"
    );
}

#[test]
fn passive_tracking_misses_node0_locals_entirely() {
    // Threads on node 0 never fault (node 0 owns everything): passive
    // tracking learns nothing about them.
    let p = Scripted::new(1, vec![vec![vec![Op::read(0, 8)], vec![Op::read(0, 8)]]]);
    let cluster = ClusterConfig::new(1, 2).unwrap();
    let mut dsm = Dsm::new(DsmConfig::new(cluster), p, Mapping::stretch(&cluster)).unwrap();
    dsm.enable_passive_tracking();
    dsm.run_iterations(1).unwrap();
    let obs = dsm.take_passive_observations().unwrap();
    assert_eq!(obs.total_observations(), 0);
}

// ---------------------------------------------------------------------
// Migration
// ---------------------------------------------------------------------

#[test]
fn migration_moves_threads_and_charges_traffic() {
    let p = Scripted::new(2, vec![vec![vec![Op::read(0, 8)], vec![Op::read(PAGE, 8)]]]);
    let cluster = ClusterConfig::new(2, 2).unwrap();
    let mut dsm = Dsm::new(DsmConfig::new(cluster), p, Mapping::stretch(&cluster)).unwrap();
    dsm.run_iterations(1).unwrap();
    // Swap the two threads.
    let swapped = Mapping::from_assignment(&cluster, vec![NodeId(1), NodeId(0)]).unwrap();
    let report = dsm.migrate_to(swapped.clone()).unwrap();
    assert_eq!(report.moved, 2);
    assert_eq!(report.bytes, 2 * 64 * 1024);
    assert_eq!(dsm.mapping(), &swapped);
    assert_eq!(dsm.total_stats().migrations, 2);
    // The application keeps running correctly after migration.
    let stats = dsm.run_iterations(1).unwrap();
    // t0 now on node 1 reads page 0 (cached at node 1? no — node 1 never had
    // page 0): it cold-misses; t1 on node 0 reads page 1 which node 0 owns.
    assert_eq!(stats.remote_misses, 1);
}

#[test]
fn identity_migration_is_free() {
    let p = Scripted::new(1, vec![vec![vec![], vec![]]]);
    let cluster = ClusterConfig::new(2, 2).unwrap();
    let mapping = Mapping::stretch(&cluster);
    let mut dsm = Dsm::new(DsmConfig::new(cluster), p, mapping.clone()).unwrap();
    let report = dsm.migrate_to(mapping).unwrap();
    assert_eq!(report.moved, 0);
    assert_eq!(dsm.total_stats().migrations, 0);
}

#[test]
fn migration_report_rejects_wrong_thread_count() {
    let p = Scripted::new(1, vec![vec![vec![], vec![]]]);
    let cluster = ClusterConfig::new(2, 2).unwrap();
    let mut dsm = Dsm::new(DsmConfig::new(cluster), p, Mapping::stretch(&cluster)).unwrap();
    let other = ClusterConfig::new(2, 4).unwrap();
    assert!(matches!(
        dsm.migrate_to(Mapping::stretch(&other)),
        Err(DsmError::MappingMismatch { .. })
    ));
}

// ---------------------------------------------------------------------
// Construction errors
// ---------------------------------------------------------------------

#[test]
fn mapping_mismatch_rejected_at_construction() {
    let p = Scripted::new(1, vec![vec![vec![], vec![]]]);
    let cluster = ClusterConfig::new(2, 4).unwrap();
    assert!(matches!(
        Dsm::new(DsmConfig::new(cluster), p, Mapping::stretch(&cluster)),
        Err(DsmError::MappingMismatch { .. })
    ));
}

#[test]
fn tracing_records_protocol_event_sequence() {
    use acorr_dsm::trace::Event;
    // t0 writes page 0; t1 (remote) reads it next iteration.
    let p = Scripted::new(
        1,
        vec![vec![
            vec![Op::write(0, 64), Op::Barrier],
            vec![Op::Barrier, Op::read(0, 64)],
        ]],
    );
    let mut dsm = dsm_for(2, p);
    dsm.enable_tracing(1024);
    dsm.run_iterations(1).unwrap();
    let trace = dsm.take_trace().unwrap();
    assert!(trace.dropped() == 0);
    let events: Vec<&Event> = trace.iter().map(|(_, e)| e).collect();
    // The write fault (twin) precedes its diff, which precedes the reader's
    // remote miss.
    let twin_pos = events
        .iter()
        .position(|e| matches!(e, Event::WriteFault { .. }))
        .expect("twin event");
    let diff_pos = events
        .iter()
        .position(|e| matches!(e, Event::DiffCreated { .. }))
        .expect("diff event");
    let miss_pos = events
        .iter()
        .position(|e| matches!(e, Event::RemoteMiss { thread: 1, .. }))
        .expect("miss event");
    assert!(twin_pos < diff_pos, "{events:?}");
    assert!(diff_pos < miss_pos, "{events:?}");
    assert!(
        events
            .iter()
            .filter(|e| matches!(e, Event::BarrierRelease { .. }))
            .count()
            >= 2
    );
    // Timestamps are non-decreasing per node ordering at barriers.
    let render = trace.render();
    assert!(render.contains("barrier"));
}

#[test]
fn tracing_is_off_by_default_and_bounded_when_on() {
    let p = Scripted::new(1, vec![vec![vec![Op::write(0, 8)], vec![Op::read(0, 8)]]]);
    let mut dsm = dsm_for(2, p);
    assert!(dsm.take_trace().is_none(), "off by default");
    dsm.enable_tracing(2);
    dsm.run_iterations(3).unwrap();
    let trace = dsm.take_trace().unwrap();
    assert_eq!(trace.len(), 2);
    assert!(trace.dropped() > 0);
}

#[test]
fn tracing_sees_migrations_and_tracked_faults() {
    use acorr_dsm::trace::Event;
    let p = Scripted::new(2, vec![vec![vec![Op::read(0, 8)], vec![Op::read(PAGE, 8)]]]);
    let cluster = ClusterConfig::new(2, 2).unwrap();
    let mut dsm = Dsm::new(DsmConfig::new(cluster), p, Mapping::stretch(&cluster)).unwrap();
    dsm.enable_tracing(4096);
    dsm.run_tracked_iteration().unwrap();
    let swapped = Mapping::from_assignment(&cluster, vec![NodeId(1), NodeId(0)]).unwrap();
    dsm.migrate_to(swapped).unwrap();
    let trace = dsm.take_trace().unwrap();
    assert!(trace
        .iter()
        .any(|(_, e)| matches!(e, Event::CorrelationFault { .. })));
    assert_eq!(
        trace
            .iter()
            .filter(|(_, e)| matches!(e, Event::Migration { .. }))
            .count(),
        2
    );
}

/// A test-local sink recording every protocol event it is handed.
#[derive(Debug, Clone, Default)]
struct Recorder(std::sync::Arc<std::sync::Mutex<Vec<acorr_dsm::trace::Event>>>);

impl acorr_dsm::trace::EventSink for Recorder {
    fn record_event(&mut self, _at: acorr_sim::SimTime, event: &acorr_dsm::trace::Event) {
        self.0.lock().unwrap().push(*event);
    }
}

#[test]
fn an_attached_sink_alone_gets_balanced_spans_and_the_trace_ring_none() {
    use acorr_dsm::trace::Event;
    // A locked write on node 0 read after the barrier on node 1: twins,
    // diffs, a fetch with its apply, a lock grant and barrier closes.
    let run = |tracing: bool| {
        let l = LockId(0);
        let scripts = vec![vec![
            vec![Op::Lock(l), Op::write(0, 64), Op::Unlock(l), Op::Barrier],
            vec![Op::Barrier, Op::read(0, 64)],
        ]];
        let mut dsm = dsm_for(2, Scripted::new(1, scripts).with_locks(1));
        let sink = Recorder::default();
        dsm.attach_sink(Box::new(sink.clone()));
        if tracing {
            dsm.enable_tracing(4096);
        }
        dsm.run_iterations(2).unwrap();
        let events = sink.0.lock().unwrap().clone();
        (events, dsm.take_trace())
    };
    let (events, _) = run(false);
    let mut open = std::collections::BTreeMap::new();
    for event in &events {
        match *event {
            Event::SpanBegin { id, phase, node } => {
                assert_eq!(open.insert(id, (phase, node)), None)
            }
            Event::SpanEnd { id, phase, node } => assert_eq!(open.remove(&id), Some((phase, node))),
            _ => {}
        }
    }
    assert!(open.is_empty(), "unclosed spans: {open:?}");
    assert!(events.iter().any(|e| matches!(e, Event::SpanEnd { .. })));
    // With the ring on too, it keeps the protocol events and no span.
    let trace = run(true).1.unwrap();
    assert!(!trace.is_empty());
    let span = |e: &Event| matches!(e, Event::SpanBegin { .. } | Event::SpanEnd { .. });
    assert!(!trace.iter().any(|(_, e)| span(e)));
}

#[test]
fn stall_accounting_shows_latency_hiding() {
    // Two sibling threads cold-miss different pages: their stalls overlap,
    // so total stall exceeds the miss-attributable share of elapsed time.
    let p = Scripted::new(
        4,
        vec![vec![
            vec![],
            vec![],
            vec![Op::read(2 * PAGE, 64)],
            vec![Op::read(3 * PAGE, 64)],
        ]],
    );
    let cluster = ClusterConfig::new(2, 4).unwrap();
    let mut dsm = Dsm::new(DsmConfig::new(cluster), p, Mapping::stretch(&cluster)).unwrap();
    let stats = dsm.run_iterations(1).unwrap();
    let per_fetch = acorr_sim::NetworkModel::default().transfer_time(PAGE);
    assert_eq!(stats.stall, per_fetch * 2, "both fetch stalls recorded");
    // The serialized variant (one thread does both fetches) has the same
    // total stall but a longer elapsed time: the overlap is visible as the
    // gap between the two.
    let serial = Scripted::new(
        4,
        vec![vec![
            vec![],
            vec![],
            vec![Op::read(2 * PAGE, 64), Op::read(3 * PAGE, 64)],
            vec![],
        ]],
    );
    let cluster = ClusterConfig::new(2, 4).unwrap();
    let mut serial_dsm =
        Dsm::new(DsmConfig::new(cluster), serial, Mapping::stretch(&cluster)).unwrap();
    let serial_stats = serial_dsm.run_iterations(1).unwrap();
    assert_eq!(serial_stats.stall, stats.stall, "same total stall");
    assert!(
        serial_stats.elapsed > stats.elapsed,
        "overlap: {} vs {}",
        stats.elapsed,
        serial_stats.elapsed
    );
}
