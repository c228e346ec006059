//! Property-based engine tests: random well-formed programs (barrier
//! aligned, lock balanced, ascending lock nesting) must run deadlock-free,
//! deterministically, and uphold the protocol invariants.

use acorr_dsm::{Dsm, DsmConfig, IterStats, LockId, Op, Program, WriteMode};
use acorr_mem::{span_pages, AccessMatrix, PAGE_SIZE};
use acorr_sim::{forall, ClusterConfig, DetRng, FaultPlan, Mapping, SimDuration};
use Atom::{Compute, Locked, Read, Write};

const PAGES: u64 = 8;
const LOCKS: usize = 3;

/// One generated atom of work.
#[derive(Debug, Clone)]
enum Atom {
    /// `Read(page, offset, len)`.
    Read(u64, u64, u64),
    /// `Write(page, offset, len)`.
    Write(u64, u64, u64),
    Compute(u64),
    /// A critical section over a lock, containing simple `(is_write, page)`
    /// accesses.
    Locked(usize, Vec<(bool, u64)>),
}

#[derive(Debug, Clone)]
struct GenProgram {
    threads: usize,
    /// segments[segment][thread] = atoms
    segments: Vec<Vec<Vec<Atom>>>,
}

impl Program for GenProgram {
    fn name(&self) -> &str {
        "generated"
    }
    fn shared_bytes(&self) -> u64 {
        PAGES * PAGE_SIZE as u64
    }
    fn num_threads(&self) -> usize {
        self.threads
    }
    fn num_locks(&self) -> usize {
        LOCKS
    }
    fn script(&self, thread: usize, _iteration: usize) -> Vec<Op> {
        let mut ops = Vec::new();
        for (s, segment) in self.segments.iter().enumerate() {
            for atom in &segment[thread] {
                match *atom {
                    Read(page, off, len) => {
                        ops.push(Op::read(page * PAGE_SIZE as u64 + off, len));
                    }
                    Write(page, off, len) => {
                        ops.push(Op::write(page * PAGE_SIZE as u64 + off, len));
                    }
                    Compute(ns) => ops.push(Op::compute(ns)),
                    Locked(lock, ref body) => {
                        ops.push(Op::Lock(LockId(lock as u16)));
                        for &(is_write, page) in body {
                            let addr = page * PAGE_SIZE as u64;
                            if is_write {
                                ops.push(Op::write(addr, 64));
                            } else {
                                ops.push(Op::read(addr, 64));
                            }
                        }
                        ops.push(Op::Unlock(LockId(lock as u16)));
                    }
                }
            }
            if s + 1 < self.segments.len() {
                ops.push(Op::Barrier);
            }
        }
        ops
    }
}

fn atom(rng: &mut DetRng) -> Atom {
    match rng.next_below(4) {
        0 | 1 => {
            let page = rng.next_below(PAGES);
            let off = rng.next_below(3000);
            let len = rng.range(1, 1024).min(PAGE_SIZE as u64 - off);
            if rng.chance(0.5) {
                Read(page, off, len)
            } else {
                Write(page, off, len)
            }
        }
        2 => Compute(rng.next_below(50_000)),
        _ => {
            let lock = rng.index(LOCKS);
            let body = (0..rng.range(1, 4)).map(|_| (rng.chance(0.5), rng.next_below(PAGES)));
            Locked(lock, body.collect())
        }
    }
}

fn program(rng: &mut DetRng) -> GenProgram {
    let threads = rng.range(2, 6) as usize;
    let segments = (0..rng.range(1, 4))
        .map(|_| {
            (0..threads)
                .map(|_| (0..rng.index(6)).map(|_| atom(rng)).collect())
                .collect()
        })
        .collect();
    GenProgram { threads, segments }
}

/// An arbitrary (but bounded) deterministic fault plan: any mix of delay
/// jitter, transient drops with retry, reordering, and slowdown windows.
fn fault_plan(rng: &mut DetRng) -> FaultPlan {
    FaultPlan {
        seed: rng.next_u64(),
        delay_prob: rng.next_f64() * 0.4,
        max_delay: SimDuration::from_micros(rng.next_below(1001)),
        drop_prob: rng.next_f64() * 0.1,
        max_retries: rng.range(1, 7) as u32,
        retry_timeout: SimDuration::from_micros(rng.range(50, 1001)),
        reorder_prob: rng.next_f64() * 0.2,
        reorder_depth: rng.next_below(6) as u32,
        slow_every: rng.index(4),
        slow_period: SimDuration::from_millis(2),
        slow_duty: 0.4,
        slow_factor: 1.0 + rng.next_f64() * 3.0,
        ..FaultPlan::none()
    }
}

/// Two shrunk counterexamples from an earlier property-testing run (3 and
/// 4 threads, lock sections over shared pages), checked before the random
/// cases of every property.
#[rustfmt::skip]
fn recorded_counterexamples() -> [GenProgram; 2] {
    let three = vec![
        vec![vec![], vec![], vec![Locked(0, vec![(false, 0)])]],
        vec![
            vec![Locked(0, vec![(true, 7)])],
            vec![Write(7, 2332, 773), Write(2, 2273, 847)],
            vec![],
        ],
        vec![
            vec![Locked(1, vec![(true, 6)]), Locked(2, vec![(true, 1)])],
            vec![Compute(3212), Compute(38403), Write(1, 2008, 723), Write(0, 2150, 442)],
            vec![Compute(47319), Compute(1385), Compute(9453)],
        ],
    ];
    let four = vec![
        vec![
            vec![Locked(0, vec![(false, 4)]), Read(0, 0, 1)],
            vec![],
            vec![Locked(0, vec![(true, 1)]), Locked(0, vec![(true, 4)])],
            vec![],
        ],
        vec![
            vec![Write(4, 0, 1), Read(4, 0, 1)],
            vec![Write(1, 0, 1)],
            vec![Locked(0, vec![(false, 2), (true, 4)])],
            vec![Read(3, 0, 1), Write(4, 30, 289)],
        ],
        vec![
            vec![Locked(0, vec![(false, 0), (true, 1), (false, 0)])],
            vec![Locked(0, vec![(true, 2)]), Read(7, 1808, 759), Compute(30494), Write(5, 38, 110)],
            vec![Write(3, 1483, 215), Write(5, 1987, 106), Read(4, 1306, 814), Read(7, 818, 133)],
            vec![],
        ],
    ];
    [three, four].map(|segments| GenProgram { threads: segments[0].len(), segments })
}

/// Checks `prop` on the recorded counterexamples, then on random programs.
fn check(prop: impl Fn(&GenProgram)) {
    recorded_counterexamples().iter().for_each(&prop);
    forall(64, 0, program, prop);
}

fn run(program: &GenProgram, nodes: usize, iterations: usize) -> acorr_dsm::IterStats {
    let cluster = ClusterConfig::new(nodes, program.threads).expect("cluster");
    let mut dsm = Dsm::new(
        DsmConfig::new(cluster),
        program.clone(),
        Mapping::stretch(&cluster),
    )
    .expect("dsm");
    dsm.run_iterations(iterations)
        .expect("generated programs never deadlock")
}

/// Any well-formed program runs to completion (the lock discipline is
/// a simple non-nested critical section, so no deadlock is possible)
/// and produces identical statistics on a re-run.
#[test]
fn deterministic_and_deadlock_free() {
    check(|program| assert_eq!(run(program, 2, 2), run(program, 2, 2)));
}

/// Protocol invariants hold on arbitrary programs.
#[test]
fn protocol_invariants() {
    check(|program| {
        let stats = run(program, 2, 3);
        // Remote misses and coherence faults are the same events.
        assert_eq!(stats.remote_misses, stats.coherence_faults);
        // Every twin is finalized into exactly one diff by the barrier.
        assert_eq!(stats.twin_faults, stats.diffs_created);
        // Barrier count: (segments - 1) explicit + 1 implicit, per
        // iteration.
        let expected = program.segments.len() as u64 * 3;
        assert_eq!(stats.barriers, expected);
        // Time moves forward.
        assert!(stats.elapsed.as_nanos() > 0);
        // Diff payloads include framing, so bytes >= count * header.
        assert!(stats.diff_bytes_created >= stats.diffs_created * 16);
    });
}

/// The single-writer protocol terminates (no thrashing livelock thanks
/// to completed-at-fetch semantics), is deterministic, and never
/// creates diffs or garbage-collects.
#[test]
fn single_writer_invariants() {
    check(|program| {
        let cluster = ClusterConfig::new(2, program.threads).expect("cluster");
        let build = |delta_us: u64| {
            Dsm::new(
                DsmConfig::new(cluster).with_write_mode(WriteMode::SingleWriter {
                    delta: SimDuration::from_micros(delta_us),
                }),
                program.clone(),
                Mapping::stretch(&cluster),
            )
            .expect("dsm")
        };
        let a = build(0).run_iterations(2).expect("terminates");
        let b = build(0).run_iterations(2).expect("terminates");
        assert_eq!(a, b, "deterministic");
        assert_eq!(a.diffs_created, 0);
        assert_eq!(a.gc_runs, 0);
        assert_eq!(a.remote_misses, a.coherence_faults);
        // A positive delta reshuffles timing (and with it the exact
        // interleaving, so event counts can wiggle by a few), but it must
        // still terminate and stay in the same regime.
        let frozen = build(500).run_iterations(2).expect("terminates");
        let close = |x: u64, y: u64| x.abs_diff(y) <= 4 + x.max(y) / 4;
        let (misses, transfers) = (frozen.remote_misses, frozen.ownership_transfers);
        assert!(
            close(misses, a.remote_misses),
            "misses {misses} vs {}",
            a.remote_misses
        );
        let a_transfers = a.ownership_transfers;
        assert!(
            close(transfers, a_transfers),
            "transfers {transfers} vs {a_transfers}"
        );
    });
}

/// Active tracking observes exactly the pages the scripts touch: no
/// page is missed, none is invented.
#[test]
fn tracking_is_exact() {
    check(|program| {
        let cluster = ClusterConfig::new(2, program.threads).expect("cluster");
        let mut dsm = Dsm::new(
            DsmConfig::new(cluster),
            program.clone(),
            Mapping::stretch(&cluster),
        )
        .expect("dsm");
        let (_, access) = dsm.run_tracked_iteration().expect("tracked run");
        for t in 0..program.threads {
            let mut expected = std::collections::BTreeSet::new();
            for op in program.script(t, 0) {
                if let Op::Read { addr, len } | Op::Write { addr, len } = op {
                    if len > 0 {
                        for p in (addr / 4096)..=((addr + len - 1) / 4096) {
                            expected.insert(p as usize);
                        }
                    }
                }
            }
            let observed: std::collections::BTreeSet<usize> =
                access.bitmap(t).iter_ones().collect();
            assert_eq!(&observed, &expected, "thread {t}");
        }
    });
}

/// Under any fault plan, on any node count, every run terminates, the
/// coherence oracle certifies release-consistency conformance, and a
/// re-run with the same (seed, plan) reproduces every statistic —
/// network ledgers and retry counts included — byte-identically.
#[test]
fn faulty_runs_are_oracle_clean_and_deterministic() {
    let prop = |(program, plan): &(GenProgram, FaultPlan)| {
        for nodes in [1usize, 2, 4] {
            if nodes > program.threads {
                continue;
            }
            let cluster = ClusterConfig::new(nodes, program.threads).expect("cluster");
            let build = || {
                let mut dsm = Dsm::new(
                    DsmConfig::new(cluster).with_faults(plan.clone()),
                    program.clone(),
                    Mapping::stretch(&cluster),
                )
                .expect("dsm");
                dsm.enable_oracle();
                dsm
            };
            let mut first = build();
            let a = first.run_iterations(2).expect("oracle-clean run");
            let report = first.oracle_report().expect("oracle enabled");
            assert_eq!(report.violations, 0, "nodes {nodes}");
            assert!(report.barriers_checked >= 2);
            let b = build().run_iterations(2).expect("oracle-clean rerun");
            assert_eq!(a, b, "nodes {nodes}");
        }
    };
    for program in recorded_counterexamples() {
        prop(&(program, FaultPlan::heavy(1)));
    }
    forall(64, 0, |rng| (program(rng), fault_plan(rng)), prop);
}

/// A zero-fault plan is a strict identity: no statistic moves relative
/// to the default configuration, and no retransmission is recorded.
#[test]
fn zero_fault_plan_is_an_identity() {
    check(|program| {
        let baseline = run(program, 2, 2);
        let cluster = ClusterConfig::new(2, program.threads).expect("cluster");
        let explicit = Dsm::new(
            DsmConfig::new(cluster).with_faults(FaultPlan::none()),
            program.clone(),
            Mapping::stretch(&cluster),
        )
        .expect("dsm")
        .run_iterations(2)
        .expect("clean run");
        assert_eq!(baseline, explicit.clone());
        assert_eq!(explicit.retries, 0);
        assert_eq!(explicit.net.total_retrans_messages(), 0);
        assert_eq!(explicit.net.total_retrans_bytes(), 0);
    });
}

/// For barrier-only programs, statistics other than faults and timing
/// are unperturbed by tracking: the mechanism is observation-only.
///
/// (Lock-using programs are excluded deliberately: pinned scheduling
/// reorders lock acquisitions across nodes, and §2 of the paper notes
/// that such scheduling nondeterminism legitimately shifts remote-miss
/// counts by a few faults.)
#[test]
fn tracking_preserves_coherence_behaviour() {
    check(|program| {
        let mut program = program.clone();
        for atom in program.segments.iter_mut().flatten().flatten() {
            if matches!(atom, Locked(..)) {
                *atom = Compute(1_000);
            }
        }
        let cluster = ClusterConfig::new(2, program.threads).expect("cluster");
        let build = || {
            Dsm::new(
                DsmConfig::new(cluster),
                program.clone(),
                Mapping::stretch(&cluster),
            )
            .expect("dsm")
        };
        let mut plain = build();
        let off = plain.run_iterations(1).expect("plain run");
        let mut tracked = build();
        let (on, _) = tracked.run_tracked_iteration().expect("tracked run");
        assert_eq!(off.remote_misses, on.remote_misses);
        assert_eq!(off.diffs_created, on.diffs_created);
        assert_eq!(off.diff_bytes_created, on.diff_bytes_created);
        assert_eq!(off.lock_acquires, on.lock_acquires);
        // And the *next* iteration behaves identically on both instances.
        assert_eq!(
            plain.run_iterations(1).expect("second"),
            tracked.run_iterations(1).expect("second")
        );
    });
}

/// Like [`atom`], but half the atoms are accesses that start anywhere on a
/// page and run up to three pages, so most of those cross a page boundary.
fn wide_atom(rng: &mut DetRng) -> Atom {
    if rng.chance(0.5) {
        return atom(rng);
    }
    let page = rng.next_below(PAGES - 3);
    let off = rng.next_below(PAGE_SIZE as u64);
    let len = rng.range(1, 3 * PAGE_SIZE as u64 + 1);
    if rng.chance(0.5) {
        Read(page, off, len)
    } else {
        Write(page, off, len)
    }
}

fn wide_program(rng: &mut DetRng) -> GenProgram {
    let threads = rng.range(2, 6) as usize;
    let segments = (0..rng.range(1, 4))
        .map(|_| {
            (0..threads)
                .map(|_| (0..rng.index(6)).map(|_| wide_atom(rng)).collect())
                .collect()
        })
        .collect();
    GenProgram { threads, segments }
}

/// A program with every access op split at its page boundaries.
struct PageSplit(GenProgram);

impl Program for PageSplit {
    fn name(&self) -> &str {
        "page-split"
    }
    fn shared_bytes(&self) -> u64 {
        self.0.shared_bytes()
    }
    fn num_threads(&self) -> usize {
        self.0.num_threads()
    }
    fn num_locks(&self) -> usize {
        self.0.num_locks()
    }
    fn script(&self, thread: usize, iteration: usize) -> Vec<Op> {
        let mut ops = Vec::new();
        for op in self.0.script(thread, iteration) {
            let (Op::Read { addr, len } | Op::Write { addr, len }) = op else {
                ops.push(op);
                continue;
            };
            ops.extend(span_pages(addr, len).map(|span| {
                let addr = span.page.base_addr() + u64::from(span.start);
                let len = u64::from(span.len());
                match op {
                    Op::Write { .. } => Op::write(addr, len),
                    _ => Op::read(addr, len),
                }
            }));
        }
        ops
    }
}

/// One tracked iteration, then two plain ones.
fn tracked_then_plain<P: Program>(
    program: P,
    config: DsmConfig,
) -> (IterStats, AccessMatrix, IterStats) {
    let mapping = Mapping::stretch(&config.cluster);
    let mut dsm = Dsm::new(config, program, mapping).expect("dsm");
    let (tracked, access) = dsm.run_tracked_iteration().expect("tracked run");
    let plain = dsm.run_iterations(2).expect("plain runs");
    (tracked, access, plain)
}

/// An access resumes at its byte offset after every block: running each
/// op whole or split at its page boundaries gives the same statistics and
/// the same tracked access sets, under both protocols and on every node
/// count.
#[test]
fn page_split_accesses_run_identically() {
    forall(64, 0, wide_program, |program| {
        let modes = [
            WriteMode::MultiWriter,
            WriteMode::SingleWriter {
                delta: SimDuration::ZERO,
            },
            WriteMode::SingleWriter {
                delta: SimDuration::from_millis(1),
            },
        ];
        for nodes in [1usize, 2, 4] {
            if nodes > program.threads {
                continue;
            }
            let cluster = ClusterConfig::new(nodes, program.threads).expect("cluster");
            for mode in modes {
                let config = DsmConfig::new(cluster).with_write_mode(mode);
                assert_eq!(
                    tracked_then_plain(program.clone(), config.clone()),
                    tracked_then_plain(PageSplit(program.clone()), config),
                    "nodes {nodes}, {mode:?}"
                );
            }
        }
    });
}
