//! The engine's steering surface on SOR at 8 threads on 2 nodes: two
//! decision queues steer a run through `Dsm::steer`, their logs come back
//! through `Dsm::decisions`, and the logs' `chosen` columns, replayed as
//! prescribed queues, reproduce the run bit for bit.

use acorr::apps::Sor;
use acorr::dsm::{Dsm, DsmConfig, IterStats};
use acorr::sim::{forall, ClusterConfig, DecisionQueue, DecisionRecord, DetRng, Mapping};

/// One run's statistics and its (schedule, fault) decision logs.
type Steered = (IterStats, Vec<DecisionRecord>, Vec<DecisionRecord>);

/// Runs two iterations of SOR 8×2 under the stretch mapping, steered by
/// `queues` when given.
fn sor_run(queues: Option<(DecisionQueue, DecisionQueue)>) -> Steered {
    let cluster = ClusterConfig::new(2, 8).unwrap();
    let mapping = Mapping::stretch(&cluster);
    let mut dsm = Dsm::new(DsmConfig::new(cluster), Sor::new(64, 64, 8), mapping).unwrap();
    if let Some((schedule, faults)) = queues {
        dsm.steer(schedule, faults);
    }
    let stats = dsm.run_iterations(2).unwrap();
    let (schedule, faults) = dsm.decisions();
    (stats, schedule.to_vec(), faults.to_vec())
}

fn chosen(log: &[DecisionRecord]) -> Vec<u32> {
    log.iter().map(|r| r.chosen).collect()
}

#[test]
fn a_steered_run_replays_from_its_own_logs() {
    let gen = |rng: &mut DetRng| {
        let faults: Vec<u32> = (0..3).map(|_| rng.index(5) as u32).collect();
        (rng.next_u64(), faults)
    };
    forall(4, 0, gen, |(tail_seed, fault_prefix)| {
        let (stats, schedule, faults) = sor_run(Some((
            DecisionQueue::new(vec![], Some(DetRng::new(*tail_seed))),
            DecisionQueue::new(fault_prefix.clone(), None),
        )));
        assert!(schedule.len() >= 2, "SOR 8x2 has dispatch choices");
        assert!(schedule.iter().all(|r| r.alternatives >= 2));
        let replayed = sor_run(Some((
            DecisionQueue::new(chosen(&schedule), None),
            DecisionQueue::new(chosen(&faults), None),
        )));
        assert_eq!(replayed, (stats, schedule, faults));
    });
}

#[test]
fn all_default_queues_are_the_unsteered_engine() {
    let (unsteered, schedule, faults) = sor_run(None);
    assert!(schedule.is_empty() && faults.is_empty());
    let (stats, schedule, faults) = sor_run(Some((
        DecisionQueue::new(vec![], None),
        DecisionQueue::new(vec![], None),
    )));
    assert_eq!(stats, unsteered);
    assert!(!schedule.is_empty());
    assert!(schedule.iter().all(|r| r.chosen == 0));
    // One fault decision per barrier interval, none of them a fault.
    assert_eq!(faults.len() as u64, stats.barriers);
    assert!(faults.iter().all(|r| r.chosen == 0 && r.alternatives == 5));
}
