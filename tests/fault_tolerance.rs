//! Integration tests of the fault-tolerance substrate (§4): leader failover
//! of the journaled control plane, replica failures of its store, and fault
//! injection against the plane — a leader crash between trigger-fire and
//! batch dispatch loses no tickets, and minority store-replica churn mid-run
//! leaves weighted fairness intact.

mod common;

use common::{feasible_spec, small_fleet, small_scheduler};
use qonductor::consensus::{LogEntry, ReplicatedLog, ReplicatedStore, StoreError};
use qonductor::core::{JobTicket, ReplicatedControlPlane, SloClass, TenantConfig, TicketStatus};
use qonductor::scheduler::ScheduleTrigger;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every ticket resolves to `Completed` through `poll`.
fn assert_all_completed(plane: &ReplicatedControlPlane, tickets: &[JobTicket]) {
    for &ticket in tickets {
        let status = plane.poll(ticket);
        assert!(
            matches!(status, Some(TicketStatus::Completed { .. })),
            "ticket {ticket:?} must resolve, got {status:?}"
        );
    }
}

/// `2f + 1 = 5` electable nodes (f = 2) tolerate two successive leader
/// failures with tickets in flight: each failover elects a different leader
/// at a higher term, rebuilds byte-identical state, and every pre-crash
/// ticket still resolves through `poll`.
#[test]
fn control_plane_survives_leader_failure_and_reelects() {
    let mut fleet = small_fleet(23);
    let scheduler = small_scheduler(16, 8, 800);
    let mut plane = ReplicatedControlPlane::new(ScheduleTrigger::new(4, 1e12), 2, 1234);
    assert_eq!(plane.election().len(), 5);
    let tenant = plane.register_tenant(1).unwrap();
    let tickets: Vec<_> = (0..8)
        .map(|i| plane.submit(tenant, feasible_spec(&fleet, 5, 6.0), i as f64).unwrap())
        .collect();
    // The pool fills at the queue limit: the first crash finds four admitted
    // jobs and four queued tickets, the second a running batch and a pool.
    plane.admit(8.0).unwrap();
    assert_eq!((plane.jobmanager().pending_len(), plane.submissions().total_queued()), (4, 4));
    for round in 0..2 {
        let leader = plane.leader().expect("a leader before the crash");
        let term = plane.election().current_term();
        let state = plane.encode_state();
        plane.crash_leader();
        assert_eq!(plane.leader(), None, "a crashed holder invalidates the lease");
        plane.failover().expect("two node failures of five are tolerated");
        assert_ne!(plane.leader(), Some(leader), "round {round} kept the crashed leader");
        assert!(plane.election().current_term() > term, "round {round} reused a term");
        assert_eq!(plane.encode_state(), state, "round {round} rebuilt different bytes");
        plane
            .try_dispatch(9.0 + round as f64, &scheduler, &mut fleet)
            .expect("journal has a quorum")
            .expect("trigger fires on the rebuilt pool");
        plane.admit(9.0 + round as f64).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(6);
    fleet.advance_to(1e6, &mut rng);
    let done = plane.drain_completions(&mut fleet);
    plane.note_completions(&done).unwrap();
    assert_all_completed(&plane, &tickets);
}

/// A one-line journal entry for driving a bare replicated log.
#[derive(Debug, PartialEq)]
struct Note(String);

impl LogEntry for Note {
    fn encode(&self) -> String {
        self.0.clone()
    }
    fn decode(line: &str) -> Option<Self> {
        Some(Note(line.to_string()))
    }
}

#[test]
fn writes_are_rejected_without_a_quorum() {
    let log = ReplicatedLog::new(ReplicatedStore::new(1));
    let store = log.store();
    let replay = || log.entries_from(0, |_| {}).expect("every note decodes");
    log.append(&Note("a".into())).unwrap();
    store.crash_replica(0);
    store.crash_replica(1);
    assert!(!store.has_quorum());
    assert_eq!(log.append(&Note("b".into())), Err(StoreError::NoQuorum));
    // The surviving replica still serves committed state.
    assert_eq!(replay(), [(0, Note("a".into()))]);
    // Recovering one replica restores the write quorum.
    store.recover_replica(0);
    assert!(store.has_quorum());
    assert_eq!(log.append(&Note("b".into())), Ok(1));
    assert_eq!(replay(), [(0, Note("a".into())), (1, Note("b".into()))]);
}

/// The leader crashes in the window between the trigger firing (the pool has
/// reached the queue limit) and the batch dispatch being journaled: nothing
/// was written, so the rebuilt replica still holds every admitted job in the
/// pool, the trigger re-fires on the recovered state, and every pre-crash
/// ticket resolves to `Completed` via `poll` after the failover.
#[test]
fn leader_crash_between_trigger_fire_and_dispatch_loses_no_tickets() {
    let mut fleet = small_fleet(21);
    let scheduler = small_scheduler(16, 8, 800);
    let mut plane = ReplicatedControlPlane::new(ScheduleTrigger::new(4, 1e12), 1, 91);
    let tenant = plane.register_tenant(1).unwrap();
    let tickets: Vec<_> = (0..4)
        .map(|i| plane.submit(tenant, feasible_spec(&fleet, 5, 6.0), i as f64).unwrap())
        .collect();
    plane.admit(3.0).unwrap();
    assert_eq!(plane.jobmanager().pending_len(), 4);
    // The queue-size trigger is due *now* — the next dispatch call would fire
    // it. The leader dies first.
    assert_eq!(plane.next_trigger_s(), Some(3.0), "trigger is due before the crash");
    let digest = plane.state_digest();
    plane.crash_leader();
    plane.failover().expect("failover succeeds");
    assert_eq!(plane.state_digest(), digest, "rebuilt state is byte-identical");
    assert_eq!(plane.jobmanager().pending_len(), 4, "no admitted job was lost");

    // The recovered replica re-fires the trigger and dispatches the batch.
    let outcome = plane
        .try_dispatch(3.0, &scheduler, &mut fleet)
        .expect("journal has a quorum")
        .expect("trigger re-fires on the rebuilt state");
    assert_eq!(outcome.record.job_ids.len(), 4);
    let mut rng = StdRng::seed_from_u64(5);
    fleet.advance_to(1e6, &mut rng);
    let done = plane.drain_completions(&mut fleet);
    plane.note_completions(&done).unwrap();
    assert_all_completed(&plane, &tickets);
}

/// Crash + recover of a *minority* of store replicas during a saturated 2:1
/// multi-tenant run: journal writes keep committing on the surviving
/// majority, the recovered replicas catch up, and the weighted-fair admitted
/// shares stay within the ±10% envelope of `tests/fairness.rs`. No ticket is
/// lost.
#[test]
fn minority_store_replica_churn_preserves_weighted_fairness() {
    let mut fleet = small_fleet(22);
    let scheduler = small_scheduler(16, 8, 800);
    let mut plane = ReplicatedControlPlane::new(ScheduleTrigger::new(12, 30.0), 1, 92);
    let heavy = plane
        .register_tenant_with(TenantConfig { weight: 2, max_in_flight: usize::MAX, max_retries: 0 })
        .unwrap();
    let light = plane
        .register_tenant_with(TenantConfig { weight: 1, max_in_flight: usize::MAX, max_retries: 0 })
        .unwrap();
    let mut tickets = Vec::new();
    for i in 0..60 {
        let at = i as f64 * 0.001;
        tickets.push(plane.submit(heavy, feasible_spec(&fleet, 5, 4.0), at).unwrap());
        tickets.push(plane.submit(light, feasible_spec(&fleet, 5, 4.0), at).unwrap());
    }

    let mut rng = StdRng::seed_from_u64(9);
    let mut t = 1.0;
    let mut round = 0usize;
    let mut heavy_saturated = 0usize;
    let mut total_saturated = 0usize;
    while plane.submissions().total_queued() > 0 || plane.jobmanager().pending_len() > 0 {
        round += 1;
        assert!(round < 100, "drain loop must converge");
        // Storage-tier churn: one replica down at a time, never a majority.
        match round {
            2 => plane.store().crash_replica(0),
            5 => {
                plane.store().recover_replica(0);
                plane.store().crash_replica(2);
            }
            8 => plane.store().recover_replica(2),
            _ => {}
        }
        plane.admit(t).expect("a minority crash never costs the quorum");
        let saturated =
            plane.submissions().queued_len(heavy) > 0 && plane.submissions().queued_len(light) > 0;
        if let Some(outcome) = plane.try_dispatch(t, &scheduler, &mut fleet).unwrap() {
            let batch = &outcome.record;
            if saturated {
                let count = |tenant| {
                    batch
                        .tenant_jobs
                        .iter()
                        .find(|(id, _)| *id == tenant)
                        .map_or(0usize, |(_, n)| *n)
                };
                heavy_saturated += count(heavy);
                total_saturated += batch.job_ids.len();
            }
        }
        t += 31.0;
        fleet.advance_to(t, &mut rng);
        let done = plane.drain_completions(&mut fleet);
        plane.note_completions(&done).unwrap();
    }
    assert!(total_saturated >= 36, "enough saturated batches to judge fairness");
    let share = heavy_saturated as f64 / total_saturated as f64;
    assert!(
        (share - 2.0 / 3.0).abs() <= 0.1,
        "heavy share {share} drifted outside the ±10% envelope under replica churn"
    );

    fleet.advance_to(t + 1e6, &mut rng);
    let done = plane.drain_completions(&mut fleet);
    plane.note_completions(&done).unwrap();
    assert_all_completed(&plane, &tickets);
    // The journal survived the churn end-to-end: a full rebuild still works
    // and matches the live state byte for byte.
    let digest = plane.state_digest();
    plane.crash_leader();
    plane.failover().expect("failover succeeds after churn");
    assert_eq!(plane.state_digest(), digest);
}

/// The crash-between-stage-and-commit window of group commit: the quorum dies
/// after an admission cycle's events are staged but before the batched append
/// commits. Nothing may land — no prefix of the batch, no local state change
/// — and a recovery + failover replays to exactly the pre-batch bytes.
#[test]
fn a_crash_between_stage_and_commit_replays_to_the_pre_batch_state() {
    let fleet = small_fleet(94);
    let trigger = ScheduleTrigger::new(100, 30.0).with_slo_margin(2.0);
    let mut plane = ReplicatedControlPlane::new(trigger, 1, 94);
    let bulk = plane.register_tenant(2).unwrap();
    let slo = plane
        .register_tenant_with_slo(TenantConfig::weighted(1), SloClass::with_deadline(20.0))
        .unwrap();
    for i in 0..4 {
        plane.submit(bulk, feasible_spec(&fleet, 5, 4.0), i as f64 * 0.1).unwrap();
    }
    plane.submit(slo, feasible_spec(&fleet, 5, 4.0), 1.0).unwrap();
    let pre_batch_state = plane.encode_state();
    let pre_batch_len = plane.log().len();

    // Kill the quorum; the staged batch (escalation + admission pass) must
    // fail its single commit round and leave no trace, locally or durably.
    plane.store().crash_replica(0);
    plane.store().crash_replica(1);
    assert_eq!(plane.admit(2.0), Err(StoreError::NoQuorum.into()));
    assert_eq!(plane.encode_state(), pre_batch_state, "the failed batch mutated local state");
    assert_eq!(plane.log().len(), pre_batch_len, "the failed batch left a journal prefix");

    // Recover the store, crash the leader, and replay: the rebuilt state is
    // the pre-batch bytes.
    plane.store().recover_replica(0);
    plane.store().recover_replica(1);
    plane.crash_leader();
    plane.failover().expect("failover succeeds");
    assert_eq!(plane.encode_state(), pre_batch_state, "replay must land on the pre-batch state");

    // The retried cycle commits at the same indices and admits everything.
    let admitted = plane.admit(2.0).unwrap();
    assert_eq!(admitted.len(), 5, "the retried admission admits the full backlog");
    assert!(plane.log().len() > pre_batch_len);
}
