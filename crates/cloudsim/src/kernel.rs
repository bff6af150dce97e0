//! The one simulation event loop. Every scenario — single-tenant policies,
//! multi-tenant fairness, sharded planes, the bursty SLO arms, and through
//! [`crate::sim::CloudSimulation`] the drift and federation studies — is a
//! `Scenario` driven by `run` over a [`ShardedControlPlane`] of N ≥ 1
//! shards, the plane type the orchestrator runs.
//!
//! Step order, for each `(t, t_next]` of `step_s` seconds:
//!
//! 0. **Fault injection** — every crash instant of the [`FailurePlan`] in
//!    `(t, t_next]` kills every shard's leader; each shard fails over to a
//!    replica rebuilt from `snapshot + log replay`.
//! 1. **Advance** the fleet's queues (and calibration drift) to `t_next`,
//!    then **drain completions** onto the shard that dispatched them.
//! 2. **Arrivals** in `[t, t_next)` are submitted (journaled). Because the
//!    queues already advanced, an arrival is enqueued at `t_next` at the
//!    earliest and can never start before it was submitted.
//! 3. `Scenario::before_admit`, weighted-fair **admission** on every shard,
//!    `Scenario::after_admit`.
//! 4. **Trigger-gated dispatch**: every shard whose trigger fires runs one
//!    NSGA-II + MCDM cycle; every [`FailurePlan::snapshot_every_batches`]-th
//!    batch (also in a failure-free run — snapshots are behaviour-neutral
//!    and bound the journal) all shards checkpoint.
//! 5. `Scenario::end_of_step`.
//!
//! The kernel owns no random stream and draws no number itself: completion
//! jitter, arrivals and device synthesis happen inside the scenario, and the
//! fleet advances on the stream the scenario hands out, so a scenario's
//! report depends on its seed alone and not on how the kernel evolves.

use crate::failover::{ChaosReport, CrashRecord, FailurePlan, ShardRecovery};
use qonductor_backend::Fleet;
use qonductor_core::jobmanager::{BatchRecord, CalibrationPolicy, CompletedExecution, JobId};
use qonductor_core::sharding::{GlobalTicket, ShardedControlPlane};
use qonductor_scheduler::{
    HybridScheduler, Nsga2Config, Preference, ScheduleTrigger, SchedulerConfig,
};
use rand::rngs::StdRng;
use std::collections::HashSet;

/// Why a journal write may not fail inside the simulation: no replica is
/// ever partitioned away, and a crashed leader is replaced before the next
/// write.
pub(crate) const QUORUM: &str = "every shard journal has a quorum";

/// The run parameters every scenario shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunParams {
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// Simulation step in seconds.
    pub step_s: f64,
    /// Per-shard queue-size trigger threshold (also the admission pool
    /// capacity, so no batch exceeds it).
    pub trigger_queue_limit: usize,
    /// Per-shard time-based trigger interval (seconds).
    pub trigger_interval_s: f64,
    /// NSGA-II configuration of the batch scheduler.
    pub nsga2: Nsga2Config,
    /// MCDM objective preference.
    pub preference: Preference,
    /// RNG seed of every stream the scenario owns.
    pub seed: u64,
}

impl RunParams {
    /// The queue-size / interval trigger of every shard.
    pub(crate) fn trigger(&self) -> ScheduleTrigger {
        ScheduleTrigger::new(self.trigger_queue_limit, self.trigger_interval_s)
    }

    /// A journaled plane of `num_shards` shards (f = 1: three store replicas
    /// and three electable nodes per shard) over a `num_qpus` fleet.
    pub(crate) fn plane(
        &self,
        num_shards: usize,
        num_qpus: usize,
        trigger: ScheduleTrigger,
    ) -> ShardedControlPlane {
        ShardedControlPlane::new(
            num_shards,
            num_qpus,
            trigger,
            CalibrationPolicy::Naive,
            1,
            self.seed ^ 0x51AB,
        )
    }

    /// The batch scheduler, warm-started like the orchestrator's: each cycle
    /// seeds NSGA-II from the previous cycle's Pareto front.
    pub(crate) fn scheduler(&self) -> HybridScheduler {
        HybridScheduler::with_warm_start(SchedulerConfig {
            nsga2: self.nsga2,
            preference: self.preference,
            ..SchedulerConfig::default()
        })
    }
}

/// What genuinely differs between simulations; everything else is [`run`].
/// Hooks are called in the module-level step order.
pub(crate) trait Scenario {
    /// The scenario's report.
    type Report;

    /// The fleet the plane dispatches onto, and the scenario-owned stream
    /// that advances its queues and calibration drift.
    fn fleet_and_drift(&mut self) -> (&mut Fleet, &mut StdRng);

    /// A dispatched job finished.
    fn completed(&mut self, ticket: GlobalTicket, done: &CompletedExecution);

    /// Generate the arrivals of `[t, t_next)` and submit them to `plane`.
    fn submit_arrivals(&mut self, t: f64, t_next: f64, plane: &mut ShardedControlPlane);

    /// Between submission and admission (elastic capacity changes).
    fn before_admit(&mut self, _t_next: f64, _plane: &mut ShardedControlPlane) {}

    /// Between admission and the trigger check (direct dispatch of the
    /// admitted jobs, re-estimation of the pooled ones).
    fn after_admit(
        &mut self,
        _admitted: &[(GlobalTicket, JobId)],
        _plane: &mut ShardedControlPlane,
    ) {
    }

    /// A batch terminally rejected `ticket` (its status is still pollable).
    fn rejected(&mut self, ticket: GlobalTicket, plane: &ShardedControlPlane);

    /// `shard` dispatched `batch`.
    fn dispatched(&mut self, shard: usize, batch: &BatchRecord, plane: &ShardedControlPlane);

    /// After the step's dispatches, with the plane read-only (metrics
    /// sampling).
    fn end_of_step(&mut self, _t_next: f64, _plane: &ShardedControlPlane) {}

    /// Assemble the report once the simulated duration has elapsed.
    fn finish(self, plane: &ShardedControlPlane) -> Self::Report;
}

/// Kill every shard's leader, fail each shard over, and record whether the
/// rebuilt states and the rebuilt lease partition match the pre-crash ones.
fn crash_and_recover(plane: &mut ShardedControlPlane, t_s: f64) -> CrashRecord {
    let before: Vec<(String, usize)> =
        plane.shards().iter().map(|s| (s.state_digest(), s.leader().unwrap_or(0))).collect();
    let replayed_events = plane.shards().iter().map(|s| s.replay_backlog()).sum();
    plane.crash_all_leaders();
    plane.failover_all().expect("a majority of each shard's replicas survives");
    let shards = (plane.shards().iter().zip(before))
        .map(|(shard, (digest, old_leader))| ShardRecovery {
            old_leader,
            new_leader: shard.leader().unwrap_or(old_leader),
            digest_matched: shard.state_digest() == digest,
        })
        .collect();
    CrashRecord {
        t_s,
        replayed_events,
        shards,
        allocator_consistent: plane.rebuild_allocator().is_ok(),
    }
}

/// Drive `scenario` over `plane` for `duration_s` simulated seconds in steps
/// of `step_s`, injecting the crashes of `plan`. A `None` scheduler skips the
/// trigger-gated dispatch entirely (the FCFS baseline places jobs in
/// [`Scenario::after_admit`]).
pub(crate) fn run<S: Scenario>(
    mut scenario: S,
    mut plane: ShardedControlPlane,
    scheduler: Option<HybridScheduler>,
    (duration_s, step_s): (f64, f64),
    plan: &FailurePlan,
) -> ChaosReport<S::Report> {
    let mut crash_schedule = plan.crash_times_s.iter().peekable();
    let snapshot_every = plan.snapshot_every_batches;
    let mut crashes = Vec::new();
    let mut snapshots_installed = 0u64;
    let mut batches_seen = 0usize;
    let mut enqueued: HashSet<(usize, JobId)> = HashSet::new();
    let mut double_dispatched = Vec::new();

    let mut t = 0.0f64;
    while t < duration_s {
        let t_next = (t + step_s).min(duration_s);

        while let Some(&crash_t) = crash_schedule.next_if(|&&c| c <= t_next) {
            crashes.push(crash_and_recover(&mut plane, crash_t));
        }

        let (fleet, drift) = scenario.fleet_and_drift();
        fleet.advance_to(t_next, drift);
        for (ticket, done) in plane.drain_and_note(fleet).expect(QUORUM) {
            scenario.completed(ticket, &done);
        }

        scenario.submit_arrivals(t, t_next, &mut plane);

        scenario.before_admit(t_next, &mut plane);
        let admitted = plane.admit(t_next).expect(QUORUM);
        scenario.after_admit(&admitted, &mut plane);

        if let Some(scheduler) = &scheduler {
            let outcomes =
                plane.try_dispatch(t_next, scheduler, scenario.fleet_and_drift().0).expect(QUORUM);
            for (shard, outcome) in outcomes {
                for &ticket in &outcome.terminal_rejections {
                    scenario.rejected(GlobalTicket { shard, ticket }, &plane);
                }
                scenario.dispatched(shard, &outcome.record, &plane);
                for job_id in outcome.record.enqueued_job_ids() {
                    if !enqueued.insert((shard, job_id)) {
                        double_dispatched.push((shard, job_id));
                    }
                }
                batches_seen += 1;
                if snapshot_every > 0 && batches_seen.is_multiple_of(snapshot_every) {
                    plane.snapshot_all().expect(QUORUM);
                    snapshots_installed += 1;
                }
            }
        }

        scenario.end_of_step(t_next, &plane);
        t = t_next;
    }

    let lost_tickets = plane
        .snapshot_stats()
        .iter()
        .map(|(_, s)| {
            let accounted = s.queued as u64 + s.in_flight as u64 + s.completed + s.rejected;
            s.submitted.abs_diff(accounted)
        })
        .sum();
    double_dispatched.sort_unstable();
    ChaosReport {
        report: scenario.finish(&plane),
        crashes,
        snapshots_installed,
        lost_tickets,
        double_dispatched,
        final_states: plane.encoded_states(),
    }
}
