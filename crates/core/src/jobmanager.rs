//! The batch job manager (§7): the single execution engine shared by the
//! orchestrator and the cloud simulation.
//!
//! Quantum jobs are *submitted* into a pending pool with manager-assigned
//! monotonic ids; a [`ScheduleTrigger`] (queue-size limit or elapsed interval,
//! whichever fires first) gates every invocation of the NSGA-II + MCDM
//! scheduler; each triggered invocation schedules the whole pending pool as
//! one batch and enqueues the chosen placements onto the [`Fleet`]'s per-QPU
//! queues. The FCFS baseline bypasses the trigger with a direct dispatch but
//! still shares the same submission pool, id space, and enqueue path.
//!
//! The engine decides and applies; it never journals. `decide_batch` reads
//! the pool and the fleet and writes nothing; `apply_batch` and
//! `apply_direct` make the state change of a journaled
//! [`crate::replication::ControlPlaneEvent`] and return the fleet enqueues it
//! implies, which the live control plane pushes onto the queues and replay
//! drops.

use crate::replication::wire::{Cursor, Wire};
use qonductor_backend::{CompletedJob, Fleet};
use qonductor_scheduler::{
    partition_at_boundary, HybridScheduler, JobRequest, PlannedJob, QpuState, ScheduleOutcome,
    ScheduleTrigger, TriggerReason,
};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Identifier of a submitted quantum job (monotonic per manager).
pub type JobId = u64;

/// Identifier of a submitting tenant (see [`crate::submission`]).
pub type TenantId = u32;

/// The tenant that single-caller paths submit as: the orchestrator's default
/// routing and the single-tenant cloud simulation.
pub const DEFAULT_TENANT: TenantId = 0;

/// Execution-time estimate assigned to QPUs that cannot run a job (used in
/// place of non-finite estimates so the optimizer's arithmetic stays finite).
const INFEASIBLE_EXEC_S: f64 = 1e6;

/// Minimum execution duration enqueued on a QPU queue (guards against
/// zero-length jobs producing zero-time completions).
const MIN_EXEC_S: f64 = 0.001;

/// How the batch engine treats plans that cross a recalibration boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CalibrationPolicy {
    /// Dispatch the whole batch regardless of calibration boundaries (the
    /// pre-§7 behaviour, kept as the baseline for drift studies).
    #[default]
    Naive,
    /// Partition the planned batch timeline at each QPU's next recalibration
    /// boundary (`crossover::partition_at_boundary`, §7): jobs finishing
    /// before the boundary dispatch unchanged; straddling and post-boundary
    /// jobs return to the pending pool, held until the boundary, to be
    /// re-estimated against the new calibration snapshot and re-planned.
    SplitAtBoundary,
}

/// A job submission: per-QPU estimates for one circuit execution. Ids are
/// assigned by the manager on submit.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Qubits the circuit needs.
    pub qubits: u32,
    /// Number of shots.
    pub shots: u32,
    /// Estimated fidelity per fleet QPU (index-aligned; 0 where infeasible).
    pub fidelity_per_qpu: Vec<f64>,
    /// Estimated execution seconds per fleet QPU (index-aligned).
    pub exec_time_per_qpu: Vec<f64>,
    /// Fleet calibration epoch ([`Fleet::calibration_epoch`]) the estimates
    /// were computed against; 0 for callers without an epoch clock. The
    /// engine compares it with the live epoch to find stale estimate tables.
    pub estimate_epoch: u64,
}

/// A job waiting in the manager's pending pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingJob {
    /// Manager-assigned id.
    pub job_id: JobId,
    /// Tenant the job belongs to ([`DEFAULT_TENANT`] for single-caller paths).
    pub tenant: TenantId,
    /// Simulated submission time.
    pub submitted_s: f64,
    /// Times this job was pulled out of a batch at a recalibration boundary.
    pub deferrals: u32,
    /// The job is parked until this instant (the boundary that split it out);
    /// 0 for never-deferred jobs. Held jobs do not count toward the trigger
    /// and are excluded from batches, so a split cannot re-fire the trigger
    /// at the same instant and re-plan the same jobs against the same stale
    /// estimates — unless the job's SLO slack goes negative first, in which
    /// case the hold is bypassed (see `JobManager::schedulable_at`).
    pub held_until_s: f64,
    /// Absolute SLO deadline (simulated seconds), `f64::INFINITY` for jobs
    /// without one. When `now + slo_margin ≥ deadline_s` the job is urgent:
    /// it fires the trigger early ([`TriggerReason::SloSlack`]) and escapes
    /// any `held_until_s` park.
    pub deadline_s: f64,
    /// The submission payload.
    pub spec: JobSpec,
}

impl PendingJob {
    /// Park this job behind a recalibration boundary: count the deferral and
    /// hold the job until the boundary instant. The two fields are only ever
    /// written together — a deferral without a hold would let the trigger
    /// re-plan the job against the same stale estimates in the same instant,
    /// and a hold without the count would unbound the deferral budget — so
    /// every park site goes through this one method.
    fn park(&mut self, boundary_s: f64) {
        self.deferrals += 1;
        self.held_until_s = boundary_s;
    }
}

/// Record of one trigger-gated batch dispatch (the unit of observability:
/// Figures 8a/8b/10a derive from these, and the orchestrator mirrors them
/// into the system monitor).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Zero-based index of the batch within this manager's lifetime.
    pub batch_index: usize,
    /// Simulated time of the dispatch.
    pub t_s: f64,
    /// Why the trigger fired.
    pub reason: TriggerReason,
    /// Ids of every job handed to the scheduler, in submission order.
    pub job_ids: Vec<JobId>,
    /// Per-tenant composition of the batch: `(tenant, job count)` pairs in
    /// ascending tenant order, covering exactly the jobs in `job_ids`.
    pub tenant_jobs: Vec<(TenantId, usize)>,
    /// Fleet snapshot (name, size, estimated waiting, calibration epoch)
    /// taken before enqueueing.
    pub qpus: Vec<QpuState>,
    /// Fleet-wide calibration epoch at dispatch time.
    pub fleet_epoch: u64,
    /// Jobs pulled out of the batch because their planned execution crossed
    /// their QPU's recalibration boundary: `(job id, boundary instant)`.
    /// They stay in the pending pool, held until the boundary, for
    /// re-estimation and re-planning. Empty under
    /// [`CalibrationPolicy::Naive`].
    pub deferred: Vec<(JobId, f64)>,
    /// The scheduler's full outcome (placements, Pareto front, timings).
    pub outcome: ScheduleOutcome,
}

impl BatchRecord {
    /// Ids of the jobs actually enqueued by this dispatch (placements minus
    /// the boundary-deferred set).
    pub fn enqueued_job_ids(&self) -> Vec<JobId> {
        let deferred: HashSet<JobId> = self.deferred.iter().map(|(id, _)| *id).collect();
        self.outcome
            .placements
            .iter()
            .map(|p| p.job_id)
            .filter(|id| !deferred.contains(id))
            .collect()
    }
}

/// One fleet enqueue implied by an applied event: `(job id, QPU index,
/// duration)`. The live plane pushes it onto the QPU's queue; replay, which
/// has no fleet, drops it.
pub(crate) type Enqueue = (JobId, usize, f64);

/// Push `enqueues` onto the fleet's per-QPU queues, in order (per-QPU FIFO
/// order is what every simulated completion time depends on).
pub(crate) fn enqueue_all(fleet: &mut Fleet, enqueues: &[Enqueue]) {
    for &(job_id, qpu_index, duration_s) in enqueues {
        fleet.members_mut()[qpu_index].queue.enqueue(job_id, duration_s);
    }
}

/// The scheduler's view of every fleet member right now: name, size,
/// estimated queue wait and calibration epoch. A dispatch snapshots it; the
/// orchestrator reports it live.
pub(crate) fn qpu_states(fleet: &Fleet) -> Vec<QpuState> {
    fleet
        .members()
        .iter()
        .map(|m| QpuState {
            name: m.qpu.name.clone(),
            num_qubits: m.qpu.num_qubits(),
            waiting_time_s: m.queue.estimated_waiting_s(),
            calibration_epoch: m.qpu.clock.epoch,
        })
        .collect()
}

/// A completed quantum execution drained from a fleet queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedExecution {
    /// Manager-assigned job id.
    pub job_id: JobId,
    /// Index of the QPU the job ran on.
    pub qpu_index: usize,
    /// The queue's completion record (exact enqueue/start/finish times).
    pub record: CompletedJob,
}

/// The shared batch execution engine.
#[derive(Debug, Clone)]
pub struct JobManager {
    trigger: ScheduleTrigger,
    policy: CalibrationPolicy,
    pending: Vec<PendingJob>,
    next_job_id: JobId,
    batches_dispatched: usize,
    /// Cumulative wall time spent inside scheduler calls, for the
    /// bench's phase-timing breakdown. Pure observability: excluded from
    /// `encode_state` and never read by any control-flow decision.
    sched_ns: Cell<u64>,
}

impl Default for JobManager {
    fn default() -> Self {
        JobManager::new(ScheduleTrigger::default())
    }
}

impl JobManager {
    /// A manager gated by the given trigger (calibration-naive dispatch).
    pub(crate) fn new(trigger: ScheduleTrigger) -> Self {
        JobManager {
            trigger,
            policy: CalibrationPolicy::default(),
            pending: Vec::new(),
            next_job_id: 0,
            batches_dispatched: 0,
            sched_ns: Cell::new(0),
        }
    }

    /// The same manager with the given calibration policy (construction-time
    /// configuration, like the trigger).
    pub(crate) fn with_calibration_policy(mut self, policy: CalibrationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The gating trigger.
    pub fn trigger(&self) -> &ScheduleTrigger {
        &self.trigger
    }

    /// Number of jobs waiting in the pending pool.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The pending pool (submission order).
    pub fn pending(&self) -> &[PendingJob] {
        &self.pending
    }

    /// Number of batches dispatched so far.
    pub fn batches_dispatched(&self) -> usize {
        self.batches_dispatched
    }

    /// Cumulative nanoseconds spent in scheduler calls (phase-timing
    /// observability).
    pub fn scheduling_nanos(&self) -> u64 {
        self.sched_ns.get()
    }

    /// Pool a job on behalf of a tenant (the admission path of the
    /// submission service), assigning the next monotonic id. Ids stay
    /// monotonic across all tenants. The first pooled submission arms the
    /// trigger's interval timer, so a manager created long after the
    /// simulated epoch measures the interval from when work first appeared,
    /// not from time zero. When the job's slack against the absolute SLO
    /// deadline `deadline_s` falls below the trigger's
    /// [`ScheduleTrigger::slo_margin_s`], the trigger fires early rather than
    /// waiting out the interval, and a boundary-parked job escapes its hold.
    pub(crate) fn submit_for_tenant_with_deadline(
        &mut self,
        spec: JobSpec,
        now_s: f64,
        tenant: TenantId,
        deadline_s: f64,
    ) -> JobId {
        self.trigger.arm_if_unarmed(now_s);
        let job_id = self.next_job_id;
        self.next_job_id += 1;
        self.pending.push(PendingJob {
            job_id,
            tenant,
            submitted_s: now_s,
            deferrals: 0,
            held_until_s: 0.0,
            deadline_s,
            spec,
        });
        job_id
    }

    /// The instant a pending job becomes schedulable: its submission time,
    /// or the recalibration boundary it is parked behind after a split.
    fn available_s(job: &PendingJob) -> f64 {
        job.submitted_s.max(job.held_until_s)
    }

    /// Whether `job` is urgent at `now_s`: it carries a finite SLO deadline
    /// whose slack has fallen below the trigger's scheduling-latency margin.
    fn urgent_at(&self, job: &PendingJob, now_s: f64) -> bool {
        job.deadline_s.is_finite() && now_s + self.trigger.slo_margin_s >= job.deadline_s
    }

    /// Whether `job` can join a batch at `now_s`: schedulable when available
    /// (submitted, and past any boundary hold) — or, the SLO escape hatch, a
    /// *held* job whose deadline slack has gone below the margin. Waiting out
    /// `held_until_s` would silently blow the deadline, so urgency overrides
    /// the park (the deferral bookkeeping stays intact).
    fn schedulable_at(&self, job: &PendingJob, now_s: f64) -> bool {
        if Self::available_s(job) <= now_s {
            return true;
        }
        job.submitted_s <= now_s && self.urgent_at(job, now_s)
    }

    /// Number of pooled jobs schedulable at or before `now_s`. Jobs carry
    /// their own submission times, so a causally-ordered caller can ask
    /// about an instant earlier than the latest submission; boundary-held
    /// jobs do not count until the boundary passes — unless their SLO slack
    /// has gone negative, in which case the hold is bypassed.
    fn pending_available_by(&self, now_s: f64) -> usize {
        self.pending.iter().filter(|j| self.schedulable_at(j, now_s)).count()
    }

    /// Whether any schedulable job is urgent at `now_s` (feeds the trigger's
    /// SLO lane).
    fn any_urgent_by(&self, now_s: f64) -> bool {
        self.pending.iter().any(|j| j.submitted_s <= now_s && self.urgent_at(j, now_s))
    }

    /// Whether the trigger would fire now, and why. Only jobs already
    /// schedulable by `now_s` count toward the queue-size limit; any
    /// schedulable job whose deadline slack is below the margin fires the
    /// SLO lane. The check runs on a copy of the trigger: an unarmed trigger
    /// arms itself on its first non-empty check, but a pooled job has always
    /// armed it already, so the copy's arming is never one the engine lacks.
    pub fn check_trigger(&self, now_s: f64) -> Option<TriggerReason> {
        let mut trigger = self.trigger;
        trigger.check_with_urgency(
            self.pending_available_by(now_s),
            now_s,
            self.any_urgent_by(now_s),
        )
    }

    /// Earliest simulated time at which the trigger can fire, or `None` with
    /// an empty pool: the interval expiry (but no earlier than the first
    /// schedulable job), the instant the `queue_limit`-th job becomes
    /// schedulable, or the instant a deadline job's slack drops below the SLO
    /// margin, whichever comes first. Boundary-held jobs become schedulable
    /// at their boundary (or when their slack runs out). Event-driven callers
    /// advance their clock here instead of busy-stepping simulated time.
    pub fn next_trigger_s(&self) -> Option<f64> {
        if self.pending.is_empty() {
            return None;
        }
        let mut available: Vec<f64> = self.pending.iter().map(Self::available_s).collect();
        available.sort_by(f64::total_cmp);
        // An unarmed trigger arms at the first pooled submission.
        let baseline = self.trigger.last_invocation_s().unwrap_or(available[0]);
        let interval_fire = (baseline + self.trigger.interval_s).max(available[0]);
        // The queue-size path fires the instant the limit-th job is available.
        let mut fire = match available.get(self.trigger.queue_limit.saturating_sub(1)) {
            Some(&queue_fire) => interval_fire.min(queue_fire),
            None => interval_fire,
        };
        // The SLO lane fires the instant a deadline job's slack hits the
        // margin (no earlier than its submission; holds do not matter — the
        // lane bypasses them).
        for job in &self.pending {
            if job.deadline_s.is_finite() {
                let slo_fire = (job.deadline_s - self.trigger.slo_margin_s).max(job.submitted_s);
                fire = fire.min(slo_fire);
            }
        }
        Some(fire)
    }

    /// Decide one trigger-gated scheduling cycle, writing nothing: if the
    /// trigger fires, schedule every job schedulable by `now_s` as one batch
    /// and return the batch record (the plane journals it as a
    /// `BatchDispatched` event, and [`Self::apply_batch`] makes the change).
    /// Jobs the scheduler rejects leave the pool on apply; jobs it leaves
    /// unplaced — and jobs with later submission times — stay pending for
    /// the next cycle.
    ///
    /// Under [`CalibrationPolicy::SplitAtBoundary`] the chosen plan's
    /// per-QPU timeline is partitioned at each device's next recalibration
    /// boundary first (§7): placements finishing before their QPU's boundary
    /// enqueue unchanged, while straddling and post-boundary placements are
    /// pulled out of the batch and parked in the pending pool until the
    /// boundary — reported in [`BatchRecord::deferred`] — so they can be
    /// re-estimated against the post-boundary calibration snapshot and
    /// re-planned by a later cycle.
    pub(crate) fn decide_batch(
        &self,
        now_s: f64,
        scheduler: &HybridScheduler,
        fleet: &Fleet,
    ) -> Option<BatchRecord> {
        let reason = self.check_trigger(now_s)?;

        let BatchSnapshot { qpus, job_ids, tenant_jobs, requests, horizon_s, cost_per_shot } =
            self.batch_snapshot(now_s, fleet);

        let started = std::time::Instant::now();
        let outcome = scheduler.schedule_with_fleet_context(
            requests,
            qpus.clone(),
            &horizon_s,
            &cost_per_shot,
        );
        self.sched_ns.set(self.sched_ns.get() + started.elapsed().as_nanos() as u64);

        // Calibration-crossover partition (§7): shift the planned timeline to
        // absolute time and split it at each QPU's next boundary.
        let deferred = match self.policy {
            CalibrationPolicy::Naive => Vec::new(),
            CalibrationPolicy::SplitAtBoundary => {
                // Cover the WHOLE pool, not just the jobs available at
                // `now_s`: the budget lookup below must never miss a planned
                // job and silently treat it as never-deferred.
                let deferrals_of: HashMap<JobId, u32> =
                    self.pending.iter().map(|j| (j.job_id, j.deferrals)).collect();
                split_at_boundaries(
                    &outcome.planned,
                    fleet,
                    now_s,
                    &deferrals_of,
                    scheduler.config().max_deferrals,
                )
            }
        };
        Some(BatchRecord {
            batch_index: self.batches_dispatched,
            t_s: now_s,
            reason,
            job_ids,
            tenant_jobs,
            qpus,
            fleet_epoch: fleet.calibration_epoch(),
            deferred,
            outcome,
        })
    }

    /// Snapshot everything one scheduling cycle reads at `now_s`: the QPU
    /// states, the schedulable batch (ids, per-tenant composition, sanitised
    /// requests), and the per-QPU recalibration horizons.
    fn batch_snapshot(&self, now_s: f64, fleet: &Fleet) -> BatchSnapshot {
        let qpus = qpu_states(fleet);
        // A QPU's effective boundary is whichever comes first: its next
        // recalibration or its next scheduled maintenance window. The planner
        // routes around both with the same partition machinery.
        let horizon_s: Vec<f64> = fleet
            .members()
            .iter()
            .map(|m| {
                let boundary = match m.qpu.next_maintenance_start_after(now_s) {
                    Some(maint_s) => m.qpu.clock.next_boundary_s.min(maint_s),
                    None => m.qpu.clock.next_boundary_s,
                };
                boundary - now_s
            })
            .collect();
        let cost_per_shot: Vec<f64> = fleet.members().iter().map(|m| m.qpu.cost_per_shot).collect();
        // QPUs currently inside a maintenance window are capacity holes:
        // every request sees them as infeasible (fidelity 0, exec ∞-marker),
        // the same mask used for devices too small for a circuit.
        let in_maintenance: Vec<bool> =
            fleet.members().iter().map(|m| m.qpu.in_maintenance(now_s)).collect();
        let batch: Vec<&PendingJob> =
            self.pending.iter().filter(|j| self.schedulable_at(j, now_s)).collect();
        let job_ids: Vec<JobId> = batch.iter().map(|j| j.job_id).collect();
        let mut tenant_counts: BTreeMap<TenantId, usize> = BTreeMap::new();
        for job in &batch {
            *tenant_counts.entry(job.tenant).or_insert(0) += 1;
        }
        let tenant_jobs: Vec<(TenantId, usize)> = tenant_counts.into_iter().collect();
        // Requests are sized to the LIVE fleet, not the spec's estimate
        // table: the autoscaler can provision or retire QPUs while a job is
        // pending, leaving its table shorter (a provisioned QPU defaults to
        // infeasible until re-estimation fills it in) or longer (entries for
        // retired QPUs are dropped) than the fleet.
        let requests: Vec<JobRequest> = batch
            .iter()
            .map(|j| JobRequest {
                job_id: j.job_id,
                qubits: j.spec.qubits,
                shots: j.spec.shots,
                fidelity_per_qpu: (0..qpus.len())
                    .map(|q| {
                        let f = j.spec.fidelity_per_qpu.get(q).copied().unwrap_or(0.0);
                        if in_maintenance.get(q).copied().unwrap_or(false) || !f.is_finite() {
                            0.0
                        } else {
                            f
                        }
                    })
                    .collect(),
                exec_time_per_qpu: (0..qpus.len())
                    .map(|q| {
                        let t = j.spec.exec_time_per_qpu.get(q).copied().unwrap_or(f64::INFINITY);
                        if in_maintenance.get(q).copied().unwrap_or(false) || !t.is_finite() {
                            INFEASIBLE_EXEC_S
                        } else {
                            t
                        }
                    })
                    .collect(),
            })
            .collect();
        BatchSnapshot { qpus, job_ids, tenant_jobs, requests, horizon_s, cost_per_shot }
    }

    /// Jobs in the pending pool whose estimate tables were computed against
    /// an older fleet calibration epoch than `fleet_epoch` — the set a
    /// calibration-aware caller refreshes after a drift cycle.
    pub(crate) fn stale_pending(&self, fleet_epoch: u64) -> Vec<JobId> {
        self.pending
            .iter()
            .filter(|j| j.spec.estimate_epoch < fleet_epoch)
            .map(|j| j.job_id)
            .collect()
    }

    /// Replace a pending job's estimate table with one recomputed against a
    /// fresh calibration snapshot (the spec carries its own epoch stamp).
    /// No-op if the job is not pending.
    pub(crate) fn reestimate(&mut self, job_id: JobId, spec: JobSpec) {
        if let Some(job) = self.pending.iter_mut().find(|j| j.job_id == job_id) {
            job.spec = spec;
        }
    }

    /// Apply one batch dispatch (decided by [`Self::decide_batch`], live or
    /// replayed from the journal) in one pass over the pool: reset the
    /// interval timer, park the boundary-deferred jobs behind their boundary,
    /// take the placed jobs out, drop the rejected ones, keep the rest
    /// (unplaced or not yet schedulable), and count the batch. Returns the
    /// placed jobs' fleet enqueues in pool order — the order the per-QPU
    /// queues must receive them in.
    pub(crate) fn apply_batch(
        &mut self,
        t_s: f64,
        placed: &[(JobId, usize)],
        rejected: &[JobId],
        deferred: &[(JobId, f64)],
    ) -> Vec<Enqueue> {
        self.trigger.mark_invoked(t_s);
        let deferred: HashMap<JobId, f64> = deferred.iter().copied().collect();
        let placed: HashMap<JobId, usize> = placed.iter().copied().collect();
        let rejected: HashSet<JobId> = rejected.iter().copied().collect();
        let mut enqueues = Vec::with_capacity(placed.len());
        self.pending.retain_mut(|job| {
            if let Some(&boundary_s) = deferred.get(&job.job_id) {
                job.park(boundary_s);
                true
            } else if let Some(&qpu_index) = placed.get(&job.job_id) {
                enqueues.push((job.job_id, qpu_index, sanitized_exec_s(&job.spec, qpu_index)));
                false
            } else {
                !rejected.contains(&job.job_id)
            }
        });
        self.batches_dispatched += 1;
        enqueues
    }

    /// Apply one direct dispatch (the FCFS baseline path, which
    /// bypasses the trigger and the optimizer): take the job out of the pool
    /// and return its enqueue onto `qpu_index`, or `None` if it is not
    /// pending.
    pub(crate) fn apply_direct(&mut self, job_id: JobId, qpu_index: usize) -> Option<Enqueue> {
        let at = self.pending.iter().position(|job| job.job_id == job_id)?;
        let job = self.pending.remove(at);
        Some((job_id, qpu_index, sanitized_exec_s(&job.spec, qpu_index)))
    }

    /// Roughly the bytes [`Self::encode_state_into`] appends, so the
    /// caller's buffer is sized once (a low guess costs a reallocation,
    /// nothing else).
    pub(crate) fn encoded_len_hint(&self) -> usize {
        use crate::replication::wire::spec_len_bound;
        192 + self.pending.iter().map(|job| 128 + spec_len_bound(&job.spec)).sum::<usize>()
    }

    /// Append the canonical byte-for-byte text encoding of the manager's
    /// full state to `out` (trigger configuration and timer, calibration
    /// policy, pending pool in submission order with deferral/hold state, id
    /// counters). Floats are encoded as IEEE-754 bit patterns, so
    /// [`Self::decode_state`] reproduces the state exactly and equal
    /// encodings imply bit-identical states. Each pending job is a `job` row
    /// of the `wire` record table.
    pub(crate) fn encode_state_into(&self, out: &mut String) {
        out.push_str("jm 3\ntrigger ");
        self.trigger.queue_limit.put(out);
        out.push(' ');
        self.trigger.interval_s.put(out);
        out.push(' ');
        self.trigger.last_invocation_s().put(out);
        out.push(' ');
        self.trigger.slo_margin_s.put(out);
        out.push_str("\ncal ");
        self.policy.put(out);
        out.push_str("\nids ");
        self.next_job_id.put(out);
        out.push(' ');
        self.batches_dispatched.put(out);
        out.push('\n');
        for job in &self.pending {
            out.push_str("job ");
            job.put(out);
            out.push('\n');
        }
    }

    /// Read one [`Self::encode_state_into`] state from `input`, up to the
    /// end of its last `job` line — and only such a state: `None` unless the
    /// result encodes back to the bytes read.
    pub(crate) fn decode_from(input: &mut Cursor) -> Option<JobManager> {
        let queue_limit = input.after("jm 3\ntrigger ")?.num()?;
        let interval_s = input.after(" ")?.f64()?;
        let last_invocation_s: Option<f64> = Wire::take(input.after(" ")?)?;
        let slo_margin_s = input.after(" ")?.f64()?;
        let mut trigger =
            ScheduleTrigger::new(queue_limit, interval_s).with_slo_margin(slo_margin_s);
        if let Some(last) = last_invocation_s {
            trigger.mark_invoked(last);
        }
        let policy = Wire::take(input.after("\ncal ")?)?;
        let next_job_id = input.after("\nids ")?.num()?;
        let batches_dispatched = input.after(" ")?.num()?;
        input.after("\n")?;
        let mut pending = Vec::new();
        while input.eat("job ") {
            pending.push(Wire::take(input)?);
            input.after("\n")?;
        }
        Some(JobManager {
            pending,
            next_job_id,
            batches_dispatched,
            ..JobManager::new(trigger).with_calibration_policy(policy)
        })
    }
}

/// Test drivers for a bare engine: pooling without the submission service,
/// and a dispatch cycle that composes decide and apply without a journal —
/// what the replicated control plane does, minus the log. The `format!`
/// encoder the streaming one replaced is kept here too, as its byte oracle,
/// and the `split`/`parse` decoder the cursor one replaced.
#[cfg(test)]
impl JobManager {
    pub(crate) fn submit(&mut self, spec: JobSpec, now_s: f64) -> JobId {
        self.submit_for_tenant(spec, now_s, DEFAULT_TENANT)
    }

    pub(crate) fn submit_for_tenant(
        &mut self,
        spec: JobSpec,
        now_s: f64,
        tenant: TenantId,
    ) -> JobId {
        self.submit_for_tenant_with_deadline(spec, now_s, tenant, f64::INFINITY)
    }

    pub(crate) fn try_dispatch(
        &mut self,
        now_s: f64,
        scheduler: &HybridScheduler,
        fleet: &mut Fleet,
    ) -> Option<BatchRecord> {
        let record = self.decide_batch(now_s, scheduler, fleet)?;
        let placed: Vec<(JobId, usize)> =
            record.outcome.placements.iter().map(|p| (p.job_id, p.qpu_index)).collect();
        let enqueues =
            self.apply_batch(now_s, &placed, &record.outcome.rejected_jobs, &record.deferred);
        enqueue_all(fleet, &enqueues);
        Some(record)
    }

    /// [`Self::decode_from`] over the whole of `encoded`.
    pub(crate) fn decode_state(encoded: &str) -> Option<JobManager> {
        let mut input = Cursor::new(encoded);
        let manager = Self::decode_from(&mut input)?;
        input.finish(manager)
    }

    pub(crate) fn encode_state(&self) -> String {
        let mut out = String::with_capacity(self.encoded_len_hint());
        self.encode_state_into(&mut out);
        out
    }

    /// A direct dispatch the caller knows is valid: apply, then enqueue.
    pub(crate) fn dispatch_direct(&mut self, job_id: JobId, qpu_index: usize, fleet: &mut Fleet) {
        let enqueue = self.apply_direct(job_id, qpu_index).expect("the job is pending");
        enqueue_all(fleet, &[enqueue]);
    }

    /// The `split`/`parse` decoder the cursor one replaced — its oracle.
    pub(crate) fn decode_state_oracle(encoded: &str) -> Option<JobManager> {
        use crate::replication::wire::oracle::{dec_f64, dec_opt_f64, dec_spec};
        let mut lines = encoded.lines();
        if lines.next()? != "jm 3" {
            return None;
        }
        let mut trigger_line = lines.next()?.split(' ');
        if trigger_line.next()? != "trigger" {
            return None;
        }
        let queue_limit = trigger_line.next()?.parse().ok()?;
        let interval_s = dec_f64(trigger_line.next()?)?;
        let last_invocation_s = dec_opt_f64(trigger_line.next()?)?;
        let slo_margin_s = dec_f64(trigger_line.next()?)?;
        let mut trigger =
            ScheduleTrigger::new(queue_limit, interval_s).with_slo_margin(slo_margin_s);
        if let Some(last) = last_invocation_s {
            trigger.mark_invoked(last);
        }
        let mut cal_line = lines.next()?.split(' ');
        if cal_line.next()? != "cal" {
            return None;
        }
        let policy = match cal_line.next()? {
            "naive" => CalibrationPolicy::Naive,
            "split" => CalibrationPolicy::SplitAtBoundary,
            _ => return None,
        };
        let mut ids_line = lines.next()?.split(' ');
        if ids_line.next()? != "ids" {
            return None;
        }
        let next_job_id = ids_line.next()?.parse().ok()?;
        let batches_dispatched = ids_line.next()?.parse().ok()?;
        let mut pending = Vec::new();
        for line in lines {
            let mut fields = line.split(' ');
            if fields.next()? != "job" {
                return None;
            }
            pending.push(PendingJob {
                job_id: fields.next()?.parse().ok()?,
                tenant: fields.next()?.parse().ok()?,
                submitted_s: dec_f64(fields.next()?)?,
                deferrals: fields.next()?.parse().ok()?,
                held_until_s: dec_f64(fields.next()?)?,
                deadline_s: dec_f64(fields.next()?)?,
                spec: dec_spec(fields.next()?)?,
            });
            if fields.next().is_some() {
                return None;
            }
        }
        Some(JobManager {
            trigger,
            policy,
            pending,
            next_job_id,
            batches_dispatched,
            sched_ns: Cell::new(0),
        })
    }

    pub(crate) fn encode_state_oracle(&self) -> String {
        use crate::replication::wire::oracle::{enc_f64, enc_opt_f64, enc_spec};
        let mut out = String::from("jm 3\n");
        out.push_str(&format!(
            "trigger {} {} {} {}\n",
            self.trigger.queue_limit,
            enc_f64(self.trigger.interval_s),
            enc_opt_f64(self.trigger.last_invocation_s()),
            enc_f64(self.trigger.slo_margin_s)
        ));
        out.push_str(&format!(
            "cal {}\n",
            match self.policy {
                CalibrationPolicy::Naive => "naive",
                CalibrationPolicy::SplitAtBoundary => "split",
            }
        ));
        out.push_str(&format!("ids {} {}\n", self.next_job_id, self.batches_dispatched));
        for job in &self.pending {
            out.push_str(&format!(
                "job {} {} {} {} {} {} {}\n",
                job.job_id,
                job.tenant,
                enc_f64(job.submitted_s),
                job.deferrals,
                enc_f64(job.held_until_s),
                enc_f64(job.deadline_s),
                enc_spec(&job.spec)
            ));
        }
        out
    }
}

/// Everything one scheduling cycle reads, snapshotted at a single instant
/// (see [`JobManager::batch_snapshot`]).
struct BatchSnapshot {
    qpus: Vec<QpuState>,
    job_ids: Vec<JobId>,
    tenant_jobs: Vec<(TenantId, usize)>,
    requests: Vec<JobRequest>,
    horizon_s: Vec<f64>,
    cost_per_shot: Vec<f64>,
}

/// Partition a batch plan at the fleet's capacity boundaries (§7): the
/// scheduler's relative timeline is shifted to absolute time and each QPU's
/// planned jobs are run through [`partition_at_boundary`] against whichever
/// comes first for that QPU — its next recalibration boundary or the start of
/// its next maintenance window. Returns the `(job id, hold-until)` pairs to
/// defer — straddling and post-boundary placements — except jobs already
/// deferred `max_deferrals` times (`SchedulerConfig::max_deferrals`, paper
/// default 4), which dispatch anyway to avoid starvation behind a persistent
/// backlog. Jobs cut at a recalibration boundary are held until the boundary
/// itself; jobs cut at a maintenance window are held until the window's END,
/// since the capacity hole spans the whole window. `deferrals_of` must cover
/// every planned job; a missing entry would debit no budget.
fn split_at_boundaries(
    planned: &[PlannedJob],
    fleet: &Fleet,
    now_s: f64,
    deferrals_of: &HashMap<JobId, u32>,
    max_deferrals: u32,
) -> Vec<(JobId, f64)> {
    let mut per_qpu: BTreeMap<usize, Vec<PlannedJob>> = BTreeMap::new();
    for job in planned {
        per_qpu
            .entry(job.qpu_index)
            .or_default()
            .push(PlannedJob { start_s: job.start_s + now_s, ..*job });
    }
    let mut deferred = Vec::new();
    for (qpu_index, timeline) in per_qpu {
        let qpu = &fleet.members()[qpu_index].qpu;
        let cal_boundary_s = qpu.clock.next_boundary_s;
        let (boundary_s, hold_until_s) = match qpu.next_maintenance_start_after(now_s) {
            Some(maint_s) if maint_s < cal_boundary_s => {
                (maint_s, qpu.maintenance_end_at(maint_s).unwrap_or(maint_s))
            }
            _ => (cal_boundary_s, cal_boundary_s),
        };
        let partition = partition_at_boundary(&timeline, boundary_s);
        for job in partition.straddling.iter().chain(&partition.after) {
            if deferrals_of.get(&job.job_id).copied().unwrap_or(0) < max_deferrals {
                deferred.push((job.job_id, hold_until_s));
            }
        }
    }
    deferred.sort_unstable_by_key(|&(id, _)| id);
    deferred
}

/// Execution duration safe to enqueue: finite, and at least [`MIN_EXEC_S`].
/// Non-finite estimates (the "cannot run here" marker) degrade to
/// [`INFEASIBLE_EXEC_S`] so simulated time can never be wedged at infinity.
fn sanitized_exec_s(spec: &JobSpec, qpu_index: usize) -> f64 {
    // An estimate table shorter than the fleet (a QPU provisioned after
    // submission) reads as infeasible for the missing tail.
    let exec = spec.exec_time_per_qpu.get(qpu_index).copied().unwrap_or(f64::INFINITY);
    if exec.is_finite() {
        exec.max(MIN_EXEC_S)
    } else {
        INFEASIBLE_EXEC_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replication::ReplicatedControlPlane;
    use qonductor_scheduler::{Nsga2Config, SchedulerConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_fleet(seed: u64) -> Fleet {
        let mut rng = StdRng::seed_from_u64(seed);
        Fleet::ibm_default(&mut rng)
    }

    fn scheduler() -> HybridScheduler {
        HybridScheduler::new(SchedulerConfig {
            nsga2: Nsga2Config {
                population_size: 16,
                max_generations: 10,
                max_evaluations: 1000,
                num_threads: 1,
                ..Nsga2Config::default()
            },
            ..SchedulerConfig::default()
        })
    }

    fn spec(fleet: &Fleet, qubits: u32, exec_s: f64) -> JobSpec {
        JobSpec {
            qubits,
            shots: 1000,
            fidelity_per_qpu: fleet
                .members()
                .iter()
                .map(|m| if m.qpu.num_qubits() >= qubits { 0.9 } else { 0.0 })
                .collect(),
            exec_time_per_qpu: fleet
                .members()
                .iter()
                .map(|m| if m.qpu.num_qubits() >= qubits { exec_s } else { f64::INFINITY })
                .collect(),
            estimate_epoch: fleet.calibration_epoch(),
        }
    }

    #[test]
    fn ids_are_monotonic_and_unique() {
        let fleet = small_fleet(1);
        let mut jm = JobManager::default();
        let ids: Vec<JobId> = (0..5).map(|i| jm.submit(spec(&fleet, 5, 10.0), i as f64)).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(jm.pending_len(), 5);
    }

    #[test]
    fn queue_size_trigger_dispatches_one_batch() {
        let mut fleet = small_fleet(2);
        let mut jm = JobManager::new(ScheduleTrigger::new(3, 1e12));
        for _ in 0..3 {
            jm.submit(spec(&fleet, 5, 10.0), 0.0);
        }
        let batch = jm.try_dispatch(0.0, &scheduler(), &mut fleet).expect("trigger must fire");
        assert_eq!(batch.reason, TriggerReason::QueueSize);
        assert_eq!(batch.job_ids.len(), 3);
        assert_eq!(batch.outcome.placements.len(), 3);
        assert_eq!(jm.pending_len(), 0);
        assert_eq!(jm.batches_dispatched(), 1);
        // The placements actually landed on queues.
        let enqueued: usize = fleet.members().iter().map(|m| m.queue.pending_len()).sum();
        assert_eq!(enqueued, 3);
    }

    #[test]
    fn maintenance_masks_qpus_from_dispatch() {
        let mut fleet = small_fleet(21);
        // Every QPU except index 0 is down for maintenance at dispatch time.
        for member in fleet.members_mut().iter_mut().skip(1) {
            member.qpu.add_maintenance_window(0.0, 10_000.0);
        }
        let mut jm = JobManager::new(ScheduleTrigger::new(3, 1e12));
        for _ in 0..3 {
            jm.submit(spec(&fleet, 5, 10.0), 0.0);
        }
        let batch = jm.try_dispatch(0.0, &scheduler(), &mut fleet).expect("trigger fires");
        assert_eq!(batch.outcome.placements.len(), 3);
        assert!(
            batch.outcome.placements.iter().all(|p| p.qpu_index == 0),
            "jobs must never land on a QPU inside a maintenance window"
        );
    }

    #[test]
    fn maintenance_boundary_parks_jobs_until_window_end() {
        let mut fleet = small_fleet(22);
        // A window opening mid-execution on every QPU: planned jobs straddle
        // its start and must be parked until the window END, not its start.
        for member in fleet.members_mut().iter_mut() {
            member.qpu.add_maintenance_window(5.0, 500.0);
        }
        let mut jm = JobManager::new(ScheduleTrigger::new(1, 1e12))
            .with_calibration_policy(CalibrationPolicy::SplitAtBoundary);
        let id = jm.submit(spec(&fleet, 5, 10.0), 0.0);
        let batch = jm.try_dispatch(0.0, &scheduler(), &mut fleet).expect("trigger fires");
        assert_eq!(batch.deferred, vec![(id, 500.0)]);
        assert_eq!(jm.pending_len(), 1, "deferred job stays pooled");
        assert_eq!(jm.pending()[0].held_until_s, 500.0);
        let enqueued: usize = fleet.members().iter().map(|m| m.queue.pending_len()).sum();
        assert_eq!(enqueued, 0, "nothing may execute into the maintenance hole");
    }

    #[test]
    fn below_limit_does_not_dispatch() {
        let mut fleet = small_fleet(3);
        let mut jm = JobManager::new(ScheduleTrigger::new(10, 120.0));
        jm.submit(spec(&fleet, 5, 10.0), 0.0);
        assert!(jm.try_dispatch(10.0, &scheduler(), &mut fleet).is_none());
        assert_eq!(jm.pending_len(), 1);
        // …but the interval trigger fires once the period elapses.
        let batch = jm.try_dispatch(120.0, &scheduler(), &mut fleet).expect("interval fires");
        assert_eq!(batch.reason, TriggerReason::Interval);
        // The interval timer reset on dispatch: nothing can fire before 240.
        jm.submit(spec(&fleet, 5, 10.0), 121.0);
        assert_eq!(jm.next_trigger_s(), Some(240.0));
    }

    #[test]
    fn infeasible_jobs_are_rejected_and_dropped() {
        let mut fleet = small_fleet(4);
        let mut jm = JobManager::new(ScheduleTrigger::new(2, 1e12));
        let too_big = jm.submit(spec(&fleet, 64, 10.0), 0.0);
        let ok = jm.submit(spec(&fleet, 5, 10.0), 0.0);
        let batch = jm.try_dispatch(0.0, &scheduler(), &mut fleet).unwrap();
        assert!(batch.outcome.rejected_jobs.contains(&too_big));
        assert!(batch.outcome.placements.iter().any(|p| p.job_id == ok));
        assert_eq!(jm.pending_len(), 0, "rejected jobs must not linger in the pool");
    }

    #[test]
    fn trigger_counts_only_causally_submitted_jobs() {
        let mut fleet = small_fleet(7);
        let mut jm = JobManager::new(ScheduleTrigger::new(2, 120.0));
        jm.submit(spec(&fleet, 5, 10.0), 5.0);
        jm.submit(spec(&fleet, 5, 10.0), 300.0); // submitted far in the future
                                                 // At t=10 only one job exists causally: queue-size (2) must not fire.
        assert_eq!(jm.check_trigger(10.0), None);
        // The earliest firing is the interval expiry for the t=5 job (the
        // first submission armed the interval timer at t=5).
        assert_eq!(jm.next_trigger_s(), Some(125.0));
        let batch = jm.try_dispatch(125.0, &scheduler(), &mut fleet).expect("interval fires");
        assert_eq!(batch.reason, TriggerReason::Interval);
        assert_eq!(batch.job_ids.len(), 1, "the future submission stays pooled");
        assert_eq!(jm.pending_len(), 1);
        // Once time reaches the second submission, it becomes schedulable.
        assert_eq!(jm.next_trigger_s(), Some(300.0));
        let batch = jm.try_dispatch(300.0, &scheduler(), &mut fleet).expect("fires at submission");
        assert_eq!(batch.job_ids.len(), 1);
        assert_eq!(jm.pending_len(), 0);
    }

    /// The admission-aware trigger: a deadline job fires the SLO lane
    /// `slo_margin_s` before its deadline, long before the interval expiry.
    #[test]
    fn slo_deadline_fires_the_trigger_early() {
        let mut fleet = small_fleet(31);
        let mut jm = JobManager::new(ScheduleTrigger::new(100, 1e12).with_slo_margin(2.0));
        let id = jm.submit_for_tenant_with_deadline(spec(&fleet, 5, 10.0), 0.0, 0, 50.0);
        assert_eq!(jm.next_trigger_s(), Some(48.0), "fires at deadline - margin");
        assert_eq!(jm.check_trigger(47.0), None, "slack is still above the margin");
        let batch = jm.try_dispatch(48.0, &scheduler(), &mut fleet).expect("SLO lane fires");
        assert_eq!(batch.reason, TriggerReason::SloSlack);
        assert_eq!(batch.job_ids, vec![id]);
        assert_eq!(jm.pending_len(), 0);
    }

    /// Jobs without a deadline never fire the SLO lane (`INFINITY` sentinel).
    #[test]
    fn deadline_free_jobs_never_fire_the_slo_lane() {
        let fleet = small_fleet(32);
        let mut jm = JobManager::new(ScheduleTrigger::new(100, 120.0));
        jm.submit(spec(&fleet, 5, 10.0), 0.0);
        assert_eq!(jm.check_trigger(1e9), Some(TriggerReason::Interval));
        assert_eq!(jm.next_trigger_s(), Some(120.0));
    }

    /// Satellite: a job parked behind a recalibration boundary
    /// (`held_until_s`) whose deadline slack goes negative escapes the park —
    /// it surfaces to the trigger's early-fire check and rejoins the batch
    /// instead of silently blowing its SLO while waiting out the hold.
    #[test]
    fn held_job_with_exhausted_slack_escapes_its_park() {
        let mut fleet = solo_fleet(100.0, 33);
        let mut jm = JobManager::new(ScheduleTrigger::new(2, 1e12).with_slo_margin(2.0))
            .with_calibration_policy(CalibrationPolicy::SplitAtBoundary);
        // 200 s of work each against a boundary at 100: both plans cross the
        // boundary and both jobs park until 100 — but the first one's
        // deadline is at 60.
        let id = jm.submit_for_tenant_with_deadline(spec(&fleet, 5, 200.0), 0.0, 0, 60.0);
        let plain = jm.submit(spec(&fleet, 5, 200.0), 0.0);
        let batch = jm.try_dispatch(0.0, &scheduler(), &mut fleet).expect("trigger fires");
        assert_eq!(batch.deferred.len(), 2);
        assert!(jm.pending().iter().all(|j| j.held_until_s == 100.0));
        // Without the SLO escape the next fire would be the boundary at 100;
        // with it, the slack runs out at 58 and the held job resurfaces.
        assert_eq!(jm.next_trigger_s(), Some(58.0));
        assert_eq!(jm.check_trigger(30.0), None, "held and slack still positive");
        let batch = jm.try_dispatch(58.0, &scheduler(), &mut fleet).expect("SLO lane fires");
        assert_eq!(batch.reason, TriggerReason::SloSlack);
        assert!(batch.job_ids.contains(&id), "the held job joined the batch early");
        assert!(!batch.job_ids.contains(&plain), "the deadline-free job stays parked");
    }

    /// Regression: a manager whose first submission arrives long after the
    /// simulated epoch must not interval-fire immediately — the old trigger
    /// baseline of `0.0` made `now - 0.0 ≥ interval_s` trivially true for any
    /// late-constructed system.
    #[test]
    fn late_first_submission_waits_a_full_interval() {
        let mut fleet = small_fleet(9);
        let mut jm = JobManager::new(ScheduleTrigger::new(100, 120.0));
        // System has been "up" (idle) for a long time before the first job.
        assert_eq!(jm.check_trigger(9_000.0), None);
        jm.submit(spec(&fleet, 5, 10.0), 10_000.0);
        // The interval is measured from the first submission, not from t=0.
        assert_eq!(jm.check_trigger(10_000.0), None, "must not fire on arrival");
        assert!(jm.try_dispatch(10_060.0, &scheduler(), &mut fleet).is_none());
        assert_eq!(jm.next_trigger_s(), Some(10_120.0));
        let batch =
            jm.try_dispatch(10_120.0, &scheduler(), &mut fleet).expect("one interval later");
        assert_eq!(batch.reason, TriggerReason::Interval);
        assert_eq!(batch.job_ids.len(), 1);
    }

    #[test]
    fn next_trigger_is_the_queue_limit_th_submission() {
        let fleet = small_fleet(8);
        let mut jm = JobManager::new(ScheduleTrigger::new(3, 1000.0));
        assert_eq!(jm.next_trigger_s(), None);
        jm.submit(spec(&fleet, 5, 10.0), 10.0);
        jm.submit(spec(&fleet, 5, 10.0), 40.0);
        // Two jobs: only the interval path (armed at the first submission,
        // t=10, so it expires at 1010).
        assert_eq!(jm.next_trigger_s(), Some(1010.0));
        jm.submit(spec(&fleet, 5, 10.0), 25.0);
        // Third job submitted at 25 < 40: the limit is reached at t=40.
        assert_eq!(jm.next_trigger_s(), Some(40.0));
    }

    /// A registered tenant's job admitted into `plane`'s pool; returns its
    /// job id. Direct dispatch is decided by the plane (it alone sees the
    /// fleet size), so the direct-dispatch tests drive one.
    fn pooled(plane: &mut ReplicatedControlPlane, spec: JobSpec) -> JobId {
        let tenant = plane.register_tenant(1).unwrap();
        plane.submit(tenant, spec, 0.0).unwrap();
        plane.admit(0.0).unwrap()[0].1
    }

    #[test]
    fn direct_dispatch_refuses_infeasible_qpus() {
        let mut fleet = small_fleet(6);
        let mut plane = ReplicatedControlPlane::new(ScheduleTrigger::new(100, 1e12), 1, 6);
        // 20-qubit job: only the 27-qubit members have finite estimates.
        let id = pooled(&mut plane, spec(&fleet, 20, 5.0));
        let journaled = plane.log().len();
        let lagos = fleet.members().iter().position(|m| m.qpu.num_qubits() == 7).unwrap();
        assert_eq!(plane.dispatch_direct(id, lagos, &mut fleet), Ok(false), "7-qubit QPU");
        assert_eq!(plane.dispatch_direct(id, 999, &mut fleet), Ok(false), "out of range");
        assert_eq!(plane.log().len(), journaled, "a refusal journals nothing");
        assert_eq!(plane.jobmanager().pending_len(), 1, "refused job stays pending");
        assert!(plane.next_event_s(&fleet).is_none(), "nothing was enqueued");
        assert_eq!(plane.dispatch_direct(id, 0, &mut fleet), Ok(true));
        let event = plane.next_event_s(&fleet).expect("enqueued job is the next event");
        assert!(event.is_finite() && (event - 5.0).abs() < 1e-9);
    }

    #[test]
    fn direct_dispatch_bypasses_the_trigger() {
        let mut fleet = small_fleet(5);
        let mut plane = ReplicatedControlPlane::new(ScheduleTrigger::new(100, 1e12), 1, 5);
        let id = pooled(&mut plane, spec(&fleet, 5, 7.0));
        assert_eq!(plane.dispatch_direct(id, 0, &mut fleet), Ok(true));
        assert_eq!(plane.dispatch_direct(id, 0, &mut fleet), Ok(false), "already dispatched");
        assert_eq!(fleet.members()[0].queue.pending_len(), 1);
        // Completions drain with exact queue times.
        let mut rng = StdRng::seed_from_u64(9);
        let horizon = plane.next_event_s(&fleet).expect("job is enqueued");
        fleet.advance_to(horizon, &mut rng);
        let done = plane.drain_completions(&mut fleet);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].job_id, id);
        assert_eq!(done[0].qpu_index, 0);
        assert!((done[0].record.finish_time_s - 7.0).abs() < 1e-9);
    }

    /// State encoding roundtrips bit for bit, including an armed trigger,
    /// a non-empty pool, and non-finite estimate entries.
    #[test]
    fn state_encoding_roundtrips_bit_for_bit() {
        let mut fleet = small_fleet(11);
        let mut jm = JobManager::new(ScheduleTrigger::new(5, 90.0));
        jm.submit(spec(&fleet, 5, 10.0), 3.5);
        jm.submit_for_tenant(spec(&fleet, 20, 0.1 + 0.2), 4.25, 7);
        jm.submit(spec(&fleet, 64, 1.0), 5.0); // infeasible everywhere: ∞ estimates
        let encoded = jm.encode_state();
        let back = JobManager::decode_state(&encoded).expect("decodes");
        assert_eq!(back.encode_state(), encoded);
        assert_eq!(back.pending(), jm.pending());
        assert_eq!(back.trigger(), jm.trigger());
        // The decoded manager behaves identically: same next id, same trigger
        // arming, same dispatch behaviour.
        let mut live = jm.clone();
        let mut restored = back;
        assert_eq!(
            live.submit(spec(&fleet, 5, 1.0), 6.0),
            restored.submit(spec(&fleet, 5, 1.0), 6.0)
        );
        assert_eq!(live.next_trigger_s(), restored.next_trigger_s());
        // Replaying the journaled delta reproduces the post-dispatch state
        // without a fleet or scheduler.
        let record = live.try_dispatch(93.5, &scheduler(), &mut fleet).expect("interval fires");
        let placed: Vec<(JobId, usize)> =
            record.outcome.placements.iter().map(|p| (p.job_id, p.qpu_index)).collect();
        restored.apply_batch(93.5, &placed, &record.outcome.rejected_jobs, &record.deferred);
        assert_eq!(restored.encode_state(), live.encode_state());
    }

    /// A single-QPU fleet recalibrating every `period_s` seconds: planned
    /// timelines serialize on the one device, so boundary crossings are
    /// exactly predictable.
    fn solo_fleet(period_s: f64, seed: u64) -> Fleet {
        use qonductor_backend::{FleetMember, JobQueue, Qpu, QpuModel};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut qpu = Qpu::new("solo", QpuModel::falcon_27(), 1.0, &mut rng);
        qpu.set_calibration_period(period_s, 0.0);
        Fleet::from_members(vec![FleetMember { qpu, queue: JobQueue::new() }])
    }

    /// §7 split: jobs planned to finish before the boundary dispatch
    /// unchanged; the job whose planned execution crosses it is pulled out,
    /// parked until the boundary, and re-dispatched by a later cycle.
    #[test]
    fn split_at_boundary_defers_the_straddling_job() {
        let mut fleet = solo_fleet(100.0, 3);
        let mut jm = JobManager::new(ScheduleTrigger::new(3, 120.0))
            .with_calibration_policy(CalibrationPolicy::SplitAtBoundary);
        assert_eq!(jm.policy, CalibrationPolicy::SplitAtBoundary);
        let ids: Vec<JobId> = (0..3).map(|_| jm.submit(spec(&fleet, 5, 40.0), 0.0)).collect();
        let batch = jm.try_dispatch(0.0, &scheduler(), &mut fleet).expect("trigger fires");
        // Serialized on the solo QPU: 0–40, 40–80, 80–120 — the third job
        // straddles the boundary at 100 and must be deferred.
        assert_eq!(batch.deferred, vec![(ids[2], 100.0)]);
        assert_eq!(batch.enqueued_job_ids(), vec![ids[0], ids[1]]);
        assert_eq!(batch.job_ids, ids, "the whole pool was handed to the scheduler");
        assert_eq!(fleet.members()[0].queue.pending_len(), 2, "only the before set enqueued");
        // The deferred job is parked, not rejected: it stays pending with its
        // deferral counted and cannot re-fire the trigger pre-boundary.
        assert_eq!(jm.pending_len(), 1);
        let held = &jm.pending()[0];
        assert_eq!((held.job_id, held.deferrals, held.held_until_s), (ids[2], 1, 100.0));
        assert_eq!(jm.check_trigger(50.0), None, "held jobs do not count toward the trigger");
        // The next firing is the interval expiry at 120 ≥ the boundary.
        assert_eq!(jm.next_trigger_s(), Some(120.0));
        let mut rng = StdRng::seed_from_u64(9);
        fleet.advance_to(120.0, &mut rng);
        assert_eq!(fleet.calibration_epoch(), 1, "the boundary recalibrated the device");
        let batch = jm.try_dispatch(120.0, &scheduler(), &mut fleet).expect("re-dispatch");
        // 120–160 fits before the next boundary at 200: dispatches cleanly.
        assert_eq!(batch.job_ids, vec![ids[2]]);
        assert!(batch.deferred.is_empty());
        assert_eq!(jm.pending_len(), 0);
    }

    /// A batch whose every placement crosses the boundary defers entirely —
    /// and the held pool wakes exactly at the boundary, not busy-looping at
    /// the dispatch instant.
    #[test]
    fn fully_straddling_batch_defers_everything_until_the_boundary() {
        let mut fleet = solo_fleet(100.0, 4);
        let mut jm = JobManager::new(ScheduleTrigger::new(3, 1e12))
            .with_calibration_policy(CalibrationPolicy::SplitAtBoundary);
        let ids: Vec<JobId> = (0..3).map(|_| jm.submit(spec(&fleet, 5, 200.0), 0.0)).collect();
        let batch = jm.try_dispatch(0.0, &scheduler(), &mut fleet).expect("trigger fires");
        assert_eq!(batch.deferred.len(), 3);
        assert!(batch.enqueued_job_ids().is_empty());
        assert_eq!(jm.pending_len(), 3);
        // No same-instant re-fire: the queue-size path next fires when the
        // third held job becomes available again — at the boundary.
        assert_eq!(jm.check_trigger(0.0), None);
        assert_eq!(jm.next_trigger_s(), Some(100.0));
        let _ = ids;
    }

    /// The deferral budget bounds starvation: after
    /// `SchedulerConfig::max_deferrals` splits a job dispatches even though
    /// its plan still crosses a boundary.
    #[test]
    fn deferral_budget_eventually_dispatches_a_perpetually_straddling_job() {
        let mut fleet = solo_fleet(100.0, 5);
        let mut jm = JobManager::new(ScheduleTrigger::new(1, 1e12))
            .with_calibration_policy(CalibrationPolicy::SplitAtBoundary);
        // 500 s of work on a 100 s calibration period: every plan crosses.
        let id = jm.submit(spec(&fleet, 5, 500.0), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut dispatched_at = None;
        for _ in 0..8 {
            let Some(t) = jm.next_trigger_s() else { break };
            fleet.advance_to(t, &mut rng);
            let batch = jm.try_dispatch(t, &scheduler(), &mut fleet).expect("fires");
            if batch.deferred.is_empty() {
                dispatched_at = Some(t);
                break;
            }
        }
        dispatched_at.expect("the deferral budget must force a dispatch");
        assert_eq!(fleet.members()[0].queue.pending_len(), 1, "job {id} was enqueued");
        assert_eq!(jm.pending_len(), 0, "the pool drained");
    }

    /// `max_deferrals` is a live `SchedulerConfig` knob, not a hidden const:
    /// a zero budget disables boundary deferral entirely — the straddling
    /// batch from `fully_straddling_batch_defers_everything_until_the_boundary`
    /// dispatches on the first cycle instead.
    #[test]
    fn zero_deferral_budget_disables_boundary_parking() {
        let mut fleet = solo_fleet(100.0, 4);
        let mut jm = JobManager::new(ScheduleTrigger::new(3, 1e12))
            .with_calibration_policy(CalibrationPolicy::SplitAtBoundary);
        for _ in 0..3 {
            jm.submit(spec(&fleet, 5, 200.0), 0.0);
        }
        let sched =
            HybridScheduler::new(SchedulerConfig { max_deferrals: 0, ..*scheduler().config() });
        let batch = jm.try_dispatch(0.0, &sched, &mut fleet).expect("trigger fires");
        assert!(batch.deferred.is_empty(), "a zero budget parks nothing");
        assert_eq!(batch.enqueued_job_ids().len(), 3);
        assert_eq!(jm.pending_len(), 0);
    }

    /// Re-estimation: stale pending specs are found by epoch comparison and
    /// replaced in place.
    #[test]
    fn stale_pending_jobs_are_found_and_reestimated() {
        let fleet = solo_fleet(100.0, 6);
        let mut jm = JobManager::new(ScheduleTrigger::new(10, 1e12));
        let id = jm.submit(spec(&fleet, 5, 10.0), 0.0); // estimate_epoch = 0
        assert!(jm.stale_pending(0).is_empty(), "epoch 0 estimates are current at epoch 0");
        assert_eq!(jm.stale_pending(1), vec![id]);
        let fresh = JobSpec { estimate_epoch: 1, ..spec(&fleet, 5, 12.0) };
        jm.reestimate(id, fresh.clone());
        assert!(jm.stale_pending(1).is_empty());
        assert_eq!(jm.pending()[0].spec, fresh);
        jm.reestimate(999, spec(&fleet, 5, 1.0));
        assert_eq!(jm.pending()[0].spec, fresh, "unknown jobs change nothing");
    }
}
