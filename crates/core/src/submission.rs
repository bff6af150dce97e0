//! Tenant-aware, non-blocking job submission (the "cloud" entry point of the
//! batch engine): independent clients register as tenants, a submission
//! enqueues a job into the tenant's FIFO queue and returns a [`JobTicket`]
//! immediately, and a weighted-fair admission pass drains the tenant queues
//! into the [`JobManager`]'s pending pool with deficit round-robin by tenant
//! weight — so many independent clients amortize one NSGA-II run per batch
//! while a chatty tenant cannot monopolize it.
//!
//! Admission respects two caps: a per-tenant in-flight limit (admitted but not
//! yet completed) and the engine's queue-size trigger limit as the pool
//! capacity, which bounds every dispatched batch at the trigger limit. Jobs the
//! scheduler rejects are returned to the *front* of their tenant's queue with a
//! bounded retry budget; once the budget is exhausted the terminal rejection
//! is visible through [`SubmissionService::poll`] instead of the job being
//! silently lost.
//!
//! The service is read-only outside this crate: every mutation is the apply
//! step of a journaled [`crate::replication::ControlPlaneEvent`], reached
//! through [`crate::replication::ReplicatedControlPlane`].

use crate::jobmanager::{CompletedExecution, JobId, JobManager, JobSpec, TenantId};
use crate::replication::wire::Cursor;
use std::cell::Cell;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Identifier of a submitted ticket (monotonic across all tenants).
pub(crate) type TicketId = u64;

/// Per-tenant admission configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Deficit-round-robin weight: jobs admitted per round are proportional
    /// to this (minimum 1).
    pub weight: u32,
    /// Maximum number of admitted-but-not-completed jobs (minimum 1).
    pub max_in_flight: usize,
    /// How many times a scheduler-rejected job is re-queued before the
    /// rejection becomes terminal (0 = fail on first rejection).
    pub max_retries: u32,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig { weight: 1, max_in_flight: 256, max_retries: 1 }
    }
}

impl TenantConfig {
    /// A configuration with the given weight and the default caps.
    pub fn weighted(weight: u32) -> Self {
        TenantConfig { weight, ..TenantConfig::default() }
    }
}

/// A tenant's service-level objective: the absolute guarantee layered on top
/// of the *relative* DRR weight. Jobs submitted under an SLO class carry an
/// absolute deadline (`submitted_s + deadline_s`); when a queued job's
/// deadline would be missed by waiting one more trigger interval it jumps the
/// DRR scan through the escalation lane
/// (`SubmissionService::pending_escalations`), and once admitted it arms
/// the trigger's early-fire SLO path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloClass {
    /// Submit-to-completion deadline in seconds (relative to submission
    /// time); `f64::INFINITY` for no deadline.
    pub deadline_s: f64,
    /// Escalation priority: when the bypass lane's budget cannot cover every
    /// urgent job, higher-priority tenants escalate first.
    pub priority: u32,
    /// Maximum tolerated estimated error rate (1.0 = no bound). Advisory to
    /// estimate-aware schedulers; carried here so the class is one value.
    pub max_error: f64,
}

impl Default for SloClass {
    fn default() -> Self {
        SloClass { deadline_s: f64::INFINITY, priority: 0, max_error: 1.0 }
    }
}

impl SloClass {
    /// An SLO class with the given deadline and default priority/error bound.
    pub fn with_deadline(deadline_s: f64) -> Self {
        SloClass { deadline_s, ..SloClass::default() }
    }
}

/// Why a ticket was terminally rejected (satellite of the SLO work: a bare
/// `Rejected` gave operators no way to distinguish "the circuit fits nowhere"
/// from "the retry budget ran out" from "the deadline passed first").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The scheduler bounced the job until the tenant's retry budget ran out.
    RetriesExhausted,
    /// The job's SLO deadline had already passed when the rejection became
    /// terminal.
    DeadlineMissed,
    /// No QPU in the fleet could run the job at all (every per-QPU fidelity
    /// estimate is zero) — the case retry-with-cutting exists to prevent.
    Infeasible,
}

/// Handle returned by a submission; pass it to
/// [`SubmissionService::poll`] to observe the job's progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobTicket {
    /// The tenant the job was submitted under.
    pub tenant: TenantId,
    /// Service-assigned ticket id (monotonic across tenants).
    pub ticket: TicketId,
}

/// Observable lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TicketStatus {
    /// Waiting in the tenant's FIFO queue for admission.
    Queued {
        /// Zero-based position from the queue head.
        position: usize,
        /// Scheduler rejections suffered so far (re-queued for retry).
        attempts: u32,
    },
    /// Admitted into the batch engine (pending pool or a QPU queue).
    Admitted {
        /// The engine-assigned job id.
        job_id: JobId,
    },
    /// Execution finished.
    Completed {
        /// The engine-assigned job id.
        job_id: JobId,
        /// Index of the QPU the job ran on.
        qpu_index: usize,
        /// Submission-to-execution-start wait (seconds).
        waiting_s: f64,
        /// Submission-to-finish turnaround (seconds).
        turnaround_s: f64,
    },
    /// Terminally rejected by the scheduler after exhausting the retry budget.
    Rejected {
        /// Total scheduler rejections (always `max_retries + 1`).
        attempts: u32,
        /// Why the rejection became terminal.
        reason: RejectReason,
    },
}

/// Errors surfaced by the submission API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmissionError {
    /// The tenant was never registered.
    UnknownTenant(TenantId),
}

/// Point-in-time per-tenant accounting (what
/// [`crate::Orchestrator::tenant_stats`] reports).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantStats {
    /// The tenant's DRR weight.
    pub weight: u32,
    /// Tickets ever submitted.
    pub submitted: u64,
    /// Admission events (re-admissions after a rejection count again).
    pub admitted: u64,
    /// Tickets that completed execution.
    pub completed: u64,
    /// Tickets terminally rejected.
    pub rejected: u64,
    /// Tickets currently waiting in the tenant queue.
    pub queued: usize,
    /// Tickets admitted but not yet completed.
    pub in_flight: usize,
    /// Admissions through the SLO escalation lane (a subset of `admitted`).
    pub escalated: u64,
    /// Mean submission-to-admission wait over all admission events (seconds).
    pub mean_queue_wait_s: f64,
    /// Mean submission-to-finish turnaround over completed tickets (seconds).
    pub mean_turnaround_s: f64,
}

/// Where a ticket currently is.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TicketState {
    Queued,
    Admitted { job_id: JobId },
    Completed { job_id: JobId, qpu_index: usize, waiting_s: f64, turnaround_s: f64 },
    Rejected { reason: RejectReason },
}

/// Full per-ticket record (the spec is kept so rejected jobs can re-enter the
/// tenant queue without the engine keeping them).
#[derive(Debug, Clone)]
struct TicketRecord {
    tenant: TenantId,
    submitted_s: f64,
    attempts: u32,
    spec: JobSpec,
    state: TicketState,
}

/// Per-tenant queue, DRR state, and counters.
#[derive(Debug, Clone)]
struct TenantState {
    config: TenantConfig,
    /// The tenant's SLO class, if registered with one
    /// ([`SubmissionService::register_tenant_with_slo`]).
    slo: Option<SloClass>,
    queue: VecDeque<TicketId>,
    deficit: u64,
    in_flight: usize,
    submitted: u64,
    admitted: u64,
    completed: u64,
    rejected: u64,
    escalated: u64,
    queue_wait_total_s: f64,
    turnaround_total_s: f64,
}

impl TenantState {
    /// Weight and in-flight caps are clamped to at least 1 here — the single
    /// construction chokepoint (registration *and* state decode) — because a
    /// weight-0 tenant would earn a zero DRR quantum and its tickets would
    /// sit `Queued` forever.
    fn new(config: TenantConfig) -> Self {
        TenantState {
            config: TenantConfig {
                weight: config.weight.max(1),
                max_in_flight: config.max_in_flight.max(1),
                max_retries: config.max_retries,
            },
            slo: None,
            queue: VecDeque::new(),
            deficit: 0,
            in_flight: 0,
            submitted: 0,
            admitted: 0,
            completed: 0,
            rejected: 0,
            escalated: 0,
            queue_wait_total_s: 0.0,
            turnaround_total_s: 0.0,
        }
    }

    /// The absolute deadline of a job submitted at `submitted_s` under this
    /// tenant's SLO class (`INFINITY` without one).
    fn absolute_deadline(&self, submitted_s: f64) -> f64 {
        match self.slo {
            Some(slo) if slo.deadline_s.is_finite() => submitted_s + slo.deadline_s,
            _ => f64::INFINITY,
        }
    }

    fn stats(&self) -> TenantStats {
        TenantStats {
            weight: self.config.weight,
            submitted: self.submitted,
            admitted: self.admitted,
            completed: self.completed,
            rejected: self.rejected,
            queued: self.queue.len(),
            in_flight: self.in_flight,
            escalated: self.escalated,
            mean_queue_wait_s: if self.admitted == 0 {
                0.0
            } else {
                self.queue_wait_total_s / self.admitted as f64
            },
            mean_turnaround_s: if self.completed == 0 {
                0.0
            } else {
                self.turnaround_total_s / self.completed as f64
            },
        }
    }
}

/// Move a dequeued ticket into the engine's pending pool — the admission
/// step the DRR pass and the SLO escalation lane share: the engine assigns
/// the job id (carrying the ticket's absolute deadline), the ticket turns
/// admitted, and the tenant's in-flight and queue-wait accounting grow.
fn admit_ticket(
    jobmanager: &mut JobManager,
    job_to_ticket: &mut HashMap<JobId, TicketId>,
    ticket: JobTicket,
    record: &mut TicketRecord,
    tenant: &mut TenantState,
    now_s: f64,
) -> JobId {
    let job_id = jobmanager.submit_for_tenant_with_deadline(
        record.spec.clone(),
        record.submitted_s,
        ticket.tenant,
        tenant.absolute_deadline(record.submitted_s),
    );
    record.state = TicketState::Admitted { job_id };
    job_to_ticket.insert(job_id, ticket.ticket);
    tenant.in_flight += 1;
    tenant.admitted += 1;
    tenant.queue_wait_total_s += (now_s - record.submitted_s).max(0.0);
    job_id
}

/// The tenant-aware submission front-end of the batch engine.
///
/// Tenants live in a dense table indexed by tenant id (see the `tenants`
/// field for its contract), so every DRR visit, submission and completion —
/// live or replayed from the journal — reaches its tenant by array index.
///
/// Besides the journaled tenant/ticket state, the service maintains two
/// *derived* indices and one derived counter — never encoded, rebuilt by
/// the state decoder — that make the admission hot path independent of
/// the registered-tenant population:
///
/// - the **active ring** (`active`): tenants with a non-empty queue *or* an
///   unspent DRR deficit — exactly the tenants for which the DRR scan is not
///   a no-op (an inactive tenant has an empty queue and deficit 0, so the
///   scan would only re-zero its deficit);
/// - the **SLO index** (`slo_tenants`): tenants registered with a
///   finite-deadline [`SloClass`] — the only tenants the escalation lane can
///   ever select from;
/// - the **queued total** (`queued_total`): the sum of all queue lengths,
///   kept incrementally so [`Self::total_queued`] is O(1).
///
/// [`Self::indices_consistent`] checks all three against the tenant table.
#[derive(Debug, Clone, Default)]
pub struct SubmissionService {
    /// The tenant table, dense: tenant `id` is `tenants[id]`. Ids are
    /// assigned sequentially from 0 and tenants are never removed, so the
    /// table has no holes, the next id is its length, and ascending-id
    /// order is slice order. [`Self::decode_state`] accepts exactly such
    /// tables — row `i` must carry id `i`, and the rows must number the
    /// encoded next id — and rejects every other (ids out of order,
    /// duplicated, with a gap, or not starting at 0) as corrupt.
    tenants: Vec<TenantState>,
    next_ticket_id: TicketId,
    tickets: HashMap<TicketId, TicketRecord>,
    job_to_ticket: HashMap<JobId, TicketId>,
    /// Rotates the DRR starting tenant so pool-capacity cutoffs do not
    /// systematically favor low tenant ids.
    rr_start: usize,
    /// Derived: the active ring (non-empty queue or unspent deficit).
    active: BTreeSet<TenantId>,
    /// Derived: tenants carrying a finite-deadline SLO class.
    slo_tenants: BTreeSet<TenantId>,
    /// Derived: total tickets queued across all tenants.
    queued_total: usize,
    /// Tenants visited by DRR admission scans (diagnostic, never encoded).
    admission_visits: Cell<u64>,
    /// Tenants visited by SLO escalation scans (diagnostic, never encoded).
    escalation_visits: Cell<u64>,
}

impl SubmissionService {
    /// Register a tenant with an explicit configuration. A zero `weight` (or
    /// zero `max_in_flight`) is clamped to 1: a weight-0 tenant would earn a
    /// zero DRR quantum and its tickets would sit `Queued` forever.
    pub(crate) fn register_tenant_with(&mut self, config: TenantConfig) -> TenantId {
        let id = TenantId::try_from(self.tenants.len()).expect("tenant ids fit a TenantId");
        self.tenants.push(TenantState::new(config));
        id
    }

    /// Register a tenant with an admission configuration *and* an SLO class:
    /// every job the tenant submits carries the absolute deadline
    /// `submitted_s + slo.deadline_s`, enforced by the escalation lane
    /// ([`Self::pending_escalations`]) before admission and by the trigger's
    /// SLO early-fire path after it.
    pub(crate) fn register_tenant_with_slo(
        &mut self,
        config: TenantConfig,
        slo: SloClass,
    ) -> TenantId {
        let id = self.register_tenant_with(config);
        self.tenants[id as usize].slo = Some(slo);
        if slo.deadline_s.is_finite() {
            // An infinite deadline can never escalate; keep it off the index
            // so the escalation scan stays proportional to tenants that can.
            self.slo_tenants.insert(id);
        }
        id
    }

    /// A tenant's SLO class, if it registered with one.
    #[cfg(test)]
    pub(crate) fn tenant_slo(&self, tenant: TenantId) -> Option<SloClass> {
        self.tenants.get(tenant as usize).and_then(|t| t.slo)
    }

    /// The tenant table as `(id, tenant)`, ascending by id.
    fn ids_and_tenants(&self) -> impl Iterator<Item = (TenantId, &TenantState)> {
        // Lossless: registration admits no more tenants than `TenantId` counts.
        self.tenants.iter().enumerate().map(|(id, tenant)| (id as TenantId, tenant))
    }

    /// Every tenant's (clamped) admission configuration, ascending by id —
    /// enough to re-register the same tenant population elsewhere, since ids
    /// are assigned sequentially and tenants are never removed.
    pub(crate) fn tenant_configs(&self) -> Vec<(TenantId, TenantConfig)> {
        self.ids_and_tenants().map(|(id, state)| (id, state.config)).collect()
    }

    /// Non-blocking submission: enqueue a job spec into the tenant's FIFO
    /// queue and return a ticket immediately. The job enters the batch engine
    /// only when a later [`Self::admit`] pass selects it.
    pub(crate) fn submit(
        &mut self,
        tenant: TenantId,
        spec: JobSpec,
        now_s: f64,
    ) -> Result<JobTicket, SubmissionError> {
        let state =
            self.tenants.get_mut(tenant as usize).ok_or(SubmissionError::UnknownTenant(tenant))?;
        let ticket = self.next_ticket_id;
        self.next_ticket_id += 1;
        state.submitted += 1;
        state.queue.push_back(ticket);
        self.queued_total += 1;
        self.active.insert(tenant);
        self.tickets.insert(
            ticket,
            TicketRecord {
                tenant,
                submitted_s: now_s,
                attempts: 0,
                spec,
                state: TicketState::Queued,
            },
        );
        Ok(JobTicket { tenant, ticket })
    }

    /// Observe a ticket's progress. `None` for tickets this service never
    /// issued — including handles whose `tenant` does not match the tenant
    /// the ticket was actually issued to (one tenant's handle can never read
    /// another tenant's job status).
    pub fn poll(&self, ticket: JobTicket) -> Option<TicketStatus> {
        let record = self.tickets.get(&ticket.ticket)?;
        if record.tenant != ticket.tenant {
            return None;
        }
        Some(match record.state {
            TicketState::Queued => TicketStatus::Queued {
                position: self
                    .tenants
                    .get(record.tenant as usize)
                    .and_then(|t| t.queue.iter().position(|&id| id == ticket.ticket))
                    .unwrap_or(0),
                attempts: record.attempts,
            },
            TicketState::Admitted { job_id } => TicketStatus::Admitted { job_id },
            TicketState::Completed { job_id, qpu_index, waiting_s, turnaround_s } => {
                TicketStatus::Completed { job_id, qpu_index, waiting_s, turnaround_s }
            }
            TicketState::Rejected { reason } => {
                TicketStatus::Rejected { attempts: record.attempts, reason }
            }
        })
    }

    /// Weighted-fair admission: drain the tenant queues into the engine's
    /// pending pool by deficit round-robin (quantum = tenant weight, unit job
    /// cost), stopping at the per-tenant in-flight caps and at the engine's
    /// queue-size trigger limit — the pool capacity — so no dispatched batch
    /// can exceed the trigger limit. Unspent deficits carry over to the next
    /// pass, and the round-robin starting tenant rotates per pass, so
    /// capacity cutoffs even out across batches. Returns the admitted
    /// `(ticket, job id)` pairs in admission order.
    ///
    /// Boundary-deferred jobs (parked in the pool until a recalibration
    /// boundary) deliberately *count* toward the capacity: admitting around
    /// them could later produce a batch of held-turned-available plus fresh
    /// jobs larger than the trigger limit. During a hold window admission
    /// therefore backpressures into the tenant queues — bounded by one
    /// calibration period per deferral and the engine's deferral budget.
    /// The scan is O(active), not O(registered): each round visits only the
    /// active ring, in the same cyclic ascending-id order the full scan used
    /// (pivot = the rotating `rr_start` cursor modulo the registered
    /// population, ids being dense). An inactive tenant — empty queue, zero
    /// deficit — was always a no-op visit, so skipping it leaves every
    /// journaled outcome, deficit, and the `rr_start` rotation
    /// byte-identical to the full scan.
    pub(crate) fn admit(
        &mut self,
        now_s: f64,
        jobmanager: &mut JobManager,
    ) -> Vec<(JobTicket, JobId)> {
        let mut admitted = Vec::new();
        if self.tenants.is_empty() {
            return admitted;
        }
        let capacity = jobmanager.trigger().queue_limit.max(1);
        let pivot = (self.rr_start % self.tenants.len()) as TenantId;
        self.rr_start = self.rr_start.wrapping_add(1);
        loop {
            if jobmanager.pending_len() >= capacity {
                break;
            }
            // Tenants drained this round leave the ring mid-iteration, so
            // each round walks a snapshot of it — still cyclic from the
            // pivot, ascending ids with wrap-around.
            let round: Vec<TenantId> =
                self.active.range(pivot..).chain(self.active.range(..pivot)).copied().collect();
            let mut progressed = false;
            for id in round {
                self.admission_visits.set(self.admission_visits.get() + 1);
                let tenant =
                    self.tenants.get_mut(id as usize).expect("active tenants are registered");
                if tenant.queue.is_empty() {
                    // Standard DRR: an idle tenant hoards no credit. (Only
                    // an escalation-drained tenant can still be on the ring
                    // with an empty queue — its leftover deficit dies here.)
                    tenant.deficit = 0;
                    self.active.remove(&id);
                    continue;
                }
                if tenant.in_flight >= tenant.config.max_in_flight {
                    // A backlogged tenant skipped only for being at its
                    // in-flight cap keeps its earned service credit — losing
                    // it here would permanently skew long-run weighted shares
                    // every time the cap binds. Clamp to one quantum so the
                    // carried credit cannot compound into an unbounded burst
                    // when the cap lifts.
                    let quantum = u64::from(tenant.config.weight);
                    tenant.deficit = (tenant.deficit + quantum).min(quantum);
                    continue;
                }
                // Known, deliberately unfixed: a backlogged tenant visited
                // after the pool has filled earns its quantum and can spend
                // none of it, every pass, so its deficit grows without
                // bound. The deficit is journaled state — bounding it moves
                // every digest (recorded in CHANGES.md, ISSUE 16).
                tenant.deficit += u64::from(tenant.config.weight);
                while tenant.deficit > 0
                    && tenant.in_flight < tenant.config.max_in_flight
                    && jobmanager.pending_len() < capacity
                {
                    let Some(ticket) = tenant.queue.pop_front() else { break };
                    self.queued_total -= 1;
                    let record = self.tickets.get_mut(&ticket).expect("queued tickets exist");
                    let ticket = JobTicket { tenant: id, ticket };
                    let job_id = admit_ticket(
                        jobmanager,
                        &mut self.job_to_ticket,
                        ticket,
                        record,
                        tenant,
                        now_s,
                    );
                    tenant.deficit -= 1;
                    admitted.push((ticket, job_id));
                    progressed = true;
                }
                if tenant.queue.is_empty() {
                    tenant.deficit = 0;
                    self.active.remove(&id);
                }
            }
            if !progressed {
                break;
            }
        }
        admitted
    }

    /// The SLO bypass lane, read side: queued tickets whose absolute deadline
    /// would be blown by waiting `horizon_s` more seconds for the next
    /// regular admission (`now_s + horizon_s ≥ deadline`), in deterministic
    /// escalation order — descending SLO priority, then ascending ticket id —
    /// bounded by `budget` slots and each tenant's in-flight cap. Read-only:
    /// the caller journals one `SloEscalated` event per returned ticket and
    /// then applies each (the step replay runs too), so failover replays the
    /// exact escalation stream.
    pub(crate) fn pending_escalations(
        &self,
        now_s: f64,
        horizon_s: f64,
        budget: usize,
    ) -> Vec<JobTicket> {
        // SLO-free workloads pay nothing: without a finite-deadline SLO class
        // anywhere, no ticket can ever be due, so the scan does zero work.
        if self.slo_tenants.is_empty() {
            return Vec::new();
        }
        let mut candidates: Vec<(u32, TicketId, TenantId)> = Vec::new();
        for &id in &self.slo_tenants {
            self.escalation_visits.set(self.escalation_visits.get() + 1);
            let tenant = &self.tenants[id as usize];
            let slo = tenant.slo.expect("indexed tenants carry an SLO class");
            for &ticket in &tenant.queue {
                let record = &self.tickets[&ticket];
                if now_s + horizon_s >= tenant.absolute_deadline(record.submitted_s) {
                    candidates.push((slo.priority, ticket, id));
                }
            }
        }
        // Descending priority, ascending ticket id within a priority class.
        candidates.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        // In-flight occupancy only for tenants that actually have a due
        // ticket — not the full tenant table.
        let mut in_flight: HashMap<TenantId, usize> = HashMap::new();
        for &(_, _, tenant_id) in &candidates {
            in_flight
                .entry(tenant_id)
                .or_insert_with(|| self.tenants[tenant_id as usize].in_flight);
        }
        let mut escalations = Vec::new();
        for (_, ticket, tenant_id) in candidates {
            if escalations.len() >= budget {
                break;
            }
            let used = in_flight.get_mut(&tenant_id).expect("tenant exists");
            if *used >= self.tenants[tenant_id as usize].config.max_in_flight {
                continue;
            }
            *used += 1;
            escalations.push(JobTicket { tenant: tenant_id, ticket });
        }
        escalations
    }

    /// The SLO bypass lane, write side: admit one escalated ticket into the
    /// engine ahead of the DRR scan. Validates everything
    /// [`Self::pending_escalations`] promised (queued ticket, SLO tenant,
    /// free in-flight slot) and returns `None` without touching any state if
    /// a precondition no longer holds — so a journaled escalation replays
    /// idempotently. No DRR deficit is debited: escalation is the *absolute*
    /// lane, deliberately outside the weighted-share accounting.
    pub(crate) fn apply_escalation(
        &mut self,
        ticket: JobTicket,
        now_s: f64,
        jobmanager: &mut JobManager,
    ) -> Option<JobId> {
        let record = self.tickets.get(&ticket.ticket)?;
        if record.tenant != ticket.tenant || record.state != TicketState::Queued {
            return None;
        }
        let tenant = self.tenants.get_mut(ticket.tenant as usize)?;
        tenant.slo?;
        if tenant.in_flight >= tenant.config.max_in_flight {
            return None;
        }
        let pos = tenant.queue.iter().position(|&t| t == ticket.ticket)?;
        tenant.queue.remove(pos);
        self.queued_total -= 1;
        // Escalation admits outside the DRR scan, so it can drain a queue
        // while a deficit is still unspent — the tenant then *stays* on the
        // active ring until the next admission pass zeroes the credit.
        if tenant.queue.is_empty() && tenant.deficit == 0 {
            self.active.remove(&ticket.tenant);
        }
        tenant.escalated += 1;
        let record = self.tickets.get_mut(&ticket.ticket).expect("checked above");
        Some(admit_ticket(jobmanager, &mut self.job_to_ticket, ticket, record, tenant, now_s))
    }

    /// Account a dispatched batch's rejections: jobs the scheduler rejected
    /// return to the *front* of their tenant's queue for re-admission until
    /// the tenant's retry budget is exhausted, at which point the ticket
    /// becomes terminally [`TicketStatus::Rejected`]. Returns the terminally
    /// rejected tickets. `now_s` is the batch dispatch instant, used to
    /// classify terminal rejections: a spec no QPU can run is
    /// [`RejectReason::Infeasible`], a ticket whose SLO deadline already
    /// passed is [`RejectReason::DeadlineMissed`], anything else is
    /// [`RejectReason::RetriesExhausted`]. The classification reads only
    /// journaled state, so replay reproduces it byte for byte.
    pub(crate) fn note_rejections(
        &mut self,
        now_s: f64,
        rejected_jobs: &[JobId],
    ) -> Vec<JobTicket> {
        let mut terminal = Vec::new();
        for job_id in rejected_jobs {
            let Some(ticket) = self.job_to_ticket.remove(job_id) else { continue };
            let record = self.tickets.get_mut(&ticket).expect("admitted tickets exist");
            let tenant = self
                .tenants
                .get_mut(record.tenant as usize)
                .expect("tickets belong to registered tenants");
            tenant.in_flight -= 1;
            record.attempts += 1;
            if record.attempts > tenant.config.max_retries {
                let reason = if record.spec.fidelity_per_qpu.iter().all(|&f| f <= 0.0 || f.is_nan())
                {
                    RejectReason::Infeasible
                } else if now_s >= tenant.absolute_deadline(record.submitted_s) {
                    RejectReason::DeadlineMissed
                } else {
                    RejectReason::RetriesExhausted
                };
                record.state = TicketState::Rejected { reason };
                tenant.rejected += 1;
                terminal.push(JobTicket { tenant: record.tenant, ticket });
            } else {
                record.state = TicketState::Queued;
                tenant.queue.push_front(ticket);
                self.queued_total += 1;
                self.active.insert(record.tenant);
            }
        }
        terminal
    }

    /// Account one drained completion: resolve its ticket to
    /// [`TicketStatus::Completed`], free the in-flight slot, and return the
    /// `(ticket, completion)` pair — `None` for a job this service did not
    /// admit.
    pub(crate) fn note_completion(
        &mut self,
        completion: CompletedExecution,
    ) -> Option<(JobTicket, CompletedExecution)> {
        let ticket = self.job_to_ticket.remove(&completion.job_id)?;
        let record = self.tickets.get_mut(&ticket).expect("admitted tickets exist");
        let tenant = self
            .tenants
            .get_mut(record.tenant as usize)
            .expect("tickets belong to registered tenants");
        tenant.in_flight -= 1;
        tenant.completed += 1;
        let waiting_s = (completion.record.start_time_s - record.submitted_s).max(0.0);
        let turnaround_s = (completion.record.finish_time_s - record.submitted_s).max(0.0);
        tenant.turnaround_total_s += turnaround_s;
        record.state = TicketState::Completed {
            job_id: completion.job_id,
            qpu_index: completion.qpu_index,
            waiting_s,
            turnaround_s,
        };
        Some((JobTicket { tenant: record.tenant, ticket }, completion))
    }

    /// Current accounting for one tenant.
    pub fn tenant_stats(&self, tenant: TenantId) -> Option<TenantStats> {
        self.tenants.get(tenant as usize).map(TenantState::stats)
    }

    /// Current accounting for every tenant, ascending by id.
    pub fn snapshot(&self) -> Vec<(TenantId, TenantStats)> {
        self.ids_and_tenants().map(|(id, state)| (id, state.stats())).collect()
    }

    /// Number of tickets waiting in a tenant's queue (0 for unknown tenants).
    pub fn queued_len(&self, tenant: TenantId) -> usize {
        self.tenants.get(tenant as usize).map_or(0, |t| t.queue.len())
    }

    /// Total tickets waiting across all tenant queues — O(1), maintained
    /// incrementally (checked against the queues by
    /// [`Self::indices_consistent`]).
    pub fn total_queued(&self) -> usize {
        self.queued_total
    }

    /// Number of registered tenants — O(1).
    pub(crate) fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Tenants visited by DRR admission scans since construction (or decode).
    /// Diagnostic: lets tests assert the scan is O(active), not O(registered).
    #[cfg(test)]
    fn admission_visits(&self) -> u64 {
        self.admission_visits.get()
    }

    /// Tenants visited by SLO escalation scans since construction (or
    /// decode). Diagnostic: an SLO-free workload must leave this at zero.
    #[cfg(test)]
    fn escalation_visits(&self) -> u64 {
        self.escalation_visits.get()
    }

    /// Verify every derived index against the journaled state it is derived
    /// from: the active ring holds exactly the tenants with a non-empty
    /// queue or unspent deficit, the SLO index exactly the tenants with a
    /// finite-deadline class, and the queued total equals the sum of queue
    /// lengths.
    pub fn indices_consistent(&self) -> bool {
        let registered = |id: &TenantId| (*id as usize) < self.tenants.len();
        let active_ok = self
            .ids_and_tenants()
            .all(|(id, t)| self.active.contains(&id) == (!t.queue.is_empty() || t.deficit > 0))
            && self.active.iter().all(registered);
        let slo_ok = self.ids_and_tenants().all(|(id, t)| {
            self.slo_tenants.contains(&id)
                == matches!(t.slo, Some(slo) if slo.deadline_s.is_finite())
        }) && self.slo_tenants.iter().all(registered);
        let queued_ok =
            self.queued_total == self.tenants.iter().map(|t| t.queue.len()).sum::<usize>();
        active_ok && slo_ok && queued_ok
    }

    /// `true` if `job_id` belongs to a ticket this service admitted and has
    /// not yet resolved (completion or rejection accounting still pending).
    pub(crate) fn tracks_job(&self, job_id: JobId) -> bool {
        self.job_to_ticket.contains_key(&job_id)
    }

    /// The ticket of an admitted-but-unresolved engine job, if this service
    /// issued one — how calibration-aware callers map a stale pending job
    /// back to the submission (and its circuit) that produced it.
    pub fn admitted_ticket(&self, job_id: JobId) -> Option<JobTicket> {
        let ticket = *self.job_to_ticket.get(&job_id)?;
        let record = self.tickets.get(&ticket)?;
        Some(JobTicket { tenant: record.tenant, ticket })
    }

    /// Roughly the bytes [`Self::encode_state_into`] appends, so the
    /// caller's buffer is sized once (a low guess costs a reallocation,
    /// nothing else).
    pub(crate) fn encoded_len_hint(&self) -> usize {
        use crate::replication::wire::spec_len_bound;
        64 + 128 * self.tenants.len()
            + 21 * self.queued_total
            + self.tickets.values().map(|t| 128 + spec_len_bound(&t.spec)).sum::<usize>()
            + 42 * self.job_to_ticket.len()
    }

    /// Append the canonical byte-for-byte text encoding of the service's
    /// full state to `out`: id counters and round-robin cursor, per-tenant
    /// configuration, queue, DRR deficit and accounting, every ticket record
    /// (sorted by id), and the job→ticket map (sorted by job id). Floats are
    /// encoded as IEEE-754 bit patterns, so equal encodings imply
    /// bit-identical states.
    pub(crate) fn encode_state_into(&self, out: &mut String) {
        use crate::replication::wire::{push_f64, push_list, push_slo, push_spec, push_u64};
        out.push_str("svc 2\nids ");
        push_u64(out, self.tenants.len() as u64);
        out.push(' ');
        push_u64(out, self.next_ticket_id);
        out.push(' ');
        push_u64(out, self.rr_start as u64);
        out.push('\n');
        for (id, tenant) in self.ids_and_tenants() {
            out.push_str("tenant");
            for field in [
                u64::from(id),
                u64::from(tenant.config.weight),
                tenant.config.max_in_flight as u64,
                u64::from(tenant.config.max_retries),
            ] {
                out.push(' ');
                push_u64(out, field);
            }
            out.push(' ');
            match &tenant.slo {
                None => out.push('-'),
                Some(slo) => push_slo(out, slo),
            }
            for counter in [
                tenant.deficit,
                tenant.in_flight as u64,
                tenant.submitted,
                tenant.admitted,
                tenant.completed,
                tenant.rejected,
                tenant.escalated,
            ] {
                out.push(' ');
                push_u64(out, counter);
            }
            out.push(' ');
            push_f64(out, tenant.queue_wait_total_s);
            out.push(' ');
            push_f64(out, tenant.turnaround_total_s);
            out.push(' ');
            push_list(out, &tenant.queue, |out, &ticket| push_u64(out, ticket));
            out.push('\n');
        }
        let mut tickets: Vec<(&TicketId, &TicketRecord)> = self.tickets.iter().collect();
        tickets.sort_unstable_by_key(|&(id, _)| id);
        for (&ticket_id, record) in tickets {
            out.push_str("ticket ");
            push_u64(out, ticket_id);
            out.push(' ');
            push_u64(out, u64::from(record.tenant));
            out.push(' ');
            push_f64(out, record.submitted_s);
            out.push(' ');
            push_u64(out, u64::from(record.attempts));
            match record.state {
                TicketState::Queued => out.push_str(" q "),
                TicketState::Admitted { job_id } => {
                    out.push_str(" a:");
                    push_u64(out, job_id);
                    out.push(' ');
                }
                TicketState::Completed { job_id, qpu_index, waiting_s, turnaround_s } => {
                    out.push_str(" c:");
                    push_u64(out, job_id);
                    out.push(':');
                    push_u64(out, qpu_index as u64);
                    out.push(':');
                    push_f64(out, waiting_s);
                    out.push(':');
                    push_f64(out, turnaround_s);
                    out.push(' ');
                }
                TicketState::Rejected { reason } => out.push_str(match reason {
                    RejectReason::RetriesExhausted => " r:x ",
                    RejectReason::DeadlineMissed => " r:d ",
                    RejectReason::Infeasible => " r:i ",
                }),
            }
            push_spec(out, &record.spec);
            out.push('\n');
        }
        let mut jobs: Vec<(JobId, TicketId)> =
            self.job_to_ticket.iter().map(|(&job, &ticket)| (job, ticket)).collect();
        jobs.sort_unstable();
        out.push_str("jobmap ");
        push_list(out, jobs, |out, (job, ticket)| {
            push_u64(out, job);
            out.push(':');
            push_u64(out, ticket);
        });
        out.push('\n');
    }

    /// Read one [`Self::encode_state_into`] state from `input`, up to the
    /// end of its `jobmap` line — and only such a state: `None` unless the
    /// result encodes back to the bytes read. Besides the bytes of each
    /// field, that rules out a tenant table that is not dense (see the
    /// `tenants` field), a ticket naming a tenant the table does not hold,
    /// tickets or job-map pairs out of ascending order or repeated, and a
    /// zero weight or in-flight cap (registration clamps both to 1).
    pub(crate) fn decode_from(input: &mut Cursor) -> Option<SubmissionService> {
        let next_tenant_id: usize = input.after("svc 2\nids ")?.num()?;
        let next_ticket_id: TicketId = input.after(" ")?.num()?;
        let rr_start = input.after(" ")?.num()?;
        input.after("\n")?;
        let mut service = SubmissionService {
            // Sized from the claimed counts, but never beyond what the input
            // could hold (no tenant row is shorter than 60 bytes, no ticket
            // row shorter than 40).
            tenants: Vec::with_capacity(next_tenant_id.min(input.remaining() / 60)),
            tickets: HashMap::with_capacity(
                usize::try_from(next_ticket_id).map_or(0, |n| n.min(input.remaining() / 40)),
            ),
            next_ticket_id,
            rr_start,
            ..SubmissionService::default()
        };
        while input.eat("tenant ") {
            // Dense table: row `i` carries id `i`.
            if input.num::<usize>()? != service.tenants.len() {
                return None;
            }
            let config = TenantConfig {
                weight: input.after(" ")?.num()?,
                max_in_flight: input.after(" ")?.num()?,
                max_retries: input.after(" ")?.num()?,
            };
            if config.weight == 0 || config.max_in_flight == 0 {
                return None;
            }
            let mut tenant = TenantState::new(config);
            tenant.slo = if input.after(" ")?.eat("-") { None } else { Some(input.slo()?) };
            tenant.deficit = input.after(" ")?.num()?;
            tenant.in_flight = input.after(" ")?.num()?;
            tenant.submitted = input.after(" ")?.num()?;
            tenant.admitted = input.after(" ")?.num()?;
            tenant.completed = input.after(" ")?.num()?;
            tenant.rejected = input.after(" ")?.num()?;
            tenant.escalated = input.after(" ")?.num()?;
            tenant.queue_wait_total_s = input.after(" ")?.f64()?;
            tenant.turnaround_total_s = input.after(" ")?.f64()?;
            input.after(" ")?.list(|input| {
                tenant.queue.push_back(input.num()?);
                Some(())
            })?;
            input.after("\n")?;
            service.tenants.push(tenant);
        }
        // The rows number the next id: no registration can collide.
        if service.tenants.len() != next_tenant_id {
            return None;
        }
        let mut last_ticket = None;
        while input.eat("ticket ") {
            let ticket_id = input.ascending(&mut last_ticket)?;
            let tenant: TenantId = input.after(" ")?.num()?;
            if tenant as usize >= next_tenant_id {
                return None;
            }
            let submitted_s = input.after(" ")?.f64()?;
            let attempts = input.after(" ")?.num()?;
            input.after(" ")?;
            let state = if input.eat("q") {
                TicketState::Queued
            } else if input.eat("a:") {
                TicketState::Admitted { job_id: input.num()? }
            } else if input.eat("c:") {
                TicketState::Completed {
                    job_id: input.num()?,
                    qpu_index: input.after(":")?.num()?,
                    waiting_s: input.after(":")?.f64()?,
                    turnaround_s: input.after(":")?.f64()?,
                }
            } else if input.eat("r:x") {
                TicketState::Rejected { reason: RejectReason::RetriesExhausted }
            } else if input.eat("r:d") {
                TicketState::Rejected { reason: RejectReason::DeadlineMissed }
            } else {
                input.after("r:i")?;
                TicketState::Rejected { reason: RejectReason::Infeasible }
            };
            let spec = input.after(" ")?.spec()?;
            input.after("\n")?;
            service
                .tickets
                .insert(ticket_id, TicketRecord { tenant, submitted_s, attempts, spec, state });
        }
        let mut last_job = None;
        input.after("jobmap ")?.list(|input| {
            let job = input.ascending(&mut last_job)?;
            service.job_to_ticket.insert(job, input.after(":")?.num()?);
            Some(())
        })?;
        input.after("\n")?;
        // Rebuild the derived indices from the decoded journal state — they
        // are never encoded, so replay exercises exactly this path.
        for (id, tenant) in service.tenants.iter().enumerate() {
            let id = id as TenantId;
            if !tenant.queue.is_empty() || tenant.deficit > 0 {
                service.active.insert(id);
            }
            if matches!(tenant.slo, Some(slo) if slo.deadline_s.is_finite()) {
                service.slo_tenants.insert(id);
            }
            service.queued_total += tenant.queue.len();
        }
        Some(service)
    }
}

/// Test conveniences, the `format!` encoder the streaming one replaced,
/// kept as its byte oracle, and the `split`/`parse` decoder the cursor one
/// replaced, kept as its decode oracle.
#[cfg(test)]
impl SubmissionService {
    pub(crate) fn register_tenant(&mut self, weight: u32) -> TenantId {
        self.register_tenant_with(TenantConfig::weighted(weight))
    }

    /// [`Self::decode_from`] over the whole of `encoded`.
    pub(crate) fn decode_state(encoded: &str) -> Option<SubmissionService> {
        let mut input = Cursor::new(encoded);
        let service = Self::decode_from(&mut input)?;
        input.finish(service)
    }

    pub(crate) fn encode_state(&self) -> String {
        let mut out = String::with_capacity(self.encoded_len_hint());
        self.encode_state_into(&mut out);
        out
    }

    /// The `split`/`parse` decoder the cursor one replaced — its oracle.
    pub(crate) fn decode_state_oracle(encoded: &str) -> Option<SubmissionService> {
        use crate::replication::wire::oracle::{dec_f64, dec_spec};
        let mut lines = encoded.lines();
        if lines.next()? != "svc 2" {
            return None;
        }
        let mut ids = lines.next()?.split(' ');
        if ids.next()? != "ids" {
            return None;
        }
        let next_tenant_id: usize = ids.next()?.parse().ok()?;
        let mut service = SubmissionService {
            // Sized from the claimed population, but never beyond what the
            // input could hold (no tenant row is shorter than 60 bytes).
            tenants: Vec::with_capacity(next_tenant_id.min(encoded.len() / 60)),
            next_ticket_id: ids.next()?.parse().ok()?,
            rr_start: ids.next()?.parse().ok()?,
            ..SubmissionService::default()
        };
        for line in lines {
            let mut fields = line.split(' ');
            match fields.next()? {
                "tenant" => {
                    // Dense table: row `i` carries id `i`.
                    let id: usize = fields.next()?.parse().ok()?;
                    if id != service.tenants.len() {
                        return None;
                    }
                    let mut tenant = TenantState::new(TenantConfig {
                        weight: fields.next()?.parse().ok()?,
                        max_in_flight: fields.next()?.parse().ok()?,
                        max_retries: fields.next()?.parse().ok()?,
                    });
                    tenant.slo = match fields.next()? {
                        "-" => None,
                        slo_field => match slo_field.split(':').collect::<Vec<_>>().as_slice() {
                            [deadline, priority, max_error] => Some(SloClass {
                                deadline_s: dec_f64(deadline)?,
                                priority: priority.parse().ok()?,
                                max_error: dec_f64(max_error)?,
                            }),
                            _ => return None,
                        },
                    };
                    tenant.deficit = fields.next()?.parse().ok()?;
                    tenant.in_flight = fields.next()?.parse().ok()?;
                    tenant.submitted = fields.next()?.parse().ok()?;
                    tenant.admitted = fields.next()?.parse().ok()?;
                    tenant.completed = fields.next()?.parse().ok()?;
                    tenant.rejected = fields.next()?.parse().ok()?;
                    tenant.escalated = fields.next()?.parse().ok()?;
                    tenant.queue_wait_total_s = dec_f64(fields.next()?)?;
                    tenant.turnaround_total_s = dec_f64(fields.next()?)?;
                    let queue = fields.next()?;
                    if queue != "-" {
                        for ticket in queue.split(',') {
                            tenant.queue.push_back(ticket.parse().ok()?);
                        }
                    }
                    service.tenants.push(tenant);
                }
                "ticket" => {
                    let ticket_id: TicketId = fields.next()?.parse().ok()?;
                    let tenant = fields.next()?.parse().ok()?;
                    let submitted_s = dec_f64(fields.next()?)?;
                    let attempts = fields.next()?.parse().ok()?;
                    let state_field = fields.next()?;
                    let state = match state_field.split(':').collect::<Vec<_>>().as_slice() {
                        ["q"] => TicketState::Queued,
                        ["a", job] => TicketState::Admitted { job_id: job.parse().ok()? },
                        ["c", job, qpu, wait, turn] => TicketState::Completed {
                            job_id: job.parse().ok()?,
                            qpu_index: qpu.parse().ok()?,
                            waiting_s: dec_f64(wait)?,
                            turnaround_s: dec_f64(turn)?,
                        },
                        ["r", "x"] => {
                            TicketState::Rejected { reason: RejectReason::RetriesExhausted }
                        }
                        ["r", "d"] => {
                            TicketState::Rejected { reason: RejectReason::DeadlineMissed }
                        }
                        ["r", "i"] => TicketState::Rejected { reason: RejectReason::Infeasible },
                        _ => return None,
                    };
                    let spec = dec_spec(fields.next()?)?;
                    service.tickets.insert(
                        ticket_id,
                        TicketRecord { tenant, submitted_s, attempts, spec, state },
                    );
                }
                "jobmap" => {
                    let map = fields.next()?;
                    if map != "-" {
                        for pair in map.split(',') {
                            let (job, ticket) = pair.split_once(':')?;
                            service.job_to_ticket.insert(job.parse().ok()?, ticket.parse().ok()?);
                        }
                    }
                }
                _ => return None,
            }
        }
        let registered = service.tenants.len();
        if registered != next_tenant_id
            || service.tickets.values().any(|t| t.tenant as usize >= registered)
        {
            return None;
        }
        // Rebuild the derived indices from the decoded journal state — they
        // are never encoded, so replay exercises exactly this path.
        for (id, tenant) in service.tenants.iter().enumerate() {
            let id = id as TenantId;
            if !tenant.queue.is_empty() || tenant.deficit > 0 {
                service.active.insert(id);
            }
            if matches!(tenant.slo, Some(slo) if slo.deadline_s.is_finite()) {
                service.slo_tenants.insert(id);
            }
            service.queued_total += tenant.queue.len();
        }
        Some(service)
    }

    pub(crate) fn encode_state_oracle(&self) -> String {
        use crate::replication::wire::oracle::{enc_f64, enc_spec};
        let mut out = String::from("svc 2\n");
        out.push_str(&format!(
            "ids {} {} {}\n",
            self.tenants.len(),
            self.next_ticket_id,
            self.rr_start
        ));
        for (id, tenant) in self.tenants.iter().enumerate() {
            let queue = if tenant.queue.is_empty() {
                "-".to_string()
            } else {
                tenant.queue.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
            };
            let slo = match tenant.slo {
                None => "-".to_string(),
                Some(slo) => format!(
                    "{}:{}:{}",
                    enc_f64(slo.deadline_s),
                    slo.priority,
                    enc_f64(slo.max_error)
                ),
            };
            out.push_str(&format!(
                "tenant {id} {} {} {} {slo} {} {} {} {} {} {} {} {} {} {queue}\n",
                tenant.config.weight,
                tenant.config.max_in_flight,
                tenant.config.max_retries,
                tenant.deficit,
                tenant.in_flight,
                tenant.submitted,
                tenant.admitted,
                tenant.completed,
                tenant.rejected,
                tenant.escalated,
                enc_f64(tenant.queue_wait_total_s),
                enc_f64(tenant.turnaround_total_s),
            ));
        }
        let mut ticket_ids: Vec<TicketId> = self.tickets.keys().copied().collect();
        ticket_ids.sort_unstable();
        for ticket_id in ticket_ids {
            let record = &self.tickets[&ticket_id];
            let state = match record.state {
                TicketState::Queued => "q".to_string(),
                TicketState::Admitted { job_id } => format!("a:{job_id}"),
                TicketState::Completed { job_id, qpu_index, waiting_s, turnaround_s } => {
                    format!(
                        "c:{job_id}:{qpu_index}:{}:{}",
                        enc_f64(waiting_s),
                        enc_f64(turnaround_s)
                    )
                }
                TicketState::Rejected { reason } => match reason {
                    RejectReason::RetriesExhausted => "r:x".to_string(),
                    RejectReason::DeadlineMissed => "r:d".to_string(),
                    RejectReason::Infeasible => "r:i".to_string(),
                },
            };
            out.push_str(&format!(
                "ticket {ticket_id} {} {} {} {state} {}\n",
                record.tenant,
                enc_f64(record.submitted_s),
                record.attempts,
                enc_spec(&record.spec)
            ));
        }
        let mut jobs: Vec<(JobId, TicketId)> =
            self.job_to_ticket.iter().map(|(&job, &ticket)| (job, ticket)).collect();
        jobs.sort_unstable();
        let map = if jobs.is_empty() {
            "-".to_string()
        } else {
            jobs.iter().map(|(job, ticket)| format!("{job}:{ticket}")).collect::<Vec<_>>().join(",")
        };
        out.push_str(&format!("jobmap {map}\n"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_backend::Fleet;
    use qonductor_scheduler::{HybridScheduler, Nsga2Config, ScheduleTrigger, SchedulerConfig};
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
                max_generations: 8,
                max_evaluations: 800,
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

    /// Drain every fleet queue and account the completions this service
    /// admitted; returns how many resolved a ticket.
    fn complete(svc: &mut SubmissionService, fleet: &mut Fleet) -> usize {
        let mut resolved = 0;
        for (qpu_index, member) in fleet.members_mut().iter_mut().enumerate() {
            for record in member.queue.take_completed() {
                let completion = CompletedExecution { job_id: record.job_id, qpu_index, record };
                resolved += usize::from(svc.note_completion(completion).is_some());
            }
        }
        resolved
    }

    #[test]
    fn submit_is_non_blocking_and_polls_queued() {
        let fleet = small_fleet(1);
        let mut svc = SubmissionService::default();
        let tenant = svc.register_tenant(1);
        let t0 = svc.submit(tenant, spec(&fleet, 5, 10.0), 0.0).unwrap();
        let t1 = svc.submit(tenant, spec(&fleet, 5, 10.0), 1.0).unwrap();
        assert_eq!(svc.poll(t0), Some(TicketStatus::Queued { position: 0, attempts: 0 }));
        assert_eq!(svc.poll(t1), Some(TicketStatus::Queued { position: 1, attempts: 0 }));
        assert_eq!(svc.queued_len(tenant), 2);
        assert!(svc.submit(99, spec(&fleet, 5, 10.0), 0.0).is_err());
        assert!(svc.poll(JobTicket { tenant: 0, ticket: 999 }).is_none());
        // A handle with a forged tenant cannot read another tenant's status.
        assert!(svc.poll(JobTicket { tenant: 5, ticket: t0.ticket }).is_none());
    }

    #[test]
    fn admission_respects_weights_and_capacity() {
        let fleet = small_fleet(2);
        let mut svc = SubmissionService::default();
        let heavy = svc.register_tenant(2);
        let light = svc.register_tenant(1);
        for i in 0..20 {
            svc.submit(heavy, spec(&fleet, 5, 10.0), i as f64 * 0.01).unwrap();
            svc.submit(light, spec(&fleet, 5, 10.0), i as f64 * 0.01).unwrap();
        }
        // Pool capacity = trigger queue limit (6): one pass admits 4:2.
        let mut jm = JobManager::new(ScheduleTrigger::new(6, 1e12));
        let admitted = svc.admit(1.0, &mut jm);
        assert_eq!(admitted.len(), 6);
        assert_eq!(jm.pending_len(), 6);
        let heavy_count = admitted.iter().filter(|(t, _)| t.tenant == heavy).count();
        let light_count = admitted.iter().filter(|(t, _)| t.tenant == light).count();
        assert_eq!((heavy_count, light_count), (4, 2));
        // Admitted tickets poll as admitted, with engine job ids.
        for (ticket, job_id) in &admitted {
            assert_eq!(svc.poll(*ticket), Some(TicketStatus::Admitted { job_id: *job_id }));
        }
        // A full pool admits nothing more.
        assert!(svc.admit(2.0, &mut jm).is_empty());
    }

    #[test]
    fn in_flight_cap_limits_admission() {
        let fleet = small_fleet(3);
        let mut svc = SubmissionService::default();
        let tenant =
            svc.register_tenant_with(TenantConfig { weight: 1, max_in_flight: 2, max_retries: 0 });
        for _ in 0..5 {
            svc.submit(tenant, spec(&fleet, 5, 10.0), 0.0).unwrap();
        }
        // Pool capacity (5) exceeds the in-flight cap (2): the cap binds.
        let mut jm = JobManager::new(ScheduleTrigger::new(5, 50.0));
        assert_eq!(svc.admit(0.0, &mut jm).len(), 2, "cap of 2 in flight");
        assert_eq!(svc.queued_len(tenant), 3);
        // Completing the in-flight jobs frees slots for the next pass.
        let mut fleet = fleet;
        let batch = jm.try_dispatch(60.0, &scheduler(), &mut fleet).expect("interval fires");
        svc.note_rejections(batch.t_s, &batch.outcome.rejected_jobs);
        let mut rng = StdRng::seed_from_u64(9);
        fleet.advance_to(1e5, &mut rng);
        assert_eq!(complete(&mut svc, &mut fleet), 2);
        assert_eq!(svc.admit(1.0, &mut jm).len(), 2);
    }

    /// Regression for the DRR credit-loss bug: a tenant skipped for being at
    /// its in-flight cap must keep its earned service credit — clamped to one
    /// quantum — instead of silently losing it, and must converge back to its
    /// weighted share once the cap lifts.
    #[test]
    fn capped_tenant_keeps_bounded_credit_and_reconverges_to_its_share() {
        let fleet = small_fleet(5);
        let mut svc = SubmissionService::default();
        let heavy =
            svc.register_tenant_with(TenantConfig { weight: 2, max_in_flight: 6, max_retries: 0 });
        let light = svc.register_tenant_with(TenantConfig::weighted(1));
        let mut jm = JobManager::new(ScheduleTrigger::new(6, 1e12));
        let job = spec(&fleet, 5, 1.0);
        let qpu = job.exec_time_per_qpu.iter().position(|e| e.is_finite()).expect("feasible QPU");
        let mut fleet = fleet;

        // Phase 1 — only the heavy tenant is active: one pass fills its
        // in-flight cap, and the dispatched jobs stay in flight.
        for _ in 0..40 {
            svc.submit(heavy, job.clone(), 0.0).unwrap();
        }
        let burst = svc.admit(0.0, &mut jm);
        assert_eq!(burst.len(), 6, "the first pass fills the in-flight cap");
        for &(_, job_id) in &burst {
            jm.dispatch_direct(job_id, qpu, &mut fleet);
        }

        // While capped, every admission pass grants the quantum but clamps
        // the carried credit at exactly one quantum: not zeroed (the bug),
        // not compounding (unbounded post-cap burst).
        for pass in 1..=4 {
            assert!(svc.admit(pass as f64, &mut jm).is_empty(), "capped tenant admits nothing");
            assert_eq!(
                svc.tenants[heavy as usize].deficit, 2,
                "pass {pass}: carried credit is exactly one quantum"
            );
        }

        // The cap lifts: completions return the heavy tenant below its cap.
        let mut rng = StdRng::seed_from_u64(7);
        fleet.advance_to(100.0, &mut rng);
        assert_eq!(complete(&mut svc, &mut fleet), 6);
        for _ in 0..40 {
            svc.submit(light, job.clone(), 100.0).unwrap();
        }

        // Post-lift passes: the carried quantum buys bounded catch-up on the
        // first pass, then steady state settles at the 2:1 weighted share.
        let (mut heavy_admitted, mut light_admitted) = (0usize, 0usize);
        for pass in 0..6 {
            let t = 200.0 + 100.0 * pass as f64;
            let admitted = svc.admit(t, &mut jm);
            assert_eq!(admitted.len(), 6, "uncapped passes fill the pool");
            heavy_admitted += admitted.iter().filter(|(t, _)| t.tenant == heavy).count();
            light_admitted += admitted.iter().filter(|(t, _)| t.tenant == light).count();
            for &(_, job_id) in &admitted {
                jm.dispatch_direct(job_id, qpu, &mut fleet);
            }
            fleet.advance_to(t + 50.0, &mut rng);
            complete(&mut svc, &mut fleet);
        }
        let share = heavy_admitted as f64 / (heavy_admitted + light_admitted) as f64;
        assert!(
            (share - 2.0 / 3.0).abs() <= 0.0667,
            "heavy share {share:.3} must converge to 2:1 ±10% after the cap lifts \
             ({heavy_admitted}:{light_admitted})"
        );
    }

    #[test]
    fn rejected_jobs_retry_then_terminalize() {
        let mut fleet = small_fleet(4);
        let mut svc = SubmissionService::default();
        let tenant =
            svc.register_tenant_with(TenantConfig { weight: 1, max_in_flight: 16, max_retries: 1 });
        // 64 qubits fits no QPU: the scheduler rejects it every time.
        let doomed = svc.submit(tenant, spec(&fleet, 64, 10.0), 0.0).unwrap();
        let mut jm = JobManager::new(ScheduleTrigger::new(1, 1e12));
        let scheduler = scheduler();

        svc.admit(0.0, &mut jm);
        let batch = jm.try_dispatch(0.0, &scheduler, &mut fleet).expect("trigger fires");
        assert!(
            svc.note_rejections(batch.t_s, &batch.outcome.rejected_jobs).is_empty(),
            "first rejection re-queues"
        );
        assert_eq!(svc.poll(doomed), Some(TicketStatus::Queued { position: 0, attempts: 1 }));

        svc.admit(1.0, &mut jm);
        let batch = jm.try_dispatch(1.0, &scheduler, &mut fleet).expect("trigger fires again");
        let terminal = svc.note_rejections(batch.t_s, &batch.outcome.rejected_jobs);
        assert_eq!(terminal, vec![doomed]);
        // 64 qubits fits no QPU: the terminal reason is Infeasible, not a
        // bare retries-exhausted.
        assert_eq!(
            svc.poll(doomed),
            Some(TicketStatus::Rejected { attempts: 2, reason: RejectReason::Infeasible })
        );
        let stats = svc.tenant_stats(tenant).unwrap();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.admitted, 2, "both admission events are counted");
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.queued, 0);
    }

    /// Satellite regression: `register_tenant(0)` used to yield a zero DRR
    /// quantum — the tenant's deficit never grew, so its tickets sat `Queued`
    /// forever. Registration clamps the weight to 1; the tenant makes
    /// progress.
    #[test]
    fn weight_zero_tenant_is_clamped_and_makes_progress() {
        let fleet = small_fleet(7);
        let mut svc = SubmissionService::default();
        let zero = svc.register_tenant(0);
        assert_eq!(svc.tenant_stats(zero).unwrap().weight, 1, "weight 0 clamps to 1");
        let configs = svc.tenant_configs();
        assert_eq!(configs[0].1.weight, 1);
        let ticket = svc.submit(zero, spec(&fleet, 5, 10.0), 0.0).unwrap();
        let mut jm = JobManager::new(ScheduleTrigger::new(4, 1e12));
        let admitted = svc.admit(1.0, &mut jm);
        assert_eq!(admitted.len(), 1, "the clamped tenant is admitted, not starved");
        assert!(matches!(svc.poll(ticket), Some(TicketStatus::Admitted { .. })));
        // Zero max_in_flight clamps the same way (it would also starve).
        let capped =
            svc.register_tenant_with(TenantConfig { weight: 0, max_in_flight: 0, max_retries: 0 });
        svc.submit(capped, spec(&fleet, 5, 10.0), 2.0).unwrap();
        assert_eq!(svc.admit(2.0, &mut jm).len(), 1, "max_in_flight 0 clamps to 1");
    }

    /// The SLO escalation lane: an urgent queued job jumps the DRR scan ahead
    /// of a heavier tenant's backlog, exactly once (no double-admit), with
    /// the `escalated` counter tracking it.
    #[test]
    fn escalation_jumps_the_drr_scan_without_double_admit() {
        let fleet = small_fleet(8);
        let mut svc = SubmissionService::default();
        let bulk = svc.register_tenant(8);
        let slo =
            svc.register_tenant_with_slo(TenantConfig::weighted(1), SloClass::with_deadline(30.0));
        assert_eq!(svc.tenant_slo(slo).map(|s| s.deadline_s), Some(30.0));
        assert_eq!(svc.tenant_slo(bulk), None);
        for i in 0..10 {
            svc.submit(bulk, spec(&fleet, 5, 5.0), i as f64 * 0.01).unwrap();
        }
        let urgent = svc.submit(slo, spec(&fleet, 5, 5.0), 1.0).unwrap();
        let mut jm = JobManager::new(ScheduleTrigger::new(4, 1e12));

        // Far from the deadline nothing escalates.
        assert!(svc.pending_escalations(2.0, 10.0, 4).is_empty());
        // At t=25 a 10 s horizon blows the deadline at 31: the ticket is due.
        let due = svc.pending_escalations(25.0, 10.0, 4);
        assert_eq!(due, vec![urgent]);
        let job_id = svc.apply_escalation(urgent, 25.0, &mut jm).expect("escalates");
        assert_eq!(svc.poll(urgent), Some(TicketStatus::Admitted { job_id }));
        assert_eq!(svc.tenant_stats(slo).unwrap().escalated, 1);
        // The escalated job carries its absolute deadline into the engine.
        assert_eq!(jm.pending().last().unwrap().deadline_s, 31.0);
        // No double admission: the ticket is no longer queued, so neither the
        // lane nor the DRR scan can pick it again.
        assert!(svc.pending_escalations(25.0, 10.0, 4).is_empty());
        assert!(svc.apply_escalation(urgent, 25.0, &mut jm).is_none(), "replay is a no-op");
        let before = jm.pending_len();
        let admitted = svc.admit(26.0, &mut jm);
        assert!(admitted.iter().all(|(t, _)| t.tenant == bulk), "only bulk jobs remain queued");
        assert_eq!(jm.pending_len(), before + admitted.len());
        // Conservation: every ticket is in exactly one place.
        let s = svc.tenant_stats(slo).unwrap();
        assert_eq!(s.queued as u64 + s.in_flight as u64 + s.completed + s.rejected, s.submitted);
    }

    /// Escalation order is deterministic — higher priority first, ticket id
    /// within a class — and bounded by the budget and in-flight caps.
    #[test]
    fn escalation_order_is_priority_then_ticket_id_and_respects_caps() {
        let fleet = small_fleet(9);
        let mut svc = SubmissionService::default();
        let gold = svc.register_tenant_with_slo(
            TenantConfig { weight: 1, max_in_flight: 1, max_retries: 0 },
            SloClass { deadline_s: 10.0, priority: 2, max_error: 0.05 },
        );
        let silver =
            svc.register_tenant_with_slo(TenantConfig::weighted(1), SloClass::with_deadline(10.0));
        let g0 = svc.submit(gold, spec(&fleet, 5, 5.0), 0.0).unwrap();
        let g1 = svc.submit(gold, spec(&fleet, 5, 5.0), 0.0).unwrap();
        let s0 = svc.submit(silver, spec(&fleet, 5, 5.0), 0.0).unwrap();
        // All three are overdue; gold outranks silver, but gold's in-flight
        // cap (1) admits only its first ticket; the budget (2) then takes the
        // silver one.
        let due = svc.pending_escalations(100.0, 10.0, 2);
        assert_eq!(due, vec![g0, s0]);
        let _ = g1;
    }

    /// Typed terminal rejections: a rejected job whose deadline has passed is
    /// `DeadlineMissed`; a feasible job that merely ran out of retries is
    /// `RetriesExhausted`.
    #[test]
    fn terminal_reject_reasons_distinguish_deadline_from_retries() {
        let fleet = small_fleet(10);
        let mut svc = SubmissionService::default();
        let slo = svc.register_tenant_with_slo(
            TenantConfig { weight: 1, max_in_flight: 4, max_retries: 0 },
            SloClass::with_deadline(5.0),
        );
        let plain =
            svc.register_tenant_with(TenantConfig { weight: 1, max_in_flight: 4, max_retries: 0 });
        let late = svc.submit(slo, spec(&fleet, 5, 5.0), 0.0).unwrap();
        let unlucky = svc.submit(plain, spec(&fleet, 5, 5.0), 0.0).unwrap();
        let mut jm = JobManager::new(ScheduleTrigger::new(2, 1e12));
        let admitted = svc.admit(1.0, &mut jm);
        assert_eq!(admitted.len(), 2);
        // Both jobs bounce at t=20 (past the SLO deadline at 5). The specs
        // are feasible, so the reasons split on the deadline.
        let rejected: Vec<JobId> = admitted.iter().map(|&(_, job)| job).collect();
        let terminal = svc.note_rejections(20.0, &rejected);
        assert_eq!(terminal.len(), 2);
        assert_eq!(
            svc.poll(late),
            Some(TicketStatus::Rejected { attempts: 1, reason: RejectReason::DeadlineMissed })
        );
        assert_eq!(
            svc.poll(unlucky),
            Some(TicketStatus::Rejected { attempts: 1, reason: RejectReason::RetriesExhausted })
        );
    }

    /// The state codec roundtrips bit for bit across a mixed lifecycle:
    /// queued, admitted, completed, and terminally rejected tickets, non-zero
    /// DRR deficits, and accumulated float accounting.
    #[test]
    fn state_encoding_roundtrips_bit_for_bit() {
        let mut fleet = small_fleet(6);
        let mut svc = SubmissionService::default();
        let a =
            svc.register_tenant_with(TenantConfig { weight: 3, max_in_flight: 2, max_retries: 0 });
        let b = svc.register_tenant_with(TenantConfig::weighted(1));
        for i in 0..4 {
            svc.submit(a, spec(&fleet, 5, 7.0), 0.1 * i as f64).unwrap();
            svc.submit(b, spec(&fleet, 5, 7.0), 0.1 * i as f64).unwrap();
        }
        svc.submit(a, spec(&fleet, 64, 1.0), 0.5).unwrap(); // will terminally reject
        let mut jm = JobManager::new(ScheduleTrigger::new(5, 40.0));
        let scheduler = scheduler();
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = 1.0;
        for _ in 0..4 {
            svc.admit(t, &mut jm);
            if let Some(batch) = jm.try_dispatch(t, &scheduler, &mut fleet) {
                svc.note_rejections(batch.t_s, &batch.outcome.rejected_jobs);
            }
            t += 41.0;
            fleet.advance_to(t, &mut rng);
            complete(&mut svc, &mut fleet);
        }
        let encoded = svc.encode_state();
        let back = SubmissionService::decode_state(&encoded).expect("decodes");
        assert_eq!(back.encode_state(), encoded);
        assert_eq!(back.snapshot(), svc.snapshot());
        // The restored service keeps behaving identically.
        let mut live = svc;
        let mut restored = back;
        assert_eq!(
            live.submit(a, spec(&fleet, 5, 2.0), t).unwrap(),
            restored.submit(a, spec(&fleet, 5, 2.0), t).unwrap()
        );
        let mut jm_live = jm.clone();
        let mut jm_restored = jm;
        assert_eq!(live.admit(t, &mut jm_live), restored.admit(t, &mut jm_restored));
        assert_eq!(live.encode_state(), restored.encode_state());
    }

    /// The tenant table is dense — row `i` is tenant `i` — and decode holds
    /// the encoded state to that: rows out of order, duplicated, beyond the
    /// encoded next id, with a gap, not starting at 0, or fewer than the next
    /// id are all corrupt, never a silently reordered or re-keyed table. (A
    /// keyed map used to accept every one of these.)
    #[test]
    fn decode_rejects_tenant_tables_that_are_not_dense() {
        let fleet = small_fleet(15);
        let mut svc = SubmissionService::default();
        for weight in 1..=3 {
            svc.register_tenant(weight);
        }
        let ticket = svc.submit(2, spec(&fleet, 5, 1.0), 0.0).unwrap();
        let encoded = svc.encode_state();
        assert!(SubmissionService::decode_state(&encoded).is_some());
        let lines: Vec<&str> = encoded.lines().collect();
        assert_eq!(lines[1], "ids 3 1 0");
        assert!(lines[2].starts_with("tenant 0 ") && lines[4].starts_with("tenant 2 "));
        // Every line, the last included, ends in a newline.
        let decode = |lines: &[&str]| SubmissionService::decode_state(&(lines.join("\n") + "\n"));
        assert!(decode(&lines).is_some(), "the unedited lines decode");
        let with = |at: usize, line: &str| {
            let mut edited = lines.clone();
            edited[at] = line;
            decode(&edited)
        };

        // Out of order.
        let mut swapped = lines.clone();
        swapped.swap(2, 3);
        assert!(decode(&swapped).is_none(), "rows 1,0,2");
        // Duplicated id.
        assert!(with(3, &lines[3].replacen("tenant 1 ", "tenant 0 ", 1)).is_none());
        // An id at or beyond the encoded next id.
        assert!(with(4, &lines[4].replacen("tenant 2 ", "tenant 7 ", 1)).is_none());
        assert!(with(1, "ids 2 1 0").is_none(), "three rows, next id 2");
        // A gap, and a table that does not start at 0.
        let mut gapped = lines.clone();
        gapped.remove(3);
        assert!(decode(&gapped).is_none(), "rows 0,2");
        let mut headless = lines.clone();
        headless.remove(2);
        assert!(decode(&headless).is_none(), "rows 1,2");
        // Fewer rows than the next id: the next registration would collide.
        let mut short = lines.clone();
        short.remove(4);
        let short: Vec<&str> = short.into_iter().filter(|l| !l.starts_with("ticket ")).collect();
        assert!(decode(&short).is_none(), "rows 0,1 under next id 3");
        // A ticket naming a tenant the table does not hold.
        let stray = lines[5].replacen(&format!("ticket {} 2 ", ticket.ticket), "ticket 0 9 ", 1);
        assert_ne!(stray, lines[5]);
        assert!(with(5, &stray).is_none());
    }

    #[test]
    fn ticket_conservation_across_the_lifecycle() {
        let mut fleet = small_fleet(5);
        let mut svc = SubmissionService::default();
        let a = svc.register_tenant(3);
        let b = svc.register_tenant(1);
        let mut tickets = Vec::new();
        for i in 0..12 {
            tickets.push(svc.submit(a, spec(&fleet, 5, 5.0), i as f64).unwrap());
            tickets.push(svc.submit(b, spec(&fleet, 5, 5.0), i as f64).unwrap());
        }
        let mut jm = JobManager::new(ScheduleTrigger::new(8, 5.0));
        let scheduler = scheduler();
        let mut rng = StdRng::seed_from_u64(11);
        let mut t = 20.0;
        let mut guard = 0;
        while svc.total_queued() > 0 || jm.pending_len() > 0 {
            guard += 1;
            assert!(guard < 200, "drain loop must converge");
            svc.admit(t, &mut jm);
            if let Some(batch) = jm.try_dispatch(t, &scheduler, &mut fleet) {
                svc.note_rejections(batch.t_s, &batch.outcome.rejected_jobs);
            }
            t += 1.0;
            fleet.advance_to(t, &mut rng);
            complete(&mut svc, &mut fleet);
        }
        fleet.advance_to(1e6, &mut rng);
        complete(&mut svc, &mut fleet);
        for (id, stats) in svc.snapshot() {
            assert_eq!(
                stats.queued as u64 + stats.in_flight as u64 + stats.completed + stats.rejected,
                stats.submitted,
                "tenant {id} loses no tickets"
            );
            assert_eq!(stats.rejected, 0, "all jobs were feasible");
            assert_eq!(stats.completed, 12);
        }
        for ticket in tickets {
            assert!(
                matches!(svc.poll(ticket), Some(TicketStatus::Completed { .. })),
                "every ticket completes"
            );
        }
    }

    /// The DRR scan is O(active): with 10,000 registered tenants of which
    /// only 3 ever submit, an admission pass visits a handful of tenants —
    /// not the population — and admits exactly what the full scan would.
    #[test]
    fn admission_scan_is_o_active_not_o_registered() {
        let fleet = small_fleet(12);
        let mut svc = SubmissionService::default();
        let mut tenants = Vec::new();
        for i in 0..10_000u32 {
            tenants.push(svc.register_tenant(i % 3 + 1));
        }
        for &t in &[tenants[17], tenants[4_200], tenants[9_999]] {
            svc.submit(t, spec(&fleet, 5, 10.0), 0.0).unwrap();
            svc.submit(t, spec(&fleet, 5, 10.0), 0.0).unwrap();
        }
        assert_eq!(svc.total_queued(), 6);
        let mut jm = JobManager::new(ScheduleTrigger::new(16, 1e12));
        let admitted = svc.admit(1.0, &mut jm);
        assert_eq!(admitted.len(), 6, "every queued ticket is admitted");
        assert!(
            svc.admission_visits() <= 12,
            "visited {} tenants for 3 active ones — the scan is O(registered) again",
            svc.admission_visits()
        );
        assert_eq!(svc.total_queued(), 0);
        assert!(svc.indices_consistent());
        // A fully idle population costs one empty round, not a full scan.
        let before = svc.admission_visits();
        assert!(svc.admit(2.0, &mut jm).is_empty());
        assert_eq!(svc.admission_visits(), before, "an idle pass visits nobody");
    }

    /// Satellite regression: without a single SLO-classed tenant the
    /// escalation pass must do *zero* scan work — no candidate allocation,
    /// no tenant visits — instead of walking every registered tenant.
    #[test]
    fn slo_free_workloads_skip_the_escalation_scan_entirely() {
        let fleet = small_fleet(13);
        let mut svc = SubmissionService::default();
        for i in 0..500u32 {
            let t = svc.register_tenant(i % 2 + 1);
            svc.submit(t, spec(&fleet, 5, 10.0), 0.0).unwrap();
        }
        assert!(svc.pending_escalations(1e9, 1e9, usize::MAX).is_empty());
        assert_eq!(svc.escalation_visits(), 0, "no SLO class registered — zero scan work");
        // Registering one finite-deadline class bounds the scan to the index.
        let slo =
            svc.register_tenant_with_slo(TenantConfig::weighted(1), SloClass::with_deadline(5.0));
        let urgent = svc.submit(slo, spec(&fleet, 5, 10.0), 0.0).unwrap();
        assert_eq!(svc.pending_escalations(100.0, 10.0, 8), vec![urgent]);
        assert_eq!(svc.escalation_visits(), 1, "the scan visits only the SLO index");
        // An infinite deadline can never escalate and stays off the index.
        svc.register_tenant_with_slo(TenantConfig::weighted(1), SloClass::default());
        svc.pending_escalations(100.0, 10.0, 8);
        assert_eq!(svc.escalation_visits(), 2);
        assert!(svc.indices_consistent());
    }

    /// The derived indices survive the full lifecycle — including the
    /// escalation corner where a drained queue leaves an unspent deficit on
    /// the ring — and the codec rebuilds them from scratch.
    #[test]
    fn derived_indices_track_the_lifecycle_and_rebuild_on_decode() {
        let fleet = small_fleet(14);
        let mut svc = SubmissionService::default();
        let bulk = svc.register_tenant(4);
        let slo =
            svc.register_tenant_with_slo(TenantConfig::weighted(1), SloClass::with_deadline(10.0));
        for i in 0..6 {
            svc.submit(bulk, spec(&fleet, 5, 5.0), i as f64 * 0.1).unwrap();
        }
        let urgent = svc.submit(slo, spec(&fleet, 5, 5.0), 0.0).unwrap();
        assert!(svc.indices_consistent());
        let mut jm = JobManager::new(ScheduleTrigger::new(4, 1e12));
        // Escalate the SLO tenant's only ticket: its queue drains outside the
        // DRR scan, which must not corrupt the ring.
        svc.apply_escalation(urgent, 100.0, &mut jm).expect("escalates");
        assert!(svc.indices_consistent());
        svc.admit(101.0, &mut jm);
        assert!(svc.indices_consistent());
        // Bounce a job back and terminalize another: both queue paths.
        let rejected: Vec<JobId> = jm.pending().iter().map(|p| p.job_id).collect();
        svc.note_rejections(102.0, &rejected);
        assert!(svc.indices_consistent());
        let encoded = svc.encode_state();
        let rebuilt = SubmissionService::decode_state(&encoded).expect("decodes");
        assert!(rebuilt.indices_consistent(), "decode rebuilds every derived index");
        assert_eq!(rebuilt.total_queued(), svc.total_queued());
        assert_eq!(rebuilt.encode_state(), encoded);
    }
}
