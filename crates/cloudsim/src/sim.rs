//! The quantum-cloud discrete-time simulation (§8.2): synthetic hybrid
//! applications arrive following the measured IBM load and are submitted to
//! the *journaled* batch execution engine (a one-shard
//! [`ShardedControlPlane`], the same control plane the orchestrator uses, so
//! chaos coverage extends to the baseline simulations) by the shared
//! `kernel` event loop. Under the Qonductor policy the engine's
//! `ScheduleTrigger` gates every NSGA-II + MCDM invocation and dispatches
//! whole batches onto the fleet queues; the FCFS baseline places each
//! arrival directly through the engine's (journaled) direct-dispatch path.
//! Queues advance in simulated time and the end-to-end metrics of §8.1
//! (fidelity, completion time, utilization) are collected over time.
//!
//! Under [`CalibrationPolicy::SplitAtBoundary`] the simulation also exercises
//! the §7 calibration-crossover path end-to-end: batch plans that straddle a
//! recalibration boundary are split, the deferred jobs are re-estimated
//! against the post-boundary snapshot, and every completion records the
//! *fidelity estimation error* — the gap between the estimate the scheduler
//! placed with and the estimate recomputed from the calibration actually in
//! force when the job ran.

use crate::estimates::{self, FastEstimate};
use crate::failover::{ChaosReport, FailurePlan};
use crate::kernel::{self, Scenario, QUORUM};
use crate::load::{ArrivalConfig, HybridApplication, LoadGenerator};
use qonductor_backend::Fleet;
use qonductor_circuit::CircuitMetrics;
use qonductor_core::jobmanager::{
    BatchRecord, CalibrationPolicy, CompletedExecution, JobId, JobSpec, TenantId,
};
use qonductor_core::sharding::{GlobalTicket, ShardedControlPlane};
use qonductor_core::submission::TenantConfig;
use qonductor_scheduler::{
    HybridScheduler, Nsga2Config, Objectives, Preference, ScheduleTrigger, SchedulerConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The scheduling policy driving the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// The Qonductor hybrid scheduler (NSGA-II + MCDM) with a given preference.
    Qonductor {
        /// MCDM objective preference.
        preference: Preference,
    },
    /// First-come-first-serve onto the highest-fidelity feasible QPU — the
    /// "standard practice in the current quantum cloud" baseline.
    Fcfs,
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Simulated duration in seconds (paper: one hour).
    pub duration_s: f64,
    /// Simulation step in seconds.
    pub step_s: f64,
    /// Arrival process configuration.
    pub arrival: ArrivalConfig,
    /// Fraction of applications using error mitigation (paper: 50%).
    pub mitigation_fraction: f64,
    /// Scheduling policy.
    pub policy: Policy,
    /// Queue-size trigger threshold of the Qonductor scheduler.
    pub trigger_queue_limit: usize,
    /// Time-based trigger interval (seconds) of the Qonductor scheduler.
    pub trigger_interval_s: f64,
    /// Metrics sampling interval in seconds.
    pub metrics_interval_s: f64,
    /// NSGA-II configuration used by the Qonductor policy.
    pub nsga2: Nsga2Config,
    /// How the batch engine treats plans that cross a recalibration boundary
    /// (§7): [`CalibrationPolicy::Naive`] dispatches them with stale
    /// estimates, [`CalibrationPolicy::SplitAtBoundary`] partitions them and
    /// re-estimates the post-boundary jobs.
    pub calibration: CalibrationPolicy,
    /// Weight of the NSGA-II recalibration-boundary penalty
    /// ([`SchedulerConfig::boundary_penalty_weight`]); `0.0` disables it.
    pub boundary_penalty_weight: f64,
    /// Weight of the federation cost lane
    /// ([`SchedulerConfig::cost_weight`]): when > 0 the batch engine feeds
    /// the fleet's per-QPU shot prices into the optimizer and placement
    /// trades monetary cost against turnaround. `0.0` (the default) keeps
    /// every outcome bit-identical to the cost-free path.
    pub cost_weight: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            duration_s: 3600.0,
            step_s: 10.0,
            arrival: ArrivalConfig::default(),
            mitigation_fraction: 0.5,
            policy: Policy::Qonductor { preference: Preference::balanced() },
            trigger_queue_limit: 100,
            trigger_interval_s: 120.0,
            metrics_interval_s: 60.0,
            nsga2: Nsga2Config {
                population_size: 40,
                max_generations: 40,
                max_evaluations: 6000,
                num_threads: 4,
                ..Nsga2Config::default()
            },
            calibration: CalibrationPolicy::Naive,
            boundary_penalty_weight: 0.0,
            cost_weight: 0.0,
            seed: 2024,
        }
    }
}

/// The base configuration of the two-arm studies ([`crate::drift`] and
/// [`crate::federation`]): 25 simulated minutes at a flat 900 applications
/// per hour, calibration-aware dispatch, seed 77.
pub(crate) fn study_config() -> SimulationConfig {
    SimulationConfig {
        duration_s: 1500.0,
        step_s: 10.0,
        arrival: ArrivalConfig {
            mean_rate_per_hour: 900.0,
            diurnal_amplitude: 0.0,
            ..Default::default()
        },
        policy: Policy::Qonductor { preference: Preference::balanced() },
        trigger_queue_limit: 25,
        trigger_interval_s: 60.0,
        metrics_interval_s: 100.0,
        nsga2: Nsga2Config {
            population_size: 20,
            max_generations: 15,
            max_evaluations: 1500,
            num_threads: 2,
            ..Nsga2Config::default()
        },
        calibration: CalibrationPolicy::SplitAtBoundary,
        seed: 77,
        ..Default::default()
    }
}

/// One sampled point of the simulation's time series (Figures 6 and 9b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimePoint {
    /// Simulated time of the sample (seconds).
    pub t_s: f64,
    /// Mean fidelity of all applications completed so far.
    pub mean_fidelity: f64,
    /// Mean end-to-end completion time of all applications completed so far (s).
    pub mean_completion_s: f64,
    /// Mean QPU utilization across the fleet, in [0, 1].
    pub mean_utilization: f64,
    /// Number of jobs currently pending in the scheduler's queue.
    pub scheduler_queue_len: usize,
    /// Number of applications completed so far.
    pub completed: usize,
}

/// Per-scheduling-cycle statistics (Figures 8a, 8b, 10a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleRecord {
    /// Simulated time of the cycle.
    pub t_s: f64,
    /// Number of jobs scheduled in the cycle.
    pub num_jobs: usize,
    /// Objectives of the chosen solution.
    pub chosen: Objectives,
    /// 95th-percentile JCT of the chosen solution (seconds).
    pub chosen_p95_jct_s: f64,
    /// Minimum mean-JCT over the Pareto front.
    pub front_min_jct_s: f64,
    /// Maximum mean-JCT over the Pareto front.
    pub front_max_jct_s: f64,
    /// Maximum mean fidelity over the Pareto front.
    pub front_max_fidelity: f64,
    /// Minimum mean fidelity over the Pareto front.
    pub front_min_fidelity: f64,
    /// Mean per-job execution time of the chosen solution (seconds).
    pub chosen_mean_exec_s: f64,
    /// Minimum mean execution time over the Pareto front (seconds).
    pub front_min_exec_s: f64,
    /// Maximum mean execution time over the Pareto front (seconds).
    pub front_max_exec_s: f64,
    /// Scheduler stage runtimes (seconds): pre-processing, optimization, selection.
    pub stage_runtimes_s: [f64; 3],
}

/// One completed application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedApp {
    /// Application id.
    pub app_id: u64,
    /// Index of the QPU it ran on.
    pub qpu_index: usize,
    /// Submission time (s).
    pub submit_s: f64,
    /// Completion time = finish − submit (s).
    pub completion_s: f64,
    /// Waiting time before execution started (s).
    pub waiting_s: f64,
    /// Quantum execution time (s).
    pub execution_s: f64,
    /// Achieved fidelity.
    pub fidelity: f64,
    /// Absolute gap between the fidelity estimate the job was *scheduled*
    /// with and the estimate recomputed from the calibration in force when
    /// it finished — the realized cost of dispatching across a drift cycle
    /// with stale estimates (0 when no boundary intervened).
    pub fidelity_error: f64,
    /// Whether the application used error mitigation.
    pub mitigated: bool,
    /// Monetary cost of the execution: `shots × cost_per_shot` of the QPU it
    /// ran on (federation accounting; 0-priced fleets report 0).
    pub cost: f64,
}

/// One trigger-gated batch dispatch as seen by the simulation (ids only; the
/// chaos and drift suites compare these across runs).
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchRecord {
    /// Simulated dispatch time.
    pub t_s: f64,
    /// Every job handed to the scheduler.
    pub job_ids: Vec<JobId>,
    /// Jobs actually enqueued (placements minus the deferred set).
    pub enqueued: Vec<JobId>,
    /// Jobs pulled out at a recalibration boundary (§7 split decision).
    pub deferred: Vec<JobId>,
    /// Fleet-wide calibration epoch at dispatch.
    pub fleet_epoch: u64,
}

/// Full simulation report.
#[derive(Debug, Clone, Default)]
pub struct SimulationReport {
    /// Time series of aggregate metrics.
    pub timeline: Vec<TimePoint>,
    /// Per-scheduling-cycle records (empty under FCFS).
    pub cycles: Vec<CycleRecord>,
    /// Every trigger-gated dispatch with its §7 split decision (empty under
    /// FCFS).
    pub dispatches: Vec<DispatchRecord>,
    /// All completed applications.
    pub completed: Vec<CompletedApp>,
    /// Total busy seconds per QPU (index-aligned with the fleet), Figure 8c.
    pub qpu_busy_s: Vec<f64>,
    /// QPU names, index-aligned with `qpu_busy_s`.
    pub qpu_names: Vec<String>,
    /// Number of applications that arrived.
    pub arrived: usize,
    /// Number of applications rejected (no feasible QPU).
    pub rejected: usize,
    /// Pending jobs whose estimates were recomputed after a drift cycle.
    pub reestimated_jobs: usize,
}

impl SimulationReport {
    /// Mean fidelity over all completed applications.
    pub fn mean_fidelity(&self) -> f64 {
        mean(self.completed.iter().map(|c| c.fidelity))
    }

    /// Mean completion time over all completed applications (seconds).
    pub fn mean_completion_s(&self) -> f64 {
        mean(self.completed.iter().map(|c| c.completion_s))
    }

    /// Final mean QPU utilization.
    pub fn mean_utilization(&self) -> f64 {
        self.timeline.last().map(|p| p.mean_utilization).unwrap_or(0.0)
    }

    /// Mean absolute fidelity estimation error over all completed
    /// applications (see [`CompletedApp::fidelity_error`]).
    pub fn mean_fidelity_error(&self) -> f64 {
        mean(self.completed.iter().map(|c| c.fidelity_error))
    }

    /// Total monetary cost across all completed applications
    /// (see [`CompletedApp::cost`]).
    pub(crate) fn total_cost(&self) -> f64 {
        self.completed.iter().map(|c| c.cost).sum()
    }

    /// Mean per-application monetary cost.
    pub fn mean_cost(&self) -> f64 {
        mean(self.completed.iter().map(|c| c.cost))
    }

    /// Number of dispatches whose plan crossed a recalibration boundary.
    pub fn split_batches(&self) -> usize {
        self.dispatches.iter().filter(|d| !d.deferred.is_empty()).count()
    }

    /// Total boundary deferrals across all dispatches (a job deferred twice
    /// counts twice).
    pub fn deferred_total(&self) -> usize {
        self.dispatches.iter().map(|d| d.deferred.len()).sum()
    }

    /// Maximum relative load difference between any two QPUs (Figure 8c's
    /// "maximum load difference"): `(max − min) / max` over per-QPU busy time.
    pub fn max_load_difference(&self) -> f64 {
        let max = self.qpu_busy_s.iter().cloned().fold(0.0, f64::max);
        let min = self.qpu_busy_s.iter().cloned().fold(f64::INFINITY, f64::min);
        if max <= 0.0 {
            0.0
        } else {
            (max - min) / max
        }
    }
}

pub(crate) fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in iter {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Simulation-side bookkeeping for one application submitted to the shared
/// batch engine, keyed by the submission-service ticket.
#[derive(Debug, Clone)]
pub(crate) struct AppRecord {
    /// Per-QPU estimates (index-aligned with the fleet) the job is currently
    /// scheduled against — refreshed when the job is re-estimated after a
    /// drift cycle.
    pub(crate) estimates: Vec<FastEstimate>,
    /// The application itself (circuit + mitigation stack), kept so the
    /// estimates can be recomputed against a fresh calibration snapshot.
    pub(crate) app: HybridApplication,
}

/// The default 8-QPU IBM-like fleet of a scenario seed.
pub(crate) fn default_fleet(seed: u64) -> Fleet {
    Fleet::ibm_default(&mut StdRng::seed_from_u64(seed ^ 0xF1EE7))
}

/// The cloud simulation engine — the single-tenant scenario: one arrival
/// stream, one tenant, and either the trigger-gated Qonductor scheduler or a
/// direct-dispatch baseline.
pub struct CloudSimulation {
    config: SimulationConfig,
    fleet: Fleet,
    load: LoadGenerator,
    jitter_rng: StdRng,
    arrival_rng: StdRng,
    drift_rng: StdRng,
    /// The one tenant every application is submitted as.
    tenant: TenantId,
    /// Submission ticket → application bookkeeping (pending and in flight).
    apps: HashMap<GlobalTicket, AppRecord>,
    next_metrics_s: f64,
    report: SimulationReport,
}

impl CloudSimulation {
    /// Create a simulation over an explicit fleet.
    pub fn new(config: SimulationConfig, fleet: Fleet) -> Self {
        CloudSimulation {
            config,
            load: LoadGenerator::new(
                config.arrival,
                fleet.max_qubits(),
                config.mitigation_fraction,
            ),
            // Independent seeded streams: arrivals and calibration drift must
            // not share a generator with completion jitter, whose draw count
            // depends on the policy under test — two runs of the same seed
            // with different policies (the drift comparison's arms, the
            // Qonductor-vs-FCFS studies) then face the *identical* workload
            // and the identical calibration trajectory, and differ only in
            // scheduling.
            jitter_rng: StdRng::seed_from_u64(config.seed),
            arrival_rng: StdRng::seed_from_u64(config.seed ^ 0x0A22_17A1),
            drift_rng: StdRng::seed_from_u64(config.seed ^ 0x00D8_1F7C),
            tenant: 0,
            apps: HashMap::new(),
            next_metrics_s: 0.0,
            report: SimulationReport {
                qpu_names: fleet.members().iter().map(|m| m.qpu.name.clone()).collect(),
                ..SimulationReport::default()
            },
            fleet,
        }
    }

    /// Create a simulation over the default 8-QPU IBM-like fleet.
    pub fn with_default_fleet(config: SimulationConfig) -> Self {
        Self::new(config, default_fleet(config.seed))
    }

    /// Create a simulation over the default fleet with every device
    /// recalibrating every `period_s` seconds — the drifting-hardware
    /// scenario, where boundaries fall inside the simulated window.
    pub fn with_drifting_fleet(config: SimulationConfig, period_s: f64) -> Self {
        Self::new(config, default_fleet(config.seed).with_calibration_period(period_s, 0.0))
    }

    /// Run the simulation to completion and produce the report.
    pub fn run(self) -> SimulationReport {
        self.run_with_failures(&FailurePlan::none()).report
    }

    /// Run the simulation under fault injection: at each instant of the
    /// plan's crash schedule the control-plane leader is killed (its volatile
    /// job state dies with it), a new leader is elected, and the job state is
    /// rebuilt from the replicated `snapshot + log replay` before the
    /// simulation continues — the chaos path of the single-tenant baselines.
    pub fn run_with_failures(mut self, plan: &FailurePlan) -> ChaosReport<SimulationReport> {
        let cfg = self.config;
        // The journaled batch execution engine: every submission, admission,
        // dispatch (batch or direct), re-estimation, and completion rides the
        // quorum-replicated log of a one-shard plane leasing the whole fleet.
        let mut plane = ShardedControlPlane::new(
            1,
            self.fleet.len(),
            ScheduleTrigger::new(cfg.trigger_queue_limit, cfg.trigger_interval_s),
            cfg.calibration,
            1,
            cfg.seed ^ 0xC1A5,
        );
        self.tenant = plane
            .register_tenant_with(TenantConfig {
                weight: 1,
                max_in_flight: usize::MAX,
                max_retries: 0,
            })
            .expect(QUORUM);
        let scheduler = match cfg.policy {
            // Warm-started: each batch cycle seeds NSGA-II from the previous
            // cycle's Pareto front (like the orchestrator).
            Policy::Qonductor { preference } => {
                Some(HybridScheduler::with_warm_start(SchedulerConfig {
                    nsga2: cfg.nsga2,
                    preference,
                    boundary_penalty_weight: cfg.boundary_penalty_weight,
                    cost_weight: cfg.cost_weight,
                    ..SchedulerConfig::default()
                }))
            }
            _ => None,
        };
        kernel::run(self, plane, scheduler, (cfg.duration_s, cfg.step_s), plan)
    }
}

impl Scenario for CloudSimulation {
    type Report = SimulationReport;

    fn fleet_and_drift(&mut self) -> (&mut Fleet, &mut StdRng) {
        (&mut self.fleet, &mut self.drift_rng)
    }

    fn completed(&mut self, ticket: GlobalTicket, done: &CompletedExecution) {
        let Some(app) = self.apps.remove(&ticket) else { return };
        let submit_s = app.app.submit_time_s;
        let est = &app.estimates[done.qpu_index];
        // The estimate the job would get from the calibration in force at
        // the drain step (within one `step_s` of its actual finish): the gap
        // is the realized cost of scheduling against a stale snapshot.
        let fresh = execution_time_estimate(&self.fleet, &app.app, done.qpu_index);
        let fidelity_error = fresh.map_or(0.0, |fresh| (est.fidelity - fresh.fidelity).abs());
        let jitter = 1.0 + self.jitter_rng.gen_range(-0.02..0.02);
        let cost =
            app.app.circuit.shots() as f64 * self.fleet.members()[done.qpu_index].qpu.cost_per_shot;
        self.report.completed.push(CompletedApp {
            app_id: app.app.app_id,
            qpu_index: done.qpu_index,
            submit_s,
            completion_s: done.record.finish_time_s - submit_s,
            waiting_s: done.record.start_time_s - submit_s,
            execution_s: done.record.execution_s(),
            fidelity: (est.fidelity * jitter).clamp(0.0, 1.0),
            fidelity_error,
            mitigated: !app.app.mitigation.is_empty(),
            cost,
        });
    }

    fn submit_arrivals(&mut self, t: f64, t_next: f64, plane: &mut ShardedControlPlane) {
        for app in self.load.arrivals_in(t, t_next, &mut self.arrival_rng) {
            self.report.arrived += 1;
            let submit_time_s = app.submit_time_s;
            match build_submission(&self.fleet, app) {
                Some((spec, record)) => {
                    let ticket = plane.submit(self.tenant, spec, submit_time_s).expect(QUORUM);
                    self.apps.insert(ticket, record);
                }
                None => self.report.rejected += 1,
            }
        }
    }

    fn after_admit(&mut self, admitted: &[(GlobalTicket, JobId)], plane: &mut ShardedControlPlane) {
        // The FCFS baseline places each admitted job directly (no trigger, no
        // optimizer) through the journaled direct-dispatch path; the
        // Qonductor policy leaves jobs pooled for the batch dispatch.
        if self.config.policy == Policy::Fcfs {
            for (ticket, job_id) in admitted {
                let qpu = best_fidelity_qpu(&self.apps[ticket], &self.fleet);
                plane.shards_mut()[ticket.shard]
                    .dispatch_direct(*job_id, qpu, &mut self.fleet)
                    .expect(QUORUM);
            }
        }
        // Under the calibration-aware policy, recompute the estimates of
        // every stale *pooled* job against the current snapshots, journaling
        // each refresh. Running after admission covers the boundary-deferred
        // jobs, jobs that sat in the tenant queue across a boundary, and jobs
        // admitted only now from a pre-boundary backlog (their submit-time
        // specs carry the old epoch) — nothing dispatches stale.
        if self.config.calibration == CalibrationPolicy::SplitAtBoundary {
            for (shard, job_id) in plane.stale_pending_all(self.fleet.calibration_epoch()) {
                let Some(ticket) = plane.admitted_ticket(shard, job_id) else { continue };
                let Some(record) = self.apps.get_mut(&ticket) else { continue };
                let Some((spec, estimates)) = estimate_submission(&self.fleet, &record.app) else {
                    continue;
                };
                record.estimates = estimates;
                if plane.reestimate_job(shard, job_id, spec).expect(QUORUM) {
                    self.report.reestimated_jobs += 1;
                }
            }
        }
    }

    fn rejected(&mut self, ticket: GlobalTicket, _plane: &ShardedControlPlane) {
        if self.apps.remove(&ticket).is_some() {
            self.report.rejected += 1;
        }
    }

    fn dispatched(&mut self, shard: usize, batch: &BatchRecord, plane: &ShardedControlPlane) {
        self.report.dispatches.push(DispatchRecord {
            t_s: batch.t_s,
            job_ids: batch.job_ids.clone(),
            enqueued: batch.enqueued_job_ids(),
            deferred: batch.deferred.iter().map(|(id, _)| *id).collect(),
            fleet_epoch: batch.fleet_epoch,
        });
        if let Some(record) = cycle_record_from(batch, shard, plane, &self.apps) {
            self.report.cycles.push(record);
        }
    }

    fn end_of_step(&mut self, t_next: f64, plane: &ShardedControlPlane) {
        if t_next >= self.next_metrics_s {
            self.next_metrics_s += self.config.metrics_interval_s;
            let completed = &self.report.completed;
            self.report.timeline.push(TimePoint {
                t_s: t_next,
                mean_fidelity: mean(completed.iter().map(|c| c.fidelity)),
                mean_completion_s: mean(completed.iter().map(|c| c.completion_s)),
                mean_utilization: mean(self.fleet.members().iter().map(|m| m.queue.utilization())),
                scheduler_queue_len: plane
                    .shards()
                    .iter()
                    .map(|s| s.jobmanager().pending_len())
                    .sum(),
                completed: completed.len(),
            });
        }
    }

    fn finish(mut self, _plane: &ShardedControlPlane) -> SimulationReport {
        self.report.qpu_busy_s = self.fleet.members().iter().map(|m| m.queue.busy_s()).collect();
        self.report
    }
}

/// The estimate an application would receive *right now* on `qpu_index`
/// (against the device's current calibration), or `None` if it does not fit.
fn execution_time_estimate(
    fleet: &Fleet,
    app: &HybridApplication,
    qpu_index: usize,
) -> Option<FastEstimate> {
    let member = &fleet.members()[qpu_index];
    if member.qpu.num_qubits() < app.circuit.num_qubits() {
        return None;
    }
    Some(estimates::estimate(&app.circuit, &app.mitigation, &member.qpu))
}

/// The per-QPU fast estimates of an application against a fleet's current
/// calibration, and the engine submission that carries them. Returns `None`
/// if no QPU can fit the circuit. This is all a re-estimate after a drift
/// cycle — or a scenario that keeps no [`AppRecord`] — needs.
pub(crate) fn estimate_submission(
    fleet: &Fleet,
    app: &HybridApplication,
) -> Option<(JobSpec, Vec<FastEstimate>)> {
    let qubits = app.circuit.num_qubits();
    if qubits > fleet.max_qubits() {
        return None;
    }
    let metrics = CircuitMetrics::of(&app.circuit);
    let estimates: Vec<FastEstimate> = fleet
        .members()
        .iter()
        .map(|m| {
            if m.qpu.num_qubits() >= qubits {
                let cost = estimates::stack_cost_for(&app.circuit, &app.mitigation, &m.qpu);
                estimates::estimate_from_metrics(&metrics, cost, &m.qpu)
            } else {
                FastEstimate { fidelity: 0.0, quantum_time_s: f64::INFINITY, classical_time_s: 0.0 }
            }
        })
        .collect();
    let spec = JobSpec {
        qubits,
        shots: app.circuit.shots(),
        fidelity_per_qpu: estimates.iter().map(|e| e.fidelity).collect(),
        exec_time_per_qpu: estimates.iter().map(|e| e.quantum_time_s).collect(),
        estimate_epoch: fleet.calibration_epoch(),
    };
    Some((spec, estimates))
}

/// [`estimate_submission`] plus the bookkeeping record that takes ownership
/// of the application. Shared by the single-tenant and multi-tenant
/// simulations.
pub(crate) fn build_submission(
    fleet: &Fleet,
    mut app: HybridApplication,
) -> Option<(JobSpec, AppRecord)> {
    let (spec, estimates) = estimate_submission(fleet, &app)?;
    // The record lives until the application completes; the generator grew
    // the instruction list by doubling, and a backlog of records would hold
    // on to all that slack (measured: +6 MB peak RSS on a simulated hour).
    app.circuit.instructions_mut().shrink_to_fit();
    Some((spec, AppRecord { estimates, app }))
}

/// QPUs the application can be placed on: a finite runtime estimate and a
/// usable fidelity estimate (a NaN estimate never wins a placement).
fn placeable_qpus<'a>(app: &'a AppRecord, fleet: &Fleet) -> impl Iterator<Item = usize> + 'a {
    (0..fleet.len()).filter(|&i| {
        app.estimates[i].quantum_time_s.is_finite() && !app.estimates[i].fidelity.is_nan()
    })
}

fn best_fidelity_qpu(app: &AppRecord, fleet: &Fleet) -> usize {
    placeable_qpus(app, fleet)
        .max_by(|&a, &b| app.estimates[a].fidelity.total_cmp(&app.estimates[b].fidelity))
        .unwrap_or(0)
}

/// Derive the per-cycle statistics of Figures 8 and 10a from one of the
/// engine's batch records. `apps` is keyed by submission ticket; the control
/// plane maps engine job ids back to tickets.
fn cycle_record_from(
    batch: &BatchRecord,
    shard: usize,
    plane: &ShardedControlPlane,
    apps_by_ticket: &HashMap<GlobalTicket, AppRecord>,
) -> Option<CycleRecord> {
    if batch.job_ids.is_empty() {
        return None;
    }
    // Job-id view of the batch's applications (placed jobs stay ticket-mapped
    // until their completion resolves).
    let apps: HashMap<JobId, &AppRecord> = batch
        .job_ids
        .iter()
        .filter_map(|&job_id| {
            let ticket = plane.admitted_ticket(shard, job_id)?;
            Some((job_id, apps_by_ticket.get(&ticket)?))
        })
        .collect();
    let apps = &apps;
    let outcome = &batch.outcome;
    // The placements are ordered like the scheduler's schedulable-job list,
    // so every Pareto solution's assignment vector aligns with this order.
    let sched_order: Vec<JobId> = outcome.placements.iter().map(|p| p.job_id).collect();

    let jcts = completion_times(outcome, apps, batch);
    let p95 = percentile(&jcts, 0.95);
    let chosen_assignment: Vec<usize> = outcome.placements.iter().map(|p| p.qpu_index).collect();
    let chosen_exec = mean_exec_of(&chosen_assignment, &sched_order, apps);
    let (mut min_exec, mut max_exec) = (chosen_exec, chosen_exec);
    for sol in &outcome.pareto_front {
        let e = mean_exec_of(&sol.assignment, &sched_order, apps);
        min_exec = min_exec.min(e);
        max_exec = max_exec.max(e);
    }
    let front_min_jct =
        outcome.pareto_front.iter().map(|s| s.objectives.mean_jct_s).fold(f64::INFINITY, f64::min);
    let front_max_jct =
        outcome.pareto_front.iter().map(|s| s.objectives.mean_jct_s).fold(0.0, f64::max);
    let front_max_fid =
        outcome.pareto_front.iter().map(|s| s.objectives.mean_fidelity()).fold(0.0, f64::max);
    let front_min_fid = outcome
        .pareto_front
        .iter()
        .map(|s| s.objectives.mean_fidelity())
        .fold(f64::INFINITY, f64::min);

    Some(CycleRecord {
        t_s: batch.t_s,
        num_jobs: batch.job_ids.len(),
        chosen: outcome.chosen,
        chosen_p95_jct_s: p95,
        front_min_jct_s: front_min_jct,
        front_max_jct_s: front_max_jct,
        front_max_fidelity: front_max_fid,
        front_min_fidelity: front_min_fid,
        chosen_mean_exec_s: chosen_exec,
        front_min_exec_s: min_exec,
        front_max_exec_s: max_exec,
        stage_runtimes_s: [
            outcome.timings.preprocessing_s,
            outcome.timings.optimization_s,
            outcome.timings.selection_s,
        ],
    })
}

/// Per-job completion-time estimates of the chosen placement set (queue wait
/// + all co-scheduled execution time on the chosen QPU), mirroring Eq. 1.
fn completion_times(
    outcome: &qonductor_scheduler::ScheduleOutcome,
    apps: &HashMap<JobId, &AppRecord>,
    batch: &BatchRecord,
) -> Vec<f64> {
    let mut per_qpu_load = vec![0.0f64; batch.qpus.len()];
    for p in &outcome.placements {
        if let Some(app) = apps.get(&p.job_id) {
            per_qpu_load[p.qpu_index] += app.estimates[p.qpu_index].quantum_time_s;
        }
    }
    outcome
        .placements
        .iter()
        .map(|p| batch.qpus[p.qpu_index].waiting_time_s + per_qpu_load[p.qpu_index])
        .collect()
}

fn mean_exec_of(
    assignment: &[usize],
    sched_order: &[JobId],
    apps: &HashMap<JobId, &AppRecord>,
) -> f64 {
    let n = assignment.len().min(sched_order.len());
    if n == 0 {
        return 0.0;
    }
    let mut sum = 0.0;
    for i in 0..n {
        if let Some(app) = apps.get(&sched_order[i]) {
            let e = app.estimates[assignment[i]].quantum_time_s;
            if e.is_finite() {
                sum += e;
            }
        }
    }
    sum / n as f64
}

fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_config(policy: Policy) -> SimulationConfig {
        SimulationConfig {
            duration_s: 400.0,
            step_s: 10.0,
            arrival: ArrivalConfig { mean_rate_per_hour: 600.0, ..Default::default() },
            policy,
            trigger_queue_limit: 30,
            trigger_interval_s: 60.0,
            metrics_interval_s: 50.0,
            nsga2: Nsga2Config {
                population_size: 20,
                max_generations: 15,
                max_evaluations: 1500,
                num_threads: 2,
                ..Nsga2Config::default()
            },
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn qonductor_simulation_produces_cycles_and_completions() {
        let sim = CloudSimulation::with_default_fleet(short_config(Policy::Qonductor {
            preference: Preference::balanced(),
        }));
        let report = sim.run();
        assert!(report.arrived > 20);
        assert!(!report.cycles.is_empty(), "scheduling cycles must have run");
        assert!(!report.completed.is_empty(), "jobs must have completed");
        assert!(!report.timeline.is_empty());
        assert_eq!(report.qpu_busy_s.len(), 8);
        for c in &report.completed {
            assert!(c.fidelity >= 0.0 && c.fidelity <= 1.0);
            assert!(c.completion_s >= c.execution_s - 1e-6);
            assert!(c.waiting_s >= -1e-6);
        }
    }

    #[test]
    fn fcfs_concentrates_load_qonductor_spreads_it() {
        let fcfs = CloudSimulation::with_default_fleet(short_config(Policy::Fcfs)).run();
        let qonductor = CloudSimulation::with_default_fleet(short_config(Policy::Qonductor {
            preference: Preference::balanced(),
        }))
        .run();
        // FCFS (fidelity-greedy) leaves some QPUs idle; Qonductor spreads the load,
        // so its max-load-difference is smaller.
        assert!(
            qonductor.max_load_difference() < fcfs.max_load_difference() + 1e-9,
            "qonductor {} vs fcfs {}",
            qonductor.max_load_difference(),
            fcfs.max_load_difference()
        );
        // FCFS uses fewer distinct QPUs than Qonductor.
        let used = |r: &SimulationReport| r.qpu_busy_s.iter().filter(|&&b| b > 0.0).count();
        assert!(used(&qonductor) >= used(&fcfs));
    }

    #[test]
    fn cycle_records_are_internally_consistent() {
        let report = CloudSimulation::with_default_fleet(short_config(Policy::Qonductor {
            preference: Preference::balanced(),
        }))
        .run();
        for c in &report.cycles {
            assert!(c.front_min_jct_s <= c.chosen.mean_jct_s + 1e-6);
            assert!(c.front_max_jct_s >= c.chosen.mean_jct_s - 1e-6);
            assert!(c.front_min_fidelity <= c.chosen.mean_fidelity() + 1e-6);
            assert!(c.front_max_fidelity >= c.chosen.mean_fidelity() - 1e-6);
            assert!(c.front_min_exec_s <= c.chosen_mean_exec_s + 1e-6);
            assert!(c.front_max_exec_s >= c.chosen_mean_exec_s - 1e-6);
            assert!(c.chosen_p95_jct_s >= 0.0);
            assert!(c.num_jobs > 0);
            assert!(c.stage_runtimes_s[1] > 0.0, "optimization stage must take time");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = CloudSimulation::with_default_fleet(short_config(Policy::Fcfs)).run();
        let b = CloudSimulation::with_default_fleet(short_config(Policy::Fcfs)).run();
        assert_eq!(a.arrived, b.arrived);
        assert_eq!(a.completed.len(), b.completed.len());
        assert!((a.mean_fidelity() - b.mean_fidelity()).abs() < 1e-12);
    }

    /// Warm-started scheduling stays deterministic: two fresh simulations of
    /// the same seed produce identical batch sequences and completions.
    #[test]
    fn qonductor_policy_is_deterministic_with_warm_start() {
        let config = || short_config(Policy::Qonductor { preference: Preference::balanced() });
        let a = CloudSimulation::with_default_fleet(config()).run();
        let b = CloudSimulation::with_default_fleet(config()).run();
        assert!(!a.dispatches.is_empty());
        assert_eq!(a.dispatches, b.dispatches, "warm-started batches must be reproducible");
        assert_eq!(a.completed.len(), b.completed.len());
        assert!((a.mean_fidelity() - b.mean_fidelity()).abs() < 1e-12);
        assert!((a.mean_completion_s() - b.mean_completion_s()).abs() < 1e-9);
    }

    /// Hostile floats: a NaN fidelity estimate does not make the FCFS chooser
    /// panic, and a QPU carrying one is never preferred over a finite one.
    #[test]
    fn nan_fidelity_estimates_never_panic_and_never_win_a_placement() {
        let fleet = default_fleet(7);
        let mut load = LoadGenerator::new(ArrivalConfig::default(), 5, 0.0);
        let app = load.generate_app(0.0, &mut StdRng::seed_from_u64(7));
        let (_, mut record) = build_submission(&fleet, app).expect("a 5-qubit circuit fits");
        let finite = best_fidelity_qpu(&record, &fleet);
        for poisoned in 0..fleet.len() {
            let saved = record.estimates[poisoned].fidelity;
            record.estimates[poisoned].fidelity = f64::NAN;
            assert_ne!(best_fidelity_qpu(&record, &fleet), poisoned);
            record.estimates[poisoned].fidelity = saved;
        }
        assert_eq!(best_fidelity_qpu(&record, &fleet), finite);
        // All-NaN degenerates to the documented fallback instead of panicking.
        record.estimates.iter_mut().for_each(|e| e.fidelity = f64::NAN);
        assert_eq!(best_fidelity_qpu(&record, &fleet), 0);
    }
}
