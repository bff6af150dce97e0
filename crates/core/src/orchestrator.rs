//! The Qonductor orchestrator: the user-facing API of Table 2
//! (`create_workflow`, `deploy`, `invoke`, `workflow_results`, …) wired to the
//! control-plane components — workflow manager/registry, resource estimator,
//! hybrid scheduler, job manager — and the worker-node resources (the QPU
//! fleet and classical nodes).
//!
//! The orchestrator executes workflows against the *modelled* hybrid cluster
//! (simulated time): quantum steps are submitted into the shared batch
//! [`JobManager`](crate::jobmanager::JobManager), whose
//! [`qonductor_scheduler::ScheduleTrigger`] gates every NSGA-II + MCDM
//! scheduler invocation and dispatches whole batches onto the fleet queues;
//! classical steps are placed with the filter–score scheduler;
//! results (per-step fidelity, waiting, execution and completion times,
//! dollar cost) are kept by the orchestrator, and each run's status, every
//! dispatched batch and every re-estimation pass by the system monitor.
//! Submitting several workflows with [`Orchestrator::invoke_many`] lets their
//! quantum steps share a single scheduler invocation. The control plane's
//! journal is the one replicated store.

use crate::config::{DeploymentConfig, Priority};
use crate::estimate_cache::{
    EstimateCache, EstimateCacheStats, PlanRequest, PlanStamp, StepKey, StepRequest,
};
use crate::jobmanager::{qpu_states, CalibrationPolicy, JobId, JobSpec, TenantId, DEFAULT_TENANT};
use crate::monitor::{BatchObservation, SystemMonitor, WorkflowStatus};
use crate::registry::{HybridWorkflowImage, ImageId, WorkflowRegistry};
use crate::replication::ReplicatedControlPlane;
use crate::sharding::{GlobalTicket, ShardedControlPlane};
use crate::submission::{TenantConfig, TenantStats};
use crate::workflow::{QuantumStep, Step, Workflow};
use parking_lot::Mutex;
use qonductor_backend::Fleet;
use qonductor_estimator::{PlanGeneratorConfig, PricingTable, ResourcePlan};
use qonductor_mitigation::MitigationStack;
use qonductor_scheduler::{
    place, ClassicalNode, HybridScheduler, QpuState, ScheduleTrigger, SchedulerConfig,
};
use qonductor_transpiler::Transpiler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of a workflow invocation.
pub(crate) type RunId = u64;

/// Errors surfaced by the orchestrator API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrchestratorError {
    /// The referenced workflow image does not exist.
    ImageNotFound(ImageId),
    /// The referenced run does not exist.
    RunNotFound(RunId),
    /// No QPU in the cluster satisfies the workflow's qubit requirement.
    NoFeasibleQpu {
        /// Qubits required by the largest quantum step.
        required_qubits: u32,
    },
    /// No classical node satisfies a classical step's resource request.
    NoFeasibleClassicalNode,
    /// Resource estimation produced no feasible plan for the workflow's
    /// quantum steps (e.g. every template QPU is excluded by the deployment
    /// configuration).
    NoFeasiblePlan,
    /// The referenced submission tenant was never registered.
    UnknownTenant(TenantId),
    /// The replicated control plane cannot serve the request (no leader could
    /// be elected, or the journal has no store quorum). Surfaced by the
    /// explicit control-plane operation [`Orchestrator::failover`]; the
    /// invoke path itself assumes a standing quorum and panics if one is lost
    /// mid-flight (see [`Orchestrator::with_control`]).
    ControlPlaneUnavailable,
}

/// Execution record of one quantum step.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantumStepResult {
    /// Step name.
    pub step: String,
    /// Device the step ran on.
    pub qpu: String,
    /// Estimated fidelity, not a measured one: the analytic estimate the
    /// scheduler held for the device the step ran on (transpiled ESP lifted
    /// by the step's mitigation stack), times a ±2 % jitter, clamped to
    /// [0, 1]. No circuit is simulated on this path.
    pub fidelity: f64,
    /// Waiting time from submission to execution start (seconds): time in
    /// the batch engine's pending pool waiting for the scheduling trigger,
    /// plus time in the QPU queue.
    pub waiting_s: f64,
    /// Quantum execution time (seconds).
    pub execution_s: f64,
}

/// Execution record of one classical step.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassicalStepResult {
    /// Step name.
    pub step: String,
    /// Node the step ran on.
    pub node: String,
    /// Execution time (seconds).
    pub execution_s: f64,
}

/// The result of a completed workflow invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowResult {
    /// Invocation id.
    pub run_id: RunId,
    /// Image the run was invoked from.
    pub image_id: ImageId,
    /// The resource plan the run used.
    pub plan: ResourcePlan,
    /// Quantum step records.
    pub quantum_steps: Vec<QuantumStepResult>,
    /// Classical step records.
    pub classical_steps: Vec<ClassicalStepResult>,
    /// End-to-end completion time (seconds of simulated time).
    pub completion_s: f64,
    /// Estimated dollar cost of the run (Table 1 pricing).
    pub cost_usd: f64,
}

impl WorkflowResult {
    /// Mean fidelity over the quantum steps (1.0 if there are none).
    pub fn mean_fidelity(&self) -> f64 {
        if self.quantum_steps.is_empty() {
            return 1.0;
        }
        self.quantum_steps.iter().map(|s| s.fidelity).sum::<f64>() / self.quantum_steps.len() as f64
    }
}

struct OrchestratorState {
    fleet: Fleet,
    classical_nodes: Vec<ClassicalNode>,
    /// The journaled batch engine + submission service on a one-shard plane:
    /// every mutation of job state flows through the shard's
    /// quorum-replicated log, so [`Orchestrator::failover`] can rebuild it
    /// without losing pending jobs.
    control: ShardedControlPlane,
    clock_s: f64,
    next_run_id: RunId,
    results: Vec<WorkflowResult>,
    rng: StdRng,
    /// Memo of step estimates and resource plans by circuit content and
    /// calibration epoch. Derived data: not journaled, not in any digest.
    estimates: EstimateCache,
}

/// The Qonductor orchestrator (control plane + worker resources).
pub struct Orchestrator {
    registry: WorkflowRegistry,
    monitor: SystemMonitor,
    scheduler: HybridScheduler,
    transpiler: Transpiler,
    pricing: PricingTable,
    state: Mutex<OrchestratorState>,
}

impl Orchestrator {
    /// Create an orchestrator over a QPU fleet and a set of classical nodes.
    pub fn new(fleet: Fleet, classical_nodes: Vec<ClassicalNode>, seed: u64) -> Self {
        let trigger = ScheduleTrigger::default();
        let control = default_control_plane(fleet.len(), trigger);
        Orchestrator {
            registry: WorkflowRegistry::new(),
            monitor: SystemMonitor::default(),
            // Warm-started: each batch cycle seeds NSGA-II from the previous
            // cycle's Pareto front and reuses the optimizer workspace.
            scheduler: HybridScheduler::with_warm_start(SchedulerConfig::default()),
            transpiler: Transpiler::default(),
            pricing: PricingTable::default(),
            state: Mutex::new(OrchestratorState {
                fleet,
                classical_nodes,
                control,
                clock_s: 0.0,
                next_run_id: 0,
                results: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
                estimates: EstimateCache::default(),
            }),
        }
    }

    /// Replace the batch engine's scheduling trigger (paper defaults: 100
    /// pending jobs / 120 s). Construction-time only: replacing the engine
    /// after workflows ran would discard pending jobs and restart the job-id
    /// space. Tenants registered before the call carry over (with their
    /// configuration and ids) into the rebuilt control plane.
    ///
    /// # Panics
    /// Panics if any workflow has already been invoked.
    pub fn with_trigger(self, trigger: ScheduleTrigger) -> Self {
        self.rebuild_control(trigger);
        self
    }

    /// Rebuild the control plane with `trigger`, replaying tenant
    /// registrations so global ids are preserved.
    fn rebuild_control(&self, trigger: ScheduleTrigger) {
        let mut state = self.state.lock();
        assert!(
            state.next_run_id == 0
                && state.control.shards().iter().all(|s| s.jobmanager().pending_len() == 0),
            "with_trigger must be called before any workflow is invoked"
        );
        let mut control = default_control_plane(state.fleet.len(), trigger);
        // Re-register every pre-existing tenant beyond the default one
        // (global ids are sequential and never removed, so replaying the
        // configurations in ascending order reproduces the id space).
        for (id, config) in state.control.tenant_configs_global() {
            if id == DEFAULT_TENANT {
                continue;
            }
            let new_id =
                control.register_tenant_with(config).expect("fresh control plane has a quorum");
            debug_assert_eq!(new_id, id);
        }
        state.control = control;
    }

    /// An orchestrator over the default 8-QPU IBM-like fleet and a small
    /// classical cluster (two standard VMs and one accelerated VM).
    pub fn with_default_cluster(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let fleet = Fleet::ibm_default(&mut rng);
        let nodes = vec![
            ClassicalNode::standard_vm("vm-0"),
            ClassicalNode::standard_vm("vm-1"),
            ClassicalNode::high_end_vm("gpu-0"),
        ];
        Orchestrator::new(fleet, nodes, seed)
    }

    /// The system monitor.
    pub fn monitor(&self) -> &SystemMonitor {
        &self.monitor
    }

    /// Every fleet member as the scheduler sees it right now: name, size,
    /// estimated queue wait and calibration epoch.
    pub fn qpu_states(&self) -> Vec<QpuState> {
        qpu_states(&self.state.lock().fleet)
    }

    /// Register a submission tenant with the given fairness weight. Workflows
    /// invoked via [`Self::invoke_many_as`] under this tenant compete for
    /// batch slots through the weighted-fair admission step; plain
    /// [`Self::invoke`] / [`Self::invoke_many`] run as the default tenant.
    pub fn register_tenant(&self, weight: u32) -> TenantId {
        self.state
            .lock()
            .control
            .register_tenant(weight)
            .expect("control-plane journal has a quorum")
    }

    /// A tenant's current submission accounting (admissions, completions,
    /// rejections, mean queue wait and turnaround). The id is the *global*
    /// tenant id returned by [`Self::register_tenant`].
    pub fn tenant_stats(&self, tenant: TenantId) -> Option<TenantStats> {
        self.state.lock().control.tenant_stats(tenant)
    }

    /// Run a closure against the replicated control plane (fault-injection
    /// hooks for tests: crash/recover store replicas, inspect the journal and
    /// election cluster).
    ///
    /// Crash at most a *minority* of store replicas while invocations are in
    /// flight: the invoke path journals through the control plane with a
    /// standing-quorum assumption and panics (rather than returning
    /// [`OrchestratorError::ControlPlaneUnavailable`]) if an in-flight
    /// journal write finds no quorum.
    pub fn with_control<R>(&self, f: impl FnOnce(&ReplicatedControlPlane) -> R) -> R {
        f(self.state.lock().control.shard(0))
    }

    /// Canonical byte-for-byte encoding of the control plane's job state
    /// (batch engine + submission service, every shard); equal digests imply
    /// bit-identical states.
    pub fn control_digest(&self) -> String {
        self.state.lock().control.combined_digest()
    }

    /// Fault-inject a control-plane failover on every shard: crash each
    /// shard's elected leader (its volatile job state dies with it), elect a
    /// new leader inside the shard's store, and rebuild the batch engine +
    /// submission service deterministically from the replicated
    /// `snapshot + log replay`. No pending job is lost: every ticket issued
    /// before the crash still resolves afterwards.
    pub fn failover(&self) -> Result<(), OrchestratorError> {
        let mut state = self.state.lock();
        state.control.crash_all_leaders();
        state.control.failover_all().map_err(|_| OrchestratorError::ControlPlaneUnavailable)
    }

    /// Table 2 — *Create a workflow with hybrid code*: package a workflow and
    /// its deployment configuration into a hybrid workflow image.
    pub fn create_workflow(&self, workflow: Workflow, config: DeploymentConfig) -> ImageId {
        self.registry.register(workflow, config)
    }

    /// Table 2 — *List available hybrid workflow images*.
    pub fn list_images(&self) -> Vec<(ImageId, String)> {
        self.registry.list()
    }

    /// Table 2 — *Deploy a workflow*: validate the image against the cluster
    /// (does any QPU fit the largest quantum step?) without executing it.
    pub fn deploy(&self, image_id: ImageId) -> Result<(), OrchestratorError> {
        let image = self.image(image_id)?;
        let required = image.workflow.max_qubits().max(image.config.min_qubits);
        let state = self.state.lock();
        if required > 0 && state.fleet.max_qubits() < required {
            return Err(OrchestratorError::NoFeasibleQpu { required_qubits: required });
        }
        Ok(())
    }

    /// Table 2 — *Estimate the hybrid resources required*: generate resource
    /// plans for an image (fidelity/runtime/cost tradeoffs over template QPUs
    /// and mitigation stacks).
    pub fn estimate_resources(
        &self,
        image_id: ImageId,
    ) -> Result<Vec<ResourcePlan>, OrchestratorError> {
        let image = self.image(image_id)?;
        let digests = step_digests(&image);
        let mut state = self.state.lock();
        let mut plans = self.plan_images(&mut state, &[(&image, &digests)]);
        Ok(plans.pop().expect("one plan list per image"))
    }

    /// Hit/miss/stale/eviction counts of the estimate cache since
    /// construction.
    pub fn estimate_cache_stats(&self) -> EstimateCacheStats {
        self.state.lock().estimates.stats()
    }

    /// Plan generation for several images (each with its [`step_digests`])
    /// against an already-locked state, as one batch of the estimate cache:
    /// one plan list per image, in order.
    fn plan_images(
        &self,
        state: &mut OrchestratorState,
        images: &[(&HybridWorkflowImage, &[Option<u128>])],
    ) -> Vec<Vec<ResourcePlan>> {
        let fleet_epoch = state.fleet.calibration_epoch();
        let accelerators_available = state.classical_nodes.iter().any(|n| n.accelerators > 0);
        let stamps: Vec<PlanStamp> = images
            .iter()
            .map(|(image, _)| PlanStamp {
                fleet_epoch,
                preferred_models: image.config.preferred_models.clone(),
                min_qubits: image.config.min_qubits,
                generator: PlanGeneratorConfig {
                    num_plans: image.config.num_resource_plans,
                    pricing: self.pricing,
                    accelerators_available,
                },
            })
            .collect();
        let mut requests = Vec::new();
        for ((image, digests), stamp) in images.iter().zip(&stamps) {
            for (step, digest) in image.workflow.steps().iter().zip(*digests) {
                if let (Step::Quantum(q), Some(digest)) = (step, digest) {
                    requests.push(PlanRequest { digest: *digest, circuit: &q.circuit, stamp });
                }
            }
        }
        let mut step_plans = state.estimates.plans(&requests, &state.fleet).into_iter();
        images
            .iter()
            .map(|(_, digests)| {
                let quantum_steps = digests.iter().flatten().count();
                let mut plans = Vec::new();
                for one_step in step_plans.by_ref().take(quantum_steps) {
                    plans.extend_from_slice(&one_step);
                }
                plans
            })
            .collect()
    }

    /// Table 2 — *Invoke a workflow*: execute the image end-to-end on the
    /// hybrid cluster and return the run id. The run's status is recorded in
    /// the system monitor, its results in the orchestrator. Quantum steps go
    /// through the shared batch engine: the run's jobs wait in the pending
    /// pool until the scheduling trigger fires (for a lone invocation, the
    /// interval trigger).
    pub fn invoke(&self, image_id: ImageId) -> Result<RunId, OrchestratorError> {
        self.invoke_many(&[image_id]).pop().expect("one result per image")
    }

    /// Invoke several workflows as one submission wave: their quantum steps
    /// enter the batch engine's pending pool together, so one trigger firing
    /// schedules them in a single NSGA-II invocation (multi-workflow
    /// batching, §7). Returns one result per input image, in order.
    pub fn invoke_many(&self, image_ids: &[ImageId]) -> Vec<Result<RunId, OrchestratorError>> {
        self.invoke_many_as(DEFAULT_TENANT, image_ids)
    }

    /// [`Self::invoke_many`] on behalf of a registered submission tenant: the
    /// wave's quantum jobs ride the tenant's FIFO queue and the weighted-fair
    /// admission step before reaching the batch engine's pending pool.
    pub fn invoke_many_as(
        &self,
        tenant: TenantId,
        image_ids: &[ImageId],
    ) -> Vec<Result<RunId, OrchestratorError>> {
        let mut state = self.state.lock();
        let state = &mut *state;
        if state.control.tenant_stats(tenant).is_none() {
            return image_ids
                .iter()
                .map(|_| Err(OrchestratorError::UnknownTenant(tenant)))
                .collect();
        }
        // Plan-time calibration freshness: apply any recalibration boundary
        // the clock has already crossed *before* resource plans are generated
        // and priorities picked, so `pick_plan` and the per-step estimates
        // read the current epoch's calibration, never a stale snapshot left
        // over from the previous invocation wave.
        state.fleet.sync_calibrations(state.clock_s, &mut state.rng);

        // Resolve the wave's images once and plan them as one batch: the
        // plans of distinct circuits are independent, so the cache computes
        // what it is missing on every core. The digests are taken once per
        // quantum step per invocation; the plan lookup and every later
        // estimate of the step reuse them.
        let resolved: Vec<Result<_, OrchestratorError>> = image_ids
            .iter()
            .map(|&id| self.image(id).map(|image| (step_digests(&image), image)))
            .collect();
        let to_plan: Vec<(&HybridWorkflowImage, &[Option<u128>])> = resolved
            .iter()
            .flatten()
            .map(|(digests, image)| (&**image, digests.as_slice()))
            .collect();
        let mut planned = self.plan_images(state, &to_plan).into_iter();

        // One slot per input: either an early error or an index into `runs`.
        let mut slots: Vec<Result<usize, OrchestratorError>> = Vec::with_capacity(image_ids.len());
        let mut runs: Vec<ActiveRun> = Vec::new();

        for resolved in resolved {
            let (digests, image) = match resolved {
                Ok(resolved) => resolved,
                Err(e) => {
                    slots.push(Err(e));
                    continue;
                }
            };
            let plans = planned.next().expect("one plan list per resolved image");
            let run_id = state.next_run_id;
            state.next_run_id += 1;
            self.monitor.set_workflow_status(run_id, WorkflowStatus::Pending);

            let plan = if digests.iter().any(Option::is_some) {
                match pick_plan(&plans, image.config.priority) {
                    Some(plan) => plan.clone(),
                    None => {
                        self.monitor.set_workflow_status(run_id, WorkflowStatus::Failed);
                        slots.push(Err(OrchestratorError::NoFeasiblePlan));
                        continue;
                    }
                }
            } else {
                classical_only_plan()
            };

            self.monitor.set_workflow_status(run_id, WorkflowStatus::Running);
            let order =
                image.workflow.topological_order().expect("registry guarantees acyclic workflows");
            slots.push(Ok(runs.len()));
            runs.push(ActiveRun {
                run_id,
                image,
                digests,
                plan,
                order,
                cursor: 0,
                start_s: state.clock_s,
                clock_s: state.clock_s,
                awaiting_job: false,
                quantum_steps: Vec::new(),
                classical_steps: Vec::new(),
                quantum_time_total: 0.0,
                classical_time_total: 0.0,
                failed: None,
            });
        }

        // Alternate submission waves and engine drives until every run has
        // either finished all its steps or failed. Tickets are shard-qualified
        // ([`GlobalTicket`]): per-shard ticket ids collide across shards.
        let mut awaiting: HashMap<GlobalTicket, AwaitedStep> = HashMap::new();
        loop {
            self.submit_round(state, &mut runs, tenant, &mut awaiting);
            if awaiting.is_empty() {
                break;
            }
            self.drive_engine(state, &mut runs, &mut awaiting);
        }

        // Finalize: keep results and map runs back to input order.
        slots
            .into_iter()
            .map(|slot| {
                let run = &mut runs[slot?];
                if let Some(e) = run.failed.take() {
                    self.monitor.set_workflow_status(run.run_id, WorkflowStatus::Failed);
                    return Err(e);
                }
                let result = run.finish(&self.pricing);
                self.monitor.set_workflow_status(run.run_id, WorkflowStatus::Completed);
                let run_id = run.run_id;
                state.results.push(result);
                Ok(run_id)
            })
            .collect()
    }

    /// One submission round: advance every unblocked run through its
    /// classical steps to its next quantum step, estimate those steps as one
    /// batch of the estimate cache, and submit them — in run order — into the
    /// tenant's queue (non-blocking). A submitted run parks until
    /// [`Self::drive_engine`] admits, schedules, and delivers its job.
    fn submit_round(
        &self,
        state: &mut OrchestratorState,
        runs: &mut [ActiveRun],
        tenant: TenantId,
        awaiting: &mut HashMap<GlobalTicket, AwaitedStep>,
    ) {
        // (run, step, estimate-cache key, mitigation stack) of every step due.
        let mut due: Vec<(usize, usize, StepKey, MitigationStack)> = Vec::new();
        for (run_index, run) in runs.iter_mut().enumerate() {
            let Some(step_index) = run.advance_to_quantum_step(&state.classical_nodes) else {
                continue;
            };
            let step = run.quantum_step(step_index);
            let stack = if step.mitigation.is_empty() {
                run.plan.stack.clone()
            } else {
                step.mitigation.clone()
            };
            let digest = run.digests[step_index].expect("every quantum step has a digest");
            due.push((run_index, step_index, StepKey::new(digest, &stack), stack));
        }
        // Estimates are computed against the *engine clock's* epoch (never a
        // run-local clock, which classical steps can push arbitrarily far
        // ahead — recalibrating to a future instant would consume boundaries
        // other runs' plans must still split at). If the engine clock crosses
        // a boundary before a job dispatches, the drive loop's re-estimation
        // pass refreshes it.
        let requests: Vec<StepRequest<'_>> = due
            .iter()
            .map(|(run_index, step_index, key, stack)| StepRequest {
                key: *key,
                circuit: &runs[*run_index].quantum_step(*step_index).circuit,
                stack,
            })
            .collect();
        let estimates = state.estimates.step_estimates(&requests, &state.fleet, &self.transpiler);
        drop(requests);

        for ((run_index, step_index, key, stack), estimate) in due.into_iter().zip(estimates) {
            let (fidelity_per_qpu, exec_time_per_qpu) = estimate;
            let run = &mut runs[run_index];
            let step = run.quantum_step(step_index);
            let required_qubits = step.circuit.num_qubits();
            if fidelity_per_qpu.iter().all(|&f| f <= 0.0) {
                run.failed = Some(OrchestratorError::NoFeasibleQpu { required_qubits });
                continue;
            }
            let spec = JobSpec {
                qubits: required_qubits,
                shots: step.circuit.shots(),
                fidelity_per_qpu: fidelity_per_qpu.clone(),
                exec_time_per_qpu,
                estimate_epoch: state.fleet.calibration_epoch(),
            };
            let ticket = state
                .control
                .submit(tenant, spec, run.clock_s)
                .expect("tenant validated at wave entry; journal has a quorum");
            awaiting.insert(
                ticket,
                AwaitedStep {
                    run_index,
                    step_index,
                    submitted_s: run.clock_s,
                    fidelity_per_qpu,
                    key,
                    stack,
                },
            );
            run.awaiting_job = true;
            run.cursor += 1;
        }
    }

    /// Drive the batch engine in event order until at least one awaited job
    /// completes (or a batch terminally rejects one): run the weighted-fair
    /// admission pass, advance simulated time to the earliest of the next
    /// queued completion and the next trigger firing, deliver any completions
    /// at that instant — freed runs return to the submission wave before
    /// anything else is dispatched — and otherwise dispatch the pool as one
    /// batch when the trigger is due. Every dispatched batch is recorded in
    /// the system monitor with its per-tenant composition.
    fn drive_engine(
        &self,
        state: &mut OrchestratorState,
        runs: &mut [ActiveRun],
        awaiting: &mut HashMap<GlobalTicket, AwaitedStep>,
    ) {
        let mut rounds = 0usize;
        while !awaiting.is_empty() {
            rounds += 1;
            assert!(rounds < 10_000, "batch engine failed to converge");

            // Weighted-fair admission: drain tenant queues into the pending
            // pool (up to the trigger's queue limit) before looking for the
            // next event, so freshly submitted or re-queued jobs count. The
            // pass is journaled through the replicated control plane.
            state.control.admit(state.clock_s).expect("control-plane journal has a quorum");

            // Next simulated instant anything can happen: a queued job
            // completing, or the trigger firing (interval expiry, or the
            // queue-limit-th pooled submission) — whichever comes first.
            // Queued completions at the same instant are delivered before
            // dispatching, so freed runs can submit their next steps in time
            // to join the upcoming batch.
            let next_event = state.control.next_event_s(&state.fleet);
            let next_trigger = state.control.next_trigger_s();
            let target = match (next_event, next_trigger) {
                (Some(e), Some(t)) => e.min(t),
                (Some(e), None) => e,
                (None, Some(t)) => t,
                (None, None) => unreachable!("awaited jobs are queued, pooled, or enqueued"),
            }
            .max(state.clock_s);
            state.fleet.advance_to(target, &mut state.rng);
            state.clock_s = target;

            // Re-estimate every pending job whose estimate table predates
            // the current fleet epoch (jobs a split parked behind the
            // boundary, jobs admitted from a pre-boundary tenant-queue
            // backlog, and any still-pooled job), journaling each refresh so
            // failover replays it byte-for-byte. Cheap when nothing is
            // stale, so it runs every round rather than only on rounds whose
            // own advance crossed a boundary.
            let epoch = state.fleet.calibration_epoch();
            self.reestimate_stale_pending(state, runs, awaiting, epoch);

            // Deliver completions up to this instant (journaled per ticket on
            // the shard that leases the QPU the job ran on).
            let mut delivered = 0usize;
            for (ticket, completion) in state
                .control
                .drain_and_note(&mut state.fleet)
                .expect("control-plane journal has a quorum")
            {
                let Some(step) = awaiting.remove(&ticket) else { continue };
                let run = &mut runs[step.run_index];
                let jitter = 1.0 + state.rng.gen_range(-0.02..0.02);
                run.quantum_steps.push(QuantumStepResult {
                    step: run.quantum_step(step.step_index).name.clone(),
                    qpu: state.fleet.members()[completion.qpu_index].qpu.name.clone(),
                    fidelity: (step.fidelity_per_qpu[completion.qpu_index] * jitter)
                        .clamp(0.0, 1.0),
                    // Waiting from submission: pool wait (for the trigger)
                    // plus queue wait, matching the cloud simulation's
                    // definition over the same engine.
                    waiting_s: completion.record.start_time_s - step.submitted_s,
                    execution_s: completion.record.execution_s(),
                });
                run.quantum_time_total += completion.record.execution_s();
                run.clock_s = run.clock_s.max(completion.record.finish_time_s);
                run.awaiting_job = false;
                delivered += 1;
            }
            if delivered > 0 {
                // Hand control back so unblocked runs can submit their next
                // steps (possibly joining the next batch) before driving on.
                return;
            }

            // No completions at this instant: dispatch on every shard whose
            // trigger is due (the queues are already advanced to the dispatch
            // time). Each dispatch is journaled as one event on its shard.
            let outcomes = state
                .control
                .try_dispatch(state.clock_s, &self.scheduler, &mut state.fleet)
                .expect("control-plane journal has a quorum");
            let mut any_rejected = false;
            for (shard, outcome) in outcomes {
                let batch = outcome.record;
                // Calibration-crossover splits surface as the jobs pulled out
                // of the batch and parked behind the boundary.
                self.monitor.record_schedule_batch(BatchObservation {
                    batch_index: batch.batch_index,
                    t_s: batch.t_s,
                    reason: batch.reason,
                    num_jobs: batch.job_ids.len(),
                    tenant_jobs: batch.tenant_jobs,
                    fleet_epoch: batch.fleet_epoch,
                    deferred_jobs: batch.deferred.iter().map(|(id, _)| *id).collect(),
                });
                // Scheduler-rejected jobs return to their tenant queue for
                // re-admission until the retry budget runs out; only the
                // terminal rejections fail their runs.
                for ticket in outcome.terminal_rejections {
                    if let Some(step) = awaiting.remove(&GlobalTicket { shard, ticket }) {
                        let run = &mut runs[step.run_index];
                        run.failed = Some(OrchestratorError::NoFeasibleQpu {
                            required_qubits: run.quantum_step(step.step_index).circuit.num_qubits(),
                        });
                        run.awaiting_job = false;
                        any_rejected = true;
                    }
                }
            }
            if any_rejected && awaiting.is_empty() {
                return;
            }
        }
    }

    /// Re-estimate every pending job whose estimate table predates the
    /// current fleet calibration epoch: recompute the per-QPU
    /// fidelity/execution estimates from the step's circuit and mitigation
    /// stack against the *new* calibration snapshots (one batch of the
    /// estimate cache; only the devices whose epoch moved are re-transpiled),
    /// journal each refresh through the control plane, and record the pass in
    /// the system monitor.
    fn reestimate_stale_pending(
        &self,
        state: &mut OrchestratorState,
        runs: &[ActiveRun],
        awaiting: &mut HashMap<GlobalTicket, AwaitedStep>,
        epoch: u64,
    ) {
        let stale: Vec<(usize, JobId, GlobalTicket)> = state
            .control
            .stale_pending_all(epoch)
            .into_iter()
            .filter_map(|(shard, job_id)| {
                let ticket = state.control.admitted_ticket(shard, job_id)?;
                awaiting.contains_key(&ticket).then_some((shard, job_id, ticket))
            })
            .collect();
        if stale.is_empty() {
            return;
        }
        let requests: Vec<StepRequest<'_>> = stale
            .iter()
            .map(|(_, _, ticket)| {
                let step = &awaiting[ticket];
                StepRequest {
                    key: step.key,
                    circuit: &runs[step.run_index].quantum_step(step.step_index).circuit,
                    stack: &step.stack,
                }
            })
            .collect();
        let estimates = state.estimates.step_estimates(&requests, &state.fleet, &self.transpiler);
        drop(requests);

        let mut refreshed: Vec<JobId> = Vec::new();
        for ((shard, job_id, ticket), estimate) in stale.into_iter().zip(estimates) {
            let (fidelity_per_qpu, exec_time_per_qpu) = estimate;
            let step = awaiting.get_mut(&ticket).expect("filtered to awaited tickets above");
            let circuit = &runs[step.run_index].quantum_step(step.step_index).circuit;
            let spec = JobSpec {
                qubits: circuit.num_qubits(),
                shots: circuit.shots(),
                fidelity_per_qpu: fidelity_per_qpu.clone(),
                exec_time_per_qpu,
                estimate_epoch: epoch,
            };
            // The step's result fidelity is read from these estimates at
            // delivery: keep them in lock-step with what the engine now
            // schedules against (the plane re-masks the spec to the shard's
            // lease before journaling, like a submission).
            step.fidelity_per_qpu = fidelity_per_qpu;
            if state
                .control
                .reestimate_job(shard, job_id, spec)
                .expect("control-plane journal has a quorum")
            {
                refreshed.push(job_id);
            }
        }
        if !refreshed.is_empty() {
            self.monitor.record_reestimation(state.clock_s, epoch, refreshed);
        }
    }

    /// Table 2 — *Get the workflow results*.
    pub fn workflow_results(&self, run_id: RunId) -> Result<WorkflowResult, OrchestratorError> {
        self.state
            .lock()
            .results
            .iter()
            .find(|r| r.run_id == run_id)
            .cloned()
            .ok_or(OrchestratorError::RunNotFound(run_id))
    }

    /// Execution status of a run (from the system monitor).
    pub fn workflow_status(&self, run_id: RunId) -> Option<WorkflowStatus> {
        self.monitor.workflow_status(run_id)
    }

    fn image(&self, image_id: ImageId) -> Result<Arc<HybridWorkflowImage>, OrchestratorError> {
        self.registry.get(image_id).ok_or(OrchestratorError::ImageNotFound(image_id))
    }
}

/// Execution state of one in-flight workflow invocation.
struct ActiveRun {
    run_id: RunId,
    image: Arc<HybridWorkflowImage>,
    /// The image's [`step_digests`].
    digests: Vec<Option<u128>>,
    plan: ResourcePlan,
    /// Topological step order.
    order: Vec<usize>,
    /// Next position in `order`.
    cursor: usize,
    /// Simulated time the run started.
    start_s: f64,
    /// Run-local simulated time (advances past classical steps and to each
    /// quantum completion).
    clock_s: f64,
    /// Whether the run is parked on a submitted quantum job.
    awaiting_job: bool,
    quantum_steps: Vec<QuantumStepResult>,
    classical_steps: Vec<ClassicalStepResult>,
    quantum_time_total: f64,
    classical_time_total: f64,
    failed: Option<OrchestratorError>,
}

impl ActiveRun {
    /// The quantum step at `step_index` of the run's workflow.
    fn quantum_step(&self, step_index: usize) -> &QuantumStep {
        match &self.image.workflow.steps()[step_index] {
            Step::Quantum(step) => step,
            Step::Classical(_) => unreachable!("step {step_index} was submitted as quantum"),
        }
    }

    /// Execute the run's steps in topological order until it reaches a
    /// quantum step — whose index is returned, the cursor still on it — or
    /// fails, finishes, or is parked on a submitted job. Classical steps
    /// advance the run's local clock immediately.
    fn advance_to_quantum_step(&mut self, nodes: &[ClassicalNode]) -> Option<usize> {
        if self.failed.is_some() || self.awaiting_job {
            return None;
        }
        while self.cursor < self.order.len() {
            let step_index = self.order[self.cursor];
            let step = match &self.image.workflow.steps()[step_index] {
                Step::Quantum(_) => return Some(step_index),
                Step::Classical(step) => step,
            };
            let Some(node_index) = place(nodes, &step.request) else {
                self.failed = Some(OrchestratorError::NoFeasibleClassicalNode);
                return None;
            };
            let duration = step.estimated_duration_s;
            self.clock_s += duration;
            self.classical_time_total += duration;
            self.classical_steps.push(ClassicalStepResult {
                step: step.name.clone(),
                node: nodes[node_index].name.clone(),
                execution_s: duration,
            });
            self.cursor += 1;
        }
        None
    }

    /// Build the final result record of a completed run.
    fn finish(&mut self, pricing: &PricingTable) -> WorkflowResult {
        let cost_usd = pricing.hybrid_job_cost_usd(
            self.quantum_time_total,
            self.classical_time_total,
            self.plan.uses_accelerator,
        );
        WorkflowResult {
            run_id: self.run_id,
            image_id: self.image.id,
            plan: self.plan.clone(),
            quantum_steps: std::mem::take(&mut self.quantum_steps),
            classical_steps: std::mem::take(&mut self.classical_steps),
            completion_s: self.clock_s - self.start_s,
            cost_usd,
        }
    }
}

/// Bookkeeping for a quantum step parked in the batch engine.
struct AwaitedStep {
    /// The step's run (index into the wave's runs) and its index in that
    /// run's workflow: where its name and circuit live.
    run_index: usize,
    step_index: usize,
    /// Run-local simulated time of the submission (waiting is measured from
    /// here: pool wait for the trigger + queue wait).
    submitted_s: f64,
    fidelity_per_qpu: Vec<f64>,
    /// The step's estimate-cache key and mitigation stack, kept so a pending
    /// job pulled out of a batch at a recalibration boundary can be
    /// re-estimated against the post-boundary calibration snapshot.
    key: StepKey,
    stack: MitigationStack,
}

/// A one-shard replicated control plane (f = 1: three store replicas with
/// the leader lease inside the store) whose batch engine splits plans at
/// recalibration boundaries (§7) and whose tenant 0 mirrors
/// the legacy single-caller path: weight 1, unbounded in-flight, and no
/// rejection retries (a scheduler rejection fails the awaiting run
/// immediately, as before the submission service existed).
fn default_control_plane(num_qpus: usize, trigger: ScheduleTrigger) -> ShardedControlPlane {
    let mut control =
        ShardedControlPlane::new(1, num_qpus, trigger, CalibrationPolicy::SplitAtBoundary, 1, 0);
    let tenant = control
        .register_tenant_with(TenantConfig { weight: 1, max_in_flight: usize::MAX, max_retries: 0 })
        .expect("fresh store has a quorum");
    debug_assert_eq!(tenant, DEFAULT_TENANT);
    control
}

/// Content digest of each quantum step's circuit, indexed like
/// `image.workflow.steps()` (`None` for classical steps).
fn step_digests(image: &HybridWorkflowImage) -> Vec<Option<u128>> {
    image
        .workflow
        .steps()
        .iter()
        .map(|step| match step {
            Step::Quantum(q) => Some(q.circuit.content_digest()),
            Step::Classical(_) => None,
        })
        .collect()
}

/// The neutral plan used by workflows without quantum steps.
fn classical_only_plan() -> ResourcePlan {
    ResourcePlan {
        stack_label: "classical-only".into(),
        stack: MitigationStack::none(),
        qpu_model: "none".into(),
        estimated_fidelity: 1.0,
        quantum_time_s: 0.0,
        classical_time_s: 0.0,
        uses_accelerator: false,
        cost_usd: 0.0,
    }
}

/// Pick the plan matching a priority: highest fidelity, lowest total time, or
/// the most balanced (closest to the fidelity-per-second knee).
fn pick_plan(plans: &[ResourcePlan], priority: Priority) -> Option<&ResourcePlan> {
    if plans.is_empty() {
        return None;
    }
    match priority {
        Priority::Fidelity => {
            plans.iter().max_by(|a, b| a.estimated_fidelity.total_cmp(&b.estimated_fidelity))
        }
        Priority::CompletionTime => {
            plans.iter().min_by(|a, b| a.total_time_s().total_cmp(&b.total_time_s()))
        }
        Priority::Balanced => {
            let max_f = plans.iter().map(|p| p.estimated_fidelity).fold(0.0, f64::max);
            let max_t = plans.iter().map(|p| p.total_time_s()).fold(0.0, f64::max);
            plans.iter().max_by(|a, b| {
                let score = |p: &ResourcePlan| {
                    p.estimated_fidelity / max_f.max(1e-9)
                        - 0.5 * p.total_time_s() / max_t.max(1e-9)
                };
                score(a).total_cmp(&score(b))
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::{
        mitigated_execution_workflow, ClassicalKind, ClassicalStep, QuantumStep,
    };
    use qonductor_circuit::generators::{ghz, qaoa_maxcut, MaxCutGraph};
    use qonductor_circuit::Circuit;
    use qonductor_scheduler::ClassicalRequest;

    /// A VQE/QAOA-style loop: `iterations` × (classical update of
    /// `classical_s` seconds → evaluation of `circuit`).
    fn iterative_image(
        orchestrator: &Orchestrator,
        name: &str,
        circuit: &Circuit,
        iterations: usize,
        classical_s: f64,
    ) -> ImageId {
        let mut steps = Vec::new();
        for i in 0..iterations {
            steps.push(Step::Classical(ClassicalStep {
                name: format!("{name}-update-{i}"),
                kind: ClassicalKind::Computation,
                request: ClassicalRequest::small(),
                estimated_duration_s: classical_s,
            }));
            steps.push(Step::Quantum(QuantumStep {
                name: format!("{name}-evaluate-{i}"),
                circuit: circuit.clone(),
                mitigation: MitigationStack::listing2(),
            }));
        }
        orchestrator.create_workflow(Workflow::chain(name, steps), DeploymentConfig::default())
    }

    /// Regression (the interval-trigger livelock): a long-lived orchestrator
    /// whose waves leave partial batches for the interval trigger at
    /// fractional instants (0.3 s classical steps) keeps converging.
    #[test]
    fn consecutive_waves_with_fractional_trigger_instants_converge() {
        let orchestrator = Orchestrator::with_default_cluster(3);
        let images: Vec<ImageId> = (0..6)
            .map(|i| iterative_image(&orchestrator, &format!("app{i}"), &ghz(4 + i), 3, 0.3))
            .collect();
        for wave in 0..3 {
            for run in orchestrator.invoke_many(&images) {
                let run = run.unwrap_or_else(|e| panic!("wave {wave}: {e:?}"));
                assert_eq!(orchestrator.workflow_status(run), Some(WorkflowStatus::Completed));
            }
        }
    }

    /// The estimate cache changes nothing but speed: eight waves of the same
    /// images on a warm orchestrator and on one whose cache is cleared before
    /// every wave give equal results and equal control digests — across a
    /// control-plane failover and across recalibration boundaries.
    #[test]
    fn estimate_cache_warm_and_cleared_orchestrators_agree() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(12);
            // A 400 s cadence: eight ≥ 120 s waves cross several boundaries.
            let fleet = Fleet::ibm_default(&mut rng).with_calibration_period(400.0, 0.0);
            let nodes = vec![ClassicalNode::standard_vm("vm-0"), ClassicalNode::high_end_vm("g0")];
            let orchestrator = Orchestrator::new(fleet, nodes, 12);
            let qaoa = qaoa_maxcut(&MaxCutGraph::ring(8), &[0.4], &[0.7]);
            let mut renamed = qaoa.clone();
            renamed.set_name("same-content-other-name");
            let images = vec![
                iterative_image(&orchestrator, "qaoa", &qaoa, 3, 0.25),
                iterative_image(&orchestrator, "qaoa-again", &renamed, 2, 0.25),
                iterative_image(&orchestrator, "ghz", &ghz(12), 2, 0.25),
                ghz_image(&orchestrator, 20, true),
            ];
            (orchestrator, images)
        };
        let (warm, images) = build();
        let (cleared, cleared_images) = build();
        assert_eq!(images, cleared_images);
        for wave in 0..8 {
            if wave == 3 {
                warm.failover().unwrap();
                cleared.failover().unwrap();
            }
            cleared.state.lock().estimates.clear();
            let warm_runs = warm.invoke_many(&images);
            let cleared_runs = cleared.invoke_many(&images);
            assert_eq!(warm_runs, cleared_runs);
            for run in warm_runs {
                let run = run.expect("every image runs");
                assert_eq!(
                    warm.workflow_results(run).unwrap(),
                    cleared.workflow_results(run).unwrap(),
                    "wave {wave}, run {run}"
                );
            }
            assert_eq!(warm.control_digest(), cleared.control_digest(), "wave {wave}");
            for &image in &images {
                assert_eq!(warm.estimate_resources(image), cleared.estimate_resources(image));
            }
        }
        let (warm, cleared) = (warm.estimate_cache_stats(), cleared.estimate_cache_stats());
        assert!(warm.steps.stale_recomputes > 0, "a recalibration boundary was crossed");
        assert!(warm.steps.hits > cleared.steps.hits && warm.steps.misses < cleared.steps.misses);
        assert!(warm.plans.hits > cleared.plans.hits);
    }

    /// The public cache accounting counts every lookup of every wave.
    #[test]
    fn estimate_cache_stats_count_every_wave() {
        let orchestrator = Orchestrator::with_default_cluster(13);
        assert_eq!(orchestrator.estimate_cache_stats(), EstimateCacheStats::default());
        let image = iterative_image(&orchestrator, "ghz", &ghz(6), 2, 0.25);
        orchestrator.invoke(image).unwrap();
        let first = orchestrator.estimate_cache_stats();
        // Two evaluations of one circuit on eight devices; one plan per step.
        assert_eq!((first.steps.misses, first.steps.hits), (8, 8));
        assert_eq!((first.plans.misses, first.plans.hits), (1, 1));
        orchestrator.invoke(image).unwrap();
        let second = orchestrator.estimate_cache_stats();
        assert_eq!((second.steps.misses, second.steps.hits), (8, 24));
        assert_eq!((second.plans.misses, second.plans.hits), (1, 3));
    }

    /// A work item that panics inside a batch panics the call that issued
    /// it — plans or step estimates, it does not hang — and the orchestrator
    /// keeps answering afterwards.
    #[test]
    fn a_panicking_estimate_surfaces_and_the_orchestrator_keeps_answering() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut rng = StdRng::seed_from_u64(14);
        let fleet = crate::estimate_cache::fleet_with_an_unroutable_device(&mut rng);
        let orchestrator = Orchestrator::new(fleet, vec![ClassicalNode::standard_vm("vm-0")], 14);
        let (routable, unroutable) =
            (ghz_image(&orchestrator, 2, false), ghz_image(&orchestrator, 4, false));
        let estimate =
            catch_unwind(AssertUnwindSafe(|| orchestrator.estimate_resources(unroutable)));
        assert!(estimate.is_err(), "ghz(4) cannot be routed on the split template");
        let wave = [routable, unroutable, routable];
        assert!(catch_unwind(AssertUnwindSafe(|| orchestrator.invoke_many(&wave))).is_err());

        assert!(!orchestrator.estimate_resources(routable).unwrap().is_empty());
        let run = orchestrator.invoke(routable).unwrap();
        assert_eq!(orchestrator.workflow_status(run), Some(WorkflowStatus::Completed));
    }

    fn ghz_image(orchestrator: &Orchestrator, n: u32, mitigated: bool) -> ImageId {
        let stack = if mitigated { MitigationStack::listing2() } else { MitigationStack::none() };
        let wf = mitigated_execution_workflow(
            format!("ghz{n}"),
            ghz(n),
            stack,
            ClassicalRequest::small(),
        );
        orchestrator.create_workflow(wf, DeploymentConfig::default())
    }

    #[test]
    fn end_to_end_invoke_produces_results() {
        let orchestrator = Orchestrator::with_default_cluster(1);
        let image = ghz_image(&orchestrator, 8, true);
        orchestrator.deploy(image).unwrap();
        let run = orchestrator.invoke(image).unwrap();
        assert_eq!(orchestrator.workflow_status(run), Some(WorkflowStatus::Completed));
        let result = orchestrator.workflow_results(run).unwrap();
        assert_eq!(result.quantum_steps.len(), 1);
        assert_eq!(result.classical_steps.len(), 2);
        assert!(result.mean_fidelity() > 0.0 && result.mean_fidelity() <= 1.0);
        assert!(result.completion_s > 0.0);
        assert!(result.cost_usd > 0.0);
    }

    /// A run whose plan list is empty — every template excluded by
    /// `preferred_models` — is reported `Failed` under its own run id, and
    /// the runs on either side of it in the wave complete.
    #[test]
    fn a_run_without_a_feasible_plan_is_reported_failed() {
        let orchestrator = Orchestrator::with_default_cluster(9);
        let feasible = ghz_image(&orchestrator, 6, false);
        let excluded = orchestrator.create_workflow(
            mitigated_execution_workflow(
                "ghz6-excluded",
                ghz(6),
                MitigationStack::none(),
                ClassicalRequest::small(),
            ),
            DeploymentConfig {
                preferred_models: vec!["no-such-model".into()],
                ..Default::default()
            },
        );
        assert_eq!(orchestrator.estimate_resources(excluded), Ok(Vec::new()));
        let runs = orchestrator.invoke_many(&[feasible, excluded, feasible]);
        assert_eq!(runs, vec![Ok(0), Err(OrchestratorError::NoFeasiblePlan), Ok(2)]);
        let statuses: Vec<_> = (0..4).map(|run| orchestrator.workflow_status(run)).collect();
        let (completed, failed) = (Some(WorkflowStatus::Completed), Some(WorkflowStatus::Failed));
        assert_eq!(statuses, vec![completed, failed, completed, None]);
    }

    #[test]
    fn oversized_workflow_fails_deploy_and_invoke() {
        let orchestrator = Orchestrator::with_default_cluster(2);
        let image = ghz_image(&orchestrator, 40, false);
        assert!(matches!(
            orchestrator.deploy(image),
            Err(OrchestratorError::NoFeasibleQpu { required_qubits: 40 })
        ));
        assert!(orchestrator.invoke(image).is_err());
    }

    #[test]
    fn unknown_image_and_run_are_reported() {
        let orchestrator = Orchestrator::with_default_cluster(3);
        assert_eq!(orchestrator.deploy(99), Err(OrchestratorError::ImageNotFound(99)));
        assert_eq!(orchestrator.workflow_results(42), Err(OrchestratorError::RunNotFound(42)));
    }

    #[test]
    fn resource_plans_are_generated_for_images() {
        let orchestrator = Orchestrator::with_default_cluster(4);
        let graph = MaxCutGraph::ring(12);
        let wf = mitigated_execution_workflow(
            "qaoa",
            qaoa_maxcut(&graph, &[0.4], &[0.7]),
            MitigationStack::listing2(),
            ClassicalRequest::small(),
        );
        let image = orchestrator.create_workflow(wf, DeploymentConfig::default());
        let plans = orchestrator.estimate_resources(image).unwrap();
        assert!(!plans.is_empty());
        assert!(plans.len() <= 3);
        assert!(plans.iter().all(|p| p.estimated_fidelity > 0.0));
    }

    #[test]
    fn consecutive_runs_accumulate_queue_time() {
        let orchestrator = Orchestrator::with_default_cluster(5);
        let image = ghz_image(&orchestrator, 12, false);
        let first = orchestrator.invoke(image).unwrap();
        let second = orchestrator.invoke(image).unwrap();
        let r1 = orchestrator.workflow_results(first).unwrap();
        let r2 = orchestrator.workflow_results(second).unwrap();
        assert_ne!(first, second);
        assert!(r1.completion_s > 0.0 && r2.completion_s > 0.0);
        assert_eq!(orchestrator.list_images().len(), 1);
    }

    /// A control-plane failover between invocations loses nothing: the job
    /// state is rebuilt bit-for-bit from the replicated journal, later
    /// invocations keep working, and accounting/id spaces continue seamlessly.
    #[test]
    fn failover_between_invocations_preserves_control_state() {
        let orchestrator = Orchestrator::with_default_cluster(7);
        let image = ghz_image(&orchestrator, 8, false);
        let first = orchestrator.invoke(image).unwrap();
        let digest = orchestrator.control_digest();
        let leader_before = orchestrator.with_control(|c| c.leader());
        orchestrator.failover().expect("failover succeeds");
        assert_eq!(orchestrator.control_digest(), digest, "state rebuilt bit-for-bit");
        assert_ne!(orchestrator.with_control(|c| c.leader()), leader_before);
        // The orchestrator keeps serving invocations on the recovered state.
        let second = orchestrator.invoke(image).unwrap();
        assert_ne!(first, second);
        assert_eq!(orchestrator.workflow_status(second), Some(WorkflowStatus::Completed));
        let stats = orchestrator.tenant_stats(DEFAULT_TENANT).unwrap();
        assert_eq!(stats.completed, 2, "pre-crash accounting survived the failover");
    }

    /// Snapshot + compaction keeps failover working with a truncated journal.
    #[test]
    fn snapshot_compaction_then_failover() {
        let orchestrator = Orchestrator::with_default_cluster(8);
        let image = ghz_image(&orchestrator, 8, false);
        orchestrator.invoke(image).unwrap();
        let entries_before = orchestrator.with_control(|c| c.log().retained_len());
        assert!(entries_before > 0, "invocation journaled events");
        orchestrator.state.lock().control.snapshot_all().unwrap();
        assert_eq!(orchestrator.with_control(|c| c.log().retained_len()), 0);
        let digest = orchestrator.control_digest();
        orchestrator.failover().expect("failover from snapshot alone");
        assert_eq!(orchestrator.control_digest(), digest);
        orchestrator.invoke(image).unwrap();
    }

    #[test]
    fn priority_changes_the_selected_plan() {
        let orchestrator = Orchestrator::with_default_cluster(6);
        let make = |priority| {
            let wf = mitigated_execution_workflow(
                "ghz",
                ghz(16),
                MitigationStack::none(),
                ClassicalRequest::small(),
            );
            let config = DeploymentConfig { priority, ..Default::default() };
            orchestrator.create_workflow(wf, config)
        };
        let fid_image = make(Priority::Fidelity);
        let jct_image = make(Priority::CompletionTime);
        let fid_run = orchestrator.invoke(fid_image).unwrap();
        let jct_run = orchestrator.invoke(jct_image).unwrap();
        let fid_plan = orchestrator.workflow_results(fid_run).unwrap().plan;
        let jct_plan = orchestrator.workflow_results(jct_run).unwrap().plan;
        assert!(fid_plan.estimated_fidelity >= jct_plan.estimated_fidelity);
        assert!(fid_plan.total_time_s() >= jct_plan.total_time_s());
    }
}
