//! `invoke-unique` and `invoke-iterative`: waves of workflow images pushed
//! through the public `Orchestrator` path (plan generation, per-QPU
//! transpile + estimate, journaled submit, DRR admission, NSGA-II dispatch,
//! completion accounting). One round is one wave.
//!
//! `invoke-iterative` keeps one orchestrator for [`ITERATIVE_WAVES`] waves,
//! so anything the orchestrator remembers between waves can pay off;
//! `invoke-unique` shares nothing by construction and builds a fresh
//! orchestrator per wave, which also keeps every wave's simulated clock on
//! exactly representable trigger instants (see the README's finding on
//! `ScheduleTrigger`: on a long-lived orchestrator a wave that leaves a
//! partial batch for the interval trigger at a fractional instant can
//! livelock `drive_engine`).
//!
//! The layers sit *inside* `invoke_many_as`, so the traced run reads the
//! library's own counters across the wave and then **replays**, under spans,
//! exactly the layer calls the orchestrator makes for that wave: per image
//! and quantum step `generate_plans` over the fleet templates; per step and
//! fitting fleet member `noise_model()`, `transpile_for_qpu`, `stack.cost`,
//! `estimated_success_probability`. `core.unattributed_s` is what neither
//! the counters nor the replay explain.

use crate::harness::{Options, Recorder, RoundCtx, Workload};
use crate::inputs;
use crate::trace::Tracer;
use qonductor_backend::Fleet;
use qonductor_circuit::Circuit;
use qonductor_core::digest::Fnv64;
use qonductor_core::{
    ClassicalKind, ClassicalStep, DeploymentConfig, ImageId, Orchestrator, QuantumStep, Step,
    TenantId, Workflow, WorkflowStatus, DEFAULT_TENANT,
};
use qonductor_estimator::{generate_plans, EstimationBackend, PlanGeneratorConfig};
use qonductor_mitigation::MitigationStack;
use qonductor_scheduler::{ClassicalNode, ClassicalRequest};
use qonductor_transpiler::{
    asap_schedule, route, select_layout, translate, BasisSet, LayoutPolicy, Transpiler,
};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// (circuit, fleet member) pairs per traced wave whose transpiler stages are
/// timed one by one.
const STAGE_PROBE_PAIRS: usize = 64;

/// Waves one `invoke-iterative` orchestrator serves before it is replaced:
/// long enough that 216 exact circuits serve 3,072 jobs, short enough that
/// memory and journal length do not depend on how many waves the host
/// completes in the time budget.
const ITERATIVE_WAVES: usize = 8;

/// Classical step length of the iterative apps. A dyadic value: with the
/// pool armed at this instant every interval-trigger firing lands on
/// `CLASSICAL_S + k × 120`, all exactly representable.
const CLASSICAL_S: f64 = 0.25;

/// One registered workflow image and the circuits of its quantum steps.
struct Image {
    id: ImageId,
    circuits: Vec<Circuit>,
}

/// The library's own counters, read through `with_control`.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    scheduling_ns: u64,
    journal_ns: u64,
    batches: usize,
    log_entries: u64,
    committed_writes: u64,
    reestimation_passes: usize,
}

/// An orchestrator with the images of its next wave registered.
struct Live {
    orchestrator: Orchestrator,
    tenants: Vec<TenantId>,
    wave: Vec<Image>,
    /// Waves this orchestrator has served.
    served: usize,
}

/// Shared state of the two invoke workloads.
pub struct Invoke<const ITERATIVE: bool> {
    seed: u64,
    quick: bool,
    trace: bool,
    sim_rounds: usize,
    /// The fleet every orchestrator is built over (the orchestrator takes a
    /// copy), also used by the replay and the width checks.
    fleet: Fleet,
    live: Option<Live>,
    seen_inputs: HashSet<(u64, String)>,
    /// Control digests of the sim rounds, folded into the printed digest.
    sim_digests: Fnv64,
}

/// `invoke-unique`.
pub type InvokeUnique = Invoke<false>;
/// `invoke-iterative`.
pub type InvokeIterative = Invoke<true>;

fn register_unique(
    orchestrator: &Orchestrator,
    round: usize,
    circuits: Vec<Circuit>,
) -> Vec<Image> {
    circuits
        .into_iter()
        .enumerate()
        .map(|(i, circuit)| {
            let workflow = qonductor_core::mitigated_execution_workflow(
                format!("u{round}-{i}"),
                circuit.clone(),
                MitigationStack::listing2(),
                ClassicalRequest::small(),
            );
            let id = orchestrator.create_workflow(workflow, DeploymentConfig::default());
            Image { id, circuits: vec![circuit] }
        })
        .collect()
}

fn register_iterative(orchestrator: &Orchestrator, apps: Vec<inputs::IterativeApp>) -> Vec<Image> {
    apps.into_iter()
        .map(|app| {
            let mut steps = Vec::with_capacity(2 * app.iterations.len());
            for (i, circuit) in app.iterations.iter().enumerate() {
                steps.push(Step::Classical(ClassicalStep {
                    name: format!("{}-update-{i}", app.name),
                    kind: ClassicalKind::Computation,
                    request: ClassicalRequest::small(),
                    estimated_duration_s: CLASSICAL_S,
                }));
                steps.push(Step::Quantum(QuantumStep {
                    name: format!("{}-evaluate-{i}", app.name),
                    circuit: circuit.clone(),
                    mitigation: MitigationStack::listing2(),
                }));
            }
            let workflow = Workflow::chain(app.name, steps);
            let id = orchestrator.create_workflow(workflow, DeploymentConfig::default());
            Image { id, circuits: app.iterations }
        })
        .collect()
}

fn counters(orchestrator: &Orchestrator) -> Counters {
    let reestimation_passes = orchestrator.monitor().reestimations().len();
    orchestrator.with_control(|control| Counters {
        scheduling_ns: control.jobmanager().scheduling_nanos(),
        journal_ns: control.journal_nanos(),
        batches: control.jobmanager().batches_dispatched(),
        log_entries: control.log().len(),
        committed_writes: control.store().committed_writes(),
        reestimation_passes,
    })
}

impl<const ITERATIVE: bool> Invoke<ITERATIVE> {
    /// Everything before a wave's first timed call: an orchestrator over the
    /// fleet, its tenants, and the wave's generated, registered images.
    fn prepare(&self, round: usize, tracer: &mut Tracer) -> Live {
        let nodes = vec![
            ClassicalNode::standard_vm("vm-0"),
            ClassicalNode::standard_vm("vm-1"),
            ClassicalNode::high_end_vm("gpu-0"),
        ];
        let orchestrator = Orchestrator::new(self.fleet.clone(), nodes, self.seed);
        let (tenants, wave) = if ITERATIVE {
            let widths: Vec<u32> = if self.quick { vec![6] } else { (6..=17).collect() };
            let iterations = if self.quick { 2 } else { 8 };
            let apps = tracer.span("circuit.generate", |_| {
                inputs::iterative_apps(self.seed, &widths, iterations)
            });
            let tenants = (1..=4).map(|weight| orchestrator.register_tenant(weight)).collect();
            (tenants, register_iterative(&orchestrator, apps))
        } else {
            let max_width = if self.quick { 4 } else { 27 };
            let circuits = tracer
                .span("circuit.generate", |_| inputs::unique_wave(self.seed, round, max_width));
            (vec![DEFAULT_TENANT], register_unique(&orchestrator, round, circuits))
        };
        Live { orchestrator, tenants, wave, served: 0 }
    }

    /// Outcome checks and simulated samples of one wave.
    fn account(
        &self,
        ctx: &RoundCtx,
        live: &Live,
        runs: &[Result<u64, qonductor_core::OrchestratorError>],
        rec: &mut Recorder,
    ) {
        let mut makespan_s = 0.0f64;
        for (image, run) in live.wave.iter().zip(runs) {
            let result = run.as_ref().ok().and_then(|&id| {
                let status = live.orchestrator.workflow_status(id);
                rec.checks.expect(status == Some(WorkflowStatus::Completed), || {
                    format!("run {id} ended {status:?}")
                });
                live.orchestrator.workflow_results(id).ok()
            });
            rec.checks
                .expect(result.is_some(), || format!("image {} did not run: {run:?}", image.id));
            let Some(result) = result else { continue };
            rec.checks.expect(result.quantum_steps.len() == image.circuits.len(), || {
                format!(
                    "run {}: {} quantum steps recorded",
                    result.run_id,
                    result.quantum_steps.len()
                )
            });
            let mut step_time_s = result.classical_steps.iter().map(|s| s.execution_s).sum::<f64>();
            for (step, circuit) in result.quantum_steps.iter().zip(&image.circuits) {
                step_time_s += step.execution_s;
                let wide_enough = self
                    .fleet
                    .by_name(&step.qpu)
                    .is_some_and(|m| m.qpu.num_qubits() >= circuit.num_qubits());
                rec.checks.expect(wide_enough, || {
                    format!("{} qubits placed on {}", circuit.num_qubits(), step.qpu)
                });
                if ctx.sim {
                    rec.sim.jct_s.push(step.waiting_s + step.execution_s);
                    rec.sim.fidelity.push(step.fidelity);
                    rec.sim.busy_qpu_s += step.execution_s;
                }
            }
            rec.checks.expect(result.completion_s >= step_time_s - 1e-6, || {
                format!(
                    "run {}: completion {} < steps {step_time_s}",
                    result.run_id, result.completion_s
                )
            });
            makespan_s = makespan_s.max(result.completion_s);
        }
        if ctx.sim {
            rec.sim.capacity_qpu_s += self.fleet.len() as f64 * makespan_s;
        }
    }

    /// Replay the wave's layer calls under spans (see the module docs).
    fn replay(&mut self, wave: &[Image], tracer: &mut Tracer, rec: &mut Recorder) {
        let transpiler = Transpiler::default();
        let stack = MitigationStack::listing2();
        let templates = self.fleet.template_qpus();
        let plan_config = PlanGeneratorConfig::default();
        let root = tracer.begin("qbench.replay");
        let mut job = 0;
        for image in wave {
            for circuit in &image.circuits {
                tracer.set_job(job);
                job += 1;
                let print = inputs::fingerprint(circuit);
                tracer.span("estimator.plans", |_| {
                    black_box(generate_plans(
                        circuit,
                        &templates,
                        EstimationBackend::Analytic,
                        &plan_config,
                    ));
                });
                for member in self.fleet.members() {
                    if member.qpu.num_qubits() < circuit.num_qubits() {
                        continue;
                    }
                    let noise = tracer.span("backend.noise_model", |_| member.qpu.noise_model());
                    let transpiled = tracer.span("transpiler.transpile", |_| {
                        transpiler.transpile_for_qpu(circuit, &member.qpu)
                    });
                    tracer.span("mitigation.cost", |_| {
                        black_box(stack.cost(&transpiled.circuit, &noise));
                    });
                    tracer.span("estimator.esp", |_| {
                        black_box(noise.estimated_success_probability(&transpiled.circuit));
                    });
                    rec.aux("transpiler.in_gates", circuit.len() as f64);
                    rec.aux("transpiler.out_gates", transpiled.circuit.len() as f64);
                    rec.count("transpiler.swaps_inserted", transpiled.swaps_inserted as f64);
                    if self.seen_inputs.insert((print, member.qpu.name.clone())) {
                        rec.aux("transpiler.distinct_inputs", 1.0);
                    }
                }
            }
        }
        tracer.end(root);
    }

    /// Time the transpiler's public stage functions one by one, in pipeline
    /// order, on the wave's first pairs. Outside the timed region and outside
    /// the replay's accounting: the split says where transpile time goes, the
    /// total comes from `transpile_for_qpu` itself.
    fn stage_probe(&self, wave: &[Image], tracer: &mut Tracer) {
        let root = tracer.begin("qbench.probe");
        let pairs = wave
            .iter()
            .flat_map(|image| &image.circuits)
            .flat_map(|circuit| self.fleet.members().iter().map(move |member| (circuit, member)))
            .filter(|(circuit, member)| member.qpu.num_qubits() >= circuit.num_qubits())
            .take(STAGE_PROBE_PAIRS);
        for (circuit, member) in pairs {
            let model = &member.qpu.model;
            let noise = member.qpu.noise_model();
            let basis = BasisSet::from_gate_names(&model.basis_gates);
            let translated = tracer.span("transpiler.basis", |_| translate(circuit, basis));
            let layout = tracer.span("transpiler.layout", |_| {
                select_layout(
                    translated.num_qubits(),
                    &model.coupling_map,
                    noise.calibration(),
                    LayoutPolicy::NoiseAware,
                )
            });
            let routed = tracer
                .span("transpiler.route", |_| route(&translated, &model.coupling_map, &layout));
            let native = if routed.swaps_inserted > 0 {
                tracer.span("transpiler.basis", |_| translate(&routed.circuit, basis))
            } else {
                routed.circuit
            };
            tracer.span("transpiler.schedule", |_| {
                black_box(asap_schedule(&native, &noise));
            });
        }
        tracer.end(root);
    }
}

impl<const ITERATIVE: bool> Workload for Invoke<ITERATIVE> {
    const REPEAT_SETUP: bool = true;

    fn setup(opts: &Options, tracer: &mut Tracer) -> Self {
        let mut invoke = Invoke {
            seed: opts.seed,
            quick: opts.quick,
            trace: opts.trace,
            sim_rounds: if opts.quick {
                1
            } else if ITERATIVE {
                4
            } else {
                8
            },
            fleet: inputs::fleet(),
            live: None,
            seen_inputs: HashSet::new(),
            sim_digests: Fnv64::new(),
        };
        invoke.live = Some(invoke.prepare(0, tracer));
        invoke
    }

    fn sim_rounds(&self) -> usize {
        self.sim_rounds
    }

    fn round(&mut self, ctx: &RoundCtx, tracer: &mut Tracer, rec: &mut Recorder) -> f64 {
        // Set-up, when the previous orchestrator has served its waves.
        let waves_per_orchestrator = if ITERATIVE { ITERATIVE_WAVES } else { 1 };
        let mut live = match self.live.take().filter(|live| live.served < waves_per_orchestrator) {
            Some(live) => live,
            None => rec.time_setup(tracer, |tracer| self.prepare(ctx.index, tracer)),
        };
        let ids: Vec<ImageId> = live.wave.iter().map(|image| image.id).collect();
        let tenant = live.tenants[ctx.index % live.tenants.len()];
        let before = ctx.traced.then(|| counters(&live.orchestrator));

        // Timed: one wave through the orchestrator.
        let root = tracer.begin("qbench.round");
        let call = tracer.begin("core.invoke");
        let started = Instant::now();
        let runs = live.orchestrator.invoke_many_as(tenant, &ids);
        let wave_s = started.elapsed().as_secs_f64();
        tracer.end(call);
        tracer.end(root);
        live.served += 1;
        let jobs: usize = live.wave.iter().map(|image| image.circuits.len()).sum();
        rec.round_done(ctx, jobs, wave_s);
        self.account(ctx, &live, &runs, rec);

        // Timed separately: the Table-2 interactive call, on a fixed subset.
        let stride = if ITERATIVE { 3 } else { 2 };
        let mut estimate_s = 0.0;
        for image in live.wave.iter().step_by(stride) {
            let started = Instant::now();
            let plans = live.orchestrator.estimate_resources(image.id);
            let elapsed = started.elapsed().as_secs_f64();
            estimate_s += elapsed;
            rec.latency_ms.push(elapsed * 1e3);
            rec.sample("core.estimate_ms", elapsed * 1e3);
            rec.checks.expect(plans.as_ref().is_ok_and(|p| !p.is_empty()), || {
                format!("estimate_resources({}) gave {plans:?}", image.id)
            });
        }

        if ctx.sim {
            self.sim_digests.absorb(live.orchestrator.control_digest().as_bytes());
            if ctx.index + 1 == self.sim_rounds {
                rec.digest = Some(format!("{:016x}", self.sim_digests.value()));
                if self.trace {
                    let bytes = live.orchestrator.with_control(|c| c.encode_state().len());
                    rec.gauges.insert("core.encode_state_bytes", bytes as f64);
                }
            }
        }

        if let Some(before) = before {
            let after = counters(&live.orchestrator);
            let scheduling_ns = after.scheduling_ns - before.scheduling_ns;
            let cycles = after.batches - before.batches;
            tracer.synthetic_child(call, "scheduler.cycle", scheduling_ns);
            tracer.synthetic_child(call, "consensus.journal", after.journal_ns - before.journal_ns);
            rec.count("scheduler.cycles", cycles as f64);
            if cycles > 0 {
                // The orchestrator exposes no per-cycle timing: one sample per
                // wave, the wave's mean cycle.
                rec.sample("scheduler.cycle_ms", scheduling_ns as f64 * 1e-6 / cycles as f64);
                rec.sample("scheduler.jobs_per_cycle", jobs as f64 / cycles as f64);
            }
            rec.count("consensus.log_entries", (after.log_entries - before.log_entries) as f64);
            rec.count(
                "consensus.committed_writes",
                (after.committed_writes - before.committed_writes) as f64,
            );
            rec.count(
                "core.reestimate_passes",
                (after.reestimation_passes - before.reestimation_passes) as f64,
            );
            rec.aux("jobs", jobs as f64);
            let gates: usize =
                live.wave.iter().flat_map(|image| &image.circuits).map(Circuit::len).sum();
            rec.count("circuit.gates_total", gates as f64);
            self.replay(&live.wave, tracer, rec);
            self.stage_probe(&live.wave, tracer);
        }
        self.live = Some(live);
        wave_s + estimate_s
    }
}
