//! `dataplane-mitigated`: what happens after placement, which the
//! orchestrator only estimates. Per job: `transpile_for_qpu` →
//! `MitigationStack::listing2().generate_circuits` (ZNE folds + DD) →
//! `Simulator::execute` on each generated circuit → `ReadoutMitigator::apply`
//! → `zne::extrapolate`. Narrow jobs take the simulator's trajectory path and
//! are checked against the *logical* circuit's ideal distribution (never the
//! component under test); wide jobs take the analytic path, where circuit
//! rewriting (`insert_dd`) dominates.

use crate::harness::{Options, Recorder, RoundCtx, Workload};
use crate::inputs::{self, DataplaneJob, Stream};
use crate::trace::Tracer;
use qonductor_backend::{hellinger_fidelity, Distribution, Fleet, NoiseModel, Simulator};
use qonductor_circuit::Circuit;
use qonductor_mitigation::{
    extrapolate, fold_circuit, insert_dd, twirl_circuit, MitigationStack, ReadoutMitigator,
};
use qonductor_transpiler::{TranspiledCircuit, Transpiler};
use std::time::Instant;

/// A rewritten circuit reproduces the logical circuit when the Hellinger
/// fidelity of their ideal distributions is at least this.
const EQUIVALENT: f64 = 0.999;

/// Hellinger fidelity rounded to nine decimals. `Distribution` is a
/// `HashMap`, so the library sums the terms in an order that differs from
/// process to process and the result in its last ulp; rounded, the `sim_*`
/// numbers built from it repeat exactly for a seed.
fn fidelity_between(ideal: &Distribution, measured: &Distribution) -> f64 {
    (hellinger_fidelity(ideal, measured) * 1e9).round() / 1e9
}

/// `dataplane-mitigated`.
pub struct DataplaneMitigated {
    seed: u64,
    quick: bool,
    sim_rounds: usize,
    fleet: Fleet,
    simulator: Simulator,
    transpiler: Transpiler,
    stack: MitigationStack,
    /// Round 0's jobs and reference distributions, from the set-up the
    /// harness timed.
    first: Option<Prepared>,
}

/// A round's jobs and, for the narrow ones, the logical circuit's ideal
/// distribution the delivered fidelity is measured against.
type Prepared = (Vec<DataplaneJob>, Vec<Option<Distribution>>);

/// What the timed part of one job leaves behind for the untimed checks.
struct Executed {
    member: usize,
    transpiled: TranspiledCircuit,
    noise: NoiseModel,
    /// Delivered fidelity per noise factor.
    values: Vec<f64>,
    /// ZNE-extrapolated fidelity.
    zne: f64,
    /// Whether the simulator took the trajectory path.
    trajectory: bool,
    /// Simulated quantum execution seconds of all generated circuits.
    sim_exec_s: f64,
}

impl DataplaneMitigated {
    /// Everything a round needs before its first timed call.
    fn prepare(&self, round: usize, tracer: &mut Tracer) -> Prepared {
        let jobs = tracer
            .span("circuit.generate", |_| inputs::dataplane_round(self.seed, round, self.quick));
        let ideals = jobs
            .iter()
            .map(|job| {
                job.narrow.then(|| {
                    tracer
                        .span("backend.ideal", |_| self.simulator.ideal_distribution(&job.circuit))
                })
            })
            .collect();
        (jobs, ideals)
    }

    fn execute(
        &self,
        index: usize,
        job: &DataplaneJob,
        ideal: Option<&Distribution>,
        rng: &mut rand::rngs::StdRng,
        tracer: &mut Tracer,
        rec: &mut Recorder,
    ) -> Executed {
        let traced = tracer.enabled();
        let fitting: Vec<usize> = (0..self.fleet.len())
            .filter(|&m| self.fleet.members()[m].qpu.num_qubits() >= job.circuit.num_qubits())
            .collect();
        let member = fitting[index % fitting.len()];
        let qpu = &self.fleet.members()[member].qpu;
        let noise = tracer.span("backend.noise_model", |_| qpu.noise_model());
        let transpiled = tracer
            .span("transpiler.transpile", |_| self.transpiler.transpile_for_qpu(&job.circuit, qpu));
        let circuits = tracer.span("mitigation.generate", |_| {
            self.stack.generate_circuits(&transpiled.circuit, &noise, rng)
        });
        let mut values = Vec::with_capacity(circuits.len());
        let mut trajectory = false;
        let mut sim_exec_s = 0.0;
        for circuit in &circuits {
            let result =
                tracer.span("backend.execute", |_| self.simulator.execute(circuit, &noise, rng));
            sim_exec_s += result.duration_ns * 1e-9;
            let on_trajectory = !result.counts.is_empty();
            trajectory |= on_trajectory;
            values.push(match ideal.filter(|_| on_trajectory) {
                Some(ideal) => {
                    let mitigated = tracer.span("mitigation.rem", |_| {
                        ReadoutMitigator::from_noise(circuit, &noise).apply(&result.counts)
                    });
                    fidelity_between(ideal, &mitigated)
                }
                None => result.fidelity,
            });
            if traced {
                if on_trajectory {
                    let trajectories =
                        self.simulator.trajectories.min(circuit.shots() as usize).max(1);
                    let amplitudes = (1u64 << circuit.active_qubits().len()) as f64;
                    rec.count(
                        "backend.amp_updates",
                        circuit.len() as f64 * amplitudes * trajectories as f64,
                    );
                    rec.aux("backend.trajectory_calls", 1.0);
                }
                rec.count("mitigation.circuits_out", 1.0);
            }
        }
        let zne = tracer.span("mitigation.extrapolate", |_| {
            extrapolate(&self.stack.zne.noise_factors, &values, self.stack.zne.factory)
        });
        if traced {
            rec.aux("transpiler.in_gates", job.circuit.len() as f64);
            rec.aux("transpiler.out_gates", transpiled.circuit.len() as f64);
            rec.aux("transpiler.distinct_inputs", 1.0);
            rec.count("transpiler.swaps_inserted", transpiled.swaps_inserted as f64);
            rec.count("circuit.gates_total", job.circuit.len() as f64);
        }
        Executed {
            member,
            transpiled,
            noise,
            values,
            zne: zne.clamp(0.0, 1.0),
            trajectory,
            sim_exec_s,
        }
    }

    /// Untimed: equivalence checks on the narrow half, and (traced rounds)
    /// the rewriting passes one by one under spans.
    fn check(
        &self,
        job: &DataplaneJob,
        done: &Executed,
        ideal: Option<&Distribution>,
        rng: &mut rand::rngs::StdRng,
        tracer: &mut Tracer,
        rec: &mut Recorder,
    ) {
        let traced = tracer.enabled();
        let circuit = &done.transpiled.circuit;
        let comparable = ideal.filter(|_| done.trajectory);
        let agreement = |rewritten: &Circuit, tracer: &mut Tracer| {
            comparable.map(|ideal| {
                let actual =
                    tracer.span("backend.ideal", |_| self.simulator.ideal_distribution(rewritten));
                fidelity_between(ideal, &actual)
            })
        };
        let name = job.circuit.name().to_string();
        let width = job.circuit.num_qubits();
        let expect_equivalent = |what: &str, fidelity: Option<f64>, rec: &mut Recorder| {
            if let Some(fidelity) = fidelity {
                rec.checks.expect(fidelity >= EQUIVALENT, || {
                    format!("{what} {name}-{width} reproduces the logical circuit at {fidelity:.4}")
                });
            }
        };
        let transpiled_agrees = agreement(circuit, tracer);
        expect_equivalent("transpiled", transpiled_agrees, rec);
        if comparable.is_some() || traced {
            let with_dd = tracer.span("mitigation.dd", |_| {
                insert_dd(circuit, &done.noise, self.stack.dd_sequence, 500.0)
            });
            let dd_agrees = agreement(&with_dd.circuit, tracer);
            expect_equivalent("DD-inserted", dd_agrees, rec);
            let twirled = tracer.span("mitigation.twirl", |_| twirl_circuit(circuit, rng));
            let twirl_agrees = agreement(&twirled, tracer);
            expect_equivalent("twirled", twirl_agrees, rec);
            for &factor in &self.stack.zne.noise_factors {
                let folded = tracer.span("mitigation.fold", |_| fold_circuit(circuit, factor));
                // Recorded, not counted as a failure: see the README's findings.
                if let Some(fidelity) = agreement(&folded, tracer) {
                    rec.sample("mitigation.fold_equiv", f64::from(fidelity >= EQUIVALENT));
                }
            }
        }
        if comparable.is_some() {
            let cost = tracer.span("mitigation.cost", |_| self.stack.cost(circuit, &done.noise));
            let esp =
                tracer.span("estimator.esp", |_| done.noise.estimated_success_probability(circuit));
            rec.sample(
                "estimator.fidelity_abs_err",
                (cost.mitigated_fidelity(esp) - done.zne).abs(),
            );
        }
        rec.sample("mitigation.zne_fidelity", done.zne);
    }
}

impl Workload for DataplaneMitigated {
    const REPEAT_SETUP: bool = true;

    fn setup(opts: &Options, tracer: &mut Tracer) -> Self {
        let mut dataplane = DataplaneMitigated {
            seed: opts.seed,
            quick: opts.quick,
            sim_rounds: if opts.quick { 1 } else { 6 },
            fleet: inputs::fleet(),
            simulator: Simulator::default(),
            transpiler: Transpiler::default(),
            stack: MitigationStack::listing2(),
            first: None,
        };
        dataplane.first = Some(dataplane.prepare(0, tracer));
        dataplane
    }

    fn sim_rounds(&self) -> usize {
        self.sim_rounds
    }

    fn round(&mut self, ctx: &RoundCtx, tracer: &mut Tracer, rec: &mut Recorder) -> f64 {
        // Set-up of this round: its jobs and their reference distributions
        // (round 0 uses the set-up the harness timed).
        let (jobs, ideals) = match self.first.take() {
            Some(prepared) => prepared,
            None => rec.time_setup(tracer, |tracer| self.prepare(ctx.index, tracer)),
        };
        let mut rng = inputs::rng_for(self.seed, Stream::Execution, ctx.index);

        // Timed: every job through the data plane, one after the other.
        let mut executed = Vec::with_capacity(jobs.len());
        let root = tracer.begin("qbench.round");
        let started = Instant::now();
        for (index, (job, ideal)) in jobs.iter().zip(&ideals).enumerate() {
            tracer.set_job(index);
            let job_started = Instant::now();
            executed.push(self.execute(index, job, ideal.as_ref(), &mut rng, tracer, rec));
            rec.latency_ms.push(job_started.elapsed().as_secs_f64() * 1e3);
        }
        let round_s = started.elapsed().as_secs_f64();
        tracer.end(root);
        rec.round_done(ctx, jobs.len(), round_s);

        let root = tracer.begin("qbench.probe");
        let mut busy_per_qpu = vec![0.0f64; self.fleet.len()];
        for (index, ((job, ideal), done)) in jobs.iter().zip(&ideals).zip(&executed).enumerate() {
            tracer.set_job(index);
            rec.checks.expect(done.values.iter().chain([&done.zne]).all(|v| v.is_finite()), || {
                format!("job {index}: non-finite fidelity {:?}", done.values)
            });
            rec.checks.expect(done.trajectory == job.narrow, || {
                format!(
                    "job {index} ({} qubits) took the wrong simulator path",
                    job.circuit.num_qubits()
                )
            });
            self.check(job, done, ideal.as_ref(), &mut rng, tracer, rec);
            busy_per_qpu[done.member] += done.sim_exec_s;
            if ctx.sim {
                rec.sim.jct_s.push(done.sim_exec_s);
                rec.sim.fidelity.push(done.values[0].clamp(0.0, 1.0));
            }
        }
        tracer.end(root);
        if ctx.sim {
            rec.sim.busy_qpu_s += busy_per_qpu.iter().sum::<f64>();
            rec.sim.capacity_qpu_s +=
                self.fleet.len() as f64 * busy_per_qpu.iter().copied().fold(0.0, f64::max);
        }
        if ctx.traced {
            rec.aux("jobs", jobs.len() as f64);
        }
        round_s
    }

    fn finish(&mut self, _opts: &Options, _tracer: &mut Tracer, rec: &mut Recorder) {
        let folds = rec.samples.get("mitigation.fold_equiv").map_or(&[][..], Vec::as_slice);
        let equivalent = folds.iter().filter(|&&v| v == 1.0).count();
        if equivalent < folds.len() {
            rec.notes.push(format!(
                "KNOWN FINDING, not counted in `failed`: only {equivalent} of {} ZNE-folded circuits \
                 reproduce the logical circuit (Hellinger >= {EQUIVALENT}); Gate::SX.inverse() is RY, \
                 not RX(-pi/2) — see mitigation.fold_equiv_share",
                folds.len()
            ));
        }
    }
}
