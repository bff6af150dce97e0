//! End-to-end transpilation (Figure 1's compilation step and the "QPU
//! transpilation" stage of the resource estimator, §6(b)), as one pass.
//!
//! The initial layout is chosen first: it needs only the circuit's width.
//! Then every logical instruction that is already native goes straight to
//! the router; any other is translated into the device basis in a small
//! reused buffer and each of its native instructions is routed; every SWAP
//! the router inserts is written as its own basis lowering (3 CX on an IBM
//! device). That is exactly translate → route → translate: translation
//! works instruction by instruction and leaves native gates as they are, so
//! the pass writes the same gates in the same order without building the
//! translated or the routed circuit. For the same reason a circuit
//! translated ahead of time ([`crate::translate`]) transpiles to exactly what
//! the logical circuit does, which lets a caller that transpiles one circuit
//! for many devices of one basis translate it once. Of the ASAP schedule
//! only the makespan is kept, and it comes with the estimated success
//! probability from one walk of the output
//! ([`NoiseModel::duration_and_esp`]; the makespan is the same fold as
//! [`crate::asap_schedule`]'s `total_duration_ns`); the structural metrics
//! are computed on demand.

use crate::basis::{translate_instruction, BasisSet};
use crate::layout::{select_layout, Layout, LayoutPolicy};
use crate::routing::Router;
use qonductor_backend::{NoiseModel, Qpu, QpuModel, TemplateQpu};
use qonductor_circuit::{Circuit, CircuitMetrics, Gate, Instruction};

/// Transpiler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranspilerOptions {
    /// Initial-layout policy.
    pub layout_policy: LayoutPolicy,
}

impl Default for TranspilerOptions {
    fn default() -> Self {
        TranspilerOptions { layout_policy: LayoutPolicy::NoiseAware }
    }
}

/// Result of transpiling a circuit for a concrete device or template QPU.
#[derive(Debug, Clone)]
pub struct TranspiledCircuit {
    /// The final circuit, expressed over physical qubits in the device basis.
    pub circuit: Circuit,
    /// The initial layout chosen.
    pub initial_layout: Layout,
    /// The layout after routing.
    pub final_layout: Layout,
    /// Number of SWAPs the router inserted.
    pub swaps_inserted: usize,
    /// ASAP makespan of one shot of the final circuit on the device, in
    /// nanoseconds.
    pub duration_ns: f64,
    /// Estimated success probability of the final circuit on the device
    /// ([`NoiseModel::estimated_success_probability`]).
    pub esp: f64,
}

impl TranspiledCircuit {
    /// Structural metrics of the final circuit (the estimator's features).
    pub fn metrics(&self) -> CircuitMetrics {
        CircuitMetrics::of(&self.circuit)
    }

    /// One-shot execution duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.duration_ns / 1e9
    }

    /// Total quantum execution time in seconds for all shots (plus a per-shot
    /// reset/readout turnaround of 1 µs, matching the backend simulator).
    pub fn total_execution_s(&self) -> f64 {
        (self.duration_ns + 1_000.0) * f64::from(self.circuit.shots()) / 1e9
    }
}

/// The Qonductor transpiler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Transpiler {
    options: TranspilerOptions,
}

impl Transpiler {
    /// Create a transpiler with the given options.
    pub fn new(options: TranspilerOptions) -> Self {
        Transpiler { options }
    }

    /// Transpile `circuit` for the given QPU model and calibration-derived noise
    /// model. This is the shared implementation behind [`Self::transpile_for_qpu`]
    /// and [`Self::transpile_for_template`].
    pub fn transpile(
        &self,
        circuit: &Circuit,
        model: &QpuModel,
        noise: &NoiseModel,
    ) -> TranspiledCircuit {
        assert!(
            circuit.num_qubits() <= model.num_qubits(),
            "circuit ({} qubits) does not fit on model {} ({} qubits)",
            circuit.num_qubits(),
            model.name,
            model.num_qubits()
        );
        let basis = BasisSet::from_gate_names(&model.basis_gates);
        let coupling = &model.coupling_map;
        let initial_layout = select_layout(
            circuit.num_qubits(),
            coupling,
            noise.calibration(),
            self.options.layout_policy,
        );
        let mut out = Circuit::named(coupling.num_qubits(), circuit.name().to_string());
        out.set_shots(circuit.shots());
        out.instructions_mut().reserve(OUTPUT_PER_INPUT * circuit.len());
        let mut native = Circuit::new(circuit.num_qubits());
        let mut router = Router::new(coupling, &initial_layout);
        let lower_swap = |out: &mut Circuit, from, to| {
            translate_instruction(out, &Instruction::two(Gate::Swap, from, to), basis);
        };
        for instr in circuit.instructions() {
            if basis.is_native(instr.gate) {
                router.step(instr, &mut out, lower_swap);
                continue;
            }
            native.instructions_mut().clear();
            translate_instruction(&mut native, instr, basis);
            for instr in native.instructions() {
                router.step(instr, &mut out, lower_swap);
            }
        }
        let (final_layout, swaps_inserted) = router.finish();
        let (duration_ns, esp) = noise.duration_and_esp(&out);
        TranspiledCircuit {
            circuit: out,
            initial_layout,
            final_layout,
            swaps_inserted,
            duration_ns,
            esp,
        }
    }

    /// Transpile for a concrete physical QPU (its current calibration).
    pub fn transpile_for_qpu(&self, circuit: &Circuit, qpu: &Qpu) -> TranspiledCircuit {
        self.transpile(circuit, &qpu.model, &qpu.noise_model())
    }

    /// Transpile for a template QPU (model-averaged calibration), as used by the
    /// resource estimator.
    pub fn transpile_for_template(
        &self,
        circuit: &Circuit,
        template: &TemplateQpu,
    ) -> TranspiledCircuit {
        self.transpile(circuit, &template.model, &template.noise_model())
    }
}

/// Output instructions reserved per input instruction. The estimate path
/// hands the pass circuits already in the device basis, whose instructions
/// route one to one; only the SWAPs the router inserts (3 CX each on IBM
/// devices) add to them. Over qbench's `invoke-unique` wave that ratio is
/// 1.48 (5.4 for the logical circuits); a circuit that needs more, or one
/// not yet translated, grows the buffer.
const OUTPUT_PER_INPUT: usize = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::translate;
    use crate::routing::tests::scan_route;
    use crate::scheduling::{asap_schedule, Schedule};
    use qonductor_backend::{CalibrationGenerator, Fleet, Simulator};
    use qonductor_circuit::generators::{ghz, qft};
    use qonductor_circuit::{workload, Algorithm, NO_OPERAND};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::PI;

    /// Everything the staged pipeline produced.
    struct Staged {
        circuit: Circuit,
        initial_layout: Layout,
        final_layout: Layout,
        swaps_inserted: usize,
        metrics: CircuitMetrics,
        schedule: Schedule,
    }

    /// The pipeline before the one pass, kept as the oracle of
    /// [`Transpiler::transpile`]: translate the whole circuit, choose the
    /// layout, route with the scanning router, translate the routed circuit
    /// again when it has SWAPs, then take the metrics and the full ASAP
    /// schedule.
    fn staged_transpile(
        options: TranspilerOptions,
        circuit: &Circuit,
        model: &QpuModel,
        noise: &NoiseModel,
    ) -> Staged {
        assert!(circuit.num_qubits() <= model.num_qubits());
        let basis = BasisSet::from_gate_names(&model.basis_gates);
        // 1. Translate to the native basis.
        let translated = translate(circuit, basis);
        // 2. Choose an initial layout.
        let initial_layout = select_layout(
            translated.num_qubits(),
            &model.coupling_map,
            noise.calibration(),
            options.layout_policy,
        );
        // 3. Route (inserts SWAPs where connectivity requires it).
        let routed = scan_route(&translated, &model.coupling_map, &initial_layout);
        // 4. Inserted SWAPs are not native — translate once more.
        let final_circuit = if routed.swaps_inserted > 0 {
            translate(&routed.circuit, basis)
        } else {
            routed.circuit
        };
        // 5. Metrics and schedule.
        let metrics = CircuitMetrics::of(&final_circuit);
        let schedule = asap_schedule(&final_circuit, noise);
        Staged {
            circuit: final_circuit,
            initial_layout,
            final_layout: routed.final_layout,
            swaps_inserted: routed.swaps_inserted,
            metrics,
            schedule,
        }
    }

    /// Transpile `circuit` in one pass and staged, and require every output
    /// to agree, the makespan bit for bit.
    fn assert_one_pass_equals_staged(
        options: TranspilerOptions,
        circuit: &Circuit,
        model: &QpuModel,
        noise: &NoiseModel,
    ) {
        let t = Transpiler::new(options).transpile(circuit, model, noise);
        let s = staged_transpile(options, circuit, model, noise);
        let case = format!(
            "{} ({} qubits, {} instructions) on {} with {:?}",
            circuit.name(),
            circuit.num_qubits(),
            circuit.len(),
            model.name,
            options.layout_policy
        );
        assert!(t.circuit == s.circuit, "circuits differ: {case}");
        assert_eq!(t.initial_layout, s.initial_layout, "{case}");
        assert_eq!(t.final_layout, s.final_layout, "{case}");
        assert_eq!(t.swaps_inserted, s.swaps_inserted, "{case}");
        assert_eq!(t.duration_ns.to_bits(), s.schedule.total_duration_ns.to_bits(), "{case}");
        let esp = noise.estimated_success_probability(&s.circuit);
        assert_eq!(t.esp.to_bits(), esp.to_bits(), "{case}");
        assert_eq!(t.metrics(), s.metrics, "{case}");
    }

    /// Transpile `circuit` and its translation into the target's basis, and
    /// require every output to agree, the makespan and the ESP bit for bit.
    fn assert_translating_ahead_changes_nothing(
        circuit: &Circuit,
        model: &QpuModel,
        noise: &NoiseModel,
    ) {
        let transpiler = Transpiler::default();
        let basis = BasisSet::from_gate_names(&model.basis_gates);
        let direct = transpiler.transpile(circuit, model, noise);
        let ahead = transpiler.transpile(&translate(circuit, basis), model, noise);
        let case =
            format!("{} ({} qubits) on {}", circuit.name(), circuit.num_qubits(), model.name);
        assert!(ahead.circuit == direct.circuit, "circuits differ: {case}");
        assert_eq!(ahead.initial_layout, direct.initial_layout, "{case}");
        assert_eq!(ahead.final_layout, direct.final_layout, "{case}");
        assert_eq!(ahead.swaps_inserted, direct.swaps_inserted, "{case}");
        assert_eq!(ahead.duration_ns.to_bits(), direct.duration_ns.to_bits(), "{case}");
        assert_eq!(ahead.esp.to_bits(), direct.esp.to_bits(), "{case}");
    }

    /// What the estimate path relies on when it translates a circuit once
    /// per basis and transpiles that for every device: on every target, the
    /// ion trap included, every algorithm family at widths 2-27 and seeded
    /// random circuits transpile from their translation exactly as from
    /// themselves.
    #[test]
    fn a_circuit_translated_ahead_transpiles_to_the_same_outputs() {
        let targets = targets();
        let mut rng = StdRng::seed_from_u64(2032);
        for alg in Algorithm::ALL {
            for width in 2..=27 {
                let mut circuit = workload::build_algorithm(alg, width, 2, &mut rng);
                circuit.set_shots(rng.gen_range(100..9000));
                for (model, noise) in targets.iter().filter(|(m, _)| m.num_qubits() >= width) {
                    assert_translating_ahead_changes_nothing(&circuit, model, noise);
                }
            }
        }
        for (model, noise) in &targets {
            let self_loops =
                BasisSet::from_gate_names(&model.basis_gates) == BasisSet::IbmSuperconducting;
            for _ in 0..20 {
                let width = rng.gen_range(1..=model.num_qubits().min(27));
                let circuit = random_circuit(&mut rng, width, self_loops);
                assert_translating_ahead_changes_nothing(&circuit, model, noise);
            }
        }
    }

    /// Every default-fleet device under its own calibration, every template
    /// of that fleet, and the heterogeneous fleet's ion trap.
    fn targets() -> Vec<(QpuModel, NoiseModel)> {
        let mut rng = StdRng::seed_from_u64(42);
        let fleet = Fleet::ibm_default(&mut rng);
        let mut targets: Vec<_> =
            fleet.members().iter().map(|m| (m.qpu.model.clone(), m.qpu.noise_model())).collect();
        targets.extend(fleet.template_qpus().iter().map(|t| (t.model.clone(), t.noise_model())));
        let mixed = Fleet::heterogeneous(&mut rng);
        let ion = &mixed.by_name("ion_forte").expect("the mixed fleet has an ion trap").qpu;
        assert_eq!(BasisSet::from_gate_names(&ion.model.basis_gates), BasisSet::TrappedIon);
        targets.push((ion.model.clone(), ion.noise_model()));
        targets
    }

    const POLICIES: [LayoutPolicy; 2] = [LayoutPolicy::NoiseAware, LayoutPolicy::Trivial];

    #[test]
    fn one_pass_equals_the_staged_pipeline_for_every_algorithm_family() {
        let targets = targets();
        let mut rng = StdRng::seed_from_u64(2031);
        for alg in Algorithm::ALL {
            for width in 2..=27 {
                let mut circuit = workload::build_algorithm(alg, width, 2, &mut rng);
                circuit.set_shots(rng.gen_range(100..9000));
                for (model, noise) in targets.iter().filter(|(m, _)| m.num_qubits() >= width) {
                    for layout_policy in POLICIES {
                        let options = TranspilerOptions { layout_policy };
                        assert_one_pass_equals_staged(options, &circuit, model, noise);
                    }
                }
            }
        }
    }

    /// A seeded random circuit over `width` qubits: every gate kind, operands
    /// anywhere on the register, barriers, measurements into any bit, delays,
    /// rotations by multiples of 2π (which translation drops), and, if
    /// `self_loops`, `cx(q, q)`.
    fn random_circuit(rng: &mut StdRng, width: u32, self_loops: bool) -> Circuit {
        let mut c = Circuit::named(width, "random_oracle");
        c.set_shots(rng.gen_range(1..9000));
        for _ in 0..rng.gen_range(0..80) {
            let angle = match rng.gen_range(0..4) {
                0 => 2.0 * PI * f64::from(rng.gen_range(-2i32..=2)),
                1 => 1e-13,
                _ => rng.gen_range(-7.0..7.0),
            };
            let q0 = rng.gen_range(0..width);
            let gate = match rng.gen_range(0..23) {
                0 => Gate::Id,
                1 => Gate::H,
                2 => Gate::X,
                3 => Gate::Y,
                4 => Gate::Z,
                5 => Gate::S,
                6 => Gate::Sdg,
                7 => Gate::T,
                8 => Gate::Tdg,
                9 => Gate::SX,
                10 => Gate::RX(angle),
                11 => Gate::RY(angle),
                12 => Gate::RZ(angle),
                13 => Gate::U(angle, rng.gen_range(-4.0..4.0), -angle),
                14 => Gate::CX,
                15 => Gate::CZ,
                16 => Gate::ECR,
                17 => Gate::Swap,
                18 => Gate::RZZ(angle),
                19 => Gate::Delay(rng.gen_range(0.0..900.0)),
                20 => {
                    c.barrier();
                    continue;
                }
                _ => {
                    c.measure(q0, rng.gen_range(0..width));
                    continue;
                }
            };
            if !gate.is_two_qubit() {
                c.apply1(gate, q0);
            } else if self_loops && gate == Gate::CX && rng.gen_range(0..6) == 0 {
                c.push(Instruction { gate, q0, q1: q0, cbit: NO_OPERAND });
            } else if width > 1 {
                let q1 = (q0 + rng.gen_range(1..width)) % width;
                c.apply2(gate, q0, q1);
            }
        }
        c
    }

    #[test]
    fn one_pass_equals_the_staged_pipeline_on_random_circuits() {
        let mut rng = StdRng::seed_from_u64(77);
        for (model, noise) in targets() {
            // Lowering `cx(q, q)` in the ion basis builds an `rzz(q, q)`,
            // which debug builds reject before either pipeline routes it.
            let self_loops =
                BasisSet::from_gate_names(&model.basis_gates) == BasisSet::IbmSuperconducting;
            for _ in 0..40 {
                let width = rng.gen_range(1..=model.num_qubits().min(27));
                let circuit = random_circuit(&mut rng, width, self_loops);
                for layout_policy in POLICIES {
                    let options = TranspilerOptions { layout_policy };
                    assert_one_pass_equals_staged(options, &circuit, &model, &noise);
                }
            }
        }
    }

    /// FNV-64 over every field of a fixed wave's transpiled outputs.
    fn wave_digest() -> u64 {
        struct Fnv64(u64);
        impl Fnv64 {
            fn bytes(&mut self, bytes: &[u8]) {
                for &b in bytes {
                    self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            fn word(&mut self, word: u64) {
                self.bytes(&word.to_le_bytes());
            }
        }
        let mut hash = Fnv64(0xcbf2_9ce4_8422_2325);
        let mut rng = StdRng::seed_from_u64(4242);
        let fleet = Fleet::ibm_default(&mut rng);
        let transpiler = Transpiler::default();
        for alg in Algorithm::ALL {
            for width in [2, 3, 5, 8, 13, 21, 27] {
                let circuit = workload::build_algorithm(alg, width, 2, &mut rng);
                for member in fleet.members().iter().filter(|m| m.qpu.num_qubits() >= width) {
                    let t = transpiler.transpile_for_qpu(&circuit, &member.qpu);
                    let c = &t.circuit;
                    hash.bytes(c.name().as_bytes());
                    for word in [c.num_qubits(), c.num_clbits(), c.shots(), c.len() as u32] {
                        hash.word(u64::from(word));
                    }
                    for i in c.instructions() {
                        hash.bytes(i.gate.name().as_bytes());
                        for p in i.gate.params() {
                            hash.word(p.to_bits());
                        }
                        for word in [i.q0, i.q1, i.cbit] {
                            hash.word(u64::from(word));
                        }
                    }
                    for layout in [&t.initial_layout, &t.final_layout] {
                        hash.word(layout.len() as u64);
                        for &p in layout.mapping() {
                            hash.word(u64::from(p));
                        }
                    }
                    hash.word(t.swaps_inserted as u64);
                    hash.word(t.duration_ns.to_bits());
                }
            }
        }
        hash.0
    }

    /// Recorded on the staged pipeline, before the one pass replaced it.
    #[test]
    fn a_fixed_wave_transpiles_to_the_pinned_digest() {
        assert_eq!(wave_digest(), 0x9e43_b827_4590_5fc8);
    }

    fn qpu27() -> Qpu {
        let mut rng = StdRng::seed_from_u64(42);
        Qpu::new("ibm_test", QpuModel::falcon_27(), 1.0, &mut rng)
    }

    #[test]
    fn transpiled_circuit_fits_device_and_basis() {
        let qpu = qpu27();
        let t = Transpiler::default().transpile_for_qpu(&ghz(10), &qpu);
        assert_eq!(t.circuit.num_qubits(), 27);
        for instr in t.circuit.instructions() {
            assert!(qpu.model.is_native(instr.gate), "{:?} is not native", instr.gate);
            if instr.gate.is_two_qubit() {
                assert!(qpu.model.coupling_map.are_coupled(instr.q0, instr.q1));
            }
        }
        assert!(t.metrics().two_qubit_gates >= 9);
        assert!(t.duration_ns > 0.0);
        assert!(t.duration_s() > 0.0);
    }

    #[test]
    fn transpilation_preserves_ghz_distribution() {
        let qpu = qpu27();
        let original = ghz(6);
        let t = Transpiler::default().transpile_for_qpu(&original, &qpu);
        let sim = Simulator::default();
        let a = sim.ideal_distribution(&original);
        let b = sim.ideal_distribution(&t.circuit);
        assert!(qonductor_backend::hellinger_fidelity(&a, &b) > 0.999);
    }

    #[test]
    fn transpilation_preserves_qft_distribution() {
        let qpu = qpu27();
        let original = qft(4);
        let t = Transpiler::default().transpile_for_qpu(&original, &qpu);
        let sim = Simulator::default();
        let a = sim.ideal_distribution(&original);
        let b = sim.ideal_distribution(&t.circuit);
        assert!(qonductor_backend::hellinger_fidelity(&a, &b) > 0.999);
    }

    #[test]
    fn routing_on_sparse_topology_inserts_swaps_for_wide_qft() {
        let qpu = qpu27();
        let t = Transpiler::default().transpile_for_qpu(&qft(10), &qpu);
        assert!(t.swaps_inserted > 0, "QFT on heavy-hex must require routing");
        // Two-qubit count strictly grows versus the logical circuit.
        assert!(t.metrics().two_qubit_gates > CircuitMetrics::of(&qft(10)).two_qubit_gates);
    }

    #[test]
    fn template_transpilation_works_for_all_fleet_models() {
        let mut rng = StdRng::seed_from_u64(3);
        let fleet = Fleet::ibm_default(&mut rng);
        let transpiler = Transpiler::default();
        for template in fleet.template_qpus() {
            let width = template.num_qubits().min(5);
            let t = transpiler.transpile_for_template(&ghz(width), &template);
            assert_eq!(t.circuit.num_qubits(), template.num_qubits());
        }
    }

    /// Hostile floats: a NaN in the calibration orders somewhere (last, under
    /// `total_cmp`) instead of panicking the layout pass — one NaN qubit
    /// error, one NaN gate duration, and a device whose generator quality was
    /// NaN (every qubit and edge error NaN) — and the makespan keeps the
    /// staged pipeline's bits.
    #[test]
    fn nan_calibration_values_transpile_without_panicking() {
        let qpu = qpu27();
        let mut one_nan = (*qpu.calibration).clone();
        one_nan.qubits[3].gate_error = f64::NAN;
        one_nan.qubits[5].gate_duration_ns = f64::NAN;
        let mut rng = StdRng::seed_from_u64(7);
        let all_nan = CalibrationGenerator::with_quality(f64::NAN).generate(
            27,
            qpu.model.coupling_map.edges(),
            &mut rng,
        );
        assert!(all_nan.edges().values().all(|e| e.gate_error.is_nan()));
        for calibration in [one_nan, all_nan] {
            let noise = NoiseModel::new(calibration);
            for circuit in [ghz(1), ghz(2), qft(8), ghz(27)] {
                let t = Transpiler::default().transpile(&circuit, &qpu.model, &noise);
                assert_eq!(t.initial_layout.len(), circuit.num_qubits() as usize);
                let staged = staged_transpile(Default::default(), &circuit, &qpu.model, &noise);
                assert_eq!(t.duration_ns.to_bits(), staged.schedule.total_duration_ns.to_bits());
            }
        }
    }

    #[test]
    #[should_panic]
    fn oversized_circuit_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        let qpu = Qpu::new("small", QpuModel::falcon_7(), 1.0, &mut rng);
        Transpiler::default().transpile_for_qpu(&ghz(10), &qpu);
    }

    #[test]
    fn trivial_layout_option_is_respected() {
        let qpu = qpu27();
        let t = Transpiler::new(TranspilerOptions { layout_policy: LayoutPolicy::Trivial })
            .transpile_for_qpu(&ghz(4), &qpu);
        assert_eq!(t.initial_layout.mapping(), &[0, 1, 2, 3]);
    }
}
