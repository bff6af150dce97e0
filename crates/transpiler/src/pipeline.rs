//! End-to-end transpilation pipeline: basis translation → layout → routing →
//! re-translation of inserted SWAPs → metrics (Figure 1's compilation step and
//! the "QPU transpilation" stage of the resource estimator, §6(b)).

use crate::basis::{translate, BasisSet};
use crate::layout::{select_layout, Layout, LayoutPolicy};
use crate::routing::route;
use crate::scheduling::{asap_schedule, Schedule};
use qonductor_backend::{NoiseModel, Qpu, QpuModel, TemplateQpu};
use qonductor_circuit::{Circuit, CircuitMetrics};

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
    /// Structural metrics of the final circuit (the estimator's features).
    pub metrics: CircuitMetrics,
    /// ASAP schedule of the final circuit on the device.
    pub schedule: Schedule,
}

impl TranspiledCircuit {
    /// One-shot execution duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.schedule.total_duration_ns / 1e9
    }

    /// Total quantum execution time in seconds for all shots (plus a per-shot
    /// reset/readout turnaround of 1 µs, matching the backend simulator).
    pub fn total_execution_s(&self) -> f64 {
        (self.schedule.total_duration_ns + 1_000.0) * f64::from(self.circuit.shots()) / 1e9
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
        // 1. Translate to the native basis.
        let translated = translate(circuit, basis);
        // 2. Choose an initial layout.
        let initial_layout = select_layout(
            translated.num_qubits(),
            &model.coupling_map,
            noise.calibration(),
            self.options.layout_policy,
        );
        // 3. Route (inserts SWAPs where connectivity requires it).
        let routed = route(&translated, &model.coupling_map, &initial_layout);
        // 4. Inserted SWAPs are not native — translate once more.
        let final_circuit = if routed.swaps_inserted > 0 {
            translate(&routed.circuit, basis)
        } else {
            routed.circuit
        };
        // 5. Metrics and schedule.
        let metrics = CircuitMetrics::of(&final_circuit);
        let schedule = asap_schedule(&final_circuit, noise);
        TranspiledCircuit {
            circuit: final_circuit,
            initial_layout,
            final_layout: routed.final_layout,
            swaps_inserted: routed.swaps_inserted,
            metrics,
            schedule,
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

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_backend::{CalibrationGenerator, Fleet, Simulator};
    use qonductor_circuit::generators::{ghz, qft};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        assert!(t.metrics.two_qubit_gates >= 9);
        assert!(t.schedule.total_duration_ns > 0.0);
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
        assert!(t.metrics.two_qubit_gates > CircuitMetrics::of(&qft(10)).two_qubit_gates);
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
    /// `total_cmp`) instead of panicking the layout pass or the idle-window
    /// sort — one NaN qubit error, one NaN gate duration, and a device whose
    /// generator quality was NaN (every qubit and edge error NaN).
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
                assert_eq!(t.schedule.ops.len(), t.circuit.len());
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
