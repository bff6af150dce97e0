//! Feature extraction for the regression-based estimator (§6): circuit
//! structure, shot count, target-QPU calibration summary, and the applied
//! error-mitigation configuration.

use qonductor_backend::CalibrationData;
use qonductor_circuit::CircuitMetrics;
use qonductor_mitigation::MitigationCost;

/// The feature vector of one job execution on one QPU with one mitigation stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobFeatures {
    /// Circuit width (active qubits after transpilation).
    pub width: f64,
    /// Number of shots.
    pub shots: f64,
    /// Circuit depth after transpilation.
    pub depth: f64,
    /// Two-qubit gate count after transpilation.
    pub two_qubit_gates: f64,
    /// Single-qubit gate count after transpilation.
    pub one_qubit_gates: f64,
    /// Number of measured qubits.
    pub measurements: f64,
    /// Target-QPU mean two-qubit gate error.
    pub mean_two_qubit_error: f64,
    /// Target-QPU mean readout error.
    pub mean_readout_error: f64,
    /// Target-QPU mean T1 (µs).
    pub mean_t1_us: f64,
    /// Target-QPU mean T2 (µs).
    pub mean_t2_us: f64,
    /// Mitigation: error-reduction factor of the applied stack (1.0 = none).
    pub mitigation_error_factor: f64,
    /// Mitigation: quantum-time multiplication factor of the stack.
    pub mitigation_quantum_factor: f64,
    /// Mitigation: number of generated circuits.
    pub mitigation_multiplicity: f64,
    /// Mitigation: classical CPU seconds of the stack.
    pub mitigation_classical_s: f64,
}

impl JobFeatures {
    /// Build features from transpiled-circuit metrics, target calibration, and
    /// the applied mitigation stack's cost profile.
    pub fn new(
        metrics: &CircuitMetrics,
        calibration: &CalibrationData,
        mitigation: &MitigationCost,
    ) -> Self {
        JobFeatures {
            width: metrics.width as f64,
            shots: metrics.shots as f64,
            depth: metrics.depth as f64,
            two_qubit_gates: metrics.two_qubit_gates as f64,
            one_qubit_gates: metrics.one_qubit_gates as f64,
            measurements: metrics.measurements as f64,
            mean_two_qubit_error: calibration.mean_two_qubit_error(),
            mean_readout_error: calibration.mean_readout_error(),
            mean_t1_us: calibration.mean_t1_us(),
            mean_t2_us: calibration.mean_t2_us(),
            mitigation_error_factor: mitigation.error_reduction_factor,
            mitigation_quantum_factor: mitigation.quantum_time_factor,
            mitigation_multiplicity: mitigation.circuit_multiplicity as f64,
            mitigation_classical_s: mitigation.classical_time_cpu_s,
        }
    }

    /// Feature vector for **execution-time** estimation (§6: "circuit features
    /// such as the number of qubits (width), the number of shots, circuit
    /// depth, and the number of two-qubit operations", plus the mitigation
    /// configuration).
    pub(crate) fn runtime_features(&self) -> Vec<f64> {
        vec![
            self.width,
            self.shots,
            self.depth,
            self.two_qubit_gates,
            self.one_qubit_gates,
            self.mitigation_quantum_factor,
            self.mitigation_multiplicity,
            self.mitigation_classical_s,
            // Derived interaction features: per-shot duration is dominated by the
            // depth (critical path) and measurement turnaround, so the total
            // runtime is essentially (shots × depth) × mitigation factor. Giving
            // the product explicitly lets a degree-2 polynomial capture the
            // three-way interaction.
            self.shots * self.depth,
            self.shots * self.two_qubit_gates,
        ]
    }

    /// Feature vector for **fidelity** estimation (§6: the runtime features plus
    /// "the qubit topology and error rates of the target QPU").
    pub(crate) fn fidelity_features(&self) -> Vec<f64> {
        vec![
            self.width,
            self.depth,
            self.two_qubit_gates,
            self.one_qubit_gates,
            self.measurements,
            self.mean_two_qubit_error,
            self.mean_readout_error,
            self.mean_t1_us,
            self.mean_t2_us,
            self.mitigation_error_factor,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_backend::CalibrationGenerator;
    use qonductor_circuit::generators::ghz;
    use qonductor_mitigation::MitigationCost;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_features() -> JobFeatures {
        let c = ghz(8);
        let metrics = CircuitMetrics::of(&c);
        let edges: Vec<(u32, u32)> = (0..7).map(|q| (q, q + 1)).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let cal = CalibrationGenerator::default().generate(8, &edges, &mut rng);
        JobFeatures::new(&metrics, &cal, &MitigationCost::identity())
    }

    #[test]
    fn feature_vectors_have_expected_dimensions() {
        let f = sample_features();
        assert_eq!(f.runtime_features().len(), 10);
        assert_eq!(f.fidelity_features().len(), 10);
    }

    #[test]
    fn features_reflect_circuit_structure() {
        let f = sample_features();
        assert_eq!(f.width, 8.0);
        assert_eq!(f.two_qubit_gates, 7.0);
        assert_eq!(f.measurements, 8.0);
        assert!(f.mean_two_qubit_error > 0.0);
        assert!(f.mean_t1_us > 1.0);
    }

    #[test]
    fn identity_mitigation_features_are_neutral() {
        let f = sample_features();
        assert_eq!(f.mitigation_error_factor, 1.0);
        assert_eq!(f.mitigation_quantum_factor, 1.0);
        assert_eq!(f.mitigation_multiplicity, 1.0);
    }
}
