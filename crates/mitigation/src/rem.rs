//! Readout Error Mitigation (REM): correct measurement errors by inverting the
//! per-qubit readout confusion matrices (tensored mitigation).

use crate::technique::MitigationCost;
use qonductor_backend::{Distribution, NoiseModel};
use qonductor_circuit::Circuit;

/// Per-qubit 2×2 confusion matrix: `p[observed][true]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QubitConfusion {
    /// P(read 1 | prepared 0).
    pub p01: f64,
    /// P(read 0 | prepared 1).
    pub p10: f64,
}

impl QubitConfusion {
    /// Symmetric confusion with error probability `p`.
    pub(crate) fn symmetric(p: f64) -> Self {
        QubitConfusion { p01: p, p10: p }
    }

    /// The 2×2 inverse confusion matrix `[[a, b], [c, d]]` (row = true state,
    /// column = observed state weight), used for tensored inversion.
    fn inverse(&self) -> [[f64; 2]; 2] {
        // Confusion matrix M = [[1-p01, p10], [p01, 1-p10]] maps true → observed.
        let det = (1.0 - self.p01) * (1.0 - self.p10) - self.p01 * self.p10;
        assert!(det.abs() > 1e-9, "confusion matrix is singular");
        [[(1.0 - self.p10) / det, -self.p10 / det], [-self.p01 / det, (1.0 - self.p01) / det]]
    }
}

/// Tensored readout-error mitigator over `k` measured qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadoutMitigator {
    qubits: Vec<QubitConfusion>,
}

impl ReadoutMitigator {
    /// Build a mitigator from explicit per-qubit confusion matrices (ordered by
    /// classical bit index).
    pub fn new(qubits: Vec<QubitConfusion>) -> Self {
        ReadoutMitigator { qubits }
    }

    /// Build a mitigator for a circuit executed on a device: one confusion
    /// matrix per measured classical bit, using the device's calibrated readout
    /// errors of the measured physical qubits.
    pub fn from_noise(circuit: &Circuit, noise: &NoiseModel) -> Self {
        let mut measured: Vec<(u32, u32)> = circuit
            .instructions()
            .iter()
            .filter(|i| i.gate == qonductor_circuit::Gate::Measure)
            .map(|i| (i.cbit, i.q0))
            .collect();
        measured.sort_unstable();
        let qubits = measured
            .iter()
            .map(|&(_cbit, q)| QubitConfusion::symmetric(noise.readout_error(q)))
            .collect();
        ReadoutMitigator { qubits }
    }

    /// Apply tensored inversion to a counts distribution, clipping negative
    /// quasi-probabilities to zero and renormalising (the standard REM
    /// post-selection step).
    pub fn apply(&self, counts: &Distribution) -> Distribution {
        if self.qubits.is_empty() || counts.is_empty() {
            return counts.clone();
        }
        let inverses: Vec<[[f64; 2]; 2]> = self.qubits.iter().map(|q| q.inverse()).collect();
        let mut current: Distribution = counts.clone();
        // Apply the inverse of each qubit's confusion matrix one bit at a time.
        for (bit, inv) in inverses.iter().enumerate() {
            let mut next = Distribution::new();
            for (&key, &weight) in &current {
                let observed_bit = ((key >> bit) & 1) as usize;
                for (true_bit, inv_row) in inv.iter().enumerate() {
                    let w = inv_row[observed_bit] * weight;
                    if w.abs() < 1e-15 {
                        continue;
                    }
                    let new_key = (key & !(1u64 << bit)) | ((true_bit as u64) << bit);
                    *next.entry(new_key).or_insert(0.0) += w;
                }
            }
            current = next;
        }
        // Clip negatives and renormalise to the original total weight.
        let original_total: f64 = counts.values().sum();
        let mut clipped: Distribution = current.into_iter().filter(|(_, v)| *v > 0.0).collect();
        let new_total: f64 = clipped.values().sum();
        if new_total > 0.0 {
            for v in clipped.values_mut() {
                *v *= original_total / new_total;
            }
        }
        clipped
    }
}

/// Resource-cost profile of REM for the resource estimator: one extra
/// calibration circuit batch, negligible quantum overhead, classical inversion
/// cost growing with the number of measured bits.
pub fn cost(circuit: &Circuit) -> MitigationCost {
    let bits = circuit.num_measurements().max(1);
    MitigationCost {
        circuit_multiplicity: 1,
        quantum_time_factor: 1.05,
        classical_time_cpu_s: 0.01 + 0.001 * bits as f64,
        accelerator_speedup: 1.0,
        error_reduction_factor: 0.75,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_backend::hellinger_fidelity;

    fn dist(pairs: &[(u64, f64)]) -> Distribution {
        pairs.iter().copied().collect()
    }

    #[test]
    fn perfect_readout_is_identity() {
        let m = ReadoutMitigator::new(vec![QubitConfusion::symmetric(0.0); 2]);
        let counts = dist(&[(0b00, 500.0), (0b11, 500.0)]);
        let out = m.apply(&counts);
        assert!(hellinger_fidelity(&counts, &out) > 0.9999);
    }

    #[test]
    fn inversion_recovers_ideal_distribution() {
        // True distribution: 50/50 on |00⟩ and |11⟩. Readout error p = 0.1 per bit.
        let p = 0.1;
        let m = ReadoutMitigator::new(vec![QubitConfusion::symmetric(p); 2]);
        // Analytically corrupt the ideal distribution with independent bit flips.
        let ideal = dist(&[(0b00, 0.5), (0b11, 0.5)]);
        let mut noisy = Distribution::new();
        for (&key, &w) in &ideal {
            for flip in 0..4u64 {
                let mut prob = w;
                for bit in 0..2 {
                    let flipped = (flip >> bit) & 1 == 1;
                    prob *= if flipped { p } else { 1.0 - p };
                }
                *noisy.entry(key ^ flip).or_insert(0.0) += prob;
            }
        }
        let recovered = m.apply(&noisy);
        assert!(
            hellinger_fidelity(&ideal, &recovered) > 0.999,
            "REM should undo analytic readout noise"
        );
    }

    #[test]
    fn mitigation_improves_fidelity_of_noisy_counts() {
        let p = 0.08;
        let ideal = dist(&[(0b000, 0.5), (0b111, 0.5)]);
        // Corrupt with independent flips on 3 bits.
        let mut noisy = Distribution::new();
        for (&key, &w) in &ideal {
            for flip in 0..8u64 {
                let mut prob = w;
                for bit in 0..3 {
                    let flipped = (flip >> bit) & 1 == 1;
                    prob *= if flipped { p } else { 1.0 - p };
                }
                *noisy.entry(key ^ flip).or_insert(0.0) += prob;
            }
        }
        let before = hellinger_fidelity(&ideal, &noisy);
        let m = ReadoutMitigator::new(vec![QubitConfusion::symmetric(p); 3]);
        let after = hellinger_fidelity(&ideal, &m.apply(&noisy));
        assert!(after > before, "before={before} after={after}");
    }

    /// With the measurements in reverse program order and a different
    /// readout error on each qubit, the simulator's register and REM agree
    /// on which qubit each bit reads, so REM recovers the ideal distribution.
    #[test]
    fn rem_recovers_reversed_measurements_with_per_qubit_readout_errors() {
        use qonductor_backend::{CalibrationGenerator, QubitCalibration, Simulator};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(39);
        let mut calibration = CalibrationGenerator::default().generate(2, &[(0, 1)], &mut rng);
        for (qubit, readout_error) in calibration.qubits.iter_mut().zip([0.02, 0.2]) {
            let noiseless =
                QubitCalibration { t1_us: 1e12, t2_us: 1e12, gate_error: 0.0, ..*qubit };
            *qubit = QubitCalibration { readout_error, ..noiseless };
        }
        let noise = NoiseModel::new(calibration);
        let mut circuit = Circuit::new(2);
        circuit.x(0).measure(1, 1).measure(0, 0);
        circuit.set_shots(40_000);
        let sim = Simulator::default();
        let ideal = sim.ideal_distribution(&circuit);
        assert_eq!(ideal, dist(&[(0b01, 1.0)]));
        let noisy = sim.execute(&circuit, &noise, &mut rng).counts;
        let mitigated = ReadoutMitigator::from_noise(&circuit, &noise).apply(&noisy);
        let (before, after) =
            (hellinger_fidelity(&ideal, &noisy), hellinger_fidelity(&ideal, &mitigated));
        assert!(before < 0.8 && after > 0.98, "before={before} after={after}");
    }

    #[test]
    fn total_weight_is_preserved() {
        let m = ReadoutMitigator::new(vec![QubitConfusion::symmetric(0.1); 2]);
        let counts = dist(&[(0, 700.0), (1, 200.0), (3, 100.0)]);
        let out = m.apply(&counts);
        let total: f64 = out.values().sum();
        assert!((total - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn empty_counts_pass_through() {
        let m = ReadoutMitigator::new(vec![QubitConfusion::symmetric(0.1)]);
        let out = m.apply(&Distribution::new());
        assert!(out.is_empty());
    }

    #[test]
    fn cost_reduces_error_and_is_cheap_quantum_side() {
        let c = qonductor_circuit::generators::ghz(8);
        let cost = cost(&c);
        assert_eq!(cost.circuit_multiplicity, 1);
        assert!(cost.quantum_time_factor < 1.2);
        assert!(cost.error_reduction_factor < 1.0);
    }
}
