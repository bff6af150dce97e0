//! Probabilistic Error Cancellation (PEC): represent the inverse of the noise
//! channel as a quasi-probability mixture of implementable circuits, sample
//! circuits from that mixture, and combine their results with signed weights.
//!
//! For orchestration purposes the decisive properties are the *sampling
//! overhead* γ (the one-norm of the quasi-probability representation), which
//! determines how many extra circuits/shots are needed, and the strong error
//! suppression PEC delivers when the noise model is accurate.

use crate::technique::MitigationCost;
use qonductor_backend::NoiseModel;
use qonductor_circuit::{Circuit, Gate, Instruction};
use rand::Rng;

/// PEC configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PecConfig {
    /// Number of circuit instances sampled from the quasi-probability mixture.
    pub num_samples: usize,
    /// Cap on the sampling overhead γ; configurations whose γ exceeds this are
    /// considered infeasible by the resource estimator.
    pub max_gamma: f64,
}

impl Default for PecConfig {
    fn default() -> Self {
        PecConfig { num_samples: 16, max_gamma: 100.0 }
    }
}

/// One sampled PEC circuit instance with its signed weight.
#[derive(Debug, Clone)]
pub struct PecSample {
    /// The sampled circuit (original circuit with inserted inverse-noise Paulis).
    pub circuit: Circuit,
    /// Signed weight (+1/−1 times the normalised magnitude) of this sample.
    pub weight: f64,
}

/// Sampling overhead γ of representing the inverse noise of `circuit` on the
/// device described by `noise`: for a depolarizing channel of strength p on
/// each gate, the per-gate overhead is `(1 + p/2) / (1 − p)` and overheads
/// multiply across gates.
pub(crate) fn sampling_overhead(circuit: &Circuit, noise: &NoiseModel) -> f64 {
    let mut gamma = 1.0f64;
    for instr in circuit.instructions() {
        if !instr.gate.is_unitary() || instr.gate.is_virtual() {
            continue;
        }
        let p = noise.instruction_error(instr.gate, instr.q0, instr.q1).min(0.5);
        gamma *= (1.0 + p / 2.0) / (1.0 - p);
    }
    gamma
}

/// Sample PEC circuit instances: each instance follows the original circuit but
/// inserts, after each noisy gate, a random Pauli with probability proportional
/// to the gate's error rate (the inverse-channel representative); its weight
/// sign flips per inserted Pauli, as in the quasi-probability decomposition.
pub(crate) fn generate_samples<R: Rng + ?Sized>(
    circuit: &Circuit,
    noise: &NoiseModel,
    config: &PecConfig,
    rng: &mut R,
) -> Vec<PecSample> {
    let gamma = sampling_overhead(circuit, noise);
    (0..config.num_samples)
        .map(|_| {
            let mut out = Circuit::named(circuit.num_qubits(), circuit.name().to_string());
            out.set_shots(circuit.shots());
            let mut sign = 1.0f64;
            for instr in circuit.instructions() {
                out.push(*instr);
                if !instr.gate.is_unitary() || instr.gate.is_virtual() {
                    continue;
                }
                let p = noise.instruction_error(instr.gate, instr.q0, instr.q1).min(0.5);
                if rng.gen_bool((p / (1.0 + p / 2.0)).clamp(0.0, 1.0)) {
                    let pauli = match rng.gen_range(0..3) {
                        0 => Gate::X,
                        1 => Gate::Y,
                        _ => Gate::Z,
                    };
                    out.push(Instruction::one(pauli, instr.q0));
                    sign = -sign;
                }
            }
            PecSample { circuit: out, weight: sign * gamma / config.num_samples as f64 }
        })
        .collect()
}

/// Resource-cost profile of PEC. The quantum time grows with the number of
/// samples and γ² (shot amplification needed to keep the estimator variance
/// constant); the classical post-processing combines the signed estimates.
pub fn cost(circuit: &Circuit, noise: &NoiseModel, config: &PecConfig) -> MitigationCost {
    let gamma = sampling_overhead(circuit, noise);
    let shot_amplification = (gamma * gamma).min(config.max_gamma);
    MitigationCost {
        circuit_multiplicity: config.num_samples,
        quantum_time_factor: shot_amplification.max(1.0),
        classical_time_cpu_s: 0.1 + 0.01 * config.num_samples as f64,
        accelerator_speedup: 2.0,
        error_reduction_factor: 0.25,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_backend::CalibrationGenerator;
    use qonductor_circuit::generators::ghz;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn noise(n: u32, quality: f64) -> NoiseModel {
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|q| (q, q + 1)).collect();
        let mut rng = StdRng::seed_from_u64(11);
        NoiseModel::new(CalibrationGenerator::with_quality(quality).generate(n, &edges, &mut rng))
    }

    #[test]
    fn overhead_grows_with_circuit_size_and_noise() {
        let nm = noise(16, 1.0);
        let small = sampling_overhead(&ghz(4), &nm);
        let large = sampling_overhead(&ghz(16), &nm);
        assert!(small >= 1.0);
        assert!(large > small);
        let noisy = sampling_overhead(&ghz(16), &noise(16, 4.0));
        assert!(noisy > large);
    }

    #[test]
    fn samples_carry_signed_weights_summing_near_gamma_in_magnitude() {
        let nm = noise(6, 1.0);
        let c = ghz(6);
        let mut rng = StdRng::seed_from_u64(3);
        let config = PecConfig { num_samples: 32, max_gamma: 100.0 };
        let samples = generate_samples(&c, &nm, &config, &mut rng);
        assert_eq!(samples.len(), 32);
        let gamma = sampling_overhead(&c, &nm);
        let total_magnitude: f64 = samples.iter().map(|s| s.weight.abs()).sum();
        assert!((total_magnitude - gamma).abs() < 1e-9);
        // Every sampled circuit still contains the original gates.
        assert!(samples.iter().all(|s| s.circuit.len() >= c.len()));
    }

    #[test]
    fn most_samples_are_unmodified_for_low_noise() {
        let nm = noise(4, 0.2);
        let c = ghz(4);
        let mut rng = StdRng::seed_from_u64(4);
        let samples = generate_samples(&c, &nm, &PecConfig::default(), &mut rng);
        let unmodified = samples.iter().filter(|s| s.circuit.len() == c.len()).count();
        assert!(unmodified > samples.len() / 2);
    }

    #[test]
    fn cost_reflects_gamma_squared_amplification() {
        let nm = noise(12, 2.0);
        let c = ghz(12);
        let cost = cost(&c, &nm, &PecConfig::default());
        let gamma = sampling_overhead(&c, &nm);
        assert!(cost.quantum_time_factor >= gamma.min(10.0));
        assert!(cost.error_reduction_factor < 0.5);
    }
}
