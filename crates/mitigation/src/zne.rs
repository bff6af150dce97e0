//! Zero-Noise Extrapolation (ZNE): run the circuit at several amplified noise
//! levels (via unitary gate folding) and extrapolate the observable back to the
//! zero-noise limit.

use crate::technique::MitigationCost;
use qonductor_circuit::Circuit;

/// Extrapolation model fitted over the (noise factor, value) pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtrapolationFactory {
    /// Ordinary least-squares line, evaluated at zero noise.
    Linear,
    /// Richardson extrapolation (exact polynomial through all points).
    Richardson,
    /// Exponential decay fit `a·exp(-b·λ) + c` approximated on the log scale.
    Exponential,
}

/// ZNE configuration: which noise factors to run and how to extrapolate.
#[derive(Debug, Clone, PartialEq)]
pub struct ZneConfig {
    /// Noise scale factors (must be ≥ 1; odd integers fold exactly).
    pub noise_factors: Vec<f64>,
    /// Extrapolation model.
    pub factory: ExtrapolationFactory,
}

impl Default for ZneConfig {
    /// The paper's Listing 2 uses `noise_factors = (1, 3, 5)` with a linear factory.
    fn default() -> Self {
        ZneConfig { noise_factors: vec![1.0, 3.0, 5.0], factory: ExtrapolationFactory::Linear }
    }
}

/// Fold the unitary part of a circuit to amplify its noise by roughly `factor`.
///
/// Global folding maps `C → C · (C† C)^k` where `factor = 2k + 1`; fractional
/// factors apply an additional partial fold of the first gates. Measurements
/// stay at the end of the folded circuit.
pub fn fold_circuit(circuit: &Circuit, factor: f64) -> Circuit {
    assert!(factor >= 1.0, "noise factor must be ≥ 1");
    let unitary = circuit.unitary_part();
    let inverse = unitary.inverse();
    let num_full_folds = ((factor - 1.0) / 2.0).floor() as usize;
    let mut folded = Circuit::named(circuit.num_qubits(), circuit.name().to_string());
    folded.set_shots(circuit.shots());
    folded.compose(&unitary);
    for _ in 0..num_full_folds {
        folded.compose(&inverse);
        folded.compose(&unitary);
    }
    // Partial fold for the fractional remainder.
    let remainder = factor - 1.0 - 2.0 * num_full_folds as f64;
    if remainder > 1e-9 {
        let num_gates = ((remainder / 2.0) * unitary.len() as f64).round() as usize;
        if num_gates > 0 {
            let partial: Vec<_> = unitary.instructions()[..num_gates.min(unitary.len())].to_vec();
            // Fold the prefix: append its inverse then itself.
            for instr in partial.iter().rev() {
                let mut inv = *instr;
                inv.gate = instr.gate.inverse();
                folded.push(inv);
            }
            for instr in &partial {
                folded.push(*instr);
            }
        }
    }
    // Re-append the measurements (and barriers) from the original circuit.
    for instr in circuit.instructions() {
        if !instr.gate.is_unitary() {
            folded.push(*instr);
        }
    }
    folded
}

/// Generate the set of folded circuits for a ZNE configuration.
pub fn generate_circuits(circuit: &Circuit, config: &ZneConfig) -> Vec<Circuit> {
    config.noise_factors.iter().map(|&f| fold_circuit(circuit, f)).collect()
}

/// Extrapolate measured values at the given noise factors back to zero noise.
///
/// # Panics
/// Panics if fewer than two `(factor, value)` pairs are provided or the lengths differ.
pub fn extrapolate(noise_factors: &[f64], values: &[f64], factory: ExtrapolationFactory) -> f64 {
    assert_eq!(noise_factors.len(), values.len(), "factor/value length mismatch");
    assert!(noise_factors.len() >= 2, "extrapolation needs at least two points");
    match factory {
        ExtrapolationFactory::Linear => linear_extrapolate(noise_factors, values),
        ExtrapolationFactory::Richardson => richardson_extrapolate(noise_factors, values),
        ExtrapolationFactory::Exponential => exponential_extrapolate(noise_factors, values),
    }
}

fn linear_extrapolate(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-15 {
        return ys[0];
    }
    let slope = (n * sxy - sx * sy) / denom;

    (sy - slope * sx) / n
}

/// Richardson extrapolation: evaluate the Lagrange interpolating polynomial at λ = 0.
fn richardson_extrapolate(xs: &[f64], ys: &[f64]) -> f64 {
    let mut result = 0.0;
    for (i, (&xi, &yi)) in xs.iter().zip(ys).enumerate() {
        let mut weight = 1.0;
        for (j, &xj) in xs.iter().enumerate() {
            if i != j {
                weight *= xj / (xj - xi);
            }
        }
        result += weight * yi;
    }
    result
}

/// Exponential extrapolation on the assumption `y(λ) = c + a·exp(-bλ)` with the
/// asymptote `c` estimated from the largest-noise value; falls back to linear
/// when the data are not monotone.
fn exponential_extrapolate(xs: &[f64], ys: &[f64]) -> f64 {
    let c = ys.last().copied().unwrap_or(0.0) * 0.5;
    let shifted: Vec<f64> = ys.iter().map(|y| y - c).collect();
    if shifted.iter().any(|&v| v <= 0.0) {
        return linear_extrapolate(xs, ys);
    }
    let logs: Vec<f64> = shifted.iter().map(|v| v.ln()).collect();
    let log_at_zero = linear_extrapolate(xs, &logs);
    c + log_at_zero.exp()
}

/// Resource-cost profile of a ZNE configuration (used by the resource estimator).
pub fn cost(config: &ZneConfig, circuit: &Circuit) -> MitigationCost {
    let k = config.noise_factors.len().max(1);
    let quantum_time_factor: f64 = config.noise_factors.iter().sum::<f64>().max(1.0);
    // Classical post-processing: fitting k points per observable; scales mildly
    // with circuit size (result histogram width).
    let classical = 0.05 + 0.002 * k as f64 * circuit.num_qubits() as f64;
    let error_reduction = match config.factory {
        ExtrapolationFactory::Linear => 0.55,
        ExtrapolationFactory::Richardson => 0.45,
        ExtrapolationFactory::Exponential => 0.40,
    };
    MitigationCost {
        circuit_multiplicity: k,
        quantum_time_factor,
        classical_time_cpu_s: classical,
        accelerator_speedup: 1.5,
        error_reduction_factor: error_reduction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_backend::Simulator;
    use qonductor_circuit::generators::ghz;

    #[test]
    fn folding_multiplies_gate_count_for_odd_factors() {
        let c = ghz(4);
        let base_gates = c.gate_counts();
        let folded = fold_circuit(&c, 3.0);
        let folded_gates = folded.gate_counts();
        assert_eq!(folded_gates.1, 3 * base_gates.1);
        assert_eq!(folded.num_measurements(), c.num_measurements());
    }

    #[test]
    fn folding_factor_one_is_identity_on_gate_count() {
        let c = ghz(5);
        let folded = fold_circuit(&c, 1.0);
        assert_eq!(folded.gate_counts(), c.gate_counts());
    }

    #[test]
    fn fractional_folding_is_between_odd_factors() {
        let c = ghz(6);
        let f1 = fold_circuit(&c, 1.0).len();
        let f2 = fold_circuit(&c, 2.0).len();
        let f3 = fold_circuit(&c, 3.0).len();
        assert!(f1 < f2 && f2 < f3);
    }

    #[test]
    fn folded_circuit_preserves_ideal_distribution() {
        let c = ghz(5);
        let folded = fold_circuit(&c, 3.0);
        let sim = Simulator::default();
        let a = sim.ideal_distribution(&c);
        let b = sim.ideal_distribution(&folded);
        assert!(qonductor_backend::hellinger_fidelity(&a, &b) > 0.999);
    }

    #[test]
    fn generate_circuits_yields_one_per_factor() {
        let c = ghz(3);
        let circuits = generate_circuits(&c, &ZneConfig::default());
        assert_eq!(circuits.len(), 3);
    }

    #[test]
    fn linear_extrapolation_recovers_exact_line() {
        // y = 0.9 - 0.1 λ → zero-noise value 0.9.
        let xs = [1.0, 3.0, 5.0];
        let ys = [0.8, 0.6, 0.4];
        let z = extrapolate(&xs, &ys, ExtrapolationFactory::Linear);
        assert!((z - 0.9).abs() < 1e-9);
    }

    #[test]
    fn richardson_recovers_quadratic() {
        // y = 1 - 0.05 λ - 0.01 λ² → y(0) = 1.
        let f = |l: f64| 1.0 - 0.05 * l - 0.01 * l * l;
        let xs = [1.0, 2.0, 3.0];
        let ys = [f(1.0), f(2.0), f(3.0)];
        let z = extrapolate(&xs, &ys, ExtrapolationFactory::Richardson);
        assert!((z - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exponential_extrapolation_is_finite_and_above_data() {
        let xs = [1.0, 3.0, 5.0];
        let ys = [0.7, 0.5, 0.38];
        let z = extrapolate(&xs, &ys, ExtrapolationFactory::Exponential);
        assert!(z.is_finite());
        assert!(z > 0.7, "zero-noise estimate should exceed the noisiest value, got {z}");
    }

    #[test]
    #[should_panic]
    fn extrapolation_with_single_point_panics() {
        extrapolate(&[1.0], &[0.5], ExtrapolationFactory::Linear);
    }

    #[test]
    fn cost_scales_with_noise_factors() {
        let c = ghz(8);
        let cheap = cost(
            &ZneConfig { noise_factors: vec![1.0, 2.0], factory: ExtrapolationFactory::Linear },
            &c,
        );
        let expensive = cost(&ZneConfig::default(), &c);
        assert_eq!(cheap.circuit_multiplicity, 2);
        assert_eq!(expensive.circuit_multiplicity, 3);
        assert!(expensive.quantum_time_factor > cheap.quantum_time_factor);
        assert!(expensive.error_reduction_factor < 1.0);
    }
}
