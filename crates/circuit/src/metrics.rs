//! Structural circuit metrics: the features the resource estimator regresses on
//! (§6 of the paper: width, shots, depth, number of two-qubit operations) plus
//! a few auxiliary counts used by the numerical baseline estimator.

use crate::circuit::Circuit;

/// Structural metrics of a circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitMetrics {
    /// Circuit width: number of qubits actually used.
    pub width: u32,
    /// Register size (declared number of qubits).
    pub register_size: u32,
    /// Circuit depth (longest dependency chain of non-virtual operations).
    pub depth: usize,
    /// Number of single-qubit gates.
    pub one_qubit_gates: usize,
    /// Number of two-qubit gates.
    pub two_qubit_gates: usize,
    /// Number of measurement operations.
    pub measurements: usize,
    /// Number of shots requested.
    pub shots: u32,
}

impl CircuitMetrics {
    /// Compute metrics from a circuit.
    pub fn of(circuit: &Circuit) -> Self {
        let (one, two) = circuit.gate_counts();
        CircuitMetrics {
            width: circuit.active_qubits().len() as u32,
            register_size: circuit.num_qubits(),
            depth: circuit.depth(),
            one_qubit_gates: one,
            two_qubit_gates: two,
            measurements: circuit.num_measurements(),
            shots: circuit.shots(),
        }
    }

    /// Total gate count (one- plus two-qubit gates).
    pub fn total_gates(&self) -> usize {
        self.one_qubit_gates + self.two_qubit_gates
    }

    /// Ratio of two-qubit gates to all gates (0 if the circuit has no gates).
    pub fn two_qubit_ratio(&self) -> f64 {
        let total = self.total_gates();
        if total == 0 {
            0.0
        } else {
            self.two_qubit_gates as f64 / total as f64
        }
    }

    /// Feature vector used by the regression estimator:
    /// `[width, shots, depth, two_qubit_gates, one_qubit_gates, measurements]`.
    pub fn feature_vector(&self) -> Vec<f64> {
        vec![
            self.width as f64,
            self.shots as f64,
            self.depth as f64,
            self.two_qubit_gates as f64,
            self.one_qubit_gates as f64,
            self.measurements as f64,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    #[test]
    fn metrics_of_ghz_like_circuit() {
        let mut c = Circuit::new(4);
        c.h(0);
        for q in 0..3 {
            c.cx(q, q + 1);
        }
        c.measure_all();
        let m = CircuitMetrics::of(&c);
        assert_eq!(m.width, 4);
        assert_eq!(m.register_size, 4);
        assert_eq!(m.one_qubit_gates, 1);
        assert_eq!(m.two_qubit_gates, 3);
        assert_eq!(m.measurements, 4);
        assert_eq!(m.depth, 5); // H + 3 CX chain + measure on last qubit
        assert_eq!(m.total_gates(), 4);
        assert!((m.two_qubit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn width_ignores_idle_qubits() {
        let mut c = Circuit::new(10);
        c.h(2).cx(2, 7);
        let m = CircuitMetrics::of(&c);
        assert_eq!(m.width, 2);
        assert_eq!(m.register_size, 10);
    }

    #[test]
    fn feature_vector_layout() {
        let mut c = Circuit::new(3);
        c.set_shots(4096);
        c.h(0).cx(0, 1).measure_all();
        let f = CircuitMetrics::of(&c).feature_vector();
        assert_eq!(f.len(), 6);
        assert_eq!(f[0], 3.0); // measure_all touches all three qubits
        assert_eq!(f[1], 4096.0);
    }

    #[test]
    fn empty_circuit_metrics() {
        let c = Circuit::new(5);
        let m = CircuitMetrics::of(&c);
        assert_eq!(m.total_gates(), 0);
        assert_eq!(m.two_qubit_ratio(), 0.0);
        assert_eq!(m.depth, 0);
    }
}
