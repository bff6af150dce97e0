//! Structural circuit metrics: the features the resource estimator regresses on
//! (§6 of the paper: width, shots, depth, number of two-qubit operations) plus
//! a few auxiliary counts used by the numerical baseline estimator.

use crate::circuit::Circuit;
use crate::gate::{Gate, NO_OPERAND};

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
    /// Compute metrics from a circuit in one walk: the counts of
    /// [`Circuit::gate_counts`], [`Circuit::num_measurements`],
    /// [`Circuit::active_qubits`] and [`Circuit::depth`] together.
    pub fn of(circuit: &Circuit) -> Self {
        let n = circuit.num_qubits() as usize;
        let mut level = vec![0usize; n];
        let mut used = vec![false; n];
        let (mut depth, mut one, mut two, mut measurements) = (0, 0, 0, 0);
        for instr in circuit.instructions() {
            let gate = instr.gate;
            if gate == Gate::Barrier {
                // Synchronises all qubits without consuming depth.
                let m = level.iter().copied().max().unwrap_or(0);
                level.fill(m);
                continue;
            }
            let q0 = instr.q0 as usize;
            let q1 = (instr.q1 != NO_OPERAND).then_some(instr.q1 as usize);
            used[q0] = true;
            if let Some(q1) = q1 {
                used[q1] = true;
            }
            if gate == Gate::Measure {
                measurements += 1;
            }
            if gate.is_unitary() {
                if gate.is_two_qubit() {
                    two += 1;
                } else {
                    one += 1;
                }
            }
            if !gate.is_virtual() {
                let d = match q1 {
                    Some(q1) => level[q0].max(level[q1]) + 1,
                    None => level[q0] + 1,
                };
                level[q0] = d;
                if let Some(q1) = q1 {
                    level[q1] = d;
                }
                depth = depth.max(d);
            }
        }
        CircuitMetrics {
            width: used.iter().filter(|&&u| u).count() as u32,
            register_size: circuit.num_qubits(),
            depth,
            one_qubit_gates: one,
            two_qubit_gates: two,
            measurements,
            shots: circuit.shots(),
        }
    }

    /// Total gate count (one- plus two-qubit gates).
    pub(crate) fn total_gates(&self) -> usize {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The four walks [`CircuitMetrics::of`] used to make, kept as its oracle.
    fn four_walk_of(circuit: &Circuit) -> CircuitMetrics {
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

    /// Random circuits with barriers, measurements into any bit, delays,
    /// virtual gates (RZ, Id) and idle qubits.
    #[test]
    fn one_walk_equals_the_four_walks_on_random_circuits() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            let width = rng.gen_range(1..12);
            let mut c = Circuit::new(width);
            c.set_shots(rng.gen_range(1..10_000));
            for _ in 0..rng.gen_range(0..60) {
                let q0 = rng.gen_range(0..width);
                let gate = match rng.gen_range(0..12) {
                    0 => {
                        c.barrier();
                        continue;
                    }
                    1 => {
                        c.measure(q0, rng.gen_range(0..width));
                        continue;
                    }
                    2 => Gate::RZ(rng.gen_range(-3.0..3.0)),
                    3 => Gate::Id,
                    4 => Gate::Delay(rng.gen_range(0.0..100.0)),
                    5 => Gate::H,
                    6 => Gate::SX,
                    7 => Gate::U(0.1, 0.2, 0.3),
                    8 => Gate::CX,
                    9 => Gate::RZZ(0.4),
                    10 => Gate::Swap,
                    _ => Gate::CZ,
                };
                if !gate.is_two_qubit() {
                    c.apply1(gate, q0);
                } else if width > 1 {
                    c.apply2(gate, q0, (q0 + rng.gen_range(1..width)) % width);
                }
            }
            assert_eq!(CircuitMetrics::of(&c), four_walk_of(&c));
        }
    }

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
    fn empty_circuit_metrics() {
        let c = Circuit::new(5);
        let m = CircuitMetrics::of(&c);
        assert_eq!(m.total_gates(), 0);
        assert_eq!(m.two_qubit_ratio(), 0.0);
        assert_eq!(m.depth, 0);
    }
}
