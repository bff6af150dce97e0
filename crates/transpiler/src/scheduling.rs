//! ASAP instruction scheduling and idle-window analysis.
//!
//! The schedule assigns a start time (in nanoseconds) to every instruction
//! using the device's calibrated gate durations. The per-qubit idle windows it
//! exposes are consumed by the dynamical-decoupling mitigation pass. The
//! transpiler keeps only the makespan, which
//! [`NoiseModel::circuit_duration_ns`] computes with the same fold.

use qonductor_backend::NoiseModel;
use qonductor_circuit::{Circuit, Gate, NO_OPERAND};

/// A scheduled instruction: index into the circuit plus its time window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledOp {
    /// Index of the instruction in the circuit.
    pub index: usize,
    /// Start time in nanoseconds.
    pub start_ns: f64,
    /// Duration in nanoseconds.
    pub duration_ns: f64,
}

/// An idle period of one qubit between two operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdleWindow {
    /// The idling physical qubit.
    pub qubit: u32,
    /// Idle-window start in nanoseconds.
    pub start_ns: f64,
    /// Idle-window duration in nanoseconds.
    pub duration_ns: f64,
}

/// An ASAP schedule of a circuit on a device.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Per-instruction schedule entries (same order as the circuit).
    pub ops: Vec<ScheduledOp>,
    /// Idle windows per qubit, longest first.
    pub idle_windows: Vec<IdleWindow>,
    /// Total circuit duration (makespan) in nanoseconds for one shot.
    pub total_duration_ns: f64,
}

/// Compute the ASAP schedule of `circuit` using the gate durations of `noise`.
pub fn asap_schedule(circuit: &Circuit, noise: &NoiseModel) -> Schedule {
    let n = circuit.num_qubits() as usize;
    let mut qubit_free_at = vec![0.0f64; n];
    // Track per-qubit activity intervals to derive idle windows.
    let mut last_activity_end = vec![0.0f64; n];
    let mut first_activity_start: Vec<Option<f64>> = vec![None; n];
    let mut idle_windows = Vec::new();
    let mut ops = Vec::with_capacity(circuit.len());

    for (index, instr) in circuit.instructions().iter().enumerate() {
        if instr.gate == Gate::Barrier {
            let m = qubit_free_at.iter().cloned().fold(0.0, f64::max);
            for f in qubit_free_at.iter_mut() {
                *f = m;
            }
            ops.push(ScheduledOp { index, start_ns: m, duration_ns: 0.0 });
            continue;
        }
        let duration = noise.instruction_duration_ns(instr.gate, instr.q0, instr.q1);
        let q0 = instr.q0 as usize;
        let start = if instr.q1 != NO_OPERAND {
            let q1 = instr.q1 as usize;
            qubit_free_at[q0].max(qubit_free_at[q1])
        } else {
            qubit_free_at[q0]
        };
        // Record idle windows that end when this op starts (gap since last activity).
        for &q in &[Some(q0), (instr.q1 != NO_OPERAND).then_some(instr.q1 as usize)] {
            if let Some(q) = q {
                if first_activity_start[q].is_some() {
                    let gap = start - last_activity_end[q];
                    if gap > 1e-9 && duration > 0.0 {
                        idle_windows.push(IdleWindow {
                            qubit: q as u32,
                            start_ns: last_activity_end[q],
                            duration_ns: gap,
                        });
                    }
                } else if duration > 0.0 {
                    first_activity_start[q] = Some(start);
                }
            }
        }
        let end = start + duration;
        qubit_free_at[q0] = end;
        last_activity_end[q0] = end;
        if instr.q1 != NO_OPERAND {
            let q1 = instr.q1 as usize;
            qubit_free_at[q1] = end;
            last_activity_end[q1] = end;
        }
        ops.push(ScheduledOp { index, start_ns: start, duration_ns: duration });
    }

    let total_duration_ns = qubit_free_at.iter().cloned().fold(0.0, f64::max);
    idle_windows.sort_by(|a, b| b.duration_ns.total_cmp(&a.duration_ns));
    Schedule { ops, idle_windows, total_duration_ns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_backend::{CalibrationGenerator, NoiseModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn noise(n: u32) -> NoiseModel {
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|q| (q, q + 1)).collect();
        let mut rng = StdRng::seed_from_u64(1);
        NoiseModel::new(CalibrationGenerator::default().generate(n, &edges, &mut rng))
    }

    #[test]
    fn sequential_gates_on_one_qubit_stack_up() {
        let nm = noise(2);
        let mut c = Circuit::new(2);
        c.x(0).x(0).x(0);
        let s = asap_schedule(&c, &nm);
        assert_eq!(s.ops.len(), 3);
        assert!(s.ops[1].start_ns > s.ops[0].start_ns);
        assert!(s.ops[2].start_ns > s.ops[1].start_ns);
        assert!((s.total_duration_ns - 3.0 * s.ops[0].duration_ns).abs() < 1e-6);
    }

    #[test]
    fn parallel_gates_start_together() {
        let nm = noise(2);
        let mut c = Circuit::new(2);
        c.x(0).x(1);
        let s = asap_schedule(&c, &nm);
        assert_eq!(s.ops[0].start_ns, 0.0);
        assert_eq!(s.ops[1].start_ns, 0.0);
    }

    #[test]
    fn two_qubit_gate_waits_for_both_operands() {
        let nm = noise(2);
        let mut c = Circuit::new(2);
        c.x(0).x(0).cx(0, 1);
        let s = asap_schedule(&c, &nm);
        let cx = s.ops[2];
        assert!((cx.start_ns - (s.ops[0].duration_ns + s.ops[1].duration_ns)).abs() < 1e-6);
    }

    #[test]
    fn idle_windows_detected_for_waiting_qubit() {
        let nm = noise(2);
        let mut c = Circuit::new(2);
        // Qubit 1 acts early, then waits for qubit 0's long sequence before the CX.
        c.x(1);
        c.x(0).x(0).x(0).x(0);
        c.cx(0, 1);
        let s = asap_schedule(&c, &nm);
        assert!(!s.idle_windows.is_empty());
        let w = s.idle_windows.iter().find(|w| w.qubit == 1).expect("qubit 1 idles");
        assert!(w.duration_ns > 0.0);
    }

    #[test]
    fn virtual_gates_take_zero_time() {
        let nm = noise(2);
        let mut c = Circuit::new(2);
        c.rz(0.3, 0).rz(0.7, 0);
        let s = asap_schedule(&c, &nm);
        assert_eq!(s.total_duration_ns, 0.0);
    }

    #[test]
    fn total_duration_matches_noise_model_estimate() {
        let nm = noise(5);
        let c = qonductor_circuit::generators::ghz(5);
        let s = asap_schedule(&c, &nm);
        assert!((s.total_duration_ns - nm.circuit_duration_ns(&c)).abs() < 1e-6);
    }
}
