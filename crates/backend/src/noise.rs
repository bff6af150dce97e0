//! Noise model derived from calibration data.
//!
//! The model captures the error channels of §2.1: stochastic gate (Pauli)
//! errors, decoherence-induced damping over the circuit duration (T1/T2), and
//! readout errors. It drives both the noisy simulator and the analytic
//! estimated-success-probability (ESP) fidelity model used for wide circuits
//! and by the numerical baseline estimator.
//!
//! A circuit's duration and its ESP come from one walk: per instruction one
//! `match` and one calibration read (`qubits[q]` for a one-qubit gate or a
//! measurement, `edge(a, b)` for a two-qubit gate) give both its duration
//! and its error. The transpiler takes both from that walk of its output,
//! so an estimate reads the ESP off the transpiled circuit instead of
//! walking it again.

use crate::calibration::{CalibrationData, EdgeCalibration, QubitCalibration};
use qonductor_circuit::{Circuit, Gate, NO_OPERAND};
use std::sync::Arc;

/// A calibration-derived noise model for one QPU. The snapshot is shared,
/// not copied: a model built by [`crate::Qpu::noise_model`] points at the
/// device's own immutable [`CalibrationData`], so building or cloning one is
/// a reference-count bump. A recalibration replaces the device's snapshot
/// and leaves models handed out earlier on the epoch they were built for.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    calibration: Arc<CalibrationData>,
}

impl NoiseModel {
    /// Build a noise model from a calibration snapshot (owned, or an
    /// already shared `Arc`).
    pub fn new(calibration: impl Into<Arc<CalibrationData>>) -> Self {
        NoiseModel { calibration: calibration.into() }
    }

    /// The underlying calibration snapshot.
    pub fn calibration(&self) -> &CalibrationData {
        &self.calibration
    }

    /// Error probability of a single-qubit gate on physical qubit `q`.
    /// Virtual gates (RZ, barriers) are error-free.
    pub(crate) fn one_qubit_error(&self, q: u32) -> f64 {
        self.calibration
            .qubits
            .get(q as usize)
            .map(|c| c.gate_error)
            .unwrap_or_else(|| self.calibration.mean_gate_error())
    }

    /// Error probability of a two-qubit gate on the edge `(a, b)`. If the edge
    /// is not calibrated (e.g. the circuit was not routed to this device), the
    /// device-mean two-qubit error inflated by the coupling distance is used.
    pub(crate) fn two_qubit_error(&self, a: u32, b: u32) -> f64 {
        match self.calibration.edge(a, b) {
            Some(e) => e.gate_error,
            None => (self.calibration.mean_two_qubit_error() * 1.5).min(0.9),
        }
    }

    /// Readout error probability of qubit `q`.
    pub fn readout_error(&self, q: u32) -> f64 {
        self.calibration
            .qubits
            .get(q as usize)
            .map(|c| c.readout_error)
            .unwrap_or_else(|| self.calibration.mean_readout_error())
    }

    /// Probability that an instruction introduces an error.
    pub fn instruction_error(&self, gate: Gate, q0: u32, q1: u32) -> f64 {
        if gate.is_virtual() {
            return 0.0;
        }
        match gate {
            Gate::Measure => self.readout_error(q0),
            Gate::Delay(_) => 0.0,
            g if g.is_two_qubit() => self.two_qubit_error(q0, q1),
            _ => self.one_qubit_error(q0),
        }
    }

    /// Duration of an instruction in nanoseconds according to the calibration.
    /// SWAP gates count as three CX durations (their standard decomposition).
    pub fn instruction_duration_ns(&self, gate: Gate, q0: u32, q1: u32) -> f64 {
        let qubit = |q: u32| {
            self.calibration
                .qubits
                .get(q as usize)
                .copied()
                .unwrap_or_else(QubitCalibration::typical)
        };
        match gate {
            Gate::Barrier | Gate::RZ(_) | Gate::Id => 0.0,
            Gate::Delay(ns) => ns,
            Gate::Measure => qubit(q0).readout_duration_ns,
            g if g.is_two_qubit() => {
                let d = self
                    .calibration
                    .edge(q0, q1)
                    .map(|e| e.gate_duration_ns)
                    .unwrap_or_else(|| EdgeCalibration::typical().gate_duration_ns);
                if matches!(g, Gate::Swap) {
                    3.0 * d
                } else {
                    d
                }
            }
            _ => qubit(q0).gate_duration_ns,
        }
    }

    /// Estimated total execution duration of one shot of `circuit` in
    /// nanoseconds: the critical-path sum of instruction durations.
    pub fn circuit_duration_ns(&self, circuit: &Circuit) -> f64 {
        self.walk::<false>(circuit).0
    }

    /// One shot's duration in nanoseconds ([`Self::circuit_duration_ns`])
    /// and the estimated success probability
    /// ([`Self::estimated_success_probability`]) of `circuit`, from one walk.
    pub fn duration_and_esp(&self, circuit: &Circuit) -> (f64, f64) {
        self.walk::<true>(circuit)
    }

    /// Decoherence survival factor for a qubit idling (or operating) for
    /// `duration_ns`: `exp(-t/T1) · exp(-t/T2)` combined as the standard
    /// approximation `exp(-t·(1/T1 + 1/T2)/2)` on the damping envelope.
    pub fn decoherence_factor(&self, q: u32, duration_ns: f64) -> f64 {
        let cal = self
            .calibration
            .qubits
            .get(q as usize)
            .copied()
            .unwrap_or_else(QubitCalibration::typical);
        let t_us = duration_ns / 1000.0;
        let rate = 0.5 * (1.0 / cal.t1_us + 1.0 / cal.t2_us);
        (-t_us * rate).exp()
    }

    /// Analytic estimated success probability (ESP) of a circuit on this
    /// device: the product of per-instruction success probabilities and the
    /// per-qubit decoherence survival over the circuit duration.
    ///
    /// This is the scalable fidelity proxy used for circuits too wide for the
    /// statevector simulator and by the numerical baseline of Figure 7(b).
    pub fn estimated_success_probability(&self, circuit: &Circuit) -> f64 {
        self.walk::<true>(circuit).1
    }

    /// The one walk behind the duration and the ESP: per instruction, one
    /// `match` and one calibration read — `qubits[q]` for a one-qubit gate
    /// or a measurement, `edge(a, b)` for a two-qubit gate — that gives both
    /// its duration (advancing the per-qubit ASAP finish times) and, if
    /// `ESP`, its error (folded into the product) and the qubits it makes
    /// active. Returns `(duration_ns, esp)`; `esp` is 1 unless `ESP`. The
    /// fallbacks for an uncalibrated qubit or edge are those of
    /// [`Self::instruction_error`] and [`Self::instruction_duration_ns`].
    fn walk<const ESP: bool>(&self, circuit: &Circuit) -> (f64, f64) {
        let cal = &*self.calibration;
        let n = circuit.num_qubits() as usize;
        let mut esp = 1.0f64;
        let mut finish = vec![0.0f64; n];
        let mut active = vec![false; if ESP { n } else { 0 }];
        for instr in circuit.instructions() {
            let q0 = instr.q0 as usize;
            // The error, if `ESP`; virtual gates and delays have none (their
            // factor would be 1).
            let error = match instr.gate {
                Gate::Barrier => {
                    let m = finish.iter().cloned().fold(0.0, f64::max);
                    finish.fill(m);
                    continue;
                }
                Gate::RZ(_) | Gate::Id => None,
                Gate::Delay(ns) => {
                    finish[q0] += ns;
                    None
                }
                Gate::Measure => {
                    let c = cal.qubits.get(q0);
                    let typical = QubitCalibration::typical().readout_duration_ns;
                    finish[q0] += c.map_or(typical, |c| c.readout_duration_ns);
                    ESP.then(|| c.map_or_else(|| cal.mean_readout_error(), |c| c.readout_error))
                }
                g if g.is_two_qubit() => {
                    let e = cal.edge(instr.q0, instr.q1);
                    let typical = EdgeCalibration::typical().gate_duration_ns;
                    let d = e.map_or(typical, |e| e.gate_duration_ns);
                    let d = if g == Gate::Swap { 3.0 * d } else { d };
                    let q1 = instr.q1 as usize;
                    let start = finish[q0].max(finish[q1]);
                    finish[q0] = start + d;
                    finish[q1] = start + d;
                    let uncalibrated = || (cal.mean_two_qubit_error() * 1.5).min(0.9);
                    ESP.then(|| e.map_or_else(uncalibrated, |e| e.gate_error))
                }
                _ => {
                    let c = cal.qubits.get(q0);
                    let typical = QubitCalibration::typical().gate_duration_ns;
                    finish[q0] += c.map_or(typical, |c| c.gate_duration_ns);
                    ESP.then(|| c.map_or_else(|| cal.mean_gate_error(), |c| c.gate_error))
                }
            };
            if ESP {
                if let Some(error) = error {
                    esp *= 1.0 - error;
                }
                active[q0] = true;
                if instr.q1 != NO_OPERAND {
                    active[instr.q1 as usize] = true;
                }
            }
        }
        let duration = finish.iter().cloned().fold(0.0, f64::max);
        if ESP {
            for (q, _) in active.iter().enumerate().filter(|(_, &used)| used) {
                esp *= self.decoherence_factor(q as u32, duration * 0.5);
            }
            esp = esp.clamp(0.0, 1.0);
        }
        (duration, esp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::CalibrationGenerator;
    use crate::fleet::Fleet;
    use qonductor_circuit::generators::{ghz, random_circuit};
    use qonductor_circuit::Instruction;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The duration as it used to be folded: each instruction's
    /// [`NoiseModel::instruction_duration_ns`] advances the per-qubit ASAP
    /// finish times, and a barrier levels them.
    fn duration_oracle(model: &NoiseModel, circuit: &Circuit) -> f64 {
        let mut finish = vec![0.0f64; circuit.num_qubits() as usize];
        for instr in circuit.instructions() {
            if instr.gate == Gate::Barrier {
                let m = finish.iter().cloned().fold(0.0, f64::max);
                finish.fill(m);
                continue;
            }
            let d = model.instruction_duration_ns(instr.gate, instr.q0, instr.q1);
            let q0 = instr.q0 as usize;
            if instr.gate.is_two_qubit() {
                let q1 = instr.q1 as usize;
                let start = finish[q0].max(finish[q1]);
                finish[q0] = start + d;
                finish[q1] = start + d;
            } else {
                finish[q0] += d;
            }
        }
        finish.iter().cloned().fold(0.0, f64::max)
    }

    /// The three walks `estimated_success_probability` used to be: the error
    /// product, then the duration, then the active set.
    fn esp_three_walk_oracle(model: &NoiseModel, circuit: &Circuit) -> f64 {
        let mut esp = 1.0f64;
        for instr in circuit.instructions() {
            let p_err = model.instruction_error(instr.gate, instr.q0, instr.q1);
            esp *= 1.0 - p_err;
        }
        let duration = duration_oracle(model, circuit);
        for &q in circuit.active_qubits().iter() {
            esp *= model.decoherence_factor(q, duration * 0.5);
        }
        esp.clamp(0.0, 1.0)
    }

    /// Bit-for-bit, the ESP against the three walks and the duration against
    /// the per-instruction fold, through every entry point of the one walk:
    /// seeded random circuits (unrouted, so calibrated and uncalibrated edges
    /// mix, and wider than the small devices, so the device-mean fallbacks
    /// run) with barriers, delays, identities and SWAPs spliced in, on every
    /// device and template of the default fleet.
    #[test]
    fn one_walk_esp_equals_the_three_walk_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(24);
        let fleet = Fleet::ibm_default(&mut rng);
        let mut models: Vec<NoiseModel> =
            fleet.members().iter().map(|m| m.qpu.noise_model()).collect();
        models.extend(fleet.template_qpus().iter().map(|t| t.noise_model()));
        let mut distinct = std::collections::HashSet::new();
        for round in 0..40 {
            let width = rng.gen_range(1..=27);
            let mut circuit = random_circuit(width, rng.gen_range(1..=8), &mut rng);
            for _ in 0..round % 6 {
                let at = rng.gen_range(0..=circuit.len());
                let q = rng.gen_range(0..width);
                let extra = match rng.gen_range(0..4) {
                    0 => Instruction::one(Gate::Barrier, 0),
                    1 => Instruction::one(Gate::Delay(rng.gen_range(0.0..900.0)), q),
                    2 => Instruction::one(Gate::Id, q),
                    _ if width > 1 => Instruction::two(Gate::Swap, q, (q + 1) % width),
                    _ => Instruction::one(Gate::Id, q),
                };
                circuit.instructions_mut().insert(at, extra);
            }
            for model in &models {
                let esp = model.estimated_success_probability(&circuit);
                let duration = model.circuit_duration_ns(&circuit);
                assert_eq!(esp.to_bits(), esp_three_walk_oracle(model, &circuit).to_bits());
                assert_eq!(duration.to_bits(), duration_oracle(model, &circuit).to_bits());
                let both = model.duration_and_esp(&circuit);
                assert_eq!(
                    (both.0.to_bits(), both.1.to_bits()),
                    (duration.to_bits(), esp.to_bits())
                );
                distinct.insert(esp.to_bits());
            }
        }
        assert!(distinct.len() > 300, "the inputs exercise the model: {}", distinct.len());
    }

    fn model(n: u32, quality: f64, seed: u64) -> NoiseModel {
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|q| (q, q + 1)).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        NoiseModel::new(CalibrationGenerator::with_quality(quality).generate(n, &edges, &mut rng))
    }

    #[test]
    fn virtual_gates_are_error_free() {
        let m = model(4, 1.0, 1);
        assert_eq!(m.instruction_error(Gate::RZ(0.3), 0, u32::MAX), 0.0);
        assert_eq!(m.instruction_error(Gate::Barrier, 0, u32::MAX), 0.0);
        assert!(m.instruction_error(Gate::CX, 0, 1) > 0.0);
    }

    #[test]
    fn esp_decreases_with_circuit_size() {
        let m = model(20, 1.0, 2);
        let small = m.estimated_success_probability(&ghz(4));
        let large = m.estimated_success_probability(&ghz(16));
        assert!(small > large, "small={small} large={large}");
        assert!(small <= 1.0 && large >= 0.0);
    }

    #[test]
    fn esp_decreases_with_device_quality() {
        let good = model(12, 0.5, 3).estimated_success_probability(&ghz(12));
        let bad = model(12, 3.0, 3).estimated_success_probability(&ghz(12));
        assert!(good > bad, "good={good} bad={bad}");
    }

    #[test]
    fn duration_accumulates_on_critical_path() {
        let m = model(3, 1.0, 4);
        let mut c = Circuit::new(3);
        c.x(0);
        let d1 = m.circuit_duration_ns(&c);
        c.cx(0, 1);
        let d2 = m.circuit_duration_ns(&c);
        assert!(d2 > d1);
        // A gate on an independent qubit does not extend the critical path when
        // it is shorter than the existing one.
        c.x(2);
        let d3 = m.circuit_duration_ns(&c);
        assert!((d3 - d2).abs() < 1e-9);
    }

    #[test]
    fn swap_costs_three_cx() {
        let m = model(3, 1.0, 5);
        let cx = m.instruction_duration_ns(Gate::CX, 0, 1);
        let swap = m.instruction_duration_ns(Gate::Swap, 0, 1);
        assert!((swap - 3.0 * cx).abs() < 1e-9);
    }

    #[test]
    fn decoherence_factor_bounds() {
        let m = model(2, 1.0, 6);
        assert!((m.decoherence_factor(0, 0.0) - 1.0).abs() < 1e-12);
        let f = m.decoherence_factor(0, 1_000_000.0); // 1 ms ≫ T1
        assert!(f < 0.01);
    }
}
