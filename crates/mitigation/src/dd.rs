//! Dynamical Decoupling (DD): insert pulse sequences into long idle windows to
//! suppress decoherence of idling qubits.

use crate::technique::MitigationCost;
use qonductor_backend::NoiseModel;
use qonductor_circuit::{Circuit, Gate, Instruction};
use qonductor_transpiler::asap_schedule;

/// Supported DD pulse sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DdSequence {
    /// X–X echo pair ("XpXm" in the paper's Listing 2).
    XpXm,
    /// XY4: X–Y–X–Y, more robust against general dephasing.
    Xy4,
}

impl DdSequence {
    /// The gates of one repetition of the sequence.
    pub fn gates(&self) -> &'static [Gate] {
        match self {
            DdSequence::XpXm => &[Gate::X, Gate::X],
            DdSequence::Xy4 => &[Gate::X, Gate::Y, Gate::X, Gate::Y],
        }
    }
}

/// Result of a DD insertion pass.
#[derive(Debug, Clone)]
pub struct DdResult {
    /// The circuit with DD sequences inserted.
    pub circuit: Circuit,
    /// Number of pulse pairs/quadruples inserted.
    pub sequences_inserted: usize,
    /// Total idle time (ns) that was covered by DD sequences.
    pub idle_time_covered_ns: f64,
}

/// Insert DD sequences into every idle window longer than `min_idle_ns`.
///
/// The inserted pulses are appended after the circuit position where the idle
/// window begins (the pulse pair is identity-equivalent, so the ideal output
/// distribution is unchanged; on hardware it refocuses dephasing).
pub fn insert_dd(
    circuit: &Circuit,
    noise: &NoiseModel,
    sequence: DdSequence,
    min_idle_ns: f64,
) -> DdResult {
    let schedule = asap_schedule(circuit, noise);
    // Map from instruction index → DD pulses to insert right after it, per qubit.
    // We insert after the last instruction that finished before the idle window.
    let mut insert_after: Vec<(usize, u32)> = Vec::new();
    let mut covered = 0.0;
    for window in &schedule.idle_windows {
        if window.duration_ns < min_idle_ns {
            continue;
        }
        // Find the last op on this qubit that ends at the window start.
        let mut anchor: Option<usize> = None;
        for op in &schedule.ops {
            let instr = circuit.instructions()[op.index];
            if instr.touches(window.qubit)
                && (op.start_ns + op.duration_ns - window.start_ns).abs() < 1e-6
            {
                anchor = Some(op.index);
            }
        }
        if let Some(idx) = anchor {
            insert_after.push((idx, window.qubit));
            covered += window.duration_ns;
        }
    }
    insert_after.sort_unstable();

    let mut out = Circuit::named(circuit.num_qubits(), circuit.name().to_string());
    out.set_shots(circuit.shots());
    let mut inserted = 0usize;
    for (idx, instr) in circuit.instructions().iter().enumerate() {
        out.push(*instr);
        for &(anchor, qubit) in insert_after.iter().filter(|(a, _)| *a == idx) {
            debug_assert_eq!(anchor, idx);
            for &g in sequence.gates() {
                out.push(Instruction::one(g, qubit));
            }
            inserted += 1;
        }
    }
    DdResult { circuit: out, sequences_inserted: inserted, idle_time_covered_ns: covered }
}

/// Resource-cost profile of DD: no extra circuits, a small quantum-time
/// overhead from the inserted pulses, and suppression of the decoherence
/// component of the error.
pub fn cost(circuit: &Circuit, sequence: DdSequence) -> MitigationCost {
    let pulses = sequence.gates().len() as f64;
    MitigationCost {
        circuit_multiplicity: 1,
        quantum_time_factor: 1.0 + 0.01 * pulses,
        classical_time_cpu_s: 0.02 + 1e-4 * circuit.len() as f64,
        accelerator_speedup: 1.0,
        error_reduction_factor: match sequence {
            DdSequence::XpXm => 0.85,
            DdSequence::Xy4 => 0.80,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_backend::{CalibrationGenerator, Simulator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn noise(n: u32) -> NoiseModel {
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|q| (q, q + 1)).collect();
        let mut rng = StdRng::seed_from_u64(3);
        NoiseModel::new(CalibrationGenerator::default().generate(n, &edges, &mut rng))
    }

    /// A circuit where qubit 1 idles for a long time waiting for qubit 0.
    fn idle_heavy_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(1);
        for _ in 0..30 {
            c.x(0);
        }
        c.cx(0, 1);
        c.measure_all();
        c
    }

    #[test]
    fn dd_inserts_sequences_into_long_idle_windows() {
        let c = idle_heavy_circuit();
        let nm = noise(2);
        let res = insert_dd(&c, &nm, DdSequence::XpXm, 100.0);
        assert!(res.sequences_inserted >= 1);
        assert!(res.idle_time_covered_ns > 0.0);
        assert!(res.circuit.len() > c.len());
    }

    #[test]
    fn dd_pulse_pairs_preserve_ideal_distribution() {
        let c = idle_heavy_circuit();
        let nm = noise(2);
        let res = insert_dd(&c, &nm, DdSequence::XpXm, 100.0);
        let sim = Simulator::default();
        let a = sim.ideal_distribution(&c);
        let b = sim.ideal_distribution(&res.circuit);
        assert!(qonductor_backend::hellinger_fidelity(&a, &b) > 0.999);
    }

    #[test]
    fn no_insertion_when_threshold_is_huge() {
        let c = idle_heavy_circuit();
        let nm = noise(2);
        let res = insert_dd(&c, &nm, DdSequence::XpXm, 1e9);
        assert_eq!(res.sequences_inserted, 0);
        assert_eq!(res.circuit.len(), c.len());
    }

    #[test]
    fn xy4_inserts_four_pulses_per_window() {
        let c = idle_heavy_circuit();
        let nm = noise(2);
        let xpxm = insert_dd(&c, &nm, DdSequence::XpXm, 100.0);
        let xy4 = insert_dd(&c, &nm, DdSequence::Xy4, 100.0);
        assert_eq!(
            xy4.circuit.len() - c.len(),
            2 * (xpxm.circuit.len() - c.len()),
            "XY4 inserts twice as many pulses as XpXm"
        );
    }

    #[test]
    fn cost_profiles_differ_by_sequence() {
        let c = idle_heavy_circuit();
        let a = cost(&c, DdSequence::XpXm);
        let b = cost(&c, DdSequence::Xy4);
        assert!(b.error_reduction_factor < a.error_reduction_factor);
        assert!(b.quantum_time_factor > a.quantum_time_factor);
    }
}
