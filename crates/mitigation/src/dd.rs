//! Dynamical Decoupling (DD): insert pulse sequences into long idle windows to
//! suppress decoherence of idling qubits.

use crate::technique::MitigationCost;
use qonductor_backend::NoiseModel;
use qonductor_circuit::{Circuit, Gate, Instruction, NO_OPERAND};
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
/// distribution is unchanged; on hardware it refocuses dephasing): after the
/// window's *anchor*, the last instruction on its qubit that ends within
/// 1e-6 ns of the window's start.
///
/// One sweep over the schedule finds every anchor. With non-negative
/// durations the instructions on a qubit end in non-decreasing order, so the
/// qubit's windows, sorted by start, settle one after another: a window is
/// settled by the first instruction on its qubit that ends 1e-6 ns or more
/// past its start, and its anchor is the instruction on the qubit just before
/// that one, if that one ends close enough (an earlier one then cannot).
pub fn insert_dd(
    circuit: &Circuit,
    noise: &NoiseModel,
    sequence: DdSequence,
    min_idle_ns: f64,
) -> DdResult {
    let schedule = asap_schedule(circuit, noise);
    let windows = &schedule.idle_windows;
    let n = circuit.num_qubits() as usize;
    // The windows to fill, grouped by qubit (qubit q's are
    // `pending[bounds[q]..bounds[q + 1]]`) and sorted by start in a group.
    let mut pending = Vec::with_capacity(windows.len());
    let mut bounds = vec![0usize; n + 1];
    for (w, window) in windows.iter().enumerate() {
        if window.duration_ns < min_idle_ns {
            continue;
        }
        pending.push(w);
        bounds[window.qubit as usize + 1] += 1;
    }
    for q in 0..n {
        bounds[q + 1] += bounds[q];
    }
    pending.sort_unstable_by(|&a, &b| {
        let (a, b) = (&windows[a], &windows[b]);
        a.qubit.cmp(&b.qubit).then(a.start_ns.total_cmp(&b.start_ns))
    });

    let mut anchors: Vec<Option<usize>> = vec![None; windows.len()];
    let mut settle = |w: usize, previous: Option<(usize, f64)>| {
        anchors[w] = previous
            .filter(|&(_, end)| (end - windows[w].start_ns).abs() < 1e-6)
            .map(|(index, _)| index);
    };
    // Per qubit: its first unsettled window, and the last instruction on it
    // so far with that instruction's end.
    let mut next = bounds[..n].to_vec();
    let mut previous: Vec<Option<(usize, f64)>> = vec![None; n];
    for op in &schedule.ops {
        let instr = circuit.instructions()[op.index];
        let end = op.start_ns + op.duration_ns;
        for q in [instr.q0, instr.q1] {
            if q == NO_OPERAND {
                continue;
            }
            let q = q as usize;
            while next[q] < bounds[q + 1] && end - windows[pending[next[q]]].start_ns >= 1e-6 {
                settle(pending[next[q]], previous[q]);
                next[q] += 1;
            }
            previous[q] = Some((op.index, end));
        }
    }
    for q in 0..n {
        for &w in &pending[next[q]..bounds[q + 1]] {
            settle(w, previous[q]);
        }
    }

    // In window order, so that `covered` adds the same terms in the same order.
    let mut insert_after: Vec<(usize, u32)> = Vec::new();
    let mut covered = 0.0;
    for (window, anchor) in windows.iter().zip(&anchors) {
        if let Some(index) = *anchor {
            insert_after.push((index, window.qubit));
            covered += window.duration_ns;
        }
    }
    insert_after.sort_unstable();

    let mut out = Circuit::named(circuit.num_qubits(), circuit.name().to_string());
    out.set_shots(circuit.shots());
    let mut insertions = insert_after.iter().peekable();
    for (index, instr) in circuit.instructions().iter().enumerate() {
        out.push(*instr);
        while let Some(&(_, qubit)) = insertions.next_if(|&&(anchor, _)| anchor == index) {
            for &g in sequence.gates() {
                out.push(Instruction::one(g, qubit));
            }
        }
    }
    DdResult { circuit: out, sequences_inserted: insert_after.len(), idle_time_covered_ns: covered }
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
    use crate::zne::fold_circuit;
    use qonductor_backend::{CalibrationGenerator, Fleet, Simulator};
    use qonductor_circuit::generators::{ghz, qft};
    use qonductor_transpiler::Transpiler;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

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

    /// The window-by-window pass the sweep replaced — every op scanned per
    /// window, every insertion filtered per instruction. The sweep's oracle.
    fn quadratic_insert_dd(
        circuit: &Circuit,
        noise: &NoiseModel,
        sequence: DdSequence,
        min_idle_ns: f64,
    ) -> DdResult {
        let schedule = asap_schedule(circuit, noise);
        let mut insert_after: Vec<(usize, u32)> = Vec::new();
        let mut covered = 0.0;
        for window in &schedule.idle_windows {
            if window.duration_ns < min_idle_ns {
                continue;
            }
            let mut anchor: Option<usize> = None;
            for op in &schedule.ops {
                let instr = circuit.instructions()[op.index];
                if instr.qubits().any(|q| q == window.qubit)
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
            for &(_, qubit) in insert_after.iter().filter(|(a, _)| *a == idx) {
                for &g in sequence.gates() {
                    out.push(Instruction::one(g, qubit));
                }
                inserted += 1;
            }
        }
        DdResult { circuit: out, sequences_inserted: inserted, idle_time_covered_ns: covered }
    }

    /// Sweep and oracle agree on the circuit, the count and the covered time
    /// (bit for bit) for both sequences and thresholds down to zero.
    fn assert_sweep_equals_oracle(circuit: &Circuit, noise: &NoiseModel, case: &str) {
        for sequence in [DdSequence::XpXm, DdSequence::Xy4] {
            for min_idle_ns in [0.0, 1e-7, 100.0, 500.0] {
                let swept = insert_dd(circuit, noise, sequence, min_idle_ns);
                let oracle = quadratic_insert_dd(circuit, noise, sequence, min_idle_ns);
                let at = format!("{case}, {sequence:?}, min idle {min_idle_ns} ns");
                assert_eq!(swept.circuit, oracle.circuit, "{at}");
                assert_eq!(swept.sequences_inserted, oracle.sequences_inserted, "{at}");
                assert_eq!(
                    swept.idle_time_covered_ns.to_bits(),
                    oracle.idle_time_covered_ns.to_bits(),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn the_sweep_equals_the_quadratic_pass_on_folded_transpiled_circuits() {
        let mut rng = StdRng::seed_from_u64(11);
        let fleet = Fleet::ibm_default(&mut rng);
        let transpiler = Transpiler::default();
        for member in fleet.members() {
            let qpu = &member.qpu;
            let nm = qpu.noise_model();
            for logical in [ghz(5), qft(4), idle_heavy_circuit()] {
                let transpiled = transpiler.transpile_for_qpu(&logical, qpu).circuit;
                for factor in [1.0, 3.0, 5.0] {
                    let case = format!("{} {} x{factor}", qpu.name, logical.name());
                    assert_sweep_equals_oracle(&fold_circuit(&transpiled, factor), &nm, &case);
                }
            }
        }
    }

    /// Barriers, measurements and delays down to sub-1e-6 ns, so that
    /// several windows and instruction ends fall within 1e-6 ns of each other.
    #[test]
    fn the_sweep_equals_the_quadratic_pass_on_random_circuits_with_barriers_and_delays() {
        let mut rng = StdRng::seed_from_u64(12);
        let nm = noise(5);
        for case in 0..200 {
            let mut c = Circuit::new(5);
            for _ in 0..rng.gen_range(0..80) {
                let (a, b) = (rng.gen_range(0..5), rng.gen_range(0..5));
                match rng.gen_range(0..12) {
                    0 => c.barrier(),
                    1 | 2 => {
                        let ns = *[3e-7, 8e-7, 2e-6, 40.0, 700.0].choose(&mut rng).unwrap();
                        c.apply1(Gate::Delay(ns), a)
                    }
                    3 => c.rz(rng.gen_range(-3.0..3.0), a),
                    4..=6 if a != b => c.cx(a, b),
                    7 => c.measure(a, a),
                    _ => c.x(a),
                };
            }
            assert_sweep_equals_oracle(&c, &nm, &format!("case {case}"));
        }
    }
}
