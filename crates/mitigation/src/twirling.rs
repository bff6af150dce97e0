//! Pauli twirling: conjugate every two-qubit gate with random Pauli pairs so
//! that coherent errors are converted into stochastic Pauli noise (§2.1:
//! "Pauli Twirling converts general noise into stochastic Pauli noise for
//! easier correction").

use crate::technique::MitigationCost;
use qonductor_circuit::{Circuit, Gate, Instruction};
use rand::Rng;

/// The 16 Pauli pairs `(before_ctrl, before_tgt, after_ctrl, after_tgt)` that
/// leave a CX gate invariant: `(P_a ⊗ P_b) · CX · (P_c ⊗ P_d) = CX` up to
/// global phase. Derived from CX's Pauli propagation rules
/// (XI→XX, IX→IX, ZI→ZI, IZ→ZZ).
const CX_TWIRLS: [(Gate, Gate, Gate, Gate); 16] = [
    (Gate::Id, Gate::Id, Gate::Id, Gate::Id),
    (Gate::Id, Gate::X, Gate::Id, Gate::X),
    (Gate::Id, Gate::Y, Gate::Z, Gate::Y),
    (Gate::Id, Gate::Z, Gate::Z, Gate::Z),
    (Gate::X, Gate::Id, Gate::X, Gate::X),
    (Gate::X, Gate::X, Gate::X, Gate::Id),
    (Gate::X, Gate::Y, Gate::Y, Gate::Z),
    (Gate::X, Gate::Z, Gate::Y, Gate::Y),
    (Gate::Y, Gate::Id, Gate::Y, Gate::X),
    (Gate::Y, Gate::X, Gate::Y, Gate::Id),
    (Gate::Y, Gate::Y, Gate::X, Gate::Z),
    (Gate::Y, Gate::Z, Gate::X, Gate::Y),
    (Gate::Z, Gate::Id, Gate::Z, Gate::Id),
    (Gate::Z, Gate::X, Gate::Z, Gate::X),
    (Gate::Z, Gate::Y, Gate::Id, Gate::Y),
    (Gate::Z, Gate::Z, Gate::Id, Gate::Z),
];

/// Apply Pauli twirling to every CX gate of the circuit, sampling one of the
/// 16 invariant Pauli dressings per gate.
///
/// Other two-qubit gates (CZ, RZZ, …) are left untouched — in the Qonductor
/// pipeline twirling runs after basis translation, when only CX remains.
pub fn twirl_circuit<R: Rng + ?Sized>(circuit: &Circuit, rng: &mut R) -> Circuit {
    let mut out = Circuit::named(circuit.num_qubits(), circuit.name().to_string());
    out.set_shots(circuit.shots());
    for instr in circuit.instructions() {
        if instr.gate == Gate::CX {
            let (bc, bt, ac, at) = CX_TWIRLS[rng.gen_range(0..CX_TWIRLS.len())];
            push_pauli(&mut out, bc, instr.q0);
            push_pauli(&mut out, bt, instr.q1);
            out.push(*instr);
            push_pauli(&mut out, ac, instr.q0);
            push_pauli(&mut out, at, instr.q1);
        } else {
            out.push(*instr);
        }
    }
    out
}

fn push_pauli(out: &mut Circuit, gate: Gate, q: u32) {
    if gate != Gate::Id {
        out.push(Instruction::one(gate, q));
    }
}

/// Resource-cost profile of Pauli twirling for the resource estimator.
/// Twirling by itself gives a mild error-shaping benefit; its main value is in
/// combination with extrapolation-based techniques.
pub fn cost(circuit: &Circuit, num_twirls: usize) -> MitigationCost {
    let k = num_twirls.max(1);
    MitigationCost {
        circuit_multiplicity: k,
        quantum_time_factor: 1.02 * k as f64,
        classical_time_cpu_s: 0.01 + 2e-4 * circuit.two_qubit_gates() as f64 * k as f64,
        accelerator_speedup: 1.0,
        error_reduction_factor: 0.9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_backend::Simulator;
    use qonductor_circuit::generators::{ghz, qft};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_sixteen_twirls_preserve_the_distribution() {
        // Apply each dressing explicitly to a Bell-pair circuit and check the
        // ideal output distribution is unchanged — this validates the table.
        let sim = Simulator::default();
        let mut base = Circuit::new(2);
        base.h(0).cx(0, 1).measure_all();
        let reference = sim.ideal_distribution(&base);
        for (i, (bc, bt, ac, at)) in CX_TWIRLS.iter().enumerate() {
            let mut c = Circuit::new(2);
            c.h(0);
            push_pauli(&mut c, *bc, 0);
            push_pauli(&mut c, *bt, 1);
            c.cx(0, 1);
            push_pauli(&mut c, *ac, 0);
            push_pauli(&mut c, *at, 1);
            c.measure_all();
            let dist = sim.ideal_distribution(&c);
            assert!(
                qonductor_backend::hellinger_fidelity(&reference, &dist) > 0.999,
                "twirl #{i} {:?} changed the distribution",
                CX_TWIRLS[i]
            );
        }
    }

    #[test]
    fn twirled_ghz_preserves_distribution() {
        let mut rng = StdRng::seed_from_u64(5);
        let c = ghz(5);
        let t = twirl_circuit(&c, &mut rng);
        let sim = Simulator::default();
        let a = sim.ideal_distribution(&c);
        let b = sim.ideal_distribution(&t);
        assert!(qonductor_backend::hellinger_fidelity(&a, &b) > 0.999);
    }

    #[test]
    fn twirled_qft_preserves_distribution() {
        let mut rng = StdRng::seed_from_u64(6);
        let c = qft(4);
        let t = twirl_circuit(&c, &mut rng);
        let sim = Simulator::default();
        let a = sim.ideal_distribution(&c);
        let b = sim.ideal_distribution(&t);
        assert!(qonductor_backend::hellinger_fidelity(&a, &b) > 0.999);
    }

    #[test]
    fn twirling_adds_pauli_gates_around_cx() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = ghz(6); // 5 CX gates
        let t = twirl_circuit(&c, &mut rng);
        assert!(t.len() >= c.len());
        assert_eq!(t.two_qubit_gates(), c.two_qubit_gates());
    }

    #[test]
    fn ensemble_has_requested_size_and_varies() {
        let mut rng = StdRng::seed_from_u64(2);
        let c = ghz(4);
        let ensemble: Vec<Circuit> = (0..8).map(|_| twirl_circuit(&c, &mut rng)).collect();
        assert_eq!(ensemble.len(), 8);
        // With 3 CX gates and 16 dressings each, at least two instances differ.
        assert!(ensemble.iter().any(|e| e != &ensemble[0]));
    }

    #[test]
    fn cost_scales_with_ensemble_size() {
        let c = ghz(8);
        let one = cost(&c, 1);
        let many = cost(&c, 10);
        assert!(many.quantum_time_factor > one.quantum_time_factor);
        assert_eq!(many.circuit_multiplicity, 10);
    }
}
