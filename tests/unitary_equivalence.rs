//! The circuit rewrites of the mitigation stack keep the circuit's unitary:
//! ZNE gate folding, dynamical-decoupling insertion and every Pauli-twirled
//! instance equal the circuit they rewrite up to a global phase. Unitaries
//! are built densely, column by column on the simulator's statevector, so
//! the circuits stay at most 6 qubits wide.

use qonductor::backend::{CalibrationGenerator, NoiseModel, Statevector};
use qonductor::circuit::{Circuit, Gate, Instruction};
use qonductor::mitigation::{fold_circuit, insert_dd, twirl_circuit, DdSequence};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// A dense unitary as its columns of `(re, im)` entries.
type Unitary = Vec<Vec<(f64, f64)>>;

const TOLERANCE: f64 = 1e-9;

/// The unitary of `circuit`: column `j` is the state it maps |j⟩ to.
/// Measurements, barriers and delays act as the identity.
fn unitary(circuit: &Circuit) -> Unitary {
    let n = circuit.num_qubits();
    assert!(n <= 6, "dense unitaries are built for at most 6 qubits, not {n}");
    (0..1usize << n)
        .map(|column| {
            let mut state = Statevector::new(n);
            for q in (0..n).filter(|q| column >> q & 1 == 1) {
                state.apply(&Instruction::one(Gate::X, q));
            }
            for instr in circuit.instructions() {
                state.apply(instr);
            }
            (0..1usize << n).map(|row| state.amplitude(row)).collect()
        })
        .collect()
}

/// Whether `a = e^{iφ}·b` entry by entry within `tol`, for one phase φ
/// (taken at `b`'s largest entry).
fn equal_up_to_global_phase(a: &Unitary, b: &Unitary, tol: f64) -> bool {
    let norm = |&(re, im): &(f64, f64)| re.hypot(im);
    let entries = || a.iter().flatten().zip(b.iter().flatten());
    if a.len() != b.len() || entries().count() != b.iter().flatten().count() {
        return false;
    }
    let Some((&(ar, ai), &(br, bi))) = entries().max_by(|x, y| norm(x.1).total_cmp(&norm(y.1)))
    else {
        return true;
    };
    // φ = a / b at that entry.
    let scale = br * br + bi * bi;
    let (pr, pi) = ((ar * br + ai * bi) / scale, (ai * br - ar * bi) / scale);
    (pr.hypot(pi) - 1.0).abs() <= tol
        && entries().all(|(&(ar, ai), &(br, bi))| {
            (ar - (pr * br - pi * bi)).hypot(ai - (pr * bi + pi * br)) <= tol
        })
}

/// A random measured circuit over the IBM basis {RZ, SX, X, CX, ECR} on 2–6
/// qubits in a line, two-qubit gates on neighbours.
fn ibm_basis_circuit(rng: &mut StdRng) -> Circuit {
    let n = rng.gen_range(2..=6u32);
    let mut c = Circuit::new(n);
    for _ in 0..rng.gen_range(1..40) {
        let q = rng.gen_range(0..n);
        match rng.gen_range(0..6) {
            0 | 1 => c.apply1(Gate::RZ(rng.gen_range(-PI..PI)), q),
            2 => c.apply1(Gate::SX, q),
            3 => c.apply1(Gate::X, q),
            _ => {
                let a = rng.gen_range(0..n - 1);
                let (a, b) = if rng.gen_bool(0.5) { (a, a + 1) } else { (a + 1, a) };
                c.apply2(if rng.gen_bool(0.8) { Gate::CX } else { Gate::ECR }, a, b)
            }
        };
    }
    c.measure_all();
    c.set_shots(1024);
    c
}

fn line_noise(n: u32, rng: &mut StdRng) -> NoiseModel {
    let edges: Vec<(u32, u32)> = (0..n - 1).map(|q| (q, q + 1)).collect();
    NoiseModel::new(CalibrationGenerator::with_quality(1.0).generate(n, &edges, rng))
}

fn circuits(seed: u64) -> Vec<Circuit> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..40).map(|_| ibm_basis_circuit(&mut rng)).collect()
}

#[test]
fn equal_up_to_global_phase_tells_phases_from_other_changes() {
    let mut c = Circuit::new(2);
    c.apply1(Gate::SX, 0).apply2(Gate::CX, 0, 1).apply1(Gate::RZ(0.4), 1);
    let u = unitary(&c);
    // X·Z·X·Z = −I: the same unitary up to the phase −1.
    let mut phased = c.clone();
    phased.apply1(Gate::X, 0).apply1(Gate::Z, 0).apply1(Gate::X, 0).apply1(Gate::Z, 0);
    assert!(equal_up_to_global_phase(&unitary(&phased), &u, TOLERANCE));
    let mut changed = c.clone();
    changed.apply1(Gate::Z, 1);
    assert!(!equal_up_to_global_phase(&unitary(&changed), &u, TOLERANCE));
    let doubled: Unitary =
        u.iter().map(|col| col.iter().map(|&(re, im)| (2.0 * re, 2.0 * im)).collect()).collect();
    assert!(!equal_up_to_global_phase(&doubled, &u, TOLERANCE));
}

#[test]
fn folding_keeps_the_unitary() {
    for (case, circuit) in circuits(1).iter().enumerate() {
        let expected = unitary(circuit);
        for factor in [1.0, 3.0, 5.0] {
            let folded = fold_circuit(circuit, factor);
            assert!(
                equal_up_to_global_phase(&unitary(&folded), &expected, TOLERANCE),
                "case {case}: folded x{factor} differs from {:?}",
                circuit.instructions()
            );
        }
    }
}

#[test]
fn dynamical_decoupling_keeps_the_unitary() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut inserted = 0;
    for (case, circuit) in circuits(3).iter().enumerate() {
        let expected = unitary(circuit);
        let noise = line_noise(circuit.num_qubits(), &mut rng);
        for sequence in [DdSequence::XpXm, DdSequence::Xy4] {
            let dd = insert_dd(circuit, &noise, sequence, 50.0);
            inserted += dd.sequences_inserted;
            assert!(
                equal_up_to_global_phase(&unitary(&dd.circuit), &expected, TOLERANCE),
                "case {case}: {sequence:?} insertion changed the unitary"
            );
        }
    }
    assert!(inserted > 0, "no DD sequence was inserted: the test checked nothing");
}

#[test]
fn every_twirled_instance_keeps_the_unitary() {
    let mut rng = StdRng::seed_from_u64(4);
    for (case, circuit) in circuits(5).iter().enumerate() {
        let expected = unitary(circuit);
        for instance in 0..4 {
            let twirled = twirl_circuit(circuit, &mut rng);
            assert!(
                equal_up_to_global_phase(&unitary(&twirled), &expected, TOLERANCE),
                "case {case}, instance {instance}: the twirl changed the unitary"
            );
        }
    }
}
