//! Grover search circuit with a single marked element.

use crate::circuit::Circuit;
use crate::gate::Gate;

/// Build an `n`-qubit Grover search circuit marking the all-ones bit string,
/// with the textbook number of iterations ⌊(π/4)·√(2ⁿ)⌋ capped at 8 so that
/// large benchmark circuits stay a realistic size, followed by measurement.
///
/// The multi-controlled-Z oracle and diffuser are decomposed into a CZ ladder
/// (an approximation that preserves the width/depth/2q-count scaling that the
/// orchestrator's estimator consumes, without requiring ancilla management).
pub(crate) fn grover(n: u32) -> Circuit {
    assert!(n >= 2, "Grover circuit needs at least two qubits");
    let mut c = Circuit::named(n, "grover");
    // Uniform superposition.
    for q in 0..n {
        c.h(q);
    }
    let iterations =
        (((std::f64::consts::FRAC_PI_4) * f64::from(1u32 << n.min(20)).sqrt()) as u32).clamp(1, 8);
    for _ in 0..iterations {
        c.barrier();
        // Oracle marking |1…1⟩: ladder of CZ gates approximating a multi-controlled Z.
        multi_controlled_z(&mut c, n);
        // Diffuser: H X (MCZ) X H on every qubit.
        for q in 0..n {
            c.h(q);
            c.x(q);
        }
        multi_controlled_z(&mut c, n);
        for q in 0..n {
            c.x(q);
            c.h(q);
        }
    }
    c.measure_all();
    c
}

/// CZ-ladder stand-in for a multi-controlled Z over all `n` qubits.
fn multi_controlled_z(c: &mut Circuit, n: u32) {
    if n == 2 {
        c.cz(0, 1);
        return;
    }
    for q in 0..n - 1 {
        c.cz(q, q + 1);
    }
    for q in (0..n - 2).rev() {
        c.apply1(Gate::T, q);
        c.cz(q, q + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grover_iteration_count_is_capped() {
        let small = grover(2);
        let large = grover(10);
        assert!(large.two_qubit_gates() > small.two_qubit_gates());
        // With the cap at 8 iterations the 2q count stays bounded:
        // per iteration ≤ 2 * (2*(n-1) - 1) gates.
        let n = 10usize;
        assert!(large.two_qubit_gates() <= 8 * 2 * (2 * (n - 1)));
    }

    #[test]
    fn grover_measures_all() {
        let c = grover(4);
        assert_eq!(c.num_measurements(), 4);
    }

    #[test]
    #[should_panic]
    fn grover_one_qubit_panics() {
        grover(1);
    }
}
