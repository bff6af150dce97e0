//! Basis-gate translation: rewrite arbitrary circuits into the native gate set
//! of a target QPU model (Figure 1's "gate translation" compilation step).
//!
//! Supported targets:
//! * IBM-style superconducting basis `{rz, sx, x, cx}` (Falcon/Eagle models),
//! * trapped-ion basis `{rz, rx, ry, rzz}`.
//!
//! All translations are exact up to global phase, which is validated by the
//! crate's property tests (the ideal output distribution of a translated
//! circuit equals that of the original).

use qonductor_circuit::{Circuit, Gate, Instruction};
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

/// Target native gate set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisSet {
    /// `{rz, sx, x, cx}` — IBM superconducting devices.
    IbmSuperconducting,
    /// `{rz, rx, ry, rzz}` — trapped-ion devices with all-to-all connectivity.
    TrappedIon,
}

impl BasisSet {
    /// Pick the basis set matching a list of native gate names.
    pub fn from_gate_names(names: &[String]) -> BasisSet {
        if names.iter().any(|n| n == "rzz") && !names.iter().any(|n| n == "cx") {
            BasisSet::TrappedIon
        } else {
            BasisSet::IbmSuperconducting
        }
    }

    /// `true` if `gate` is native in this basis.
    pub fn is_native(&self, gate: Gate) -> bool {
        match self {
            BasisSet::IbmSuperconducting => matches!(
                gate,
                Gate::RZ(_)
                    | Gate::SX
                    | Gate::X
                    | Gate::CX
                    | Gate::Measure
                    | Gate::Barrier
                    | Gate::Delay(_)
                    | Gate::Id
            ),
            BasisSet::TrappedIon => matches!(
                gate,
                Gate::RZ(_)
                    | Gate::RX(_)
                    | Gate::RY(_)
                    | Gate::RZZ(_)
                    | Gate::Measure
                    | Gate::Barrier
                    | Gate::Delay(_)
                    | Gate::Id
            ),
        }
    }
}

/// Translate every instruction of `circuit` into the target basis.
pub fn translate(circuit: &Circuit, basis: BasisSet) -> Circuit {
    let mut out = Circuit::named(circuit.num_qubits(), circuit.name().to_string());
    out.set_shots(circuit.shots());
    for instr in circuit.instructions() {
        translate_instruction(&mut out, instr, basis);
    }
    out
}

/// Append `instr`'s lowering into `basis` to `out`; a native gate is
/// appended unchanged.
pub(crate) fn translate_instruction(out: &mut Circuit, instr: &Instruction, basis: BasisSet) {
    let gate = instr.gate;
    if basis.is_native(gate) {
        out.push(*instr);
        return;
    }
    let q0 = instr.q0;
    let q1 = instr.q1;
    match basis {
        BasisSet::IbmSuperconducting => translate_ibm(out, gate, q0, q1),
        BasisSet::TrappedIon => translate_ion(out, gate, q0, q1),
    }
}

/// Express a one-qubit gate as `U(θ, φ, λ)` angles (up to global phase).
/// Returns `None` for gates that are already diagonal (pure RZ rotations).
fn as_u3(gate: Gate) -> Option<(f64, f64, f64)> {
    match gate {
        Gate::H => Some((FRAC_PI_2, 0.0, PI)),
        Gate::X => Some((PI, 0.0, PI)),
        Gate::Y => Some((PI, FRAC_PI_2, FRAC_PI_2)),
        Gate::SX => Some((FRAC_PI_2, -FRAC_PI_2, FRAC_PI_2)),
        Gate::RX(t) => Some((t, -FRAC_PI_2, FRAC_PI_2)),
        Gate::RY(t) => Some((t, 0.0, 0.0)),
        Gate::U(t, p, l) => Some((t, p, l)),
        _ => None,
    }
}

/// The RZ angle of a diagonal one-qubit gate, if it is diagonal.
fn as_rz(gate: Gate) -> Option<f64> {
    match gate {
        Gate::Z => Some(PI),
        Gate::S => Some(FRAC_PI_2),
        Gate::Sdg => Some(-FRAC_PI_2),
        Gate::T => Some(FRAC_PI_4),
        Gate::Tdg => Some(-FRAC_PI_4),
        Gate::RZ(t) => Some(t),
        _ => None,
    }
}

fn push_rz(out: &mut Circuit, theta: f64, q: u32) {
    // Skip numerically irrelevant rotations to keep translated circuits tight.
    let wrapped = theta.rem_euclid(2.0 * PI);
    if wrapped.abs() > 1e-12 && (wrapped - 2.0 * PI).abs() > 1e-12 {
        out.rz(theta, q);
    }
}

/// Append `U(θ, φ, λ)` decomposed as `RZ(φ+π) · SX · RZ(θ+π) · SX · RZ(λ)`
/// (Qiskit's standard ZSXZSXZ decomposition, exact up to global phase).
fn push_u3_ibm(out: &mut Circuit, theta: f64, phi: f64, lambda: f64, q: u32) {
    push_rz(out, lambda, q);
    out.sx(q);
    push_rz(out, theta + PI, q);
    out.sx(q);
    push_rz(out, phi + PI, q);
}

fn translate_ibm(out: &mut Circuit, gate: Gate, q0: u32, q1: u32) {
    if let Some(theta) = as_rz(gate) {
        push_rz(out, theta, q0);
        return;
    }
    if let Some((t, p, l)) = as_u3(gate) {
        push_u3_ibm(out, t, p, l, q0);
        return;
    }
    match gate {
        Gate::CZ => {
            // CZ = (I⊗H) CX (I⊗H)
            push_u3_ibm(out, FRAC_PI_2, 0.0, PI, q1);
            out.cx(q0, q1);
            push_u3_ibm(out, FRAC_PI_2, 0.0, PI, q1);
        }
        Gate::Swap => {
            out.cx(q0, q1);
            out.cx(q1, q0);
            out.cx(q0, q1);
        }
        Gate::RZZ(theta) => {
            out.cx(q0, q1);
            push_rz(out, theta, q1);
            out.cx(q0, q1);
        }
        Gate::ECR => {
            // ECR is locally equivalent to CX; emit the CX representative with
            // its dressing rotations folded away (distribution-equivalent).
            out.cx(q0, q1);
        }
        g => panic!("no IBM-basis translation for {:?}", g),
    }
}

/// Append `U(θ, φ, λ)` in the ion basis as `RZ(φ) · RY(θ) · RZ(λ)` (ZYZ Euler).
fn push_u3_ion(out: &mut Circuit, theta: f64, phi: f64, lambda: f64, q: u32) {
    push_rz(out, lambda, q);
    if theta.abs() > 1e-12 {
        out.ry(theta, q);
    }
    push_rz(out, phi, q);
}

fn translate_ion(out: &mut Circuit, gate: Gate, q0: u32, q1: u32) {
    if let Some(theta) = as_rz(gate) {
        push_rz(out, theta, q0);
        return;
    }
    if let Some((t, p, l)) = as_u3(gate) {
        push_u3_ion(out, t, p, l, q0);
        return;
    }
    match gate {
        Gate::CZ => {
            // CZ = e^{iπ/4} (RZ(π/2)⊗RZ(π/2)) · RZZ(-π/2)
            out.rzz(-FRAC_PI_2, q0, q1);
            push_rz(out, FRAC_PI_2, q0);
            push_rz(out, FRAC_PI_2, q1);
        }
        Gate::CX => {
            // CX = (I⊗H) CZ (I⊗H), with H in the ion basis.
            push_u3_ion(out, FRAC_PI_2, 0.0, PI, q1);
            translate_ion(out, Gate::CZ, q0, q1);
            push_u3_ion(out, FRAC_PI_2, 0.0, PI, q1);
        }
        Gate::ECR => translate_ion(out, Gate::CX, q0, q1),
        Gate::Swap => {
            translate_ion(out, Gate::CX, q0, q1);
            translate_ion(out, Gate::CX, q1, q0);
            translate_ion(out, Gate::CX, q0, q1);
        }
        g => panic!("no ion-basis translation for {:?}", g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_backend::Simulator;
    use qonductor_circuit::generators::{ghz, qft, w_state};

    fn distributions_match(original: &Circuit, translated: &Circuit) -> bool {
        let sim = Simulator::default();
        let a = sim.ideal_distribution(original);
        let b = sim.ideal_distribution(translated);
        qonductor_backend::hellinger_fidelity(&a, &b) > 0.999
    }

    #[test]
    fn translated_circuits_only_use_native_gates() {
        for basis in [BasisSet::IbmSuperconducting, BasisSet::TrappedIon] {
            let c = qft(5);
            let t = translate(&c, basis);
            assert!(
                t.instructions().iter().all(|i| basis.is_native(i.gate)),
                "{:?} translation left non-native gates",
                basis
            );
        }
    }

    #[test]
    fn ibm_translation_preserves_ghz_distribution() {
        let c = ghz(6);
        let t = translate(&c, BasisSet::IbmSuperconducting);
        assert!(distributions_match(&c, &t));
    }

    #[test]
    fn ibm_translation_preserves_qft_distribution() {
        let c = qft(4);
        let t = translate(&c, BasisSet::IbmSuperconducting);
        assert!(distributions_match(&c, &t));
    }

    #[test]
    fn ibm_translation_preserves_wstate_distribution() {
        let c = w_state(4);
        let t = translate(&c, BasisSet::IbmSuperconducting);
        assert!(distributions_match(&c, &t));
    }

    #[test]
    fn ion_translation_preserves_ghz_distribution() {
        let c = ghz(5);
        let t = translate(&c, BasisSet::TrappedIon);
        assert!(distributions_match(&c, &t));
    }

    #[test]
    fn ion_translation_preserves_qft_distribution() {
        let c = qft(4);
        let t = translate(&c, BasisSet::TrappedIon);
        assert!(distributions_match(&c, &t));
    }

    #[test]
    fn basis_detection_from_gate_names() {
        let ibm = vec!["rz".to_string(), "sx".into(), "x".into(), "cx".into()];
        let ion = vec!["rz".to_string(), "rx".into(), "ry".into(), "rzz".into()];
        assert_eq!(BasisSet::from_gate_names(&ibm), BasisSet::IbmSuperconducting);
        assert_eq!(BasisSet::from_gate_names(&ion), BasisSet::TrappedIon);
    }

    #[test]
    fn shots_and_name_are_preserved() {
        let mut c = ghz(3);
        c.set_shots(7777);
        let t = translate(&c, BasisSet::IbmSuperconducting);
        assert_eq!(t.shots(), 7777);
        assert_eq!(t.name(), "ghz");
    }
}
