//! Quantum gate definitions.
//!
//! Gates are small, `Copy`-able values so that circuits can store them in flat
//! vectors without per-gate heap allocation (hot path for the transpiler and
//! the workload generator, which create tens of thousands of circuits).

/// A quantum gate (or non-unitary instruction kind) supported by the circuit IR.
///
/// The set covers the gates emitted by the algorithm generators plus the basis
/// gates of the modelled QPU architectures (IBM-style `{SX, RZ, X, CX/ECR}` and
/// a generic `{RX, RZ, CZ}` set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Identity (explicit idle cycle).
    Id,
    /// Hadamard.
    H,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Phase gate S = diag(1, i).
    S,
    /// S-dagger.
    Sdg,
    /// T = diag(1, e^{iπ/4}).
    T,
    /// T-dagger.
    Tdg,
    /// Square root of X (IBM basis gate).
    SX,
    /// Rotation about X by the stored angle (radians).
    RX(f64),
    /// Rotation about Y by the stored angle (radians).
    RY(f64),
    /// Rotation about Z by the stored angle (radians). Virtual (zero duration)
    /// on IBM-style hardware.
    RZ(f64),
    /// Generic single-qubit unitary U(θ, φ, λ).
    U(f64, f64, f64),
    /// Controlled-X (CNOT). Control is the first operand, target the second.
    CX,
    /// Controlled-Z.
    CZ,
    /// Echoed cross-resonance (IBM native two-qubit gate on newer devices).
    ECR,
    /// SWAP gate.
    Swap,
    /// Two-qubit ZZ interaction exp(-i θ/2 Z⊗Z), used by QAOA.
    RZZ(f64),
    /// Measurement in the computational basis into a classical bit.
    Measure,
    /// Barrier: scheduling/optimization fence (no physical operation).
    Barrier,
    /// Explicit delay of the stored duration in nanoseconds (used by
    /// dynamical-decoupling insertion).
    Delay(f64),
}

impl Gate {
    /// Number of qubit operands the gate acts on.
    pub fn num_qubits(&self) -> usize {
        match self {
            Gate::CX | Gate::CZ | Gate::ECR | Gate::Swap | Gate::RZZ(_) => 2,
            _ => 1,
        }
    }

    /// `true` for two-qubit gates (the dominant error source on NISQ devices).
    pub fn is_two_qubit(&self) -> bool {
        self.num_qubits() == 2
    }

    /// `true` if the gate is unitary (i.e. not a measurement, barrier, or delay).
    pub fn is_unitary(&self) -> bool {
        !matches!(self, Gate::Measure | Gate::Barrier | Gate::Delay(_))
    }

    /// `true` for directives that occupy no hardware time (barriers) or are
    /// implemented virtually in software (RZ frame updates on IBM hardware).
    pub fn is_virtual(&self) -> bool {
        matches!(self, Gate::Barrier | Gate::RZ(_) | Gate::Id)
    }

    /// Canonical lowercase name (Qiskit-compatible where applicable).
    pub fn name(&self) -> &'static str {
        match self {
            Gate::Id => "id",
            Gate::H => "h",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::SX => "sx",
            Gate::RX(_) => "rx",
            Gate::RY(_) => "ry",
            Gate::RZ(_) => "rz",
            Gate::U(_, _, _) => "u",
            Gate::CX => "cx",
            Gate::CZ => "cz",
            Gate::ECR => "ecr",
            Gate::Swap => "swap",
            Gate::RZZ(_) => "rzz",
            Gate::Measure => "measure",
            Gate::Barrier => "barrier",
            Gate::Delay(_) => "delay",
        }
    }

    /// Continuous parameters carried by the gate, if any.
    pub fn params(&self) -> Vec<f64> {
        match *self {
            Gate::RX(t) | Gate::RY(t) | Gate::RZ(t) | Gate::RZZ(t) | Gate::Delay(t) => vec![t],
            Gate::U(a, b, c) => vec![a, b, c],
            _ => vec![],
        }
    }

    /// The inverse gate, used by gate folding (ZNE) and uncompute patterns.
    /// Measurements, barriers and delays are their own "inverse" for folding
    /// purposes (they are never folded).
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            // SX† = RX(−π/2) up to global phase, written as the U that
            // equals it.
            Gate::SX => {
                use std::f64::consts::FRAC_PI_2;
                Gate::U(-FRAC_PI_2, -FRAC_PI_2, FRAC_PI_2)
            }
            Gate::RX(t) => Gate::RX(-t),
            Gate::RY(t) => Gate::RY(-t),
            Gate::RZ(t) => Gate::RZ(-t),
            Gate::RZZ(t) => Gate::RZZ(-t),
            Gate::U(a, b, c) => Gate::U(-a, -c, -b),
            g => g,
        }
    }
}

/// A gate applied to concrete qubit indices (and an optional classical bit for
/// measurements).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instruction {
    /// The gate kind (with parameters).
    pub gate: Gate,
    /// First qubit operand (control for two-qubit controlled gates).
    pub q0: u32,
    /// Second qubit operand; `u32::MAX` for single-qubit gates.
    pub q1: u32,
    /// Classical bit index for measurements; `u32::MAX` otherwise.
    pub cbit: u32,
}

/// Sentinel meaning "no operand".
pub const NO_OPERAND: u32 = u32::MAX;

impl Instruction {
    /// Single-qubit instruction.
    pub fn one(gate: Gate, q: u32) -> Self {
        debug_assert_eq!(gate.num_qubits(), 1);
        Instruction { gate, q0: q, q1: NO_OPERAND, cbit: NO_OPERAND }
    }

    /// Two-qubit instruction.
    pub fn two(gate: Gate, q0: u32, q1: u32) -> Self {
        debug_assert_eq!(gate.num_qubits(), 2);
        debug_assert_ne!(q0, q1, "two-qubit gate operands must differ");
        Instruction { gate, q0, q1, cbit: NO_OPERAND }
    }

    /// Measurement of `q` into classical bit `c`.
    pub fn measure(q: u32, c: u32) -> Self {
        Instruction { gate: Gate::Measure, q0: q, q1: NO_OPERAND, cbit: c }
    }

    /// Qubits touched by this instruction (1 or 2 of them).
    pub fn qubits(&self) -> impl Iterator<Item = u32> + '_ {
        let second = if self.q1 == NO_OPERAND { None } else { Some(self.q1) };
        std::iter::once(self.q0).chain(second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_arity() {
        assert_eq!(Gate::H.num_qubits(), 1);
        assert_eq!(Gate::CX.num_qubits(), 2);
        assert_eq!(Gate::RZZ(0.3).num_qubits(), 2);
        assert!(Gate::CX.is_two_qubit());
        assert!(!Gate::RX(1.0).is_two_qubit());
    }

    #[test]
    fn gate_names_are_stable() {
        assert_eq!(Gate::CX.name(), "cx");
        assert_eq!(Gate::U(0.0, 0.0, 0.0).name(), "u");
        assert_eq!(Gate::Measure.name(), "measure");
    }

    #[test]
    fn gate_params_roundtrip() {
        assert_eq!(Gate::RX(1.5).params(), vec![1.5]);
        assert_eq!(Gate::U(1.0, 2.0, 3.0).params(), vec![1.0, 2.0, 3.0]);
        assert!(Gate::H.params().is_empty());
    }

    #[test]
    fn self_inverse_gates() {
        for g in [Gate::H, Gate::X, Gate::Y, Gate::Z, Gate::CX, Gate::CZ, Gate::Swap] {
            assert_eq!(g.inverse(), g, "{g:?} should be self-inverse");
        }
        assert_eq!(Gate::S.inverse(), Gate::Sdg);
        assert_eq!(Gate::RX(0.7).inverse(), Gate::RX(-0.7));
    }

    #[test]
    fn unitary_vs_directive() {
        assert!(Gate::H.is_unitary());
        assert!(!Gate::Measure.is_unitary());
        assert!(!Gate::Barrier.is_unitary());
        assert!(Gate::Barrier.is_virtual());
        assert!(Gate::RZ(0.1).is_virtual());
        assert!(!Gate::SX.is_virtual());
    }

    #[test]
    fn instruction_constructors() {
        let i = Instruction::one(Gate::H, 3);
        assert_eq!(i.q0, 3);
        assert_eq!(i.q1, NO_OPERAND);
        assert_eq!(i.qubits().collect::<Vec<_>>(), vec![3]);

        let c = Instruction::two(Gate::CX, 0, 1);
        assert_eq!(c.qubits().collect::<Vec<_>>(), vec![0, 1]);

        let m = Instruction::measure(5, 2);
        assert_eq!(m.gate, Gate::Measure);
        assert_eq!(m.cbit, 2);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn two_qubit_same_operand_panics_in_debug() {
        let _ = Instruction::two(Gate::CX, 1, 1);
    }
}
