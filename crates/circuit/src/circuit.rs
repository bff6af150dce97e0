//! The quantum circuit IR: a flat list of [`Instruction`]s over `n` qubits.

use crate::gate::{Gate, Instruction, NO_OPERAND};

/// A quantum circuit: an ordered list of instructions over a fixed qubit register.
///
/// The representation intentionally mirrors Qiskit's `QuantumCircuit` at the
/// level needed by Qonductor: building algorithm circuits, transpiling them,
/// applying error mitigation transformations, and extracting the structural
/// features (width, depth, two-qubit count, shots) that the resource estimator
/// regresses on.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    /// Number of qubits in the register.
    num_qubits: u32,
    /// Number of classical bits (for measurement results).
    num_clbits: u32,
    /// Ordered instruction list.
    instructions: Vec<Instruction>,
    /// Number of measurement shots requested for this circuit.
    shots: u32,
    /// Optional human-readable name (algorithm family), used by the workload
    /// generator and the estimator's feature extraction.
    name: String,
}

impl Circuit {
    /// Create an empty circuit over `num_qubits` qubits with the same number of
    /// classical bits and a default of 1024 shots.
    pub fn new(num_qubits: u32) -> Self {
        Circuit {
            num_qubits,
            num_clbits: num_qubits,
            instructions: Vec::new(),
            shots: 1024,
            name: String::new(),
        }
    }

    /// Create an empty named circuit.
    pub fn named(num_qubits: u32, name: impl Into<String>) -> Self {
        let mut c = Self::new(num_qubits);
        c.name = name.into();
        c
    }

    /// Circuit name (algorithm family), possibly empty.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Set the circuit name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of classical bits.
    pub fn num_clbits(&self) -> u32 {
        self.num_clbits
    }

    /// Number of measurement shots.
    pub fn shots(&self) -> u32 {
        self.shots
    }

    /// Set the number of measurement shots.
    pub fn set_shots(&mut self, shots: u32) {
        self.shots = shots;
    }

    /// The instruction list.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Mutable access to the instruction list (used by transpiler passes).
    pub fn instructions_mut(&mut self) -> &mut Vec<Instruction> {
        &mut self.instructions
    }

    /// Total number of instructions (including measurements and barriers).
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// `true` if the circuit has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Append an arbitrary instruction, validating qubit indices.
    pub fn push(&mut self, instr: Instruction) {
        assert!(instr.q0 < self.num_qubits, "qubit index {} out of range", instr.q0);
        if instr.q1 != NO_OPERAND {
            assert!(instr.q1 < self.num_qubits, "qubit index {} out of range", instr.q1);
        }
        self.instructions.push(instr);
    }

    /// Apply a single-qubit gate.
    pub fn apply1(&mut self, gate: Gate, q: u32) -> &mut Self {
        self.push(Instruction::one(gate, q));
        self
    }

    /// Apply a two-qubit gate.
    pub fn apply2(&mut self, gate: Gate, q0: u32, q1: u32) -> &mut Self {
        self.push(Instruction::two(gate, q0, q1));
        self
    }

    /// Hadamard on `q`.
    pub fn h(&mut self, q: u32) -> &mut Self {
        self.apply1(Gate::H, q)
    }

    /// Pauli-X on `q`.
    pub fn x(&mut self, q: u32) -> &mut Self {
        self.apply1(Gate::X, q)
    }

    /// Pauli-Y on `q`.
    pub fn y(&mut self, q: u32) -> &mut Self {
        self.apply1(Gate::Y, q)
    }

    /// Pauli-Z on `q`.
    pub fn z(&mut self, q: u32) -> &mut Self {
        self.apply1(Gate::Z, q)
    }

    /// RX rotation on `q`.
    pub fn rx(&mut self, theta: f64, q: u32) -> &mut Self {
        self.apply1(Gate::RX(theta), q)
    }

    /// RY rotation on `q`.
    pub fn ry(&mut self, theta: f64, q: u32) -> &mut Self {
        self.apply1(Gate::RY(theta), q)
    }

    /// RZ rotation on `q`.
    pub fn rz(&mut self, theta: f64, q: u32) -> &mut Self {
        self.apply1(Gate::RZ(theta), q)
    }

    /// Phase gate S on `q`.
    pub fn s(&mut self, q: u32) -> &mut Self {
        self.apply1(Gate::S, q)
    }

    /// T gate on `q`.
    pub fn t(&mut self, q: u32) -> &mut Self {
        self.apply1(Gate::T, q)
    }

    /// Sqrt-X on `q`.
    pub fn sx(&mut self, q: u32) -> &mut Self {
        self.apply1(Gate::SX, q)
    }

    /// CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: u32, t: u32) -> &mut Self {
        self.apply2(Gate::CX, c, t)
    }

    /// Controlled-Z between `a` and `b`.
    pub(crate) fn cz(&mut self, a: u32, b: u32) -> &mut Self {
        self.apply2(Gate::CZ, a, b)
    }

    /// SWAP between `a` and `b`.
    pub fn swap(&mut self, a: u32, b: u32) -> &mut Self {
        self.apply2(Gate::Swap, a, b)
    }

    /// ZZ interaction between `a` and `b`.
    pub fn rzz(&mut self, theta: f64, a: u32, b: u32) -> &mut Self {
        self.apply2(Gate::RZZ(theta), a, b)
    }

    /// Measure qubit `q` into classical bit `c`.
    pub fn measure(&mut self, q: u32, c: u32) -> &mut Self {
        assert!(q < self.num_qubits);
        assert!(c < self.num_clbits);
        self.instructions.push(Instruction::measure(q, c));
        self
    }

    /// Measure every qubit into the classical bit of the same index.
    pub fn measure_all(&mut self) -> &mut Self {
        for q in 0..self.num_qubits {
            self.measure(q, q);
        }
        self
    }

    /// Insert a barrier across all qubits.
    pub fn barrier(&mut self) -> &mut Self {
        self.instructions.push(Instruction {
            gate: Gate::Barrier,
            q0: 0,
            q1: NO_OPERAND,
            cbit: NO_OPERAND,
        });
        self
    }

    /// Append all instructions of `other` to `self`. Both circuits must have the
    /// same width; measurement bits are preserved.
    pub fn compose(&mut self, other: &Circuit) -> &mut Self {
        assert_eq!(self.num_qubits, other.num_qubits, "compose requires equal circuit widths");
        self.instructions.extend_from_slice(&other.instructions);
        self
    }

    /// The circuit with every unitary instruction inverted and the order
    /// reversed; measurements and barriers are dropped. Used by gate folding.
    pub fn inverse(&self) -> Circuit {
        let mut inv = Circuit::named(self.num_qubits, format!("{}_dg", self.name));
        inv.shots = self.shots;
        for instr in self.instructions.iter().rev() {
            if !instr.gate.is_unitary() {
                continue;
            }
            let mut g = *instr;
            g.gate = instr.gate.inverse();
            // CX/CZ/SWAP keep operand order under inversion.
            inv.instructions.push(g);
        }
        inv
    }

    /// The unitary portion of the circuit (everything before/except measurements
    /// and barriers), preserving order.
    pub fn unitary_part(&self) -> Circuit {
        let mut c = Circuit::named(self.num_qubits, self.name.clone());
        c.shots = self.shots;
        c.instructions =
            self.instructions.iter().copied().filter(|i| i.gate.is_unitary()).collect();
        c
    }

    /// Number of gates of each arity `(one_qubit, two_qubit)`, excluding
    /// measurements, barriers and delays.
    pub fn gate_counts(&self) -> (usize, usize) {
        let mut one = 0;
        let mut two = 0;
        for i in &self.instructions {
            if !i.gate.is_unitary() {
                continue;
            }
            if i.gate.is_two_qubit() {
                two += 1;
            } else {
                one += 1;
            }
        }
        (one, two)
    }

    /// Number of two-qubit gates.
    pub fn two_qubit_gates(&self) -> usize {
        self.gate_counts().1
    }

    /// Number of measurement instructions.
    pub fn num_measurements(&self) -> usize {
        self.instructions.iter().filter(|i| i.gate == Gate::Measure).count()
    }

    /// Circuit depth: the length of the longest qubit-wise dependency chain,
    /// counting unitary gates and measurements (barriers and virtual RZs are
    /// free, matching how hardware executes them).
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits as usize];
        let mut max_depth = 0;
        for instr in &self.instructions {
            match instr.gate {
                Gate::Barrier => {
                    // A barrier synchronises all qubits without consuming depth.
                    let m = *level.iter().max().unwrap_or(&0);
                    for l in level.iter_mut() {
                        *l = m;
                    }
                }
                g if g.is_virtual() => {}
                _ => {
                    let q0 = instr.q0 as usize;
                    let new = if instr.q1 != NO_OPERAND {
                        let q1 = instr.q1 as usize;
                        let d = level[q0].max(level[q1]) + 1;
                        level[q0] = d;
                        level[q1] = d;
                        d
                    } else {
                        level[q0] += 1;
                        level[q0]
                    };
                    max_depth = max_depth.max(new);
                }
            }
        }
        max_depth
    }

    /// Indices of qubits that are actually acted upon by at least one gate.
    pub fn active_qubits(&self) -> Vec<u32> {
        let mut used = vec![false; self.num_qubits as usize];
        for i in &self.instructions {
            if i.gate == Gate::Barrier {
                continue;
            }
            used[i.q0 as usize] = true;
            if i.q1 != NO_OPERAND {
                used[i.q1 as usize] = true;
            }
        }
        used.iter()
            .enumerate()
            .filter_map(|(q, &u)| if u { Some(q as u32) } else { None })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        c
    }

    #[test]
    fn bell_structure() {
        let c = bell();
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.len(), 4);
        assert_eq!(c.num_measurements(), 2);
        assert_eq!(c.gate_counts(), (1, 1));
        assert_eq!(c.two_qubit_gates(), 1);
    }

    #[test]
    fn depth_counts_longest_chain() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2); // depth 1
        c.cx(0, 1); // depth 2 on qubits 0,1
        c.cx(1, 2); // depth 3 on qubits 1,2
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn rz_is_free_in_depth() {
        let mut c = Circuit::new(1);
        c.rz(0.1, 0).rz(0.2, 0).rz(0.3, 0);
        assert_eq!(c.depth(), 0);
        c.x(0);
        assert_eq!(c.depth(), 1);
    }

    #[test]
    fn barrier_synchronises_depth() {
        let mut c = Circuit::new(2);
        c.x(0).x(0); // qubit 0 at depth 2
        c.barrier();
        c.x(1); // starts after the barrier, so lands at depth 3
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn compose_concatenates() {
        let mut a = bell();
        let b = bell();
        let before = a.len();
        a.compose(&b);
        assert_eq!(a.len(), before + b.len());
    }

    #[test]
    #[should_panic]
    fn compose_width_mismatch_panics() {
        let mut a = Circuit::new(2);
        let b = Circuit::new(3);
        a.compose(&b);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.h(0).s(0);
        c.cx(0, 1);
        c.measure_all();
        let inv = c.inverse();
        // Measurements dropped, order reversed.
        assert_eq!(inv.len(), 3);
        assert_eq!(inv.instructions()[0].gate, Gate::CX);
        assert_eq!(inv.instructions()[1].gate, Gate::Sdg);
        assert_eq!(inv.instructions()[2].gate, Gate::H);
    }

    #[test]
    fn active_qubits_ignores_idle() {
        let mut c = Circuit::new(4);
        c.h(1).cx(1, 3);
        assert_eq!(c.active_qubits(), vec![1, 3]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_qubit_panics() {
        let mut c = Circuit::new(2);
        c.h(2);
    }
}
