//! Content digests: a 128-bit, word-at-a-time hash over exactly the fields of
//! a value that downstream computations read, so equal digests can stand in
//! for equal content when memoising those computations.
//!
//! The hash is a fixed public function with no per-process seed (digests are
//! stable across runs) and is **not** collision-resistant against an
//! adversary; it addresses derived, recomputable data only.

use crate::circuit::Circuit;
use crate::gate::Gate;

/// Streaming 128-bit content hasher: two independent 64-bit lanes, each a
/// folded 64×64→128 multiply per absorbed word.
#[derive(Debug, Clone, Copy)]
pub struct ContentHasher {
    lo: u64,
    hi: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher::new()
    }
}

fn folded_multiply(x: u64, k: u64) -> u64 {
    let product = u128::from(x) * u128::from(k);
    (product as u64) ^ ((product >> 64) as u64)
}

impl ContentHasher {
    /// A hasher with nothing absorbed yet.
    pub fn new() -> Self {
        // Lane seeds and multipliers: digits of π and of the golden ratio.
        ContentHasher { lo: 0x243f_6a88_85a3_08d3, hi: 0x1319_8a2e_0370_7344 }
    }

    /// Absorb one 64-bit word.
    pub fn word(&mut self, w: u64) {
        self.lo = folded_multiply(self.lo ^ w, 0x9e37_79b9_7f4a_7c15);
        self.hi = folded_multiply(self.hi ^ w, 0xa409_3822_299f_31d1);
    }

    /// Absorb the exact bit pattern of a float (`-0.0` and `0.0` differ, as
    /// do NaN payloads).
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest of everything absorbed so far.
    pub fn finish(self) -> u128 {
        u128::from(self.hi) << 64 | u128::from(self.lo)
    }
}

impl Circuit {
    /// 128-bit digest of the circuit's *content*: register sizes, shots, and
    /// every instruction's gate kind, exact parameter bits, operands and
    /// classical bit, in order. The [`Circuit::name`] is excluded — nothing
    /// that consumes a circuit's structure reads it — so two circuits that
    /// differ only by name share a digest.
    pub fn content_digest(&self) -> u128 {
        let mut h = ContentHasher::new();
        h.word(u64::from(self.num_qubits()) | u64::from(self.num_clbits()) << 32);
        h.word(u64::from(self.shots()));
        h.word(self.len() as u64);
        for instr in self.instructions() {
            // Exhaustive on purpose: a new `Gate` variant must pick its own
            // tag here instead of silently colliding with an existing one.
            const NONE: [f64; 3] = [0.0; 3];
            let (tag, params, arity): (u64, [f64; 3], usize) = match instr.gate {
                Gate::Id => (0, NONE, 0),
                Gate::H => (1, NONE, 0),
                Gate::X => (2, NONE, 0),
                Gate::Y => (3, NONE, 0),
                Gate::Z => (4, NONE, 0),
                Gate::S => (5, NONE, 0),
                Gate::Sdg => (6, NONE, 0),
                Gate::T => (7, NONE, 0),
                Gate::Tdg => (8, NONE, 0),
                Gate::SX => (9, NONE, 0),
                Gate::RX(t) => (10, [t, 0.0, 0.0], 1),
                Gate::RY(t) => (11, [t, 0.0, 0.0], 1),
                Gate::RZ(t) => (12, [t, 0.0, 0.0], 1),
                Gate::U(a, b, c) => (13, [a, b, c], 3),
                Gate::CX => (14, NONE, 0),
                Gate::CZ => (15, NONE, 0),
                Gate::ECR => (16, NONE, 0),
                Gate::Swap => (17, NONE, 0),
                Gate::RZZ(t) => (18, [t, 0.0, 0.0], 1),
                Gate::Measure => (19, NONE, 0),
                Gate::Barrier => (20, NONE, 0),
                Gate::Delay(t) => (21, [t, 0.0, 0.0], 1),
            };
            h.word(u64::from(instr.q0) | u64::from(instr.q1) << 32);
            h.word(u64::from(instr.cbit) | tag << 32);
            for &p in &params[..arity] {
                h.float(p);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{ghz, qaoa_maxcut, MaxCutGraph};

    #[test]
    fn name_is_excluded_and_everything_else_is_not() {
        let base = qaoa_maxcut(&MaxCutGraph::ring(6), &[0.4], &[0.7]);
        let digest = base.content_digest();
        assert_eq!(base.clone().content_digest(), digest);

        let mut renamed = base.clone();
        renamed.set_name("something-else");
        assert_eq!(renamed.content_digest(), digest);

        let mut shots = base.clone();
        shots.set_shots(base.shots() + 1);
        assert_ne!(shots.content_digest(), digest);

        // One ulp on one angle.
        let mut nudged = base.clone();
        let rotated = nudged
            .instructions_mut()
            .iter_mut()
            .find_map(|i| match &mut i.gate {
                Gate::RZZ(t) | Gate::RX(t) | Gate::RZ(t) => Some(t),
                _ => None,
            })
            .expect("QAOA has a rotation");
        *rotated = f64::from_bits(rotated.to_bits() + 1);
        assert_ne!(nudged.content_digest(), digest);

        let mut swapped = base.clone();
        swapped.instructions_mut().swap(0, 7);
        assert_ne!(swapped.content_digest(), digest);

        assert_ne!(ghz(6).content_digest(), ghz(7).content_digest());
    }

    #[test]
    fn gate_kinds_with_equal_operands_differ() {
        let digest_of = |gate: Gate| {
            let mut c = Circuit::new(2);
            c.apply1(gate, 0);
            c.content_digest()
        };
        let kinds = [
            Gate::Id,
            Gate::H,
            Gate::X,
            Gate::RX(0.5),
            Gate::RY(0.5),
            Gate::RZ(0.5),
            Gate::RZ(-0.5),
            Gate::Delay(0.5),
            Gate::U(0.5, 0.0, 0.0),
            Gate::U(0.0, 0.5, 0.0),
        ];
        for (i, &a) in kinds.iter().enumerate() {
            for &b in &kinds[i + 1..] {
                assert_ne!(digest_of(a), digest_of(b), "{a:?} vs {b:?}");
            }
        }
    }
}
