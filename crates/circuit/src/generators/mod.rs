//! Generators for the standard quantum-algorithm families used by the paper's
//! evaluation (§8.1): GHZ, QFT, QAOA (max-cut), VQE ansatz, Grover, W-state,
//! and structured random circuits. This is the MQT-Bench-style workload
//! substitute described in DESIGN.md.

mod ghz;
mod grover;
mod qaoa;
mod qft;
mod random;
mod vqe;
mod wstate;

pub use ghz::ghz;
pub(crate) use grover::grover;
pub use qaoa::{qaoa_maxcut, MaxCutGraph};
pub use qft::qft;
pub use random::random_circuit;
pub use vqe::vqe_ansatz;
pub use wstate::w_state;

/// The algorithm families available from the generator library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Greenberger–Horne–Zeilinger state preparation.
    Ghz,
    /// Quantum Fourier Transform.
    Qft,
    /// Quantum Approximate Optimization Algorithm on a random 3-regular-ish graph.
    Qaoa,
    /// Hardware-efficient two-local VQE ansatz.
    Vqe,
    /// Grover search with a single marked element.
    Grover,
    /// W-state preparation.
    WState,
    /// Structured random circuit (alternating 1q/2q layers).
    Random,
}

impl Algorithm {
    /// All algorithm families, in a stable order.
    pub const ALL: [Algorithm; 7] = [
        Algorithm::Ghz,
        Algorithm::Qft,
        Algorithm::Qaoa,
        Algorithm::Vqe,
        Algorithm::Grover,
        Algorithm::WState,
        Algorithm::Random,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Ghz => "ghz",
            Algorithm::Qft => "qft",
            Algorithm::Qaoa => "qaoa",
            Algorithm::Vqe => "vqe",
            Algorithm::Grover => "grover",
            Algorithm::WState => "wstate",
            Algorithm::Random => "random",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn all_circuits(n: u32) -> Vec<(Algorithm, Circuit)> {
        let mut rng = StdRng::seed_from_u64(7);
        Algorithm::ALL
            .iter()
            .map(|&a| (a, crate::workload::build_algorithm(a, n, 2, &mut rng)))
            .collect()
    }

    #[test]
    fn every_algorithm_builds_at_small_sizes() {
        for n in [2u32, 3, 5, 8] {
            for (alg, c) in all_circuits(n) {
                assert_eq!(c.num_qubits(), n, "{:?} width", alg);
                assert!(!c.is_empty(), "{:?} produced an empty circuit", alg);
                assert!(c.num_measurements() as u32 >= n, "{:?} must measure all qubits", alg);
            }
        }
    }

    #[test]
    fn algorithm_names_unique() {
        let mut names: Vec<_> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Algorithm::ALL.len());
    }
}
