//! Common abstractions shared by all error-mitigation techniques.
//!
//! Each technique (§2.1) follows the paper's three-stage workflow: (1) generate
//! one or more circuits from the input circuit, (2) execute them on noisy
//! hardware, (3) post-process the results classically. For orchestration, the
//! relevant knobs per technique are captured by [`MitigationCost`]: how many
//! circuits are generated, how much extra quantum time is needed, how much
//! classical pre/post-processing time is needed (and whether an accelerator
//! helps), and how strongly the technique suppresses errors.

/// The error-mitigation techniques offered by the Qonductor classical library
/// (§5/§6: "ZNE, PEC, readout error mitigation, dynamic decoupling, Pauli
/// twirling, … and quasi-probability decomposition implemented as circuit
/// knitting").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technique {
    /// Zero-noise extrapolation.
    Zne,
    /// Probabilistic error cancellation.
    Pec,
    /// Readout error mitigation.
    Rem,
    /// Dynamical decoupling.
    DynamicalDecoupling,
    /// Pauli twirling.
    PauliTwirling,
    /// Circuit knitting (wire cutting + classical reconstruction).
    CircuitKnitting,
}

impl Technique {
    /// All techniques, in a stable order.
    pub const ALL: [Technique; 6] = [
        Technique::Zne,
        Technique::Pec,
        Technique::Rem,
        Technique::DynamicalDecoupling,
        Technique::PauliTwirling,
        Technique::CircuitKnitting,
    ];

    /// Human-readable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            Technique::Zne => "zne",
            Technique::Pec => "pec",
            Technique::Rem => "rem",
            Technique::DynamicalDecoupling => "dd",
            Technique::PauliTwirling => "twirling",
            Technique::CircuitKnitting => "knitting",
        }
    }

    /// The dominant error channel this technique addresses.
    pub fn targets(&self) -> ErrorChannel {
        match self {
            Technique::Zne | Technique::Pec | Technique::PauliTwirling => ErrorChannel::Gate,
            Technique::Rem => ErrorChannel::Readout,
            Technique::DynamicalDecoupling => ErrorChannel::Decoherence,
            Technique::CircuitKnitting => ErrorChannel::Gate,
        }
    }
}

/// Broad error-channel categories (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorChannel {
    /// Gate (Pauli/depolarizing) errors.
    Gate,
    /// Measurement / readout errors.
    Readout,
    /// T1/T2 decoherence of idling qubits.
    Decoherence,
}

/// The resource cost and benefit profile of applying one technique to one
/// circuit. Costs are *multiplicative factors* relative to the unmitigated run,
/// except for the classical time which is absolute seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MitigationCost {
    /// Number of circuits generated per input circuit.
    pub circuit_multiplicity: usize,
    /// Multiplicative increase of quantum execution time.
    pub quantum_time_factor: f64,
    /// Classical pre-/post-processing time on a CPU, in seconds.
    pub classical_time_cpu_s: f64,
    /// Speed-up factor available from a classical accelerator (GPU/FPGA);
    /// 1.0 means the technique gains nothing from acceleration.
    pub accelerator_speedup: f64,
    /// Multiplicative factor applied to the circuit's *error* (1 − fidelity);
    /// lower is better, 1.0 means no improvement.
    pub error_reduction_factor: f64,
}

impl MitigationCost {
    /// The identity cost: one circuit, no overheads, no error reduction.
    pub fn identity() -> Self {
        MitigationCost {
            circuit_multiplicity: 1,
            quantum_time_factor: 1.0,
            classical_time_cpu_s: 0.0,
            accelerator_speedup: 1.0,
            error_reduction_factor: 1.0,
        }
    }

    /// Classical processing time in seconds when an accelerator is available.
    pub fn classical_time_accelerated_s(&self) -> f64 {
        self.classical_time_cpu_s / self.accelerator_speedup.max(1.0)
    }

    /// Compose two technique costs applied to the same circuit (stacked
    /// mitigation). Circuit multiplicities and time factors multiply, classical
    /// times add, error-reduction factors multiply (with a floor: stacking can
    /// never remove more than 97% of the error — residual noise always remains).
    pub fn stack(&self, other: &MitigationCost) -> MitigationCost {
        MitigationCost {
            circuit_multiplicity: self.circuit_multiplicity * other.circuit_multiplicity,
            quantum_time_factor: self.quantum_time_factor * other.quantum_time_factor,
            classical_time_cpu_s: self.classical_time_cpu_s + other.classical_time_cpu_s,
            accelerator_speedup: self.accelerator_speedup.max(other.accelerator_speedup),
            error_reduction_factor: (self.error_reduction_factor * other.error_reduction_factor)
                .max(0.03),
        }
    }

    /// Apply this cost profile to a baseline fidelity, returning the mitigated
    /// fidelity estimate.
    pub fn mitigated_fidelity(&self, baseline_fidelity: f64) -> f64 {
        let error = (1.0 - baseline_fidelity).clamp(0.0, 1.0);
        (1.0 - error * self.error_reduction_factor).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn technique_names_unique() {
        let mut names: Vec<_> = Technique::ALL.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Technique::ALL.len());
    }

    #[test]
    fn identity_cost_is_neutral() {
        let id = MitigationCost::identity();
        assert_eq!(id.mitigated_fidelity(0.8), 0.8);
        assert_eq!(id.classical_time_accelerated_s(), 0.0);
    }

    #[test]
    fn stacking_composes_costs() {
        let a = MitigationCost {
            circuit_multiplicity: 3,
            quantum_time_factor: 9.0,
            classical_time_cpu_s: 2.0,
            accelerator_speedup: 4.0,
            error_reduction_factor: 0.5,
        };
        let b = MitigationCost {
            circuit_multiplicity: 2,
            quantum_time_factor: 1.1,
            classical_time_cpu_s: 1.0,
            accelerator_speedup: 1.0,
            error_reduction_factor: 0.8,
        };
        let s = a.stack(&b);
        assert_eq!(s.circuit_multiplicity, 6);
        assert!((s.quantum_time_factor - 9.9).abs() < 1e-12);
        assert!((s.classical_time_cpu_s - 3.0).abs() < 1e-12);
        assert!((s.error_reduction_factor - 0.4).abs() < 1e-12);
        assert_eq!(s.accelerator_speedup, 4.0);
    }

    #[test]
    fn stacking_error_reduction_is_floored() {
        let strong = MitigationCost { error_reduction_factor: 0.05, ..MitigationCost::identity() };
        let s = strong.stack(&strong);
        assert!(s.error_reduction_factor >= 0.03);
    }

    #[test]
    fn mitigated_fidelity_improves_but_stays_bounded() {
        let c = MitigationCost { error_reduction_factor: 0.4, ..MitigationCost::identity() };
        assert!((c.mitigated_fidelity(0.7) - 0.88).abs() < 1e-12);
        assert_eq!(c.mitigated_fidelity(1.0), 1.0);
        assert!(c.mitigated_fidelity(0.0) <= 1.0);
    }

    #[test]
    fn accelerated_time_divides_by_speedup() {
        let c = MitigationCost {
            classical_time_cpu_s: 8.0,
            accelerator_speedup: 4.0,
            ..MitigationCost::identity()
        };
        assert!((c.classical_time_accelerated_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn error_channels_covered() {
        use std::collections::HashSet;
        let channels: HashSet<_> = Technique::ALL.iter().map(|t| t.targets()).collect();
        assert!(channels.contains(&ErrorChannel::Gate));
        assert!(channels.contains(&ErrorChannel::Readout));
        assert!(channels.contains(&ErrorChannel::Decoherence));
    }
}
