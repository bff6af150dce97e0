//! Stacked error mitigation: the resource estimator's first stage "integrates
//! complementary error mitigation techniques in a stacked manner to enhance
//! execution fidelity … combining methods that reduce gate, measurement, and
//! decoherence-induced errors at the same time" (§6).

use crate::dd::{self, DdSequence};
use crate::knitting;
use crate::pec::{self, PecConfig};
use crate::rem;
use crate::technique::{MitigationCost, Technique};
use crate::twirling;
use crate::zne::{self, ExtrapolationFactory, ZneConfig};
use qonductor_backend::NoiseModel;
use qonductor_circuit::{Circuit, ContentHasher};

/// A concrete stacked-mitigation configuration (an ordered set of techniques).
#[derive(Debug, Clone, PartialEq)]
pub struct MitigationStack {
    /// The techniques in the stack (order is the application order).
    pub techniques: Vec<Technique>,
    /// ZNE configuration used when the stack contains [`Technique::Zne`].
    pub zne: ZneConfig,
    /// DD sequence used when the stack contains [`Technique::DynamicalDecoupling`].
    pub dd_sequence: DdSequence,
    /// PEC configuration used when the stack contains [`Technique::Pec`].
    pub pec: PecConfig,
}

impl MitigationStack {
    /// The empty stack (no mitigation).
    pub fn none() -> Self {
        MitigationStack {
            techniques: vec![],
            zne: ZneConfig::default(),
            dd_sequence: DdSequence::XpXm,
            pec: PecConfig::default(),
        }
    }

    /// A stack with the given techniques and default per-technique settings.
    pub(crate) fn with(techniques: Vec<Technique>) -> Self {
        MitigationStack { techniques, ..Self::none() }
    }

    /// The paper's Listing 2 stack: ZNE + DD pre-processing with REM post-selection.
    pub fn listing2() -> Self {
        Self::with(vec![Technique::Zne, Technique::DynamicalDecoupling, Technique::Rem])
    }

    /// `true` if the stack applies no technique.
    pub fn is_empty(&self) -> bool {
        self.techniques.is_empty()
    }

    /// Human-readable label, e.g. `"zne+dd+rem"`.
    pub fn label(&self) -> String {
        if self.techniques.is_empty() {
            "none".to_string()
        } else {
            self.techniques.iter().map(|t| t.name()).collect::<Vec<_>>().join("+")
        }
    }

    /// 128-bit digest of the whole configuration — techniques in order and
    /// every per-technique setting, including those of techniques the stack
    /// does not currently apply — for memoising per-stack computations.
    pub fn content_digest(&self) -> u128 {
        // Destructured so a new field or variant fails to compile here
        // instead of being left out of the digest.
        let MitigationStack {
            techniques,
            zne: ZneConfig { noise_factors, factory },
            dd_sequence,
            pec: PecConfig { num_samples, max_gamma },
        } = self;
        let mut h = ContentHasher::new();
        h.word(techniques.len() as u64);
        for t in techniques {
            h.word(match t {
                Technique::Zne => 0,
                Technique::Pec => 1,
                Technique::Rem => 2,
                Technique::DynamicalDecoupling => 3,
                Technique::PauliTwirling => 4,
                Technique::CircuitKnitting => 5,
            });
        }
        h.word(noise_factors.len() as u64);
        for &f in noise_factors {
            h.float(f);
        }
        h.word(match factory {
            ExtrapolationFactory::Linear => 0,
            ExtrapolationFactory::Richardson => 1,
            ExtrapolationFactory::Exponential => 2,
        });
        h.word(match dd_sequence {
            DdSequence::XpXm => 0,
            DdSequence::Xy4 => 1,
        });
        h.word(*num_samples as u64);
        h.float(*max_gamma);
        h.finish()
    }

    /// The composed resource-cost profile of applying this stack to `circuit`
    /// on the device described by `noise`.
    pub fn cost(&self, circuit: &Circuit, noise: &NoiseModel) -> MitigationCost {
        let mut acc = MitigationCost::identity();
        for t in &self.techniques {
            let c = match t {
                Technique::Zne => zne::cost(&self.zne, circuit),
                Technique::Pec => pec::cost(circuit, noise, &self.pec),
                Technique::Rem => rem::cost(circuit),
                Technique::DynamicalDecoupling => dd::cost(circuit, self.dd_sequence),
                Technique::PauliTwirling => twirling::cost(circuit, 1),
                Technique::CircuitKnitting => knitting::cost(circuit),
            };
            acc = acc.stack(&c);
        }
        acc
    }

    /// Apply the circuit-generating techniques of the stack, returning the set
    /// of circuits that must be executed on quantum hardware (stage (a) of the
    /// resource-estimator workflow, Figure 4).
    pub fn generate_circuits<R: rand::Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        noise: &NoiseModel,
        rng: &mut R,
    ) -> Vec<Circuit> {
        let mut current = vec![circuit.clone()];
        for t in &self.techniques {
            current = match t {
                Technique::Zne => {
                    current.iter().flat_map(|c| zne::generate_circuits(c, &self.zne)).collect()
                }
                Technique::PauliTwirling => {
                    current.iter().map(|c| twirling::twirl_circuit(c, rng)).collect()
                }
                Technique::DynamicalDecoupling => current
                    .iter()
                    .map(|c| dd::insert_dd(c, noise, self.dd_sequence, 500.0).circuit)
                    .collect(),
                Technique::CircuitKnitting => current
                    .iter()
                    .flat_map(|c| {
                        if c.num_qubits() >= 4 {
                            knitting::cut_in_half(c).fragments
                        } else {
                            vec![c.clone()]
                        }
                    })
                    .collect(),
                Technique::Pec => current
                    .iter()
                    .flat_map(|c| {
                        pec::generate_samples(c, noise, &self.pec, rng)
                            .into_iter()
                            .map(|s| s.circuit)
                    })
                    .collect(),
                // REM only adds classical post-processing, no extra circuits.
                Technique::Rem => current,
            };
        }
        current
    }
}

/// Enumerate the candidate stacks the resource estimator explores when building
/// resource plans. The list spans the fidelity–cost spectrum from "no
/// mitigation" to aggressive stacked configurations.
pub fn candidate_stacks() -> Vec<MitigationStack> {
    vec![
        MitigationStack::none(),
        MitigationStack::with(vec![Technique::Rem]),
        MitigationStack::with(vec![Technique::DynamicalDecoupling, Technique::Rem]),
        MitigationStack::with(vec![Technique::Zne]),
        MitigationStack::with(vec![Technique::Zne, Technique::Rem]),
        MitigationStack::listing2(),
        MitigationStack::with(vec![
            Technique::PauliTwirling,
            Technique::Zne,
            Technique::DynamicalDecoupling,
            Technique::Rem,
        ]),
        MitigationStack::with(vec![Technique::Pec, Technique::Rem]),
        MitigationStack::with(vec![Technique::CircuitKnitting, Technique::Rem]),
        MitigationStack::with(vec![
            Technique::CircuitKnitting,
            Technique::Zne,
            Technique::DynamicalDecoupling,
            Technique::Rem,
        ]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technique::ErrorChannel;
    use qonductor_backend::CalibrationGenerator;
    use qonductor_circuit::generators::ghz;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn noise(n: u32) -> NoiseModel {
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|q| (q, q + 1)).collect();
        let mut rng = StdRng::seed_from_u64(19);
        NoiseModel::new(CalibrationGenerator::default().generate(n, &edges, &mut rng))
    }

    #[test]
    fn empty_stack_is_free_and_neutral() {
        let s = MitigationStack::none();
        let c = ghz(8);
        let cost = s.cost(&c, &noise(8));
        assert_eq!(cost.circuit_multiplicity, 1);
        assert_eq!(cost.error_reduction_factor, 1.0);
        assert_eq!(s.label(), "none");
        assert!(s.is_empty());
    }

    #[test]
    fn listing2_stack_covers_all_error_channels() {
        let covers_all = |s: &MitigationStack| {
            [ErrorChannel::Gate, ErrorChannel::Readout, ErrorChannel::Decoherence]
                .iter()
                .all(|&channel| s.techniques.iter().any(|t| t.targets() == channel))
        };
        let s = MitigationStack::listing2();
        assert!(covers_all(&s));
        assert_eq!(s.label(), "zne+dd+rem");
        assert!(!covers_all(&MitigationStack::with(vec![Technique::Zne])));
    }

    #[test]
    fn stacked_cost_improves_fidelity_more_than_single_technique() {
        let c = ghz(10);
        let nm = noise(10);
        let single = MitigationStack::with(vec![Technique::Rem]).cost(&c, &nm);
        let stacked = MitigationStack::listing2().cost(&c, &nm);
        assert!(stacked.error_reduction_factor < single.error_reduction_factor);
        // But stacked costs more quantum time.
        assert!(stacked.quantum_time_factor > single.quantum_time_factor);
        let baseline = 0.6;
        assert!(stacked.mitigated_fidelity(baseline) > single.mitigated_fidelity(baseline));
    }

    #[test]
    fn generate_circuits_multiplies_per_zne_factor() {
        let c = ghz(6);
        let nm = noise(6);
        let mut rng = StdRng::seed_from_u64(1);
        let circuits =
            MitigationStack::with(vec![Technique::Zne]).generate_circuits(&c, &nm, &mut rng);
        assert_eq!(circuits.len(), 3);
    }

    #[test]
    fn knitting_stack_generates_fragments() {
        let c = ghz(12);
        let nm = noise(12);
        let mut rng = StdRng::seed_from_u64(2);
        let circuits = MitigationStack::with(vec![Technique::CircuitKnitting])
            .generate_circuits(&c, &nm, &mut rng);
        assert_eq!(circuits.len(), 2);
        assert!(circuits.iter().all(|f| f.num_qubits() == 6));
    }

    #[test]
    fn candidate_stacks_span_cost_spectrum() {
        let stacks = candidate_stacks();
        assert!(stacks.len() >= 8);
        let c = ghz(12);
        let nm = noise(12);
        let costs: Vec<f64> = stacks.iter().map(|s| s.cost(&c, &nm).quantum_time_factor).collect();
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = costs.iter().cloned().fold(0.0, f64::max);
        assert_eq!(min, 1.0, "the 'none' stack must be free");
        assert!(max > 5.0, "aggressive stacks must be visibly more expensive");
        // Labels are unique.
        let mut labels: Vec<String> = stacks.iter().map(|s| s.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), stacks.len());
    }

    #[test]
    fn content_digest_separates_stacks_and_settings() {
        let mut digests: Vec<u128> =
            candidate_stacks().iter().map(MitigationStack::content_digest).collect();
        let listing2 = MitigationStack::listing2();
        assert!(digests.contains(&listing2.content_digest()));
        // Settings count even when only they differ.
        let mut factors = listing2.clone();
        factors.zne.noise_factors[2] = 7.0;
        let mut sequence = listing2.clone();
        sequence.dd_sequence = DdSequence::Xy4;
        let mut gamma = listing2.clone();
        gamma.pec.max_gamma = 50.0;
        digests.extend([factors, sequence, gamma].iter().map(MitigationStack::content_digest));
        let distinct = digests.len();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), distinct);
    }

    #[test]
    fn rem_stack_generates_no_extra_circuits() {
        let c = ghz(5);
        let nm = noise(5);
        let mut rng = StdRng::seed_from_u64(3);
        let circuits =
            MitigationStack::with(vec![Technique::Rem]).generate_circuits(&c, &nm, &mut rng);
        assert_eq!(circuits.len(), 1);
    }
}
