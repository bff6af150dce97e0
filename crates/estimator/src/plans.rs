//! Resource-plan generation (§6, Figure 4): apply candidate mitigation stacks,
//! transpile for template QPUs, estimate fidelity and execution time, attach a
//! dollar cost, and return Pareto-filtered plans for the client (and
//! meta-information for the scheduler).

use crate::cost::PricingTable;
use crate::estimator::ResourceEstimator;
use crate::features::JobFeatures;
use qonductor_backend::TemplateQpu;
use qonductor_circuit::Circuit;
use qonductor_mitigation::{candidate_stacks, MitigationCost, MitigationStack};
use qonductor_transpiler::{translate, BasisSet, TranspiledCircuit, Transpiler};

/// One resource plan: a concrete (mitigation stack, QPU model, accelerator)
/// choice with its estimated fidelity, runtime, and cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourcePlan {
    /// Label of the mitigation stack, e.g. `"zne+dd+rem"`.
    pub stack_label: String,
    /// The mitigation stack itself.
    pub stack: MitigationStack,
    /// Name of the template-QPU model the plan targets.
    pub qpu_model: String,
    /// Estimated execution fidelity.
    pub estimated_fidelity: f64,
    /// Estimated quantum execution time in seconds.
    pub quantum_time_s: f64,
    /// Estimated classical processing time in seconds (accelerated if
    /// `uses_accelerator`).
    pub classical_time_s: f64,
    /// Whether the classical stage uses a GPU/FPGA-class accelerator.
    pub uses_accelerator: bool,
    /// Estimated dollar cost of the plan (Table 1 pricing).
    pub cost_usd: f64,
}

impl ResourcePlan {
    /// Total (quantum + classical) estimated runtime in seconds.
    pub fn total_time_s(&self) -> f64 {
        self.quantum_time_s + self.classical_time_s
    }
}

/// How plan fidelity/runtime estimates are produced.
#[derive(Debug, Clone, Copy)]
pub enum EstimationBackend<'a> {
    /// Analytic model: calibration-derived ESP plus the stack's uplift profile.
    Analytic,
    /// A trained regression estimator.
    Trained(&'a ResourceEstimator),
}

/// Resource-plan generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanGeneratorConfig {
    /// Number of plans returned to the client (paper default: 3).
    pub num_plans: usize,
    /// Pricing table used for the cost column.
    pub pricing: PricingTable,
    /// Whether accelerated (GPU) classical processing is available.
    pub accelerators_available: bool,
}

impl Default for PlanGeneratorConfig {
    fn default() -> Self {
        PlanGeneratorConfig {
            num_plans: 3,
            pricing: PricingTable::default(),
            accelerators_available: true,
        }
    }
}

/// The analytic model's estimate for one transpiled circuit under one
/// mitigation stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticEstimate {
    /// Mitigated execution fidelity.
    pub fidelity: f64,
    /// Quantum execution time in seconds: all shots, times the stack's
    /// circuit-multiplicity / folding overhead.
    pub quantum_time_s: f64,
}

/// The analytic estimate ([`EstimationBackend::Analytic`]): the transpiled
/// circuit's estimated success probability ([`TranspiledCircuit::esp`])
/// lifted by the stack's error reduction, and the scheduled all-shots
/// runtime scaled by the stack's quantum-time factor. `mitigation` is the
/// stack's [`MitigationStack::cost`] on the same transpiled circuit and the
/// noise model it was transpiled for. Resource plans (per template QPU) and
/// the orchestrator's per-device job estimates are both this function.
pub fn analytic_estimate(
    transpiled: &TranspiledCircuit,
    mitigation: &MitigationCost,
) -> AnalyticEstimate {
    AnalyticEstimate {
        fidelity: mitigation.mitigated_fidelity(transpiled.esp),
        quantum_time_s: transpiled.total_execution_s() * mitigation.quantum_time_factor,
    }
}

/// Generate all candidate plans for a circuit over the given template QPUs:
/// every (template, mitigation stack) combination that fits the circuit.
/// The circuit is translated once per basis the templates use, and each
/// template transpiles that translation.
pub fn generate_candidate_plans(
    circuit: &Circuit,
    templates: &[TemplateQpu],
    backend: EstimationBackend<'_>,
    config: &PlanGeneratorConfig,
) -> Vec<ResourcePlan> {
    let transpiler = Transpiler::default();
    let mut translations: Vec<(BasisSet, Circuit)> = Vec::new();
    let mut plans = Vec::new();
    for template in templates {
        if template.num_qubits() < circuit.num_qubits() {
            continue; // Plan infeasible: the circuit does not fit this model.
        }
        let noise = template.noise_model();
        let basis = BasisSet::from_gate_names(&template.model.basis_gates);
        let translated = match translations.iter().position(|(b, _)| *b == basis) {
            Some(i) => &translations[i].1,
            None => {
                translations.push((basis, translate(circuit, basis)));
                &translations[translations.len() - 1].1
            }
        };
        let transpiled = transpiler.transpile(translated, &template.model, &noise);
        // The transpiled circuit's metrics are the same under every stack.
        let mut metrics = None;
        for stack in candidate_stacks() {
            let mitigation = stack.cost(&transpiled.circuit, &noise);
            let (fidelity, quantum_time_s, classical_cpu_s) = match backend {
                EstimationBackend::Analytic => {
                    let e = analytic_estimate(&transpiled, &mitigation);
                    (e.fidelity, e.quantum_time_s, mitigation.classical_time_cpu_s)
                }
                EstimationBackend::Trained(est) => {
                    let metrics = metrics.get_or_insert_with(|| transpiled.metrics());
                    let features = JobFeatures::new(metrics, &template.calibration, &mitigation);
                    let e = est.estimate(&features);
                    (e.fidelity, e.quantum_time_s, e.classical_time_s)
                }
            };
            let uses_accelerator =
                config.accelerators_available && mitigation.accelerator_speedup > 1.0;
            let classical_time_s = if uses_accelerator {
                classical_cpu_s / mitigation.accelerator_speedup.max(1.0)
            } else {
                classical_cpu_s
            };
            let cost_usd = config.pricing.hybrid_job_cost_usd(
                quantum_time_s,
                classical_time_s,
                uses_accelerator,
            );
            plans.push(ResourcePlan {
                stack_label: stack.label(),
                stack,
                qpu_model: template.model.name.clone(),
                estimated_fidelity: fidelity,
                quantum_time_s,
                classical_time_s,
                uses_accelerator,
                cost_usd,
            });
        }
    }
    plans
}

/// Keep only Pareto-optimal plans with respect to (maximise fidelity, minimise
/// total runtime). A plan is dominated if another plan has fidelity ≥ and
/// runtime ≤ with at least one strict inequality. Plans whose fidelity or
/// runtime is not finite are not candidates: a NaN compares neither better
/// nor worse than anything, so it would sit on every front.
pub fn pareto_front(plans: &[ResourcePlan]) -> Vec<ResourcePlan> {
    let finite: Vec<&ResourcePlan> = plans
        .iter()
        .filter(|p| p.estimated_fidelity.is_finite() && p.total_time_s().is_finite())
        .collect();
    let mut front: Vec<ResourcePlan> = Vec::new();
    for &p in &finite {
        let dominated = finite.iter().any(|q| {
            let better_fid = q.estimated_fidelity >= p.estimated_fidelity;
            let better_time = q.total_time_s() <= p.total_time_s();
            let strictly =
                q.estimated_fidelity > p.estimated_fidelity || q.total_time_s() < p.total_time_s();
            better_fid && better_time && strictly
        });
        if !dominated {
            front.push(p.clone());
        }
    }
    front.sort_by(|a, b| b.estimated_fidelity.total_cmp(&a.estimated_fidelity));
    front
}

/// Generate the client-facing resource plans: Pareto-filter all candidates and
/// return `config.num_plans` plans spread across the fidelity–runtime front
/// (highest-fidelity, lowest-runtime, and evenly spaced plans in between).
pub fn generate_plans(
    circuit: &Circuit,
    templates: &[TemplateQpu],
    backend: EstimationBackend<'_>,
    config: &PlanGeneratorConfig,
) -> Vec<ResourcePlan> {
    let candidates = generate_candidate_plans(circuit, templates, backend, config);
    let front = pareto_front(&candidates);
    if front.len() <= config.num_plans {
        return front;
    }
    // Spread selections evenly across the (fidelity-sorted) front.
    let mut selected = Vec::with_capacity(config.num_plans);
    for i in 0..config.num_plans {
        let idx = i * (front.len() - 1) / (config.num_plans - 1).max(1);
        selected.push(front[idx].clone());
    }
    selected.dedup_by(|a, b| a.stack_label == b.stack_label && a.qpu_model == b.qpu_model);
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_backend::Fleet;
    use qonductor_circuit::generators::{ghz, qaoa_maxcut, MaxCutGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn templates() -> Vec<TemplateQpu> {
        let mut rng = StdRng::seed_from_u64(200);
        Fleet::ibm_default(&mut rng).template_qpus()
    }

    #[test]
    fn candidate_plans_cover_stacks_and_models() {
        let t = templates();
        let plans = generate_candidate_plans(
            &ghz(6),
            &t,
            EstimationBackend::Analytic,
            &PlanGeneratorConfig::default(),
        );
        // 3 models fit a 6-qubit circuit (27, 16, 7 qubits) × 10 stacks.
        assert_eq!(plans.len(), 30);
        assert!(plans.iter().all(|p| p.estimated_fidelity >= 0.0 && p.estimated_fidelity <= 1.0));
        assert!(plans.iter().all(|p| p.cost_usd > 0.0));
    }

    #[test]
    fn oversized_circuits_skip_small_models() {
        let t = templates();
        let plans = generate_candidate_plans(
            &ghz(20),
            &t,
            EstimationBackend::Analytic,
            &PlanGeneratorConfig::default(),
        );
        assert!(plans.iter().all(|p| p.qpu_model == "falcon-r5.11"));
    }

    #[test]
    fn pareto_front_has_no_dominated_plans() {
        let t = templates();
        let graph = MaxCutGraph::ring(12);
        let circuit = qaoa_maxcut(&graph, &[0.4, 0.8], &[0.2, 0.5]);
        let plans = generate_candidate_plans(
            &circuit,
            &t,
            EstimationBackend::Analytic,
            &PlanGeneratorConfig::default(),
        );
        let front = pareto_front(&plans);
        assert!(!front.is_empty());
        for a in &front {
            for b in &front {
                let dominates = b.estimated_fidelity >= a.estimated_fidelity
                    && b.total_time_s() <= a.total_time_s()
                    && (b.estimated_fidelity > a.estimated_fidelity
                        || b.total_time_s() < a.total_time_s());
                assert!(!dominates, "front contains a dominated plan");
            }
        }
    }

    /// Hostile floats: a NaN (or infinite) estimate is dropped instead of
    /// panicking the sort or riding along on the front.
    #[test]
    fn pareto_front_skips_non_finite_plans() {
        let t = templates();
        let mut plans = generate_candidate_plans(
            &ghz(6),
            &t,
            EstimationBackend::Analytic,
            &PlanGeneratorConfig::default(),
        );
        plans[0].estimated_fidelity = f64::NAN;
        plans[1].quantum_time_s = f64::INFINITY;
        let front = pareto_front(&plans);
        assert!(!front.is_empty());
        // The poisoned plans are dropped and nothing else moves.
        assert_eq!(front, pareto_front(&plans[2..]));
        assert!(pareto_front(&plans[..2]).is_empty());
    }

    #[test]
    fn mitigated_plans_trade_runtime_for_fidelity() {
        let t = templates();
        let plans = generate_candidate_plans(
            &ghz(12),
            &t,
            EstimationBackend::Analytic,
            &PlanGeneratorConfig::default(),
        );
        let unmitigated = plans
            .iter()
            .find(|p| p.stack_label == "none" && p.qpu_model == "falcon-r5.11")
            .unwrap();
        let mitigated = plans
            .iter()
            .find(|p| p.stack_label == "zne+dd+rem" && p.qpu_model == "falcon-r5.11")
            .unwrap();
        assert!(mitigated.estimated_fidelity > unmitigated.estimated_fidelity);
        assert!(mitigated.total_time_s() > unmitigated.total_time_s());
        assert!(mitigated.cost_usd > unmitigated.cost_usd);
    }

    #[test]
    fn generate_plans_returns_requested_count() {
        let t = templates();
        let plans = generate_plans(
            &ghz(10),
            &t,
            EstimationBackend::Analytic,
            &PlanGeneratorConfig::default(),
        );
        assert!(!plans.is_empty());
        assert!(plans.len() <= 3);
        // The returned plans span the tradeoff: first has the highest fidelity.
        if plans.len() >= 2 {
            assert!(plans[0].estimated_fidelity >= plans.last().unwrap().estimated_fidelity);
        }
    }

    #[test]
    fn no_feasible_template_yields_no_plans() {
        let t = templates();
        let plans = generate_candidate_plans(
            &ghz(60),
            &t,
            EstimationBackend::Analytic,
            &PlanGeneratorConfig::default(),
        );
        assert!(plans.is_empty());
    }
}
