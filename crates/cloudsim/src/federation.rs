//! The federated-fleet placement scenario: a heterogeneous multi-provider
//! federation (superconducting Falcons, a premium ion trap, a near-free
//! simulator, split across two regions) runs the same workload under each
//! placement arm — a named objective [`Preference`] plus a cost-lane weight —
//! while a seeded regional outage carves a maintenance hole into the capacity
//! view. The arms are compared on cost × fidelity × turnaround, and every arm
//! is audited for executions started inside the outage — the planner must
//! route *around* scheduled capacity holes, not through them.

use crate::sim::{study_config, CloudSimulation, Policy, SimulationConfig, SimulationReport};
use qonductor_backend::{Fleet, ResourceClass};
use qonductor_core::federation::FederatedFleet;
use qonductor_scheduler::Preference;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the federation placement scenario.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// The shared simulation configuration; the policy/preference and cost
    /// weight are overridden per placement arm.
    pub base: SimulationConfig,
    /// Region taken down by the seeded outage.
    pub outage_region: String,
    /// Outage start (simulated seconds).
    pub outage_start_s: f64,
    /// Outage end (simulated seconds).
    pub outage_end_s: f64,
    /// Cost-lane weight of the cost-optimized arm: the scale at which one
    /// unit of currency trades against one second of mean JCT.
    pub cost_weight: f64,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            // The outage is routed around with the same partition machinery
            // as calibration crossovers: the study configuration's
            // calibration-aware dispatch is what makes maintenance windows
            // scheduled capacity holes.
            base: study_config(),
            outage_region: "eu-central".to_string(),
            outage_start_s: 400.0,
            outage_end_s: 900.0,
            cost_weight: 1.0,
        }
    }
}

/// One placement arm's run over the federated fleet.
#[derive(Debug, Clone)]
pub struct PlacementArm {
    /// Placement name: `least-loaded`, `quantum-aware` or `cost-optimized`.
    pub strategy: String,
    /// The arm's full simulation report.
    pub report: SimulationReport,
    /// Executions that *started* inside the outage window on an affected
    /// QPU — must be 0 for every arm (the planner routes around
    /// scheduled capacity holes).
    pub outage_violations: usize,
}

/// Side-by-side outcome of the federation placement scenario.
#[derive(Debug, Clone)]
pub struct FederationComparison {
    /// One arm per placement, in run order.
    pub arms: Vec<PlacementArm>,
    /// Flat indices of the QPUs taken down by the outage.
    pub affected_qpus: Vec<usize>,
    /// `(provider name, qpu count)` spans of the federation.
    pub provider_spans: Vec<(String, usize)>,
    /// The outage interval `(start_s, end_s)`.
    pub outage_s: (f64, f64),
    /// The outage region.
    pub outage_region: String,
}

impl FederationComparison {
    /// The arm run under the named placement.
    pub fn arm(&self, strategy: &str) -> Option<&PlacementArm> {
        self.arms.iter().find(|a| a.strategy == strategy)
    }

    /// Per-application cost reduction of the cost-optimized arm relative to
    /// the least-loaded arm: `least_loaded − cost_optimized` mean cost per
    /// completed application (positive = the cost lane saved money).
    ///
    /// Compared per completed application rather than as raw totals because
    /// the arms complete different amounts of work — an arm that finishes
    /// more jobs spends more in absolute terms even when each job is
    /// cheaper.
    pub(crate) fn cost_reduction(&self) -> f64 {
        match (self.arm("least-loaded"), self.arm("cost-optimized")) {
            (Some(ll), Some(co)) => ll.report.mean_cost() - co.report.mean_cost(),
            _ => 0.0,
        }
    }

    /// Mean-fidelity drop the cost-optimized arm paid for its savings:
    /// `least_loaded − cost_optimized` (positive = fidelity got worse).
    pub fn fidelity_cost(&self) -> f64 {
        match (self.arm("least-loaded"), self.arm("cost-optimized")) {
            (Some(ll), Some(co)) => ll.report.mean_fidelity() - co.report.mean_fidelity(),
            _ => 0.0,
        }
    }

    /// Human-readable comparison table — the `federation_summary.txt`
    /// artifact the CI scenario uploads.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "federation placement comparison — outage: {} [{:.0}s, {:.0}s), {} QPU(s) down\n",
            self.outage_region,
            self.outage_s.0,
            self.outage_s.1,
            self.affected_qpus.len()
        ));
        let spans: Vec<String> =
            self.provider_spans.iter().map(|(name, len)| format!("{name}({len})")).collect();
        out.push_str(&format!("providers: {}\n\n", spans.join(" ")));
        out.push_str(
            "strategy         completed  total_cost  mean_cost  mean_fidelity  mean_completion_s  outage_violations\n",
        );
        for arm in &self.arms {
            out.push_str(&format!(
                "{:<16} {:>9} {:>11.2} {:>10.2} {:>14.4} {:>18.1} {:>18}\n",
                arm.strategy,
                arm.report.completed.len(),
                arm.report.total_cost(),
                arm.report.mean_cost(),
                arm.report.mean_fidelity(),
                arm.report.mean_completion_s(),
                arm.outage_violations,
            ));
        }
        out.push_str(&format!(
            "\nmean-cost reduction per app (least-loaded − cost-optimized): {:.2}\n",
            self.cost_reduction()
        ));
        out.push_str(&format!(
            "fidelity cost of the savings (least-loaded − cost-optimized): {:.4}\n",
            self.fidelity_cost()
        ));
        out
    }
}

/// The scenario's federation: the heterogeneous fleet's devices regrouped
/// into one provider per resource class (`sc-cloud`, `ion-cloud`,
/// `sim-cloud`). The class groups are contiguous in the heterogeneous spec,
/// so the composed flat fleet is member-for-member identical to
/// [`Fleet::heterogeneous`] under the same seed.
pub fn federated_heterogeneous(seed: u64) -> FederatedFleet {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1EE7);
    let fleet = Fleet::heterogeneous(&mut rng);
    let mut providers: Vec<(&str, Vec<_>)> =
        vec![("sc-cloud", Vec::new()), ("ion-cloud", Vec::new()), ("sim-cloud", Vec::new())];
    for member in fleet.members() {
        let slot = match member.qpu.resource_class {
            ResourceClass::Superconducting => 0,
            ResourceClass::IonTrap => 1,
            ResourceClass::Simulator => 2,
        };
        providers[slot].1.push(member.clone());
    }
    FederatedFleet::new(
        providers.into_iter().map(|(name, members)| (name, Fleet::from_members(members))).collect(),
    )
}

/// Run the full federation placement comparison: every placement over
/// identically seeded fleets, workloads, and outage schedules.
pub fn run_federation_comparison(config: &FederationConfig) -> FederationComparison {
    let federation = federated_heterogeneous(config.base.seed);
    let affected_qpus: Vec<usize> = (federation.fleet().members().iter().enumerate())
        .filter(|(_, m)| m.qpu.region == config.outage_region)
        .map(|(i, _)| i)
        .collect();
    let (start_s, end_s) = (config.outage_start_s, config.outage_end_s);
    // `(name, objective preference, cost-lane weight)`. The optimizer's JCT
    // objective already folds per-QPU queue backlogs, so weighting JCT is
    // what "least loaded" means under Eq. 1; quantum-aware is the paper's
    // balanced fidelity/JCT policy; cost-optimized is least-loaded plus the
    // cost lane, so those two differ in that lane alone.
    let placements = [
        ("least-loaded", Preference::jct_first(), 0.0),
        ("quantum-aware", Preference::balanced(), 0.0),
        ("cost-optimized", Preference::jct_first(), config.cost_weight),
    ];
    let arms = (placements.into_iter())
        .map(|(name, preference, cost_weight)| {
            let sim_config = SimulationConfig {
                policy: Policy::Qonductor { preference },
                cost_weight,
                ..config.base
            };
            let mut fleet = federation.fleet().clone();
            fleet.schedule_region_outage(&config.outage_region, start_s, end_s);
            let report = CloudSimulation::new(sim_config, fleet).run();
            let outage_violations = (report.completed.iter())
                .filter(|c| {
                    let start_abs = c.submit_s + c.waiting_s;
                    affected_qpus.contains(&c.qpu_index) && (start_s..end_s).contains(&start_abs)
                })
                .count();
            PlacementArm { strategy: name.to_string(), report, outage_violations }
        })
        .collect();
    FederationComparison {
        arms,
        affected_qpus,
        provider_spans: federation.provider_spans(),
        outage_s: (start_s, end_s),
        outage_region: config.outage_region.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_federated_composition_matches_the_flat_heterogeneous_fleet() {
        let fed = federated_heterogeneous(77);
        let mut rng = StdRng::seed_from_u64(77 ^ 0xF1EE7);
        let flat = Fleet::heterogeneous(&mut rng);
        assert_eq!(fed.num_qpus(), flat.len());
        for (a, b) in fed.fleet().members().iter().zip(flat.members()) {
            assert_eq!(a.qpu.name, b.qpu.name, "composition must preserve member order");
            assert_eq!(a.qpu.cost_per_shot, b.qpu.cost_per_shot);
            assert_eq!(a.qpu.region, b.qpu.region);
        }
        assert_eq!(
            fed.provider_spans(),
            vec![
                ("sc-cloud".to_string(), 4),
                ("ion-cloud".to_string(), 1),
                ("sim-cloud".to_string(), 1)
            ]
        );
    }

    /// Fast smoke version of the scenario (the full comparison runs in
    /// `tests/federation.rs` and CI): all arms complete work, and no arm
    /// starts an execution inside the outage on an affected device.
    #[test]
    fn all_arms_complete_work_and_respect_the_outage() {
        let config = FederationConfig {
            base: SimulationConfig { duration_s: 700.0, ..FederationConfig::default().base },
            outage_start_s: 200.0,
            outage_end_s: 500.0,
            ..FederationConfig::default()
        };
        let comparison = run_federation_comparison(&config);
        assert_eq!(comparison.arms.len(), 3);
        assert_eq!(comparison.affected_qpus.len(), 3, "eu-central hosts 3 devices");
        for arm in &comparison.arms {
            assert!(
                !arm.report.completed.is_empty(),
                "arm {} completed no applications",
                arm.strategy
            );
            assert_eq!(
                arm.outage_violations, 0,
                "arm {} started executions inside the outage",
                arm.strategy
            );
        }
        let summary = comparison.summary();
        assert!(summary.contains("least-loaded"));
        assert!(summary.contains("cost-optimized"));
        assert!(summary.contains("quantum-aware"));
    }
}
