//! Multi-provider backend federation: several named provider fleets composed
//! behind one flat capacity view, plus the pluggable placement policies that
//! steer the hybrid scheduler across them.
//!
//! A [`FederatedFleet`] concatenates each provider's devices into a single
//! [`Fleet`] in registration order, remembering only the contiguous index
//! span each provider owns. Everything downstream — the job manager, the
//! scheduler, the sharded control plane, the journals — keeps operating on
//! flat QPU indices, so federation adds no new journal event types and a
//! *single*-provider federation is byte-identical to an unfederated fleet
//! (same members, same indices, same RNG streams, same digests).
//!
//! Placement policy is a [`PlacementStrategy`]: a pure mapping from a base
//! [`SchedulerConfig`] to the configuration actually used for dispatch
//! (objective preference + cost-lane weight). Strategies never touch the
//! fleet or the clock, which is what keeps failover replay exact under any
//! policy.

use qonductor_backend::Fleet;
use qonductor_scheduler::{Preference, SchedulerConfig};

/// One provider's slice of the federated index space.
#[derive(Debug, Clone, PartialEq)]
pub struct Provider {
    /// Provider name (e.g. `"ibm"`, `"ionq"`, `"aws-sim"`).
    pub name: String,
    /// First flat QPU index owned by this provider.
    pub start: usize,
    /// Number of QPUs the provider contributes.
    pub len: usize,
}

/// Multiple named provider fleets behind one flat capacity view.
#[derive(Debug, Clone)]
pub struct FederatedFleet {
    fleet: Fleet,
    providers: Vec<Provider>,
}

impl FederatedFleet {
    /// Compose the given `(provider name, fleet)` pairs, concatenating their
    /// members in order. Index `0..n₀` is provider 0, `n₀..n₀+n₁` provider 1,
    /// and so on — span membership is a pure function of the flat index.
    pub fn new<S: Into<String>>(provider_fleets: Vec<(S, Fleet)>) -> Self {
        let mut members = Vec::new();
        let mut providers = Vec::new();
        for (name, fleet) in provider_fleets {
            let start = members.len();
            let mut fleet_members: Vec<_> = fleet.members().to_vec();
            members.append(&mut fleet_members);
            providers.push(Provider { name: name.into(), start, len: members.len() - start });
        }
        FederatedFleet { fleet: Fleet::from_members(members), providers }
    }

    /// A federation of exactly one provider — the compatibility shape. Its
    /// flat fleet is the provider's fleet unchanged, so every dispatch,
    /// digest, and batch stream matches the unfederated plane byte-for-byte.
    pub fn single<S: Into<String>>(name: S, fleet: Fleet) -> Self {
        let len = fleet.len();
        FederatedFleet { fleet, providers: vec![Provider { name: name.into(), start: 0, len }] }
    }

    /// The flat composed fleet — what every downstream layer schedules over.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Mutable flat fleet (queue advancement, calibration drift, outages).
    pub fn fleet_mut(&mut self) -> &mut Fleet {
        &mut self.fleet
    }

    /// Unwrap into the flat fleet, dropping provider metadata.
    pub fn into_fleet(self) -> Fleet {
        self.fleet
    }

    /// The registered providers, in composition order.
    pub fn providers(&self) -> &[Provider] {
        &self.providers
    }

    /// The provider owning flat QPU index `qpu_index`.
    pub fn provider_of(&self, qpu_index: usize) -> Option<&str> {
        self.providers
            .iter()
            .find(|p| qpu_index >= p.start && qpu_index < p.start + p.len)
            .map(|p| p.name.as_str())
    }

    /// `(provider name, qpu count)` pairs in flat-index order — the shape
    /// [`FleetAllocator::with_provider_spans`] consumes so shard leases
    /// become provider-scoped.
    ///
    /// [`FleetAllocator::with_provider_spans`]: crate::fleetlease::FleetAllocator::with_provider_spans
    pub fn provider_spans(&self) -> Vec<(String, usize)> {
        self.providers.iter().map(|p| (p.name.clone(), p.len)).collect()
    }

    /// Number of QPUs across every provider.
    pub fn num_qpus(&self) -> usize {
        self.fleet.len()
    }

    /// Provision elastic capacity: append `member` at the flat-fleet tail
    /// under `provider` and return its flat index (the autoscaler grow path).
    /// If the tail provider already carries that name its span extends;
    /// otherwise a new provider span is registered — either way every
    /// existing flat index (and with it every in-flight placement, lease,
    /// and journal entry) stays valid.
    pub fn provision<S: Into<String>>(
        &mut self,
        provider: S,
        member: qonductor_backend::FleetMember,
    ) -> usize {
        let name = provider.into();
        let index = self.fleet.push_member(member);
        match self.providers.last_mut() {
            Some(last) if last.name == name => last.len += 1,
            _ => self.providers.push(Provider { name, start: index, len: 1 }),
        }
        index
    }

    /// Retire the tail member if (and only if) it is elastic-retirable: idle
    /// queue, nothing running, completions drained (see
    /// [`Fleet::pop_member`]). Shrinks (or drops) the owning provider span.
    /// Returns the retired member's flat index.
    pub fn retire_last(&mut self) -> Option<usize> {
        self.fleet.pop_member()?;
        let index = self.fleet.len();
        // Skip over degenerate empty spans (a provider registered with an
        // empty fleet) before shrinking the actual owner.
        while matches!(self.providers.last(), Some(p) if p.len == 0) {
            self.providers.pop();
        }
        if let Some(last) = self.providers.last_mut() {
            last.len -= 1;
            if last.len == 0 {
                self.providers.pop();
            }
        }
        Some(index)
    }
}

/// A placement policy over a federated fleet: a *pure* mapping from the base
/// scheduler configuration to the one used for dispatch.
///
/// # Determinism requirements
///
/// An implementation must be a pure function of the scheduling problem and
/// its own configuration:
///
/// - **No wall-clock reads.** Simulated time reaches the scheduler through
///   the snapshot (queue waits, horizons); consulting `SystemTime`/`Instant`
///   would make journal replay diverge from the live run.
/// - **No ambient randomness or I/O.** All stochasticity must flow through
///   the seeded [`Nsga2Config`](qonductor_scheduler::Nsga2Config) the
///   strategy returns.
/// - **Stable output.** Equal inputs must produce equal configurations, so
///   sharded failover replays federation decisions byte-for-byte.
pub trait PlacementStrategy {
    /// Short policy name (scenario reports, artifacts).
    fn name(&self) -> &'static str;

    /// The scheduler configuration this policy dispatches with, derived from
    /// `base` (which carries the NSGA-II budget, boundary penalty, etc.).
    fn scheduler_config(&self, base: SchedulerConfig) -> SchedulerConfig;
}

/// Spread work for fast turnaround: JCT-heavy preference, no cost lane. The
/// optimizer's JCT objective already folds per-QPU queue backlogs, so
/// weighting it is what "least loaded" means under Eq. 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoaded;

impl PlacementStrategy for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn scheduler_config(&self, base: SchedulerConfig) -> SchedulerConfig {
        SchedulerConfig {
            preference: Preference { fidelity_weight: 0.1, jct_weight: 0.9 },
            cost_weight: 0.0,
            ..base
        }
    }
}

/// The paper's quantum-aware policy: balanced fidelity/JCT preference, no
/// cost lane — placement follows calibration quality and backlog exactly as
/// in the unfederated evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuantumAware;

impl PlacementStrategy for QuantumAware {
    fn name(&self) -> &'static str {
        "quantum-aware"
    }

    fn scheduler_config(&self, base: SchedulerConfig) -> SchedulerConfig {
        SchedulerConfig { preference: Preference::balanced(), cost_weight: 0.0, ..base }
    }
}

/// Minimise spend at bounded quality loss: the least-loaded arm's
/// turnaround-heavy preference plus an active cost lane weighted by
/// `cost_weight` (the scale at which one unit of currency trades against
/// one second of mean JCT). Sharing [`LeastLoaded`]'s preference makes the
/// two strategies a clean ablation — the only difference between them is
/// the cost lane.
#[derive(Debug, Clone, Copy)]
pub struct CostOptimized {
    /// Weight of the cost lane (must be > 0 to have any effect).
    pub cost_weight: f64,
}

impl Default for CostOptimized {
    fn default() -> Self {
        CostOptimized { cost_weight: 1.0 }
    }
}

impl PlacementStrategy for CostOptimized {
    fn name(&self) -> &'static str {
        "cost-optimized"
    }

    fn scheduler_config(&self, base: SchedulerConfig) -> SchedulerConfig {
        SchedulerConfig {
            preference: Preference { fidelity_weight: 0.1, jct_weight: 0.9 },
            cost_weight: self.cost_weight,
            ..base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_provider_federation() -> FederatedFleet {
        let mut rng = StdRng::seed_from_u64(11);
        let ibm = Fleet::falcon_six(&mut rng);
        let het = Fleet::heterogeneous(&mut rng);
        FederatedFleet::new(vec![("ibm", ibm), ("mixed", het)])
    }

    #[test]
    fn composition_concatenates_spans_in_order() {
        let fed = two_provider_federation();
        assert_eq!(fed.num_qpus(), 12);
        assert_eq!(fed.providers().len(), 2);
        assert_eq!(fed.providers()[0], Provider { name: "ibm".into(), start: 0, len: 6 });
        assert_eq!(fed.providers()[1], Provider { name: "mixed".into(), start: 6, len: 6 });
        assert_eq!(fed.provider_of(0), Some("ibm"));
        assert_eq!(fed.provider_of(5), Some("ibm"));
        assert_eq!(fed.provider_of(6), Some("mixed"));
        assert_eq!(fed.provider_of(11), Some("mixed"));
        assert_eq!(fed.provider_of(12), None);
        assert_eq!(fed.provider_spans(), vec![("ibm".to_string(), 6), ("mixed".to_string(), 6)]);
    }

    #[test]
    fn a_single_provider_federation_is_the_fleet_unchanged() {
        let mut rng = StdRng::seed_from_u64(11);
        let fleet = Fleet::falcon_six(&mut rng);
        let names: Vec<String> = fleet.members().iter().map(|m| m.qpu.name.clone()).collect();
        let epoch = fleet.calibration_epoch();
        let fed = FederatedFleet::single("ibm", fleet);
        assert_eq!(fed.num_qpus(), 6);
        assert_eq!(fed.provider_of(3), Some("ibm"));
        let flat_names: Vec<String> =
            fed.fleet().members().iter().map(|m| m.qpu.name.clone()).collect();
        assert_eq!(flat_names, names, "member order is untouched");
        assert_eq!(fed.fleet().calibration_epoch(), epoch);
    }

    #[test]
    fn provision_and_retire_scale_elastic_capacity_at_the_tail() {
        use qonductor_backend::{FleetMember, JobQueue, Qpu, QpuModel, ResourceClass};
        let mut rng = StdRng::seed_from_u64(17);
        let mut fed = FederatedFleet::single("ibm", Fleet::falcon_six(&mut rng));
        let elastic = |i: usize, rng: &mut StdRng| FleetMember {
            qpu: Qpu::new(format!("sim_elastic_{i}"), QpuModel::falcon_27(), 1.3, rng)
                .with_resource_class(ResourceClass::Simulator),
            queue: JobQueue::new(),
        };
        let a = fed.provision("elastic-sim", elastic(0, &mut rng));
        let b = fed.provision("elastic-sim", elastic(1, &mut rng));
        assert_eq!((a, b), (6, 7), "elastic members append at the tail");
        assert_eq!(
            fed.provider_spans(),
            vec![("ibm".to_string(), 6), ("elastic-sim".to_string(), 2)],
            "a repeated provider name extends its tail span"
        );
        assert_eq!(fed.provider_of(6), Some("elastic-sim"));
        assert_eq!(fed.provider_of(3), Some("ibm"), "existing spans untouched");

        // Shrink: an idle tail retires; the span shrinks and finally drops.
        assert_eq!(fed.retire_last(), Some(7));
        assert_eq!(fed.provider_spans()[1], ("elastic-sim".to_string(), 1));
        // A busy tail refuses retirement.
        fed.fleet_mut().members_mut()[6].queue.enqueue(9, 50.0);
        assert_eq!(fed.retire_last(), None, "a tail with work must not retire");
        fed.fleet_mut().members_mut()[6].queue.advance_to(100.0);
        fed.fleet_mut().members_mut()[6].queue.take_completed();
        assert_eq!(fed.retire_last(), Some(6));
        assert_eq!(fed.provider_spans(), vec![("ibm".to_string(), 6)], "empty span dropped");
        assert_eq!(fed.num_qpus(), 6);
    }

    #[test]
    fn strategies_map_to_deterministic_scheduler_configs() {
        let base = SchedulerConfig::default();
        let ll = LeastLoaded.scheduler_config(base);
        assert_eq!(ll.cost_weight, 0.0);
        assert!(ll.preference.jct_weight > ll.preference.fidelity_weight);

        let qa = QuantumAware.scheduler_config(base);
        assert_eq!(qa.cost_weight, 0.0);
        assert_eq!(qa.preference.fidelity_weight, qa.preference.jct_weight);

        let co = CostOptimized { cost_weight: 2.5 }.scheduler_config(base);
        assert_eq!(co.cost_weight, 2.5);

        // Purity: equal inputs, equal outputs.
        let again = CostOptimized { cost_weight: 2.5 }.scheduler_config(base);
        assert_eq!(co.cost_weight, again.cost_weight);
        assert_eq!(co.preference.fidelity_weight, again.preference.fidelity_weight);
        assert_eq!(
            [LeastLoaded.name(), QuantumAware.name(), CostOptimized::default().name()],
            ["least-loaded", "quantum-aware", "cost-optimized"]
        );
    }
}
