//! Multi-provider backend federation: several named provider fleets composed
//! behind one flat capacity view.
//!
//! A [`FederatedFleet`] concatenates each provider's devices into a single
//! [`Fleet`] in registration order, remembering only the contiguous index
//! span each provider owns. Everything downstream — the job manager, the
//! scheduler, the sharded control plane, the journals — keeps operating on
//! flat QPU indices, so federation adds no new journal event types and a
//! *single*-provider federation is byte-identical to an unfederated fleet
//! (same members, same indices, same RNG streams, same digests).
//!
//! Placement across providers is steered by the scheduler's own knobs — an
//! objective [`Preference`](qonductor_scheduler::Preference) plus a cost-lane
//! weight — never by reading the fleet or the clock, which is what keeps
//! failover replay exact under any placement.

use qonductor_backend::Fleet;

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

    /// `(provider name, qpu count)` pairs in flat-index order.
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
}
