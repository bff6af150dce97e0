//! Content-addressed memo of the orchestrator's two estimate products.
//!
//! Iterative hybrid applications (VQE/QAOA loops) submit the same circuit
//! over and over between recalibrations, and both products are pure functions
//! of (circuit content, mitigation stack, calibration snapshot):
//!
//! * **steps** — per-device `(mitigated fidelity, execution seconds)` of one
//!   quantum step, keyed by [`StepKey`] (circuit digest incl. shots ⊕ stack
//!   digest). Every device's entry is stamped with the device's name and
//!   `clock.epoch` and recomputed in place when the stamp differs, so a
//!   recalibration of one QPU re-transpiles for that QPU only.
//! * **plans** — the client-facing resource plans of one circuit, keyed by
//!   the circuit digest and stamped with [`PlanStamp`] (fleet calibration
//!   epoch + everything of the deployment configuration plan generation
//!   reads). The filtered template-QPU set is built once per stamp.
//!
//! `Qpu::clock.epoch == calibration.cycle` is an invariant of the backend
//! (`Qpu::recalibrate` is the only writer of either), so an equal epoch means
//! an equal calibration snapshot. The miss path *is* the estimate path — there
//! is no uncached variant to select — and the cache is derived data: never
//! journaled, never part of `encode_state` or any digest. Each product keeps
//! at most [`CAPACITY`] keys and evicts in insertion order.

use qonductor_backend::{Fleet, Qpu, TemplateQpu};
use qonductor_circuit::Circuit;
use qonductor_estimator::{
    analytic_estimate, generate_plans, AnalyticEstimate, EstimationBackend, PlanGeneratorConfig,
    ResourcePlan,
};
use qonductor_mitigation::MitigationStack;
use qonductor_transpiler::Transpiler;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// Keys kept per product before the oldest is evicted.
pub(crate) const CAPACITY: usize = 2048;

/// Lookup accounting of one cached product.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProductStats {
    /// Lookups answered from a stored entry whose stamp matched.
    pub hits: u64,
    /// Lookups that found no entry and computed one.
    pub misses: u64,
    /// Lookups that found an entry with an outdated stamp (a recalibration
    /// or a different deployment configuration) and recomputed it in place.
    pub stale_recomputes: u64,
    /// Entries dropped to stay within the capacity bound.
    pub evictions: u64,
}

/// Accounting of the orchestrator's estimate cache
/// ([`crate::Orchestrator::estimate_cache_stats`]). Step counts are per
/// (step, device that fits the circuit); plan counts are per circuit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EstimateCacheStats {
    /// Per-device step estimates.
    pub steps: ProductStats,
    /// Per-circuit resource plans.
    pub plans: ProductStats,
}

/// Content key of one quantum step's estimates. `shots` is part of the
/// circuit digest (execution time scales with it) and the *whole* stack is
/// digested (every setting feeds `MitigationStack::cost`); the circuit's name
/// is in neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct StepKey {
    circuit: u128,
    stack: u128,
}

impl StepKey {
    pub(crate) fn new(circuit_digest: u128, stack: &MitigationStack) -> Self {
        StepKey { circuit: circuit_digest, stack: stack.content_digest() }
    }
}

/// Everything besides the circuit that plan generation reads.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlanStamp {
    /// [`Fleet::calibration_epoch`]: moves whenever any device recalibrates.
    pub(crate) fleet_epoch: u64,
    /// `DeploymentConfig::preferred_models` (empty = any).
    pub(crate) preferred_models: Vec<String>,
    /// `DeploymentConfig::quantum.min_qubits`.
    pub(crate) min_qubits: u32,
    /// Plan count, pricing and accelerator availability.
    pub(crate) generator: PlanGeneratorConfig,
}

impl PlanStamp {
    fn admits(&self, template: &TemplateQpu) -> bool {
        (self.preferred_models.is_empty() || self.preferred_models.contains(&template.model.name))
            && template.num_qubits() >= self.min_qubits
    }
}

/// One device's estimate of a step, with the stamp it was computed under.
#[derive(Debug)]
struct DeviceEstimate {
    device: String,
    epoch: u64,
    estimate: AnalyticEstimate,
}

/// One circuit's plans, with the stamp they were computed under (`None`
/// only between the entry's creation and its first fill).
#[derive(Debug, Default)]
struct PlanEntry {
    stamp: Option<PlanStamp>,
    plans: Vec<ResourcePlan>,
}

/// A map that holds at most [`CAPACITY`] keys, evicting in insertion order.
#[derive(Debug)]
struct Bounded<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
}

impl<K, V> Default for Bounded<K, V> {
    fn default() -> Self {
        Bounded { map: HashMap::new(), order: VecDeque::new() }
    }
}

impl<K: Copy + Eq + Hash, V: Default> Bounded<K, V> {
    /// The value under `key` (a default one if the key is new) and the value
    /// evicted to make room for it, if any.
    fn slot(&mut self, key: K) -> (&mut V, Option<V>) {
        let mut evicted = None;
        if !self.map.contains_key(&key) {
            if self.map.len() >= CAPACITY {
                evicted = self.order.pop_front().and_then(|oldest| self.map.remove(&oldest));
            }
            self.order.push_back(key);
        }
        (self.map.entry(key).or_default(), evicted)
    }
}

/// The analytic estimate of `circuit` under `stack` on one device at its
/// current calibration: transpile, cost the stack, estimate.
fn device_estimate(
    transpiler: &Transpiler,
    circuit: &Circuit,
    qpu: &Qpu,
    stack: &MitigationStack,
) -> AnalyticEstimate {
    let noise = qpu.noise_model();
    let transpiled = transpiler.transpile(circuit, &qpu.model, &noise);
    analytic_estimate(&transpiled, &noise, &stack.cost(&transpiled.circuit, &noise))
}

/// The orchestrator's estimate memo (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct EstimateCache {
    /// Per key, one slot per fleet member (by fleet index).
    steps: Bounded<StepKey, Vec<Option<DeviceEstimate>>>,
    plans: Bounded<u128, PlanEntry>,
    /// The template QPUs the last plan computation ran over.
    templates: Vec<TemplateQpu>,
    templates_stamp: Option<PlanStamp>,
    stats: EstimateCacheStats,
}

impl EstimateCache {
    pub(crate) fn stats(&self) -> EstimateCacheStats {
        self.stats
    }

    /// Per-QPU fidelity and execution-time estimates for one circuit under a
    /// mitigation stack (transpilation + ESP + mitigation uplift), indexed
    /// like [`Fleet::members`]. QPUs that cannot fit the circuit get the
    /// engine's "cannot run here" marker — zero fidelity and an infinite
    /// execution time (the engine sanitizes this to a finite penalty for the
    /// optimizer and refuses it in direct dispatch; cloudsim uses the same
    /// representation). `key` must be the [`StepKey`] of `circuit` and `stack`.
    pub(crate) fn step_estimates(
        &mut self,
        key: StepKey,
        circuit: &Circuit,
        stack: &MitigationStack,
        fleet: &Fleet,
        transpiler: &Transpiler,
    ) -> (Vec<f64>, Vec<f64>) {
        let stats = &mut self.stats.steps;
        let (row, evicted) = self.steps.slot(key);
        stats.evictions += evicted.map_or(0, |row| row.iter().flatten().count() as u64);
        row.resize_with(fleet.len(), || None);
        let mut fidelity_per_qpu = Vec::with_capacity(fleet.len());
        let mut exec_time_per_qpu = Vec::with_capacity(fleet.len());
        for (slot, member) in row.iter_mut().zip(fleet.members()) {
            let qpu = &member.qpu;
            if qpu.num_qubits() < circuit.num_qubits() {
                fidelity_per_qpu.push(0.0);
                exec_time_per_qpu.push(f64::INFINITY);
                continue;
            }
            let estimate = match slot {
                Some(e) if e.device == qpu.name && e.epoch == qpu.clock.epoch => {
                    stats.hits += 1;
                    e.estimate
                }
                _ => {
                    if slot.is_some() {
                        stats.stale_recomputes += 1;
                    } else {
                        stats.misses += 1;
                    }
                    let estimate = device_estimate(transpiler, circuit, qpu, stack);
                    *slot = Some(DeviceEstimate {
                        device: qpu.name.clone(),
                        epoch: qpu.clock.epoch,
                        estimate,
                    });
                    estimate
                }
            };
            fidelity_per_qpu.push(estimate.fidelity);
            exec_time_per_qpu.push(estimate.quantum_time_s);
        }
        (fidelity_per_qpu, exec_time_per_qpu)
    }

    /// The resource plans of one circuit (fidelity/runtime/cost tradeoffs
    /// over the template QPUs `stamp` admits and the candidate mitigation
    /// stacks). `digest` must be `circuit.content_digest()` and `stamp` must
    /// describe `fleet`.
    pub(crate) fn plans(
        &mut self,
        digest: u128,
        circuit: &Circuit,
        stamp: &PlanStamp,
        fleet: &Fleet,
    ) -> &[ResourcePlan] {
        let stats = &mut self.stats.plans;
        let (entry, evicted) = self.plans.slot(digest);
        stats.evictions += u64::from(evicted.is_some());
        if entry.stamp.as_ref() == Some(stamp) {
            stats.hits += 1;
        } else {
            if entry.stamp.is_some() {
                stats.stale_recomputes += 1;
            } else {
                stats.misses += 1;
            }
            if self.templates_stamp.as_ref() != Some(stamp) {
                self.templates =
                    fleet.template_qpus().into_iter().filter(|t| stamp.admits(t)).collect();
                self.templates_stamp = Some(stamp.clone());
            }
            entry.plans = generate_plans(
                circuit,
                &self.templates,
                EstimationBackend::Analytic,
                &stamp.generator,
            );
            entry.stamp = Some(stamp.clone());
        }
        &entry.plans
    }

    /// Forget every entry (not the counters): the next lookups take the miss
    /// path, which is what the equivalence tests compare a warm cache against.
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.steps = Bounded::default();
        self.plans = Bounded::default();
        self.templates_stamp = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_circuit::generators::{ghz, random_circuit};
    use qonductor_circuit::Gate;
    use qonductor_estimator::PricingTable;
    use qonductor_mitigation::candidate_stacks;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The default 8-QPU fleet and the RNG that built it.
    fn default_fleet(seed: u64) -> (Fleet, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let fleet = Fleet::ibm_default(&mut rng);
        (fleet, rng)
    }

    /// The stamp of a default deployment on `fleet`.
    fn stamp_of(fleet: &Fleet) -> PlanStamp {
        PlanStamp {
            fleet_epoch: fleet.calibration_epoch(),
            preferred_models: Vec::new(),
            min_qubits: 0,
            generator: PlanGeneratorConfig {
                num_plans: 3,
                pricing: PricingTable::default(),
                accelerators_available: true,
            },
        }
    }

    /// The step estimates with no cache in front: the miss path, per device.
    fn uncached_steps(
        fleet: &Fleet,
        circuit: &Circuit,
        stack: &MitigationStack,
    ) -> (Vec<f64>, Vec<f64>) {
        fleet
            .members()
            .iter()
            .map(|m| {
                if m.qpu.num_qubits() < circuit.num_qubits() {
                    return (0.0, f64::INFINITY);
                }
                let e = device_estimate(&Transpiler::default(), circuit, &m.qpu, stack);
                (e.fidelity, e.quantum_time_s)
            })
            .unzip()
    }

    /// The plans with no cache in front.
    fn uncached_plans(fleet: &Fleet, circuit: &Circuit, stamp: &PlanStamp) -> Vec<ResourcePlan> {
        let templates: Vec<TemplateQpu> =
            fleet.template_qpus().into_iter().filter(|t| stamp.admits(t)).collect();
        generate_plans(circuit, &templates, EstimationBackend::Analytic, &stamp.generator)
    }

    fn bits(estimates: &(Vec<f64>, Vec<f64>)) -> Vec<u64> {
        estimates.0.iter().chain(&estimates.1).map(|x| x.to_bits()).collect()
    }

    fn plan_bits(plans: &[ResourcePlan]) -> Vec<(String, String, bool, [u64; 4])> {
        plans
            .iter()
            .map(|p| {
                let floats =
                    [p.estimated_fidelity, p.quantum_time_s, p.classical_time_s, p.cost_usd];
                assert_eq!(p.stack.label(), p.stack_label);
                (
                    p.stack_label.clone(),
                    p.qpu_model.clone(),
                    p.uses_accelerator,
                    floats.map(f64::to_bits),
                )
            })
            .collect()
    }

    fn lookup_steps(
        cache: &mut EstimateCache,
        fleet: &Fleet,
        circuit: &Circuit,
        stack: &MitigationStack,
    ) -> (Vec<f64>, Vec<f64>) {
        let key = StepKey::new(circuit.content_digest(), stack);
        cache.step_estimates(key, circuit, stack, fleet, &Transpiler::default())
    }

    /// Equivalence is the contract: over seeded random circuits × every
    /// candidate stack × the default fleet, the cold lookup (miss) and the
    /// warm lookup (hit) both equal the uncached functions bit for bit.
    #[test]
    fn cached_estimates_equal_the_uncached_functions_bit_for_bit() {
        let (fleet, mut rng) = default_fleet(15);
        let stamp = stamp_of(&fleet);
        let mut cache = EstimateCache::default();
        for _ in 0..10 {
            let width = rng.gen_range(2..=18);
            let depth = rng.gen_range(2..=6);
            let mut circuit = random_circuit(width, depth, &mut rng);
            circuit.set_shots(rng.gen_range(100..8000));
            let fitting =
                fleet.members().iter().filter(|m| m.qpu.num_qubits() >= width).count() as u64;
            for stack in candidate_stacks() {
                let expected = bits(&uncached_steps(&fleet, &circuit, &stack));
                let before = cache.stats().steps;
                assert_eq!(bits(&lookup_steps(&mut cache, &fleet, &circuit, &stack)), expected);
                assert_eq!(cache.stats().steps.misses, before.misses + fitting);
                assert_eq!(bits(&lookup_steps(&mut cache, &fleet, &circuit, &stack)), expected);
                assert_eq!(cache.stats().steps.hits, before.hits + fitting);
            }
            let digest = circuit.content_digest();
            let expected = plan_bits(&uncached_plans(&fleet, &circuit, &stamp));
            for _ in 0..2 {
                assert_eq!(plan_bits(cache.plans(digest, &circuit, &stamp, &fleet)), expected);
            }
        }
        let stats = cache.stats();
        assert_eq!((stats.plans.misses, stats.plans.hits), (10, 10));
        assert_eq!(stats.steps.stale_recomputes + stats.plans.stale_recomputes, 0);
        assert_eq!(stats.steps.evictions + stats.plans.evictions, 0);
    }

    /// What the key sees: shots and exact angle bits are content, the name
    /// is not, and the whole stack counts.
    #[test]
    fn estimate_cache_key_sees_shots_and_angle_bits_but_not_the_name() {
        let (fleet, mut rng) = default_fleet(16);
        let stack = MitigationStack::listing2();
        let base = random_circuit(5, 4, &mut rng);
        let mut cache = EstimateCache::default();
        lookup_steps(&mut cache, &fleet, &base, &stack);
        let cold = cache.stats().steps;
        assert_eq!((cold.hits, cold.misses), (0, 8));

        let mut renamed = base.clone();
        renamed.set_name("same-circuit-other-name");
        lookup_steps(&mut cache, &fleet, &renamed, &stack);
        assert_eq!(cache.stats().steps.hits, 8, "a name-only difference hits");

        let mut more_shots = base.clone();
        more_shots.set_shots(base.shots() * 2);
        let estimates = lookup_steps(&mut cache, &fleet, &more_shots, &stack);
        assert_eq!(cache.stats().steps.misses, 16, "a shots-only difference misses");
        assert_eq!(bits(&estimates), bits(&uncached_steps(&fleet, &more_shots, &stack)));

        let mut nudged = base.clone();
        let angle = nudged
            .instructions_mut()
            .iter_mut()
            .find_map(|i| match &mut i.gate {
                Gate::RX(t) | Gate::RY(t) | Gate::RZ(t) => Some(t),
                _ => None,
            })
            .expect("the first layer is rotations");
        *angle = f64::from_bits(angle.to_bits() + 1);
        lookup_steps(&mut cache, &fleet, &nudged, &stack);
        assert_eq!(cache.stats().steps.misses, 24, "a 1-ulp angle change misses");

        let mut other_stack = stack.clone();
        other_stack.zne.noise_factors = vec![1.0, 3.0];
        lookup_steps(&mut cache, &fleet, &base, &other_stack);
        assert_eq!(cache.stats().steps.misses, 32, "a stack setting is part of the key");
        assert_eq!(cache.stats().steps.hits, 8);
    }

    /// A recalibration of one device recomputes exactly that device's
    /// entries — in place, to the values a fresh computation gives — and any
    /// epoch move recomputes plans.
    #[test]
    fn estimate_cache_recomputes_only_the_recalibrated_device() {
        let (mut fleet, mut rng) = default_fleet(17);
        let circuits = [ghz(5), random_circuit(6, 4, &mut rng), random_circuit(12, 3, &mut rng)];
        let stack = MitigationStack::listing2();
        let mut cache = EstimateCache::default();
        let stamp = stamp_of(&fleet);
        for c in &circuits {
            lookup_steps(&mut cache, &fleet, c, &stack);
            cache.plans(c.content_digest(), c, &stamp, &fleet);
        }
        let cold = cache.stats();
        // 5 and 6 qubits fit all eight devices, 12 qubits the seven ≥ 16.
        assert_eq!(cold.steps.misses, 8 + 8 + 7);

        // Only device 3 (a 27-qubit Falcon) has a boundary before t = 150.
        fleet.members_mut()[3].qpu.set_calibration_period(100.0, 0.0);
        fleet.sync_calibrations(150.0, &mut rng);
        let epochs: Vec<u64> = fleet.members().iter().map(|m| m.qpu.clock.epoch).collect();
        assert_eq!(epochs, [0, 0, 0, 1, 0, 0, 0, 0]);

        for c in &circuits {
            let estimates = lookup_steps(&mut cache, &fleet, c, &stack);
            assert_eq!(bits(&estimates), bits(&uncached_steps(&fleet, c, &stack)));
        }
        let warm = cache.stats().steps;
        assert_eq!(warm.stale_recomputes, 3, "one device × three circuits");
        assert_eq!(warm.hits, 7 + 7 + 6);
        assert_eq!(warm.misses, cold.steps.misses);

        let moved = stamp_of(&fleet);
        assert_ne!(moved, stamp);
        for c in &circuits {
            let plans = plan_bits(cache.plans(c.content_digest(), c, &moved, &fleet));
            assert_eq!(plans, plan_bits(&uncached_plans(&fleet, c, &moved)));
        }
        let plans = cache.stats().plans;
        assert_eq!((plans.misses, plans.stale_recomputes, plans.hits), (3, 3, 0));

        // A different deployment configuration is a different stamp too.
        let narrow = PlanStamp { min_qubits: 20, ..moved.clone() };
        let c = &circuits[0];
        let plans = plan_bits(cache.plans(c.content_digest(), c, &narrow, &fleet));
        assert_eq!(plans, plan_bits(&uncached_plans(&fleet, c, &narrow)));
        assert!(plans.iter().all(|(_, model, ..)| model == "falcon-r5.11"));
        assert_eq!(cache.stats().plans.stale_recomputes, 4);
    }

    /// Inserting past [`CAPACITY`] evicts the oldest keys: entry counts stay
    /// at the bound and every answer — for a surviving key and for an
    /// evicted one — still equals the uncached function.
    #[test]
    fn estimate_cache_is_bounded_and_stays_correct_past_capacity() {
        let mut rng = StdRng::seed_from_u64(18);
        let fleet = Fleet::scaled(1, &mut rng);
        let stamp = stamp_of(&fleet);
        let stack = MitigationStack::none();
        let circuit_of = |i: usize| {
            let mut c = Circuit::new(2);
            c.rx(i as f64 * 1e-3, 0).cx(0, 1).measure_all();
            c
        };
        let extra = 40;
        let mut cache = EstimateCache::default();
        for i in 0..CAPACITY + extra {
            let c = circuit_of(i);
            lookup_steps(&mut cache, &fleet, &c, &stack);
            cache.plans(c.content_digest(), &c, &stamp, &fleet);
        }
        assert_eq!(cache.steps.map.len(), CAPACITY);
        assert_eq!(cache.steps.order.len(), CAPACITY);
        assert!(cache.steps.map.values().all(|row| row.len() == fleet.len()));
        assert_eq!(cache.plans.map.len(), CAPACITY);
        assert_eq!(cache.plans.order.len(), CAPACITY);
        let stats = cache.stats();
        assert_eq!(stats.steps.evictions, extra as u64);
        assert_eq!(stats.plans.evictions, extra as u64);

        let (evicted, kept) = (circuit_of(0), circuit_of(CAPACITY + extra - 1));
        for c in [&evicted, &kept] {
            let estimates = lookup_steps(&mut cache, &fleet, c, &stack);
            assert_eq!(bits(&estimates), bits(&uncached_steps(&fleet, c, &stack)));
            let plans = plan_bits(cache.plans(c.content_digest(), c, &stamp, &fleet));
            assert_eq!(plans, plan_bits(&uncached_plans(&fleet, c, &stamp)));
        }
        let after = cache.stats();
        assert_eq!(after.steps.misses, stats.steps.misses + 1, "the evicted key is recomputed");
        assert_eq!(after.steps.hits, stats.steps.hits + 1, "the surviving key hits");
        assert_eq!(after.plans.misses, stats.plans.misses + 1);
        assert_eq!(after.plans.hits, stats.plans.hits + 1);
        assert_eq!(cache.steps.map.len(), CAPACITY);
    }
}
