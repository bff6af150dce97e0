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
//!
//! Lookups come in batches (a wave's plans, a submission round's steps; a
//! single lookup is a batch of one) and a batch runs in three phases:
//! **classify** every request serially, in request order — hit, miss or
//! stale, counted and evicted exactly as if the requests had been issued one
//! by one, a repeat inside the batch hitting the entry its first occurrence
//! reserved; **compute** what is missing — independent pure functions whose
//! costs span two orders of magnitude — on the host's cores
//! ([`map_indexed`]); **store** the results by index. Outputs, cache
//! contents and [`EstimateCacheStats`] therefore do not depend on the worker
//! count. A step's work items are one per (request, device) in request
//! order, and a worker claims them in increasing order, so the compute phase
//! ([`map_indexed_with`]) keeps each worker's last translation and transpiles
//! it for each of the request's devices that share its basis: a worker
//! translates a request once on the default fleet, and a translated circuit
//! transpiles exactly as the circuit does. Plan generation translates once
//! per basis across its templates.

use qonductor_backend::{Fleet, Qpu, TemplateQpu};
use qonductor_circuit::par::{host_cores, map_indexed, map_indexed_with};
use qonductor_circuit::Circuit;
use qonductor_estimator::{
    analytic_estimate, generate_plans, AnalyticEstimate, EstimationBackend, PlanGeneratorConfig,
    ResourcePlan,
};
use qonductor_mitigation::MitigationStack;
use qonductor_transpiler::{translate, BasisSet, Transpiler};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

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

/// One step-estimate lookup. `key` must be the [`StepKey`] of `circuit` and
/// `stack`.
pub(crate) struct StepRequest<'a> {
    pub(crate) key: StepKey,
    pub(crate) circuit: &'a Circuit,
    pub(crate) stack: &'a MitigationStack,
}

/// One plan lookup. `digest` must be `circuit.content_digest()` and `stamp`
/// must describe the fleet the lookup runs against.
pub(crate) struct PlanRequest<'a> {
    pub(crate) digest: u128,
    pub(crate) circuit: &'a Circuit,
    pub(crate) stamp: &'a PlanStamp,
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

    /// The template QPUs of `fleet` that plans under this stamp range over.
    fn templates(&self, fleet: &Fleet) -> Vec<TemplateQpu> {
        fleet.template_qpus().into_iter().filter(|t| self.admits(t)).collect()
    }
}

/// A stored value, or — between a batch's classify and store phases — the
/// number of the work item of that batch that will produce it.
#[derive(Debug, Clone, Copy)]
enum Cached<T> {
    Ready(T),
    InFlight(usize),
}

impl<T: Default> Default for Cached<T> {
    fn default() -> Self {
        Cached::Ready(T::default())
    }
}

/// One device's estimate of a step, with the stamp it was computed under.
#[derive(Debug)]
struct DeviceEstimate {
    device: String,
    epoch: u64,
    estimate: Cached<AnalyticEstimate>,
}

/// One circuit's plans, with the stamp they were computed under (`None`
/// only between the entry's creation and its first fill).
#[derive(Debug, Default)]
struct PlanEntry {
    stamp: Option<PlanStamp>,
    plans: Cached<Arc<[ResourcePlan]>>,
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
/// current calibration: transpile, cost the stack, estimate. `circuit` may
/// be the step's circuit or its translation into the device's basis: both
/// transpile to the same outputs.
fn device_estimate(
    transpiler: &Transpiler,
    circuit: &Circuit,
    qpu: &Qpu,
    stack: &MitigationStack,
) -> AnalyticEstimate {
    let noise = qpu.noise_model();
    let transpiled = transpiler.transpile(circuit, &qpu.model, &noise);
    analytic_estimate(&transpiled, &stack.cost(&transpiled.circuit, &noise))
}

/// The orchestrator's estimate memo (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct EstimateCache {
    /// Per key, one slot per fleet member (by fleet index).
    steps: Bounded<StepKey, Vec<Option<DeviceEstimate>>>,
    plans: Bounded<u128, PlanEntry>,
    /// The template QPUs the last plan computation ran over, and its stamp.
    templates: Option<(PlanStamp, Vec<TemplateQpu>)>,
    stats: EstimateCacheStats,
}

impl EstimateCache {
    pub(crate) fn stats(&self) -> EstimateCacheStats {
        self.stats
    }

    /// Per-QPU fidelity and execution-time estimates for each requested
    /// circuit under its mitigation stack (transpilation + ESP + mitigation
    /// uplift), indexed like [`Fleet::members`]. QPUs that cannot fit the
    /// circuit get the engine's "cannot run here" marker — zero fidelity and
    /// an infinite execution time (the engine sanitizes this to a finite
    /// penalty for the optimizer and refuses it in direct dispatch; cloudsim
    /// uses the same representation).
    pub(crate) fn step_estimates(
        &mut self,
        requests: &[StepRequest<'_>],
        fleet: &Fleet,
        transpiler: &Transpiler,
    ) -> Vec<(Vec<f64>, Vec<f64>)> {
        self.step_estimates_on(host_cores(), requests, fleet, transpiler)
    }

    /// [`Self::step_estimates`] with at most `workers` threads in the
    /// compute phase.
    fn step_estimates_on(
        &mut self,
        workers: usize,
        requests: &[StepRequest<'_>],
        fleet: &Fleet,
        transpiler: &Transpiler,
    ) -> Vec<(Vec<f64>, Vec<f64>)> {
        // Classify. `work` lists the (request, device) pairs to compute and
        // `awaited` the output cells that read a work item's result.
        let stats = &mut self.stats.steps;
        let mut work: Vec<(usize, usize)> = Vec::new();
        let mut awaited: Vec<(usize, usize, usize)> = Vec::new();
        let mut outputs = Vec::with_capacity(requests.len());
        for (r, request) in requests.iter().enumerate() {
            let (row, evicted) = self.steps.slot(request.key);
            stats.evictions += evicted.map_or(0, |row| row.iter().flatten().count() as u64);
            row.resize_with(fleet.len(), || None);
            let mut fidelity_per_qpu = Vec::with_capacity(fleet.len());
            let mut exec_time_per_qpu = Vec::with_capacity(fleet.len());
            for (d, (slot, member)) in row.iter_mut().zip(fleet.members()).enumerate() {
                let qpu = &member.qpu;
                if qpu.num_qubits() < request.circuit.num_qubits() {
                    fidelity_per_qpu.push(0.0);
                    exec_time_per_qpu.push(f64::INFINITY);
                    continue;
                }
                let cached = match slot {
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
                        let estimate = Cached::InFlight(work.len());
                        work.push((r, d));
                        *slot = Some(DeviceEstimate {
                            device: qpu.name.clone(),
                            epoch: qpu.clock.epoch,
                            estimate,
                        });
                        estimate
                    }
                };
                let estimate = match cached {
                    Cached::Ready(estimate) => estimate,
                    Cached::InFlight(w) => {
                        awaited.push((r, d, w));
                        AnalyticEstimate { fidelity: f64::NAN, quantum_time_s: f64::NAN }
                    }
                };
                fidelity_per_qpu.push(estimate.fidelity);
                exec_time_per_qpu.push(estimate.quantum_time_s);
            }
            outputs.push((fidelity_per_qpu, exec_time_per_qpu));
        }

        // Compute. A panic must not leave reservations behind: the lock
        // around the orchestrator state does not poison. Work items run
        // request by request and a member claims them in increasing order,
        // so `last` (its last translation, with the request and the basis)
        // serves the request's next devices: a member translates a request
        // again only where the basis changes from one device to the next
        // (never on the default fleet, whose devices share one basis).
        let computed = catch_unwind(AssertUnwindSafe(|| {
            map_indexed_with(
                workers,
                work.len(),
                || None,
                |last: &mut Option<(usize, BasisSet, Circuit)>, w| {
                    let (r, d) = work[w];
                    let request = &requests[r];
                    let qpu = &fleet.members()[d].qpu;
                    let basis = BasisSet::from_gate_names(&qpu.model.basis_gates);
                    let translated = match last {
                        Some((lr, lb, translated)) if *lr == r && *lb == basis => translated,
                        _ => &last.insert((r, basis, translate(request.circuit, basis))).2,
                    };
                    device_estimate(transpiler, translated, qpu, request.stack)
                },
            )
        }));

        // Store, unless a later request of the batch evicted the reservation.
        for (w, &(r, d)) in work.iter().enumerate() {
            let Some(slot) = self.steps.map.get_mut(&requests[r].key).map(|row| &mut row[d]) else {
                continue;
            };
            let reserved = |e: &DeviceEstimate| matches!(e.estimate, Cached::InFlight(x) if x == w);
            if slot.as_ref().is_some_and(reserved) {
                let filled = computed.as_ref().ok().map(|estimates| Cached::Ready(estimates[w]));
                *slot =
                    slot.take().zip(filled).map(|(e, estimate)| DeviceEstimate { estimate, ..e });
            }
        }
        let estimates = computed.unwrap_or_else(|panic| resume_unwind(panic));
        for (r, d, w) in awaited {
            outputs[r].0[d] = estimates[w].fidelity;
            outputs[r].1[d] = estimates[w].quantum_time_s;
        }
        outputs
    }

    /// The resource plans of each requested circuit (fidelity/runtime/cost
    /// tradeoffs over the template QPUs its stamp admits and the candidate
    /// mitigation stacks).
    pub(crate) fn plans(
        &mut self,
        requests: &[PlanRequest<'_>],
        fleet: &Fleet,
    ) -> Vec<Arc<[ResourcePlan]>> {
        self.plans_on(host_cores(), requests, fleet)
    }

    /// [`Self::plans`] with at most `workers` threads in the compute phase.
    fn plans_on(
        &mut self,
        workers: usize,
        requests: &[PlanRequest<'_>],
        fleet: &Fleet,
    ) -> Vec<Arc<[ResourcePlan]>> {
        // Classify. `work` lists (request, index into `template_sets`).
        let stats = &mut self.stats.plans;
        let mut template_sets: Vec<(PlanStamp, Vec<TemplateQpu>)> = Vec::new();
        let mut work: Vec<(usize, usize)> = Vec::new();
        let mut outputs: Vec<Cached<Arc<[ResourcePlan]>>> = Vec::with_capacity(requests.len());
        for (r, request) in requests.iter().enumerate() {
            let (entry, evicted) = self.plans.slot(request.digest);
            stats.evictions += u64::from(evicted.is_some());
            if entry.stamp.as_ref() == Some(request.stamp) {
                stats.hits += 1;
            } else {
                if entry.stamp.is_some() {
                    stats.stale_recomputes += 1;
                } else {
                    stats.misses += 1;
                }
                if template_sets.is_empty() {
                    template_sets.extend(self.templates.take());
                }
                let set = template_sets
                    .iter()
                    .position(|(stamp, _)| stamp == request.stamp)
                    .unwrap_or_else(|| {
                        template_sets.push((request.stamp.clone(), request.stamp.templates(fleet)));
                        template_sets.len() - 1
                    });
                entry.plans = Cached::InFlight(work.len());
                entry.stamp = Some(request.stamp.clone());
                work.push((r, set));
            }
            outputs.push(entry.plans.clone());
        }

        // Compute (see `step_estimates_on` for the panic handling).
        let computed = catch_unwind(AssertUnwindSafe(|| {
            map_indexed(workers, work.len(), |w| {
                let (r, set) = work[w];
                let (stamp, templates) = &template_sets[set];
                generate_plans(
                    requests[r].circuit,
                    templates,
                    EstimationBackend::Analytic,
                    &stamp.generator,
                )
            })
        }));
        let computed: Result<Vec<Arc<[ResourcePlan]>>, _> =
            computed.map(|plans| plans.into_iter().map(Arc::from).collect());

        // Store, unless a later request of the batch evicted the reservation.
        for (w, &(r, _)) in work.iter().enumerate() {
            let digest = requests[r].digest;
            let Some(entry) = self.plans.map.get_mut(&digest) else { continue };
            if matches!(entry.plans, Cached::InFlight(x) if x == w) {
                match &computed {
                    Ok(plans) => entry.plans = Cached::Ready(plans[w].clone()),
                    Err(_) => *entry = PlanEntry::default(),
                }
            }
        }
        if let Some(&(_, last)) = work.last() {
            self.templates = Some(template_sets.swap_remove(last));
        }
        let plans = computed.unwrap_or_else(|panic| resume_unwind(panic));
        outputs
            .into_iter()
            .map(|output| match output {
                Cached::Ready(plans) => plans,
                Cached::InFlight(w) => plans[w].clone(),
            })
            .collect()
    }

    /// Forget every entry (not the counters): the next lookups take the miss
    /// path, which is what the equivalence tests compare a warm cache against.
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.steps = Bounded::default();
        self.plans = Bounded::default();
        self.templates = None;
    }
}

/// A fleet whose first device cannot route a four-qubit circuit (its
/// coupling map is two disconnected pairs), next to a healthy one.
#[cfg(test)]
pub(crate) fn fleet_with_an_unroutable_device(rng: &mut rand::rngs::StdRng) -> Fleet {
    use qonductor_backend::{CouplingMap, FleetMember, JobQueue, QpuModel};
    let model = QpuModel {
        name: "split".into(),
        coupling_map: CouplingMap::new(4, [(0, 1), (2, 3)]),
        ..QpuModel::falcon_7()
    };
    let member = |qpu| FleetMember { qpu, queue: JobQueue::new() };
    Fleet::from_members(vec![
        member(Qpu::new("split", model, 1.0, rng)),
        member(Qpu::new("lagos", QpuModel::falcon_7(), 1.0, rng)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Fnv64;
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
        let templates = stamp.templates(fleet);
        generate_plans(circuit, &templates, EstimationBackend::Analytic, &stamp.generator)
    }

    fn bits(estimates: &(Vec<f64>, Vec<f64>)) -> Vec<u64> {
        estimates.0.iter().chain(&estimates.1).map(|x| x.to_bits()).collect()
    }

    /// A plan's labels, model and accelerator flag, and the bits of its floats.
    type PlanBits = (String, String, bool, [u64; 4]);

    fn plan_bits(plans: &[ResourcePlan]) -> Vec<PlanBits> {
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
        let request = StepRequest { key, circuit, stack };
        cache.step_estimates(&[request], fleet, &Transpiler::default()).pop().unwrap()
    }

    fn lookup_plans(
        cache: &mut EstimateCache,
        fleet: &Fleet,
        circuit: &Circuit,
        stamp: &PlanStamp,
    ) -> Arc<[ResourcePlan]> {
        let request = PlanRequest { digest: circuit.content_digest(), circuit, stamp };
        cache.plans(&[request], fleet).pop().unwrap()
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
            let expected = plan_bits(&uncached_plans(&fleet, &circuit, &stamp));
            for _ in 0..2 {
                let plans = lookup_plans(&mut cache, &fleet, &circuit, &stamp);
                assert_eq!(plan_bits(&plans), expected);
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
            lookup_plans(&mut cache, &fleet, c, &stamp);
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
            let plans = plan_bits(&lookup_plans(&mut cache, &fleet, c, &moved));
            assert_eq!(plans, plan_bits(&uncached_plans(&fleet, c, &moved)));
        }
        let plans = cache.stats().plans;
        assert_eq!((plans.misses, plans.stale_recomputes, plans.hits), (3, 3, 0));

        // A different deployment configuration is a different stamp too.
        let narrow = PlanStamp { min_qubits: 20, ..moved.clone() };
        let c = &circuits[0];
        let plans = plan_bits(&lookup_plans(&mut cache, &fleet, c, &narrow));
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
            lookup_plans(&mut cache, &fleet, &c, &stamp);
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
            let plans = plan_bits(&lookup_plans(&mut cache, &fleet, c, &stamp));
            assert_eq!(plans, plan_bits(&uncached_plans(&fleet, c, &stamp)));
        }
        let after = cache.stats();
        assert_eq!(after.steps.misses, stats.steps.misses + 1, "the evicted key is recomputed");
        assert_eq!(after.steps.hits, stats.steps.hits + 1, "the surviving key hits");
        assert_eq!(after.plans.misses, stats.plans.misses + 1);
        assert_eq!(after.plans.hits, stats.plans.hits + 1);
        assert_eq!(cache.steps.map.len(), CAPACITY);
    }

    /// The estimates themselves did not move when the layers under them were
    /// rewritten (shared topology, dense edge lookup, one-walk ESP, one base
    /// ESP per template): a digest of every step estimate and plan of the
    /// fixture above, recorded with the per-call BFS, map lookup and
    /// three-walk ESP in place.
    #[test]
    fn estimates_equal_the_values_recorded_before_the_layer_rewrite() {
        let (fleet, mut rng) = default_fleet(15);
        let stamp = stamp_of(&fleet);
        let mut digest = Fnv64::new();
        for _ in 0..10 {
            let width = rng.gen_range(2..=18);
            let depth = rng.gen_range(2..=6);
            let mut circuit = random_circuit(width, depth, &mut rng);
            circuit.set_shots(rng.gen_range(100..8000));
            for stack in candidate_stacks() {
                for word in bits(&uncached_steps(&fleet, &circuit, &stack)) {
                    digest.absorb(&word.to_le_bytes());
                }
            }
            for (label, model, accelerated, floats) in
                plan_bits(&uncached_plans(&fleet, &circuit, &stamp))
            {
                digest.absorb(label.as_bytes());
                digest.absorb(model.as_bytes());
                digest.absorb(&[u8::from(accelerated)]);
                for word in floats {
                    digest.absorb(&word.to_le_bytes());
                }
            }
        }
        assert_eq!(digest.value(), 0xb3a6_78d7_e8a7_20ee);
    }

    /// A wave of step and plan requests with repeats inside it: circuits 0
    /// and 1 come back later in the wave, once under another name and once
    /// under another stack.
    struct Wave {
        circuits: Vec<Circuit>,
        stacks: Vec<MitigationStack>,
        stamp: PlanStamp,
    }

    impl Wave {
        fn new(fleet: &Fleet, rng: &mut StdRng) -> Self {
            let distinct: Vec<Circuit> = (0..6)
                .map(|_| random_circuit(rng.gen_range(2..=14), rng.gen_range(2..=5), rng))
                .collect();
            let mut renamed = distinct[0].clone();
            renamed.set_name("circuit-0-again");
            let order = [0, 1, 2, 0, 3, 1, 4, 5];
            let mut circuits: Vec<Circuit> = order.iter().map(|&i| distinct[i].clone()).collect();
            circuits.push(renamed);
            let mut stacks = vec![MitigationStack::listing2(); circuits.len()];
            stacks[5] = MitigationStack::none();
            Wave { circuits, stacks, stamp: stamp_of(fleet) }
        }

        fn step_requests(&self) -> Vec<StepRequest<'_>> {
            self.circuits
                .iter()
                .zip(&self.stacks)
                .map(|(circuit, stack)| StepRequest {
                    key: StepKey::new(circuit.content_digest(), stack),
                    circuit,
                    stack,
                })
                .collect()
        }

        fn plan_requests(&self) -> Vec<PlanRequest<'_>> {
            self.circuits
                .iter()
                .map(|circuit| PlanRequest {
                    digest: circuit.content_digest(),
                    circuit,
                    stamp: &self.stamp,
                })
                .collect()
        }

        /// The wave through `cache` as batches computed by `workers` threads,
        /// or one request at a time if `workers` is `None`.
        fn lookup(
            &self,
            cache: &mut EstimateCache,
            fleet: &Fleet,
            workers: Option<usize>,
        ) -> (Vec<Vec<u64>>, Vec<Vec<PlanBits>>) {
            let (steps, plans) = (self.step_requests(), self.plan_requests());
            let transpiler = Transpiler::default();
            let (steps, plans) = match workers {
                Some(n) => (
                    cache.step_estimates_on(n, &steps, fleet, &transpiler),
                    cache.plans_on(n, &plans, fleet),
                ),
                None => (
                    steps
                        .chunks(1)
                        .flat_map(|one| cache.step_estimates(one, fleet, &transpiler))
                        .collect(),
                    plans.chunks(1).flat_map(|one| cache.plans(one, fleet)).collect(),
                ),
            };
            (steps.iter().map(bits).collect(), plans.iter().map(|p| plan_bits(p)).collect())
        }
    }

    /// No reservation outlives its batch.
    fn assert_nothing_in_flight(cache: &EstimateCache) {
        let mut estimates = cache.steps.map.values().flatten().flatten();
        assert!(estimates.all(|e| matches!(e.estimate, Cached::Ready(_))));
        assert!(cache.plans.map.values().all(|e| matches!(e.plans, Cached::Ready(_))));
    }

    /// A batch is the same requests issued one by one — outputs bit for bit
    /// and the accounting — whatever the worker count, with repeated keys
    /// inside the batch, and again after one device recalibrated (only that
    /// device's estimates are recomputed).
    #[test]
    fn a_batch_equals_its_requests_one_by_one_for_every_worker_count() {
        let (mut fleet, mut rng) = default_fleet(19);
        let mut wave = Wave::new(&fleet, &mut rng);
        let mut caches: Vec<(Option<usize>, EstimateCache)> =
            [None, Some(1), Some(2), Some(5)].map(|w| (w, EstimateCache::default())).into();

        let cold: Vec<_> = caches.iter_mut().map(|(w, c)| wave.lookup(c, &fleet, *w)).collect();
        for (circuit, (stack, expected)) in
            wave.circuits.iter().zip(wave.stacks.iter().zip(&cold[0].0))
        {
            assert_eq!(expected, &bits(&uncached_steps(&fleet, circuit, stack)));
        }
        let one_by_one = caches[0].1.stats();
        // Three of the nine requests repeat an earlier key of the wave.
        let fitting = |c: &Circuit| {
            fleet.members().iter().filter(|m| m.qpu.num_qubits() >= c.num_qubits()).count() as u64
        };
        assert_eq!(one_by_one.steps.hits, fitting(&wave.circuits[3]) + fitting(&wave.circuits[8]));
        assert_eq!((one_by_one.plans.misses, one_by_one.plans.hits), (6, 3));
        for ((workers, cache), outputs) in caches.iter().zip(&cold) {
            assert_eq!(outputs, &cold[0], "{workers:?} workers");
            assert_eq!(cache.stats(), one_by_one, "{workers:?} workers");
            assert_nothing_in_flight(cache);
        }

        // Only device 3 (a 27-qubit Falcon) has a boundary before t = 150.
        fleet.members_mut()[3].qpu.set_calibration_period(100.0, 0.0);
        fleet.sync_calibrations(150.0, &mut rng);
        wave.stamp = stamp_of(&fleet);
        let warm: Vec<_> = caches.iter_mut().map(|(w, c)| wave.lookup(c, &fleet, *w)).collect();
        assert_ne!(warm[0], cold[0]);
        let one_by_one = caches[0].1.stats();
        // One stale device for each of the seven distinct step keys (six
        // circuits, one of them under two stacks); every plan is stale once.
        assert_eq!(one_by_one.steps.stale_recomputes, 7);
        assert_eq!((one_by_one.plans.stale_recomputes, one_by_one.plans.hits), (6, 6));
        for ((workers, cache), outputs) in caches.iter().zip(&warm) {
            assert_eq!(outputs, &warm[0], "{workers:?} workers");
            assert_eq!(cache.stats(), one_by_one, "{workers:?} workers");
            assert_nothing_in_flight(cache);
        }
    }

    /// A batch larger than [`CAPACITY`] evicts its own early reservations:
    /// every output is still delivered, a key that comes back after its
    /// eviction is computed again, and contents and accounting end up where
    /// one-by-one lookups leave them.
    #[test]
    fn a_batch_larger_than_the_capacity_equals_one_by_one_lookups() {
        let mut rng = StdRng::seed_from_u64(20);
        let fleet = Fleet::scaled(1, &mut rng);
        let stamp = stamp_of(&fleet);
        let stack = MitigationStack::none();
        let mut circuits: Vec<Circuit> = (0..CAPACITY + 40)
            .map(|i| {
                let mut c = Circuit::new(2);
                c.rx(i as f64 * 1e-3, 0).cx(0, 1).measure_all();
                c
            })
            .collect();
        // Key 7 repeats while it is still reserved, key 3 after its eviction.
        circuits.insert(20, circuits[7].clone());
        circuits.push(circuits[3].clone());
        let steps: Vec<StepRequest<'_>> = circuits
            .iter()
            .map(|circuit| StepRequest {
                key: StepKey::new(circuit.content_digest(), &stack),
                circuit,
                stack: &stack,
            })
            .collect();
        let plans: Vec<PlanRequest<'_>> = circuits
            .iter()
            .map(|circuit| PlanRequest { digest: circuit.content_digest(), circuit, stamp: &stamp })
            .collect();
        let transpiler = Transpiler::default();

        let mut one_by_one = EstimateCache::default();
        let expected_steps: Vec<_> = steps
            .chunks(1)
            .flat_map(|one| one_by_one.step_estimates(one, &fleet, &transpiler))
            .collect();
        let expected_plans: Vec<_> =
            plans.chunks(1).flat_map(|one| one_by_one.plans(one, &fleet)).collect();
        let mut batched = EstimateCache::default();
        let batched_steps = batched.step_estimates_on(2, &steps, &fleet, &transpiler);
        let batched_plans = batched.plans_on(2, &plans, &fleet);

        assert_eq!(batched_steps.len(), circuits.len());
        for (got, expected) in batched_steps.iter().zip(&expected_steps) {
            assert_eq!(bits(got), bits(expected));
        }
        for (got, expected) in batched_plans.iter().zip(&expected_plans) {
            assert_eq!(plan_bits(got), plan_bits(expected));
        }
        let stats = batched.stats();
        assert_eq!(stats, one_by_one.stats());
        assert_eq!((stats.steps.hits, stats.steps.misses), (1, CAPACITY as u64 + 41));
        assert_eq!((stats.steps.evictions, stats.plans.evictions), (41, 41));
        assert_eq!(batched.steps.order, one_by_one.steps.order);
        assert_eq!(batched.plans.order, one_by_one.plans.order);
        assert_eq!(batched.steps.map.len(), CAPACITY);
        assert_nothing_in_flight(&batched);
    }

    /// A work item that panics surfaces as that panic on the caller, from
    /// the caller's own share of the work or from a helper thread, and leaves
    /// no reservation behind: the next lookups compute what was never stored.
    #[test]
    fn a_panicking_work_item_panics_the_caller_and_leaves_no_reservation() {
        let mut rng = StdRng::seed_from_u64(21);
        let fleet = fleet_with_an_unroutable_device(&mut rng);
        let stamp = stamp_of(&fleet);
        let stack = MitigationStack::none();
        let circuits = [ghz(2), ghz(4), ghz(3)];
        let steps: Vec<StepRequest<'_>> = circuits
            .iter()
            .map(|circuit| StepRequest {
                key: StepKey::new(circuit.content_digest(), &stack),
                circuit,
                stack: &stack,
            })
            .collect();
        let plans: Vec<PlanRequest<'_>> = circuits
            .iter()
            .map(|circuit| PlanRequest { digest: circuit.content_digest(), circuit, stamp: &stamp })
            .collect();
        let transpiler = Transpiler::default();
        let message = |panic: Box<dyn std::any::Any + Send>| {
            panic.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        for workers in [1, 2, 5] {
            let mut cache = EstimateCache::default();
            let panic = catch_unwind(AssertUnwindSafe(|| {
                cache.step_estimates_on(workers, &steps, &fleet, &transpiler)
            }))
            .expect_err("the split device cannot route ghz(4)");
            assert!(message(panic).contains("no path from"), "{workers} workers");
            let panic = catch_unwind(AssertUnwindSafe(|| cache.plans_on(workers, &plans, &fleet)))
                .expect_err("nor can its template");
            assert!(message(panic).contains("no path from"), "{workers} workers");
            assert_nothing_in_flight(&cache);
            let reserved = cache.stats();
            assert_eq!((reserved.steps.misses, reserved.plans.misses), (6, 3));

            let estimates = lookup_steps(&mut cache, &fleet, &circuits[0], &stack);
            assert_eq!(bits(&estimates), bits(&uncached_steps(&fleet, &circuits[0], &stack)));
            let plans = lookup_plans(&mut cache, &fleet, &circuits[0], &stamp);
            assert_eq!(plan_bits(&plans), plan_bits(&uncached_plans(&fleet, &circuits[0], &stamp)));
            let after = cache.stats();
            assert_eq!(after.steps.misses, reserved.steps.misses + 2, "nothing was stored");
            assert_eq!(after.plans.misses, reserved.plans.misses + 1);
            assert_eq!(after.steps.hits + after.plans.hits, 0);
        }
    }
}
