//! Multi-tenant cloud simulation: independent tenants with their own Poisson
//! arrival streams and fairness weights submit through the non-blocking
//! submission front-end of the journaled control plane, the weighted-fair
//! admission step drains their queues into the batch engine, and the
//! trigger-gated NSGA-II + MCDM scheduler dispatches per-batch — so the
//! fairness path of the control plane is exercised end-to-end under realistic
//! load.
//!
//! The plane has [`MultiTenantConfig::num_shards`] shards, each owning its
//! own journal, batch engine, submission service and trigger, and leasing an
//! exclusive slice of the QPU fleet. Every shard registers its own copy of
//! the configured tenants; placement is steered with stream-less filler
//! registrations, since global ids are assigned sequentially and routed by
//! the pure [`qonductor_core::sharding::shard_of_global`] hash. With equal
//! tenant populations per shard, per-shard DRR fairness composes into the
//! global weighted split of the one-shard plane. One shard needs no filler.
//!
//! Under [`MultiTenantSimulation::run_with_failures`] the shared `kernel`
//! event loop kills *every* shard's leader at each scheduled crash instant,
//! fails each shard over independently from `snapshot + log replay`, and
//! records per-shard digest matches and whether the fleet allocator rebuilt
//! from the per-shard journaled lease sets without leaking or double-granting
//! a QPU.

use crate::failover::{ChaosReport, FailurePlan};
use crate::kernel::{self, RunParams, Scenario, QUORUM};
use crate::load::{MultiTenantLoadGenerator, TenantArrivalConfig};
use crate::sim::{build_submission, default_fleet, mean, AppRecord};
use qonductor_backend::Fleet;
use qonductor_core::jobmanager::{BatchRecord, CompletedExecution, JobId, TenantId};
use qonductor_core::sharding::{GlobalTicket, ShardedControlPlane};
use qonductor_core::submission::{TenantConfig, TenantStats};
use qonductor_scheduler::{Nsga2Config, Preference, TriggerReason};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// One tenant of the multi-tenant simulation: its admission configuration
/// plus an arrival stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantLoad {
    /// DRR weight, in-flight cap and re-queue budget.
    pub config: TenantConfig,
    /// The tenant's Poisson arrival stream (rate + mitigation mix).
    pub arrivals: TenantArrivalConfig,
}

/// Multi-tenant simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTenantConfig {
    /// Duration, step, per-shard trigger, scheduler and seed.
    pub run: RunParams,
    /// The competing tenants; every shard registers its own copy of each.
    pub tenants: Vec<TenantLoad>,
    /// Number of control-plane shards (default 1).
    pub num_shards: usize,
}

impl Default for MultiTenantConfig {
    fn default() -> Self {
        MultiTenantConfig {
            run: RunParams {
                duration_s: 1200.0,
                step_s: 10.0,
                trigger_queue_limit: 30,
                trigger_interval_s: 60.0,
                nsga2: Nsga2Config {
                    population_size: 24,
                    max_generations: 20,
                    max_evaluations: 2400,
                    num_threads: 2,
                    ..Nsga2Config::default()
                },
                preference: Preference::balanced(),
                seed: 2025,
            },
            tenants: vec![
                TenantLoad { config: TenantConfig::weighted(2), ..TenantLoad::default() },
                TenantLoad { config: TenantConfig::weighted(1), ..TenantLoad::default() },
            ],
            num_shards: 1,
        }
    }
}

/// Per-tenant composition of one dispatched batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchComposition {
    /// The shard that dispatched the batch (0 on a one-shard plane).
    pub shard: usize,
    /// Simulated time of the dispatch.
    pub t_s: f64,
    /// Why the shard's trigger fired.
    pub reason: TriggerReason,
    /// Jobs handed to the scheduler.
    pub num_jobs: usize,
    /// `(global tenant, job count)` pairs, ascending tenant order.
    pub tenant_jobs: Vec<(TenantId, usize)>,
    /// Shard-local engine job ids in the batch (submission order; unique
    /// only per shard).
    pub job_ids: Vec<JobId>,
}

impl BatchComposition {
    /// The composition of `batch` as dispatched by `shard` of `plane`, with
    /// the shard-local tenant ids mapped back to global ones.
    pub(crate) fn of(shard: usize, batch: &BatchRecord, plane: &ShardedControlPlane) -> Self {
        let global = |local| plane.global_of(shard, local).expect("dispatched tenants exist");
        BatchComposition {
            shard,
            t_s: batch.t_s,
            reason: batch.reason,
            num_jobs: batch.job_ids.len(),
            tenant_jobs: batch.tenant_jobs.iter().map(|&(local, n)| (global(local), n)).collect(),
            job_ids: batch.job_ids.clone(),
        }
    }
}

/// One completed application, attributed to its tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantCompletion {
    /// The tenant the application belonged to.
    pub tenant: TenantId,
    /// Application id (unique across tenants).
    pub app_id: u64,
    /// Submission time (seconds).
    pub submit_s: f64,
    /// Submission-to-start wait — tenant queue, pending pool, and QPU queue
    /// (seconds).
    pub waiting_s: f64,
    /// Submission-to-finish turnaround (seconds).
    pub turnaround_s: f64,
    /// Estimated fidelity, not a measured one: the estimate the app was
    /// scheduled with on the QPU it ran on, times a ±2 % jitter, clamped to
    /// [0, 1]. No circuit is simulated.
    pub fidelity: f64,
}

/// One tenant's end-of-run outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantOutcome {
    /// The tenant id.
    pub tenant: TenantId,
    /// Applications that arrived on the tenant's stream.
    pub arrived: u64,
    /// Arrivals too large for every QPU (never submitted).
    pub infeasible: u64,
    /// Submission-service accounting (admissions, completions, waits).
    pub stats: TenantStats,
}

/// Full multi-tenant simulation report.
#[derive(Debug, Clone, Default)]
pub struct MultiTenantReport {
    /// Every dispatched batch with its per-tenant composition.
    pub batches: Vec<BatchComposition>,
    /// Per-tenant outcomes, ascending by tenant id.
    pub tenants: Vec<TenantOutcome>,
    /// Every completed application.
    pub completed: Vec<TenantCompletion>,
}

impl MultiTenantReport {
    /// A tenant's share of all admitted batch slots, in `[0, 1]`
    /// (0 if nothing was dispatched).
    pub fn admitted_share(&self, tenant: TenantId) -> f64 {
        let total: usize = self.batches.iter().map(|b| b.num_jobs).sum();
        if total == 0 {
            return 0.0;
        }
        let own: usize = self
            .batches
            .iter()
            .flat_map(|b| &b.tenant_jobs)
            .filter(|(t, _)| *t == tenant)
            .map(|(_, n)| n)
            .sum();
        own as f64 / total as f64
    }

    /// Mean submission-to-finish turnaround of one tenant's completions
    /// (seconds; 0 with none).
    pub fn mean_turnaround_s(&self, tenant: TenantId) -> f64 {
        mean(self.completed.iter().filter(|c| c.tenant == tenant).map(|c| c.turnaround_s))
    }
}

/// The multi-tenant cloud simulation engine.
pub struct MultiTenantSimulation {
    config: MultiTenantConfig,
    fleet: Fleet,
}

impl MultiTenantSimulation {
    /// Create a simulation over an explicit fleet.
    pub fn new(config: MultiTenantConfig, fleet: Fleet) -> Self {
        MultiTenantSimulation { config, fleet }
    }

    /// Create a simulation over the default 8-QPU IBM-like fleet.
    pub fn with_default_fleet(config: MultiTenantConfig) -> Self {
        let fleet = default_fleet(config.run.seed);
        Self::new(config, fleet)
    }

    /// Run the simulation to completion and produce the report: batches
    /// are shard-attributed, tenant ids are *global*, and the per-tenant
    /// outcomes list the tenants in registration order.
    pub fn run(self) -> MultiTenantReport {
        self.run_with_failures(&FailurePlan::none()).report
    }

    /// Run the simulation under fault injection: at each instant of the
    /// plan's crash schedule every shard's leader is killed (its volatile
    /// job state dies with it), a new leader is elected, and the job state is
    /// rebuilt from the replicated `snapshot + log replay` before the
    /// simulation continues. The report records, per crash, whether the
    /// rebuilt state matched the pre-crash state byte for byte.
    pub fn run_with_failures(self, plan: &FailurePlan) -> ChaosReport<MultiTenantReport> {
        let MultiTenantConfig { run, tenants, num_shards } = self.config;
        assert!(!tenants.is_empty(), "multi-tenant simulation needs at least one tenant");
        let mut plane = run.plane(num_shards, self.fleet.len(), run.trigger());
        let active = register_copies(&mut plane, &tenants);
        let streams: Vec<TenantArrivalConfig> =
            active.iter().map(|&(_, slot)| tenants[slot].arrivals).collect();
        let scenario = TenantScenario {
            rng: StdRng::seed_from_u64(run.seed),
            load: MultiTenantLoadGenerator::new(&streams, self.fleet.max_qubits()),
            fleet: self.fleet,
            apps: HashMap::new(),
            report: MultiTenantReport {
                tenants: (active.iter())
                    .map(|&(tenant, _)| TenantOutcome {
                        tenant,
                        arrived: 0,
                        infeasible: 0,
                        stats: plane.tenant_stats(tenant).expect("tenant registered"),
                    })
                    .collect(),
                ..MultiTenantReport::default()
            },
        };
        kernel::run(scenario, plane, Some(run.scheduler()), (run.duration_s, run.step_s), plan)
    }
}

/// Register tenants until every shard of `plane` holds one copy of each of
/// `tenants`, in order, steering placement with filler registrations (global
/// ids are sequential and the router is pure, so the next id's shard is
/// known before registering). Returns the active tenants as `(global id,
/// index into tenants)` in registration order.
fn register_copies(
    plane: &mut ShardedControlPlane,
    tenants: &[TenantLoad],
) -> Vec<(TenantId, usize)> {
    let num_shards = plane.num_shards();
    let mut registered = vec![0; num_shards];
    let mut active = Vec::with_capacity(num_shards * tenants.len());
    let mut attempts = 0usize;
    while active.len() < num_shards * tenants.len() {
        attempts += 1;
        assert!(attempts < 10_000 * num_shards, "placement steering failed");
        let slot = &mut registered[plane.next_shard()];
        match tenants.get(*slot) {
            Some(load) => {
                active.push((plane.register_tenant_with(load.config).expect(QUORUM), *slot));
                *slot += 1;
            }
            // Filler: journaled like any tenant but never submits (it has
            // no stream), so it only advances the id space.
            None => {
                let filler =
                    TenantConfig { max_in_flight: 1, max_retries: 0, ..Default::default() };
                plane.register_tenant_with(filler).expect(QUORUM);
            }
        }
    }
    active
}

/// The multi-tenant scenario: stream `i` submits as global tenant
/// `report.tenants[i].tenant`, routed to its home shard.
struct TenantScenario {
    fleet: Fleet,
    /// The single stream the run consumes, in the order advance →
    /// per-completion jitter → arrivals.
    rng: StdRng,
    load: MultiTenantLoadGenerator,
    apps: HashMap<GlobalTicket, (TenantId, AppRecord)>,
    /// `tenants[i]` is stream `i`'s outcome; its `stats` are refreshed from
    /// the plane at the end.
    report: MultiTenantReport,
}

impl Scenario for TenantScenario {
    type Report = MultiTenantReport;

    fn fleet_and_drift(&mut self) -> (&mut Fleet, &mut StdRng) {
        (&mut self.fleet, &mut self.rng)
    }

    fn completed(&mut self, ticket: GlobalTicket, done: &CompletedExecution) {
        let Some((tenant, record)) = self.apps.remove(&ticket) else { return };
        let submit_s = record.app.submit_time_s;
        let jitter = 1.0 + self.rng.gen_range(-0.02..0.02);
        self.report.completed.push(TenantCompletion {
            tenant,
            app_id: record.app.app_id,
            submit_s,
            waiting_s: done.record.start_time_s - submit_s,
            turnaround_s: done.record.finish_time_s - submit_s,
            fidelity: (record.estimates[done.qpu_index].fidelity * jitter).clamp(0.0, 1.0),
        });
    }

    fn submit_arrivals(&mut self, t: f64, t_next: f64, plane: &mut ShardedControlPlane) {
        for arrival in self.load.arrivals_in(t, t_next, &mut self.rng) {
            let outcome = &mut self.report.tenants[arrival.stream];
            outcome.arrived += 1;
            let submit_time_s = arrival.app.submit_time_s;
            match build_submission(&self.fleet, arrival.app) {
                Some((spec, record)) => {
                    let ticket = plane.submit(outcome.tenant, spec, submit_time_s).expect(QUORUM);
                    self.apps.insert(ticket, (outcome.tenant, record));
                }
                None => outcome.infeasible += 1,
            }
        }
    }

    fn rejected(&mut self, ticket: GlobalTicket, _plane: &ShardedControlPlane) {
        self.apps.remove(&ticket);
    }

    fn dispatched(&mut self, shard: usize, batch: &BatchRecord, plane: &ShardedControlPlane) {
        self.report.batches.push(BatchComposition::of(shard, batch, plane));
    }

    fn finish(mut self, plane: &ShardedControlPlane) -> MultiTenantReport {
        for outcome in &mut self.report.tenants {
            outcome.stats = plane.tenant_stats(outcome.tenant).expect("tenant registered");
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::ArrivalConfig;

    fn saturating_tenant(weight: u32) -> TenantLoad {
        TenantLoad {
            // In-flight caps are lifted so admission fairness is the only
            // throttle.
            config: TenantConfig { weight, max_in_flight: 1_000_000, max_retries: 1 },
            arrivals: TenantArrivalConfig {
                arrival: ArrivalConfig {
                    mean_rate_per_hour: 9000.0,
                    diurnal_amplitude: 0.0,
                    ..Default::default()
                },
                mitigation_fraction: 0.3,
            },
        }
    }

    fn saturating_config() -> MultiTenantConfig {
        MultiTenantConfig {
            run: RunParams {
                duration_s: 400.0,
                step_s: 10.0,
                trigger_queue_limit: 18,
                trigger_interval_s: 45.0,
                nsga2: Nsga2Config {
                    population_size: 16,
                    max_generations: 10,
                    max_evaluations: 1000,
                    num_threads: 2,
                    ..Nsga2Config::default()
                },
                preference: Preference::balanced(),
                seed: 42,
            },
            // Each stream alone (2.5 jobs/s) exceeds the ~1.8 jobs/s dispatch
            // capacity (18-job batches, one per 10 s step), so both tenant
            // queues stay saturated and the DRR weights bind.
            tenants: vec![saturating_tenant(2), saturating_tenant(1)],
            num_shards: 1,
        }
    }

    #[test]
    fn weighted_tenants_share_batches_by_weight() {
        let report = MultiTenantSimulation::with_default_fleet(saturating_config()).run();
        assert!(!report.batches.is_empty(), "batches must dispatch");
        assert!(!report.completed.is_empty(), "applications must complete");
        // Equal saturating arrival rates, weights 2:1: the heavy tenant's
        // aggregate admitted share tracks 2/3.
        let share = report.admitted_share(report.tenants[0].tenant);
        assert!((share - 2.0 / 3.0).abs() <= 0.1, "heavy-tenant share {share}");
        // No tenant loses tickets: queued + in flight + completed + rejected
        // accounts for every submission.
        for outcome in &report.tenants {
            let s = outcome.stats;
            assert_eq!(
                s.queued as u64 + s.in_flight as u64 + s.completed + s.rejected,
                s.submitted,
                "tenant {} conserves tickets",
                outcome.tenant
            );
            assert!(s.completed > 0, "tenant {} completes work", outcome.tenant);
        }
        // Batches never exceed the queue-size trigger limit.
        assert!(report.batches.iter().all(|b| b.num_jobs <= 18));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = MultiTenantSimulation::with_default_fleet(saturating_config()).run();
        let b = MultiTenantSimulation::with_default_fleet(saturating_config()).run();
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.completed.len(), b.completed.len());
    }

    /// For k = 1..=3 tenants over 1..=4 shards: every shard holds exactly one
    /// copy of each tenant, registered in the configured order, with the
    /// configured admission settings; one shard registers no filler (its
    /// global ids are `0..k`).
    #[test]
    fn every_shard_gets_one_copy_of_each_tenant() {
        let run = saturating_config().run;
        for k in 1..=3u32 {
            let tenants: Vec<TenantLoad> = (1..=k).map(saturating_tenant).collect();
            for num_shards in 1..=4 {
                let mut plane = run.plane(num_shards, 8, run.trigger());
                let active = register_copies(&mut plane, &tenants);
                assert_eq!(active.len(), num_shards * tenants.len());
                let mut next_slot = vec![0; num_shards];
                for &(global, slot) in &active {
                    let (shard, _) = plane.placement_of(global).expect("registered");
                    assert_eq!(slot, next_slot[shard], "shard {shard} registers in order");
                    next_slot[shard] += 1;
                    let stats = plane.tenant_stats(global).expect("registered");
                    assert_eq!(stats.weight, tenants[slot].config.weight);
                }
                assert!(next_slot.iter().all(|&n| n == tenants.len()), "{next_slot:?}");
                if num_shards == 1 {
                    let ids: Vec<TenantId> = active.iter().map(|&(id, _)| id).collect();
                    assert_eq!(ids, (0..k).collect::<Vec<_>>(), "one shard registers no filler");
                    assert!(plane.placement_of(k).is_none());
                }
            }
        }
    }

    #[test]
    fn sharded_run_dispatches_on_every_shard_and_is_deterministic() {
        let mut cfg = MultiTenantConfig { num_shards: 2, ..saturating_config() };
        cfg.run.duration_s = 200.0;
        let no_crashes = FailurePlan::none();
        let a =
            MultiTenantSimulation::with_default_fleet(cfg.clone()).run_with_failures(&no_crashes);
        let b =
            MultiTenantSimulation::with_default_fleet(cfg.clone()).run_with_failures(&no_crashes);
        let batches = &a.report.batches;
        assert!(!batches.is_empty());
        for shard in 0..cfg.num_shards {
            assert!(batches.iter().any(|batch| batch.shard == shard), "shard {shard} idle");
        }
        assert_eq!(batches, &b.report.batches);
        assert_eq!(a.report.completed.len(), b.report.completed.len());
        assert_eq!(a.final_states, b.final_states);
    }
}
