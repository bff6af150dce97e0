//! Sharded multi-tenant cloud simulation: the multi-tenant scenario
//! ([`crate::multitenant`]) over a [`ShardedControlPlane`] of N shards, each
//! owning its own journal, batch engine, submission service, and trigger, and
//! leasing an exclusive slice of the QPU fleet. The scenario registers one
//! *heavy* (weight 2) and one *light* (weight 1) saturating tenant per shard —
//! steering placement with stream-less filler registrations, since global ids
//! are assigned sequentially and routed by the pure
//! [`qonductor_core::sharding::shard_of_global`] hash — so per-shard DRR
//! fairness composes into the global 2:1 batch-share split the unsharded
//! plane exhibits.
//!
//! [`ShardedSimulation::run_with_failures`] additionally kills *every*
//! shard's leader at each scheduled crash instant and fails each shard over
//! independently; the [`ChaosReport`] records per-shard digest matches and
//! whether the fleet allocator rebuilt from the per-shard journaled lease
//! sets without leaking or double-granting a QPU. Either way the report is
//! the [`MultiTenantReport`]: the sharded scenario *is* the multi-tenant one
//! plus a shard count and its steering registration.

use crate::failover::{ChaosReport, FailurePlan};
use crate::kernel::RunParams;
use crate::load::{ArrivalConfig, TenantArrivalConfig};
use crate::multitenant::{register_tenant, MultiTenantReport, TenantLoad, TenantScenario};
use crate::sim::default_fleet;
use qonductor_backend::Fleet;
use qonductor_core::jobmanager::TenantId;
use qonductor_core::sharding::ShardedControlPlane;
use qonductor_scheduler::{Nsga2Config, Preference};

/// Sharded simulation configuration: the multi-tenant scenario with one
/// heavy and one light saturating tenant per shard, identical streams, over
/// the shared fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedSimConfig {
    /// Duration, step, per-shard trigger, scheduler and seed.
    pub run: RunParams,
    /// Number of control-plane shards.
    pub num_shards: usize,
    /// DRR weight of each shard's heavy tenant.
    pub heavy_weight: u32,
    /// DRR weight of each shard's light tenant.
    pub light_weight: u32,
    /// Poisson arrival rate of every active tenant (jobs/hour).
    pub rate_per_hour: f64,
    /// In-flight cap of the active tenants (lifted high so the DRR weights
    /// are the only throttle).
    pub max_in_flight: usize,
    /// Re-queue budget for scheduler-rejected jobs.
    pub max_retries: u32,
}

impl Default for ShardedSimConfig {
    fn default() -> Self {
        ShardedSimConfig {
            run: RunParams {
                duration_s: 300.0,
                step_s: 10.0,
                trigger_queue_limit: 12,
                trigger_interval_s: 45.0,
                nsga2: Nsga2Config {
                    population_size: 16,
                    max_generations: 8,
                    max_evaluations: 800,
                    num_threads: 1,
                    ..Nsga2Config::default()
                },
                preference: Preference::balanced(),
                seed: 2025,
            },
            num_shards: 2,
            heavy_weight: 2,
            light_weight: 1,
            rate_per_hour: 9000.0,
            max_in_flight: 1_000_000,
            max_retries: 1,
        }
    }
}

impl ShardedSimConfig {
    /// Each shard's `[heavy, light]` tenant: the same saturating stream
    /// (constant rate, 30% mitigated) and caps, differing only in weight.
    fn tenant_pair(&self) -> [TenantLoad; 2] {
        let heavy = TenantLoad {
            weight: self.heavy_weight,
            max_in_flight: self.max_in_flight,
            max_retries: self.max_retries,
            arrivals: TenantArrivalConfig {
                arrival: ArrivalConfig {
                    mean_rate_per_hour: self.rate_per_hour,
                    diurnal_amplitude: 0.0,
                    ..Default::default()
                },
                mitigation_fraction: 0.3,
            },
        };
        [heavy, TenantLoad { weight: self.light_weight, ..heavy }]
    }
}

/// The sharded multi-tenant simulation engine.
pub struct ShardedSimulation {
    config: ShardedSimConfig,
    fleet: Fleet,
}

impl ShardedSimulation {
    /// Create a simulation over an explicit fleet.
    pub fn new(config: ShardedSimConfig, fleet: Fleet) -> Self {
        ShardedSimulation { config, fleet }
    }

    /// Create a simulation over the default 8-QPU IBM-like fleet.
    pub fn with_default_fleet(config: ShardedSimConfig) -> Self {
        let fleet = default_fleet(config.run.seed);
        Self::new(config, fleet)
    }

    /// Run the simulation to completion. The report is the multi-tenant
    /// one: batches are shard-attributed, tenant ids are *global*, and the
    /// per-tenant outcomes list the active tenants in registration order
    /// (each shard's heavy tenant before its light one).
    pub fn run(self) -> MultiTenantReport {
        self.run_with_failures(&FailurePlan::none()).report
    }

    /// Run under fault injection: at each instant of the plan's crash
    /// schedule, *every* shard's leader is killed and every shard fails over
    /// independently before the simulation continues.
    pub fn run_with_failures(self, plan: &FailurePlan) -> ChaosReport<MultiTenantReport> {
        let cfg = self.config;
        let mut plane = cfg.run.plane(cfg.num_shards, self.fleet.len(), cfg.run.trigger());
        let active = Self::register_pairs(&cfg, &mut plane);
        let ids = active.iter().map(|&(id, _)| id).collect();
        let pair = cfg.tenant_pair();
        let streams: Vec<TenantArrivalConfig> =
            active.iter().map(|&(_, slot)| pair[slot].arrivals).collect();
        TenantScenario::run(&cfg.run, self.fleet, plane, ids, &streams, plan)
    }

    /// Register tenants until every shard holds one heavy and one light
    /// active tenant, steering placement with filler registrations (global
    /// ids are sequential; the router is pure, so the next id's shard is
    /// known before registering). Returns the active tenants as `(global id,
    /// 0 = heavy | 1 = light)` in registration order.
    fn register_pairs(
        config: &ShardedSimConfig,
        plane: &mut ShardedControlPlane,
    ) -> Vec<(TenantId, usize)> {
        let loads = config.tenant_pair();
        let mut filled = vec![[false; 2]; config.num_shards];
        let mut active = Vec::with_capacity(2 * config.num_shards);
        let mut guard = 0usize;
        while filled.iter().flatten().any(|&f| !f) {
            guard += 1;
            assert!(guard < 10_000 * config.num_shards, "placement steering failed");
            let slots = &mut filled[plane.next_shard()];
            match slots.iter().position(|&f| !f) {
                Some(slot) => {
                    slots[slot] = true;
                    active.push((register_tenant(plane, &loads[slot]), slot));
                }
                // Filler: journaled like any tenant but never submits (it
                // has no stream), so it only advances the id space.
                None => {
                    let filler =
                        TenantLoad { max_in_flight: 1, max_retries: 0, ..Default::default() };
                    register_tenant(plane, &filler);
                }
            }
        }
        active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shard_gets_one_heavy_and_one_light_active_tenant() {
        let cfg = ShardedSimConfig { num_shards: 4, ..ShardedSimConfig::default() };
        let mut plane = cfg.run.plane(4, 8, cfg.run.trigger());
        let active = ShardedSimulation::register_pairs(&cfg, &mut plane);
        assert_eq!(active.len(), 8, "one heavy + one light per shard");
        let mut per_shard = vec![[0usize; 2]; 4];
        for &(global, slot) in &active {
            let (shard, _) = plane.placement_of(global).expect("registered");
            per_shard[shard][slot] += 1;
        }
        assert!(per_shard.iter().all(|&pair| pair == [1, 1]), "{per_shard:?}");
    }

    #[test]
    fn sharded_run_dispatches_on_every_shard_and_is_deterministic() {
        let mut cfg = ShardedSimConfig::default();
        cfg.run.duration_s = 200.0;
        let no_crashes = FailurePlan::none();
        let a = ShardedSimulation::with_default_fleet(cfg.clone()).run_with_failures(&no_crashes);
        let b = ShardedSimulation::with_default_fleet(cfg.clone()).run_with_failures(&no_crashes);
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
