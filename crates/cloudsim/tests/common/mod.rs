//! Scenario configurations shared by the golden, chaos and shard suites.

// Each test target compiles this module independently and uses a subset.
#![allow(dead_code)]

use qonductor_cloudsim::{
    ArrivalConfig, MultiTenantConfig, RunParams, TenantArrivalConfig, TenantLoad,
};
use qonductor_core::TenantConfig;
use qonductor_scheduler::{Nsga2Config, Preference};

/// A tenant of DRR weight `weight` with a flat Poisson stream of
/// `rate_per_hour` applications (30 % mitigated) and an in-flight cap lifted
/// so high that the weights are the only throttle.
pub fn saturating_tenant(weight: u32, rate_per_hour: f64) -> TenantLoad {
    TenantLoad {
        config: TenantConfig { weight, max_in_flight: 1_000_000, max_retries: 1 },
        arrivals: TenantArrivalConfig {
            arrival: ArrivalConfig {
                mean_rate_per_hour: rate_per_hour,
                diurnal_amplitude: 0.0,
                ..Default::default()
            },
            mitigation_fraction: 0.3,
        },
    }
}

/// The sharded multi-tenant scenario: every shard holds one heavy (weight 2)
/// and one light (weight 1) tenant, each offering 9,000 applications per
/// hour, dispatched in batches of at most 12 by one-island NSGA-II.
pub fn sharded_config(num_shards: usize, seed: u64, duration_s: f64) -> MultiTenantConfig {
    MultiTenantConfig {
        run: RunParams {
            duration_s,
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
            seed,
        },
        tenants: vec![saturating_tenant(2, 9000.0), saturating_tenant(1, 9000.0)],
        num_shards,
    }
}
