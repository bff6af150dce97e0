//! Sharded control-plane e2e suite: hash-partitioned tenants across N
//! shards, per-shard DRR fairness composing into the global weighted split,
//! the one-shard plane's parity with the multi-tenant scenario, and the
//! mid-lease crash window. (Whole-plane chaos — every shard's leader killed
//! mid-run, per-shard byte-for-byte failover digests, lease-allocator
//! consistency — is the `sharded-2` row of the matrix in `tests/chaos.rs`.)
//!
//! Like the chaos suite, CI can run this as a seed matrix
//! (`QONDUCTOR_CHAOS_SEED=<seed>` selects one leg; unset runs the default
//! set).

use qonductor_cloudsim::{
    ArrivalConfig, MultiTenantConfig, MultiTenantReport, MultiTenantSimulation, RunParams,
    ShardedSimConfig, ShardedSimulation, TenantArrivalConfig, TenantLoad,
};
use qonductor_core::jobmanager::CalibrationPolicy;
use qonductor_core::sharding::{shard_of_global, ShardedControlPlane};
use qonductor_scheduler::ScheduleTrigger;

/// Default seed matrix (mirrors the chaos suite).
const DEFAULT_SEEDS: [u64; 5] = [11, 23, 37, 41, 59];

fn sharded_config(seed: u64) -> ShardedSimConfig {
    let mut config = ShardedSimConfig::default();
    config.run = RunParams { duration_s: 300.0, seed, ..config.run };
    config
}

/// Seeds under test: the single `QONDUCTOR_CHAOS_SEED` if set (one CI matrix
/// leg), otherwise the whole default set.
fn seeds_under_test() -> Vec<u64> {
    match std::env::var("QONDUCTOR_CHAOS_SEED") {
        Ok(seed) => vec![seed.parse().expect("QONDUCTOR_CHAOS_SEED must be an integer")],
        Err(_) => DEFAULT_SEEDS.to_vec(),
    }
}

/// The combined share of all admitted batch slots held by the heavy tenants:
/// the report lists the active tenants in registration order, each shard's
/// heavy tenant before its light one.
fn heavy_share(report: &MultiTenantReport, num_shards: usize) -> f64 {
    let mut seen = vec![false; num_shards];
    let mut share = 0.0;
    for outcome in &report.tenants {
        let shard = shard_of_global(outcome.tenant, num_shards);
        if !std::mem::replace(&mut seen[shard], true) {
            share += report.admitted_share(outcome.tenant);
        }
    }
    share
}

/// Weights 2:1 split across shards (one heavy + one light pair per shard,
/// saturating streams) yield the heavy tenants a ~2/3 global share of all
/// admitted batch slots, within ±10% — per-shard DRR composes into global
/// weighted fairness because the shards' active populations are balanced.
#[test]
fn sharded_fairness_composes_to_the_global_weighted_split() {
    for seed in seeds_under_test() {
        let config = sharded_config(seed);
        let report = ShardedSimulation::with_default_fleet(config.clone()).run();
        assert!(!report.batches.is_empty(), "seed {seed}: batches must dispatch");
        assert!(!report.completed.is_empty(), "seed {seed}: applications must complete");
        for shard in 0..config.num_shards {
            assert!(
                report.batches.iter().any(|b| b.shard == shard),
                "seed {seed}: shard {shard} never dispatched"
            );
        }
        assert_eq!(report.tenants.len(), 2 * config.num_shards, "one pair per shard");
        let share = heavy_share(&report, config.num_shards);
        assert!(
            (share - 2.0 / 3.0).abs() <= 0.1,
            "seed {seed}: heavy global share {share} strays from 2/3"
        );
    }
}

/// The sharded scenario *is* the multi-tenant scenario plus a shard count:
/// with one shard (no placement fillers, global ids = local ids) it yields
/// exactly the batches and completions of the multi-tenant simulation over
/// the same two tenants, streams and seed.
#[test]
fn one_shard_is_the_multi_tenant_scenario() {
    let sharded = ShardedSimConfig { num_shards: 1, ..sharded_config(11) };
    let tenant = |weight| TenantLoad {
        weight,
        max_in_flight: sharded.max_in_flight,
        max_retries: sharded.max_retries,
        arrivals: TenantArrivalConfig {
            arrival: ArrivalConfig {
                mean_rate_per_hour: sharded.rate_per_hour,
                diurnal_amplitude: 0.0,
                ..Default::default()
            },
            mitigation_fraction: 0.3,
        },
    };
    let multi_tenant = MultiTenantConfig {
        run: sharded.run,
        tenants: vec![tenant(sharded.heavy_weight), tenant(sharded.light_weight)],
    };
    let a = ShardedSimulation::with_default_fleet(sharded).run();
    let b = MultiTenantSimulation::with_default_fleet(multi_tenant).run();
    assert!(!b.batches.is_empty() && !b.completed.is_empty());
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.completed, b.completed);
}

/// The mid-lease crash window: a shard's leader dies *between* journaling a
/// lease grant and first using the QPU. The replay must restore the grant
/// (no leak) without letting any other shard claim the QPU (no double
/// grant), for both directions of a lease move.
#[test]
fn leader_death_between_lease_journal_and_use_neither_leaks_nor_double_grants() {
    let mut plane = ShardedControlPlane::new(
        2,
        8,
        ScheduleTrigger::new(12, 45.0),
        CalibrationPolicy::Naive,
        1,
        41,
    );
    let fleet = {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        qonductor_backend::Fleet::ibm_default(&mut rng)
    };

    // Move QPU 0 from shard 0 to shard 1: release journaled on shard 0,
    // grant journaled on shard 1, and the leader dies before shard 1 ever
    // dispatches onto it.
    assert_eq!(plane.release_qpu(0, 0, &fleet).unwrap(), Ok(()));
    assert!(plane.lease_qpu(1, 0).unwrap());
    let digests = plane.state_digests();
    plane.crash_all_leaders();
    plane.failover_all().expect("both shards fail over");
    assert_eq!(plane.state_digests(), digests, "replay is byte-exact mid-lease");
    let rebuilt = plane.rebuild_allocator().expect("no QPU is double-granted");
    assert_eq!(rebuilt.owner(0), Some(1), "the journaled grant survives the crash");
    assert_eq!(&rebuilt, plane.allocator(), "live and journaled lease state agree");
    // The grant is exclusive after replay: shard 0 cannot claim QPU 0 back
    // without shard 1 releasing it.
    assert!(!plane.lease_qpu(0, 0).unwrap());
    assert_eq!(plane.release_qpu(1, 0, &fleet).unwrap(), Ok(()));
    assert!(plane.lease_qpu(0, 0).unwrap());
}
