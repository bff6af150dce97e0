//! Sharded control-plane e2e suite: the multi-tenant scenario over N
//! shards — hash-partitioned tenants, per-shard DRR fairness composing into
//! the global weighted split, the one-shard plane registering exactly the
//! configured tenants, and the mid-lease crash window. (Whole-plane chaos —
//! every shard's leader killed mid-run, per-shard byte-for-byte failover
//! digests, lease-allocator consistency — is the `sharded-2` row of the
//! matrix in `tests/chaos.rs`.)
//!
//! Like the chaos suite, CI can run this as a seed matrix
//! (`QONDUCTOR_CHAOS_SEED=<seed>` selects one leg; unset runs the default
//! set).

mod common;

use common::{saturating_tenant, sharded_config};
use qonductor_cloudsim::{MultiTenantConfig, MultiTenantReport, MultiTenantSimulation};
use qonductor_core::jobmanager::CalibrationPolicy;
use qonductor_core::sharding::{shard_of_global, ShardedControlPlane};
use qonductor_scheduler::ScheduleTrigger;

/// Default seed matrix (mirrors the chaos suite).
const DEFAULT_SEEDS: [u64; 5] = [11, 23, 37, 41, 59];

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
        let config = sharded_config(2, seed, 300.0);
        let report = MultiTenantSimulation::with_default_fleet(config.clone()).run();
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

/// With one shard the scenario registers exactly the configured tenants:
/// global ids `0..k` in configuration order (no placement filler), each with
/// its configured weight, every batch dispatched by shard 0, and saturating
/// streams sharing the batch slots by weight (3:2:1 here, within ±0.1).
#[test]
fn one_shard_is_the_multi_tenant_scenario() {
    let config = MultiTenantConfig {
        tenants: vec![
            saturating_tenant(3, 9000.0),
            saturating_tenant(2, 9000.0),
            saturating_tenant(1, 9000.0),
        ],
        ..sharded_config(1, 11, 300.0)
    };
    let report = MultiTenantSimulation::with_default_fleet(config.clone()).run();
    assert!(!report.batches.is_empty() && !report.completed.is_empty());
    assert!(report.batches.iter().all(|b| b.shard == 0));
    let ids: Vec<u32> = report.tenants.iter().map(|t| t.tenant).collect();
    assert_eq!(ids, [0, 1, 2], "one tenant per configured load, no filler");
    for (outcome, load) in report.tenants.iter().zip(&config.tenants) {
        assert_eq!(outcome.stats.weight, load.config.weight);
        let share = report.admitted_share(outcome.tenant);
        let expected = f64::from(load.config.weight) / 6.0;
        assert!((share - expected).abs() <= 0.1, "tenant {}: share {share}", outcome.tenant);
    }
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
