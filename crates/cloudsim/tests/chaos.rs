//! Seeded chaos suite: run *every* simulation scenario under a seed-derived
//! crash schedule (leader kills mid-run, failover to replicas rebuilt from
//! the replicated `snapshot + log replay`) across several seeds and assert
//! the fault-tolerance invariants — no job lost, no job dispatched twice,
//! every rebuilt state byte-for-byte identical to the pre-crash state, the
//! lease allocator consistent, and the fault-injected run indistinguishable
//! from the failure-free one. All scenarios share one event-loop kernel, so
//! one parametrised matrix makes these checks; the per-scenario suites keep
//! only what is specific to them.
//!
//! CI runs this as a seed matrix (`QONDUCTOR_CHAOS_SEED=<seed>` selects one
//! seed per matrix leg; unset runs the whole default set) and uploads the
//! emitted `failover_summary.txt` artifact.

use qonductor_cloudsim::sim::{CloudSimulation, Policy, SimulationConfig};
use qonductor_cloudsim::{
    federated_heterogeneous, run_slo_arm, ArrivalConfig, ChaosReport, FailurePlan,
    MultiTenantConfig, MultiTenantReport, MultiTenantSimulation, RunParams, ShardedSimConfig,
    ShardedSimulation, SimulationReport, SloConfig, TenantArrivalConfig, TenantLoad,
};
use qonductor_core::CalibrationPolicy;
use qonductor_scheduler::{Nsga2Config, Preference};
use std::collections::HashSet;
use std::io::Write;

/// Default seed matrix (CI runs one leg per seed).
const DEFAULT_SEEDS: [u64; 5] = [11, 23, 37, 41, 59];
const DURATION_S: f64 = 400.0;
/// Crashes land inside the shortest scenario of the matrix (the sharded one).
const CRASH_WINDOW_S: f64 = 300.0;
const CRASHES_PER_RUN: usize = 3;

fn small_nsga2() -> Nsga2Config {
    Nsga2Config {
        population_size: 16,
        max_generations: 10,
        max_evaluations: 1000,
        num_threads: 2,
        ..Nsga2Config::default()
    }
}

fn multi_tenant_config(seed: u64) -> MultiTenantConfig {
    let tenant = |weight: u32| TenantLoad {
        weight,
        max_in_flight: 1_000_000,
        arrivals: TenantArrivalConfig {
            arrival: ArrivalConfig {
                mean_rate_per_hour: 6000.0,
                diurnal_amplitude: 0.0,
                ..Default::default()
            },
            mitigation_fraction: 0.3,
        },
        ..TenantLoad::default()
    };
    MultiTenantConfig {
        run: RunParams {
            duration_s: DURATION_S,
            step_s: 10.0,
            trigger_queue_limit: 15,
            trigger_interval_s: 40.0,
            nsga2: small_nsga2(),
            preference: Preference::balanced(),
            seed,
        },
        tenants: vec![tenant(2), tenant(1)],
    }
}

fn single_tenant_config(seed: u64, policy: Policy, rate_per_hour: f64) -> SimulationConfig {
    SimulationConfig {
        duration_s: DURATION_S,
        step_s: 10.0,
        arrival: ArrivalConfig {
            mean_rate_per_hour: rate_per_hour,
            diurnal_amplitude: 0.0,
            ..Default::default()
        },
        mitigation_fraction: 0.3,
        policy,
        trigger_queue_limit: 15,
        trigger_interval_s: 40.0,
        metrics_interval_s: 100.0,
        nsga2: small_nsga2(),
        calibration: CalibrationPolicy::SplitAtBoundary,
        seed,
        ..SimulationConfig::default()
    }
}

/// Seeds under test: the single `QONDUCTOR_CHAOS_SEED` if set (one CI matrix
/// leg), otherwise the whole default set.
fn seeds_under_test() -> Vec<u64> {
    match std::env::var("QONDUCTOR_CHAOS_SEED") {
        Ok(seed) => vec![seed.parse().expect("QONDUCTOR_CHAOS_SEED must be an integer")],
        Err(_) => DEFAULT_SEEDS.to_vec(),
    }
}

/// What a run looked like from outside the control plane: the kernel's
/// observations around `(dispatched jobs, completions, fingerprint of both)`.
type Observed = ChaosReport<(usize, usize, String)>;

/// The kernel's observations of `chaos` around a summary of its report.
fn observe<R>(chaos: ChaosReport<R>, summarise: fn(R) -> (usize, usize, String)) -> Observed {
    ChaosReport {
        report: summarise(chaos.report),
        crashes: chaos.crashes,
        snapshots_installed: chaos.snapshots_installed,
        lost_tickets: chaos.lost_tickets,
        double_dispatched: chaos.double_dispatched,
        final_states: chaos.final_states,
    }
}

fn observe_single_tenant(chaos: ChaosReport<SimulationReport>) -> Observed {
    observe(chaos, |r| {
        let dispatched = r.dispatches.iter().map(|d| d.enqueued.len()).sum();
        (dispatched, r.completed.len(), format!("{:?}{:?}", r.dispatches, r.completed))
    })
}

/// Tenant scenarios additionally keep, under failover, every batch
/// composition internally consistent (the shard-local → global tenant-id
/// remap loses no job), every `(shard, job id)` in at most one batch, every
/// tenant's ledger balanced, and every tenant making progress.
fn observe_tenants(chaos: ChaosReport<MultiTenantReport>) -> Observed {
    observe(chaos, |r| {
        let mut batched = HashSet::new();
        for batch in &r.batches {
            assert_eq!(batch.job_ids.len(), batch.num_jobs, "batch {batch:?}");
            let composition: usize = batch.tenant_jobs.iter().map(|(_, n)| n).sum();
            assert_eq!(composition, batch.num_jobs, "composition mismatch in {batch:?}");
            for &job in &batch.job_ids {
                assert!(batched.insert((batch.shard, job)), "job {job} is in two batches");
            }
        }
        for outcome in &r.tenants {
            let s = outcome.stats;
            assert_eq!(
                s.queued as u64 + s.in_flight as u64 + s.completed + s.rejected,
                s.submitted,
                "tenant {} leaks tickets across failovers",
                outcome.tenant
            );
            assert!(s.completed > 0, "tenant {} made no progress", outcome.tenant);
        }
        let dispatched = r.batches.iter().map(|b| b.num_jobs).sum();
        (dispatched, r.completed.len(), format!("{:?}{:?}", r.batches, r.completed))
    })
}

/// One scenario of the matrix: run it for a seed under a failure plan.
type Run = fn(u64, &FailurePlan) -> Observed;

/// Every scenario the crate ships, at chaos-suite size.
const SCENARIOS: [(&str, Run); 7] = [
    ("single-tenant-qonductor", |seed, plan| {
        let policy = Policy::Qonductor { preference: Preference::balanced() };
        let sim = CloudSimulation::with_default_fleet(single_tenant_config(seed, policy, 900.0));
        observe_single_tenant(sim.run_with_failures(plan))
    }),
    ("single-tenant-fcfs", |seed, plan| {
        let config = single_tenant_config(seed, Policy::Fcfs, 900.0);
        observe_single_tenant(CloudSimulation::with_default_fleet(config).run_with_failures(plan))
    }),
    ("drifting-split-at-boundary", |seed, plan| {
        let policy = Policy::Qonductor { preference: Preference::balanced() };
        let config = single_tenant_config(seed, policy, 900.0);
        observe_single_tenant(
            CloudSimulation::with_drifting_fleet(config, 150.0).run_with_failures(plan),
        )
    }),
    ("federation-cost-optimized", |seed, plan| {
        let policy = Policy::Qonductor { preference: Preference::balanced() };
        let config =
            SimulationConfig { cost_weight: 1.0, ..single_tenant_config(seed, policy, 900.0) };
        let mut federation = federated_heterogeneous(seed);
        federation.fleet_mut().schedule_region_outage("eu-central", 100.0, 250.0);
        observe_single_tenant(
            CloudSimulation::new(config, federation.into_fleet()).run_with_failures(plan),
        )
    }),
    ("multi-tenant", |seed, plan| {
        let sim = MultiTenantSimulation::with_default_fleet(multi_tenant_config(seed));
        observe_tenants(sim.run_with_failures(plan))
    }),
    ("sharded-2", |seed, plan| {
        let mut config = ShardedSimConfig::default();
        config.run = RunParams { duration_s: CRASH_WINDOW_S, seed, ..config.run };
        observe_tenants(ShardedSimulation::with_default_fleet(config).run_with_failures(plan))
    }),
    ("slo-aware", |seed, plan| {
        let mut config =
            SloConfig { burst_start_s: 100.0, burst_end_s: 250.0, ..SloConfig::default() };
        config.run = RunParams { duration_s: DURATION_S, seed, ..config.run };
        observe(run_slo_arm(&config, true, plan), |r| {
            let fingerprint = format!("{:?}{:?}{:?}", r.batches, r.completions, r.report);
            (r.report.dispatched_jobs, r.completions.len(), fingerprint)
        })
    }),
];

/// The chaos matrix: every scenario × every seed. Leader crashes mid-run are
/// invisible to the workload — every failover elects a new leader and
/// rebuilds each shard's job state byte for byte, the lease allocator
/// rebuilds conflict-free, every tenant ledger balances, no job is enqueued
/// twice, and the fault-injected run produces *exactly* the dispatches,
/// completions and final per-shard states of the failure-free run.
#[test]
fn every_scenario_survives_seeded_leader_crashes_byte_for_byte() {
    let mut summary = String::from(
        "scenario,seed,crashes,snapshots,dispatched_jobs,completed,lost,double_dispatched,\
         digests_matched,max_replayed_events\n",
    );
    let failure_free = FailurePlan::none();
    for (name, run) in SCENARIOS {
        for seed in seeds_under_test() {
            let plan = FailurePlan::from_seed(seed, CRASH_WINDOW_S, CRASHES_PER_RUN);
            let chaos = run(seed, &plan);
            let plain = run(seed, &failure_free);
            let at = format!("{name}, seed {seed}");

            assert_eq!(chaos.crashes.len(), CRASHES_PER_RUN, "{at}: all crashes injected");
            assert!(plain.crashes.is_empty(), "{at}");
            assert!(
                chaos.all_digests_matched(),
                "{at}: a failover rebuilt divergent state: {:?}",
                chaos.crashes
            );
            assert!(chaos.allocator_always_consistent(), "{at}: a QPU lease leaked or doubled");
            for recovery in chaos.crashes.iter().flat_map(|c| &c.shards) {
                assert_ne!(recovery.old_leader, recovery.new_leader, "{at}: no new leader");
            }
            for report in [&chaos, &plain] {
                assert_eq!(report.lost_tickets, 0, "{at}: a tenant ledger is out of balance");
                assert_eq!(report.double_dispatched, vec![], "{at}: a job was enqueued twice");
            }
            let (dispatched, completed, fingerprint) = &chaos.report;
            assert!(*completed > 0, "{at}: the scenario makes progress");
            if *dispatched > 0 {
                assert!(chaos.snapshots_installed > 0, "{at}: checkpoints compact the journal");
            }
            assert_eq!(
                fingerprint, &plain.report.2,
                "{at}: chaos changed a dispatch or completion"
            );
            // The runs snapshot on different cadences, so their incremental
            // digests are not comparable — compare the byte oracle.
            assert_eq!(chaos.final_states, plain.final_states, "{at}: final states diverged");

            let max_replayed = chaos.crashes.iter().map(|c| c.replayed_events).max().unwrap_or(0);
            summary.push_str(&format!(
                "{name},{seed},{},{},{dispatched},{completed},0,0,true,{max_replayed}\n",
                chaos.crashes.len(),
                chaos.snapshots_installed,
            ));
        }
    }
    println!("{summary}");
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("failover_summary.txt");
    let mut file = std::fs::File::create(&path).expect("summary file is writable");
    file.write_all(summary.as_bytes()).unwrap();
}
