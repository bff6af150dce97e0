//! Golden guard: one FNV-1a digest per scenario of the plane-agnostic report
//! (dispatched batches, completions, arrival/rejection counters) on a fixed
//! seed. The constants were captured against the four hand-written drivers
//! *before* they were ported onto the shared event-loop kernel; every other
//! suite only compares runs within one commit, so this is the check that the
//! port (and any later kernel change) altered no scenario's behaviour.
//!
//! A digest covers ids, counters and the exact bit patterns of every float,
//! never a `Debug` rendering, so renaming a report type or field cannot move
//! it — only a behavioural change can.

use qonductor_cloudsim::{
    run_federation_comparison, run_slo_arm, ArrivalConfig, BatchComposition, CloudSimulation,
    FailurePlan, FederationConfig, MultiTenantConfig, MultiTenantReport, MultiTenantSimulation,
    Policy, RunParams, ShardedSimConfig, ShardedSimulation, SimulationConfig, SimulationReport,
    SloConfig, TenantArrivalConfig, TenantLoad,
};
use qonductor_core::CalibrationPolicy;
use qonductor_scheduler::{Nsga2Config, Preference, TriggerReason};

/// FNV-1a (64-bit) over a stream of little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u(&mut self, value: u64) -> &mut Self {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    fn f(&mut self, value: f64) -> &mut Self {
        self.u(value.to_bits())
    }

    fn ids(&mut self, ids: &[u64]) -> &mut Self {
        self.u(ids.len() as u64);
        for &id in ids {
            self.u(id);
        }
        self
    }
}

fn small_nsga2() -> Nsga2Config {
    Nsga2Config {
        population_size: 16,
        max_generations: 10,
        max_evaluations: 1000,
        num_threads: 2,
        ..Nsga2Config::default()
    }
}

fn single_tenant_config(policy: Policy, calibration: CalibrationPolicy) -> SimulationConfig {
    SimulationConfig {
        duration_s: 400.0,
        step_s: 10.0,
        arrival: ArrivalConfig { mean_rate_per_hour: 600.0, ..Default::default() },
        policy,
        trigger_queue_limit: 30,
        trigger_interval_s: 60.0,
        metrics_interval_s: 50.0,
        nsga2: small_nsga2(),
        calibration,
        seed: 7,
        ..Default::default()
    }
}

fn digest_simulation(report: &SimulationReport) -> u64 {
    let mut h = Fnv::new();
    h.u(report.arrived as u64).u(report.rejected as u64).u(report.reestimated_jobs as u64);
    h.u(report.dispatches.len() as u64);
    for d in &report.dispatches {
        h.f(d.t_s).ids(&d.job_ids).ids(&d.enqueued).ids(&d.deferred).u(d.fleet_epoch);
    }
    h.u(report.completed.len() as u64);
    for c in &report.completed {
        h.u(c.app_id).u(c.qpu_index as u64).f(c.submit_s).f(c.completion_s).f(c.waiting_s);
        h.f(c.execution_s).f(c.fidelity).f(c.fidelity_error).u(u64::from(c.mitigated)).f(c.cost);
    }
    h.0
}

fn digest_batches(h: &mut Fnv, batches: &[BatchComposition]) {
    h.u(batches.len() as u64);
    for b in batches {
        h.u(b.shard as u64).f(b.t_s).u(b.num_jobs as u64).ids(&b.job_ids);
        h.u(match b.reason {
            TriggerReason::QueueSize => 0,
            TriggerReason::Interval => 1,
            TriggerReason::SloSlack => 2,
        });
        h.u(b.tenant_jobs.len() as u64);
        for &(tenant, n) in &b.tenant_jobs {
            h.u(u64::from(tenant)).u(n as u64);
        }
    }
}

fn digest_tenant_run(report: &MultiTenantReport) -> u64 {
    let mut h = Fnv::new();
    digest_batches(&mut h, &report.batches);
    h.u(report.completed.len() as u64);
    for c in &report.completed {
        h.u(u64::from(c.tenant)).u(c.app_id).f(c.submit_s).f(c.waiting_s).f(c.turnaround_s);
        h.f(c.fidelity);
    }
    for t in &report.tenants {
        let s = t.stats;
        h.u(u64::from(t.tenant)).u(t.arrived).u(t.infeasible);
        h.u(s.submitted).u(s.admitted).u(s.completed).u(s.rejected);
        h.u(s.queued as u64).u(s.in_flight as u64);
    }
    h.0
}

#[test]
fn single_tenant_qonductor_matches_the_pre_kernel_driver() {
    let config = single_tenant_config(
        Policy::Qonductor { preference: Preference::balanced() },
        CalibrationPolicy::Naive,
    );
    let report = CloudSimulation::with_default_fleet(config).run();
    assert!(!report.dispatches.is_empty() && !report.completed.is_empty());
    assert_eq!(digest_simulation(&report), GOLDEN_QONDUCTOR);
}

#[test]
fn single_tenant_fcfs_matches_the_pre_kernel_driver() {
    let config = single_tenant_config(Policy::Fcfs, CalibrationPolicy::Naive);
    let report = CloudSimulation::with_default_fleet(config).run();
    assert!(report.dispatches.is_empty() && !report.completed.is_empty());
    assert_eq!(digest_simulation(&report), GOLDEN_FCFS);
}

#[test]
fn drifting_split_at_boundary_matches_the_pre_kernel_driver() {
    let config = SimulationConfig {
        duration_s: 900.0,
        arrival: ArrivalConfig {
            mean_rate_per_hour: 900.0,
            diurnal_amplitude: 0.0,
            ..Default::default()
        },
        trigger_queue_limit: 25,
        ..single_tenant_config(
            Policy::Qonductor { preference: Preference::balanced() },
            CalibrationPolicy::SplitAtBoundary,
        )
    };
    let report = CloudSimulation::with_drifting_fleet(config, 300.0).run();
    assert!(report.split_batches() > 0 && report.reestimated_jobs > 0);
    assert_eq!(digest_simulation(&report), GOLDEN_DRIFT);
}

#[test]
fn multi_tenant_matches_the_pre_kernel_driver() {
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
    let config = MultiTenantConfig {
        run: RunParams {
            duration_s: 300.0,
            step_s: 10.0,
            trigger_queue_limit: 15,
            trigger_interval_s: 40.0,
            nsga2: small_nsga2(),
            preference: Preference::balanced(),
            seed: 11,
        },
        tenants: vec![tenant(2), tenant(1)],
    };
    let report = MultiTenantSimulation::with_default_fleet(config).run();
    assert!(!report.batches.is_empty() && !report.completed.is_empty());
    assert_eq!(digest_tenant_run(&report), GOLDEN_MULTITENANT);
}

#[test]
fn sharded_two_shards_matches_the_pre_kernel_driver() {
    let mut config = ShardedSimConfig::default();
    config.run = RunParams { duration_s: 200.0, seed: 11, ..config.run };
    let report = ShardedSimulation::with_default_fleet(config).run();
    assert!((0..2).all(|shard| report.batches.iter().any(|b| b.shard == shard)));
    assert_eq!(digest_tenant_run(&report), GOLDEN_SHARDED);
}

#[test]
fn slo_aware_arm_matches_the_pre_kernel_driver() {
    let mut config = SloConfig { burst_start_s: 100.0, burst_end_s: 250.0, ..SloConfig::default() };
    config.run.duration_s = 400.0;
    let outcome = run_slo_arm(&config, true, &FailurePlan::none()).report;
    let r = outcome.report;
    assert!(r.provisioned > 0 && r.escalated > 0 && r.knit_apps > 0);
    let mut h = Fnv::new();
    digest_batches(&mut h, &outcome.batches);
    h.u(outcome.completions.len() as u64);
    for c in &outcome.completions {
        h.u(c.app_id).f(c.submit_s).f(c.finish_s).u(u64::from(c.deadline_hit));
    }
    h.u(r.arrived_slo).u(r.arrived_bulk).u(r.completed_slo).u(r.deadline_hits);
    h.u(r.escalated).u(r.provisioned).u(r.retired).u(r.knit_apps).u(r.knittable_rejected);
    h.u(r.rejected_infeasible).u(r.rejected_deadline).u(r.rejected_retries);
    h.u(r.dispatched_jobs as u64).f(r.p95_turnaround_s).f(r.mean_turnaround_s);
    assert_eq!(h.0, GOLDEN_SLO_AWARE);
}

#[test]
fn federation_cost_optimized_arm_matches_the_pre_kernel_driver() {
    let base = FederationConfig::default().base;
    let config = FederationConfig {
        base: SimulationConfig { duration_s: 700.0, nsga2: small_nsga2(), ..base },
        outage_start_s: 200.0,
        outage_end_s: 500.0,
        ..FederationConfig::default()
    };
    let comparison = run_federation_comparison(&config);
    let arm = comparison.arm("cost-optimized").expect("arm present");
    assert!(!arm.report.completed.is_empty());
    assert_eq!(digest_simulation(&arm.report), GOLDEN_FEDERATION_COST);
}

const GOLDEN_QONDUCTOR: u64 = 0x254d_0b22_c699_c4e7;
const GOLDEN_FCFS: u64 = 0x6527_9461_1c0a_cebf;
const GOLDEN_DRIFT: u64 = 0x18e7_ab2f_0ab4_c47b;
const GOLDEN_MULTITENANT: u64 = 0xbfd2_af23_9b86_6a31;
/// Re-pinned once, when one-island NSGA-II runs (`ShardedSimConfig`'s
/// `num_threads: 1`) moved from a separate sequential algorithm onto the
/// island loop.
const GOLDEN_SHARDED: u64 = 0xc709_441c_8f57_41df;
const GOLDEN_SLO_AWARE: u64 = 0x6228_6355_0f64_f71e;
const GOLDEN_FEDERATION_COST: u64 = 0x6a8d_309d_1a91_9709;
