//! Multi-tenant submission: three tenants with fairness weights 3:2:1 submit
//! saturating Poisson streams through the non-blocking `SubmissionService`;
//! the weighted-fair (deficit-round-robin) admission step drains their queues
//! into the shared batch engine, and per-batch compositions plus per-tenant
//! wait/turnaround statistics show the weights binding under contention.
//!
//! Run with: `cargo run --release --example multi_tenant`

use qonductor::cloudsim::{
    ArrivalConfig, MultiTenantConfig, MultiTenantSimulation, RunParams, TenantArrivalConfig,
    TenantLoad,
};
use qonductor::core::TenantConfig;
use qonductor::scheduler::{Nsga2Config, Preference};

fn main() {
    let stream = |rate: f64| TenantArrivalConfig {
        arrival: ArrivalConfig {
            mean_rate_per_hour: rate,
            diurnal_amplitude: 0.0,
            ..Default::default()
        },
        mitigation_fraction: 0.4,
    };
    let tenant = |weight: u32| TenantLoad {
        config: TenantConfig { weight, max_in_flight: 1_000_000, max_retries: 1 },
        arrivals: stream(9000.0),
    };
    let config = MultiTenantConfig {
        run: RunParams {
            duration_s: 600.0,
            step_s: 10.0,
            trigger_queue_limit: 24,
            trigger_interval_s: 60.0,
            nsga2: Nsga2Config {
                population_size: 24,
                max_generations: 15,
                max_evaluations: 2000,
                num_threads: 2,
                ..Nsga2Config::default()
            },
            preference: Preference::balanced(),
            seed: 7,
        },
        tenants: vec![tenant(3), tenant(2), tenant(1)],
        num_shards: 1,
    };

    println!("three tenants, weights 3:2:1, equal saturating arrival streams\n");
    let report = MultiTenantSimulation::with_default_fleet(config).run();

    println!("first batches (tenant:jobs):");
    for batch in report.batches.iter().take(6) {
        let composition: Vec<String> =
            batch.tenant_jobs.iter().map(|(t, n)| format!("t{t}:{n}")).collect();
        println!(
            "  t={:6.1}s  {:?}  {} jobs  [{}]",
            batch.t_s,
            batch.reason,
            batch.num_jobs,
            composition.join(" ")
        );
    }

    println!("\nper-tenant outcome:");
    println!("  tenant  weight  share   arrived  admitted  completed  wait(s)  turnaround(s)");
    for outcome in &report.tenants {
        let s = outcome.stats;
        println!(
            "  t{:<6} {:>6} {:>6.3} {:>8} {:>9} {:>10} {:>8.1} {:>14.1}",
            outcome.tenant,
            s.weight,
            report.admitted_share(outcome.tenant),
            outcome.arrived,
            s.admitted,
            s.completed,
            s.mean_queue_wait_s,
            s.mean_turnaround_s,
        );
    }
    let total: usize = report.batches.iter().map(|b| b.num_jobs).sum();
    println!(
        "\n{} batches dispatched, {} jobs admitted, {} completed",
        report.batches.len(),
        total,
        report.completed.len()
    );
}
