//! Fairness integration tests of the multi-tenant submission subsystem:
//! weighted-fair (deficit-round-robin) admission tracks tenant weights under
//! saturating load, starved tenants never lose jobs, the orchestrator routes
//! tenant waves through the service, and the multi-tenant cloud simulation
//! exercises the path end-to-end. Also emits a per-tenant wait-time summary
//! (`tenant_wait_summary.txt` under `CARGO_TARGET_TMPDIR`) that CI uploads as
//! a build artifact for trend-watching.

mod common;

use common::{feasible_spec, small_fleet, small_scheduler};
use qonductor::cloudsim::{
    ArrivalConfig, MultiTenantConfig, MultiTenantSimulation, RunParams, TenantArrivalConfig,
    TenantLoad,
};
use qonductor::core::{
    DeploymentConfig, Orchestrator, OrchestratorError, ReplicatedControlPlane, TenantConfig,
    TicketStatus, WorkflowStatus,
};
use qonductor::mitigation::MitigationStack;
use qonductor::scheduler::{
    ClassicalRequest, HybridScheduler, Nsga2Config, Preference, ScheduleTrigger,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scheduler() -> HybridScheduler {
    small_scheduler(16, 8, 800)
}

/// Two tenants with weights 2:1 and saturating backlogs: every saturated
/// batch's admitted-job shares track the weights within tolerance, the
/// lighter tenant keeps making progress, and no job is ever dropped — the
/// whole backlog completes.
#[test]
fn weighted_fair_admission_tracks_weights_under_saturation() {
    let mut fleet = small_fleet(31);
    let scheduler = scheduler();
    // Queue-size trigger 12 doubles as the admission pool capacity.
    let mut plane = ReplicatedControlPlane::new(ScheduleTrigger::new(12, 30.0), 1, 31);
    let heavy = plane
        .register_tenant_with(TenantConfig { weight: 2, max_in_flight: usize::MAX, max_retries: 0 })
        .unwrap();
    let light = plane
        .register_tenant_with(TenantConfig { weight: 1, max_in_flight: usize::MAX, max_retries: 0 })
        .unwrap();

    let mut tickets = Vec::new();
    for i in 0..60 {
        let at = i as f64 * 0.001;
        tickets.push(plane.submit(heavy, feasible_spec(&fleet, 5, 4.0), at).unwrap());
        tickets.push(plane.submit(light, feasible_spec(&fleet, 5, 4.0), at).unwrap());
    }

    let mut rng = StdRng::seed_from_u64(7);
    let mut t = 1.0;
    let mut saturated_batches = 0usize;
    let mut guard = 0usize;
    while plane.submissions().total_queued() > 0 || plane.jobmanager().pending_len() > 0 {
        guard += 1;
        assert!(guard < 100, "drain loop must converge");
        plane.admit(t).unwrap();
        if let Some(outcome) = plane.try_dispatch(t, &scheduler, &mut fleet).unwrap() {
            let batch = &outcome.record;
            let count = |tenant| {
                batch.tenant_jobs.iter().find(|(id, _)| *id == tenant).map_or(0usize, |(_, n)| *n)
            };
            let (h, l) = (count(heavy), count(light));
            assert_eq!(h + l, batch.job_ids.len(), "composition covers the batch");
            assert!(batch.job_ids.len() <= 12, "no batch exceeds the trigger limit");
            // While both backlogs saturate a full batch, shares track 2:1
            // within ±10 percentage points.
            let svc = plane.submissions();
            if svc.queued_len(heavy) > 0 && svc.queued_len(light) > 0 {
                let share = h as f64 / batch.job_ids.len() as f64;
                assert!(
                    (share - 2.0 / 3.0).abs() <= 0.1,
                    "batch {} heavy share {share} (h={h}, l={l})",
                    batch.batch_index
                );
                saturated_batches += 1;
            }
            assert!(outcome.terminal_rejections.is_empty(), "all jobs are feasible");
        }
        t += 31.0;
        fleet.advance_to(t, &mut rng);
        plane.note_completions(&plane.drain_completions(&mut fleet)).unwrap();
    }
    assert!(saturated_batches >= 4, "got {saturated_batches} saturated batches");

    // Drain the fleet queues: every ticket completes — nothing was dropped.
    fleet.advance_to(t + 1e6, &mut rng);
    plane.note_completions(&plane.drain_completions(&mut fleet)).unwrap();
    let svc = plane.submissions();
    for ticket in &tickets {
        assert!(
            matches!(svc.poll(*ticket), Some(TicketStatus::Completed { .. })),
            "ticket {ticket:?} must complete, got {:?}",
            svc.poll(*ticket)
        );
    }
    let h = svc.tenant_stats(heavy).unwrap();
    let l = svc.tenant_stats(light).unwrap();
    for (name, s) in [("heavy", h), ("light", l)] {
        assert_eq!(s.completed, 60, "{name} completes its whole backlog");
        assert_eq!(s.rejected, 0);
        assert_eq!(s.queued, 0);
        assert_eq!(s.in_flight, 0);
    }
    // The lighter tenant drains slower, so it waits longer for admission.
    assert!(
        l.mean_queue_wait_s > h.mean_queue_wait_s,
        "light waits {} vs heavy {}",
        l.mean_queue_wait_s,
        h.mean_queue_wait_s
    );

    write_wait_summary(&[("heavy(w=2)", h), ("light(w=1)", l)]);
}

/// Extreme weights (10:1): the starved tenant still progresses every batch
/// and finishes its backlog — weighted fairness never turns into starvation
/// or job loss.
#[test]
fn starved_tenant_jobs_are_never_dropped() {
    let mut fleet = small_fleet(32);
    let scheduler = scheduler();
    let mut plane = ReplicatedControlPlane::new(ScheduleTrigger::new(11, 30.0), 1, 32);
    let heavy = plane.register_tenant(10).unwrap();
    let light = plane.register_tenant(1).unwrap();

    let mut light_tickets = Vec::new();
    for i in 0..40 {
        let at = i as f64 * 0.001;
        plane.submit(heavy, feasible_spec(&fleet, 5, 3.0), at).unwrap();
        light_tickets.push(plane.submit(light, feasible_spec(&fleet, 5, 3.0), at).unwrap());
    }

    let mut rng = StdRng::seed_from_u64(8);
    let mut t = 1.0;
    let mut guard = 0usize;
    while plane.submissions().total_queued() > 0 || plane.jobmanager().pending_len() > 0 {
        guard += 1;
        assert!(guard < 200, "drain loop must converge");
        plane.admit(t).unwrap();
        if let Some(outcome) = plane.try_dispatch(t, &scheduler, &mut fleet).unwrap() {
            let svc = plane.submissions();
            if svc.queued_len(heavy) > 0 && svc.queued_len(light) > 0 {
                let light_jobs = outcome
                    .record
                    .tenant_jobs
                    .iter()
                    .find(|(id, _)| *id == light)
                    .map_or(0usize, |(_, n)| *n);
                assert!(light_jobs >= 1, "the starved tenant progresses every saturated batch");
            }
        }
        t += 31.0;
        fleet.advance_to(t, &mut rng);
        plane.note_completions(&plane.drain_completions(&mut fleet)).unwrap();
    }
    fleet.advance_to(t + 1e6, &mut rng);
    plane.note_completions(&plane.drain_completions(&mut fleet)).unwrap();
    for ticket in &light_tickets {
        assert!(
            matches!(plane.poll(*ticket), Some(TicketStatus::Completed { .. })),
            "starved tenant's ticket {ticket:?} must complete"
        );
    }
    let stats = plane.submissions().tenant_stats(light).unwrap();
    assert_eq!(stats.completed, 40);
    assert_eq!(stats.rejected, 0);
}

/// The orchestrator routes tenant waves through the submission service:
/// a registered tenant's workflows complete, the dispatched batch carries the
/// tenant's composition, and per-tenant accounting is kept by the service.
#[test]
fn orchestrator_routes_tenant_waves_through_the_service() {
    let orchestrator =
        Orchestrator::with_default_cluster(33).with_trigger(ScheduleTrigger::new(3, 1e9));
    let tenant = orchestrator.register_tenant(2);
    let images: Vec<_> = (0..3)
        .map(|i| {
            let wf = qonductor::core::mitigated_execution_workflow(
                format!("ghz{}", 6 + i),
                qonductor::circuit::generators::ghz(6 + i),
                MitigationStack::none(),
                ClassicalRequest::small(),
            );
            orchestrator.create_workflow(wf, DeploymentConfig::default())
        })
        .collect();

    let runs: Vec<_> = orchestrator
        .invoke_many_as(tenant, &images)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("tenant wave succeeds");
    for &run in &runs {
        assert_eq!(orchestrator.workflow_status(run), Some(WorkflowStatus::Completed));
    }
    let batches = orchestrator.monitor().schedule_batches();
    assert_eq!(batches.len(), 1, "the wave shares one scheduler invocation");
    assert_eq!(batches[0].tenant_jobs, vec![(tenant, 3)]);

    let stats = orchestrator.tenant_stats(tenant).expect("tenant accounting exists");
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.weight, 2);
    assert!(stats.mean_turnaround_s > 0.0);

    // Unknown tenants are reported, not silently defaulted.
    assert_eq!(
        orchestrator.invoke_many_as(99, &images)[0],
        Err(OrchestratorError::UnknownTenant(99))
    );
}

/// End-to-end: the multi-tenant cloud simulation with 2:1 weights under
/// saturating per-tenant Poisson arrivals converges to a 2:1 admitted share
/// (±10%) and conserves every ticket.
#[test]
fn multi_tenant_simulation_converges_to_weighted_shares() {
    let stream = TenantArrivalConfig {
        arrival: ArrivalConfig {
            mean_rate_per_hour: 9000.0,
            diurnal_amplitude: 0.0,
            ..Default::default()
        },
        mitigation_fraction: 0.3,
    };
    let config = MultiTenantConfig {
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
            seed: 77,
        },
        tenants: [2, 1]
            .map(|weight| TenantLoad {
                config: TenantConfig { weight, max_in_flight: 1_000_000, max_retries: 1 },
                arrivals: stream,
            })
            .to_vec(),
        num_shards: 1,
    };
    let report = MultiTenantSimulation::with_default_fleet(config).run();
    assert!(!report.batches.is_empty());
    let heavy = report.tenants[0].tenant;
    let share = report.admitted_share(heavy);
    // The heavy tenant's share of admitted slots is within 10% of 2/3.
    assert!((share * 3.0 / 2.0 - 1.0).abs() <= 0.1, "heavy share {share}");
    for outcome in &report.tenants {
        let s = outcome.stats;
        assert_eq!(
            s.queued as u64 + s.in_flight as u64 + s.completed + s.rejected,
            s.submitted,
            "tenant {} conserves tickets",
            outcome.tenant
        );
        assert!(s.completed > 0);
    }
}

/// Append a per-tenant wait-time summary for the CI artifact.
fn write_wait_summary(rows: &[(&str, qonductor::core::TenantStats)]) {
    use std::io::Write;
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tenant_wait_summary.txt");
    let mut file = std::fs::File::create(&path).expect("summary file is writable");
    writeln!(
        file,
        "tenant,weight,submitted,admitted,completed,mean_queue_wait_s,mean_turnaround_s"
    )
    .unwrap();
    for (name, s) in rows {
        writeln!(
            file,
            "{name},{},{},{},{},{:.3},{:.3}",
            s.weight,
            s.submitted,
            s.admitted,
            s.completed,
            s.mean_queue_wait_s,
            s.mean_turnaround_s
        )
        .unwrap();
    }
}
