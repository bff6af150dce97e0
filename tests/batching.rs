//! Integration tests of the trigger-driven batch execution engine (§7): the
//! orchestrator submits workflows into the shared `JobManager` pool, the
//! `ScheduleTrigger` gates every NSGA-II + MCDM invocation (queue-size and
//! interval paths), jobs submitted together share one scheduler invocation,
//! and every dispatched batch is observable through the `SystemMonitor`.

mod common;

use qonductor::circuit::generators::ghz;
use qonductor::core::{DeploymentConfig, Orchestrator, ReplicatedControlPlane, WorkflowStatus};
use qonductor::mitigation::MitigationStack;
use qonductor::scheduler::{ClassicalRequest, ScheduleTrigger, TriggerReason};

fn ghz_image(orchestrator: &Orchestrator, n: u32) -> qonductor::core::ImageId {
    let wf = qonductor::core::mitigated_execution_workflow(
        format!("ghz{n}"),
        ghz(n),
        MitigationStack::none(),
        ClassicalRequest::small(),
    );
    orchestrator.create_workflow(wf, DeploymentConfig::default())
}

#[test]
fn queue_size_trigger_batches_concurrent_workflows() {
    // Queue limit 4, interval effectively never: only the queue-size path can
    // dispatch, so the four workflows must ride one batch.
    let orchestrator =
        Orchestrator::with_default_cluster(11).with_trigger(ScheduleTrigger::new(4, 1e9));
    let images: Vec<_> = (0..4).map(|i| ghz_image(&orchestrator, 6 + i)).collect();
    let run_ids: Vec<_> = orchestrator
        .invoke_many(&images)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("all four invocations succeed");
    assert_eq!(run_ids.len(), 4);

    let batches = orchestrator.monitor().schedule_batches();
    assert_eq!(batches.len(), 1, "four jobs at limit 4 must share one scheduler invocation");
    assert_eq!(batches[0].reason, TriggerReason::QueueSize);
    assert_eq!(batches[0].num_jobs, 4);

    // Results match run ids: every run completed with its own quantum step.
    for (&run_id, &image_id) in run_ids.iter().zip(&images) {
        assert_eq!(orchestrator.workflow_status(run_id), Some(WorkflowStatus::Completed));
        let result = orchestrator.workflow_results(run_id).expect("result recorded");
        assert_eq!(result.run_id, run_id);
        assert_eq!(result.image_id, image_id);
        assert_eq!(result.quantum_steps.len(), 1);
        assert!(result.mean_fidelity() > 0.0);
        assert!(result.completion_s > 0.0);
    }
    // Distinct monotonic run ids.
    let mut sorted = run_ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 4);
}

#[test]
fn interval_trigger_schedules_a_lone_workflow() {
    // Queue limit far above the submission count: only the interval path can
    // fire, after the 60 s period elapses in simulated time.
    let orchestrator =
        Orchestrator::with_default_cluster(12).with_trigger(ScheduleTrigger::new(100, 60.0));
    let image = ghz_image(&orchestrator, 8);
    let run = orchestrator.invoke(image).expect("invoke succeeds");

    let batches = orchestrator.monitor().schedule_batches();
    assert_eq!(batches.len(), 1);
    assert_eq!(batches[0].reason, TriggerReason::Interval);
    assert_eq!(batches[0].num_jobs, 1);
    assert!(batches[0].t_s >= 60.0, "interval fires at the period boundary");

    let result = orchestrator.workflow_results(run).unwrap();
    // The run waited for the trigger: completion includes the interval wait.
    assert!(result.completion_s >= 60.0 - 1e-9, "completion {}", result.completion_s);
}

#[test]
fn both_trigger_paths_fire_across_a_session() {
    let orchestrator =
        Orchestrator::with_default_cluster(13).with_trigger(ScheduleTrigger::new(3, 45.0));
    // Wave 1: three workflows hit the queue-size limit together.
    let wave: Vec<_> = (0..3).map(|_| ghz_image(&orchestrator, 7)).collect();
    let wave_runs: Vec<_> = orchestrator
        .invoke_many(&wave)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("wave succeeds");
    // Wave 2: a lone workflow must wait for the interval.
    let lone = ghz_image(&orchestrator, 9);
    let lone_run = orchestrator.invoke(lone).expect("lone invoke succeeds");

    let batches = orchestrator.monitor().schedule_batches();
    assert_eq!(batches.len(), 2);
    let reasons: Vec<_> = batches.iter().map(|b| b.reason).collect();
    assert!(reasons.contains(&TriggerReason::QueueSize), "reasons: {reasons:?}");
    assert!(reasons.contains(&TriggerReason::Interval), "reasons: {reasons:?}");
    // Batch indices are monotonic and sizes match the submission waves.
    assert_eq!(batches[0].batch_index, 0);
    assert_eq!(batches[1].batch_index, 1);
    assert_eq!(batches[0].num_jobs, 3);
    assert_eq!(batches[1].num_jobs, 1);
    assert!(batches[0].t_s <= batches[1].t_s);

    for run_id in wave_runs.iter().copied().chain([lone_run]) {
        assert_eq!(orchestrator.workflow_status(run_id), Some(WorkflowStatus::Completed));
        assert!(orchestrator.workflow_results(run_id).is_ok());
    }
}

/// Regression: an interval expiry over an idle pool — empty, or holding only
/// jobs submitted later in simulated time — must not emit an empty
/// `BatchRecord` or advance the batch index. The first real batch still gets
/// index 0.
#[test]
fn idle_interval_firing_emits_no_empty_batch() {
    let mut fleet = common::small_fleet(16);
    let scheduler = common::small_scheduler(8, 4, 240);
    let spec = common::feasible_spec(&fleet, 5, 10.0);
    let mut plane = ReplicatedControlPlane::new(ScheduleTrigger::new(100, 60.0), 1, 16);
    let mut dispatch = |plane: &mut ReplicatedControlPlane, now: f64| {
        plane.try_dispatch(now, &scheduler, &mut fleet).expect("quorum").map(|o| o.record)
    };

    // Empty pool: the interval has elapsed many times over, yet nothing fires.
    for now in [60.0, 120.0, 600.0] {
        assert!(dispatch(&mut plane, now).is_none());
    }
    assert_eq!(plane.jobmanager().batches_dispatched(), 0, "no empty batch was emitted");

    // Pool holds only a job submitted later in simulated time: the interval
    // firing still has zero admitted jobs and must stay silent.
    let tenant = plane.register_tenant(1).unwrap();
    plane.submit(tenant, spec, 1000.0).unwrap();
    plane.admit(1000.0).unwrap();
    assert_eq!(plane.jobmanager().pending_len(), 1);
    assert!(plane.jobmanager().check_trigger(700.0).is_none());
    assert!(dispatch(&mut plane, 700.0).is_none());
    assert_eq!(plane.jobmanager().batches_dispatched(), 0);

    // Once the submission is causally present and a full interval has passed
    // since it armed the timer (t=1000), the batch fires with index 0.
    assert!(dispatch(&mut plane, 1000.0).is_none(), "interval not yet elapsed");
    let batch = dispatch(&mut plane, 1060.0).expect("job is now schedulable");
    assert_eq!(batch.batch_index, 0);
    assert_eq!(batch.job_ids.len(), 1);
    assert_eq!(plane.jobmanager().batches_dispatched(), 1);
}

#[test]
fn infeasible_plan_is_reported_not_fabricated() {
    // A 40-qubit circuit exceeds every template QPU: estimation yields no
    // plan, and invoke must surface NoFeasiblePlan instead of silently
    // executing with a fabricated zero-fidelity plan.
    let orchestrator = Orchestrator::with_default_cluster(14);
    let image = ghz_image(&orchestrator, 40);
    let err = orchestrator.invoke(image).unwrap_err();
    assert_eq!(err, qonductor::core::OrchestratorError::NoFeasiblePlan);
    // No batch was dispatched for the doomed run.
    assert!(orchestrator.monitor().schedule_batches().is_empty());
}

#[test]
fn mixed_feasibility_batch_completes_the_feasible_runs() {
    let orchestrator =
        Orchestrator::with_default_cluster(15).with_trigger(ScheduleTrigger::new(2, 1e9));
    let ok_a = ghz_image(&orchestrator, 6);
    let bad = ghz_image(&orchestrator, 40);
    let ok_b = ghz_image(&orchestrator, 10);
    let results = orchestrator.invoke_many(&[ok_a, bad, ok_b]);
    assert!(results[0].is_ok());
    assert_eq!(results[1], Err(qonductor::core::OrchestratorError::NoFeasiblePlan));
    assert!(results[2].is_ok());
    let batches = orchestrator.monitor().schedule_batches();
    assert_eq!(batches.len(), 1);
    assert_eq!(batches[0].num_jobs, 2, "only the feasible jobs reach the scheduler");
}
