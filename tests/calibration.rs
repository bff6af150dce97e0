//! Calibration-aware dispatch end-to-end (§7): batches whose plan straddles
//! a recalibration boundary are split by the orchestrator's batch engine —
//! pre-boundary jobs dispatch unchanged, straddling/post-boundary jobs are
//! parked behind the boundary, re-estimated against the new epoch's
//! calibration, and re-dispatched in a later batch — with every split and
//! re-estimation journaled so a control-plane failover replays the decisions
//! byte for byte, and surfaced through the system monitor's batch and
//! re-estimation records.

mod common;

use qonductor::backend::Fleet;
use qonductor::circuit::generators::ghz;
use qonductor::core::{
    mitigated_execution_workflow, ClassicalKind, ClassicalStep, DeploymentConfig, Orchestrator,
    QuantumStep, Step, Workflow, WorkflowStatus,
};
use qonductor::mitigation::MitigationStack;
use qonductor::scheduler::{ClassicalNode, ClassicalRequest, ScheduleTrigger};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

fn drifting_orchestrator(seed: u64, period_s: f64) -> Orchestrator {
    let mut rng = StdRng::seed_from_u64(seed);
    // Boundaries every `period_s` seconds: comparable to the execution time
    // of a mitigated GHZ step (~0.2 s), so batch plans genuinely straddle.
    let fleet = Fleet::ibm_default(&mut rng).with_calibration_period(period_s, 0.0);
    let nodes = vec![ClassicalNode::standard_vm("vm-0"), ClassicalNode::standard_vm("vm-1")];
    Orchestrator::new(fleet, nodes, seed)
}

/// The §7 acceptance path, end-to-end through the orchestrator: a wave of
/// quantum steps whose batch plan crosses the fleet's recalibration boundary
/// is split — the pre-boundary jobs dispatch in the first batch, the deferred
/// jobs are re-estimated against the post-boundary epoch and re-dispatched in
/// a *later* batch — and every run still completes.
#[test]
fn straddling_wave_is_split_reestimated_and_redispatched() {
    // 12 GHZ(20) steps fit only the six 27-qubit Falcons: two jobs per QPU,
    // and the second job on each device crosses the 0.3 s boundary.
    let orchestrator = drifting_orchestrator(11, 0.3).with_trigger(ScheduleTrigger::new(12, 60.0));
    let image = orchestrator.create_workflow(
        mitigated_execution_workflow(
            "drift-wave",
            ghz(20),
            MitigationStack::listing2(),
            ClassicalRequest::small(),
        ),
        DeploymentConfig::default(),
    );
    let runs: Vec<_> = orchestrator.invoke_many(&[image; 12]);
    for run in &runs {
        let run = *run.as_ref().expect("run completes");
        assert_eq!(orchestrator.workflow_status(run), Some(WorkflowStatus::Completed));
    }

    // At least one batch was split at a boundary, and the deferred jobs were
    // re-estimated against the new epoch (both surfaced via the monitor).
    let batches = orchestrator.monitor().schedule_batches();
    let splits: Vec<_> = batches.iter().filter(|b| !b.deferred_jobs.is_empty()).collect();
    assert!(!splits.is_empty(), "a batch plan must have crossed the boundary");
    let deferred: HashSet<u64> =
        splits.iter().flat_map(|s| s.deferred_jobs.iter().copied()).collect();
    assert!(!deferred.is_empty());
    let passes = orchestrator.monitor().reestimations();
    assert!(!passes.is_empty(), "deferred jobs must be re-estimated post-boundary");
    let reestimated: HashSet<u64> = passes.iter().flat_map(|p| p.job_ids.iter().copied()).collect();
    assert!(
        deferred.iter().any(|id| reestimated.contains(id)),
        "a deferred job must be re-estimated: deferred {deferred:?}, reestimated {reestimated:?}"
    );
    for pass in &passes {
        assert!(pass.fleet_epoch > 0, "re-estimation happens against a post-boundary epoch");
    }

    // The split produced *later* batches: deferred jobs re-dispatched after
    // the batch that deferred them.
    assert!(batches.len() >= 2, "deferred jobs re-dispatch in a later batch");
    let first_split = splits[0].batch_index;
    assert!(
        batches.iter().any(|b| b.batch_index > first_split),
        "a batch after the split must exist"
    );

    // The split decisions are journaled: a leader crash + failover rebuilds
    // the control plane byte for byte (deferral counters, hold times, and
    // refreshed estimates included).
    let digest = orchestrator.control_digest();
    orchestrator.failover().expect("failover succeeds");
    assert_eq!(orchestrator.control_digest(), digest, "split decisions replay byte-for-byte");
}

/// Plan-time calibration freshness (the `pick_plan` staleness fix): a
/// workflow whose long classical stage pushes its quantum step past a
/// recalibration boundary submits with estimates from the *current* epoch —
/// observable as a non-zero calibration epoch on every QPU — instead of planning against the epoch-0 snapshot forever.
#[test]
fn plan_time_calibration_context_tracks_the_epoch_clock() {
    let orchestrator = drifting_orchestrator(7, 600.0);
    let mut wf = Workflow::new("slow-then-quantum");
    wf.add_chained(Step::Classical(ClassicalStep {
        name: "long-preprocess".into(),
        kind: ClassicalKind::PreProcessing,
        request: ClassicalRequest::small(),
        // Three full calibration periods pass before the quantum step.
        estimated_duration_s: 1900.0,
    }));
    wf.add_chained(Step::Quantum(QuantumStep {
        name: "execute".into(),
        circuit: ghz(8),
        mitigation: MitigationStack::none(),
    }));
    let image = orchestrator.create_workflow(wf, DeploymentConfig::default());
    let run = orchestrator.invoke(image).unwrap();
    assert_eq!(orchestrator.workflow_status(run), Some(WorkflowStatus::Completed));

    // Every QPU carries the advanced epoch: the quantum step was estimated
    // and planned against epoch ≥ 3, not the stale epoch-0 calibration the
    // fleet started with.
    let cycles: Vec<u64> =
        orchestrator.qpu_states().iter().map(|qpu| qpu.calibration_epoch).collect();
    assert_eq!(cycles.len(), 8);
    assert!(
        cycles.iter().all(|&c| c >= 3),
        "plan-time calibration must come from the epoch clock, got cycles {cycles:?}"
    );
}
