//! The system monitor (§4): what the orchestrator observed that no other
//! component keeps — a status per workflow run, one record per dispatched
//! scheduling batch and one per re-estimation pass. Job and tenant state live
//! in the journaled control plane, results and estimate-cache counts in the
//! orchestrator, and QPU state in the fleet; the orchestrator reads those at
//! their source.

use crate::jobmanager::{JobId, TenantId};
use parking_lot::Mutex;
use qonductor_scheduler::TriggerReason;

/// Execution status of a workflow run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkflowStatus {
    /// Accepted but not yet scheduled.
    Pending,
    /// Currently executing.
    Running,
    /// Finished successfully.
    Completed,
    /// Failed (e.g. no feasible QPU).
    Failed,
}

/// The orchestrator's in-process record of runs, batches and re-estimations.
#[derive(Debug, Default)]
pub struct SystemMonitor {
    records: Mutex<Records>,
}

#[derive(Debug, Default)]
struct Records {
    /// Indexed by run id (run ids are dense from 0).
    statuses: Vec<Option<WorkflowStatus>>,
    batches: Vec<BatchObservation>,
    reestimations: Vec<ReestimationObservation>,
}

impl SystemMonitor {
    /// Update a workflow run's execution status.
    pub(crate) fn set_workflow_status(&self, run_id: u64, status: WorkflowStatus) {
        let mut records = self.records.lock();
        let index = usize::try_from(run_id).expect("run ids fit in memory");
        if records.statuses.len() <= index {
            records.statuses.resize(index + 1, None);
        }
        records.statuses[index] = Some(status);
    }

    /// Read a workflow run's execution status.
    pub fn workflow_status(&self, run_id: u64) -> Option<WorkflowStatus> {
        let index = usize::try_from(run_id).ok()?;
        self.records.lock().statuses.get(index).copied().flatten()
    }

    /// Record one dispatched scheduling batch.
    pub(crate) fn record_schedule_batch(&self, batch: BatchObservation) {
        self.records.lock().batches.push(batch);
    }

    /// All recorded scheduling batches, in dispatch order.
    pub fn schedule_batches(&self) -> Vec<BatchObservation> {
        self.records.lock().batches.clone()
    }

    /// Record one post-boundary re-estimation pass: the jobs whose estimate
    /// tables were recomputed against the new fleet calibration epoch.
    pub(crate) fn record_reestimation(&self, t_s: f64, fleet_epoch: u64, job_ids: Vec<JobId>) {
        let mut records = self.records.lock();
        let pass_index = records.reestimations.len();
        records.reestimations.push(ReestimationObservation {
            pass_index,
            t_s,
            fleet_epoch,
            job_ids,
        });
    }

    /// All recorded re-estimation passes, in pass order.
    pub fn reestimations(&self) -> Vec<ReestimationObservation> {
        self.records.lock().reestimations.clone()
    }
}

/// A post-boundary re-estimation pass as observed through the monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct ReestimationObservation {
    /// Zero-based pass index.
    pub pass_index: usize,
    /// Simulated time of the pass.
    pub t_s: f64,
    /// Fleet-wide calibration epoch the estimates were refreshed to.
    pub fleet_epoch: u64,
    /// Jobs whose estimate tables were recomputed.
    pub job_ids: Vec<JobId>,
}

/// A scheduling batch as observed through the monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchObservation {
    /// Zero-based dispatch index.
    pub batch_index: usize,
    /// Simulated time of the dispatch.
    pub t_s: f64,
    /// Why the scheduling trigger fired.
    pub reason: TriggerReason,
    /// Number of jobs handed to the scheduler in the batch.
    pub num_jobs: usize,
    /// Per-tenant composition (`(tenant, job count)`, ascending tenant order).
    pub tenant_jobs: Vec<(TenantId, usize)>,
    /// Fleet-wide calibration epoch at dispatch.
    pub fleet_epoch: u64,
    /// Jobs pulled out of the batch because their plan crossed a
    /// recalibration boundary (§7), parked for re-estimation; empty unless
    /// the batch was split.
    pub deferred_jobs: Vec<JobId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(batch_index: usize, t_s: f64, reason: TriggerReason) -> BatchObservation {
        BatchObservation {
            batch_index,
            t_s,
            reason,
            num_jobs: 0,
            tenant_jobs: Vec::new(),
            fleet_epoch: 0,
            deferred_jobs: Vec::new(),
        }
    }

    #[test]
    fn workflow_status_lifecycle() {
        let monitor = SystemMonitor::default();
        assert!(monitor.workflow_status(7).is_none());
        monitor.set_workflow_status(7, WorkflowStatus::Pending);
        assert!(monitor.workflow_status(3).is_none(), "a lower run id stays unknown");
        monitor.set_workflow_status(7, WorkflowStatus::Running);
        assert_eq!(monitor.workflow_status(7), Some(WorkflowStatus::Running));
        monitor.set_workflow_status(7, WorkflowStatus::Completed);
        assert_eq!(monitor.workflow_status(7), Some(WorkflowStatus::Completed));
        assert!(monitor.workflow_status(u64::MAX).is_none());
    }

    #[test]
    fn schedule_batches_roundtrip_in_order() {
        let monitor = SystemMonitor::default();
        assert!(monitor.schedule_batches().is_empty());
        let first = BatchObservation {
            num_jobs: 3,
            tenant_jobs: vec![(0, 3)],
            ..batch(0, 120.0, TriggerReason::Interval)
        };
        let second = BatchObservation {
            num_jobs: 100,
            tenant_jobs: vec![(0, 60), (2, 40)],
            ..batch(1, 150.5, TriggerReason::QueueSize)
        };
        monitor.record_schedule_batch(first.clone());
        monitor.record_schedule_batch(second.clone());
        assert_eq!(monitor.schedule_batches(), vec![first, second]);
    }

    #[test]
    fn calibration_split_and_reestimation_roundtrip() {
        let monitor = SystemMonitor::default();
        assert!(monitor.reestimations().is_empty());
        let split = BatchObservation {
            fleet_epoch: 8,
            deferred_jobs: vec![12, 15],
            ..batch(3, 3590.5, TriggerReason::SloSlack)
        };
        monitor.record_schedule_batch(batch(2, 3500.0, TriggerReason::Interval));
        monitor.record_schedule_batch(split.clone());
        monitor.record_reestimation(3600.0, 16, vec![12, 15]);
        monitor.record_reestimation(7200.0, 24, vec![20]);
        let splits: Vec<_> = monitor
            .schedule_batches()
            .into_iter()
            .filter(|b| !b.deferred_jobs.is_empty())
            .collect();
        assert_eq!(splits, vec![split]);
        let passes = monitor.reestimations();
        assert_eq!(passes.len(), 2);
        assert_eq!(passes[0].pass_index, 0);
        assert_eq!(passes[0].job_ids, vec![12, 15]);
        assert_eq!(passes[0].fleet_epoch, 16);
        assert_eq!((passes[1].pass_index, passes[1].t_s), (1, 7200.0));
    }
}
