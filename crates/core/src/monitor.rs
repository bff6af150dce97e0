//! The system monitor (§4): a typed facade over the replicated key-value store
//! that persists the complete system state — worker/QPU static and dynamic
//! information, workflow execution status, and results.

use crate::estimate_cache::{EstimateCacheStats, ProductStats};
use crate::jobmanager::TenantId;
use crate::submission::TenantStats;
use qonductor_consensus::{ReplicatedKvStore, StoreError};
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

impl WorkflowStatus {
    fn as_str(&self) -> &'static str {
        match self {
            WorkflowStatus::Pending => "pending",
            WorkflowStatus::Running => "running",
            WorkflowStatus::Completed => "completed",
            WorkflowStatus::Failed => "failed",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "pending" => Some(WorkflowStatus::Pending),
            "running" => Some(WorkflowStatus::Running),
            "completed" => Some(WorkflowStatus::Completed),
            "failed" => Some(WorkflowStatus::Failed),
            _ => None,
        }
    }
}

/// Typed system-monitor facade over the replicated datastore.
#[derive(Debug, Clone)]
pub struct SystemMonitor {
    store: ReplicatedKvStore,
}

impl Default for SystemMonitor {
    fn default() -> Self {
        Self::new(1)
    }
}

impl SystemMonitor {
    /// Create a monitor replicated over `2f + 1` replicas (default `f = 1`).
    pub fn new(fault_tolerance: usize) -> Self {
        SystemMonitor { store: ReplicatedKvStore::new(fault_tolerance) }
    }

    /// The underlying replicated store.
    pub fn store(&self) -> &ReplicatedKvStore {
        &self.store
    }

    /// Record a QPU's static information.
    pub fn record_qpu_static(
        &self,
        name: &str,
        num_qubits: u32,
        model: &str,
    ) -> Result<(), StoreError> {
        self.store.put(format!("qpu/{name}/static"), format!("{num_qubits},{model}"))
    }

    /// Record a QPU's dynamic information (queue length, estimated waiting time,
    /// calibration cycle).
    pub fn record_qpu_dynamic(
        &self,
        name: &str,
        queue_len: usize,
        waiting_s: f64,
        calibration_cycle: u64,
    ) -> Result<(), StoreError> {
        self.store.put(
            format!("qpu/{name}/dynamic"),
            format!("{queue_len},{waiting_s:.3},{calibration_cycle}"),
        )
    }

    /// All QPU names known to the monitor.
    pub fn qpu_names(&self) -> Vec<String> {
        self.store
            .keys_with_prefix("qpu/")
            .into_iter()
            .filter_map(|k| k.split('/').nth(1).map(|s| s.to_string()))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect()
    }

    /// The recorded waiting time of a QPU (seconds), if known.
    pub fn qpu_waiting_s(&self, name: &str) -> Option<f64> {
        let value = self.store.get(&format!("qpu/{name}/dynamic")).ok()?;
        value.split(',').nth(1)?.parse().ok()
    }

    /// The last recorded calibration cycle (epoch) of a QPU, if known.
    pub fn qpu_calibration_cycle(&self, name: &str) -> Option<u64> {
        let value = self.store.get(&format!("qpu/{name}/dynamic")).ok()?;
        value.split(',').nth(2)?.parse().ok()
    }

    /// Update a workflow run's execution status.
    pub fn set_workflow_status(
        &self,
        run_id: u64,
        status: WorkflowStatus,
    ) -> Result<(), StoreError> {
        self.store.put(format!("workflow/{run_id}/status"), status.as_str())
    }

    /// Read a workflow run's execution status.
    pub fn workflow_status(&self, run_id: u64) -> Option<WorkflowStatus> {
        self.store
            .get(&format!("workflow/{run_id}/status"))
            .ok()
            .and_then(|s| WorkflowStatus::from_str(&s))
    }

    /// Store a workflow run's (serialised) result payload.
    pub fn set_workflow_result(&self, run_id: u64, payload: &str) -> Result<(), StoreError> {
        self.store.put(format!("workflow/{run_id}/result"), payload)
    }

    /// Read a workflow run's result payload.
    pub fn workflow_result(&self, run_id: u64) -> Option<String> {
        self.store.get(&format!("workflow/{run_id}/result")).ok()
    }

    /// Record one dispatched scheduling batch (trigger reason, time, size,
    /// per-tenant composition).
    pub fn record_schedule_batch(
        &self,
        batch_index: usize,
        t_s: f64,
        reason: TriggerReason,
        num_jobs: usize,
        tenant_jobs: &[(TenantId, usize)],
    ) -> Result<(), StoreError> {
        let reason = match reason {
            TriggerReason::QueueSize => "queue_size",
            TriggerReason::SloSlack => "slo_slack",
            TriggerReason::Interval => "interval",
        };
        let composition = tenant_jobs
            .iter()
            .map(|(tenant, count)| format!("{tenant}:{count}"))
            .collect::<Vec<_>>()
            .join("|");
        self.store.put(
            format!("scheduler/batch/{batch_index:08}"),
            format!("{t_s:.3},{reason},{num_jobs},{composition}"),
        )
    }

    /// All recorded scheduling batches, in dispatch order.
    pub fn schedule_batches(&self) -> Vec<BatchObservation> {
        let mut keys = self.store.keys_with_prefix("scheduler/batch/");
        keys.sort();
        keys.into_iter()
            .filter_map(|key| {
                let index: usize = key.rsplit('/').next()?.parse().ok()?;
                let value = self.store.get(&key).ok()?;
                let mut parts = value.split(',');
                Some(BatchObservation {
                    batch_index: index,
                    t_s: parts.next()?.parse().ok()?,
                    reason: match parts.next()? {
                        "queue_size" => TriggerReason::QueueSize,
                        "slo_slack" => TriggerReason::SloSlack,
                        "interval" => TriggerReason::Interval,
                        _ => return None,
                    },
                    num_jobs: parts.next()?.parse().ok()?,
                    tenant_jobs: parts.next().map(parse_tenant_composition).unwrap_or_default(),
                })
            })
            .collect()
    }

    /// Write one epoch-stamped job-id record (`t_s,epoch,id|id|…`) — the
    /// shared codec of the calibration-split and re-estimation observations.
    fn put_epoch_record(
        &self,
        prefix: &str,
        index: usize,
        t_s: f64,
        fleet_epoch: u64,
        job_ids: &[u64],
    ) -> Result<(), StoreError> {
        let jobs = job_ids.iter().map(u64::to_string).collect::<Vec<_>>().join("|");
        self.store.put(format!("{prefix}{index:08}"), format!("{t_s:.3},{fleet_epoch},{jobs}"))
    }

    /// Read back every [`Self::put_epoch_record`] under `prefix`, in index
    /// order, as `(index, t_s, fleet_epoch, job ids)` tuples.
    fn epoch_records(&self, prefix: &str) -> Vec<(usize, f64, u64, Vec<u64>)> {
        let mut keys = self.store.keys_with_prefix(prefix);
        keys.sort();
        keys.into_iter()
            .filter_map(|key| {
                let index: usize = key.rsplit('/').next()?.parse().ok()?;
                let value = self.store.get(&key).ok()?;
                let mut parts = value.split(',');
                let t_s = parts.next()?.parse().ok()?;
                let fleet_epoch = parts.next()?.parse().ok()?;
                let job_ids = parts
                    .next()
                    .map(|jobs| jobs.split('|').filter_map(|id| id.parse().ok()).collect())
                    .unwrap_or_default();
                Some((index, t_s, fleet_epoch, job_ids))
            })
            .collect()
    }

    /// Record one calibration-crossover split (§7): a dispatched batch whose
    /// plan crossed a recalibration boundary, with the deferred job ids.
    pub fn record_calibration_split(
        &self,
        batch_index: usize,
        t_s: f64,
        fleet_epoch: u64,
        deferred_jobs: &[u64],
    ) -> Result<(), StoreError> {
        self.put_epoch_record("scheduler/split/", batch_index, t_s, fleet_epoch, deferred_jobs)
    }

    /// All recorded calibration splits, in dispatch order.
    pub fn calibration_splits(&self) -> Vec<SplitObservation> {
        self.epoch_records("scheduler/split/")
            .into_iter()
            .map(|(batch_index, t_s, fleet_epoch, deferred_jobs)| SplitObservation {
                batch_index,
                t_s,
                fleet_epoch,
                deferred_jobs,
            })
            .collect()
    }

    /// Record one post-boundary re-estimation pass: the jobs whose estimate
    /// tables were recomputed against the new fleet calibration epoch.
    pub fn record_reestimation(
        &self,
        pass_index: usize,
        t_s: f64,
        fleet_epoch: u64,
        job_ids: &[u64],
    ) -> Result<(), StoreError> {
        self.put_epoch_record("scheduler/reestimate/", pass_index, t_s, fleet_epoch, job_ids)
    }

    /// All recorded re-estimation passes, in pass order.
    pub fn reestimations(&self) -> Vec<ReestimationObservation> {
        self.epoch_records("scheduler/reestimate/")
            .into_iter()
            .map(|(pass_index, t_s, fleet_epoch, job_ids)| ReestimationObservation {
                pass_index,
                t_s,
                fleet_epoch,
                job_ids,
            })
            .collect()
    }

    /// Persist a tenant's submission-service accounting.
    pub fn record_tenant_stats(
        &self,
        tenant: TenantId,
        stats: &TenantStats,
    ) -> Result<(), StoreError> {
        self.store.put(
            format!("tenant/{tenant:08}/stats"),
            format!(
                "{},{},{},{},{},{},{},{:.3},{:.3},{}",
                stats.weight,
                stats.submitted,
                stats.admitted,
                stats.completed,
                stats.rejected,
                stats.queued,
                stats.in_flight,
                stats.mean_queue_wait_s,
                stats.mean_turnaround_s,
                stats.escalated
            ),
        )
    }

    /// Persist the orchestrator's estimate-cache accounting (one record per
    /// cached product, overwritten every invocation wave).
    pub fn record_estimate_cache_stats(
        &self,
        stats: &EstimateCacheStats,
    ) -> Result<(), StoreError> {
        for (product, s) in [("steps", stats.steps), ("plans", stats.plans)] {
            self.store.put(
                format!("estimate_cache/{product}"),
                format!("{},{},{},{}", s.hits, s.misses, s.stale_recomputes, s.evictions),
            )?;
        }
        Ok(())
    }

    /// Read back the persisted estimate-cache accounting.
    pub fn estimate_cache_stats(&self) -> Option<EstimateCacheStats> {
        let product = |name: &str| {
            let value = self.store.get(&format!("estimate_cache/{name}")).ok()?;
            let mut parts = value.split(',').map(|p| p.parse().ok());
            Some(ProductStats {
                hits: parts.next()??,
                misses: parts.next()??,
                stale_recomputes: parts.next()??,
                evictions: parts.next()??,
            })
        };
        Some(EstimateCacheStats { steps: product("steps")?, plans: product("plans")? })
    }

    /// Read back a tenant's persisted accounting.
    pub fn tenant_stats(&self, tenant: TenantId) -> Option<TenantStats> {
        let value = self.store.get(&format!("tenant/{tenant:08}/stats")).ok()?;
        let mut parts = value.split(',');
        Some(TenantStats {
            weight: parts.next()?.parse().ok()?,
            submitted: parts.next()?.parse().ok()?,
            admitted: parts.next()?.parse().ok()?,
            completed: parts.next()?.parse().ok()?,
            rejected: parts.next()?.parse().ok()?,
            queued: parts.next()?.parse().ok()?,
            in_flight: parts.next()?.parse().ok()?,
            mean_queue_wait_s: parts.next()?.parse().ok()?,
            mean_turnaround_s: parts.next()?.parse().ok()?,
            // Records written before SLO escalation existed omit the field.
            escalated: parts.next().and_then(|s| s.parse().ok()).unwrap_or(0),
        })
    }

    /// All tenant ids with persisted accounting, ascending.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        let mut ids: Vec<TenantId> = self
            .store
            .keys_with_prefix("tenant/")
            .into_iter()
            .filter_map(|k| k.split('/').nth(1)?.parse().ok())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// Parse a `tenant:count|tenant:count` composition field (empty ⇒ empty vec).
fn parse_tenant_composition(field: &str) -> Vec<(TenantId, usize)> {
    field
        .split('|')
        .filter_map(|pair| {
            let (tenant, count) = pair.split_once(':')?;
            Some((tenant.parse().ok()?, count.parse().ok()?))
        })
        .collect()
}

/// A calibration-crossover split as observed through the monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitObservation {
    /// Index of the batch whose plan crossed a boundary.
    pub batch_index: usize,
    /// Simulated time of the dispatch.
    pub t_s: f64,
    /// Fleet-wide calibration epoch at dispatch.
    pub fleet_epoch: u64,
    /// Jobs deferred past the boundary for re-estimation.
    pub deferred_jobs: Vec<u64>,
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
    pub job_ids: Vec<u64>,
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
    /// Per-tenant composition (`(tenant, job count)`, ascending tenant order;
    /// empty for records written before multi-tenant submission existed).
    pub tenant_jobs: Vec<(TenantId, usize)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qpu_records_roundtrip() {
        let monitor = SystemMonitor::default();
        monitor.record_qpu_static("ibm_cairo", 27, "falcon-r5.11").unwrap();
        monitor.record_qpu_dynamic("ibm_cairo", 12, 340.5, 3).unwrap();
        monitor.record_qpu_static("ibm_lagos", 7, "falcon-r5.11h").unwrap();
        let names = monitor.qpu_names();
        assert_eq!(names, vec!["ibm_cairo".to_string(), "ibm_lagos".to_string()]);
        assert!((monitor.qpu_waiting_s("ibm_cairo").unwrap() - 340.5).abs() < 1e-9);
        assert!(monitor.qpu_waiting_s("ibm_unknown").is_none());
    }

    #[test]
    fn workflow_status_lifecycle() {
        let monitor = SystemMonitor::default();
        assert!(monitor.workflow_status(7).is_none());
        monitor.set_workflow_status(7, WorkflowStatus::Pending).unwrap();
        monitor.set_workflow_status(7, WorkflowStatus::Running).unwrap();
        assert_eq!(monitor.workflow_status(7), Some(WorkflowStatus::Running));
        monitor.set_workflow_status(7, WorkflowStatus::Completed).unwrap();
        assert_eq!(monitor.workflow_status(7), Some(WorkflowStatus::Completed));
    }

    #[test]
    fn results_survive_replica_failure() {
        let monitor = SystemMonitor::new(1);
        monitor.set_workflow_result(1, "fidelity=0.93").unwrap();
        monitor.store().crash_replica(0);
        assert_eq!(monitor.workflow_result(1).unwrap(), "fidelity=0.93");
        monitor.set_workflow_result(2, "fidelity=0.88").unwrap();
        assert_eq!(monitor.workflow_result(2).unwrap(), "fidelity=0.88");
    }

    #[test]
    fn status_parsing_rejects_unknown_values() {
        assert_eq!(WorkflowStatus::from_str("running"), Some(WorkflowStatus::Running));
        assert_eq!(WorkflowStatus::from_str("bogus"), None);
    }

    #[test]
    fn schedule_batches_roundtrip_in_order() {
        let monitor = SystemMonitor::default();
        assert!(monitor.schedule_batches().is_empty());
        monitor.record_schedule_batch(0, 120.0, TriggerReason::Interval, 3, &[(0, 3)]).unwrap();
        monitor
            .record_schedule_batch(1, 150.5, TriggerReason::QueueSize, 100, &[(0, 60), (2, 40)])
            .unwrap();
        let batches = monitor.schedule_batches();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].batch_index, 0);
        assert_eq!(batches[0].reason, TriggerReason::Interval);
        assert_eq!(batches[0].num_jobs, 3);
        assert_eq!(batches[0].tenant_jobs, vec![(0, 3)]);
        assert!((batches[0].t_s - 120.0).abs() < 1e-9);
        assert_eq!(batches[1].reason, TriggerReason::QueueSize);
        assert_eq!(batches[1].num_jobs, 100);
        assert_eq!(batches[1].tenant_jobs, vec![(0, 60), (2, 40)]);
    }

    #[test]
    fn calibration_split_and_reestimation_roundtrip() {
        let monitor = SystemMonitor::default();
        assert!(monitor.calibration_splits().is_empty());
        assert!(monitor.reestimations().is_empty());
        monitor.record_calibration_split(3, 3590.5, 8, &[12, 15]).unwrap();
        monitor.record_calibration_split(5, 7190.0, 16, &[20]).unwrap();
        monitor.record_reestimation(0, 3600.0, 16, &[12, 15]).unwrap();
        let splits = monitor.calibration_splits();
        assert_eq!(splits.len(), 2);
        assert_eq!(splits[0].batch_index, 3);
        assert_eq!(splits[0].fleet_epoch, 8);
        assert_eq!(splits[0].deferred_jobs, vec![12, 15]);
        assert!((splits[1].t_s - 7190.0).abs() < 1e-9);
        let passes = monitor.reestimations();
        assert_eq!(passes.len(), 1);
        assert_eq!(passes[0].job_ids, vec![12, 15]);
        assert_eq!(passes[0].fleet_epoch, 16);
    }

    #[test]
    fn tenant_stats_roundtrip() {
        let monitor = SystemMonitor::default();
        assert!(monitor.tenant_stats(3).is_none());
        assert!(monitor.tenant_ids().is_empty());
        let stats = crate::submission::TenantStats {
            weight: 2,
            submitted: 40,
            admitted: 31,
            completed: 25,
            rejected: 1,
            queued: 10,
            in_flight: 4,
            mean_queue_wait_s: 12.5,
            mean_turnaround_s: 98.25,
            escalated: 3,
        };
        monitor.record_tenant_stats(3, &stats).unwrap();
        monitor.record_tenant_stats(1, &stats).unwrap();
        assert_eq!(monitor.tenant_ids(), vec![1, 3]);
        let back = monitor.tenant_stats(3).unwrap();
        assert_eq!(back.weight, 2);
        assert_eq!(back.submitted, 40);
        assert_eq!(back.admitted, 31);
        assert_eq!(back.completed, 25);
        assert_eq!(back.rejected, 1);
        assert_eq!(back.queued, 10);
        assert_eq!(back.in_flight, 4);
        assert!((back.mean_queue_wait_s - 12.5).abs() < 1e-9);
        assert!((back.mean_turnaround_s - 98.25).abs() < 1e-9);
        assert_eq!(back.escalated, 3);
    }
}
