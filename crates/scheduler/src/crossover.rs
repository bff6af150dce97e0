//! Calibration-crossover handling (§7): if a generated schedule spans a
//! calibration cycle boundary, the jobs that would run *after* the calibration
//! update are partitioned off so that their fidelity/runtime estimates can be
//! recomputed with the new calibration data and the jobs reassigned or delayed.

/// One scheduled job with its planned start time on its assigned QPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedJob {
    /// Job identifier.
    pub job_id: u64,
    /// Index of the QPU the job was assigned to.
    pub qpu_index: usize,
    /// Planned start time (simulated seconds).
    pub start_s: f64,
    /// Planned execution duration in seconds.
    pub duration_s: f64,
}

impl PlannedJob {
    /// Planned finish time.
    pub fn finish_s(&self) -> f64 {
        self.start_s + self.duration_s
    }
}

/// The partition of a schedule at a calibration boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossoverPartition {
    /// Jobs that complete entirely before the calibration boundary: keep as-is.
    pub before: Vec<PlannedJob>,
    /// Jobs that start before but finish after the boundary: they straddle the
    /// calibration update and are conservatively re-evaluated as well.
    pub straddling: Vec<PlannedJob>,
    /// Jobs that start after the boundary: must be re-estimated with the new
    /// calibration data and reassigned or delayed.
    pub after: Vec<PlannedJob>,
}

#[cfg(test)]
impl CrossoverPartition {
    /// `true` if any job needs re-evaluation (straddles or follows the boundary).
    fn needs_reevaluation(&self) -> bool {
        !self.straddling.is_empty() || !self.after.is_empty()
    }

    /// Job IDs requiring fresh estimates from the resource estimator.
    fn jobs_to_reestimate(&self) -> Vec<u64> {
        self.straddling.iter().chain(self.after.iter()).map(|j| j.job_id).collect()
    }
}

/// Partition a planned schedule at a calibration boundary time.
pub fn partition_at_boundary(schedule: &[PlannedJob], boundary_s: f64) -> CrossoverPartition {
    let mut before = Vec::new();
    let mut straddling = Vec::new();
    let mut after = Vec::new();
    for job in schedule {
        if job.finish_s() <= boundary_s {
            before.push(*job);
        } else if job.start_s < boundary_s {
            straddling.push(*job);
        } else {
            after.push(*job);
        }
    }
    CrossoverPartition { before, straddling, after }
}

/// Build the planned per-QPU timeline of an assignment: jobs run back-to-back
/// on their assigned QPU after its current queue drains.
pub(crate) fn plan_timeline(
    assignment: &[(u64, usize, f64)], // (job_id, qpu_index, duration_s)
    qpu_waiting_s: &[f64],
    now_s: f64,
) -> Vec<PlannedJob> {
    let mut next_free: Vec<f64> = qpu_waiting_s.iter().map(|w| now_s + w).collect();
    let mut planned = Vec::with_capacity(assignment.len());
    for &(job_id, qpu, duration_s) in assignment {
        let start = next_free[qpu];
        planned.push(PlannedJob { job_id, qpu_index: qpu, start_s: start, duration_s });
        next_free[qpu] = start + duration_s;
    }
    planned
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_classifies_before_straddling_after() {
        let schedule = vec![
            PlannedJob { job_id: 1, qpu_index: 0, start_s: 0.0, duration_s: 50.0 },
            PlannedJob { job_id: 2, qpu_index: 0, start_s: 80.0, duration_s: 50.0 },
            PlannedJob { job_id: 3, qpu_index: 1, start_s: 150.0, duration_s: 20.0 },
        ];
        let partition = partition_at_boundary(&schedule, 100.0);
        assert_eq!(partition.before.len(), 1);
        assert_eq!(partition.straddling.len(), 1);
        assert_eq!(partition.after.len(), 1);
        assert!(partition.needs_reevaluation());
        assert_eq!(partition.jobs_to_reestimate(), vec![2, 3]);
    }

    #[test]
    fn schedule_entirely_before_boundary_needs_no_work() {
        let schedule = vec![PlannedJob { job_id: 1, qpu_index: 0, start_s: 0.0, duration_s: 10.0 }];
        let partition = partition_at_boundary(&schedule, 1000.0);
        assert!(!partition.needs_reevaluation());
        assert!(partition.jobs_to_reestimate().is_empty());
    }

    #[test]
    fn timeline_respects_queue_waits_and_serialises_per_qpu() {
        let assignment = vec![(1u64, 0usize, 10.0), (2, 0, 20.0), (3, 1, 5.0)];
        let planned = plan_timeline(&assignment, &[30.0, 0.0], 100.0);
        assert_eq!(planned[0].start_s, 130.0);
        assert_eq!(planned[1].start_s, 140.0);
        assert_eq!(planned[1].finish_s(), 160.0);
        assert_eq!(planned[2].start_s, 100.0);
    }

    #[test]
    fn boundary_exactly_at_finish_keeps_job_before() {
        let schedule =
            vec![PlannedJob { job_id: 1, qpu_index: 0, start_s: 0.0, duration_s: 100.0 }];
        let partition = partition_at_boundary(&schedule, 100.0);
        assert_eq!(partition.before.len(), 1);
        assert!(partition.straddling.is_empty());
        assert!(partition.after.is_empty());
        assert!(!partition.needs_reevaluation());
    }

    /// A job *starting* exactly at the boundary runs entirely under the new
    /// calibration: it belongs to `after`, not `straddling`.
    #[test]
    fn boundary_exactly_at_start_moves_job_after() {
        let schedule =
            vec![PlannedJob { job_id: 7, qpu_index: 2, start_s: 100.0, duration_s: 10.0 }];
        let partition = partition_at_boundary(&schedule, 100.0);
        assert!(partition.before.is_empty());
        assert!(partition.straddling.is_empty());
        assert_eq!(partition.after.len(), 1);
        assert_eq!(partition.jobs_to_reestimate(), vec![7]);
    }

    /// A zero-duration job exactly at the boundary finishes at the boundary —
    /// `finish <= boundary` wins, so it stays `before` (it never executes
    /// under the new calibration).
    #[test]
    fn zero_duration_job_at_the_boundary_stays_before() {
        let schedule =
            vec![PlannedJob { job_id: 3, qpu_index: 0, start_s: 100.0, duration_s: 0.0 }];
        let partition = partition_at_boundary(&schedule, 100.0);
        assert_eq!(partition.before.len(), 1);
        assert!(!partition.needs_reevaluation());
    }

    #[test]
    fn empty_schedule_partitions_to_nothing() {
        let partition = partition_at_boundary(&[], 50.0);
        assert!(partition.before.is_empty());
        assert!(partition.straddling.is_empty());
        assert!(partition.after.is_empty());
        assert!(!partition.needs_reevaluation());
        assert!(partition.jobs_to_reestimate().is_empty());
    }

    #[test]
    fn schedule_entirely_after_boundary_reestimates_everything() {
        let schedule = vec![
            PlannedJob { job_id: 1, qpu_index: 0, start_s: 10.0, duration_s: 5.0 },
            PlannedJob { job_id: 2, qpu_index: 1, start_s: 20.0, duration_s: 5.0 },
        ];
        let partition = partition_at_boundary(&schedule, 10.0);
        assert!(partition.before.is_empty());
        assert!(partition.straddling.is_empty());
        assert_eq!(partition.after.len(), 2);
        assert_eq!(partition.jobs_to_reestimate(), vec![1, 2]);
    }

    /// The partition is exhaustive and exclusive: every input job lands in
    /// exactly one bucket, whatever the boundary.
    #[test]
    fn partition_conserves_jobs_across_boundaries() {
        let schedule: Vec<PlannedJob> = (0..20)
            .map(|i| PlannedJob {
                job_id: i,
                qpu_index: (i % 3) as usize,
                start_s: (i as f64) * 7.5,
                duration_s: 1.0 + (i % 5) as f64 * 3.0,
            })
            .collect();
        for boundary in [-10.0, 0.0, 7.5, 40.0, 75.0, 1_000.0] {
            let partition = partition_at_boundary(&schedule, boundary);
            let mut ids: Vec<u64> = partition
                .before
                .iter()
                .chain(&partition.straddling)
                .chain(&partition.after)
                .map(|j| j.job_id)
                .collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..20).collect::<Vec<u64>>(), "boundary {boundary}");
        }
    }
}
