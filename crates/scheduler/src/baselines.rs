//! Baseline scheduling policies used by the evaluation (§8.1): First-Come-
//! First-Serve onto the user-preferred (highest-fidelity) QPU — the "standard
//! practice in the current quantum cloud" — plus the least-busy policy offered
//! by IBM's runtime and a fidelity-greedy policy.

use crate::problem::SchedulingProblem;

/// Single-objective baseline policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselinePolicy {
    /// Every job goes to the feasible QPU with the highest estimated fidelity
    /// (what users do manually today; creates the hotspots of Figure 2c).
    FidelityGreedy,
    /// Every job goes to the feasible QPU with the smallest current waiting
    /// time (IBM's `least_busy`).
    LeastBusy,
    /// Round-robin across feasible QPUs in arrival order.
    RoundRobin,
}

/// Compute a baseline assignment (job index → QPU index) for a problem.
pub fn assign(problem: &SchedulingProblem, policy: BaselinePolicy) -> Vec<usize> {
    // Track the load each QPU accumulates during this cycle so that
    // tie-breaking is stable and round-robin distributes evenly.
    let mut cycle_load = vec![0.0f64; problem.num_qpus()];
    let mut rr_cursor = 0usize;
    problem
        .jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let feasible = problem.feasible_qpus(i);
            if feasible.is_empty() {
                return 0;
            }
            let choice = match policy {
                BaselinePolicy::FidelityGreedy => feasible
                    .iter()
                    .copied()
                    .max_by(|&a, &b| job.fidelity_per_qpu[a].total_cmp(&job.fidelity_per_qpu[b]))
                    .unwrap(),
                BaselinePolicy::LeastBusy => feasible
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        let wa = problem.qpus[a].waiting_time_s + cycle_load[a];
                        let wb = problem.qpus[b].waiting_time_s + cycle_load[b];
                        wa.total_cmp(&wb)
                    })
                    .unwrap(),
                BaselinePolicy::RoundRobin => {
                    let pick = feasible[rr_cursor % feasible.len()];
                    rr_cursor += 1;
                    pick
                }
            };
            cycle_load[choice] += job.exec_time_per_qpu[choice];
            choice
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{JobRequest, QpuState};

    fn problem() -> SchedulingProblem {
        let qpus = vec![
            QpuState {
                name: "best_fid".into(),
                num_qubits: 27,
                waiting_time_s: 500.0,
                calibration_epoch: 0,
            },
            QpuState {
                name: "empty".into(),
                num_qubits: 27,
                waiting_time_s: 0.0,
                calibration_epoch: 0,
            },
            QpuState {
                name: "small".into(),
                num_qubits: 7,
                waiting_time_s: 5.0,
                calibration_epoch: 0,
            },
        ];
        let jobs: Vec<JobRequest> = (0..6)
            .map(|i| JobRequest {
                job_id: i,
                qubits: 10,
                shots: 1000,
                fidelity_per_qpu: vec![0.9, 0.6, 0.8],
                exec_time_per_qpu: vec![20.0, 20.0, 20.0],
            })
            .collect();
        SchedulingProblem::new(jobs, qpus)
    }

    #[test]
    fn fidelity_greedy_creates_a_hotspot() {
        let p = problem();
        let assignment = assign(&p, BaselinePolicy::FidelityGreedy);
        // All jobs pile onto QPU 0 despite its long queue (the Fig. 2c behaviour).
        assert!(assignment.iter().all(|&q| q == 0));
        let obj = p.evaluate(&assignment);
        assert!(obj.mean_jct_s > 500.0);
    }

    #[test]
    fn least_busy_spreads_load_between_feasible_qpus() {
        let p = problem();
        let assignment = assign(&p, BaselinePolicy::LeastBusy);
        // Every choice is feasible (10-qubit jobs cannot use the 7-qubit QPU).
        assert!(p.assignment_is_feasible(&assignment));
        assert!(assignment.iter().all(|&q| q != 2));
        // The empty QPU absorbs most jobs, but once its accumulated cycle load
        // exceeds 500 s it would switch — with 6×20 s jobs it never does.
        assert!(assignment.iter().filter(|&&q| q == 1).count() >= 5);
        // Least-busy achieves lower mean JCT than fidelity-greedy here.
        let greedy = p.evaluate(&assign(&p, BaselinePolicy::FidelityGreedy));
        let least = p.evaluate(&assignment);
        assert!(least.mean_jct_s < greedy.mean_jct_s);
        assert!(least.mean_error > greedy.mean_error, "the JCT gain costs fidelity");
    }

    #[test]
    fn round_robin_alternates_between_feasible_qpus() {
        let p = problem();
        let assignment = assign(&p, BaselinePolicy::RoundRobin);
        assert!(p.assignment_is_feasible(&assignment));
        let on0 = assignment.iter().filter(|&&q| q == 0).count();
        let on1 = assignment.iter().filter(|&&q| q == 1).count();
        assert_eq!(on0, 3);
        assert_eq!(on1, 3);
    }
}
