//! The Qonductor hybrid quantum scheduler (§7, Figure 5): three configurable
//! stages — job pre-processing (filtering + estimate fetching), multi-objective
//! optimization (NSGA-II), and selection (MCDM pseudo-weights) — with per-stage
//! runtime instrumentation used by the scalability study (Figure 9c).

use crate::crossover::{plan_timeline, PlannedJob};
use crate::mcdm::{self, Preference};
use crate::nsga2::{self, Nsga2Config, OptimizerWorkspace, ParetoSolution};
use crate::problem::{JobRequest, Objectives, QpuState, SchedulingProblem};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::Instant;

/// Maximum number of Pareto solutions remembered between warm-started cycles.
const WARM_FRONT_CAP: usize = 16;

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// NSGA-II hyper-parameters for the optimization stage.
    pub nsga2: Nsga2Config,
    /// Objective preference used by the MCDM selection stage.
    pub preference: Preference,
    /// Weight of the proactive calibration-boundary penalty (§7): when > 0
    /// and the caller supplies per-QPU boundary horizons
    /// ([`HybridScheduler::schedule_with_fleet_context`]), the optimizer penalises
    /// plans whose per-QPU busy time spills past the device's next
    /// recalibration, steering the Pareto front toward plans the dispatch
    /// layer will not have to split. 0 (the default) disables the penalty and
    /// keeps every outcome bit-identical to the horizon-less path.
    pub boundary_penalty_weight: f64,
    /// How many times a single job may be parked at a calibration boundary
    /// (`CalibrationPolicy::SplitAtBoundary`) before the dispatch layer stops
    /// deferring it and lets it run across the boundary. Bounds the worst-case
    /// added latency of boundary splitting to `max_deferrals` recalibration
    /// periods; 0 disables deferral entirely.
    pub max_deferrals: u32,
    /// Weight of the federation cost objective: when > 0 and the caller
    /// supplies per-QPU shot prices
    /// ([`HybridScheduler::schedule_with_fleet_context`]), each candidate
    /// plan's total monetary cost (`Σ shots × cost_per_shot[qpu]`) is
    /// reported as [`Objectives::mean_cost`] and folded into the JCT
    /// objective scaled by this weight, steering placement toward cheaper
    /// providers. 0 (the default) disables the lane and keeps every outcome
    /// bit-identical to the cost-free path.
    pub cost_weight: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            nsga2: Nsga2Config::default(),
            preference: Preference::balanced(),
            boundary_penalty_weight: 0.0,
            // Paper-default deferral budget.
            max_deferrals: 4,
            cost_weight: 0.0,
        }
    }
}

/// Wall-clock runtime of each scheduling stage, in seconds (Figure 9c).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTimings {
    /// Job pre-processing: filtering and estimate assembly.
    pub preprocessing_s: f64,
    /// Multi-objective optimization (NSGA-II).
    pub optimization_s: f64,
    /// MCDM selection.
    pub selection_s: f64,
}

/// One job→QPU placement decided by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Job identifier.
    pub job_id: u64,
    /// Index of the assigned QPU (into the QPU list given to the scheduler).
    pub qpu_index: usize,
}

/// The outcome of one scheduling cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOutcome {
    /// Chosen placements (one per schedulable job).
    pub placements: Vec<Placement>,
    /// Objectives of the chosen solution.
    pub chosen: Objectives,
    /// The full Pareto front explored by the optimizer.
    pub pareto_front: Vec<ParetoSolution>,
    /// Objectives of the front's extreme points: (min-JCT solution, min-error solution).
    pub front_min_jct: Objectives,
    /// Objectives of the front solution with the lowest error (highest fidelity).
    pub front_min_error: Objectives,
    /// Jobs that could not be scheduled (no feasible QPU).
    pub rejected_jobs: Vec<u64>,
    /// Per-stage runtimes.
    pub timings: StageTimings,
    /// Index of the chosen solution within `pareto_front`.
    pub chosen_index: usize,
    /// The chosen placements as a planned per-QPU timeline, *relative to the
    /// dispatch instant*: each job's `start_s` is its offset from "now"
    /// (current queue wait plus co-scheduled jobs ahead of it on the same
    /// QPU), using the problem's sanitised execution estimates. The dispatch
    /// layer shifts this by the dispatch time and partitions it at the next
    /// recalibration boundary (`crossover::partition_at_boundary`, §7).
    pub planned: Vec<PlannedJob>,
}

/// A remembered Pareto front: one job-id→QPU assignment map per kept
/// solution, repairable against the next cycle's job list.
type WarmFront = Vec<Vec<(u64, usize)>>;

/// Cross-cycle optimizer memory of a warm-started scheduler: the reusable
/// workspace (no steady-state allocation) and the previous cycle's Pareto
/// front, stored as job-id→QPU maps so it can be repaired against the next
/// cycle's job list.
#[derive(Debug, Default)]
struct WarmState {
    workspace: OptimizerWorkspace,
    front: WarmFront,
}

/// The Qonductor quantum-job scheduler. Stateless by default; constructed
/// with [`HybridScheduler::with_warm_start`] it becomes optionally stateful,
/// seeding each cycle's NSGA-II population from the previous cycle's Pareto
/// front (repaired against the new job list) so batch-to-batch cycles
/// converge in fewer generations. The memory sits behind a mutex, so the
/// shared-reference [`HybridScheduler::schedule`] signature is unchanged.
#[derive(Debug, Default)]
pub struct HybridScheduler {
    config: SchedulerConfig,
    warm: Option<Mutex<WarmState>>,
}

impl Clone for HybridScheduler {
    fn clone(&self) -> Self {
        HybridScheduler {
            config: self.config,
            // The remembered front transfers; the workspace is rebuilt lazily.
            warm: self.warm.as_ref().map(|m| {
                Mutex::new(WarmState {
                    workspace: OptimizerWorkspace::new(),
                    front: m.lock().front.clone(),
                })
            }),
        }
    }
}

impl HybridScheduler {
    /// Create a stateless scheduler with the given configuration: every cycle
    /// starts the optimizer from a fresh random population.
    pub fn new(config: SchedulerConfig) -> Self {
        HybridScheduler { config, warm: None }
    }

    /// Create a warm-started scheduler: each cycle seeds the optimizer with
    /// the previous cycle's Pareto front and reuses the optimizer workspace.
    /// The first cycle (cold path) is identical to a stateless scheduler's.
    pub fn with_warm_start(config: SchedulerConfig) -> Self {
        HybridScheduler { config, warm: Some(Mutex::new(WarmState::default())) }
    }

    /// The active configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Run the optimizer for one cycle, consulting the warm-start memory when
    /// enabled and replacing the remembered front with this cycle's.
    fn run_optimizer(&self, problem: &SchedulingProblem, job_ids: &[u64]) -> nsga2::Nsga2Result {
        let Some(mem) = &self.warm else {
            return nsga2::optimize(problem, &self.config.nsga2);
        };
        let mut mem = mem.lock();
        // Repair the remembered front against the current job list: genes for
        // unknown jobs are marked invalid and snapped by the optimizer.
        let seeds: Vec<Vec<usize>> = mem
            .front
            .iter()
            .map(|sol| {
                let by_id: HashMap<u64, usize> = sol.iter().copied().collect();
                job_ids.iter().map(|id| by_id.get(id).copied().unwrap_or(usize::MAX)).collect()
            })
            .collect();
        let WarmState { workspace, front } = &mut *mem;
        let result = nsga2::optimize_with(problem, &self.config.nsga2, &seeds, workspace);
        // The front is sorted by JCT; stride-sample the cap across it so both
        // extremes (and the interior) stay represented in the next cycle's
        // seeds, whatever the configured preference favours.
        let n = result.pareto_front.len();
        let keep = n.min(WARM_FRONT_CAP);
        *front = (0..keep)
            .map(|k| {
                let idx = if keep <= 1 { 0 } else { k * (n - 1) / (keep - 1) };
                let s = &result.pareto_front[idx];
                job_ids.iter().copied().zip(s.assignment.iter().copied()).collect()
            })
            .collect();
        result
    }

    /// Run one scheduling cycle over the pending jobs and available QPUs.
    ///
    /// Jobs whose qubit requirement no QPU can satisfy are filtered out during
    /// pre-processing and reported in `rejected_jobs`.
    pub fn schedule(&self, jobs: Vec<JobRequest>, qpus: Vec<QpuState>) -> ScheduleOutcome {
        self.schedule_with_fleet_context(jobs, qpus, &[], &[])
    }

    /// [`Self::schedule`] with the fleet context a federated dispatch layer
    /// carries, both index-aligned with `qpus`:
    ///
    /// - `horizon_s[q]`, the seconds from the dispatch instant until QPU
    ///   `q`'s next calibration boundary. When
    ///   [`SchedulerConfig::boundary_penalty_weight`] is positive the
    ///   optimizer proactively penalises plans whose per-QPU busy time spills
    ///   past the horizon, so fewer chosen plans straddle a boundary and reach
    ///   the dispatch layer's split path at all.
    /// - `cost_per_shot[q]`, credit units. When
    ///   [`SchedulerConfig::cost_weight`] is positive the optimizer trades
    ///   turnaround against spend (see [`SchedulingProblem::with_shot_costs`]).
    ///
    /// With zero weights (or empty tables) the outcome is bit-identical to
    /// [`Self::schedule`].
    pub fn schedule_with_fleet_context(
        &self,
        jobs: Vec<JobRequest>,
        qpus: Vec<QpuState>,
        horizon_s: &[f64],
        cost_per_shot: &[f64],
    ) -> ScheduleOutcome {
        assert!(!qpus.is_empty(), "scheduling requires at least one QPU");
        // ---------- Stage 1: job pre-processing ----------
        let t0 = Instant::now();
        let max_qpu_size = qpus.iter().map(|q| q.num_qubits).max().unwrap_or(0);
        let (schedulable, rejected): (Vec<JobRequest>, Vec<JobRequest>) =
            jobs.into_iter().partition(|j| j.qubits <= max_qpu_size);
        let rejected_jobs: Vec<u64> = rejected.iter().map(|j| j.job_id).collect();
        if schedulable.is_empty() {
            let zero = Objectives { mean_jct_s: 0.0, mean_error: 0.0, mean_cost: 0.0 };
            // An empty cycle never touches the warm memory.
            return ScheduleOutcome {
                placements: vec![],
                chosen: zero,
                pareto_front: vec![],
                front_min_jct: zero,
                front_min_error: zero,
                rejected_jobs,
                timings: StageTimings {
                    preprocessing_s: t0.elapsed().as_secs_f64(),
                    optimization_s: 0.0,
                    selection_s: 0.0,
                },
                chosen_index: 0,
                planned: vec![],
            };
        }
        let job_ids: Vec<u64> = schedulable.iter().map(|j| j.job_id).collect();
        let mut problem = SchedulingProblem::new(schedulable, qpus);
        if self.config.boundary_penalty_weight > 0.0 && !horizon_s.is_empty() {
            problem = problem.with_boundary_penalty(horizon_s, self.config.boundary_penalty_weight);
        }
        if self.config.cost_weight > 0.0 && !cost_per_shot.is_empty() {
            problem = problem.with_shot_costs(cost_per_shot, self.config.cost_weight);
        }
        let preprocessing_s = t0.elapsed().as_secs_f64();

        // ---------- Stage 2: multi-objective optimization ----------
        let t1 = Instant::now();
        let result = self.run_optimizer(&problem, &job_ids);
        let optimization_s = t1.elapsed().as_secs_f64();

        // ---------- Stage 3: MCDM selection ----------
        let t2 = Instant::now();
        let chosen_index = mcdm::select(&result.pareto_front, self.config.preference);
        let chosen_solution = &result.pareto_front[chosen_index];
        let placements: Vec<Placement> = chosen_solution
            .assignment
            .iter()
            .zip(&job_ids)
            .map(|(&qpu_index, &job_id)| Placement { job_id, qpu_index })
            .collect();
        let front_min_jct = result
            .pareto_front
            .iter()
            .map(|s| s.objectives)
            .min_by(|a, b| a.mean_jct_s.total_cmp(&b.mean_jct_s))
            .unwrap_or(chosen_solution.objectives);
        let front_min_error = result
            .pareto_front
            .iter()
            .map(|s| s.objectives)
            .min_by(|a, b| a.mean_error.total_cmp(&b.mean_error))
            .unwrap_or(chosen_solution.objectives);
        // Planned per-QPU timeline of the chosen assignment (relative time:
        // "now" is 0), from the sanitised estimates so it matches exactly
        // what the dispatch layer will enqueue.
        let assignment: Vec<(u64, usize, f64)> = placements
            .iter()
            .enumerate()
            .map(|(i, p)| (p.job_id, p.qpu_index, problem.jobs[i].exec_time_per_qpu[p.qpu_index]))
            .collect();
        let waits: Vec<f64> = problem.qpus.iter().map(|q| q.waiting_time_s).collect();
        let planned = plan_timeline(&assignment, &waits, 0.0);
        let selection_s = t2.elapsed().as_secs_f64();

        ScheduleOutcome {
            placements,
            chosen: chosen_solution.objectives,
            pareto_front: result.pareto_front,
            front_min_jct,
            front_min_error,
            rejected_jobs,
            timings: StageTimings { preprocessing_s, optimization_s, selection_s },
            chosen_index,
            planned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn jobs_and_qpus(
        num_jobs: usize,
        num_qpus: usize,
        seed: u64,
    ) -> (Vec<JobRequest>, Vec<QpuState>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let qpus: Vec<QpuState> = (0..num_qpus)
            .map(|i| QpuState {
                name: format!("qpu{i}"),
                num_qubits: if i == 0 { 7 } else { 27 },
                waiting_time_s: rng.gen_range(0.0..300.0),
                calibration_epoch: 0,
            })
            .collect();
        let jobs: Vec<JobRequest> = (0..num_jobs)
            .map(|i| JobRequest {
                job_id: 1000 + i as u64,
                qubits: rng.gen_range(2..=25),
                shots: 4000,
                fidelity_per_qpu: (0..num_qpus).map(|_| rng.gen_range(0.5..0.95)).collect(),
                exec_time_per_qpu: (0..num_qpus).map(|_| rng.gen_range(5.0..80.0)).collect(),
            })
            .collect();
        (jobs, qpus)
    }

    #[test]
    fn schedule_places_every_schedulable_job_feasibly() {
        let (jobs, qpus) = jobs_and_qpus(50, 5, 1);
        let scheduler = HybridScheduler::default();
        let outcome = scheduler.schedule(jobs.clone(), qpus.clone());
        assert_eq!(outcome.placements.len() + outcome.rejected_jobs.len(), jobs.len());
        for p in &outcome.placements {
            let job = jobs.iter().find(|j| j.job_id == p.job_id).unwrap();
            assert!(qpus[p.qpu_index].num_qubits >= job.qubits);
        }
        assert!(outcome.timings.optimization_s > 0.0);
        assert!(outcome.timings.optimization_s > outcome.timings.selection_s);
    }

    #[test]
    fn oversized_jobs_are_rejected() {
        let (mut jobs, qpus) = jobs_and_qpus(5, 3, 2);
        jobs.push(JobRequest {
            job_id: 9999,
            qubits: 100,
            shots: 100,
            fidelity_per_qpu: vec![0.5; 3],
            exec_time_per_qpu: vec![1.0; 3],
        });
        let outcome = HybridScheduler::default().schedule(jobs, qpus);
        assert!(outcome.rejected_jobs.contains(&9999));
    }

    #[test]
    fn chosen_solution_sits_between_front_extremes() {
        let (jobs, qpus) = jobs_and_qpus(80, 8, 3);
        let outcome = HybridScheduler::default().schedule(jobs, qpus);
        assert!(outcome.chosen.mean_jct_s >= outcome.front_min_jct.mean_jct_s - 1e-9);
        assert!(outcome.chosen.mean_error >= outcome.front_min_error.mean_error - 1e-9);
        assert!(!outcome.pareto_front.is_empty());
        assert!(outcome.chosen_index < outcome.pareto_front.len());
    }

    #[test]
    fn jct_priority_yields_lower_jct_than_fidelity_priority() {
        let (jobs, qpus) = jobs_and_qpus(60, 6, 4);
        let jct_first = HybridScheduler::new(SchedulerConfig {
            preference: Preference::jct_first(),
            ..Default::default()
        })
        .schedule(jobs.clone(), qpus.clone());
        let fid_first = HybridScheduler::new(SchedulerConfig {
            preference: Preference::fidelity_first(),
            ..Default::default()
        })
        .schedule(jobs, qpus);
        assert!(jct_first.chosen.mean_jct_s <= fid_first.chosen.mean_jct_s);
        assert!(jct_first.chosen.mean_fidelity() <= fid_first.chosen.mean_fidelity() + 1e-9);
    }

    /// Regression: a NaN/∞ estimate from the resource estimator must not
    /// panic the scheduling cycle — it is clamped at problem construction and
    /// the placement is penalised instead.
    #[test]
    fn non_finite_estimates_complete_the_cycle_penalised() {
        let qpus = vec![
            QpuState {
                name: "poisoned".into(),
                num_qubits: 27,
                waiting_time_s: 1.0,
                calibration_epoch: 0,
            },
            QpuState {
                name: "clean".into(),
                num_qubits: 27,
                waiting_time_s: 1.0,
                calibration_epoch: 0,
            },
        ];
        let jobs: Vec<JobRequest> = (0..6)
            .map(|i| JobRequest {
                job_id: i,
                qubits: 5,
                shots: 1000,
                // QPU 0 reports NaN fidelity and ∞ execution time for every job.
                fidelity_per_qpu: vec![f64::NAN, 0.9],
                exec_time_per_qpu: vec![f64::INFINITY, 10.0],
            })
            .collect();
        let outcome = HybridScheduler::default().schedule(jobs, qpus);
        assert_eq!(outcome.placements.len(), 6);
        assert!(outcome.chosen.mean_jct_s.is_finite());
        assert!(outcome.chosen.mean_error.is_finite());
        // The sanitised estimates (fidelity 0, huge exec time) make the
        // poisoned QPU strictly dominated: every job lands on the clean one.
        for p in &outcome.placements {
            assert_eq!(p.qpu_index, 1, "job {} must avoid the poisoned QPU", p.job_id);
        }
    }

    #[test]
    fn warm_start_matches_cold_first_cycle_and_stays_deterministic() {
        let (jobs, qpus) = jobs_and_qpus(40, 5, 7);
        let cold = HybridScheduler::default();
        let warm = HybridScheduler::with_warm_start(SchedulerConfig::default());
        assert!(warm.warm.is_some() && cold.warm.is_none());
        // Cycle 1: no memory yet, so the warm scheduler is bit-identical.
        let a = cold.schedule(jobs.clone(), qpus.clone());
        let b = warm.schedule(jobs.clone(), qpus.clone());
        assert_eq!(a.placements, b.placements);
        assert_eq!(a.chosen, b.chosen);
        // Cycle 2 (same jobs): the warm scheduler seeds from its remembered
        // front; two independent warm schedulers agree cycle for cycle.
        let warm2 = HybridScheduler::with_warm_start(SchedulerConfig::default());
        let _ = warm2.schedule(jobs.clone(), qpus.clone());
        let c = warm.schedule(jobs.clone(), qpus.clone());
        let d = warm2.schedule(jobs.clone(), qpus.clone());
        assert_eq!(c.placements, d.placements);
        assert_eq!(c.chosen, d.chosen);
        // Warm seeding never regresses the chosen solution's JCT extreme.
        assert!(c.front_min_jct.mean_jct_s <= a.front_min_jct.mean_jct_s + 1e-9);
    }

    #[test]
    fn warm_start_memory_survives_clone_and_clears() {
        let (jobs, qpus) = jobs_and_qpus(20, 4, 8);
        let warm = HybridScheduler::with_warm_start(SchedulerConfig::default());
        let _ = warm.schedule(jobs.clone(), qpus.clone());
        let cloned = warm.clone();
        assert!(cloned.warm.is_some());
        let a = warm.schedule(jobs.clone(), qpus.clone());
        let b = cloned.schedule(jobs.clone(), qpus.clone());
        assert_eq!(a.placements, b.placements, "cloned memory must behave identically");
        warm.warm.as_ref().expect("warm-started").lock().front.clear();
        let _ = warm.schedule(jobs, qpus); // cold again: must not panic
    }

    /// The outcome's planned timeline mirrors the chosen placements exactly:
    /// one entry per placement, starts = queue wait + co-scheduled work ahead
    /// on the same QPU, durations = the sanitised execution estimates.
    #[test]
    fn planned_timeline_matches_placements_and_serialises_per_qpu() {
        let (jobs, qpus) = jobs_and_qpus(30, 4, 11);
        let outcome = HybridScheduler::default().schedule(jobs.clone(), qpus.clone());
        assert_eq!(outcome.planned.len(), outcome.placements.len());
        let mut next_free: Vec<f64> = qpus.iter().map(|q| q.waiting_time_s).collect();
        for (p, planned) in outcome.placements.iter().zip(&outcome.planned) {
            assert_eq!(planned.job_id, p.job_id);
            assert_eq!(planned.qpu_index, p.qpu_index);
            // The timeline uses the problem's *sanitised* (grid-snapped)
            // waits, so allow the 2⁻²⁰ s quantisation against the raw input.
            assert!((planned.start_s - next_free[p.qpu_index]).abs() < 1e-5);
            assert!(planned.duration_s > 0.0);
            next_free[p.qpu_index] = planned.finish_s();
        }
    }

    #[test]
    fn cost_weight_steers_placement_and_zero_weight_is_bit_identical() {
        // Two equally capable QPUs; QPU 0 is 20× pricier per shot.
        let qpus: Vec<QpuState> = (0..2)
            .map(|i| QpuState {
                name: format!("qpu{i}"),
                num_qubits: 27,
                waiting_time_s: 0.0,
                calibration_epoch: 0,
            })
            .collect();
        let jobs: Vec<JobRequest> = (0..12)
            .map(|i| JobRequest {
                job_id: i,
                qubits: 5,
                shots: 1000,
                fidelity_per_qpu: vec![0.9, 0.9],
                exec_time_per_qpu: vec![10.0, 10.0],
            })
            .collect();
        let prices = [20.0, 1.0];

        // Zero weight: bit-identical to the price-blind path, zero mean_cost.
        let blind = HybridScheduler::default().schedule(jobs.clone(), qpus.clone());
        let zero_w = HybridScheduler::default().schedule_with_fleet_context(
            jobs.clone(),
            qpus.clone(),
            &[],
            &prices,
        );
        assert_eq!(blind.placements, zero_w.placements);
        assert_eq!(blind.chosen.mean_jct_s.to_bits(), zero_w.chosen.mean_jct_s.to_bits());
        assert_eq!(zero_w.chosen.mean_cost, 0.0);

        // A strong cost weight drives every job onto the cheap QPU.
        let costed = HybridScheduler::new(SchedulerConfig {
            cost_weight: 10.0,
            ..SchedulerConfig::default()
        })
        .schedule_with_fleet_context(jobs, qpus, &[], &prices);
        assert!(costed.chosen.mean_cost > 0.0);
        assert!(
            costed.placements.iter().all(|p| p.qpu_index == 1),
            "cost pressure must avoid the pricey QPU: {:?}",
            costed.placements
        );
        // All 12 jobs × 1000 shots × 1.0 credit on the cheap device.
        assert!((costed.chosen.mean_cost - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn all_jobs_oversized_returns_empty_schedule() {
        let qpus = vec![QpuState {
            name: "tiny".into(),
            num_qubits: 5,
            waiting_time_s: 0.0,
            calibration_epoch: 0,
        }];
        let jobs = vec![JobRequest {
            job_id: 1,
            qubits: 50,
            shots: 100,
            fidelity_per_qpu: vec![0.5],
            exec_time_per_qpu: vec![1.0],
        }];
        let outcome = HybridScheduler::default().schedule(jobs, qpus);
        assert!(outcome.placements.is_empty());
        assert_eq!(outcome.rejected_jobs, vec![1]);
    }
}
