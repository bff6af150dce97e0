//! # qonductor-scheduler
//!
//! The Qonductor hybrid scheduler (§7): the Eq.-1 multi-objective scheduling
//! problem, a from-scratch NSGA-II optimizer with the paper's customised
//! genetic operators and sliding-window termination, MCDM pseudo-weight
//! selection (Eq. 2), FCFS / fidelity-greedy / least-busy baselines, the
//! Kubernetes-style filter–score scheduler for classical jobs, queue-size and
//! time-based scheduling triggers, and calibration-crossover handling.

#![warn(missing_docs)]

pub mod baselines;
pub mod classical;
pub mod crossover;
pub mod mcdm;
pub mod nsga2;
pub mod problem;
pub mod scheduler;
pub mod triggers;

pub use baselines::{assign as baseline_assign, BaselinePolicy};
pub use classical::{place, ClassicalNode, ClassicalRequest, ScoringPolicy};
pub use crossover::{partition_at_boundary, plan_timeline, CrossoverPartition, PlannedJob};
pub use mcdm::{pseudo_weights, select, Preference};
pub use nsga2::{
    optimize, optimize_seeded, optimize_with, Nsga2Config, Nsga2Result, OptimizerWorkspace,
    ParetoSolution, MIGRATION_INTERVAL, MIN_ISLAND_POP,
};
pub use problem::{
    JobRequest, Objectives, QpuState, SchedulingProblem, INFEASIBLE_PENALTY_S, MAX_EXEC_S,
    MAX_PLACEMENT_COST, MAX_WAIT_S, NON_FINITE_EXEC_S,
};
pub use scheduler::{HybridScheduler, Placement, ScheduleOutcome, SchedulerConfig, StageTimings};
pub use triggers::{ScheduleTrigger, TriggerReason, DEFAULT_SLO_MARGIN_S};
