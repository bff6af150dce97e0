//! # qonductor-scheduler
//!
//! The Qonductor hybrid scheduler (§7): the Eq.-1 multi-objective scheduling
//! problem, a from-scratch NSGA-II optimizer with the paper's customised
//! genetic operators and sliding-window termination, MCDM pseudo-weight
//! selection (Eq. 2), FCFS / fidelity-greedy / least-busy baselines, the
//! Kubernetes-style filter–score scheduler for classical jobs, queue-size and
//! time-based scheduling triggers, and calibration-crossover handling.

#![warn(missing_docs)]

mod baselines;
pub mod classical;
mod crossover;
mod mcdm;
pub mod nsga2;
pub mod problem;
pub mod scheduler;
mod triggers;

pub use baselines::{assign as baseline_assign, BaselinePolicy};
pub use classical::{place, ClassicalNode, ClassicalRequest};
pub use crossover::{partition_at_boundary, CrossoverPartition, PlannedJob};
pub use mcdm::{pseudo_weights, select, Preference};
pub use nsga2::{
    optimize, optimize_with, Nsga2Config, Nsga2Result, OptimizerWorkspace, ParetoSolution,
};
pub use problem::{JobRequest, Objectives, QpuState, SchedulingProblem};
pub use scheduler::{HybridScheduler, Placement, ScheduleOutcome, SchedulerConfig, StageTimings};
pub use triggers::{ScheduleTrigger, TriggerReason};
