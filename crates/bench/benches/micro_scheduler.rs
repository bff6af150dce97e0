//! Criterion micro-benchmarks of the scheduler's hot paths: objective
//! evaluation (the exact f64 pass and the f32 lanes), one full NSGA-II run
//! (cold vs warm-started with a previous front + reused workspace), and MCDM
//! selection.
//!
//! With `QONDUCTOR_BENCH_JSON=<path>` the harness writes every measurement to
//! `<path>` — CI runs this in quick mode and uploads `BENCH_scheduler.json`
//! as the perf-trajectory artifact.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qonductor_bench::synthetic_problem;
use qonductor_scheduler::{
    optimize, optimize_with, select, Nsga2Config, OptimizerWorkspace, Preference, SchedulingProblem,
};

const SIZES: [usize; 3] = [50, 200, 800];
const NUM_QPUS: usize = 8;

fn bench_objective_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("objective_evaluation");
    for &num_jobs in &SIZES {
        let (jobs, qpus) = synthetic_problem(num_jobs, NUM_QPUS, 1);
        let problem = SchedulingProblem::new(jobs, qpus);
        let assignment: Vec<usize> = (0..num_jobs).map(|i| i % NUM_QPUS).collect();
        group.bench_with_input(BenchmarkId::from_parameter(num_jobs), &num_jobs, |b, _| {
            b.iter(|| problem.evaluate(std::hint::black_box(&assignment)))
        });
    }
    group.finish();
}

/// The f32 objective-lane reduction over packed u16 genes — the optimizer's
/// whole-assignment evaluation, versus the f64 `evaluate` above.
fn bench_objective_lane_reduction(c: &mut Criterion) {
    let mut group = c.benchmark_group("objective_lane_reduction");
    for &num_jobs in &SIZES {
        let (jobs, qpus) = synthetic_problem(num_jobs, NUM_QPUS, 1);
        let problem = SchedulingProblem::new(jobs, qpus);
        let genes: Vec<u16> = (0..num_jobs).map(|i| (i % NUM_QPUS) as u16).collect();
        group.bench_with_input(BenchmarkId::from_parameter(num_jobs), &num_jobs, |b, _| {
            b.iter(|| problem.evaluate_lanes_packed(std::hint::black_box(&genes)))
        });
    }
    group.finish();
}

fn nsga2_config() -> Nsga2Config {
    Nsga2Config { max_generations: 20, max_evaluations: 2000, ..Default::default() }
}

/// The acceptance-metric cycle under the *default* configuration — since the
/// island refactor, `num_threads = 4` islands with ring migration.
fn bench_nsga2(c: &mut Criterion) {
    let mut group = c.benchmark_group("nsga2_cycle");
    group.sample_size(10);
    for &num_jobs in &[50usize, 100] {
        let (jobs, qpus) = synthetic_problem(num_jobs, NUM_QPUS, 2);
        let problem = SchedulingProblem::new(jobs, qpus);
        let config = nsga2_config();
        group.bench_with_input(BenchmarkId::from_parameter(num_jobs), &num_jobs, |b, _| {
            b.iter(|| optimize(std::hint::black_box(&problem), &config))
        });
    }
    group.finish();
}

/// Four islands pinned explicitly (regardless of the default), same
/// generation/evaluation budget as `nsga2_cycle`.
fn bench_nsga2_islands(c: &mut Criterion) {
    let mut group = c.benchmark_group("nsga2_island_cycle");
    group.sample_size(10);
    for &num_jobs in &[50usize, 100] {
        let (jobs, qpus) = synthetic_problem(num_jobs, NUM_QPUS, 2);
        let problem = SchedulingProblem::new(jobs, qpus);
        let config = Nsga2Config { num_threads: 4, ..nsga2_config() };
        group.bench_with_input(BenchmarkId::from_parameter(num_jobs), &num_jobs, |b, _| {
            b.iter(|| optimize(std::hint::black_box(&problem), &config))
        });
    }
    group.finish();
}

/// Warm-started cycles: the population is seeded from a previous run's Pareto
/// front and the workspace is reused, the steady state of a stateful
/// `HybridScheduler` between consecutive batch dispatches.
fn bench_nsga2_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("nsga2_warm_cycle");
    group.sample_size(10);
    for &num_jobs in &[50usize, 100] {
        let (jobs, qpus) = synthetic_problem(num_jobs, NUM_QPUS, 2);
        let problem = SchedulingProblem::new(jobs, qpus);
        let config = nsga2_config();
        let cold = optimize(&problem, &config);
        let seeds: Vec<Vec<usize>> =
            cold.pareto_front.iter().map(|s| s.assignment.clone()).collect();
        let mut workspace = OptimizerWorkspace::new();
        group.bench_with_input(BenchmarkId::from_parameter(num_jobs), &num_jobs, |b, _| {
            b.iter(|| {
                optimize_with(std::hint::black_box(&problem), &config, &seeds, &mut workspace)
            })
        });
    }
    group.finish();
}

/// Cold vs warm under the *default* (tolerance-terminated) budget: here the
/// warm start shows its convergence effect — seeded populations plateau
/// within the sliding tolerance window in a fraction of the generations a
/// cold random start needs.
fn bench_nsga2_convergence(c: &mut Criterion) {
    let mut group = c.benchmark_group("nsga2_convergence");
    group.sample_size(10);
    let (jobs, qpus) = synthetic_problem(100, NUM_QPUS, 2);
    let problem = SchedulingProblem::new(jobs, qpus);
    let config = Nsga2Config::default();
    group.bench_function("cold/100", |b| {
        b.iter(|| optimize(std::hint::black_box(&problem), &config))
    });
    let cold = optimize(&problem, &config);
    let seeds: Vec<Vec<usize>> = cold.pareto_front.iter().map(|s| s.assignment.clone()).collect();
    let mut workspace = OptimizerWorkspace::new();
    group.bench_function("warm/100", |b| {
        b.iter(|| optimize_with(std::hint::black_box(&problem), &config, &seeds, &mut workspace))
    });
    group.finish();
}

fn bench_mcdm(c: &mut Criterion) {
    let (jobs, qpus) = synthetic_problem(100, NUM_QPUS, 3);
    let problem = SchedulingProblem::new(jobs, qpus);
    let result = optimize(&problem, &Nsga2Config::default());
    c.bench_function("mcdm_selection", |b| {
        b.iter(|| select(std::hint::black_box(&result.pareto_front), Preference::balanced()))
    });
}

criterion_group!(
    benches,
    bench_objective_evaluation,
    bench_objective_lane_reduction,
    bench_nsga2,
    bench_nsga2_islands,
    bench_nsga2_warm,
    bench_nsga2_convergence,
    bench_mcdm
);
criterion_main!(benches);
