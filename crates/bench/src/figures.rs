//! One function per figure of the paper's evaluation. Each runs its
//! experiment at paper scale once per seed and returns one [`FigureRow`]
//! per claim; every RNG it uses (fleet, graph, dataset, NSGA-II, …) is
//! derived from the seed.

use crate::{synthetic_problem, Claim, Direction, FigureRow};
use qonductor_backend::{Fleet, Qpu, QpuModel, Simulator};
use qonductor_circuit::generators::{ghz, qaoa_maxcut, MaxCutGraph};
use qonductor_cloudsim::{
    estimate, ArrivalConfig, CloudSimulation, LoadGenerator, Policy, SimulationConfig,
    SimulationReport,
};
use qonductor_estimator::cost::{PricingTable, ResourceClass};
use qonductor_estimator::dataset::{generate_dataset, split, DatasetConfig};
use qonductor_estimator::{
    generate_candidate_plans, pareto_front, EstimationBackend, PlanGeneratorConfig,
    ResourceEstimator,
};
use qonductor_mitigation::knitting;
use qonductor_scheduler::{
    baseline_assign, optimize, select, BaselinePolicy, HybridScheduler, Nsga2Config, Objectives,
    Preference, SchedulerConfig, SchedulingProblem,
};
use qonductor_transpiler::Transpiler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use Direction::{Above, Below};

const FLEET: u64 = 1;
const GRAPH: u64 = 2;
const DATASET: u64 = 3;
const NSGA2: u64 = 4;
const EXECUTION: u64 = 5;
const WORKLOAD: u64 = 6;
const SEARCH: u64 = 7;

/// The seed of one RNG stream of a row seed.
fn derive(seed: u64, stream: u64) -> u64 {
    seed << 8 | stream
}

fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(derive(seed, stream))
}

/// Runs `per_seed` once per seed and turns its values, one per claim, into
/// rows.
fn rows<const N: usize>(
    seeds: &[u64],
    claims: [Claim; N],
    per_seed: impl Fn(u64) -> [f64; N],
) -> Vec<FigureRow> {
    let values: Vec<[f64; N]> = seeds.iter().map(|&s| per_seed(s)).collect();
    claims
        .iter()
        .enumerate()
        .map(|(i, &claim)| FigureRow::new(claim, values.iter().map(|v| v[i]).collect()))
        .collect()
}

fn claim(
    figure: &'static str,
    claim: &'static str,
    paper_value: &'static str,
    direction: Direction,
) -> Claim {
    Claim { figure, claim, paper_value, direction }
}

/// How much lower `value` is than `base`, as a share of `base`.
fn reduction(base: f64, value: f64) -> f64 {
    (base - value) / base.max(1e-9)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}

fn qonductor() -> Policy {
    Policy::Qonductor { preference: Preference::balanced() }
}

/// One simulated hour at `rate` applications/h, the paper's triggers
/// (100 jobs / 120 s) and NSGA-II seeded from the row seed.
fn simulation_config(policy: Policy, rate: f64, seed: u64) -> SimulationConfig {
    SimulationConfig {
        duration_s: 3600.0,
        step_s: 10.0,
        arrival: ArrivalConfig { mean_rate_per_hour: rate, ..Default::default() },
        policy,
        trigger_queue_limit: 100,
        trigger_interval_s: 120.0,
        metrics_interval_s: 60.0,
        nsga2: Nsga2Config {
            population_size: 40,
            max_generations: 40,
            max_evaluations: 8000,
            num_threads: 4,
            seed: derive(seed, NSGA2),
            ..Nsga2Config::default()
        },
        seed,
        ..Default::default()
    }
}

fn run(policy: Policy, rate: f64, seed: u64) -> SimulationReport {
    CloudSimulation::with_default_fleet(simulation_config(policy, rate, seed)).run()
}

/// Figure 2(a): cutting a 24-qubit QAOA circuit in half trades quantum
/// runtime for fidelity.
pub fn fig2a(seeds: &[u64]) -> Vec<FigureRow> {
    let claims = [
        claim(
            "Fig. 2a",
            "cutting a 24-qubit QAOA circuit multiplies quantum runtime",
            "×12",
            Above(1.0),
        ),
        claim(
            "Fig. 2a",
            "cutting a 24-qubit QAOA circuit multiplies fidelity",
            "×~450",
            Above(1.0),
        ),
    ];
    rows(seeds, claims, |seed| {
        let qpu = Qpu::new("ibm_cairo", QpuModel::falcon_27(), 1.2, &mut rng(seed, FLEET));
        let graph = MaxCutGraph::random(24, 3.0 / 24.0, &mut rng(seed, GRAPH));
        let circuit = qaoa_maxcut(&graph, &[0.8], &[0.4]);
        let transpiler = Transpiler::default();
        let uncut = transpiler.transpile_for_qpu(&circuit, &qpu);
        let uncut_fidelity = uncut.esp.max(1e-6);

        // Two fragments, each run once per quasi-probability variant.
        let cut = knitting::cut_in_half(&circuit);
        let (mut fidelity, mut quantum_s) = (1.0, 0.0);
        for fragment in &cut.fragments {
            let t = transpiler.transpile_for_qpu(fragment, &qpu);
            fidelity *= t.esp;
            quantum_s += t.total_execution_s();
        }
        let variants = cut.subcircuit_variants.min(32) as f64;
        [quantum_s * variants / 2.0 / uncut.total_execution_s(), fidelity / uncut_fidelity]
    })
}

/// Figure 2(b): the same circuit reaches different fidelities on QPUs of
/// one model.
pub fn fig2b(seeds: &[u64]) -> Vec<FigureRow> {
    let claims = [claim(
        "Fig. 2b",
        "12-qubit GHZ fidelity spread (best / worst − 1) over six 27-qubit QPUs",
        "38 %",
        Above(0.1),
    )];
    rows(seeds, claims, |seed| {
        let fleet = Fleet::falcon_six(&mut rng(seed, FLEET));
        let (transpiler, circuit) = (Transpiler::default(), ghz(12));
        let simulator = Simulator { trajectories: 96, ..Simulator::default() };
        let fidelities = fleet.members().iter().map(|member| {
            let transpiled = transpiler.transpile_for_qpu(&circuit, &member.qpu);
            let noise = member.qpu.noise_model();
            simulator.execute(&transpiled.circuit, &noise, &mut rng(seed, EXECUTION)).fidelity
        });
        let (best, worst) =
            fidelities.fold((0.0f64, f64::INFINITY), |(b, w), f| (b.max(f), w.min(f)));
        [(best - worst) / worst]
    })
}

/// Figure 2(c): users who all pick the highest-fidelity QPU leave the
/// fleet's queues imbalanced.
pub fn fig2c(seeds: &[u64]) -> Vec<FigureRow> {
    let claims = [claim(
        "Fig. 2c",
        "fidelity-greedy users: largest over smallest QPU queue after 7 days (largest if one is empty)",
        "up to ~100×",
        Above(2.0),
    )];
    rows(seeds, claims, |seed| {
        let mut fleet = Fleet::falcon_six(&mut rng(seed, FLEET));
        let mut rng = rng(seed, WORKLOAD);
        // One hour of arrivals stands in for each day: the imbalance comes
        // from every user picking the same device, not from the rate.
        let arrivals = ArrivalConfig { mean_rate_per_hour: 400.0, ..Default::default() };
        let mut load = LoadGenerator::new(arrivals, 27, 0.5);
        for day in 0..7 {
            let clock = f64::from(day) * 3600.0;
            for app in load.arrivals_in(clock, clock + 3600.0, &mut rng) {
                let mut best: Option<(usize, f64, f64)> = None;
                for (i, member) in fleet.members().iter().enumerate() {
                    if member.qpu.num_qubits() < app.circuit.num_qubits() {
                        continue;
                    }
                    let est = estimate(&app.circuit, &app.mitigation, &member.qpu);
                    if best.is_none_or(|(_, fidelity, _)| est.fidelity > fidelity) {
                        best = Some((i, est.fidelity, est.quantum_time_s));
                    }
                }
                if let Some((i, _, duration)) = best {
                    fleet.members_mut()[i].queue.enqueue(app.app_id, duration.max(0.01));
                }
            }
            fleet.advance_to(clock + 3600.0, &mut rng);
        }
        let pending = fleet.members().iter().map(|m| m.queue.pending_len() as f64);
        let (max, min) = pending.fold((0.0f64, f64::INFINITY), |(a, b), p| (a.max(p), b.min(p)));
        [if min > 0.0 { max / min } else { max }]
    })
}

/// Figure 6: Qonductor against FCFS over one hour at 1,500 applications/h.
pub fn fig6(seeds: &[u64]) -> Vec<FigureRow> {
    let claims = [
        claim("Fig. 6", "fidelity penalty vs FCFS", "< 3 %", Below(0.03)),
        claim("Fig. 6", "mean completion time reduction vs FCFS", "48 % lower", Above(0.0)),
        claim("Fig. 6", "utilization gain vs FCFS", "66 % higher", Above(0.0)),
    ];
    rows(seeds, claims, |seed| {
        let (qonductor, fcfs) = (run(qonductor(), 1500.0, seed), run(Policy::Fcfs, 1500.0, seed));
        [
            reduction(fcfs.mean_fidelity(), qonductor.mean_fidelity()),
            reduction(fcfs.mean_completion_s(), qonductor.mean_completion_s()),
            -reduction(fcfs.mean_utilization(), qonductor.mean_utilization()),
        ]
    })
}

/// Figure 7(a): the resource plans of a 20-qubit QAOA circuit trade
/// fidelity for runtime.
pub fn fig7a(seeds: &[u64]) -> Vec<FigureRow> {
    let claims = [claim(
        "Fig. 7a",
        "second-highest-fidelity plan: runtime reduction over fidelity loss",
        "34.6 % / 3.6 % ≈ 9.6",
        Above(1.0),
    )];
    rows(seeds, claims, |seed| {
        let fleet = Fleet::ibm_default(&mut rng(seed, FLEET));
        let graph = MaxCutGraph::random(20, 0.2, &mut rng(seed, GRAPH));
        let circuit = qaoa_maxcut(&graph, &[0.7, 1.1], &[0.3, 0.8]);
        let plans = generate_candidate_plans(
            &circuit,
            &fleet.template_qpus(),
            EstimationBackend::Analytic,
            &PlanGeneratorConfig::default(),
        );
        match pareto_front(&plans)[..] {
            [ref best, ref second, ..] => [reduction(best.total_time_s(), second.total_time_s())
                / reduction(best.estimated_fidelity, second.estimated_fidelity).max(1e-9)],
            _ => [0.0],
        }
    })
}

/// Figure 7(b)/(c): the regression estimator's error on held-out records
/// of 7,000.
pub fn fig7bc(seeds: &[u64]) -> Vec<FigureRow> {
    let claims = [
        claim("Fig. 7b", "share of fidelity estimates within 0.1", "~75 %", Above(0.75)),
        claim("Fig. 7c", "share of runtime estimates within 500 ms", "80 %", Above(0.8)),
    ];
    rows(seeds, claims, |seed| {
        let fleet = Fleet::ibm_default(&mut rng(seed, FLEET));
        let config = DatasetConfig { num_records: 7000, num_streams: 8, ..Default::default() };
        let dataset = generate_dataset(&fleet, &config, derive(seed, DATASET));
        let (train, test) = split(&dataset, 0.8);
        let accuracy = ResourceEstimator::train(&train, 2).evaluate(&test);
        [accuracy.fidelity_within_0_1, accuracy.runtime_within_500ms]
    })
}

/// Figure 8(a)/(b): per cycle, the chosen (balanced) solution against the
/// Pareto front's worst JCT and best fidelity.
pub fn fig8ab(seeds: &[u64]) -> Vec<FigureRow> {
    let claims = [
        claim("Fig. 8a", "chosen JCT below the front's maximum", "34 % lower", Above(0.0)),
        claim("Fig. 8b", "chosen fidelity below the front's maximum", "4 % lower", Below(0.04)),
    ];
    rows(seeds, claims, |seed| {
        let cycles = run(qonductor(), 1500.0, seed).cycles;
        [
            reduction(
                mean(cycles.iter().map(|c| c.front_max_jct_s)),
                mean(cycles.iter().map(|c| c.chosen.mean_jct_s)),
            ),
            reduction(
                mean(cycles.iter().map(|c| c.front_max_fidelity)),
                mean(cycles.iter().map(|c| c.chosen.mean_fidelity())),
            ),
        ]
    })
}

/// Figure 8(c): Qonductor spreads the load evenly over the fleet.
pub fn fig8c(seeds: &[u64]) -> Vec<FigureRow> {
    let claims = [claim(
        "Fig. 8c",
        "largest QPU busy-time difference at 1,500 jobs/h",
        "15.8 %",
        Below(0.158),
    )];
    rows(seeds, claims, |seed| [run(qonductor(), 1500.0, seed).max_load_difference()])
}

/// Figure 9(a): more QPUs, lower JCT.
pub fn fig9a(seeds: &[u64]) -> Vec<FigureRow> {
    let claims = [
        claim("Fig. 9a", "JCT reduction, 8 vs 4 QPUs", "52.8 %", Above(0.0)),
        claim("Fig. 9a", "JCT reduction, 16 vs 4 QPUs", "81 %", Above(0.0)),
    ];
    rows(seeds, claims, |seed| {
        let jct = |n: usize| {
            let config = simulation_config(qonductor(), 1500.0, seed);
            let fleet = Fleet::scaled(n, &mut rng(seed, FLEET));
            CloudSimulation::new(config, fleet).run().mean_completion_s()
        };
        let base = jct(4);
        [reduction(base, jct(8)), reduction(base, jct(16))]
    })
}

/// Figure 9(b): at three times today's load the triggers keep the
/// scheduler's queue bounded.
pub fn fig9b(seeds: &[u64]) -> Vec<FigureRow> {
    let claims = [claim(
        "Fig. 9b",
        "largest scheduler queue at 4,500 jobs/h (twice the 100-job trigger is 200)",
        "stable at 3× load",
        Below(200.0),
    )];
    rows(seeds, claims, |seed| {
        let timeline = run(qonductor(), 4500.0, seed).timeline;
        [timeline.iter().map(|p| p.scheduler_queue_len).max().unwrap_or(0) as f64]
    })
}

/// Figure 10(a): the chosen solution's execution time against the front's
/// maximum.
pub fn fig10a(seeds: &[u64]) -> Vec<FigureRow> {
    let claims = [claim(
        "Fig. 10a",
        "chosen mean execution time below the front's maximum",
        "63.4 % lower",
        Above(0.0),
    )];
    rows(seeds, claims, |seed| {
        let cycles = run(qonductor(), 1500.0, seed).cycles;
        [reduction(
            mean(cycles.iter().map(|c| c.front_max_exec_s)),
            mean(cycles.iter().map(|c| c.chosen_mean_exec_s)),
        )]
    })
}

/// Figure 10(b): the MCDM preference moves the chosen solution along the
/// front of 100 random jobs.
pub fn fig10b(seeds: &[u64]) -> Vec<FigureRow> {
    let claims = [
        claim("Fig. 10b", "JCT-first vs fidelity-first: JCT reduction", "67 %", Above(0.0)),
        claim("Fig. 10b", "fidelity-first vs JCT-first: fidelity gain", "16 %", Above(0.0)),
        claim("Fig. 10b", "balanced vs fidelity-first: JCT reduction", "54 %", Above(0.0)),
    ];
    rows(seeds, claims, |seed| {
        let (jobs, qpus) = synthetic_problem(100, 8, derive(seed, WORKLOAD));
        let chosen = |preference| -> Objectives {
            let nsga2 = Nsga2Config { seed: derive(seed, NSGA2), ..Nsga2Config::default() };
            let config = SchedulerConfig { nsga2, preference, ..SchedulerConfig::default() };
            HybridScheduler::new(config).schedule(jobs.clone(), qpus.clone()).chosen
        };
        let jct = chosen(Preference::jct_first());
        let fidelity = chosen(Preference::fidelity_first());
        let balanced = chosen(Preference::balanced());
        [
            reduction(fidelity.mean_jct_s, jct.mean_jct_s),
            -reduction(jct.mean_fidelity(), fidelity.mean_fidelity()),
            reduction(fidelity.mean_jct_s, balanced.mean_jct_s),
        ]
    })
}

/// Table 1: QPU time is far dearer than classical time. The prices are
/// constants, so every seed gives the same value.
pub fn table1(seeds: &[u64]) -> Vec<FigureRow> {
    let claims = [claim(
        "Table 1",
        "QPU-hour price over high-end VM-hour price",
        "two orders of magnitude",
        Above(100.0),
    )];
    rows(seeds, claims, |_| {
        let table = PricingTable::default();
        [table.price(ResourceClass::Qpu).per_hour_usd
            / table.price(ResourceClass::HighEndVm).per_hour_usd]
    })
}

/// Ablation: NSGA-II with balanced MCDM against the greedy baselines and
/// random search with the same evaluation budget, on JCT/1000 s + error.
pub fn ablation_optimizer(seeds: &[u64]) -> Vec<FigureRow> {
    let claims = [claim(
        "Ablation",
        "NSGA-II + MCDM beats every greedy baseline and random search on JCT/1000 s + error",
        "design claim",
        Above(0.0),
    )];
    rows(seeds, claims, |seed| {
        let (jobs, qpus) = synthetic_problem(150, 8, derive(seed, WORKLOAD));
        let problem = SchedulingProblem::new(jobs, qpus);
        let score = |o: &Objectives| o.mean_jct_s / 1000.0 + o.mean_error;
        let nsga2 = Nsga2Config { seed: derive(seed, NSGA2), ..Nsga2Config::default() };
        let result = optimize(&problem, &nsga2);
        let chosen = score(
            &result.pareto_front[select(&result.pareto_front, Preference::balanced())].objectives,
        );

        let mut search = rng(seed, SEARCH);
        let random = (0..result.evaluations).map(|_| {
            let assignment: Vec<usize> = (0..problem.num_jobs())
                .map(|i| {
                    let feasible = problem.feasible_qpus(i);
                    feasible[search.gen_range(0..feasible.len())]
                })
                .collect();
            score(&problem.evaluate(&assignment))
        });
        let greedy =
            [BaselinePolicy::FidelityGreedy, BaselinePolicy::LeastBusy, BaselinePolicy::RoundRobin]
                .map(|policy| score(&problem.evaluate(&baseline_assign(&problem, policy))));
        let best_other = random.chain(greedy).fold(f64::INFINITY, f64::min);
        [reduction(best_other, chosen)]
    })
}

/// Ablation: the paper's triggers (100 jobs / 120 s) against eager and lazy
/// ones.
pub fn ablation_triggers(seeds: &[u64]) -> Vec<FigureRow> {
    let claims = [claim(
        "Ablation",
        "100-job / 120-s triggers: JCT reduction vs the better of 25/60 s and 400/480 s",
        "design claim",
        Above(0.0),
    )];
    rows(seeds, claims, |seed| {
        let jct = |queue_limit: usize, interval_s: f64| {
            let mut config = simulation_config(qonductor(), 1500.0, seed);
            config.trigger_queue_limit = queue_limit;
            config.trigger_interval_s = interval_s;
            CloudSimulation::with_default_fleet(config).run().mean_completion_s()
        };
        [reduction(jct(25, 60.0).min(jct(400, 480.0)), jct(100, 120.0))]
    })
}

type Figure = fn(&[u64]) -> Vec<FigureRow>;

/// Every figure, in the paper's order.
pub fn all(seeds: &[u64]) -> Vec<FigureRow> {
    let figures: [Figure; 15] = [
        fig2a,
        fig2b,
        fig2c,
        fig6,
        fig7a,
        fig7bc,
        fig8ab,
        fig8c,
        fig9a,
        fig9b,
        fig10a,
        fig10b,
        table1,
        ablation_optimizer,
        ablation_triggers,
    ];
    figures.iter().flat_map(|figure| figure(seeds)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_figure_run_twice_on_one_seed_returns_identical_rows() {
        assert_eq!(fig10b(&[3]), fig10b(&[3]));
        assert_eq!(table1(&[3]), table1(&[3]));
    }
}
