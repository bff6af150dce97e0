//! Property-based tests (proptest) on the core data structures and invariants:
//! circuit IR metrics, transpilation correctness, Hellinger fidelity bounds,
//! mitigation cost composition, scheduler feasibility, MCDM selection, the
//! multi-tenant submission/batch-dispatch engine, and the replicated control
//! plane's crash-replay identity.

mod common;

use proptest::prelude::*;
use qonductor::backend::{
    hellinger_fidelity, CouplingMap, Distribution, Fleet, Qpu, QpuModel, ResourceClass, Simulator,
};
use qonductor::circuit::{generators, Circuit, CircuitMetrics};
use qonductor::core::digest::Fnv64;
use qonductor::core::{
    CalibrationPolicy, JobTicket, ReplicatedControlPlane, SloClass, TenantConfig, TicketStatus,
};
use qonductor::mitigation::{fold_circuit, MitigationCost};
use qonductor::scheduler::{
    optimize, optimize_with, select, JobRequest, Nsga2Config, OptimizerWorkspace, Preference,
    QpuState, ScheduleTrigger, SchedulingProblem,
};
use qonductor::transpiler::Transpiler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Circuit depth never exceeds the gate count, and width never exceeds the register.
    #[test]
    fn circuit_metric_invariants(n in 2u32..20, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = generators::random_circuit(n, 10, &mut rng);
        let m = CircuitMetrics::of(&circuit);
        prop_assert!(m.width <= m.register_size);
        prop_assert!(m.depth <= circuit.len());
        prop_assert!(m.two_qubit_ratio() >= 0.0 && m.two_qubit_ratio() <= 1.0);
    }

    /// GHZ transpilation onto the heavy-hex Falcon preserves the ideal output
    /// distribution for any width that fits the statevector simulator.
    #[test]
    fn transpilation_preserves_distribution(n in 2u32..9) {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let qpu = Qpu::new("prop", QpuModel::falcon_27(), 1.0, &mut rng);
        let circuit = generators::ghz(n);
        let transpiled = Transpiler::default().transpile_for_qpu(&circuit, &qpu);
        let sim = Simulator::default();
        let before = sim.ideal_distribution(&circuit);
        let after = sim.ideal_distribution(&transpiled.circuit);
        prop_assert!(hellinger_fidelity(&before, &after) > 0.999);
        // Every two-qubit gate respects the coupling map.
        for instr in transpiled.circuit.instructions() {
            if instr.gate.is_two_qubit() {
                prop_assert!(qpu.model.coupling_map.are_coupled(instr.q0, instr.q1));
            }
        }
    }

    /// ZNE folding with odd factors scales the two-qubit gate count exactly and
    /// never changes the measurement count.
    #[test]
    fn folding_scales_gates(n in 2u32..10, k in 0u32..4) {
        let factor = (2 * k + 1) as f64;
        let circuit = generators::ghz(n);
        let folded = fold_circuit(&circuit, factor);
        prop_assert_eq!(folded.two_qubit_gates(), circuit.two_qubit_gates() * (2 * k as usize + 1));
        prop_assert_eq!(folded.num_measurements(), circuit.num_measurements());
    }

    /// Hellinger fidelity is symmetric and bounded in [0, 1].
    #[test]
    fn hellinger_bounds(values in prop::collection::vec(0.0f64..100.0, 1..12)) {
        let p: Distribution = values.iter().enumerate().map(|(i, &v)| (i as u64, v + 0.01)).collect();
        let q: Distribution = values.iter().enumerate().map(|(i, &v)| (i as u64, 100.01 - v)).collect();
        let f = hellinger_fidelity(&p, &q);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!((f - hellinger_fidelity(&q, &p)).abs() < 1e-9);
        prop_assert!((hellinger_fidelity(&p, &p) - 1.0).abs() < 1e-9);
    }

    /// Stacking mitigation costs is monotone: the stacked error factor is never
    /// worse than either component, and multiplicities multiply.
    #[test]
    fn mitigation_stacking_monotone(e1 in 0.1f64..1.0, e2 in 0.1f64..1.0, m1 in 1usize..6, m2 in 1usize..6) {
        let a = MitigationCost {
            circuit_multiplicity: m1,
            quantum_time_factor: m1 as f64,
            classical_time_cpu_s: 0.1,
            accelerator_speedup: 1.0,
            error_reduction_factor: e1,
        };
        let b = MitigationCost { circuit_multiplicity: m2, error_reduction_factor: e2, ..a };
        let s = a.stack(&b);
        prop_assert_eq!(s.circuit_multiplicity, m1 * m2);
        prop_assert!(s.error_reduction_factor <= e1 + 1e-12);
        prop_assert!(s.error_reduction_factor <= e2 + 1e-12);
        prop_assert!(s.error_reduction_factor >= 0.03 - 1e-12);
        // Mitigated fidelity is always a valid probability.
        let f = s.mitigated_fidelity(0.42);
        prop_assert!((0.0..=1.0).contains(&f));
    }

    /// The NSGA-II scheduler always returns feasible, mutually non-dominated fronts,
    /// and MCDM selection picks a member of the front.
    #[test]
    fn scheduler_front_invariants(num_jobs in 5usize..30, num_qpus in 2usize..6, seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let qpus: Vec<QpuState> = (0..num_qpus)
            .map(|i| QpuState {
                name: format!("q{i}"),
                num_qubits: if i == 0 { 7 } else { 27 },
                waiting_time_s: rng.gen_range(0.0..300.0),
                calibration_epoch: 0,
            })
            .collect();
        let jobs: Vec<JobRequest> = (0..num_jobs)
            .map(|i| JobRequest {
                job_id: i as u64,
                qubits: rng.gen_range(2..=20),
                shots: 1000,
                fidelity_per_qpu: (0..num_qpus).map(|_| rng.gen_range(0.3..0.95)).collect(),
                exec_time_per_qpu: (0..num_qpus).map(|_| rng.gen_range(1.0..60.0)).collect(),
            })
            .collect();
        let problem = SchedulingProblem::new(jobs, qpus);
        let config = Nsga2Config {
            population_size: 16,
            max_generations: 10,
            max_evaluations: 1000,
            num_threads: 1,
            seed,
            ..Nsga2Config::default()
        };
        let result = optimize(&problem, &config);
        prop_assert!(!result.pareto_front.is_empty());
        for sol in &result.pareto_front {
            prop_assert!(problem.assignment_is_feasible(&sol.assignment));
        }
        let idx = select(&result.pareto_front, Preference::balanced());
        prop_assert!(idx < result.pareto_front.len());
    }

    /// `optimize` stays deterministic for a fixed seed under workspace reuse
    /// and (cold-path) warm-start plumbing: dirtying a workspace on a
    /// different problem first never changes the result, and seeding with the
    /// run's own front is stable.
    #[test]
    fn optimizer_deterministic_under_workspace_reuse(seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let make = |rng: &mut StdRng, num_jobs: usize, num_qpus: usize| {
            let qpus: Vec<QpuState> = (0..num_qpus)
                .map(|i| QpuState {
                    name: format!("q{i}"),
                    num_qubits: 27,
                    waiting_time_s: rng.gen_range(0.0..300.0),
                    calibration_epoch: 0,
                })
                .collect();
            let jobs: Vec<JobRequest> = (0..num_jobs)
                .map(|i| JobRequest {
                    job_id: i as u64,
                    qubits: rng.gen_range(2..=20),
                    shots: 1000,
                    fidelity_per_qpu: (0..num_qpus).map(|_| rng.gen_range(0.3..0.95)).collect(),
                    exec_time_per_qpu: (0..num_qpus).map(|_| rng.gen_range(1.0..60.0)).collect(),
                })
                .collect();
            SchedulingProblem::new(jobs, qpus)
        };
        let problem = make(&mut rng, 20, 4);
        let other = make(&mut rng, 33, 6);
        let config = Nsga2Config {
            population_size: 16,
            max_generations: 8,
            max_evaluations: 1000,
            num_threads: 1,
            seed,
            ..Nsga2Config::default()
        };
        let fresh = optimize(&problem, &config);
        // Dirty a workspace on a different problem shape, then reuse it.
        let mut ws = OptimizerWorkspace::new();
        let _ = optimize_with(&other, &config, &[], &mut ws);
        let reused = optimize_with(&problem, &config, &[], &mut ws);
        prop_assert_eq!(fresh.evaluations, reused.evaluations);
        prop_assert_eq!(fresh.pareto_front.len(), reused.pareto_front.len());
        for (a, b) in fresh.pareto_front.iter().zip(&reused.pareto_front) {
            prop_assert_eq!(&a.assignment, &b.assignment);
            prop_assert_eq!(a.objectives.mean_jct_s.to_bits(), b.objectives.mean_jct_s.to_bits());
            prop_assert_eq!(a.objectives.mean_error.to_bits(), b.objectives.mean_error.to_bits());
        }
        // Warm seeds are deterministic too: same seeds → same result.
        let seeds: Vec<Vec<usize>> =
            fresh.pareto_front.iter().map(|s| s.assignment.clone()).collect();
        let warm_a = optimize_with(&problem, &config, &seeds, &mut ws);
        let mut ws2 = OptimizerWorkspace::new();
        let warm_b = optimize_with(&problem, &config, &seeds, &mut ws2);
        prop_assert_eq!(warm_a.pareto_front, warm_b.pareto_front);
        prop_assert_eq!(warm_a.evaluations, warm_b.evaluations);
        for s in &warm_a.pareto_front {
            prop_assert!(problem.assignment_is_feasible(&s.assignment));
        }
    }

    /// Island-mode determinism: for a fixed (seed, island count) the island
    /// optimizer is a pure function of its inputs — two independent runs with
    /// fresh workspaces return bit-identical fronts.
    #[test]
    fn island_optimizer_is_deterministic_per_seed_and_island_count(
        islands in 2usize..5,
        num_jobs in 8usize..30,
        num_qpus in 2usize..6,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD0D0);
        let qpus: Vec<QpuState> = (0..num_qpus)
            .map(|i| QpuState {
                name: format!("q{i}"),
                num_qubits: if i == 0 { 7 } else { 27 },
                waiting_time_s: rng.gen_range(0.0..300.0),
                calibration_epoch: 0,
            })
            .collect();
        let jobs: Vec<JobRequest> = (0..num_jobs)
            .map(|i| JobRequest {
                job_id: i as u64,
                qubits: rng.gen_range(2..=20),
                shots: 1000,
                fidelity_per_qpu: (0..num_qpus).map(|_| rng.gen_range(0.3..0.95)).collect(),
                exec_time_per_qpu: (0..num_qpus).map(|_| rng.gen_range(1.0..60.0)).collect(),
            })
            .collect();
        let problem = SchedulingProblem::new(jobs, qpus);
        // Population 16 with MIN_ISLAND_POP = 4 keeps up to 4 islands live.
        let config = Nsga2Config {
            population_size: 16,
            max_generations: 12,
            max_evaluations: 1500,
            num_threads: islands,
            seed,
            ..Nsga2Config::default()
        };
        let a = optimize_with(&problem, &config, &[], &mut OptimizerWorkspace::new());
        let b = optimize_with(&problem, &config, &[], &mut OptimizerWorkspace::new());
        prop_assert_eq!(a.evaluations, b.evaluations);
        prop_assert_eq!(a.pareto_front, b.pareto_front);
        for s in &a.pareto_front {
            prop_assert!(problem.assignment_is_feasible(&s.assignment));
        }
    }

    /// Whatever happens to the pool before the trigger fires — late
    /// arrivals, jobs leaving it via direct dispatch, or nothing at all — the
    /// dispatched batch is exactly the live pending pool at the firing
    /// instant, and only jobs from it are enqueued.
    #[test]
    fn dispatched_batches_contain_only_the_live_pool(
        num_jobs in 2usize..10,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC5);
        let mut fleet = common::small_fleet(seed ^ 0x00AB);
        let scheduler = common::small_scheduler(8, 4, 240);
        let mut plane = ReplicatedControlPlane::new(ScheduleTrigger::new(100, 40.0), 1, seed);
        let tenant = plane.register_tenant(1).expect("quorum");
        for _ in 0..num_jobs {
            let spec = common::feasible_spec(&fleet, rng.gen_range(2..=20), 5.0);
            plane.submit(tenant, spec, 0.0).expect("quorum");
        }
        if rng.gen_bool(0.4) {
            for _ in 0..rng.gen_range(1..3) {
                let spec = common::feasible_spec(&fleet, rng.gen_range(2..=20), 5.0);
                plane.submit(tenant, spec, 1.0).expect("quorum");
            }
        }
        plane.admit(1.0).expect("quorum");
        if rng.gen_bool(0.4) {
            let pool = plane.jobmanager().pending();
            let victim = pool[rng.gen_range(0..pool.len())].job_id;
            let qpu = rng.gen_range(0..fleet.members().len());
            plane.dispatch_direct(victim, qpu, &mut fleet).expect("quorum");
        }
        let live: Vec<u64> = plane.jobmanager().pending().iter().map(|j| j.job_id).collect();
        let batch = plane
            .try_dispatch(40.0, &scheduler, &mut fleet)
            .expect("quorum")
            .expect("interval fires")
            .record;
        prop_assert_eq!(&batch.job_ids, &live, "the whole live pool is scheduled");
        let live: HashSet<u64> = live.into_iter().collect();
        for id in batch.enqueued_job_ids() {
            prop_assert!(live.contains(&id), "job {} enqueued but not in the live pool", id);
        }
    }

    /// Coupling maps report symmetric adjacency and triangle-inequality distances.
    #[test]
    fn coupling_map_distance_invariants(rows in 1u32..4, cols in 2u32..5) {
        let map = CouplingMap::grid(rows, cols);
        let n = map.num_qubits();
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(map.are_coupled(a, b), map.are_coupled(b, a));
                if a == b {
                    prop_assert_eq!(map.distance(a, b), Some(0));
                } else {
                    let d = map.distance(a, b).unwrap();
                    prop_assert!(d >= 1);
                    if map.are_coupled(a, b) {
                        prop_assert_eq!(d, 1);
                    }
                }
            }
        }
    }

    /// For arbitrary interleavings of multi-tenant `submit`, weighted-fair
    /// admission, and trigger-gated dispatch: (a) engine job ids stay
    /// monotonic and unique across tenants, (b) every admitted job appears in
    /// exactly one `BatchRecord`, (c) no batch exceeds the queue-size trigger
    /// limit, and every ticket ends in exactly one terminal or live state.
    #[test]
    fn interleaved_submission_dispatch_invariants(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fleet = common::small_fleet(seed ^ 0xBEEF);
        const QUEUE_LIMIT: usize = 7;
        let mut plane = ReplicatedControlPlane::new(ScheduleTrigger::new(QUEUE_LIMIT, 40.0), 1, seed);
        let scheduler = common::small_scheduler(8, 4, 240);
        let tenants: Vec<_> = (1..=3u32)
            .map(|w| plane.register_tenant_with(TenantConfig {
                weight: w,
                max_in_flight: 16,
                max_retries: 1,
            }).expect("quorum"))
            .collect();

        let mut t = 0.0f64;
        let mut all_tickets: Vec<JobTicket> = Vec::new();
        let mut admitted_ids: Vec<u64> = Vec::new();
        let mut batches = Vec::new();
        let drive = |t: &mut f64,
                         dt: f64,
                         plane: &mut ReplicatedControlPlane,
                         fleet: &mut Fleet,
                         admitted_ids: &mut Vec<u64>,
                         batches: &mut Vec<qonductor::core::BatchRecord>,
                         rng: &mut StdRng| {
            *t += dt;
            admitted_ids.extend(plane.admit(*t).expect("quorum").into_iter().map(|(_, id)| id));
            if let Some(outcome) = plane.try_dispatch(*t, &scheduler, fleet).expect("quorum") {
                batches.push(outcome.record);
            }
            fleet.advance_to(*t, rng);
            plane.note_completions(&plane.drain_completions(fleet)).expect("quorum");
        };

        let num_ops = rng.gen_range(20..60);
        for _ in 0..num_ops {
            if rng.gen_bool(0.6) {
                let tenant = tenants[rng.gen_range(0..tenants.len())];
                // ~12% of submissions are infeasible (wider than every QPU)
                // to exercise the bounded-retry rejection path.
                let qubits = if rng.gen_bool(0.12) { 40 } else { rng.gen_range(2..=20) };
                let spec = common::feasible_spec(&fleet, qubits, 5.0);
                all_tickets.push(plane.submit(tenant, spec, t).unwrap());
            } else {
                let dt = rng.gen_range(1.0..60.0);
                drive(&mut t, dt, &mut plane, &mut fleet, &mut admitted_ids, &mut batches, &mut rng);
            }
        }
        // Flush: drive until every queue and the pool are empty.
        let mut guard = 0;
        while plane.submissions().total_queued() > 0 || plane.jobmanager().pending_len() > 0 {
            guard += 1;
            prop_assert!(guard < 500, "flush must converge");
            drive(&mut t, 41.0, &mut plane, &mut fleet, &mut admitted_ids, &mut batches, &mut rng);
        }
        fleet.advance_to(t + 1e6, &mut rng);
        plane.note_completions(&plane.drain_completions(&mut fleet)).expect("quorum");

        // (a) ids are strictly increasing (hence unique) across tenants, in
        // admission order.
        for w in admitted_ids.windows(2) {
            prop_assert!(w[0] < w[1], "ids must be monotonic: {:?}", w);
        }
        // (b) every admitted job appears in exactly one batch record, and
        // batches contain only admitted jobs.
        let mut seen: HashMap<u64, usize> = HashMap::new();
        for batch in &batches {
            // (c) no batch exceeds the queue-size trigger limit.
            prop_assert!(batch.job_ids.len() <= QUEUE_LIMIT, "batch size {}", batch.job_ids.len());
            let composition: usize = batch.tenant_jobs.iter().map(|(_, n)| n).sum();
            prop_assert_eq!(composition, batch.job_ids.len());
            for &id in &batch.job_ids {
                *seen.entry(id).or_insert(0) += 1;
            }
        }
        let admitted_set: HashSet<u64> = admitted_ids.iter().copied().collect();
        prop_assert_eq!(admitted_set.len(), admitted_ids.len());
        for (&id, &count) in &seen {
            prop_assert_eq!(count, 1, "job {} appears in {} batches", id, count);
            prop_assert!(admitted_set.contains(&id), "batched job {} was admitted", id);
        }
        for &id in &admitted_set {
            prop_assert!(seen.contains_key(&id), "admitted job {} reached a batch", id);
        }
        // Ticket conservation: every ticket ends Completed or (for the
        // infeasible ones) terminally Rejected after max_retries + 1 attempts.
        for ticket in &all_tickets {
            match plane.poll(*ticket) {
                Some(TicketStatus::Completed { .. }) => {}
                Some(TicketStatus::Rejected { attempts, .. }) => prop_assert_eq!(attempts, 2),
                other => panic!("ticket {ticket:?} ended as {other:?}"),
            }
        }
        for (id, stats) in plane.submissions().snapshot() {
            prop_assert_eq!(
                stats.completed + stats.rejected,
                stats.submitted,
                "tenant {} conserves tickets", id
            );
        }
    }

    /// Calibration-aware split dispatch conserves jobs: for arbitrary
    /// workloads on a fleet whose devices recalibrate mid-run, every
    /// submitted (feasible) job is *enqueued* exactly once across the split
    /// batches — deferral delays a job past the boundary but never loses or
    /// duplicates it — and every deferred job id reappears in a later batch.
    #[test]
    fn split_dispatch_conserves_jobs(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Short calibration period so plans regularly cross boundaries.
        let mut fleet = common::small_fleet(seed ^ 0xCAFE).with_calibration_period(120.0, 0.0);
        let mut plane = ReplicatedControlPlane::with_policy(
            ScheduleTrigger::new(6, 30.0),
            CalibrationPolicy::SplitAtBoundary,
            1,
        );
        let tenant = plane.register_tenant(1).expect("quorum");
        let scheduler = common::small_scheduler(8, 4, 240);

        let num_jobs = rng.gen_range(5..25);
        let mut t = 0.0f64;
        for _ in 0..num_jobs {
            t += rng.gen_range(0.0..20.0);
            let exec_s = rng.gen_range(5.0..90.0);
            let qubits = rng.gen_range(2..=20);
            plane.submit(tenant, common::feasible_spec(&fleet, qubits, exec_s), t).expect("quorum");
        }

        // Drive the plane event-by-event until the queue and the pool drain
        // (the pool holds at most the trigger limit; admission refills it).
        let mut submitted: Vec<u64> = Vec::new();
        let mut enqueued: HashMap<u64, usize> = HashMap::new();
        let mut deferred_ever: HashSet<u64> = HashSet::new();
        let mut guard = 0;
        loop {
            submitted.extend(plane.admit(t).expect("quorum").into_iter().map(|(_, id)| id));
            let pending = plane.jobmanager().pending_len();
            if pending == 0 {
                break;
            }
            guard += 1;
            prop_assert!(guard < 400, "drain must converge (pending {})", pending);
            let Some(fire) = plane.next_trigger_s() else { break };
            t = fire.max(t);
            fleet.advance_to(t, &mut rng);
            if let Some(outcome) = plane.try_dispatch(t, &scheduler, &mut fleet).expect("quorum") {
                let batch = outcome.record;
                for id in batch.enqueued_job_ids() {
                    *enqueued.entry(id).or_insert(0) += 1;
                }
                for &(id, boundary) in &batch.deferred {
                    deferred_ever.insert(id);
                    prop_assert!(boundary > t, "deferral parks behind a *future* boundary");
                }
            }
        }

        // Every submitted job was enqueued exactly once — none lost to a
        // split, none dispatched twice across the split batches.
        for &id in &submitted {
            prop_assert_eq!(
                enqueued.get(&id).copied().unwrap_or(0),
                1,
                "job {} must be enqueued exactly once (deferred: {})",
                id,
                deferred_ever.contains(&id)
            );
        }
        prop_assert_eq!(enqueued.len(), submitted.len());
        prop_assert_eq!(submitted.len(), num_jobs, "every ticket was admitted");
        // Deferred jobs re-entered a later batch rather than vanishing.
        for id in &deferred_ever {
            prop_assert!(enqueued.contains_key(id), "deferred job {} was re-dispatched", id);
        }
    }

    /// Workload circuits always measure every qubit and respect the width bounds.
    #[test]
    fn workload_circuits_are_well_formed(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let generator = qonductor::circuit::WorkloadGenerator::new(qonductor::circuit::WorkloadConfig {
            max_qubits: 27,
            ..Default::default()
        });
        let circuit: Circuit = generator.sample_circuit(&mut rng);
        prop_assert!(circuit.num_qubits() >= 2 && circuit.num_qubits() <= 27);
        prop_assert!(circuit.num_measurements() as u32 >= circuit.num_qubits());
        prop_assert!(circuit.shots() >= 100);
    }
}

/// One step of the replicated-control-plane property run.
#[derive(Debug, Clone, Copy)]
enum ControlOp {
    /// Register a fresh tenant mid-run (journaled; with `slo_deadline_s` the
    /// tenant lands on the submission service's SLO index — the active-ring /
    /// SLO-index consistency invariant must hold through it and its replay).
    Register { weight: u32, slo_deadline_s: Option<f64> },
    /// Submit a job for tenant `tenant_index` (infeasible if `qubits` exceeds
    /// every QPU, exercising the bounded-retry rejection path on replay).
    /// With `extra_column` the estimate table carries one entry more than
    /// the fleet has QPUs, as if estimated against a larger fleet.
    Submit { tenant_index: usize, qubits: u32, extra_column: bool },
    /// Advance simulated time by `dt_s`: admit, maybe dispatch, advance the
    /// fleet, deliver completions.
    Drive { dt_s: f64 },
    /// Checkpoint: install a snapshot and compact the journal (moves the
    /// replay baseline, so later crash points restore `snapshot + log[..k]`).
    Snapshot,
    /// Take a fleet-QPU lease (journaled before use; idempotent re-grants
    /// append nothing, so replay can't double-count them).
    Lease { qpu_index: usize },
    /// Return a fleet-QPU lease (journaled; releasing an unheld lease is a
    /// no-op that appends nothing).
    Release { qpu_index: usize },
    /// Place pending job `job_pick` (modulo the pool) directly on
    /// `qpu_index`, which may be infeasible for it or past the fleet: a
    /// refused dispatch journals nothing.
    DirectDispatch { job_pick: usize, qpu_index: usize },
    /// Re-estimate pending job `job_pick` at `exec_s`; with `extra_column`
    /// the table carries one more entry than the fleet has QPUs, which a
    /// direct dispatch past the fleet must not trust.
    Reestimate { job_pick: usize, exec_s: f64, extra_column: bool },
    /// Journal an autoscaler grow decision for fleet index `qpu_index`.
    Provision { qpu_index: usize },
    /// Journal an autoscaler shrink decision for fleet index `qpu_index`.
    Retire { qpu_index: usize },
}

/// `spec` with one more estimate column than the fleet has QPUs, if `extra`.
fn with_extra_column(mut spec: qonductor::core::JobSpec, extra: bool) -> qonductor::core::JobSpec {
    if extra {
        spec.fidelity_per_qpu.push(0.9);
        spec.exec_time_per_qpu.push(spec.exec_time_per_qpu[0]);
    }
    spec
}

/// Execute an op sequence against a fresh replicated control plane — under
/// `CalibrationPolicy::SplitAtBoundary` on a fleet recalibrating every 120 s
/// for even seeds, so boundary deferrals are journaled and replayed. If
/// `crash_at` is `Some(k)`, the leader is killed and failed over right before
/// op `k` (the journal then holds exactly the events of `log[..k]`, and the
/// run continues by appending — i.e. replaying — `log[k..]`), and after every
/// op the state is rebuilt from the plane's own store (a failover with the
/// leader alive) and compared with the live one; the uninterrupted run
/// (`None`) only ever runs live. Returns the final encoded state (the byte
/// oracle), every ticket's final status, and whether every rebuild matched
/// the live state byte for byte. The derived admission indices are checked
/// for consistency after every op.
fn run_control_ops(
    seed: u64,
    ops: &[ControlOp],
    crash_at: Option<usize>,
) -> (String, Vec<Option<TicketStatus>>, bool) {
    // The derived-index invariant (active ring ⇔ queue/deficit, SLO index ⇔
    // finite-deadline class, O(1) queue counter) must hold after *every*
    // op, crash, and replay — not just at the end.
    fn indices_hold(plane: &ReplicatedControlPlane) {
        assert!(
            plane.submissions().indices_consistent(),
            "derived admission indices diverged from the tenant map"
        );
    }
    const QUEUE_LIMIT: usize = 5;
    const INTERVAL_S: f64 = 40.0;
    let split = seed.is_multiple_of(2);
    let mut fleet = common::small_fleet(seed ^ 0xF1EE);
    let policy = if split {
        fleet = fleet.with_calibration_period(120.0, 0.0);
        CalibrationPolicy::SplitAtBoundary
    } else {
        CalibrationPolicy::Naive
    };
    let scheduler = common::small_scheduler(8, 4, 240);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD21F);
    let mut plane = ReplicatedControlPlane::with_policy(
        qonductor::scheduler::ScheduleTrigger::new(QUEUE_LIMIT, INTERVAL_S),
        policy,
        1,
    );
    let mut tenants: Vec<_> = (1..=3u32)
        .map(|w| {
            plane
                .register_tenant_with(TenantConfig { weight: w, max_in_flight: 16, max_retries: 1 })
                .expect("quorum")
        })
        .collect();
    let mut tickets: Vec<JobTicket> = Vec::new();
    let mut rebuilds_matched = true;
    let mut t = 0.0f64;

    let crash = |plane: &mut ReplicatedControlPlane, matched: &mut bool| {
        let digest = plane.state_digest();
        let oracle = plane.encode_state();
        plane.crash_leader();
        plane.failover().expect("a majority of control replicas survives");
        // Byte exactness via the encode_state oracle AND fingerprint
        // agreement of the incremental digest.
        *matched &= plane.state_digest() == digest && plane.encode_state() == oracle;
        indices_hold(plane);
    };
    let drive = |plane: &mut ReplicatedControlPlane,
                 fleet: &mut Fleet,
                 rng: &mut StdRng,
                 t: &mut f64,
                 dt_s: f64| {
        *t += dt_s;
        plane.admit(*t).expect("quorum");
        let _ = plane.try_dispatch(*t, &scheduler, fleet).expect("quorum");
        fleet.advance_to(*t, rng);
        let done = plane.drain_completions(fleet);
        plane.note_completions(&done).expect("quorum");
    };

    for (index, op) in ops.iter().enumerate() {
        if crash_at == Some(index) {
            crash(&mut plane, &mut rebuilds_matched);
        }
        match *op {
            ControlOp::Register { weight, slo_deadline_s } => {
                let config = TenantConfig { weight, max_in_flight: 16, max_retries: 1 };
                let tenant = match slo_deadline_s {
                    Some(deadline_s) => plane
                        .register_tenant_with_slo(config, SloClass::with_deadline(deadline_s))
                        .expect("quorum"),
                    None => plane.register_tenant_with(config).expect("quorum"),
                };
                tenants.push(tenant);
            }
            ControlOp::Submit { tenant_index, qubits, extra_column } => {
                let spec =
                    with_extra_column(common::feasible_spec(&fleet, qubits, 5.0), extra_column);
                let tenant = tenants[tenant_index % tenants.len()];
                tickets.push(plane.submit(tenant, spec, t).expect("quorum"));
            }
            ControlOp::Drive { dt_s } => drive(&mut plane, &mut fleet, &mut rng, &mut t, dt_s),
            ControlOp::Snapshot => {
                plane.snapshot().expect("quorum");
            }
            ControlOp::Lease { qpu_index } => {
                plane.lease_qpu(qpu_index % fleet.members().len()).expect("quorum");
            }
            ControlOp::Release { qpu_index } => {
                plane.release_qpu(qpu_index % fleet.members().len()).expect("quorum");
            }
            ControlOp::DirectDispatch { job_pick, qpu_index } => {
                let pool = plane.jobmanager().pending();
                if !pool.is_empty() {
                    let job_id = pool[job_pick % pool.len()].job_id;
                    let journaled = plane.log().len();
                    let placed =
                        plane.dispatch_direct(job_id, qpu_index, &mut fleet).expect("quorum");
                    assert_eq!(plane.log().len(), journaled + u64::from(placed));
                }
            }
            ControlOp::Reestimate { job_pick, exec_s, extra_column } => {
                let pool = plane.jobmanager().pending();
                if !pool.is_empty() {
                    let job = &pool[job_pick % pool.len()];
                    let job_id = job.job_id;
                    let spec = common::feasible_spec(&fleet, job.spec.qubits, exec_s);
                    plane
                        .reestimate_job(job_id, with_extra_column(spec, extra_column))
                        .expect("quorum");
                }
            }
            ControlOp::Provision { qpu_index } => {
                plane.provision_qpu(t, qpu_index, ResourceClass::Simulator).expect("quorum");
            }
            ControlOp::Retire { qpu_index } => {
                plane.retire_qpu(t, qpu_index).expect("quorum");
            }
        }
        indices_hold(&plane);
        if crash_at.is_some() {
            let (digest, live) = (plane.state_digest(), plane.encode_state());
            plane.failover().expect("the leader is alive");
            rebuilds_matched &= plane.state_digest() == digest && plane.encode_state() == live;
            indices_hold(&plane);
        }
    }
    if crash_at == Some(ops.len()) {
        crash(&mut plane, &mut rebuilds_matched);
    }
    // Flush: drive until every tenant queue and the pending pool drain.
    let mut guard = 0;
    while plane.submissions().total_queued() > 0 || plane.jobmanager().pending_len() > 0 {
        guard += 1;
        assert!(guard < 500, "flush must converge");
        drive(&mut plane, &mut fleet, &mut rng, &mut t, INTERVAL_S + 1.0);
    }
    // Run the queues dry completion by completion (one far jump would walk
    // every recalibration boundary of the short-period fleet on the way).
    while let Some(next_s) = plane.next_event_s(&fleet) {
        fleet.advance_to(next_s, &mut rng);
    }
    let done = plane.drain_completions(&mut fleet);
    plane.note_completions(&done).expect("quorum");
    indices_hold(&plane);
    let statuses = tickets.iter().map(|&ticket| plane.poll(ticket)).collect();
    (plane.encode_state(), statuses, rebuilds_matched)
}

proptest! {
    // The failover acceptance criterion: ≥100 random interleavings × crash
    // points, each run twice (uninterrupted vs. crashed), byte-compared.
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// For an arbitrary interleaving of submit / admit+dispatch / complete /
    /// snapshot / lease-grant / lease-release / direct-dispatch /
    /// re-estimate / provision / retire ops, under either calibration
    /// policy, and an arbitrary crash point `k`: killing the leader before
    /// op `k` and rebuilding from `restore(snapshot, log[..k])`, then
    /// replaying the remaining ops (`log[k..]`), yields a final control-plane
    /// state **byte-for-byte identical** to the uninterrupted run — same
    /// pending pool, next ids, per-tenant queues/stats, and every ticket in
    /// the same terminal state. No pre-crash ticket is ever lost, and in the
    /// crashed run a rebuild from the store equals the live state after
    /// every single op, not just at the crash point.
    #[test]
    fn crash_replay_is_identical_to_the_uninterrupted_run(
        seed in 0u64..1_000_000,
        crash_fraction in 0.0f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
        let num_ops = rng.gen_range(8..22);
        let ops: Vec<ControlOp> = (0..num_ops)
            .map(|_| {
                let roll: f64 = rng.gen_range(0.0..1.0);
                if roll < 0.5 {
                    ControlOp::Submit {
                        tenant_index: rng.gen_range(0..6),
                        // ~10% of submissions are wider than every QPU, so
                        // replay also covers rejection + bounded retry.
                        qubits: if rng.gen_bool(0.1) { 40 } else { rng.gen_range(2..=20) },
                        extra_column: rng.gen_bool(0.25),
                    }
                } else if roll < 0.57 {
                    // Mid-run registrations, half carrying an SLO class, so
                    // the SLO index and active ring churn under replay.
                    ControlOp::Register {
                        weight: rng.gen_range(1..=3),
                        slo_deadline_s: rng
                            .gen_bool(0.5)
                            .then(|| rng.gen_range(20.0f64..200.0)),
                    }
                } else if roll < 0.75 {
                    ControlOp::Drive { dt_s: rng.gen_range(1.0..50.0) }
                } else if roll < 0.81 {
                    ControlOp::Snapshot
                } else if roll < 0.84 {
                    ControlOp::Lease { qpu_index: rng.gen_range(0..8) }
                } else if roll < 0.87 {
                    ControlOp::Release { qpu_index: rng.gen_range(0..8) }
                } else if roll < 0.95 {
                    // Indices 8 and 9 lie past the 8-QPU fleet; 8 is where
                    // an estimate table one entry too long reads runnable.
                    ControlOp::DirectDispatch {
                        job_pick: rng.gen_range(0..16),
                        qpu_index: if rng.gen_bool(0.4) { 8 } else { rng.gen_range(0..10) },
                    }
                } else if roll < 0.98 {
                    ControlOp::Reestimate {
                        job_pick: rng.gen_range(0..16),
                        exec_s: rng.gen_range(1.0..30.0),
                        extra_column: rng.gen_bool(0.5),
                    }
                } else if roll < 0.99 {
                    ControlOp::Provision { qpu_index: rng.gen_range(8..11) }
                } else {
                    ControlOp::Retire { qpu_index: rng.gen_range(8..11) }
                }
            })
            .collect();
        // `ops.len() + 1` crash points: before each op, plus one *after* the
        // last op (crashing with queues still draining, exercised by the
        // flush phase); the min() guards the crash_fraction == 1.0 edge.
        let crash_at =
            ((crash_fraction * (ops.len() + 1) as f64).floor() as usize).min(ops.len());

        let (reference_digest, reference_statuses, _) = run_control_ops(seed, &ops, None);
        let (crashed_digest, crashed_statuses, rebuilds_matched) =
            run_control_ops(seed, &ops, Some(crash_at));

        prop_assert!(rebuilds_matched, "failover rebuilt divergent state at op {crash_at}");
        prop_assert_eq!(
            &crashed_digest, &reference_digest,
            "crash at op {} diverged from the uninterrupted run", crash_at
        );
        prop_assert_eq!(crashed_statuses.len(), reference_statuses.len());
        for (i, (crashed, reference)) in
            crashed_statuses.iter().zip(&reference_statuses).enumerate()
        {
            prop_assert_eq!(crashed, reference, "ticket {} status diverged", i);
            prop_assert!(
                matches!(
                    crashed,
                    Some(TicketStatus::Completed { .. }) | Some(TicketStatus::Rejected { .. })
                ),
                "ticket {} must reach a terminal state, got {:?}", i, crashed
            );
        }
    }
}

/// FNV-64 over the `to_bits` of every objective `evaluate` returns for the
/// 200 pairs of [`evaluate_is_pinned_bit_for_bit`], recorded while
/// `evaluate` still built an aggregate struct per call.
const EVALUATE_PIN: u64 = 0x302e_a8ac_6eab_f380;

/// `SchedulingProblem::evaluate` is pinned bit for bit over 200 seeded
/// (problem, assignment) pairs: infeasible placements, jobs no QPU fits,
/// NaN/∞ estimates and waits, the calibration-boundary penalty and the
/// shot-cost lane. It is the exact re-evaluation of every returned front, so
/// any change to its arithmetic or summation order shows here.
#[test]
fn evaluate_is_pinned_bit_for_bit() {
    fn estimate(rng: &mut StdRng, range: std::ops::Range<f64>, poison: f64) -> f64 {
        if rng.gen_bool(0.05) {
            poison
        } else {
            rng.gen_range(range)
        }
    }
    let mut rng = StdRng::seed_from_u64(0xE7A1);
    let mut digest = Fnv64::new();
    for case in 0..200 {
        let num_jobs = rng.gen_range(1..40);
        let num_qpus = rng.gen_range(1..7);
        let qpus: Vec<QpuState> = (0..num_qpus)
            .map(|i| QpuState {
                name: format!("q{i}"),
                num_qubits: if i == 0 { 7 } else { 27 },
                waiting_time_s: estimate(&mut rng, 0.0..600.0, f64::NAN),
                calibration_epoch: 0,
            })
            .collect();
        let jobs: Vec<JobRequest> = (0..num_jobs)
            .map(|i| JobRequest {
                job_id: i as u64,
                // Up to 30 qubits: some jobs fit no QPU at all.
                qubits: rng.gen_range(2..=30),
                shots: rng.gen_range(100..5000),
                fidelity_per_qpu: (0..num_qpus)
                    .map(|_| estimate(&mut rng, 0.3..0.95, f64::NAN))
                    .collect(),
                exec_time_per_qpu: (0..num_qpus)
                    .map(|_| estimate(&mut rng, 1.0..90.0, f64::INFINITY))
                    .collect(),
            })
            .collect();
        let mut problem = SchedulingProblem::new(jobs, qpus);
        if case % 2 == 1 {
            let horizons: Vec<f64> =
                (0..num_qpus).map(|_| estimate(&mut rng, 0.0..900.0, f64::INFINITY)).collect();
            problem = problem.with_boundary_penalty(&horizons, rng.gen_range(0.5..4.0));
        }
        if case % 4 >= 2 {
            let prices: Vec<f64> =
                (0..num_qpus).map(|_| estimate(&mut rng, 0.0..0.5, f64::NAN)).collect();
            problem = problem.with_shot_costs(&prices, rng.gen_range(0.001..0.1));
        }
        // Capacity is not enforced, so infeasible placements are pinned too.
        let assignment: Vec<usize> = (0..num_jobs).map(|_| rng.gen_range(0..num_qpus)).collect();
        let o = problem.evaluate(&assignment);
        for x in [o.mean_jct_s, o.mean_error, o.mean_cost] {
            digest.absorb(&x.to_bits().to_le_bytes());
        }
    }
    assert_eq!(digest.value(), EVALUATE_PIN, "evaluate digest {:#x}", digest.value());
}
