//! `controlplane-drain`: a one-shard `ShardedControlPlane` (the type the
//! orchestrator runs) over the default fleet, driven directly with synthetic
//! `JobSpec`s — no circuits, so journaling, admission and the state codecs
//! dominate. Every round sets up afresh (fleet, plane, registered tenants),
//! journals a backlog, drains it (submit → DRR admit → NSGA-II dispatch →
//! completion journaling) with a snapshot at half drain, then crashes every
//! leader and fails over: the failover *reads* the journal the drain *wrote*.

use crate::harness::{Options, Recorder, RoundCtx, Workload};
use crate::inputs::{self, Stream};
use crate::trace::Tracer;
use qonductor_backend::Fleet;
use qonductor_core::{
    CalibrationPolicy, GlobalTicket, JobSpec, ReplicatedControlPlane, ShardedControlPlane,
    TenantConfig, TenantId, TicketStatus,
};
use qonductor_scheduler::{HybridScheduler, Nsga2Config, ScheduleTrigger, SchedulerConfig};
use std::collections::HashMap;
use std::sync::Barrier;
use std::time::Instant;

const QUEUE_LIMIT: usize = 25;
const INTERVAL_S: f64 = 30.0;

/// The small NSGA-II configuration of the existing control-plane bench.
fn scheduler() -> HybridScheduler {
    HybridScheduler::new(SchedulerConfig {
        nsga2: Nsga2Config {
            population_size: 16,
            max_generations: 6,
            max_evaluations: 600,
            num_threads: 1,
            ..Nsga2Config::default()
        },
        ..SchedulerConfig::default()
    })
}

fn tenant_config(index: usize) -> TenantConfig {
    TenantConfig { weight: (index % 3 + 1) as u32, max_in_flight: 1024, max_retries: 0 }
}

/// What one round is set up with.
struct Prepared {
    fleet: Fleet,
    plane: ShardedControlPlane,
    tenants: Vec<TenantId>,
    specs: Vec<JobSpec>,
}

/// `controlplane-drain`.
pub struct Drain {
    seed: u64,
    num_tenants: usize,
    num_jobs: usize,
    sim_rounds: usize,
    scheduler: HybridScheduler,
    /// The set-up the harness timed, used by round 0.
    first: Option<Prepared>,
}

impl Drain {
    fn prepare(&self, round: usize, tracer: &mut Tracer) -> Prepared {
        let fleet = inputs::fleet();
        let mut plane = ShardedControlPlane::new(
            1,
            fleet.len(),
            ScheduleTrigger::new(QUEUE_LIMIT, INTERVAL_S),
            CalibrationPolicy::SplitAtBoundary,
            1,
            self.seed,
        );
        let tenants = (0..self.num_tenants)
            .map(|i| {
                plane.register_tenant_with(tenant_config(i)).expect("fresh store has a quorum")
            })
            .collect();
        let specs = tracer.span("circuit.generate", |_| {
            inputs::drain_specs(self.seed, round, &fleet, self.num_jobs)
        });
        Prepared { fleet, plane, tenants, specs }
    }
}

/// Read a shard's journal counter across a call and attach the delta to the
/// call's span.
fn journal_child(
    tracer: &mut Tracer,
    plane: &ShardedControlPlane,
    before_ns: u64,
    span: Option<u32>,
) {
    let delta = plane.shard(0).journal_nanos() - before_ns;
    tracer.synthetic_child(span, "consensus.journal", delta);
}

impl Workload for Drain {
    // A quarter second per set-up, and one per round anyway.
    const REPEAT_SETUP: bool = false;

    fn setup(opts: &Options, tracer: &mut Tracer) -> Self {
        let mut drain = Drain {
            seed: opts.seed,
            num_tenants: if opts.quick { 300 } else { 100_000 },
            num_jobs: if opts.quick { 120 } else { 8_000 },
            sim_rounds: if opts.quick { 1 } else { 3 },
            scheduler: scheduler(),
            first: None,
        };
        drain.first = Some(drain.prepare(0, tracer));
        drain
    }

    fn sim_rounds(&self) -> usize {
        self.sim_rounds
    }

    fn round(&mut self, ctx: &RoundCtx, tracer: &mut Tracer, rec: &mut Recorder) -> f64 {
        // Set-up of this round (round 0 uses the one the harness timed).
        let Prepared { mut fleet, mut plane, tenants, specs } = match self.first.take() {
            Some(prepared) => prepared,
            None => rec.time_setup(tracer, |tracer| self.prepare(ctx.index, tracer)),
        };
        let mut jitter = inputs::rng_for(self.seed, Stream::Drain, ctx.index);
        let journal_totals = |plane: &ShardedControlPlane| -> (u64, u64) {
            (plane.shard(0).log().len(), plane.shard(0).store().committed_writes())
        };
        let (log_before, commits_before) = journal_totals(&plane);
        let fidelity_of: Vec<Vec<f64>> = specs.iter().map(|s| s.fidelity_per_qpu.clone()).collect();

        // Timed: journal the backlog, then drain it.
        let root = tracer.begin("qbench.round");
        let started = Instant::now();
        let mut tickets: Vec<GlobalTicket> = Vec::with_capacity(specs.len());
        for (j, spec) in specs.into_iter().enumerate() {
            tracer.set_job(j);
            let tenant = tenants[(j * 7919) % tenants.len()];
            let journal_ns = plane.shard(0).journal_nanos();
            let span = tracer.begin("core.submit");
            let ticket = plane.submit(tenant, spec, 0.0);
            tracer.end(span);
            journal_child(tracer, &plane, journal_ns, span);
            rec.checks.expect(ticket.is_ok(), || format!("submit {j} refused: {ticket:?}"));
            tickets.extend(ticket);
        }
        let index_of: HashMap<GlobalTicket, usize> =
            tickets.iter().enumerate().map(|(i, &t)| (t, i)).collect();

        let mut completed = 0usize;
        let mut snapshot_commits = 0u64;
        let mut snapshotted = false;
        let mut now_s = 0.0f64;
        let mut makespan_s = 0.0f64;
        let mut steps = 0usize;
        while completed < tickets.len() && steps < 4 * tickets.len() + 64 {
            steps += 1;
            now_s += INTERVAL_S;
            tracer.set_job(steps);

            let journal_ns = plane.shard(0).journal_nanos();
            let span = tracer.begin("core.admit");
            let admitted = plane.admit(now_s).expect("store has a quorum");
            tracer.end(span);
            journal_child(tracer, &plane, journal_ns, span);
            if ctx.traced {
                rec.sample("core.admitted_per_call", admitted.len() as f64);
            }

            let journal_ns = plane.shard(0).journal_nanos();
            let scheduling_ns = plane.shard(0).jobmanager().scheduling_nanos();
            let span = tracer.begin("core.dispatch");
            let outcomes = plane.try_dispatch(now_s, &self.scheduler, &mut fleet).expect("quorum");
            tracer.end(span);
            if ctx.traced {
                let cycle_ns = plane.shard(0).jobmanager().scheduling_nanos() - scheduling_ns;
                tracer.synthetic_child(span, "scheduler.cycle", cycle_ns);
                journal_child(tracer, &plane, journal_ns, span);
                for (_, outcome) in &outcomes {
                    let timings = outcome.record.outcome.timings;
                    rec.count("scheduler.cycles", 1.0);
                    rec.count("scheduler.preprocess_s", timings.preprocessing_s);
                    rec.count("scheduler.optimize_s", timings.optimization_s);
                    rec.count("scheduler.select_s", timings.selection_s);
                    rec.count(
                        "scheduler.rejected_jobs",
                        outcome.record.outcome.rejected_jobs.len() as f64,
                    );
                    rec.sample("scheduler.cycle_ms", cycle_ns as f64 * 1e-6);
                    rec.sample("scheduler.jobs_per_cycle", outcome.record.job_ids.len() as f64);
                    rec.sample(
                        "scheduler.front_size",
                        outcome.record.outcome.pareto_front.len() as f64,
                    );
                }
            }

            tracer.span("backend.advance", |_| fleet.advance_to(now_s, &mut jitter));

            let journal_ns = plane.shard(0).journal_nanos();
            let span = tracer.begin("core.drain");
            let done = plane.drain_and_note(&mut fleet).expect("store has a quorum");
            tracer.end(span);
            journal_child(tracer, &plane, journal_ns, span);
            completed += done.len();
            for (ticket, completion) in done {
                makespan_s = makespan_s.max(completion.record.finish_time_s);
                if ctx.sim {
                    // Every job was submitted at t = 0.
                    rec.sim.jct_s.push(completion.record.finish_time_s);
                    rec.sim.fidelity.push(fidelity_of[index_of[&ticket]][completion.qpu_index]);
                    rec.sim.busy_qpu_s += completion.record.execution_s();
                }
            }

            if !snapshotted && 2 * completed >= tickets.len() {
                snapshotted = true;
                let commits = plane.shard(0).store().committed_writes();
                let snapshot = tracer.span("consensus.snapshot", |_| plane.snapshot_all());
                // Installing the snapshot and compacting the journal are
                // store writes too; they are not journal commits.
                snapshot_commits = plane.shard(0).store().committed_writes() - commits;
                rec.checks.expect(snapshot.is_ok(), || format!("snapshot refused: {snapshot:?}"));
                if ctx.traced {
                    let retained = plane.shard(0).log().retained_len();
                    rec.count("consensus.retained_after_snapshot", retained as f64);
                }
            }
        }
        let drain_s = started.elapsed().as_secs_f64();
        tracer.end(root);
        rec.checks.expect(completed == tickets.len(), || {
            format!("drained {completed} of {} jobs in {steps} steps", tickets.len())
        });
        rec.round_done(ctx, tickets.len(), drain_s);
        if ctx.sim {
            rec.sim.capacity_qpu_s += fleet.len() as f64 * makespan_s;
        }

        // Untimed bookkeeping before the crash.
        let root = tracer.begin("qbench.probe");
        let digest = tracer.span("core.digest", |_| plane.combined_digest());
        tracer.end(root);
        let replay_entries = plane.shard(0).replay_backlog();
        if ctx.traced {
            let (log_after, commits_after) = journal_totals(&plane);
            rec.count("consensus.log_entries", (log_after - log_before) as f64);
            rec.count(
                "consensus.committed_writes",
                (commits_after - commits_before - snapshot_commits) as f64,
            );
            rec.count("consensus.replay_entries", replay_entries as f64);
            rec.aux("jobs", tickets.len() as f64);
            rec.gauges
                .insert("core.encode_state_bytes", plane.shard(0).encode_state().len() as f64);
        }

        // Timed: crash every leader, fail over, first submit acknowledged. The
        // clock stops while the restored digest is read, so the comparison
        // sees the state before the probe submit is journaled.
        let root = tracer.begin("qbench.round");
        let started = Instant::now();
        plane.crash_all_leaders();
        let failover = tracer.span("consensus.replay", |_| plane.failover_all());
        let mut failover_s = started.elapsed().as_secs_f64();
        let restored = plane.combined_digest();
        let probe = JobSpec {
            qubits: 2,
            shots: 1000,
            fidelity_per_qpu: vec![0.9; fleet.len()],
            exec_time_per_qpu: vec![5.0; fleet.len()],
            estimate_epoch: fleet.calibration_epoch(),
        };
        let started = Instant::now();
        let acknowledged = plane.submit(tenants[0], probe, now_s);
        failover_s += started.elapsed().as_secs_f64();
        tracer.end(root);
        rec.latency_ms.push(failover_s * 1e3);

        rec.checks.expect(failover.is_ok(), || format!("failover failed: {failover:?}"));
        rec.checks.expect(restored == digest, || {
            format!("digest before the crash {digest} != after failover {restored}")
        });
        rec.checks.expect(acknowledged.is_ok(), || {
            format!("first post-failover submit refused: {acknowledged:?}")
        });
        for &ticket in &tickets {
            let resolved = matches!(plane.poll(ticket), Some(TicketStatus::Completed { .. }));
            rec.checks.expect(resolved, || format!("{ticket:?} lost by the failover"));
        }
        if ctx.index + 1 == self.sim_rounds {
            rec.digest = Some(digest);
        }
        drain_s + failover_s
    }

    /// The same backlog on one shard and split over two independent shards,
    /// one per real thread (as in `controlplane_throughput`): a barrier after
    /// registration, then the spawn → join wall of the drive loops. Measured,
    /// not modelled; the one-shard figure is the base of the ratio.
    fn finish(&mut self, opts: &Options, _tracer: &mut Tracer, rec: &mut Recorder) {
        if !opts.trace {
            return;
        }
        let whole = inputs::fleet();
        for shards in [1usize, 2] {
            let sub_fleets: Vec<Fleet> = (0..shards)
                .map(|s| {
                    Fleet::from_members(
                        whole
                            .members()
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| i % shards == s)
                            .map(|(_, m)| m.clone())
                            .collect(),
                    )
                })
                .collect();
            let barrier = Barrier::new(shards + 1);
            let (tenants, jobs) = (self.num_tenants / shards, self.num_jobs / shards);
            let seed = self.seed;
            let (wall_s, dispatched) = std::thread::scope(|scope| {
                let handles: Vec<_> = sub_fleets
                    .into_iter()
                    .enumerate()
                    .map(|(s, fleet)| {
                        let barrier = &barrier;
                        scope.spawn(move || drive_shard(seed, s, tenants, jobs, fleet, barrier))
                    })
                    .collect();
                barrier.wait();
                let started = Instant::now();
                let dispatched: usize =
                    handles.into_iter().map(|h| h.join().expect("shard thread")).sum();
                (started.elapsed().as_secs_f64(), dispatched)
            });
            rec.checks.expect(dispatched == jobs * shards, || {
                format!("{shards}-shard run dispatched {dispatched} of {}", jobs * shards)
            });
            let name =
                if shards == 1 { "core.shards1_jobs_per_s" } else { "core.shards2_jobs_per_s" };
            rec.gauges.insert(name, dispatched as f64 / wall_s);
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        rec.notes.push(format!(
            "core.shards2_jobs_per_s is the measured spawn->join wall of two concurrently running \
             shards on {cores} available core(s); core.shards1_jobs_per_s is the same backlog on one"
        ));
    }
}

/// One independent shard of the two-shard measurement: register, wait at the
/// barrier, then journal and drain its share of the backlog.
fn drive_shard(
    seed: u64,
    shard: usize,
    num_tenants: usize,
    num_jobs: usize,
    mut fleet: Fleet,
    barrier: &Barrier,
) -> usize {
    let mut plane = ReplicatedControlPlane::new(
        ScheduleTrigger::new(QUEUE_LIMIT, INTERVAL_S),
        1,
        seed.wrapping_add(shard as u64),
    );
    let tenants: Vec<TenantId> = (0..num_tenants)
        .map(|i| plane.register_tenant_with(tenant_config(i)).expect("fresh store has a quorum"))
        .collect();
    let specs = inputs::drain_specs(seed, 1_000 + shard, &fleet, num_jobs);
    let scheduler = scheduler();
    let mut jitter = inputs::rng_for(seed, Stream::Drain, 1_000 + shard);
    barrier.wait();
    for (j, spec) in specs.into_iter().enumerate() {
        plane.submit(tenants[(j * 7919) % tenants.len()], spec, 0.0).expect("quorum");
    }
    let (mut dispatched, mut now_s, mut steps) = (0usize, 0.0f64, 0usize);
    while dispatched < num_jobs && steps < 4 * num_jobs + 64 {
        steps += 1;
        now_s += INTERVAL_S;
        plane.admit(now_s).expect("quorum");
        if let Some(outcome) = plane.try_dispatch(now_s, &scheduler, &mut fleet).expect("quorum") {
            dispatched += outcome.record.job_ids.len();
        }
        fleet.advance_to(now_s, &mut jitter);
        let done = plane.drain_completions(&mut fleet);
        plane.note_completions(&done).expect("quorum");
    }
    dispatched
}
