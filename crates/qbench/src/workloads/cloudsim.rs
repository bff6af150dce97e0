//! `cloudsim-hour`: the paper's Fig. 6 run — one simulated hour at 1500
//! applications per hour on the default fleet under `Policy::Qonductor` —
//! once per round with a round-derived simulation seed. The only workload
//! where NSGA-II is the largest share of host time; no journal, no
//! transpiler.
//!
//! Applications are unmitigated (`mitigation_fraction: 0`), as in the
//! repository's own end-to-end test: PEC-mitigated mega-jobs make "mean
//! completion of completed applications" phase-chaotic under load (the same
//! hour measured 945 s, 1137 s and 1488 s on three seeds), which would drown
//! a scheduler change in seed luck. Unmitigated, twelve seeds stay within
//! ±6 %, and Qonductor beats FCFS on every one of them.

use crate::harness::{Options, Recorder, RoundCtx, Workload};
use crate::inputs::{self, Stream};
use crate::trace::Tracer;
use qonductor_cloudsim::{
    ArrivalConfig, CloudSimulation, Policy, SimulationConfig, SimulationReport,
};
use qonductor_scheduler::Nsga2Config;
use std::time::Instant;

/// `cloudsim-hour`.
pub struct CloudsimHour {
    seed: u64,
    quick: bool,
    config: SimulationConfig,
    sim_rounds: usize,
    /// Round 0's FCFS reference arm, run by the set-up the harness timed.
    first_reference: Option<SimulationReport>,
}

impl CloudsimHour {
    /// The untimed FCFS baseline arm on round `round`'s arrival stream.
    fn reference(&self, round: usize) -> SimulationReport {
        CloudSimulation::with_default_fleet(self.config_for(round, Policy::Fcfs)).run()
    }

    fn config_for(&self, round: usize, policy: Policy) -> SimulationConfig {
        SimulationConfig {
            seed: inputs::derive_seed(self.seed, Stream::Circuits, round),
            policy,
            ..self.config
        }
    }
}

impl Workload for CloudsimHour {
    const REPEAT_SETUP: bool = true;

    fn setup(opts: &Options, _tracer: &mut Tracer) -> Self {
        let base = SimulationConfig::default();
        let config = SimulationConfig {
            duration_s: if opts.quick { 300.0 } else { 3600.0 },
            mitigation_fraction: 0.0,
            arrival: ArrivalConfig { mean_rate_per_hour: 1500.0, ..ArrivalConfig::default() },
            nsga2: if opts.quick {
                Nsga2Config {
                    population_size: 12,
                    max_generations: 4,
                    max_evaluations: 200,
                    ..base.nsga2
                }
            } else {
                base.nsga2
            },
            ..base
        };
        let mut hour = CloudsimHour {
            seed: opts.seed,
            quick: opts.quick,
            config,
            sim_rounds: if opts.quick { 1 } else { 16 },
            first_reference: None,
        };
        // Before the first timed run: the configuration and the FCFS
        // reference arm the first round is checked against.
        hour.first_reference = Some(hour.reference(0));
        hour
    }

    fn sim_rounds(&self) -> usize {
        self.sim_rounds
    }

    fn round(&mut self, ctx: &RoundCtx, tracer: &mut Tracer, rec: &mut Recorder) -> f64 {
        let config = self.config_for(ctx.index, self.config.policy);

        // Timed: build and run one simulated hour.
        let root = tracer.begin("qbench.round");
        let span = tracer.begin("cloudsim.run");
        let started = Instant::now();
        let report = CloudSimulation::with_default_fleet(config).run();
        let run_s = started.elapsed().as_secs_f64();
        tracer.end(span);
        tracer.end(root);
        rec.round_done(ctx, report.arrived, run_s);

        for cycle in &report.cycles {
            let cycle_s: f64 = cycle.stage_runtimes_s.iter().sum();
            rec.latency_ms.push(cycle_s * 1e3);
            tracer.synthetic_child(span, "scheduler.cycle", (cycle_s * 1e9) as u64);
            if ctx.traced {
                let [preprocess_s, optimize_s, select_s] = cycle.stage_runtimes_s;
                rec.count("scheduler.preprocess_s", preprocess_s);
                rec.count("scheduler.optimize_s", optimize_s);
                rec.count("scheduler.select_s", select_s);
                rec.sample("scheduler.cycle_ms", cycle_s * 1e3);
                rec.sample("scheduler.jobs_per_cycle", cycle.num_jobs as f64);
            }
        }
        if ctx.traced {
            rec.count("scheduler.cycles", report.cycles.len() as f64);
            rec.count("cloudsim.cycles", report.cycles.len() as f64);
            rec.count("cloudsim.reestimated_jobs", report.reestimated_jobs as f64);
            rec.count("scheduler.rejected_jobs", report.rejected as f64);
            rec.aux("cloudsim.sim_seconds", config.duration_s);
            rec.aux("jobs", report.arrived as f64);
        }

        rec.checks.expect(report.arrived >= report.completed.len() + report.rejected, || {
            format!(
                "round {}: arrived {} < completed {} + rejected {}",
                ctx.index,
                report.arrived,
                report.completed.len(),
                report.rejected
            )
        });
        rec.checks.expect(!report.completed.is_empty(), || {
            format!("round {}: no application completed", ctx.index)
        });
        if ctx.sim {
            for app in &report.completed {
                rec.sim.jct_s.push(app.completion_s);
                rec.sim.fidelity.push(app.fidelity);
            }
            rec.sim.busy_qpu_s += report.qpu_busy_s.iter().sum::<f64>();
            rec.sim.capacity_qpu_s += report.qpu_busy_s.len() as f64 * config.duration_s;

            // Untimed baseline arm on the identical arrival stream. A quick
            // run is too short (300 simulated seconds, one trigger interval
            // of pool wait) for the JCT relation to mean anything.
            let fcfs = self.first_reference.take().unwrap_or_else(|| self.reference(ctx.index));
            rec.checks.expect(fcfs.arrived == report.arrived, || {
                format!(
                    "round {}: arms saw {} vs {} arrivals",
                    ctx.index, report.arrived, fcfs.arrived
                )
            });
            rec.checks.expect(
                self.quick || report.mean_completion_s() < fcfs.mean_completion_s(),
                || {
                    format!(
                        "round {}: Qonductor mean JCT {:.1} s is not below FCFS {:.1} s",
                        ctx.index,
                        report.mean_completion_s(),
                        fcfs.mean_completion_s()
                    )
                },
            );
        }
        if ctx.index == 0 {
            // Same seed, same report: the simulation is deterministic.
            let again = CloudSimulation::with_default_fleet(config).run();
            let same = again.arrived == report.arrived
                && again.rejected == report.rejected
                && again.completed == report.completed
                && again.qpu_busy_s == report.qpu_busy_s;
            rec.checks.expect(same, || "the same seed produced a different report".to_string());
        }
        run_s
    }
}
