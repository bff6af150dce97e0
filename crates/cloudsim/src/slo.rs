//! Bursty SLO scenario: a deadline-bound tenant shares the fleet with a
//! heavyweight bulk tenant and is hit by an arrival burst that exceeds the
//! base fleet's service capacity. The scenario runs the same pre-generated
//! offered load through two control-plane arms and compares their deadline
//! behaviour:
//!
//! * **SLO-aware** — the deadline tenant registers an [`SloClass`]; its jobs
//!   ride the journaled escalation lane past the DRR scan, the
//!   [`ScheduleTrigger`](qonductor_scheduler::ScheduleTrigger) fires early on
//!   negative deadline slack, an [`Autoscaler`] watches the arrival window
//!   and provisions elastic `Simulator`-class capacity into the
//!   [`FederatedFleet`] through journaled `QpuProvisioned`/`QpuRetired`
//!   events, and arrivals too wide for every QPU are routed through
//!   `mitigation::knitting` into sub-circuit jobs instead of being rejected.
//! * **Plain weighted-fair** — the same trigger and weights with no SLO
//!   class, no escalation, no autoscaling, and no retry-with-cutting.
//!
//! Both arms consume *byte-identical* arrival streams (arrivals are
//! pre-generated from a dedicated RNG before the arms run), so the comparison
//! isolates the admission and elasticity policies. The SLO-aware arm also
//! runs under the seeded leader-crash chaos harness: every `SloEscalated`,
//! `QpuProvisioned`, and `QpuRetired` event rides the replicated journal, so
//! a fault-injected run must reproduce the failure-free run byte for byte.

use crate::failover::{ChaosReport, FailurePlan};
use crate::kernel::{self, RunParams, Scenario, QUORUM};
use crate::load::{ArrivalConfig, HybridApplication, LoadGenerator, StreamArrival};
use crate::multitenant::BatchComposition;
use crate::sim::{estimate_submission, mean};
use qonductor_backend::{Fleet, FleetMember, JobQueue, Qpu, QpuModel, ResourceClass};
use qonductor_core::federation::FederatedFleet;
use qonductor_core::jobmanager::{BatchRecord, CompletedExecution, JobSpec};
use qonductor_core::sharding::{GlobalTicket, ShardedControlPlane};
use qonductor_core::submission::{RejectReason, SloClass, TenantConfig, TenantStats, TicketStatus};
use qonductor_core::{Autoscaler, AutoscalerConfig, ScalingDecision, TenantId};
use qonductor_mitigation::{knitting, MitigationStack};
use qonductor_scheduler::{Nsga2Config, Preference};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};

/// Configuration of the bursty SLO scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Duration, step, trigger, scheduler and seed (arrival stream, fleet
    /// synthesis, elastic-device synthesis). The trigger interval is
    /// deliberately longer than the deadline, so only the slack-aware early
    /// fire can save an SLO job.
    pub run: RunParams,
    /// Relative deadline of every SLO-tenant application (seconds after
    /// submission).
    pub deadline_s: f64,
    /// Trigger slack margin: the trigger fires early once a pending job is
    /// within this margin of its deadline, and the escalation lane looks
    /// `interval + margin` ahead.
    pub slo_margin_s: f64,
    /// Bulk tenant's constant arrival rate (jobs/hour).
    pub bulk_rate_per_hour: f64,
    /// SLO tenant's off-burst arrival rate (jobs/hour).
    pub slo_base_rate_per_hour: f64,
    /// Extra SLO-tenant arrival rate during the burst window (jobs/hour).
    pub slo_burst_rate_per_hour: f64,
    /// Burst window start (seconds).
    pub burst_start_s: f64,
    /// Burst window end (seconds, exclusive).
    pub burst_end_s: f64,
    /// Bulk tenant's DRR weight (the SLO tenant has weight 1).
    pub bulk_weight: u32,
    /// Widest circuit the SLO tenant's workload generator may draw. Set above
    /// the fleet's widest device so a fraction of arrivals is infeasible
    /// everywhere and must be knit (cut in half) to run at all.
    pub workload_max_qubits: u32,
    /// Elastic-capacity controller of the SLO-aware arm.
    pub autoscaler: AutoscalerConfig,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            run: RunParams {
                duration_s: 900.0,
                step_s: 5.0,
                trigger_queue_limit: 48,
                trigger_interval_s: 150.0,
                nsga2: Nsga2Config {
                    population_size: 20,
                    max_generations: 15,
                    max_evaluations: 1500,
                    num_threads: 2,
                    ..Nsga2Config::default()
                },
                preference: Preference::jct_first(),
                seed: 77,
            },
            deadline_s: 75.0,
            slo_margin_s: 60.0,
            bulk_rate_per_hour: 600.0,
            slo_base_rate_per_hour: 240.0,
            slo_burst_rate_per_hour: 1200.0,
            burst_start_s: 150.0,
            burst_end_s: 450.0,
            bulk_weight: 8,
            workload_max_qubits: 40,
            autoscaler: AutoscalerConfig {
                window_s: 100.0,
                target_rate_per_qpu: 0.05,
                baseline_rate: 0.15,
                max_elastic: 8,
                cooldown_s: 30.0,
            },
        }
    }
}

/// Aggregate outcome of one arm.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloArmReport {
    /// SLO-tenant applications that arrived.
    pub arrived_slo: u64,
    /// Bulk-tenant applications that arrived.
    pub arrived_bulk: u64,
    /// SLO-tenant applications fully completed (all fragments, for knit apps).
    pub completed_slo: u64,
    /// SLO-tenant applications finished within their deadline.
    pub deadline_hits: u64,
    /// `deadline_hits / arrived_slo` — unfinished, rejected, and late
    /// applications all count as misses, so "p95 deadlines held" is exactly
    /// `hit_rate >= 0.95`.
    pub hit_rate: f64,
    /// 95th-percentile turnaround of *completed* SLO applications (seconds;
    /// 0 with none).
    pub p95_turnaround_s: f64,
    /// Mean turnaround of completed SLO applications (seconds; 0 with none).
    pub mean_turnaround_s: f64,
    /// SLO escalations journaled (bypass-lane admissions).
    pub escalated: u64,
    /// Elastic QPUs provisioned over the run.
    pub provisioned: u64,
    /// Elastic QPUs retired over the run.
    pub retired: u64,
    /// Applications too wide for every QPU that were knit into fragments and
    /// submitted anyway.
    pub knit_apps: u64,
    /// Applications too wide for every QPU that were dropped without trying
    /// the cutter (always 0 in the SLO-aware arm).
    pub knittable_rejected: u64,
    /// Tickets terminally rejected as infeasible (must stay 0 in the
    /// SLO-aware arm — anything the cutter could have saved was knit at
    /// submission).
    pub rejected_infeasible: u64,
    /// Tickets terminally rejected past their deadline.
    pub rejected_deadline: u64,
    /// Tickets terminally rejected with the retry budget exhausted.
    pub rejected_retries: u64,
    /// Batches dispatched.
    pub batches: usize,
    /// Jobs dispatched across all batches.
    pub dispatched_jobs: usize,
}

/// One SLO-tenant application's completion, for byte-exact chaos comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloCompletion {
    /// Application id.
    pub app_id: u64,
    /// Submission time (seconds).
    pub submit_s: f64,
    /// Finish time of the last fragment (seconds).
    pub finish_s: f64,
    /// `finish_s - submit_s <= deadline_s`.
    pub deadline_hit: bool,
}

/// Full outcome of one arm run.
#[derive(Debug, Clone, Default)]
pub struct SloArmOutcome {
    /// Aggregate metrics.
    pub report: SloArmReport,
    /// Every dispatched batch with its per-tenant composition.
    pub batches: Vec<BatchComposition>,
    /// Every completed SLO application, in completion order.
    pub completions: Vec<SloCompletion>,
    /// End-of-run submission-service accounting, `[(bulk tenant, stats),
    /// (SLO tenant, stats)]` — the conservation suite checks each ledger
    /// balances (queued + in-flight + completed + rejected = submitted).
    pub tenants: Vec<(TenantId, TenantStats)>,
}

/// Side-by-side outcome of the two arms over the same offered load.
#[derive(Debug, Clone)]
pub struct SloComparison {
    /// The scenario configuration both arms ran under.
    pub config: SloConfig,
    /// The SLO-aware arm.
    pub slo_aware: SloArmOutcome,
    /// The plain weighted-fair arm.
    pub weighted_fair: SloArmOutcome,
}

impl SloComparison {
    /// Human-readable summary (the `slo_summary.txt` artifact).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Bursty SLO scenario (seed {}): deadline {:.0} s, burst [{:.0}, {:.0}) s of {:.0} s, \
             trigger interval {:.0} s\n\n",
            self.config.run.seed,
            self.config.deadline_s,
            self.config.burst_start_s,
            self.config.burst_end_s,
            self.config.run.duration_s,
            self.config.run.trigger_interval_s,
        ));
        out.push_str(
            "arm            arrived completed hit_rate p95_turnaround_s escalated provisioned \
             retired knit infeasible_rejected\n",
        );
        for (name, arm) in
            [("slo_aware", &self.slo_aware.report), ("weighted_fair", &self.weighted_fair.report)]
        {
            out.push_str(&format!(
                "{name:<14} {:>7} {:>9} {:>8.4} {:>16.2} {:>9} {:>11} {:>7} {:>4} {:>19}\n",
                arm.arrived_slo,
                arm.completed_slo,
                arm.hit_rate,
                arm.p95_turnaround_s,
                arm.escalated,
                arm.provisioned,
                arm.retired,
                arm.knit_apps,
                arm.knittable_rejected + arm.rejected_infeasible,
            ));
        }
        out.push_str(&format!(
            "\nslo_aware holds the p95 deadline: {} (hit_rate {:.4})\n\
             weighted_fair holds the p95 deadline: {} (hit_rate {:.4})\n",
            self.slo_aware.report.hit_rate >= 0.95,
            self.slo_aware.report.hit_rate,
            self.weighted_fair.report.hit_rate >= 0.95,
            self.weighted_fair.report.hit_rate,
        ));
        out
    }
}

/// Pre-generate the full offered load (stream 0 = bulk tenant, 1 = SLO
/// tenant) from a dedicated RNG so both arms (and fault-injected re-runs) see
/// byte-identical arrivals.
fn offered_load(config: &SloConfig, fleet_max_qubits: u32) -> Vec<StreamArrival> {
    let constant = |rate: f64| ArrivalConfig {
        mean_rate_per_hour: rate,
        diurnal_amplitude: 0.0,
        ..ArrivalConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(config.run.seed ^ 0xA11A);
    // Arrivals stop one full deadline window before the end of the run, so
    // every application has the chance to prove a deadline hit — without the
    // cutoff, late arrivals would count as structural misses in both arms.
    let horizon_s = (config.run.duration_s - config.deadline_s - config.run.step_s).max(0.0);
    // Bulk circuits always fit the base fleet; 5% carry mitigation stacks
    // (heavy stacks multiply quantum time up to ~24x, so the mix sets how
    // lumpy the background service times are).
    let mut bulk = LoadGenerator::new(constant(config.bulk_rate_per_hour), fleet_max_qubits, 0.05);
    // SLO circuits are unmitigated (the tenant pays for latency, not error
    // bars) but may be wider than any device — those must be knit to run.
    let mut slo_base = LoadGenerator::new(
        constant(config.slo_base_rate_per_hour),
        config.workload_max_qubits,
        0.0,
    );
    let mut slo_burst = LoadGenerator::new(
        constant(config.slo_burst_rate_per_hour),
        config.workload_max_qubits,
        0.0,
    );
    let mut merged: Vec<StreamArrival> = Vec::new();
    merged.extend(
        bulk.arrivals_in(0.0, horizon_s, &mut rng)
            .into_iter()
            .map(|app| StreamArrival { stream: 0, app }),
    );
    merged.extend(
        slo_base
            .arrivals_in(0.0, horizon_s, &mut rng)
            .into_iter()
            .map(|app| StreamArrival { stream: 1, app }),
    );
    merged.extend(
        slo_burst
            .arrivals_in(config.burst_start_s, config.burst_end_s.min(horizon_s), &mut rng)
            .into_iter()
            .map(|app| StreamArrival { stream: 1, app }),
    );
    merged.sort_by(|a, b| a.app.submit_time_s.total_cmp(&b.app.submit_time_s));
    for (id, arrival) in merged.iter_mut().enumerate() {
        arrival.app.app_id = id as u64;
    }
    merged
}

/// Per-application progress: how many fragments are still outstanding and the
/// latest fragment finish time seen so far.
struct AppProgress {
    stream: usize,
    submit_s: f64,
    outstanding: usize,
    latest_finish_s: f64,
    rejected: bool,
}

/// One arm of the scenario as the kernel drives it.
struct SloArm<'a> {
    config: &'a SloConfig,
    slo_aware: bool,
    fed: FederatedFleet,
    /// Advances the queues; nothing else draws from it.
    sim_rng: StdRng,
    /// Elastic devices are synthesized from their own stream so provisioning
    /// cannot perturb the simulation RNG.
    provision_rng: StdRng,
    scaler: Autoscaler,
    arrivals: VecDeque<StreamArrival>,
    /// `[bulk tenant, SLO tenant]`, indexed by stream.
    tenant_of: [TenantId; 2],
    tickets: HashMap<GlobalTicket, u64>,
    apps: HashMap<u64, AppProgress>,
    outcome: SloArmOutcome,
}

impl SloArm<'_> {
    /// One fragment of an application left the system: finished at
    /// `finish_s`, or terminally rejected (`None`). When the last fragment
    /// resolves, an SLO application none of whose fragments was rejected
    /// counts as completed.
    fn resolve(&mut self, ticket: GlobalTicket, finish_s: Option<f64>) {
        let Some(app_id) = self.tickets.remove(&ticket) else { return };
        let Some(progress) = self.apps.get_mut(&app_id) else { return };
        progress.outstanding -= 1;
        match finish_s {
            Some(finish_s) => progress.latest_finish_s = progress.latest_finish_s.max(finish_s),
            None => progress.rejected = true,
        }
        if progress.outstanding > 0 {
            return;
        }
        let progress = self.apps.remove(&app_id).expect("present above");
        if progress.stream == 1 && !progress.rejected {
            let turnaround = progress.latest_finish_s - progress.submit_s;
            let hit = turnaround <= self.config.deadline_s;
            self.outcome.report.completed_slo += 1;
            self.outcome.report.deadline_hits += u64::from(hit);
            self.outcome.completions.push(SloCompletion {
                app_id,
                submit_s: progress.submit_s,
                finish_s: progress.latest_finish_s,
                deadline_hit: hit,
            });
        }
    }
}

impl Scenario for SloArm<'_> {
    type Report = SloArmOutcome;

    fn fleet_and_drift(&mut self) -> (&mut Fleet, &mut StdRng) {
        (self.fed.fleet_mut(), &mut self.sim_rng)
    }

    fn completed(&mut self, ticket: GlobalTicket, done: &CompletedExecution) {
        self.resolve(ticket, Some(done.record.finish_time_s));
    }

    /// Non-blocking submission. Applications too wide for every device are
    /// knit into half-width fragment jobs in the SLO-aware arm and dropped in
    /// the plain arm.
    fn submit_arrivals(&mut self, _t: f64, t_next: f64, plane: &mut ShardedControlPlane) {
        while self.arrivals.front().is_some_and(|a| a.app.submit_time_s < t_next) {
            let arrival = self.arrivals.pop_front().expect("front checked");
            let is_slo = u64::from(arrival.stream == 1);
            if self.slo_aware {
                self.scaler.observe_arrival(arrival.app.submit_time_s);
            }
            let fleet = self.fed.fleet();
            let spec_of = |app: &HybridApplication| estimate_submission(fleet, app).map(|s| s.0);
            let specs: Vec<JobSpec> = match spec_of(&arrival.app) {
                Some(spec) => vec![spec],
                None if self.slo_aware => {
                    // Retry-with-cutting: split the circuit before any retry
                    // budget is burned and submit the fragments.
                    self.outcome.report.knit_apps += is_slo;
                    let cut = knitting::cut_in_half(&arrival.app.circuit);
                    let fragment = |circuit| HybridApplication {
                        app_id: arrival.app.app_id,
                        submit_time_s: arrival.app.submit_time_s,
                        circuit,
                        mitigation: MitigationStack::none(),
                    };
                    cut.fragments.into_iter().filter_map(|c| spec_of(&fragment(c))).collect()
                }
                None => Vec::new(),
            };
            if specs.is_empty() {
                self.outcome.report.knittable_rejected += is_slo;
                continue;
            }
            self.apps.insert(
                arrival.app.app_id,
                AppProgress {
                    stream: arrival.stream,
                    submit_s: arrival.app.submit_time_s,
                    outstanding: specs.len(),
                    latest_finish_s: 0.0,
                    rejected: false,
                },
            );
            for spec in specs {
                let ticket = plane
                    .submit(self.tenant_of[arrival.stream], spec, arrival.app.submit_time_s)
                    .expect(QUORUM);
                self.tickets.insert(ticket, arrival.app.app_id);
            }
        }
    }

    /// Elastic capacity: grow/shrink Simulator-class tail members of the
    /// federated fleet, journaling every transition on the (only) shard.
    fn before_admit(&mut self, t_next: f64, plane: &mut ShardedControlPlane) {
        if !self.slo_aware {
            return;
        }
        let base_len = plane.num_qpus();
        let shard = &mut plane.shards_mut()[0];
        match self.scaler.decide(t_next, self.fed.num_qpus() - base_len) {
            ScalingDecision::Grow(n) => {
                for _ in 0..n {
                    let name = format!("elastic_sim_{}", self.outcome.report.provisioned);
                    let member = FleetMember {
                        qpu: Qpu::new(name, QpuModel::falcon_27(), 1.3, &mut self.provision_rng)
                            .with_resource_class(ResourceClass::Simulator)
                            .with_cost_per_shot(0.05),
                        queue: JobQueue::new(),
                    };
                    let index = self.fed.provision("elastic-sim", member);
                    shard.provision_qpu(t_next, index, ResourceClass::Simulator).expect(QUORUM);
                    self.outcome.report.provisioned += 1;
                }
            }
            ScalingDecision::Shrink(n) => {
                for _ in 0..n {
                    if self.fed.num_qpus() <= base_len {
                        break;
                    }
                    // The tail only retires once idle and drained.
                    let Some(index) = self.fed.retire_last() else { break };
                    shard.retire_qpu(t_next, index).expect(QUORUM);
                    self.outcome.report.retired += 1;
                }
            }
            ScalingDecision::Hold => {}
        }
    }

    fn rejected(&mut self, ticket: GlobalTicket, plane: &ShardedControlPlane) {
        let report = &mut self.outcome.report;
        match plane.poll(ticket) {
            Some(TicketStatus::Rejected { reason: RejectReason::Infeasible, .. }) => {
                report.rejected_infeasible += 1;
            }
            Some(TicketStatus::Rejected { reason: RejectReason::DeadlineMissed, .. }) => {
                report.rejected_deadline += 1;
            }
            _ => report.rejected_retries += 1,
        }
        self.resolve(ticket, None);
    }

    fn dispatched(&mut self, shard: usize, batch: &BatchRecord, plane: &ShardedControlPlane) {
        self.outcome.batches.push(BatchComposition::of(shard, batch, plane));
    }

    fn finish(mut self, plane: &ShardedControlPlane) -> SloArmOutcome {
        let stats = |tenant| plane.tenant_stats(tenant).expect("tenant registered");
        self.outcome.tenants = self.tenant_of.iter().map(|&t| (t, stats(t))).collect();
        let mut turnarounds: Vec<f64> =
            self.outcome.completions.iter().map(|c| c.finish_s - c.submit_s).collect();
        turnarounds.sort_by(f64::total_cmp);
        let n = turnarounds.len();
        let report = &mut self.outcome.report;
        if n > 0 {
            let idx = ((n as f64 * 0.95).ceil() as usize).max(1) - 1;
            report.p95_turnaround_s = turnarounds[idx.min(n - 1)];
            report.mean_turnaround_s = mean(turnarounds.iter().copied());
        }
        report.hit_rate = match report.arrived_slo {
            0 => 1.0,
            arrived => report.deadline_hits as f64 / arrived as f64,
        };
        report.escalated = stats(self.tenant_of[1]).escalated;
        report.batches = self.outcome.batches.len();
        report.dispatched_jobs = self.outcome.batches.iter().map(|b| b.num_jobs).sum();
        self.outcome
    }
}

/// Run one arm of the scenario. `slo_aware` enables the SLO class, the
/// escalation lane, the autoscaler, and retry-with-cutting; otherwise the
/// identical offered load runs through plain weighted-fair admission.
pub fn run_slo_arm(
    config: &SloConfig,
    slo_aware: bool,
    plan: &FailurePlan,
) -> ChaosReport<SloArmOutcome> {
    let run = config.run;
    let mut fleet_rng = StdRng::seed_from_u64(run.seed ^ 0xF1EE7);
    let fed = FederatedFleet::single("base", Fleet::heterogeneous(&mut fleet_rng));
    let base_len = fed.num_qpus();

    let trigger = run.trigger().with_slo_margin(config.slo_margin_s);
    let mut plane = run.plane(1, base_len, trigger);
    let tenant = TenantConfig { weight: 1, max_in_flight: 1_000_000, max_retries: 1 };
    let bulk_tenant = plane
        .register_tenant_with(TenantConfig { weight: config.bulk_weight, ..tenant })
        .expect(QUORUM);
    let slo_tenant = if slo_aware {
        let slo = SloClass { deadline_s: config.deadline_s, priority: 1, max_error: 1.0 };
        plane.register_tenant_with_slo(tenant, slo).expect(QUORUM)
    } else {
        plane.register_tenant_with(tenant).expect(QUORUM)
    };

    let arrivals: VecDeque<StreamArrival> =
        offered_load(config, fed.fleet().max_qubits()).into_iter().collect();
    let arrived = |stream: usize| arrivals.iter().filter(|a| a.stream == stream).count() as u64;
    let report =
        SloArmReport { arrived_bulk: arrived(0), arrived_slo: arrived(1), ..Default::default() };
    let scenario = SloArm {
        config,
        slo_aware,
        fed,
        sim_rng: StdRng::seed_from_u64(run.seed),
        provision_rng: StdRng::seed_from_u64(run.seed ^ 0xE1A5),
        scaler: Autoscaler::new(config.autoscaler),
        arrivals,
        tenant_of: [bulk_tenant, slo_tenant],
        tickets: HashMap::new(),
        apps: HashMap::new(),
        outcome: SloArmOutcome { report, ..Default::default() },
    };
    kernel::run(scenario, plane, Some(run.scheduler()), (run.duration_s, run.step_s), plan)
}

/// Run both arms over the identical offered load and return the comparison.
pub fn run_slo_comparison(config: &SloConfig) -> SloComparison {
    SloComparison {
        config: config.clone(),
        slo_aware: run_slo_arm(config, true, &FailurePlan::none()).report,
        weighted_fair: run_slo_arm(config, false, &FailurePlan::none()).report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> SloConfig {
        let mut config =
            SloConfig { burst_start_s: 100.0, burst_end_s: 250.0, ..Default::default() };
        config.run.duration_s = 400.0;
        config
    }

    #[test]
    fn slo_arm_escalates_scales_and_knits() {
        let r = run_slo_arm(&quick_config(), true, &FailurePlan::none()).report.report;
        assert!(r.arrived_slo > 0 && r.arrived_bulk > 0, "load arrives on both streams");
        assert!(r.completed_slo > 0, "SLO applications complete");
        assert!(r.escalated > 0, "the bypass lane is exercised");
        assert!(r.provisioned > 0, "the burst provisions elastic capacity");
        assert!(r.knit_apps > 0, "wide arrivals are knit, not dropped");
        assert_eq!(r.knittable_rejected, 0, "nothing knittable is dropped");
        assert_eq!(r.rejected_infeasible, 0, "nothing is terminally rejected as infeasible");
    }

    #[test]
    fn arms_consume_identical_offered_load_and_slo_arm_wins() {
        let comparison = run_slo_comparison(&quick_config());
        let slo = comparison.slo_aware.report;
        let plain = comparison.weighted_fair.report;
        assert_eq!(slo.arrived_slo, plain.arrived_slo, "identical offered load");
        assert_eq!(slo.arrived_bulk, plain.arrived_bulk, "identical offered load");
        assert!(
            slo.hit_rate > plain.hit_rate,
            "SLO-aware hit rate {} must beat weighted-fair {}",
            slo.hit_rate,
            plain.hit_rate
        );
        assert!(plain.knittable_rejected > 0, "the plain arm drops what the cutter would save");
        assert_eq!(plain.escalated, 0, "no escalations without an SLO class");
        assert_eq!(plain.provisioned, 0, "no autoscaling without an SLO class");
        let summary = comparison.summary();
        assert!(summary.contains("slo_aware"));
        assert!(summary.contains("weighted_fair"));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_slo_arm(&quick_config(), true, &FailurePlan::none());
        let b = run_slo_arm(&quick_config(), true, &FailurePlan::none());
        assert_eq!(a.final_states, b.final_states);
        assert_eq!(a.report.batches, b.report.batches);
        assert_eq!(a.report.completions, b.report.completions);
    }
}
