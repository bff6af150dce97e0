//! The benchmark's metric tables: every end-to-end and per-layer metric by
//! name, with its unit, direction, clock and (end-to-end only) the bound by
//! which it may worsen before a change counts as a regression. The root
//! `BENCHMARK.json` is generated from these tables
//! (`qbench --print-benchmark-json`) and a unit test keeps the two equal.

use crate::json::{self, Value};

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What a metric's number is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time on this machine (or a rate / share derived from it).
    Host,
    /// Simulated seconds or simulated quality: repeats exactly for a seed.
    Sim,
    /// A count or ratio of counts taken at a layer boundary: repeats exactly
    /// for a seed and a fixed number of rounds.
    Count,
    /// Computed from the inputs, not measured (e.g. amplitude updates).
    Computed,
}

impl Clock {
    /// Label used in the printed tables.
    pub fn word(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
            Clock::Computed => "computed",
        }
    }
}

/// One metric's declaration.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name: letters, digits, `_`, `.`, `-`.
    pub name: &'static str,
    /// Unit: letters, digits, `_`, `/`, `%`, `.`, `-`.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen (end-to-end only).
    pub bound: Option<f64>,
    /// What the number is made of.
    pub clock: Clock,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    clock: Clock,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound), clock }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> MetricDef {
    MetricDef { name, unit, better, bound: None, clock }
}

use Better::{Higher, Lower};
use Clock::{Computed, Count, Host, Sim};

/// Metrics a user of the system would see. Every one is reported by every
/// workload (the driver's contract), so `latency_ms_p50` is the median host
/// latency of *that workload's* interactive operation — see `LATENCY_OF`.
///
/// The bounds are set from measured run-to-run spread on a shared 2-core
/// microVM whose noise level itself drifts: host-time metrics spread 3–6 %
/// across runs in a quiet quarter hour and 10–15 % in a noisy one, the
/// simulated ones (across *seeds*) up to 6 %; a bound is about three times
/// the quiet spread and above the noisy one.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, Host),
    e2e("jobs_per_s", "1/s", Higher, 0.20, Host),
    e2e("latency_ms_p50", "ms", Lower, 0.25, Host),
    e2e("peak_rss_mb", "MB", Lower, 0.10, Host),
    e2e("sim_jct_mean_s", "s", Lower, 0.15, Sim),
    e2e("sim_jct_p95_s", "s", Lower, 0.20, Sim),
    e2e("sim_fidelity_mean", "ratio", Higher, 0.05, Sim),
];

/// What `latency_ms_p50` times on each workload.
pub const LATENCY_OF: &[(&str, &str)] = &[
    ("invoke-unique", "one Orchestrator::estimate_resources(image) call"),
    ("invoke-iterative", "one Orchestrator::estimate_resources(image) call (8 quantum steps)"),
    ("controlplane-drain", "crash_all_leaders -> failover_all -> first submit acknowledged"),
    ("cloudsim-hour", "one scheduling cycle inside the simulation (sum of its StageTimings)"),
    ("dataplane-mitigated", "one job: transpile -> generate -> execute -> REM -> extrapolate"),
];

/// Metrics of single layers, from the traced run. `_busy_s` metrics are host
/// *self* seconds per traced round; counts are per traced round unless the
/// name says `_mean`, `_share` or `_p50`.
pub const PER_LAYER: &[MetricDef] = &[
    layer("circuit.generate_busy_s", "s", Lower, Host),
    layer("circuit.gates_total", "count", Lower, Count),
    layer("transpiler.calls", "count", Lower, Count),
    layer("transpiler.busy_s", "s", Lower, Host),
    layer("transpiler.us_per_call_p50", "us", Lower, Host),
    layer("transpiler.layout_busy_s", "s", Lower, Host),
    layer("transpiler.route_busy_s", "s", Lower, Host),
    layer("transpiler.basis_busy_s", "s", Lower, Host),
    layer("transpiler.schedule_busy_s", "s", Lower, Host),
    layer("transpiler.stage_probe_calls", "count", Lower, Count),
    layer("transpiler.swaps_inserted", "count", Lower, Count),
    layer("transpiler.out_gates_per_in_gate", "ratio", Lower, Count),
    layer("transpiler.distinct_input_share", "ratio", Lower, Count),
    layer("estimator.plans_calls", "count", Lower, Count),
    layer("estimator.plans_busy_s", "s", Lower, Host),
    layer("estimator.plans_us_p50", "us", Lower, Host),
    layer("estimator.esp_busy_s", "s", Lower, Host),
    layer("estimator.fidelity_abs_err_mean", "ratio", Lower, Sim),
    layer("mitigation.generate_busy_s", "s", Lower, Host),
    layer("mitigation.circuits_out", "count", Lower, Count),
    layer("mitigation.dd_busy_s", "s", Lower, Host),
    layer("mitigation.fold_busy_s", "s", Lower, Host),
    layer("mitigation.twirl_busy_s", "s", Lower, Host),
    layer("mitigation.rem_busy_s", "s", Lower, Host),
    layer("mitigation.extrapolate_busy_s", "s", Lower, Host),
    layer("mitigation.cost_busy_s", "s", Lower, Host),
    layer("mitigation.fold_equiv_share", "ratio", Higher, Sim),
    layer("mitigation.zne_fidelity_mean", "ratio", Higher, Sim),
    layer("backend.execute_calls", "count", Lower, Count),
    layer("backend.execute_busy_s", "s", Lower, Host),
    layer("backend.trajectory_share", "ratio", Lower, Count),
    layer("backend.amp_updates", "count", Lower, Computed),
    layer("backend.ideal_busy_s", "s", Lower, Host),
    layer("backend.advance_busy_s", "s", Lower, Host),
    layer("backend.noise_model_busy_s", "s", Lower, Host),
    layer("backend.sim_qpu_util_mean", "ratio", Higher, Sim),
    layer("scheduler.cycles", "count", Lower, Count),
    layer("scheduler.busy_s", "s", Lower, Host),
    layer("scheduler.cycle_ms_p50", "ms", Lower, Host),
    layer("scheduler.cycle_ms_p90", "ms", Lower, Host),
    layer("scheduler.preprocess_s", "s", Lower, Host),
    layer("scheduler.optimize_s", "s", Lower, Host),
    layer("scheduler.select_s", "s", Lower, Host),
    layer("scheduler.jobs_per_cycle_mean", "count", Higher, Count),
    layer("scheduler.front_size_mean", "count", Higher, Count),
    layer("scheduler.rejected_jobs", "count", Lower, Count),
    layer("consensus.journal_busy_s", "s", Lower, Host),
    layer("consensus.log_entries", "count", Lower, Count),
    layer("consensus.committed_writes", "count", Lower, Count),
    layer("consensus.entries_per_job", "ratio", Lower, Count),
    layer("consensus.entries_per_commit", "ratio", Higher, Count),
    layer("consensus.retained_after_snapshot", "count", Lower, Count),
    layer("consensus.snapshot_busy_s", "s", Lower, Host),
    layer("consensus.replay_busy_s", "s", Lower, Host),
    layer("consensus.replay_entries", "count", Lower, Count),
    layer("core.submit_busy_s", "s", Lower, Host),
    layer("core.submit_us_p50", "us", Lower, Host),
    layer("core.admit_busy_s", "s", Lower, Host),
    layer("core.admit_calls", "count", Lower, Count),
    layer("core.admitted_per_call_mean", "count", Higher, Count),
    layer("core.dispatch_busy_s", "s", Lower, Host),
    layer("core.drain_busy_s", "s", Lower, Host),
    layer("core.digest_busy_s", "s", Lower, Host),
    layer("core.encode_state_bytes", "count", Lower, Count),
    layer("core.reestimate_passes", "count", Lower, Count),
    layer("core.estimate_ms_p99", "ms", Lower, Host),
    layer("core.shards1_jobs_per_s", "1/s", Higher, Host),
    layer("core.shards2_jobs_per_s", "1/s", Higher, Host),
    layer("core.unattributed_s", "s", Lower, Host),
    layer("core.unattributed_share", "ratio", Lower, Host),
    layer("cloudsim.run_busy_s", "s", Lower, Host),
    layer("cloudsim.self_busy_s", "s", Lower, Host),
    layer("cloudsim.sim_s_per_host_s", "ratio", Higher, Host),
    layer("cloudsim.cycles", "count", Lower, Count),
    layer("cloudsim.reestimated_jobs", "count", Lower, Count),
    layer("qbench.round_wall_s", "s", Lower, Host),
    layer("qbench.traced_rounds", "count", Higher, Count),
    layer("qbench.trace_overhead_share", "ratio", Lower, Host),
    layer("qbench.spans", "count", Lower, Count),
    layer("qbench.latency_ms_tail", "ms", Lower, Host),
    layer("qbench.latency_tail_percentile", "%", Higher, Count),
    layer("qbench.latency_samples", "count", Higher, Count),
];

/// The five workloads and why each exists (one line each, as
/// `BENCHMARK.json` requires; the README has the long form).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "invoke-unique",
        "every circuit distinct: per-QPU transpile + plan generation dominate, nothing is shared, so a reuse mechanism must show no loss here",
    ),
    (
        "invoke-iterative",
        "48 VQE/QAOA apps x 8 iterations re-invoked by 4 tenants: same layers as invoke-unique but work repeats, so reuse should win here",
    ),
    (
        "controlplane-drain",
        "synthetic JobSpecs over 10^5 tenants, no circuits: journaling, DRR admission and codecs dominate; failover reads what the drain writes",
    ),
    (
        "cloudsim-hour",
        "one simulated hour at 1500 apps/h: the only workload where NSGA-II is the largest share; no journal, no transpiler",
    ),
    (
        "dataplane-mitigated",
        "transpile -> ZNE+DD circuits -> Simulator::execute -> REM -> extrapolate: the only workload that runs the simulator and circuit rewriting",
    ),
];

/// How long one run measures, in seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// The directory this package lives in, relative to the repository root.
pub const BENCH_DIR: &str = "crates/qbench";

/// Look a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The contents of the root `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let metric = |m: &MetricDef| {
        let mut members = vec![
            ("name", json::s(m.name)),
            ("unit", json::s(m.unit)),
            ("better", json::s(m.better.word())),
        ];
        if let Some(bound) = m.bound {
            members.push(("bound", Value::Num(bound)));
        }
        json::obj(members)
    };
    let command = ["cargo", "run", "--release", "--quiet", "-p", "qbench", "--"];
    json::obj(vec![
        ("command", Value::Arr(command.iter().map(|&c| json::s(c)).collect())),
        ("paths", Value::Arr(vec![json::s(BENCH_DIR)])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|&(name, why)| {
                        json::obj(vec![("name", json::s(name)), ("why", json::s(why))])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", Value::Arr(END_TO_END.iter().map(metric).collect())),
        ("per_layer", Value::Arr(PER_LAYER.iter().map(metric).collect())),
    ])
    .to_json_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Whether `name` uses only the characters the contract allows in a name.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// Whether `unit` uses only the characters the contract allows in a unit.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_obey_the_contract_limits() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for (name, why) in WORKLOADS {
            assert!(valid_name(name));
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is {} chars", why.len());
            assert!(LATENCY_OF.iter().any(|(w, _)| w == name));
        }
        assert!(
            !valid_name("has space") && !valid_name("") && !valid_name(".x") && !valid_name("a/b")
        );
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("jobs per s"));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cargo run -p qbench -- --print-benchmark-json > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
        let doc = json::parse(&committed).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
    }
}
