//! The part every workload shares: timing set-up, running rounds until the
//! time budget is spent, collecting samples and correctness checks, and
//! turning spans and counters into the declared metrics.
//!
//! A run is closed-loop with one client: the next round starts when the
//! previous one has returned. Rounds repeat a fixed amount of work, so a
//! metric is a median over rounds and a slow host simply completes fewer of
//! them. Simulated (`sim_*`) metrics come from the first
//! [`Workload::sim_rounds`] rounds only, which always run, so they do not
//! depend on host speed.
//!
//! On a shared host, interference only ever adds time, and it comes in
//! bursts that slow whole rounds by a third or more. The host-time
//! end-to-end metrics are therefore taken on the *fast* side over rounds —
//! `jobs_per_s` the 90th percentile of the rounds' rates, `latency_ms_p50`
//! the 10th percentile of the rounds' median latencies — which is the part
//! of the distribution that repeats from run to run (over eight runs the
//! median of the rounds moved by 5–8 %, the fast decile by 3–5 %; between two
//! sessions an hour apart the medians moved by up to 10 %, the fast deciles
//! by 5 %). `setup_s` is likewise the 10th percentile over set-ups. The
//! report prints the median and quartiles over rounds beside them.

use crate::json::{self, Value};
use crate::metrics::{self, MetricDef, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{NameSummary, Tracer};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Host seconds of timed work to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced run (end-to-end metrics).
    pub trace: bool,
    /// Smoke-test sizes: two small rounds, whatever `seconds` says.
    pub quick: bool,
}

/// Correctness checks, counted rather than asserted: a violation adds to
/// `failed` and the run continues.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Those that failed, were refused, or failed a correctness check.
    pub failed: u64,
    /// The first few violations, for the printed report.
    pub first_failures: Vec<String>,
}

impl Checks {
    /// Count one check; `what` is only evaluated for a violation.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < 8 {
                self.first_failures.push(what());
            }
        }
    }
}

/// Simulated outcomes of the sim rounds.
#[derive(Debug, Default)]
pub struct SimOutcome {
    /// Simulated submit → finish per job, seconds.
    pub jct_s: Vec<f64>,
    /// Delivered fidelity per job.
    pub fidelity: Vec<f64>,
    /// Σ simulated execution seconds.
    pub busy_qpu_s: f64,
    /// Σ (number of QPUs × simulated makespan).
    pub capacity_qpu_s: f64,
}

/// Everything a workload reports while it runs.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Correctness checks.
    pub checks: Checks,
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Jobs per host second of each untraced round.
    pub rates: Vec<f64>,
    /// Timed wall of each untraced / traced round.
    pub untraced_walls: Vec<f64>,
    /// See `untraced_walls`.
    pub traced_walls: Vec<f64>,
    /// Host latency samples of the workload's interactive operation, ms.
    pub latency_ms: Vec<f64>,
    /// Median of each round's latency samples, ms (filled by the harness).
    pub round_latency_ms: Vec<f64>,
    /// Simulated outcomes (sim rounds only).
    pub sim: SimOutcome,
    /// Counters summed over traced rounds, by per-layer metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Auxiliary sums over traced rounds: the numerators and denominators
    /// of ratio metrics.
    pub aux: BTreeMap<&'static str, f64>,
    /// Samples from traced rounds, by key.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer values set directly (not per round).
    pub gauges: BTreeMap<&'static str, f64>,
    /// State digest after the sim rounds: equal across runs of one seed and
    /// commit. A check, not a metric.
    pub digest: Option<String>,
    /// Findings and caveats for the printed report.
    pub notes: Vec<String>,
}

impl Recorder {
    /// Add to a per-round counter.
    pub fn count(&mut self, name: &'static str, value: f64) {
        debug_assert!(metrics::find(name).is_some(), "undeclared counter {name}");
        *self.counts.entry(name).or_insert(0.0) += value;
    }

    /// Add to an auxiliary sum (a ratio metric's numerator or denominator).
    pub fn aux(&mut self, key: &'static str, value: f64) {
        *self.aux.entry(key).or_insert(0.0) += value;
    }

    /// Append a sample.
    pub fn sample(&mut self, key: &'static str, value: f64) {
        self.samples.entry(key).or_default().push(value);
    }

    /// Run one set-up step under a `qbench.setup` root span and add its wall
    /// to the `setup_s` samples (workloads that set up afresh every round
    /// call this themselves).
    pub fn time_setup<T>(&mut self, tracer: &mut Tracer, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let started = Instant::now();
        let out = tracer.span("qbench.setup", f);
        self.setup_s.push(started.elapsed().as_secs_f64());
        out
    }

    /// Record a finished round's throughput.
    pub fn round_done(&mut self, ctx: &RoundCtx, jobs: usize, wall_s: f64) {
        if ctx.traced {
            self.traced_walls.push(wall_s);
        } else {
            self.untraced_walls.push(wall_s);
            self.rates.push(jobs as f64 / wall_s);
        }
    }
}

/// What a round is told about itself.
#[derive(Debug, Clone, Copy)]
pub struct RoundCtx {
    /// Zero-based round index.
    pub index: usize,
    /// Whether the round's simulated outcomes feed the `sim_*` metrics.
    pub sim: bool,
    /// Whether the tracer is recording this round.
    pub traced: bool,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Whether set-up is repeated after the rounds (at least five times,
    /// until 0.4 s or 400 more set-ups have been sampled) so that even a
    /// sub-millisecond `setup_s` rests on many warmed-up repetitions. A
    /// workload whose set-up is expensive and happens afresh every round
    /// says no and pushes one sample per round instead.
    const REPEAT_SETUP: bool;

    /// Everything before the first timed call.
    fn setup(opts: &Options, tracer: &mut Tracer) -> Self;

    /// Rounds whose simulated outcomes feed `sim_*`; they always run.
    fn sim_rounds(&self) -> usize;

    /// One round. Returns the host seconds its timed regions took.
    fn round(&mut self, ctx: &RoundCtx, tracer: &mut Tracer, rec: &mut Recorder) -> f64;

    /// After the last round: untimed extras.
    fn finish(&mut self, _opts: &Options, _tracer: &mut Tracer, _rec: &mut Recorder) {}
}

/// The outcome of one run.
#[derive(Debug)]
pub struct RunResult {
    /// No check failed.
    pub correct: bool,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks failed.
    pub failed: u64,
    /// The metrics this run reports: every end-to-end metric for an untraced
    /// run, every per-layer metric for a traced one.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// The human-readable report.
    pub report: String,
    /// Spans as JSON lines (traced runs only).
    pub spans_jsonl: Option<String>,
    /// State digest after the sim rounds, where the workload has one.
    pub digest: Option<String>,
}

impl RunResult {
    /// The last line of standard output: exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        json::obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .to_json()
    }

    fn metrics_json(&self) -> Value {
        Value::Obj(
            self.metrics
                .iter()
                .map(|(def, value)| {
                    let metric =
                        json::obj(vec![("value", Value::Num(*value)), ("unit", json::s(def.unit))]);
                    (def.name.to_string(), metric)
                })
                .collect(),
        )
    }

    /// The record `--out` appends (one JSON line per run) and `--compare`
    /// reads: the contract line plus what identifies the run.
    pub fn record_line(&self, opts: &Options) -> String {
        json::obj(vec![
            ("workload", json::s(&opts.workload)),
            ("seed", Value::Num(opts.seed as f64)),
            ("seconds", Value::Num(opts.seconds)),
            ("trace", Value::Bool(opts.trace)),
            ("quick", Value::Bool(opts.quick)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("digest", self.digest.as_deref().map_or(Value::Null, json::s)),
            ("metrics", self.metrics_json()),
        ])
        .to_json()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One set-up of workload `W`, timed into `setup_s`.
fn timed_setup<W: Workload>(opts: &Options, tracer: &mut Tracer, rec: &mut Recorder) -> W {
    rec.time_setup(tracer, |tracer| W::setup(opts, tracer))
}

/// Run one workload to completion.
pub fn run<W: Workload>(opts: &Options) -> RunResult {
    let mut tracer = Tracer::new();
    let mut rec = Recorder::default();

    // The first set-up. It is one sample of `setup_s`; the repetitions come
    // after the rounds, because the first tenth of a second of a process on
    // this host can run 1.7x slow (cold vCPU, first-touch page faults).
    tracer.set_enabled(opts.trace);
    let mut workload = timed_setup::<W>(opts, &mut tracer, &mut rec);

    // Rounds: a traced run alternates untraced and traced rounds so the
    // tracing overhead is measured against like rounds of the same process.
    let sim_rounds = workload.sim_rounds();
    let min_rounds = if opts.quick { 2 } else { sim_rounds.max(2) };
    let started = Instant::now();
    let mut timed_s = 0.0;
    let mut index = 0;
    loop {
        let traced = opts.trace && index % 2 == 1;
        tracer.set_enabled(traced);
        tracer.set_round(index);
        let ctx = RoundCtx { index, sim: index < sim_rounds, traced };
        let first_sample = rec.latency_ms.len();
        timed_s += workload.round(&ctx, &mut tracer, &mut rec);
        let round_median = stats::median(&rec.latency_ms[first_sample..]);
        rec.round_latency_ms.push(round_median);
        index += 1;
        let spent =
            timed_s >= opts.seconds || started.elapsed().as_secs_f64() >= 2.5 * opts.seconds;
        if index >= min_rounds && (opts.quick || spent) {
            break;
        }
    }
    tracer.set_enabled(opts.trace);
    workload.finish(opts, &mut tracer, &mut rec);
    drop(workload);
    if W::REPEAT_SETUP && !opts.quick {
        let sampled = |rec: &Recorder| (rec.setup_s.len(), rec.setup_s.iter().sum::<f64>());
        let (first, _) = sampled(&rec);
        while {
            let (n, total) = sampled(&rec);
            n < first + 5 || (total < 0.4 && n < first + 400)
        } {
            drop(timed_setup::<W>(opts, &mut tracer, &mut rec));
        }
    }

    let rss = peak_rss_mb();
    rec.checks.expect(rss.is_some(), || "peak RSS (VmHWM) is unreadable".to_string());

    let values = if opts.trace {
        per_layer_values(&tracer, &rec)
    } else {
        end_to_end_values(&rec, rss.unwrap_or(0.0))
    };
    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<(&'static MetricDef, f64)> =
        table.iter().map(|def| (def, values.get(def.name).copied().unwrap_or(0.0))).collect();
    if !opts.trace {
        for (def, value) in &metrics {
            rec.checks.expect(*value > 0.0, || format!("{} is not positive: {value}", def.name));
        }
    }

    let report = render_report(opts, &rec, &metrics, index, tracer.len());
    RunResult {
        correct: rec.checks.failed == 0,
        attempted: rec.checks.attempted.max(1),
        failed: rec.checks.failed,
        metrics,
        report,
        spans_jsonl: opts.trace.then(|| tracer.to_jsonl()),
        digest: rec.digest,
    }
}

/// The decile on the fast side of per-round samples (see the module docs):
/// the 90th percentile for rates, the 10th for latencies, nearest rank.
fn fast_decile(per_round: &[f64], higher_is_faster: bool) -> f64 {
    let sorted = stats::sorted(per_round);
    stats::percentile_sorted(&sorted, if higher_is_faster { 0.9 } else { 0.1 })
}

fn end_to_end_values(rec: &Recorder, rss_mb: f64) -> BTreeMap<&'static str, f64> {
    let jct = stats::sorted(&rec.sim.jct_s);
    BTreeMap::from([
        ("setup_s", fast_decile(&rec.setup_s, false)),
        ("jobs_per_s", fast_decile(&rec.rates, true)),
        ("latency_ms_p50", fast_decile(&rec.round_latency_ms, false)),
        ("peak_rss_mb", rss_mb),
        ("sim_jct_mean_s", stats::mean(&jct)),
        ("sim_jct_p95_s", stats::percentile_sorted(&jct, 0.95)),
        ("sim_fidelity_mean", stats::mean(&rec.sim.fidelity)),
    ])
}

/// Span name → the `_busy_s` metric its self time feeds.
const BUSY_OF_SPAN: &[(&str, &str)] = &[
    ("circuit.generate", "circuit.generate_busy_s"),
    ("transpiler.transpile", "transpiler.busy_s"),
    ("transpiler.layout", "transpiler.layout_busy_s"),
    ("transpiler.route", "transpiler.route_busy_s"),
    ("transpiler.basis", "transpiler.basis_busy_s"),
    ("transpiler.schedule", "transpiler.schedule_busy_s"),
    ("estimator.plans", "estimator.plans_busy_s"),
    ("estimator.esp", "estimator.esp_busy_s"),
    ("mitigation.generate", "mitigation.generate_busy_s"),
    ("mitigation.dd", "mitigation.dd_busy_s"),
    ("mitigation.fold", "mitigation.fold_busy_s"),
    ("mitigation.twirl", "mitigation.twirl_busy_s"),
    ("mitigation.rem", "mitigation.rem_busy_s"),
    ("mitigation.extrapolate", "mitigation.extrapolate_busy_s"),
    ("mitigation.cost", "mitigation.cost_busy_s"),
    ("backend.execute", "backend.execute_busy_s"),
    ("backend.ideal", "backend.ideal_busy_s"),
    ("backend.advance", "backend.advance_busy_s"),
    ("backend.noise_model", "backend.noise_model_busy_s"),
    ("scheduler.cycle", "scheduler.busy_s"),
    ("consensus.journal", "consensus.journal_busy_s"),
    ("consensus.snapshot", "consensus.snapshot_busy_s"),
    ("consensus.replay", "consensus.replay_busy_s"),
    ("core.submit", "core.submit_busy_s"),
    ("core.admit", "core.admit_busy_s"),
    ("core.dispatch", "core.dispatch_busy_s"),
    ("core.drain", "core.drain_busy_s"),
    ("core.digest", "core.digest_busy_s"),
    ("cloudsim.run", "cloudsim.self_busy_s"),
];

/// Span name → (calls-per-round metric, median-duration metric, its scale).
const CALLS_OF_SPAN: &[(&str, &str, &str, f64)] = &[
    ("transpiler.transpile", "transpiler.calls", "transpiler.us_per_call_p50", 1e6),
    ("estimator.plans", "estimator.plans_calls", "estimator.plans_us_p50", 1e6),
    ("core.submit", "", "core.submit_us_p50", 1e6),
    ("core.admit", "core.admit_calls", "", 1.0),
    ("backend.execute", "backend.execute_calls", "", 1.0),
    ("transpiler.layout", "transpiler.stage_probe_calls", "", 1.0),
];

fn per_layer_values(tracer: &Tracer, rec: &Recorder) -> BTreeMap<&'static str, f64> {
    let in_rounds = tracer.summarize(&["qbench.round", "qbench.replay", "qbench.probe"]);
    let in_setups = tracer.summarize(&["qbench.setup"]);
    let count_of = |map: &BTreeMap<&'static str, NameSummary>, name: &str| {
        map.get(name).map_or(0, |s| s.count) as f64
    };
    let rounds = rec.traced_walls.len().max(1) as f64;
    let setups = count_of(&in_setups, "qbench.setup").max(1.0);
    let self_s = |map: &BTreeMap<&'static str, NameSummary>, name: &str| {
        map.get(name).map_or(0.0, |s| s.self_s)
    };
    let duration_s =
        |name: &str| in_rounds.get(name).map_or(0.0, |s| s.durations_s.iter().sum::<f64>());

    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &(span, metric) in BUSY_OF_SPAN {
        out.insert(metric, self_s(&in_rounds, span) / rounds + self_s(&in_setups, span) / setups);
    }
    for &(span, calls, p50, scale) in CALLS_OF_SPAN {
        if !calls.is_empty() {
            out.insert(calls, count_of(&in_rounds, span) / rounds);
        }
        if !p50.is_empty() {
            let durations = in_rounds.get(span).map_or(&[][..], |s| &s.durations_s);
            out.insert(p50, stats::median(durations) * scale);
        }
    }
    out.insert("cloudsim.run_busy_s", duration_s("cloudsim.run") / rounds);

    // Counters are sums over traced rounds; ratios divide two such sums.
    for (&name, &total) in &rec.counts {
        out.insert(name, total / rounds);
    }
    let c = |name: &str| rec.counts.get(name).copied().unwrap_or(0.0);
    let aux = |key: &str| rec.aux.get(key).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    out.insert(
        "transpiler.out_gates_per_in_gate",
        ratio(aux("transpiler.out_gates"), aux("transpiler.in_gates")),
    );
    out.insert(
        "transpiler.distinct_input_share",
        ratio(aux("transpiler.distinct_inputs"), count_of(&in_rounds, "transpiler.transpile")),
    );
    out.insert("consensus.entries_per_job", ratio(c("consensus.log_entries"), aux("jobs")));
    out.insert(
        "consensus.entries_per_commit",
        ratio(c("consensus.log_entries"), c("consensus.committed_writes")),
    );
    out.insert(
        "backend.trajectory_share",
        ratio(aux("backend.trajectory_calls"), count_of(&in_rounds, "backend.execute")),
    );
    out.insert(
        "cloudsim.sim_s_per_host_s",
        ratio(aux("cloudsim.sim_seconds"), duration_s("cloudsim.run")),
    );

    // Means and percentiles over samples gathered in traced rounds.
    let samples = |key: &str| rec.samples.get(key).map_or(&[][..], Vec::as_slice);
    let cycle_ms = stats::sorted(samples("scheduler.cycle_ms"));
    out.insert("scheduler.cycle_ms_p50", stats::percentile_sorted(&cycle_ms, 0.50));
    out.insert("scheduler.cycle_ms_p90", stats::percentile_sorted(&cycle_ms, 0.90));
    for (key, metric) in [
        ("scheduler.jobs_per_cycle", "scheduler.jobs_per_cycle_mean"),
        ("scheduler.front_size", "scheduler.front_size_mean"),
        ("core.admitted_per_call", "core.admitted_per_call_mean"),
        ("estimator.fidelity_abs_err", "estimator.fidelity_abs_err_mean"),
        ("mitigation.fold_equiv", "mitigation.fold_equiv_share"),
        ("mitigation.zne_fidelity", "mitigation.zne_fidelity_mean"),
    ] {
        out.insert(metric, stats::mean(samples(key)));
    }
    out.insert("core.estimate_ms_p99", stats::tail_at(samples("core.estimate_ms"), 0.99));
    out.insert("backend.sim_qpu_util_mean", ratio(rec.sim.busy_qpu_s, rec.sim.capacity_qpu_s));

    // What the breakdown does not explain on the invoke workloads: the wave's
    // own self time (wall minus library-reported scheduler and journal time)
    // minus what the replay of its layer calls accounts for.
    let invoke_wall = duration_s("core.invoke");
    if invoke_wall > 0.0 {
        let replayed = duration_s("qbench.replay") - self_s(&in_rounds, "qbench.replay");
        let unattributed = self_s(&in_rounds, "core.invoke") - replayed;
        out.insert("core.unattributed_s", unattributed / rounds);
        out.insert("core.unattributed_share", unattributed / invoke_wall);
    }

    out.insert("qbench.round_wall_s", stats::mean(&rec.traced_walls));
    out.insert("qbench.traced_rounds", rec.traced_walls.len() as f64);
    let (traced, untraced) = (stats::median(&rec.traced_walls), stats::median(&rec.untraced_walls));
    out.insert("qbench.trace_overhead_share", ratio(traced, untraced) - f64::from(untraced > 0.0));
    out.insert("qbench.spans", tracer.len() as f64);
    if let Some((q, value)) = stats::tail(&rec.latency_ms) {
        out.insert("qbench.latency_ms_tail", value);
        out.insert("qbench.latency_tail_percentile", q * 100.0);
    }
    out.insert("qbench.latency_samples", rec.latency_ms.len() as f64);
    for (&name, &value) in &rec.gauges {
        out.insert(name, value);
    }
    out
}

fn render_report(
    opts: &Options,
    rec: &Recorder,
    metrics: &[(&'static MetricDef, f64)],
    rounds: usize,
    spans: usize,
) -> String {
    let mut out = String::new();
    let mode = if opts.trace { "traced (per-layer)" } else { "untraced (end-to-end)" };
    let _ = writeln!(
        out,
        "qbench {} seed={} seconds={} {mode}{}: {rounds} rounds, closed loop, one client",
        opts.workload,
        opts.seed,
        opts.seconds,
        if opts.quick { " QUICK" } else { "" },
    );
    let _ = writeln!(
        out,
        "clocks: 'host' = wall time on this machine; 'sim' = simulated, repeats exactly per seed; \
         'count' = counted at a layer boundary; 'computed' = derived from the inputs"
    );
    let _ = writeln!(
        out,
        "the replicated store is in-process with zero injected message delay: journal, snapshot \
         and failover times are processor time only"
    );
    if let Some((_, what)) = metrics::LATENCY_OF.iter().find(|(w, _)| *w == opts.workload) {
        let tail = stats::tail(&rec.latency_ms)
            .map_or("no tail: under 40 samples".to_string(), |(q, v)| {
                format!("p{} = {v:.4} ms", q * 100.0)
            });
        let _ = writeln!(
            out,
            "latency = {what}; {} samples, highest percentile with ten samples beyond it: {tail}",
            rec.latency_ms.len()
        );
    }
    let _ = writeln!(
        out,
        "{:<36} {:>16} {:<6} {:<8} spread over rounds (jobs_per_s reports their p90, latency_ms_p50 and setup_s their p10)",
        "metric", "value", "unit", "clock"
    );
    for (def, value) in metrics {
        // The per-round samples behind the host-time end-to-end metrics.
        let samples: &[f64] = match def.name {
            "setup_s" => &rec.setup_s,
            "jobs_per_s" => &rec.rates,
            "latency_ms_p50" => &rec.round_latency_ms,
            _ => &[],
        };
        let spread = stats::quartiles(samples).map_or(String::new(), |(q1, q3)| {
            let (n, median) = (samples.len(), stats::median(samples));
            format!("over {n}: q1 {q1:.6} median {median:.6} q3 {q3:.6}")
        });
        let bound = def.bound.map_or(String::new(), |b| format!(" (bound {:.0}%)", b * 100.0));
        let _ = writeln!(
            out,
            "{:<36} {:>16.6} {:<6} {:<8} {spread}{bound}",
            def.name,
            value,
            def.unit,
            def.clock.word()
        );
    }
    if let Some(digest) = &rec.digest {
        let _ = writeln!(
            out,
            "digest (after the sim rounds; equal across runs of a seed and commit): {digest}"
        );
    }
    if opts.trace {
        let _ = writeln!(out, "spans recorded: {spans}");
    }
    for note in &rec.notes {
        let _ = writeln!(out, "note: {note}");
    }
    let _ =
        writeln!(out, "checks: {} attempted, {} failed", rec.checks.attempted, rec.checks.failed);
    for failure in &rec.checks.first_failures {
        let _ = writeln!(out, "  FAILED: {failure}");
    }
    out
}
