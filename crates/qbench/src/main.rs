//! `qbench`: one end-to-end + per-layer benchmark for the whole invoke →
//! schedule → execute → mitigate path. The contract (command, workloads,
//! metrics, bounds) is the repository's root `BENCHMARK.json`; this
//! directory's `README.md` says what each number means.
//!
//! ```text
//! cargo run --release -p qbench -- --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod compare;
mod harness;
mod inputs;
mod json;
mod metrics;
mod stats;
mod trace;
mod workloads;

use harness::Options;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: qbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick] [--out <file>]
       qbench --compare <base.jsonl> [<new.jsonl>]
       qbench --print-benchmark-json

  --workload  invoke-unique | invoke-iterative | controlplane-drain | cloudsim-hour | dataplane-mitigated
  --seed      every input is derived from it (default 2025)
  --seconds   host seconds of timed work to measure (default: run_seconds of BENCHMARK.json)
  --trace     0: end-to-end metrics, tracing off (default); 1: per-layer metrics from spans
  --quick     smoke-test sizes, two rounds
  --out       append this run's record (one JSON line) for --compare
  --compare   per (metric, workload): ratio with its base, flagged against the bound;
              with one file, the run-to-run spread alone";

/// What the command line asks for.
#[derive(Debug)]
enum Command {
    Run { opts: Options, out: Option<PathBuf> },
    Compare { base: PathBuf, new: Option<PathBuf> },
    PrintBenchmarkJson,
    Help,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 2025,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    let mut out = None;
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i).ok_or(format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--print-benchmark-json" => return Ok(Command::PrintBenchmarkJson),
            "--compare" => {
                let base = PathBuf::from(value(&mut i)?);
                let new = args.get(i + 1).map(PathBuf::from);
                return Ok(Command::Compare { base, new });
            }
            "--workload" => opts.workload = value(&mut i)?.clone(),
            "--seed" => {
                opts.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value(&mut i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value(&mut i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--quick" => opts.quick = true,
            "--out" => out = Some(PathBuf::from(value(&mut i)?)),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if !metrics::WORKLOADS.iter().any(|(name, _)| *name == opts.workload) {
        return Err(format!(
            "--workload must name one of the five workloads, not {:?}",
            opts.workload
        ));
    }
    Ok(Command::Run { opts, out })
}

/// Where a traced run writes its spans: inside the build directory, which is
/// inside the checkout and ignored by git.
fn trace_path(workload: &str) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
    target.join("qbench").join(format!("trace-{workload}.jsonl"))
}

fn run(opts: &Options, out: Option<PathBuf>) -> Result<(), String> {
    let result = workloads::run(opts).ok_or("unknown workload")?;
    print!("{}", result.report);
    if let Some(spans) = &result.spans_jsonl {
        let path = trace_path(&opts.workload);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, spans));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            // The spans are a by-product; the metrics above do not depend on
            // the file.
            Err(e) => println!("spans not written to {}: {e}", path.display()),
        }
    }
    if let Some(path) = out {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{}", result.record_line(opts))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result.contract_line());
    Ok(())
}

fn compare(base: &PathBuf, new: Option<&PathBuf>) -> Result<(), String> {
    let read = |path: &PathBuf| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        compare::read_records(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let base = read(base)?;
    let new = new.map(read).transpose()?;
    print!("{}", compare::report(&base, new.as_ref()));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Ok(Command::Help) => {
            println!("{USAGE}");
            Ok(())
        }
        Ok(Command::PrintBenchmarkJson) => {
            print!("{}", metrics::benchmark_json());
            Ok(())
        }
        Ok(Command::Compare { base, new }) => compare(&base, new.as_ref()),
        Ok(Command::Run { opts, out }) => run(&opts, out),
        Err(message) => Err(format!("{message}\n{USAGE}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("qbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let parsed =
            parse_args(&args("--workload cloudsim-hour --seed 7 --seconds 3 --trace 1")).unwrap();
        let Command::Run { opts, out } = parsed else { panic!("not a run") };
        assert_eq!(
            (opts.workload.as_str(), opts.seed, opts.seconds, opts.trace),
            ("cloudsim-hour", 7, 3.0, true)
        );
        assert!(out.is_none() && !opts.quick);
        for bad in [
            "",
            "--workload nope",
            "--workload cloudsim-hour --trace 2",
            "--workload cloudsim-hour --seconds 0",
            "--workload cloudsim-hour --seed",
            "--workload cloudsim-hour --frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be refused");
        }
        assert!(matches!(
            parse_args(&args("--compare a b")),
            Ok(Command::Compare { new: Some(_), .. })
        ));
        assert!(matches!(parse_args(&args("--compare a")), Ok(Command::Compare { new: None, .. })));
    }

    /// Per-layer metrics each workload must fill (non-zero) in a traced run:
    /// its dominant layers, as its "why" predicts. Only sums and counts are
    /// listed: a difference of two timings (`core.unattributed_share`,
    /// `qbench.trace_overhead_share`) may land on either side of zero.
    const MUST_MOVE: &[(&str, &[&str])] = &[
        (
            "invoke-unique",
            &[
                "circuit.generate_busy_s",
                "circuit.gates_total",
                "transpiler.calls",
                "transpiler.busy_s",
                "transpiler.us_per_call_p50",
                "transpiler.layout_busy_s",
                "transpiler.route_busy_s",
                "transpiler.basis_busy_s",
                "transpiler.schedule_busy_s",
                "transpiler.out_gates_per_in_gate",
                "transpiler.distinct_input_share",
                "estimator.plans_calls",
                "estimator.plans_busy_s",
                "estimator.esp_busy_s",
                "mitigation.cost_busy_s",
                "backend.noise_model_busy_s",
                "scheduler.cycles",
                "scheduler.busy_s",
                "consensus.journal_busy_s",
                "consensus.log_entries",
                "consensus.entries_per_job",
                "core.encode_state_bytes",
                "qbench.round_wall_s",
                "qbench.spans",
            ],
        ),
        (
            "invoke-iterative",
            &[
                "transpiler.busy_s",
                "estimator.plans_busy_s",
                "scheduler.busy_s",
                "consensus.journal_busy_s",
            ],
        ),
        (
            "controlplane-drain",
            &[
                "scheduler.cycles",
                "scheduler.busy_s",
                "scheduler.optimize_s",
                "scheduler.front_size_mean",
                "consensus.journal_busy_s",
                "consensus.log_entries",
                "consensus.committed_writes",
                "consensus.entries_per_commit",
                "consensus.snapshot_busy_s",
                "consensus.replay_busy_s",
                "consensus.replay_entries",
                "core.submit_busy_s",
                "core.submit_us_p50",
                "core.admit_busy_s",
                "core.admit_calls",
                "core.admitted_per_call_mean",
                "core.dispatch_busy_s",
                "core.drain_busy_s",
                "core.digest_busy_s",
                "core.encode_state_bytes",
                "core.shards1_jobs_per_s",
                "core.shards2_jobs_per_s",
                "backend.advance_busy_s",
            ],
        ),
        (
            "cloudsim-hour",
            &[
                "scheduler.cycles",
                "scheduler.busy_s",
                "scheduler.optimize_s",
                "scheduler.cycle_ms_p50",
                "cloudsim.run_busy_s",
                "cloudsim.self_busy_s",
                "cloudsim.sim_s_per_host_s",
                "cloudsim.cycles",
            ],
        ),
        (
            "dataplane-mitigated",
            &[
                "transpiler.busy_s",
                "transpiler.swaps_inserted",
                "mitigation.generate_busy_s",
                "mitigation.circuits_out",
                "mitigation.dd_busy_s",
                "mitigation.fold_busy_s",
                "mitigation.twirl_busy_s",
                "mitigation.rem_busy_s",
                "mitigation.extrapolate_busy_s",
                "mitigation.zne_fidelity_mean",
                "estimator.fidelity_abs_err_mean",
                "backend.execute_calls",
                "backend.execute_busy_s",
                "backend.trajectory_share",
                "backend.amp_updates",
                "backend.ideal_busy_s",
            ],
        ),
    ];

    fn quick(workload: &str, trace: bool) -> harness::RunResult {
        let opts =
            Options { workload: workload.to_string(), seed: 7, seconds: 1.0, trace, quick: true };
        workloads::run(&opts).expect("a declared workload")
    }

    /// `--quick` runs of every workload: every declared metric name is
    /// produced, every check passes, and the last line obeys the contract.
    #[test]
    fn quick_runs_produce_every_declared_metric() {
        for (workload, _) in metrics::WORKLOADS {
            let untraced = quick(workload, false);
            assert!(untraced.correct, "{workload}:\n{}", untraced.report);
            let names: Vec<&str> = untraced.metrics.iter().map(|(def, _)| def.name).collect();
            let declared: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, declared, "{workload}");
            for (def, value) in &untraced.metrics {
                assert!(*value > 0.0 && value.is_finite(), "{workload}: {} = {value}", def.name);
            }

            let line = json::parse(&untraced.contract_line()).expect("the contract line is JSON");
            let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            assert!(line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
            let setup = line.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
            assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));

            let traced = quick(workload, true);
            assert!(traced.correct, "{workload} traced:\n{}", traced.report);
            let names: Vec<&str> = traced.metrics.iter().map(|(def, _)| def.name).collect();
            let declared: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, declared, "{workload} traced");
            let must_move = MUST_MOVE.iter().find(|(w, _)| w == workload).expect("listed").1;
            for name in must_move {
                let value = traced.metrics.iter().find(|(def, _)| def.name == *name);
                let value = value.unwrap_or_else(|| panic!("{name} is not declared")).1;
                assert!(value > 0.0, "{workload}: {name} = {value}\n{}", traced.report);
            }
            assert!(traced.metrics.iter().all(|(_, value)| value.is_finite()), "{workload}");
            assert!(traced.spans_jsonl.as_ref().is_some_and(|s| s.lines().count() >= 3));
            assert_eq!(
                untraced.digest, traced.digest,
                "{workload}: tracing must not change the state"
            );
        }
    }

    /// The same seed gives the same simulated results and digest; another
    /// seed gives other inputs.
    #[test]
    fn simulated_metrics_repeat_exactly_for_a_seed() {
        let sim = |result: &harness::RunResult| -> Vec<(String, f64)> {
            result
                .metrics
                .iter()
                .filter(|(def, _)| def.clock == metrics::Clock::Sim)
                .map(|(def, value)| (def.name.to_string(), *value))
                .collect()
        };
        for workload in ["invoke-unique", "controlplane-drain", "dataplane-mitigated"] {
            let (a, b) = (quick(workload, false), quick(workload, false));
            assert_eq!(sim(&a), sim(&b), "{workload}");
            assert_eq!(a.digest, b.digest);
            assert_eq!(a.digest.is_some(), workload != "dataplane-mitigated");
            let other = workloads::run(&Options {
                workload: workload.to_string(),
                seed: 8,
                seconds: 1.0,
                trace: false,
                quick: true,
            })
            .unwrap();
            assert_ne!(sim(&a), sim(&other), "{workload}: another seed, other inputs");
        }
    }
}
