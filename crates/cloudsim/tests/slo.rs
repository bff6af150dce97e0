//! SLO scenario suite: the bursty deadline-bound tenant runs through the
//! SLO-aware control plane (escalation lane, slack-aware trigger, autoscaled
//! elastic capacity, retry-with-cutting) and through plain weighted-fair
//! admission over byte-identical offered load. The suite asserts the
//! acceptance invariants — the SLO-aware arm holds the p95 deadline the plain
//! arm misses, nothing knittable is terminally rejected, escalations and
//! elastic capacity survive seeded leader-crash chaos byte for byte — and
//! emits the `slo_summary.txt` artifact CI gates on.
//!
//! CI runs the chaos test as a seed matrix (`QONDUCTOR_CHAOS_SEED=<seed>`
//! selects one leg; unset runs the whole default set).

use qonductor_cloudsim::{run_slo_arm, run_slo_comparison, FailurePlan, RunParams, SloConfig};
use std::io::Write;

/// Default seed matrix (CI runs one leg per seed).
const DEFAULT_SEEDS: [u64; 5] = [11, 23, 37, 41, 59];
const CRASHES_PER_RUN: usize = 3;

fn scenario(seed: u64) -> SloConfig {
    let mut config = SloConfig::default();
    config.run.seed = seed;
    config
}

/// Seeds under test: the single `QONDUCTOR_CHAOS_SEED` if set (one CI matrix
/// leg), otherwise the whole default set.
fn seeds_under_test() -> Vec<u64> {
    match std::env::var("QONDUCTOR_CHAOS_SEED") {
        Ok(seed) => vec![seed.parse().expect("QONDUCTOR_CHAOS_SEED must be an integer")],
        Err(_) => DEFAULT_SEEDS.to_vec(),
    }
}

/// The headline comparison: over the same bursty offered load, the SLO-aware
/// arm holds the p95 deadline (hit rate ≥ 95%) while plain weighted-fair
/// misses it, and nothing the circuit cutter could have saved is dropped.
/// Runs one comparison per seed under test and writes the `slo_summary.txt`
/// and `slo_summary.json` artifacts CI gates against the committed
/// `BENCH_slo.json` baseline.
#[test]
fn slo_aware_holds_p95_deadlines_weighted_fair_misses() {
    let mut text = String::new();
    let mut entries: Vec<String> = Vec::new();
    let mut results = Vec::new();
    let mut deadline_s = 0.0;
    for seed in seeds_under_test() {
        let comparison = run_slo_comparison(&scenario(seed));
        deadline_s = comparison.config.deadline_s;
        text.push_str(&comparison.summary());
        text.push('\n');
        let slo = comparison.slo_aware.report;
        let plain = comparison.weighted_fair.report;
        entries.push(format!(
            "    {{\"seed\": {seed}, \"slo_aware_hit_rate\": {:.6}, \
             \"weighted_fair_hit_rate\": {:.6}, \"slo_aware_p95_turnaround_s\": {:.3}, \
             \"weighted_fair_p95_turnaround_s\": {:.3}}}",
            slo.hit_rate, plain.hit_rate, slo.p95_turnaround_s, plain.p95_turnaround_s,
        ));
        results.push((seed, comparison));
    }

    // Write the artifacts before asserting so a failing run still uploads
    // them.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::File::create(dir.join("slo_summary.txt"))
        .expect("summary file is writable")
        .write_all(text.as_bytes())
        .unwrap();
    let json = format!(
        "{{\n  \"scenario\": \"bursty-slo\",\n  \"deadline_s\": {deadline_s:.1},\n  \
         \"seeds\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
    );
    std::fs::File::create(dir.join("slo_summary.json"))
        .expect("summary file is writable")
        .write_all(json.as_bytes())
        .unwrap();
    println!("{text}");

    for (seed, comparison) in &results {
        let slo = comparison.slo_aware.report;
        let plain = comparison.weighted_fair.report;
        assert_eq!(slo.arrived_slo, plain.arrived_slo, "seed {seed}: identical offered load");
        assert_eq!(slo.arrived_bulk, plain.arrived_bulk, "seed {seed}: identical offered load");
        assert!(
            slo.hit_rate >= 0.95,
            "seed {seed}: SLO-aware arm must hold the p95 deadline, hit rate {}",
            slo.hit_rate
        );
        assert!(
            plain.hit_rate < 0.95,
            "seed {seed}: plain weighted-fair must miss the p95 deadline, hit rate {}",
            plain.hit_rate
        );
        assert!(
            slo.p95_turnaround_s <= comparison.config.deadline_s,
            "seed {seed}: SLO-aware p95 turnaround {} exceeds the deadline",
            slo.p95_turnaround_s
        );
        // The machinery is exercised, not vacuous.
        assert!(slo.escalated > 0, "seed {seed}: escalation lane used");
        assert!(slo.provisioned > 0, "seed {seed}: elastic capacity provisioned");
        assert!(slo.knit_apps > 0, "seed {seed}: wide arrivals knit into fragments");
        // Zero jobs terminally rejected that retry-with-cutting could have
        // knit.
        assert_eq!(slo.knittable_rejected, 0, "seed {seed}");
        assert_eq!(slo.rejected_infeasible, 0, "seed {seed}");
        assert!(
            plain.knittable_rejected > 0,
            "seed {seed}: the plain arm drops knittable arrivals"
        );
    }
}

/// Seeded leader-crash chaos matrix: the autoscaled, escalating SLO-aware arm
/// must be bit-for-bit insensitive to failovers — every rebuilt state matches
/// the pre-crash digest, and the fault-injected run reproduces the
/// failure-free run's batches, completions, and final digest exactly (the
/// `SloEscalated`/`QpuProvisioned`/`QpuRetired` streams replay byte for
/// byte). Each leg appends to the per-seed summary artifact.
#[test]
fn slo_chaos_runs_are_byte_identical_to_failure_free_runs() {
    let mut summary = String::from(
        "seed,crashes,snapshots,batches,completions,escalated,provisioned,retired,\
         digests_matched,final_state_matched\n",
    );
    for seed in seeds_under_test() {
        let config = scenario(seed);
        let plan = FailurePlan::from_seed(seed, config.run.duration_s, CRASHES_PER_RUN);
        let chaos = run_slo_arm(&config, true, &plan);
        let plain = run_slo_arm(&config, true, &FailurePlan::none());

        assert_eq!(chaos.crashes.len(), CRASHES_PER_RUN, "seed {seed}: all crashes injected");
        assert!(
            chaos.all_digests_matched(),
            "seed {seed}: a failover rebuilt divergent state: {:?}",
            chaos.crashes
        );
        let snapshots = chaos.snapshots_installed;
        assert!(snapshots > 0, "seed {seed}: checkpoints compacted the journal");
        // The chaos and plain arms snapshot on different cadences, so their
        // incremental digests are not comparable — compare the byte oracle.
        assert_eq!(
            chaos.final_states, plain.final_states,
            "seed {seed}: chaos changed the final control-plane state"
        );
        let (chaos, plain) = (chaos.report, plain.report);
        assert_eq!(chaos.batches, plain.batches, "seed {seed}: chaos changed a dispatch");
        assert_eq!(chaos.completions, plain.completions, "seed {seed}: chaos changed a completion");
        assert_eq!(chaos.report, plain.report, "seed {seed}: chaos changed the aggregate report");

        summary.push_str(&format!(
            "{seed},{CRASHES_PER_RUN},{snapshots},{},{},{},{},{},true,true\n",
            chaos.report.batches,
            chaos.report.completed_slo,
            chaos.report.escalated,
            chaos.report.provisioned,
            chaos.report.retired,
        ));
        println!(
            "seed {seed}: {CRASHES_PER_RUN} crashes, {snapshots} snapshots, {} batches, \
             {} SLO completions, {} escalated, {} provisioned, {} retired — byte-identical",
            chaos.report.batches,
            chaos.report.completed_slo,
            chaos.report.escalated,
            chaos.report.provisioned,
            chaos.report.retired,
        );
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("slo_chaos_summary.txt");
    let mut file = std::fs::File::create(&path).expect("summary file is writable");
    file.write_all(summary.as_bytes()).unwrap();
}

/// Seeded conservation property: across many scenario seeds, the escalation
/// bypass lane never double-admits — every tenant's ledger balances exactly
/// (queued + in-flight + completed + rejected = submitted would be violated
/// by a ticket admitted both by escalation and by the DRR scan), and the
/// dispatched batches never contain a duplicate engine job id.
#[test]
fn escalation_never_violates_conservation_across_seeds() {
    for seed in [3u64, 19, 71, 113] {
        let mut config =
            SloConfig { burst_start_s: 50.0, burst_end_s: 200.0, ..SloConfig::default() };
        config.run = RunParams { duration_s: 300.0, seed, ..config.run };
        let outcome = run_slo_arm(&config, true, &FailurePlan::none()).report;
        let r = outcome.report;
        assert!(r.escalated > 0, "seed {seed}: the property is not vacuous");
        // Ledger balance: a ticket admitted both by the bypass lane and the
        // DRR scan would be counted twice and break this exact identity.
        for (tenant, stats) in &outcome.tenants {
            assert_eq!(
                stats.queued as u64 + stats.in_flight as u64 + stats.completed + stats.rejected,
                stats.submitted,
                "seed {seed}: tenant {tenant} ledger out of balance"
            );
        }
        // Every dispatched engine job id appears exactly once.
        let mut seen = std::collections::HashSet::new();
        for batch in &outcome.batches {
            assert_eq!(batch.job_ids.len(), batch.num_jobs, "seed {seed}: batch self-consistent");
            for &job in &batch.job_ids {
                assert!(seen.insert(job), "seed {seed}: job {job} dispatched twice");
            }
        }
        // The dispatched total never exceeds what was submitted, and every
        // completion corresponds to a dispatched job.
        assert!(r.completed_slo <= r.arrived_slo, "seed {seed}: more completions than arrivals");
    }
}
