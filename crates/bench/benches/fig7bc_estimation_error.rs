//! Figure 7(b)/(c) — CDFs of the fidelity-estimation error and of the
//! execution-time estimation error: Qonductor's regression estimator vs the
//! numerical calibration-product baseline, on a held-out set of job executions.

use qonductor_backend::Fleet;
use qonductor_bench::{banner, bench_scale, pct};
use qonductor_circuit::workload;
use qonductor_circuit::Algorithm;
use qonductor_estimator::{
    dataset::{generate_dataset, split, DatasetConfig},
    numerical, ResourceEstimator,
};
use qonductor_mitigation::MitigationStack;
use qonductor_transpiler::Transpiler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cdf_points(errors: &mut [f64], thresholds: &[f64]) -> Vec<f64> {
    errors.sort_by(f64::total_cmp);
    thresholds
        .iter()
        .map(|t| errors.iter().filter(|e| **e <= *t).count() as f64 / errors.len().max(1) as f64)
        .collect()
}

fn main() {
    banner(
        "Figure 7(b)/(c)",
        "CDF of fidelity / execution-time estimation error: regression vs numerical baseline",
    );
    let mut rng = StdRng::seed_from_u64(5);
    let fleet = Fleet::ibm_default(&mut rng);
    let records_target = ((7000.0 * bench_scale()) as usize).max(800);
    let dataset = generate_dataset(
        &fleet,
        &DatasetConfig { num_records: records_target, num_threads: 8, ..Default::default() },
        17,
    );
    let (train, test) = split(&dataset, 0.8);
    let estimator = ResourceEstimator::train(&train, 2);
    let accuracy = estimator.evaluate(&test);

    // Regression-estimator errors on the held-out set.
    let mut reg_fid_err: Vec<f64> = test
        .iter()
        .map(|r| (estimator.estimate_fidelity(&r.features) - r.fidelity).abs())
        .collect();
    let mut reg_time_err: Vec<f64> = test
        .iter()
        .map(|r| (estimator.estimate_quantum_time_s(&r.features) - r.quantum_time_s).abs())
        .collect();

    // Numerical-baseline errors: re-derive per-record circuits of matching size
    // and estimate via the calibration product (which ignores mitigation).
    let transpiler = Transpiler::default();
    let mut num_fid_err: Vec<f64> = Vec::with_capacity(test.len());
    let mut num_time_err: Vec<f64> = Vec::with_capacity(test.len());
    let mut nrng = StdRng::seed_from_u64(23);
    for r in &test {
        let member = &fleet.members()[nrng.gen_range(0..fleet.len())];
        let width = (r.features.width as u32).clamp(2, member.qpu.num_qubits());
        let alg = Algorithm::ALL[nrng.gen_range(0..Algorithm::ALL.len())];
        let mut circuit = workload::build_algorithm(alg, width, 2, &mut nrng);
        circuit.set_shots(r.features.shots as u32);
        let transpiled = transpiler.transpile_for_qpu(&circuit, &member.qpu);
        let noise = member.qpu.noise_model();
        let fid = numerical::estimate_fidelity(&transpiled.circuit, &noise);
        let time = numerical::estimate_execution_time_s(&transpiled.circuit, &noise);
        num_fid_err.push((fid - r.fidelity).abs());
        num_time_err.push((time - r.quantum_time_s).abs());
    }
    let _ = MitigationStack::none();

    let fid_thresholds = [0.02, 0.05, 0.1, 0.2, 0.3, 0.5];
    let time_thresholds = [0.1, 0.25, 0.5, 1.0, 2.0, 5.0];

    println!("-- (b) CDF of fidelity estimation error --");
    println!("{:>10} {:>12} {:>12}", "error ≤", "Qonductor", "Numerical");
    let reg = cdf_points(&mut reg_fid_err, &fid_thresholds);
    let num = cdf_points(&mut num_fid_err, &fid_thresholds);
    for ((t, r), n) in fid_thresholds.iter().zip(reg).zip(num) {
        println!("{:>10.2} {:>12} {:>12}", t, pct(r), pct(n));
    }

    println!();
    println!("-- (c) CDF of execution-time estimation error --");
    println!("{:>10} {:>12} {:>12}", "error ≤ s", "Qonductor", "Numerical");
    let reg = cdf_points(&mut reg_time_err, &time_thresholds);
    let num = cdf_points(&mut num_time_err, &time_thresholds);
    for ((t, r), n) in time_thresholds.iter().zip(reg).zip(num) {
        println!("{:>10.2} {:>12} {:>12}", t, pct(r), pct(n));
    }

    println!();
    println!(
        "held-out R²: fidelity {:.3}, runtime {:.3}; within-0.1 fidelity fraction {}",
        accuracy.fidelity_r2,
        accuracy.runtime_r2,
        pct(accuracy.fidelity_within_0_1)
    );
    println!(
        "(paper: ~75% of fidelity estimates within 0.1; 80% of runtime estimates within 500 ms;"
    );
    println!(" training R²: 0.976 fidelity / 0.998 runtime)");
}
