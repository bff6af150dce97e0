//! Integration tests of the resource estimator across crates: dataset
//! generation against the modelled fleet, regression training, accuracy
//! against held-out executions, and the comparison with the numerical
//! calibration-product baseline (the Figure-7 methodology at test scale).

use qonductor::backend::Fleet;
use qonductor::circuit::generators::ghz;
use qonductor::core::digest::Fnv64;
use qonductor::estimator::{
    dataset::{generate_dataset, split, DatasetConfig},
    numerical, JobFeatures, ResourceEstimator,
};
use qonductor::transpiler::Transpiler;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fleet() -> Fleet {
    let mut rng = StdRng::seed_from_u64(404);
    Fleet::ibm_default(&mut rng)
}

/// Train on 80 % of 700 records generated over `streams` RNG streams and
/// score the held-out 20 %.
fn assert_accurate_on_held_out_executions(streams: usize) {
    let records = generate_dataset(
        &fleet(),
        &DatasetConfig { num_records: 700, num_threads: streams, ..Default::default() },
        2026,
    );
    let (train, test) = split(&records, 0.8);
    let estimator = ResourceEstimator::train(&train, 2);
    let accuracy = estimator.evaluate(&test);
    // The paper reports R² of 0.976 (fidelity) and 0.998 (runtime) on its dataset;
    // at test scale we require the same qualitative level of accuracy.
    assert!(
        accuracy.fidelity_r2 > 0.75,
        "{streams} streams: fidelity R² = {}",
        accuracy.fidelity_r2
    );
    assert!(accuracy.runtime_r2 > 0.9, "{streams} streams: runtime R² = {}", accuracy.runtime_r2);
    assert!(
        accuracy.fidelity_within_0_1 > 0.6,
        "{streams} streams: within-0.1 fraction = {}",
        accuracy.fidelity_within_0_1
    );
}

#[test]
fn regression_estimator_is_accurate_on_held_out_executions() {
    assert_accurate_on_held_out_executions(4);
}

/// One stream per record. Streams seeded a SplitMix64 increment apart
/// shared three of their four xoshiro state words, so neighbouring records
/// drew nearly the same circuits and shots; the runtime R² was 0.007.
#[test]
fn one_stream_per_record_is_as_accurate_as_four() {
    assert_accurate_on_held_out_executions(700);
    assert_accurate_on_held_out_executions(1);
}

/// The records are a pure function of (fleet, config, seed): the stream
/// count fixes them, how many threads compute the streams does not. One
/// FNV-64 per stream count over every field's bits; 8 is `fig7bc`'s
/// configuration. Re-pinned once when stream seeds became a SplitMix64 mix
/// of (seed, stream) instead of a sum that let neighbouring streams overlap.
#[test]
fn dataset_bytes_are_pinned_for_every_stream_count() {
    let fleet = fleet();
    let digests = [1usize, 3, 4, 8].map(|num_threads| {
        let config = DatasetConfig { num_records: 64, num_threads, ..Default::default() };
        let mut digest = Fnv64::new();
        for record in generate_dataset(&fleet, &config, 17) {
            let JobFeatures {
                width,
                shots,
                depth,
                two_qubit_gates,
                one_qubit_gates,
                measurements,
                mean_two_qubit_error,
                mean_readout_error,
                mean_t1_us,
                mean_t2_us,
                mitigation_error_factor,
                mitigation_quantum_factor,
                mitigation_multiplicity,
                mitigation_classical_s,
            } = record.features;
            for x in [
                width,
                shots,
                depth,
                two_qubit_gates,
                one_qubit_gates,
                measurements,
                mean_two_qubit_error,
                mean_readout_error,
                mean_t1_us,
                mean_t2_us,
                mitigation_error_factor,
                mitigation_quantum_factor,
                mitigation_multiplicity,
                mitigation_classical_s,
                record.fidelity,
                record.quantum_time_s,
                record.classical_time_s,
            ] {
                digest.absorb(&x.to_bits().to_le_bytes());
            }
        }
        digest.value()
    });
    assert_eq!(
        digests,
        [
            0x75d6_9760_095f_3284,
            0x1c54_59b2_6392_af71,
            0x0b95_e890_d739_91e9,
            0x14b3_3f5c_745f_230a
        ]
    );
}

#[test]
fn regression_beats_numerical_baseline_on_mitigated_jobs() {
    let fleet = fleet();
    let records = generate_dataset(
        &fleet,
        &DatasetConfig {
            num_records: 500,
            num_threads: 4,
            mitigation_fraction: 1.0, // every job is mitigated
            ..Default::default()
        },
        99,
    );
    let (train, test) = split(&records, 0.8);
    let estimator = ResourceEstimator::train(&train, 2);

    // The numerical baseline cannot see the mitigation uplift, so on mitigated
    // jobs its fidelity error must exceed the regression estimator's.
    let reg_err: f64 = test
        .iter()
        .map(|r| (estimator.estimate_fidelity(&r.features) - r.fidelity).abs())
        .sum::<f64>()
        / test.len() as f64;
    // Numerical baseline on a representative mitigated workload.
    let transpiler = Transpiler::default();
    let qpu = &fleet.by_name("ibm_cairo").unwrap().qpu;
    let transpiled = transpiler.transpile_for_qpu(&ghz(12), qpu);
    let noise = qpu.noise_model();
    let numerical_fid = numerical::estimate_fidelity(&transpiled.circuit, &noise);
    let mitigated_truth: f64 = test.iter().map(|r| r.fidelity).sum::<f64>() / test.len() as f64;
    let num_err = (numerical_fid - mitigated_truth).abs();
    assert!(
        reg_err < num_err,
        "regression mean error {reg_err:.3} should beat the mitigation-blind baseline error {num_err:.3}"
    );
}

#[test]
fn numerical_baseline_orders_devices_by_quality() {
    let fleet = fleet();
    let transpiler = Transpiler::default();
    let circuit = ghz(12);
    let best = fleet.by_name("ibm_auckland").unwrap();
    let worst = fleet.by_name("ibm_algiers").unwrap();
    let f_best = numerical::estimate_fidelity(
        &transpiler.transpile_for_qpu(&circuit, &best.qpu).circuit,
        &best.qpu.noise_model(),
    );
    let f_worst = numerical::estimate_fidelity(
        &transpiler.transpile_for_qpu(&circuit, &worst.qpu).circuit,
        &worst.qpu.noise_model(),
    );
    assert!(
        f_best > f_worst,
        "auckland ({f_best:.3}) must beat algiers ({f_worst:.3}), matching Fig. 2b"
    );
}
