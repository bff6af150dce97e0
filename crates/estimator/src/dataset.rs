//! Training-dataset generation for the regression estimator.
//!
//! The paper trains its models on "over 7,000 job executions collected from our
//! experiments on the IBM quantum cloud" (§6). We substitute those runs with
//! synthetic executions of generated benchmark circuits on the modelled QPU
//! fleet (see README and `REPRO.json`), recording for each run the job features,
//! the measured fidelity, and the measured quantum/classical execution times.

use crate::features::JobFeatures;
use qonductor_backend::Fleet;
use qonductor_circuit::{par, workload, Algorithm};
use qonductor_mitigation::{candidate_stacks, MitigationStack};
use qonductor_transpiler::Transpiler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One executed job: features plus the observed ground-truth outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionRecord {
    /// The job's feature vector inputs.
    pub features: JobFeatures,
    /// Observed execution fidelity (after mitigation post-processing).
    pub fidelity: f64,
    /// Observed quantum execution time in seconds (all shots, all generated circuits).
    pub quantum_time_s: f64,
    /// Observed classical pre/post-processing time in seconds.
    pub classical_time_s: f64,
}

/// Configuration of the dataset generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetConfig {
    /// Number of execution records to generate (paper: > 7,000).
    pub num_records: usize,
    /// Maximum circuit width sampled (bounded by the largest fleet device).
    pub max_width: u32,
    /// Fraction of records that use an error-mitigation stack (paper §8.2: 50%).
    pub mitigation_fraction: f64,
    /// Number of independent RNG streams the records are split over. The
    /// count fixes the records; they are computed on `min(host_cores(),
    /// count)` threads ([`qonductor_circuit::par`]), which never changes them.
    pub num_streams: usize,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig { num_records: 7000, max_width: 27, mitigation_fraction: 0.5, num_streams: 4 }
    }
}

/// Generate a dataset of execution records against the given fleet.
///
/// Generation is embarrassingly parallel: the records are split over
/// `config.num_streams` streams, each with an independent deterministic RNG
/// derived from `seed`, computed on the host's cores and concatenated in
/// stream order.
pub fn generate_dataset(fleet: &Fleet, config: &DatasetConfig, seed: u64) -> Vec<ExecutionRecord> {
    assert!(!fleet.is_empty(), "dataset generation needs at least one QPU");
    let streams = config.num_streams.max(1);
    let per_stream = config.num_records / streams;
    let remainder = config.num_records % streams;
    par::map_indexed(par::host_cores(), streams, |t| {
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, t));
        let (transpiler, stacks) = (Transpiler::default(), candidate_stacks());
        let count = per_stream + usize::from(t < remainder);
        (0..count)
            .map(|_| {
                // Pick a device, then a circuit that fits it.
                let qpu = &fleet.members()[rng.gen_range(0..fleet.len())].qpu;
                let max_width = qpu.num_qubits().min(config.max_width).max(2);
                let width = rng.gen_range(2..=max_width);
                let alg = Algorithm::ALL[rng.gen_range(0..Algorithm::ALL.len())];
                let layers = rng.gen_range(1..=3);
                let mut circuit = workload::build_algorithm(alg, width, layers, &mut rng);
                circuit.set_shots(rng.gen_range(500..8000));

                // Pick a mitigation stack (or none) per the configured fraction.
                let stack = if rng.gen_bool(config.mitigation_fraction.clamp(0.0, 1.0)) {
                    stacks[rng.gen_range(1..stacks.len())].clone()
                } else {
                    MitigationStack::none()
                };
                execute_and_record(&transpiler, &circuit, qpu, &stack, &mut rng)
            })
            .collect::<Vec<_>>()
    })
    .concat()
}

/// The seed of stream `t`: SplitMix64's output finalizer over `seed` moved
/// `t + 1` increments on. `seed_from_u64` expands a seed by walking the
/// same increment, so seeds one increment apart (the unmixed sum) would
/// give neighbouring streams three of their four state words in common.
fn stream_seed(seed: u64, t: usize) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Transpile + "execute" one job and produce its record. The ground truth uses
/// the analytic ESP fidelity model of the backend plus the mitigation stack's
/// uplift, with small multiplicative shot-noise jitter.
pub(crate) fn execute_and_record<R: Rng + ?Sized>(
    transpiler: &Transpiler,
    circuit: &qonductor_circuit::Circuit,
    qpu: &qonductor_backend::Qpu,
    stack: &MitigationStack,
    rng: &mut R,
) -> ExecutionRecord {
    let noise = qpu.noise_model();
    let transpiled = transpiler.transpile_for_qpu(circuit, qpu);
    let mitigation_cost = stack.cost(&transpiled.circuit, &noise);
    let features = JobFeatures::new(&transpiled.metrics(), &qpu.calibration, &mitigation_cost);

    let base_fidelity = noise.estimated_success_probability(&transpiled.circuit);
    let jitter_f = 1.0 + rng.gen_range(-0.02..0.02);
    let fidelity = (mitigation_cost.mitigated_fidelity(base_fidelity) * jitter_f).clamp(0.0, 1.0);

    let jitter_t = 1.0 + rng.gen_range(-0.03..0.03);
    let quantum_time_s =
        transpiled.total_execution_s() * mitigation_cost.quantum_time_factor * jitter_t;
    let classical_time_s =
        mitigation_cost.classical_time_cpu_s + 2e-7 * f64::from(circuit.shots()) * jitter_t;

    ExecutionRecord { features, fidelity, quantum_time_s, classical_time_s }
}

/// Split a dataset into `(train, test)` with the given training fraction.
pub fn split(
    records: &[ExecutionRecord],
    train_fraction: f64,
) -> (Vec<ExecutionRecord>, Vec<ExecutionRecord>) {
    let cut = ((records.len() as f64) * train_fraction.clamp(0.0, 1.0)) as usize;
    (records[..cut].to_vec(), records[cut..].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_fleet() -> Fleet {
        let mut rng = StdRng::seed_from_u64(77);
        Fleet::ibm_default(&mut rng)
    }

    #[test]
    fn dataset_has_requested_size_and_sane_values() {
        let fleet = small_fleet();
        let cfg = DatasetConfig { num_records: 120, num_streams: 3, ..Default::default() };
        let records = generate_dataset(&fleet, &cfg, 42);
        assert_eq!(records.len(), 120);
        for r in &records {
            assert!(r.fidelity >= 0.0 && r.fidelity <= 1.0);
            assert!(r.quantum_time_s > 0.0);
            assert!(r.classical_time_s >= 0.0);
            assert!(r.features.width >= 2.0);
        }
    }

    #[test]
    fn dataset_is_deterministic_per_seed() {
        let fleet = small_fleet();
        let cfg = DatasetConfig { num_records: 40, num_streams: 2, ..Default::default() };
        let a = generate_dataset(&fleet, &cfg, 7);
        let b = generate_dataset(&fleet, &cfg, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.fidelity, y.fidelity);
            assert_eq!(x.quantum_time_s, y.quantum_time_s);
        }
    }

    #[test]
    fn mitigated_records_exist_and_improve_over_unmitigated_error_factor() {
        let fleet = small_fleet();
        let cfg = DatasetConfig {
            num_records: 100,
            num_streams: 2,
            mitigation_fraction: 0.7,
            ..Default::default()
        };
        let records = generate_dataset(&fleet, &cfg, 3);
        let mitigated = records.iter().filter(|r| r.features.mitigation_error_factor < 1.0).count();
        let plain = records.len() - mitigated;
        assert!(mitigated > 0 && plain > 0, "both kinds of record must occur");
    }

    #[test]
    fn split_partitions_records() {
        let fleet = small_fleet();
        let cfg = DatasetConfig { num_records: 50, num_streams: 1, ..Default::default() };
        let records = generate_dataset(&fleet, &cfg, 5);
        let (train, test) = split(&records, 0.8);
        assert_eq!(train.len(), 40);
        assert_eq!(test.len(), 10);
    }

    /// A stream's panic reaches the caller with its own message, whichever
    /// thread the stream ran on.
    #[test]
    fn a_failing_stream_panics_the_caller_with_its_own_message() {
        use qonductor_backend::{CouplingMap, FleetMember, JobQueue, Qpu, QpuModel};
        let mut rng = StdRng::seed_from_u64(21);
        // Two disconnected pairs: no circuit wider than two qubits routes.
        let model = QpuModel {
            name: "split".into(),
            coupling_map: CouplingMap::new(4, [(0, 1), (2, 3)]),
            ..QpuModel::falcon_7()
        };
        let qpu = Qpu::new("split", model, 1.0, &mut rng);
        let fleet = Fleet::from_members(vec![FleetMember { qpu, queue: JobQueue::new() }]);
        let cfg = DatasetConfig { num_records: 16, num_streams: 2, ..Default::default() };
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            generate_dataset(&fleet, &cfg, 5)
        }))
        .expect_err("the split device cannot route a three-qubit circuit");
        let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("no path from"), "{message}");
    }

    #[test]
    fn remainder_records_are_distributed_across_threads() {
        let fleet = small_fleet();
        let cfg = DatasetConfig { num_records: 11, num_streams: 4, ..Default::default() };
        let records = generate_dataset(&fleet, &cfg, 9);
        assert_eq!(records.len(), 11);
    }
}
