//! Training-dataset generation for the regression estimator.
//!
//! The paper trains its models on "over 7,000 job executions collected from our
//! experiments on the IBM quantum cloud" (§6). We substitute those runs with
//! synthetic executions of generated benchmark circuits on the modelled QPU
//! fleet (see DESIGN.md), recording for each run the job features, the measured
//! fidelity, and the measured quantum/classical execution times.

use crate::features::JobFeatures;
use qonductor_backend::Fleet;
use qonductor_circuit::{workload, Algorithm};
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
    /// Number of worker threads used for generation.
    pub num_threads: usize,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig { num_records: 7000, max_width: 27, mitigation_fraction: 0.5, num_threads: 4 }
    }
}

/// Generate a dataset of execution records against the given fleet.
///
/// Generation is embarrassingly parallel and fans out over
/// `config.num_threads` scoped worker threads, each with an independent
/// deterministic RNG stream derived from `seed`.
pub fn generate_dataset(fleet: &Fleet, config: &DatasetConfig, seed: u64) -> Vec<ExecutionRecord> {
    assert!(!fleet.is_empty(), "dataset generation needs at least one QPU");
    let threads = config.num_threads.max(1);
    let per_thread = config.num_records / threads;
    let remainder = config.num_records % threads;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let count = per_thread + usize::from(t < remainder);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(
                        seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t as u64 + 1)),
                    );
                    generate_records(fleet, config, count, &mut rng)
                })
            })
            .collect();
        // Joined in spawn order, so the records are ordered by worker index.
        handles.into_iter().flat_map(|h| h.join().expect("dataset worker panicked")).collect()
    })
}

/// Sequentially generate `count` records (one worker's share).
fn generate_records(
    fleet: &Fleet,
    config: &DatasetConfig,
    count: usize,
    rng: &mut StdRng,
) -> Vec<ExecutionRecord> {
    let transpiler = Transpiler::default();
    let stacks = candidate_stacks();
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        // Pick a device, then a circuit that fits it.
        let member = &fleet.members()[rng.gen_range(0..fleet.len())];
        let qpu = &member.qpu;
        let max_width = qpu.num_qubits().min(config.max_width).max(2);
        let width = rng.gen_range(2..=max_width);
        let alg = Algorithm::ALL[rng.gen_range(0..Algorithm::ALL.len())];
        let layers = rng.gen_range(1..=3);
        let mut circuit = workload::build_algorithm(alg, width, layers, rng);
        circuit.set_shots(rng.gen_range(500..8000));

        // Pick a mitigation stack (or none) per the configured fraction.
        let stack = if rng.gen_bool(config.mitigation_fraction.clamp(0.0, 1.0)) {
            stacks[rng.gen_range(1..stacks.len())].clone()
        } else {
            MitigationStack::none()
        };

        records.push(execute_and_record(&transpiler, &circuit, qpu, &stack, rng));
    }
    records
}

/// Transpile + "execute" one job and produce its record. The ground truth uses
/// the analytic ESP fidelity model of the backend plus the mitigation stack's
/// uplift, with small multiplicative shot-noise jitter.
pub fn execute_and_record<R: Rng + ?Sized>(
    transpiler: &Transpiler,
    circuit: &qonductor_circuit::Circuit,
    qpu: &qonductor_backend::Qpu,
    stack: &MitigationStack,
    rng: &mut R,
) -> ExecutionRecord {
    let noise = qpu.noise_model();
    let transpiled = transpiler.transpile_for_qpu(circuit, qpu);
    let mitigation_cost = stack.cost(&transpiled.circuit, &noise);
    let features = JobFeatures::new(&transpiled.metrics, &qpu.calibration, &mitigation_cost);

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
        let cfg = DatasetConfig { num_records: 120, num_threads: 3, ..Default::default() };
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
        let cfg = DatasetConfig { num_records: 40, num_threads: 2, ..Default::default() };
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
            num_threads: 2,
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
        let cfg = DatasetConfig { num_records: 50, num_threads: 1, ..Default::default() };
        let records = generate_dataset(&fleet, &cfg, 5);
        let (train, test) = split(&records, 0.8);
        assert_eq!(train.len(), 40);
        assert_eq!(test.len(), 10);
    }

    #[test]
    fn remainder_records_are_distributed_across_threads() {
        let fleet = small_fleet();
        let cfg = DatasetConfig { num_records: 11, num_threads: 4, ..Default::default() };
        let records = generate_dataset(&fleet, &cfg, 9);
        assert_eq!(records.len(), 11);
    }
}
