//! The trained resource estimator: polynomial-regression models for execution
//! fidelity and execution time, trained on a dataset of job executions (§6).

use crate::dataset::ExecutionRecord;
use crate::features::JobFeatures;
use crate::regression::PolynomialRegressor;

/// Accuracy summary of a trained estimator on a held-out dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorAccuracy {
    /// R² of the fidelity model.
    pub fidelity_r2: f64,
    /// R² of the execution-time model.
    pub runtime_r2: f64,
    /// Fraction of fidelity estimates with absolute error below 0.1
    /// (the paper reports ≈ 75%, Figure 7b).
    pub fidelity_within_0_1: f64,
    /// Fraction of execution-time estimates with absolute error below 500 ms
    /// (the paper reports ≈ 80%, Figure 7c).
    pub runtime_within_500ms: f64,
}

/// A fidelity + execution-time estimate for one candidate execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated execution fidelity in [0, 1].
    pub fidelity: f64,
    /// Estimated quantum execution time in seconds.
    pub quantum_time_s: f64,
    /// Estimated classical processing time in seconds (CPU, unaccelerated).
    pub classical_time_s: f64,
}

impl Estimate {
    /// Total hybrid execution time (quantum + classical) in seconds.
    pub fn total_time_s(&self) -> f64 {
        self.quantum_time_s + self.classical_time_s
    }
}

/// Regression-based resource estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceEstimator {
    fidelity_model: PolynomialRegressor,
    runtime_model: PolynomialRegressor,
    classical_model: PolynomialRegressor,
    degree: u32,
}

impl ResourceEstimator {
    /// Train an estimator of the given polynomial degree on a dataset of
    /// execution records (the paper selects degree-2 polynomial regression).
    pub fn train(records: &[ExecutionRecord], degree: u32) -> Self {
        assert!(records.len() >= 20, "training needs a reasonably sized dataset");
        let fid_x: Vec<Vec<f64>> = records.iter().map(|r| r.features.fidelity_features()).collect();
        let fid_y: Vec<f64> = records.iter().map(|r| r.fidelity).collect();
        let run_x: Vec<Vec<f64>> = records.iter().map(|r| r.features.runtime_features()).collect();
        let run_y: Vec<f64> = records.iter().map(|r| r.quantum_time_s).collect();
        let cls_y: Vec<f64> = records.iter().map(|r| r.classical_time_s).collect();
        ResourceEstimator {
            fidelity_model: PolynomialRegressor::fit(&fid_x, &fid_y, degree),
            runtime_model: PolynomialRegressor::fit(&run_x, &run_y, degree),
            classical_model: PolynomialRegressor::fit(&run_x, &cls_y, degree),
            degree,
        }
    }

    /// Polynomial degree of the underlying models.
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// Estimate fidelity for a job's features (clamped to [0, 1]).
    pub fn estimate_fidelity(&self, features: &JobFeatures) -> f64 {
        self.fidelity_model.predict(&features.fidelity_features()).clamp(0.0, 1.0)
    }

    /// Estimate the quantum execution time in seconds (non-negative).
    pub fn estimate_quantum_time_s(&self, features: &JobFeatures) -> f64 {
        self.runtime_model.predict(&features.runtime_features()).max(0.0)
    }

    /// Estimate the classical processing time in seconds (non-negative).
    pub(crate) fn estimate_classical_time_s(&self, features: &JobFeatures) -> f64 {
        self.classical_model.predict(&features.runtime_features()).max(0.0)
    }

    /// Full estimate for a job's features.
    pub fn estimate(&self, features: &JobFeatures) -> Estimate {
        Estimate {
            fidelity: self.estimate_fidelity(features),
            quantum_time_s: self.estimate_quantum_time_s(features),
            classical_time_s: self.estimate_classical_time_s(features),
        }
    }

    /// Evaluate estimator accuracy against a held-out dataset.
    pub fn evaluate(&self, records: &[ExecutionRecord]) -> EstimatorAccuracy {
        assert!(!records.is_empty());
        let fid_pred: Vec<f64> =
            records.iter().map(|r| self.estimate_fidelity(&r.features)).collect();
        let fid_true: Vec<f64> = records.iter().map(|r| r.fidelity).collect();
        let run_pred: Vec<f64> =
            records.iter().map(|r| self.estimate_quantum_time_s(&r.features)).collect();
        let run_true: Vec<f64> = records.iter().map(|r| r.quantum_time_s).collect();
        let n = records.len() as f64;
        EstimatorAccuracy {
            fidelity_r2: crate::regression::r2_score(&fid_true, &fid_pred),
            runtime_r2: crate::regression::r2_score(&run_true, &run_pred),
            fidelity_within_0_1: fid_true
                .iter()
                .zip(&fid_pred)
                .filter(|(t, p)| (**t - **p).abs() < 0.1)
                .count() as f64
                / n,
            runtime_within_500ms: run_true
                .iter()
                .zip(&run_pred)
                .filter(|(t, p)| (**t - **p).abs() < 0.5)
                .count() as f64
                / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_dataset, split, DatasetConfig};
    use qonductor_backend::Fleet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset(n: usize) -> Vec<ExecutionRecord> {
        let mut rng = StdRng::seed_from_u64(100);
        let fleet = Fleet::ibm_default(&mut rng);
        generate_dataset(
            &fleet,
            &DatasetConfig { num_records: n, num_threads: 4, ..Default::default() },
            11,
        )
    }

    #[test]
    fn trained_estimator_achieves_high_r2_on_training_data() {
        let records = dataset(600);
        let est = ResourceEstimator::train(&records, 2);
        let acc = est.evaluate(&records);
        assert!(acc.fidelity_r2 > 0.9, "fidelity R² = {}", acc.fidelity_r2);
        assert!(acc.runtime_r2 > 0.95, "runtime R² = {}", acc.runtime_r2);
    }

    #[test]
    fn estimator_generalises_to_held_out_data() {
        let records = dataset(800);
        let (train, test) = split(&records, 0.75);
        let est = ResourceEstimator::train(&train, 2);
        let acc = est.evaluate(&test);
        assert!(acc.fidelity_r2 > 0.8, "held-out fidelity R² = {}", acc.fidelity_r2);
        assert!(acc.runtime_r2 > 0.9, "held-out runtime R² = {}", acc.runtime_r2);
        assert!(acc.fidelity_within_0_1 > 0.6, "within-0.1 fraction = {}", acc.fidelity_within_0_1);
    }

    #[test]
    fn estimates_are_clamped_to_valid_ranges() {
        let records = dataset(200);
        let est = ResourceEstimator::train(&records, 2);
        for r in &records {
            let e = est.estimate(&r.features);
            assert!(e.fidelity >= 0.0 && e.fidelity <= 1.0);
            assert!(e.quantum_time_s >= 0.0);
            assert!(e.classical_time_s >= 0.0);
            assert!(e.total_time_s() >= e.quantum_time_s);
        }
    }

    #[test]
    #[should_panic]
    fn training_on_tiny_dataset_panics() {
        let records = dataset(30);
        ResourceEstimator::train(&records[..5], 2);
    }
}
