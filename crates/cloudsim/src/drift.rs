//! The drifting-hardware scenario (§7): run the same workload twice on a
//! fleet whose devices recalibrate *inside* the simulated window — once with
//! calibration-aware dispatch ([`CalibrationPolicy::SplitAtBoundary`]: batch
//! plans are partitioned at recalibration boundaries and the post-boundary
//! jobs re-estimated against the new snapshot) and once with the naive
//! baseline (stale estimates dispatch regardless) — and compare the realized
//! fidelity-estimation error and the re-plan overhead.

use crate::sim::{study_config, CloudSimulation, SimulationConfig, SimulationReport};
use qonductor_core::jobmanager::CalibrationPolicy;

/// Configuration of the drift scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// The shared simulation configuration (policy must be Qonductor; the
    /// `calibration` field is overridden per arm of the comparison).
    pub base: SimulationConfig,
    /// Seconds between recalibration boundaries — shortened well below the
    /// hourly default so calibrations genuinely change mid-run.
    pub calibration_period_s: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig { base: study_config(), calibration_period_s: 400.0 }
    }
}

/// Side-by-side outcome of the drift scenario.
#[derive(Debug, Clone)]
pub struct DriftComparison {
    /// The calibration-aware run (split + re-estimate at boundaries).
    pub aware: SimulationReport,
    /// The naive baseline (stale estimates dispatch across boundaries).
    pub naive: SimulationReport,
}

impl DriftComparison {
    /// Reduction of the mean fidelity-estimation error achieved by
    /// calibration-aware dispatch: `naive − aware` (positive = aware wins).
    pub fn fidelity_error_reduction(&self) -> f64 {
        self.naive.mean_fidelity_error() - self.aware.mean_fidelity_error()
    }

    /// Re-plan overhead of the aware run: boundary deferrals plus
    /// re-estimated jobs (work the naive baseline never performs).
    pub fn replan_overhead(&self) -> usize {
        self.aware.deferred_total() + self.aware.reestimated_jobs
    }
}

/// Run the calibration-aware arm and the naive arm of the drift scenario on
/// identically seeded fleets and workload streams.
pub fn run_drift_comparison(config: &DriftConfig) -> DriftComparison {
    let aware = CloudSimulation::with_drifting_fleet(
        SimulationConfig { calibration: CalibrationPolicy::SplitAtBoundary, ..config.base },
        config.calibration_period_s,
    )
    .run();
    let naive = CloudSimulation::with_drifting_fleet(
        SimulationConfig { calibration: CalibrationPolicy::Naive, ..config.base },
        config.calibration_period_s,
    )
    .run();
    DriftComparison { aware, naive }
}

/// Side-by-side outcome of the proactive boundary-penalty study: both arms
/// run calibration-aware ([`CalibrationPolicy::SplitAtBoundary`]), but the
/// penalized arm also steers NSGA-II *away* from boundary-crossing plans
/// ([`SimulationConfig::boundary_penalty_weight`] > 0), so fewer batches
/// need the reactive split-and-defer path at dispatch time.
#[derive(Debug, Clone)]
pub struct PenaltyComparison {
    /// Calibration-aware with the proactive NSGA-II boundary penalty.
    pub penalized: SimulationReport,
    /// Calibration-aware with the penalty disabled (the PR-5 baseline).
    pub baseline: SimulationReport,
}

/// Run the boundary-penalty study: calibration-aware dispatch with and
/// without the proactive NSGA-II penalty, on identically seeded fleets and
/// workload streams.
pub fn run_penalty_comparison(config: &DriftConfig, weight: f64) -> PenaltyComparison {
    let aware = SimulationConfig { calibration: CalibrationPolicy::SplitAtBoundary, ..config.base };
    let penalized = CloudSimulation::with_drifting_fleet(
        SimulationConfig { boundary_penalty_weight: weight, ..aware },
        config.calibration_period_s,
    )
    .run();
    let baseline = CloudSimulation::with_drifting_fleet(
        SimulationConfig { boundary_penalty_weight: 0.0, ..aware },
        config.calibration_period_s,
    )
    .run();
    PenaltyComparison { penalized, baseline }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast smoke version of the drift comparison (the full scenario runs
    /// in `tests/drift.rs` and CI): boundaries fall inside the window, the
    /// aware arm splits and re-estimates, the naive arm never does.
    #[test]
    fn aware_arm_splits_and_reestimates_naive_never() {
        let config = DriftConfig {
            base: SimulationConfig { duration_s: 900.0, ..DriftConfig::default().base },
            calibration_period_s: 300.0,
        };
        let comparison = run_drift_comparison(&config);
        assert!(comparison.aware.split_batches() > 0, "plans must cross boundaries");
        assert!(comparison.aware.reestimated_jobs > 0, "deferred jobs must be re-estimated");
        assert_eq!(comparison.naive.split_batches(), 0);
        assert_eq!(comparison.naive.reestimated_jobs, 0);
        assert!(!comparison.aware.completed.is_empty() && !comparison.naive.completed.is_empty());
        assert!(comparison.replan_overhead() > 0);
    }
}
