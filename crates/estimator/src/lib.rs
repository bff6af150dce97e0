//! # qonductor-estimator
//!
//! The hybrid resource estimator of the Qonductor orchestrator (§6): feature
//! extraction from transpiled circuits, from-scratch polynomial regression
//! (OLS/ridge, K-fold CV, R²) for fidelity and execution-time prediction, the
//! numerical calibration-product baseline, synthetic training-dataset
//! generation against the modelled QPU fleet, the Table-1 pricing model, and
//! Pareto-filtered resource-plan generation over template QPUs and stacked
//! error-mitigation configurations.

#![warn(missing_docs)]

pub mod cost;
pub mod dataset;
pub mod estimator;
pub mod features;
pub mod numerical;
pub mod plans;
mod regression;

pub use cost::{PricingTable, ResourceClass};
pub use dataset::{generate_dataset, DatasetConfig, ExecutionRecord};
pub use estimator::{Estimate, EstimatorAccuracy, ResourceEstimator};
pub use features::JobFeatures;
pub use plans::{
    analytic_estimate, generate_candidate_plans, generate_plans, pareto_front, AnalyticEstimate,
    EstimationBackend, PlanGeneratorConfig, ResourcePlan,
};
