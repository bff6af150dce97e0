//! Deployment / execution configuration (the Listing-1 YAML analogue): the
//! minimum QPU size, the objective priority, the preferred QPU models and the
//! number of resource plans requested from the estimator.

/// Objective priority of the execution (picks the run's resource plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Balance fidelity and JCT (the default).
    #[default]
    Balanced,
    /// Prioritise fidelity.
    Fidelity,
    /// Prioritise low completion time.
    CompletionTime,
}

/// Deployment configuration of a hybrid workflow.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentConfig {
    /// Minimum QPU size in qubits (`qubits: 20` in Listing 1).
    pub min_qubits: u32,
    /// Objective priority.
    pub priority: Priority,
    /// Preferred QPU models (empty = any).
    pub preferred_models: Vec<String>,
    /// Number of resource plans requested from the estimator.
    pub num_resource_plans: usize,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            min_qubits: 0,
            priority: Priority::Balanced,
            preferred_models: vec![],
            num_resource_plans: 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_balanced_over_any_model_with_three_plans() {
        let c = DeploymentConfig::default();
        assert_eq!(c.min_qubits, 0);
        assert_eq!(c.num_resource_plans, 3);
        assert_eq!(c.priority, Priority::Balanced);
        assert!(c.preferred_models.is_empty());
    }
}
