//! Deployment / execution configuration (the Listing-1 YAML analogue): per-step
//! resource requests (GPUs, QPU count, minimum qubits) and execution
//! preferences (objective priority, preferred QPU models).

use qonductor_scheduler::Preference;

/// Resource requests of one workflow container/step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceLimits {
    /// Requested GPUs (`nvidia.com/gpu` in Listing 1).
    pub gpus: u32,
    /// Requested vCPUs.
    pub cpus: u32,
    /// Requested memory in GB.
    pub memory_gb: u32,
    /// Requested QPUs (`quantum.ibm.com/qpu` in Listing 1).
    pub qpus: u32,
    /// Minimum QPU size in qubits (`qubits: 20` in Listing 1).
    pub min_qubits: u32,
}

/// Objective priority of the execution (consumed by the scheduler's MCDM stage).
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

impl Priority {
    /// The MCDM preference vector of this priority.
    pub fn preference(&self) -> Preference {
        match self {
            Priority::Balanced => Preference::balanced(),
            Priority::Fidelity => Preference::fidelity_first(),
            Priority::CompletionTime => Preference::jct_first(),
        }
    }
}

/// Deployment configuration of a hybrid workflow.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentConfig {
    /// Resource limits of the classical steps.
    pub classical: ResourceLimits,
    /// Resource limits of the quantum steps.
    pub quantum: ResourceLimits,
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
            classical: ResourceLimits { cpus: 4, memory_gb: 8, ..Default::default() },
            quantum: ResourceLimits { qpus: 1, min_qubits: 0, ..Default::default() },
            priority: Priority::Balanced,
            preferred_models: vec![],
            num_resource_plans: 3,
        }
    }
}

impl DeploymentConfig {
    /// Parse a minimal `key: value` configuration format covering the fields of
    /// Listing 1 (one entry per line; unknown keys are ignored). Supported keys:
    /// `gpus`, `cpus`, `memory_gb`, `qpus`, `qubits`, `priority`
    /// (`balanced`/`fidelity`/`jct`), `model` (repeatable), `plans`.
    pub fn parse(text: &str) -> DeploymentConfig {
        let mut config = DeploymentConfig::default();
        for line in text.lines() {
            let line = line.trim();
            let Some((key, value)) = line.split_once(':') else { continue };
            let key = key.trim().trim_start_matches('-').trim();
            let value = value.trim();
            match key {
                "gpus" => config.classical.gpus = value.parse().unwrap_or(0),
                "cpus" => config.classical.cpus = value.parse().unwrap_or(4),
                "memory_gb" => config.classical.memory_gb = value.parse().unwrap_or(8),
                "qpus" => config.quantum.qpus = value.parse().unwrap_or(1),
                "qubits" => config.quantum.min_qubits = value.parse().unwrap_or(0),
                "plans" => config.num_resource_plans = value.parse().unwrap_or(3),
                "priority" => {
                    config.priority = match value {
                        "fidelity" => Priority::Fidelity,
                        "jct" | "completion_time" => Priority::CompletionTime,
                        _ => Priority::Balanced,
                    }
                }
                "model" => config.preferred_models.push(value.to_string()),
                _ => {}
            }
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_requests_one_qpu() {
        let c = DeploymentConfig::default();
        assert_eq!(c.quantum.qpus, 1);
        assert_eq!(c.num_resource_plans, 3);
        assert_eq!(c.priority, Priority::Balanced);
    }

    #[test]
    fn parse_listing1_style_config() {
        let text = "
            gpus: 1
            cpus: 16
            memory_gb: 64
            qpus: 1
            qubits: 20
            priority: jct
            model: falcon-r5.11
            plans: 5
        ";
        let c = DeploymentConfig::parse(text);
        assert_eq!(c.classical.gpus, 1);
        assert_eq!(c.classical.cpus, 16);
        assert_eq!(c.quantum.min_qubits, 20);
        assert_eq!(c.priority, Priority::CompletionTime);
        assert_eq!(c.preferred_models, vec!["falcon-r5.11".to_string()]);
        assert_eq!(c.num_resource_plans, 5);
    }

    #[test]
    fn unknown_keys_and_garbage_are_ignored() {
        let c = DeploymentConfig::parse("nonsense\nfoo: bar\nqubits: 12");
        assert_eq!(c.quantum.min_qubits, 12);
        assert_eq!(c.classical.gpus, 0);
    }

    #[test]
    fn priorities_map_to_preferences() {
        assert_eq!(Priority::Balanced.preference(), Preference::balanced());
        assert!(Priority::Fidelity.preference().fidelity_weight > 0.5);
        assert!(Priority::CompletionTime.preference().jct_weight > 0.5);
    }
}
