//! Hybrid workflow images and the workflow registry (§5): the workflow manager
//! packages the workflow graph, hybrid code, and execution configuration into a
//! *hybrid workflow image* persisted in the registry, from which users can
//! deploy or invoke it repeatedly.

use crate::config::DeploymentConfig;
use crate::workflow::Workflow;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifier of a hybrid workflow image.
pub type ImageId = u64;

/// A packaged hybrid workflow image.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HybridWorkflowImage {
    /// Image identifier assigned by the registry.
    pub id: ImageId,
    /// Human-readable name (defaults to the workflow name).
    pub name: String,
    /// The workflow graph.
    pub workflow: Workflow,
    /// The deployment configuration packaged with the image.
    pub config: DeploymentConfig,
}

/// The workflow registry: a shared repository of ready-to-execute images.
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkflowRegistry {
    inner: Arc<RwLock<RegistryInner>>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    images: BTreeMap<ImageId, Arc<HybridWorkflowImage>>,
    next_id: ImageId,
}

impl WorkflowRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a workflow image; returns its assigned id.
    ///
    /// # Panics
    /// Panics if the workflow graph is cyclic (invalid images are never stored).
    pub(crate) fn register(&self, workflow: Workflow, config: DeploymentConfig) -> ImageId {
        assert!(workflow.is_valid(), "cannot register a cyclic workflow");
        let mut inner = self.inner.write();
        let id = inner.next_id;
        inner.next_id += 1;
        let image = HybridWorkflowImage { id, name: workflow.name.clone(), workflow, config };
        inner.images.insert(id, Arc::new(image));
        id
    }

    /// Fetch an image by id. Images are immutable once registered, so the
    /// registry hands out a shared reference rather than a copy of every
    /// circuit.
    pub fn get(&self, id: ImageId) -> Option<Arc<HybridWorkflowImage>> {
        self.inner.read().images.get(&id).cloned()
    }

    /// List all registered images (id, name) pairs in id order.
    pub(crate) fn list(&self) -> Vec<(ImageId, String)> {
        self.inner.read().images.values().map(|img| (img.id, img.name.clone())).collect()
    }
}

#[cfg(test)]
impl WorkflowRegistry {
    /// Remove an image; returns `true` if it existed.
    fn remove(&self, id: ImageId) -> bool {
        self.inner.write().images.remove(&id).is_some()
    }

    /// Number of registered images.
    fn len(&self) -> usize {
        self.inner.read().images.len()
    }

    /// `true` if the registry is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::mitigated_execution_workflow;
    use qonductor_circuit::generators::ghz;
    use qonductor_mitigation::MitigationStack;
    use qonductor_scheduler::ClassicalRequest;

    fn demo_workflow(name: &str) -> Workflow {
        mitigated_execution_workflow(
            name,
            ghz(4),
            MitigationStack::listing2(),
            ClassicalRequest::small(),
        )
    }

    #[test]
    fn register_get_list_remove_roundtrip() {
        let registry = WorkflowRegistry::new();
        assert!(registry.is_empty());
        let a = registry.register(demo_workflow("qaoa"), DeploymentConfig::default());
        let b = registry.register(demo_workflow("vqe"), DeploymentConfig::default());
        assert_ne!(a, b);
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.get(a).unwrap().name, "qaoa");
        let listing = registry.list();
        assert_eq!(listing.len(), 2);
        assert!(registry.remove(a));
        assert!(!registry.remove(a));
        assert!(registry.get(a).is_none());
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn registry_clones_share_state() {
        let registry = WorkflowRegistry::new();
        let clone = registry.clone();
        let id = clone.register(demo_workflow("shared"), DeploymentConfig::default());
        assert!(registry.get(id).is_some());
    }

    #[test]
    fn ids_are_monotonically_increasing_and_stable_after_removal() {
        let registry = WorkflowRegistry::new();
        let a = registry.register(demo_workflow("a"), DeploymentConfig::default());
        registry.remove(a);
        let b = registry.register(demo_workflow("b"), DeploymentConfig::default());
        assert!(b > a, "ids must never be reused");
    }

    #[test]
    #[should_panic]
    fn cyclic_workflow_rejected() {
        use crate::workflow::{ClassicalKind, ClassicalStep, Step, Workflow};
        let mut wf = Workflow::new("cyclic");
        let step = |n: &str| {
            Step::Classical(ClassicalStep {
                name: n.into(),
                kind: ClassicalKind::Computation,
                request: ClassicalRequest::small(),
                estimated_duration_s: 1.0,
            })
        };
        let a = wf.add_step(step("a"));
        let b = wf.add_step(step("b"));
        wf.add_edge(a, b);
        wf.add_edge(b, a);
        WorkflowRegistry::new().register(wf, DeploymentConfig::default());
    }
}
