//! Hybrid workflows (§5): a directed acyclic graph of classical and quantum
//! steps with control/data-flow dependencies, as produced by the workflow
//! manager when it splits a hybrid application into its quantum and classical
//! parts.

use qonductor_circuit::Circuit;
use qonductor_mitigation::MitigationStack;
use qonductor_scheduler::ClassicalRequest;

/// Kind of classical processing performed by a classical step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassicalKind {
    /// Error-mitigation circuit generation / noise-scaling preparation.
    PreProcessing,
    /// Result reconstruction / inference (e.g. ZNE extrapolation, REM inversion).
    PostProcessing,
    /// Classical simulation or optimisation (e.g. a VQE parameter update).
    Computation,
}

/// A classical workflow step.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassicalStep {
    /// Step name.
    pub name: String,
    /// What the step does.
    pub kind: ClassicalKind,
    /// Resource request of the step.
    pub request: ClassicalRequest,
    /// Estimated CPU duration in seconds.
    pub estimated_duration_s: f64,
}

/// A quantum workflow step.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantumStep {
    /// Step name.
    pub name: String,
    /// The circuit to execute.
    pub circuit: Circuit,
    /// Error-mitigation stack applied around this circuit.
    pub mitigation: MitigationStack,
}

/// A workflow step: either classical or quantum.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Classical processing step.
    Classical(ClassicalStep),
    /// Quantum execution step.
    Quantum(QuantumStep),
}

impl Step {
    /// Step name.
    pub fn name(&self) -> &str {
        match self {
            Step::Classical(s) => &s.name,
            Step::Quantum(s) => &s.name,
        }
    }
}

/// A hybrid workflow: steps `V` plus dependency edges `E ⊆ V × V`.
#[derive(Debug, Clone, PartialEq)]
pub struct Workflow {
    /// Workflow name.
    pub name: String,
    steps: Vec<Step>,
    /// Edges `(from, to)`: `to` depends on `from`.
    edges: Vec<(usize, usize)>,
}

impl Workflow {
    /// Create an empty workflow.
    pub fn new(name: impl Into<String>) -> Self {
        Workflow { name: name.into(), steps: Vec::new(), edges: Vec::new() }
    }

    /// Build a linear (chain) workflow from an ordered step list — the common
    /// pre-process → execute → post-process shape of Figure 1.
    pub fn chain(name: impl Into<String>, steps: Vec<Step>) -> Self {
        let mut wf = Workflow::new(name);
        for step in steps {
            wf.add_chained(step);
        }
        wf
    }

    /// Add a step with no dependencies; returns its index.
    pub(crate) fn add_step(&mut self, step: Step) -> usize {
        self.steps.push(step);
        self.steps.len() - 1
    }

    /// Add a step depending on the previously added step (chain order).
    pub fn add_chained(&mut self, step: Step) -> usize {
        let idx = self.add_step(step);
        if idx > 0 {
            self.edges.push((idx - 1, idx));
        }
        idx
    }

    /// Add a dependency edge `from → to`.
    ///
    /// # Panics
    /// Panics if either index is out of range or the edge is a self-loop.
    pub fn add_edge(&mut self, from: usize, to: usize) {
        assert!(from < self.steps.len() && to < self.steps.len(), "edge endpoints must exist");
        assert_ne!(from, to, "self-dependencies are not allowed");
        self.edges.push((from, to));
    }

    /// All steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// All dependency edges.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if the workflow has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Largest circuit width among the quantum steps.
    pub fn max_qubits(&self) -> u32 {
        self.steps
            .iter()
            .filter_map(|s| match s {
                Step::Quantum(q) => Some(q.circuit.num_qubits()),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Topological order of the steps, or `None` if the dependency graph has a cycle.
    pub(crate) fn topological_order(&self) -> Option<Vec<usize>> {
        let n = self.steps.len();
        let mut indegree = vec![0usize; n];
        let mut adj = vec![Vec::new(); n];
        for &(from, to) in &self.edges {
            adj[from].push(to);
            indegree[to] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(node) = queue.pop() {
            order.push(node);
            for &next in &adj[node] {
                indegree[next] -= 1;
                if indegree[next] == 0 {
                    queue.push(next);
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// `true` if the dependency graph is acyclic.
    pub(crate) fn is_valid(&self) -> bool {
        self.topological_order().is_some()
    }
}

/// Build the standard mitigated-execution workflow of Figure 1 / Listing 2 for
/// one circuit: pre-processing (circuit generation / noise scaling), quantum
/// execution, post-processing (inference / reconstruction).
pub fn mitigated_execution_workflow(
    name: impl Into<String>,
    circuit: Circuit,
    mitigation: MitigationStack,
    request: ClassicalRequest,
) -> Workflow {
    let name = name.into();
    let mut steps = Vec::new();
    if !mitigation.is_empty() {
        steps.push(Step::Classical(ClassicalStep {
            name: format!("{name}-preprocess"),
            kind: ClassicalKind::PreProcessing,
            request,
            estimated_duration_s: 0.5,
        }));
    }
    steps.push(Step::Quantum(QuantumStep {
        name: format!("{name}-execute"),
        circuit,
        mitigation: mitigation.clone(),
    }));
    if !mitigation.is_empty() {
        steps.push(Step::Classical(ClassicalStep {
            name: format!("{name}-postprocess"),
            kind: ClassicalKind::PostProcessing,
            request,
            estimated_duration_s: 1.0,
        }));
    }
    Workflow::chain(name, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_circuit::generators::ghz;

    #[test]
    fn chain_workflow_is_valid_and_ordered() {
        let wf = mitigated_execution_workflow(
            "demo",
            ghz(5),
            MitigationStack::listing2(),
            ClassicalRequest::small(),
        );
        assert_eq!(wf.len(), 3);
        assert_eq!(wf.steps().iter().filter(|s| matches!(s, Step::Quantum(_))).count(), 1);
        assert_eq!(wf.max_qubits(), 5);
        assert!(wf.is_valid());
        let order = wf.topological_order().unwrap();
        // Pre-processing first, post-processing last.
        assert_eq!(order.first(), Some(&0));
        assert_eq!(order.last(), Some(&2));
    }

    #[test]
    fn unmitigated_workflow_has_only_the_quantum_step() {
        let wf = mitigated_execution_workflow(
            "plain",
            ghz(3),
            MitigationStack::none(),
            ClassicalRequest::small(),
        );
        assert_eq!(wf.len(), 1);
        assert!(matches!(wf.steps()[0], Step::Quantum(_)));
    }

    #[test]
    fn cycles_are_detected() {
        let mut wf = Workflow::new("cyclic");
        let a = wf.add_step(Step::Classical(ClassicalStep {
            name: "a".into(),
            kind: ClassicalKind::Computation,
            request: ClassicalRequest::small(),
            estimated_duration_s: 1.0,
        }));
        let b = wf.add_step(Step::Classical(ClassicalStep {
            name: "b".into(),
            kind: ClassicalKind::Computation,
            request: ClassicalRequest::small(),
            estimated_duration_s: 1.0,
        }));
        wf.add_edge(a, b);
        assert!(wf.is_valid());
        wf.add_edge(b, a);
        assert!(!wf.is_valid());
        assert!(wf.topological_order().is_none());
    }

    #[test]
    fn diamond_dependencies_topologically_ordered() {
        let step = |n: &str| {
            Step::Classical(ClassicalStep {
                name: n.into(),
                kind: ClassicalKind::Computation,
                request: ClassicalRequest::small(),
                estimated_duration_s: 1.0,
            })
        };
        let mut wf = Workflow::new("diamond");
        let a = wf.add_step(step("a"));
        let b = wf.add_step(step("b"));
        let c = wf.add_step(step("c"));
        let d = wf.add_step(step("d"));
        wf.add_edge(a, b);
        wf.add_edge(a, c);
        wf.add_edge(b, d);
        wf.add_edge(c, d);
        let order = wf.topological_order().unwrap();
        let pos = |x: usize| order.iter().position(|&i| i == x).unwrap();
        assert!(pos(a) < pos(b) && pos(a) < pos(c));
        assert!(pos(d) > pos(b) && pos(d) > pos(c));
    }

    #[test]
    #[should_panic]
    fn self_edge_panics() {
        let mut wf = Workflow::new("bad");
        let a = wf.add_step(Step::Quantum(QuantumStep {
            name: "q".into(),
            circuit: ghz(2),
            mitigation: MitigationStack::none(),
        }));
        wf.add_edge(a, a);
    }
}
