//! DAG representation of a circuit.
//!
//! Every instruction becomes a node; edges connect consecutive operations on
//! the same qubit. The DAG is consumed by the transpiler's ASAP scheduler and
//! by the numerical fidelity estimator (which traverses it front-to-back,
//! multiplying per-operation success probabilities).

use crate::circuit::Circuit;
use crate::gate::{Gate, Instruction, NO_OPERAND};

/// A node in the circuit DAG: one instruction plus its dependency edges.
#[derive(Debug, Clone)]
pub struct DagNode {
    /// Index of the instruction in the originating circuit.
    pub index: usize,
    /// The instruction itself.
    pub instruction: Instruction,
    /// Indices of nodes that must complete before this one (per-qubit order).
    pub predecessors: Vec<usize>,
    /// Indices of nodes that depend on this one.
    pub successors: Vec<usize>,
}

/// Dependency DAG over a circuit's instructions.
#[derive(Debug, Clone)]
pub struct CircuitDag {
    nodes: Vec<DagNode>,
    num_qubits: u32,
}

impl CircuitDag {
    /// Build the DAG from a circuit. Barriers create a full synchronisation
    /// point: every later instruction depends (transitively) on every earlier one.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let mut nodes: Vec<DagNode> = Vec::with_capacity(n);
        // last_on_qubit[q] = index of the most recent node touching qubit q
        let mut last_on_qubit: Vec<Option<usize>> = vec![None; circuit.num_qubits() as usize];
        // Barrier handling: remember the last barrier node, all qubits depend on it.
        let mut last_barrier: Option<usize> = None;

        for (idx, instr) in circuit.instructions().iter().enumerate() {
            let mut preds: Vec<usize> = Vec::new();
            if instr.gate == Gate::Barrier {
                // Barrier depends on the latest node of every qubit.
                for last in last_on_qubit.iter().flatten() {
                    if !preds.contains(last) {
                        preds.push(*last);
                    }
                }
                if let Some(b) = last_barrier {
                    if preds.is_empty() {
                        preds.push(b);
                    }
                }
                last_barrier = Some(idx);
                for l in last_on_qubit.iter_mut() {
                    *l = Some(idx);
                }
            } else {
                let q0 = instr.q0 as usize;
                if let Some(p) = last_on_qubit[q0] {
                    preds.push(p);
                } else if let Some(b) = last_barrier {
                    preds.push(b);
                }
                last_on_qubit[q0] = Some(idx);
                if instr.q1 != NO_OPERAND {
                    let q1 = instr.q1 as usize;
                    if let Some(p) = last_on_qubit[q1] {
                        if !preds.contains(&p) {
                            preds.push(p);
                        }
                    }
                    last_on_qubit[q1] = Some(idx);
                }
            }
            nodes.push(DagNode {
                index: idx,
                instruction: *instr,
                predecessors: preds,
                successors: Vec::new(),
            });
        }

        // Fill successors from predecessors.
        for idx in 0..nodes.len() {
            let preds = nodes[idx].predecessors.clone();
            for p in preds {
                nodes[p].successors.push(idx);
            }
        }

        CircuitDag { nodes, num_qubits: circuit.num_qubits() }
    }

    /// All nodes in original instruction order (which is already a valid
    /// topological order, since dependencies only point backwards).
    pub fn nodes(&self) -> &[DagNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of qubits of the underlying circuit.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Partition nodes into ASAP layers: layer k contains the nodes whose
    /// longest dependency chain has length k. Virtual gates share the layer of
    /// their predecessor (they consume no time).
    pub fn layers(&self) -> Vec<Vec<usize>> {
        let mut level = vec![0usize; self.nodes.len()];
        let mut max_level = 0usize;
        for (idx, node) in self.nodes.iter().enumerate() {
            let base = node
                .predecessors
                .iter()
                .map(|&p| {
                    if self.nodes[p].instruction.gate.is_virtual() {
                        level[p]
                    } else {
                        level[p] + 1
                    }
                })
                .max()
                .unwrap_or(0);
            level[idx] = base;
            max_level = max_level.max(base);
        }
        let mut layers = vec![Vec::new(); max_level + 1];
        for (idx, &l) in level.iter().enumerate() {
            layers[l].push(idx);
        }
        layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    #[test]
    fn bell_dag_dependencies() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let dag = CircuitDag::from_circuit(&c);
        assert_eq!(dag.len(), 4);
        // H has no predecessors.
        assert!(dag.nodes()[0].predecessors.is_empty());
        // CX depends on H (qubit 0) only.
        assert_eq!(dag.nodes()[1].predecessors, vec![0]);
        // measure(0) and measure(1) both depend on the CX.
        assert_eq!(dag.nodes()[2].predecessors, vec![1]);
        assert_eq!(dag.nodes()[3].predecessors, vec![1]);
        // CX's successors are the two measurements.
        assert_eq!(dag.nodes()[1].successors, vec![2, 3]);
    }

    #[test]
    fn front_layer_is_independent_gates() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2).cx(0, 1);
        let dag = CircuitDag::from_circuit(&c);
        assert_eq!(dag.layers()[0], vec![0, 1, 2]);
    }

    #[test]
    fn layers_respect_dependencies() {
        let mut c = Circuit::new(3);
        c.h(0).h(1); // layer 0
        c.cx(0, 1); // layer 1
        c.cx(1, 2); // layer 2
        let dag = CircuitDag::from_circuit(&c);
        let layers = dag.layers();
        assert_eq!(layers.len(), 3);
        assert_eq!(layers[0], vec![0, 1]);
        assert_eq!(layers[1], vec![2]);
        assert_eq!(layers[2], vec![3]);
    }

    #[test]
    fn critical_path_matches_depth_without_barriers() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).x(3);
        let dag = CircuitDag::from_circuit(&c);
        assert_eq!(dag.layers().len(), c.depth());
    }

    #[test]
    fn barrier_orders_across_qubits() {
        let mut c = Circuit::new(2);
        c.x(0);
        c.barrier();
        c.x(1);
        let dag = CircuitDag::from_circuit(&c);
        // x(1) depends on the barrier which depends on x(0).
        assert_eq!(dag.nodes()[2].predecessors, vec![1]);
        assert_eq!(dag.nodes()[1].predecessors, vec![0]);
    }

    #[test]
    fn empty_circuit_dag() {
        let c = Circuit::new(3);
        let dag = CircuitDag::from_circuit(&c);
        assert!(dag.is_empty());
        assert_eq!(dag.layers().len(), 1);
        assert!(dag.layers()[0].is_empty());
    }
}
