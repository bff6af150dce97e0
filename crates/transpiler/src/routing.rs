//! Qubit routing: make every two-qubit gate act on physically coupled qubits by
//! inserting SWAP gates along shortest paths (Figure 1's "routing" step).
//!
//! The router is a greedy shortest-path router: for every two-qubit gate whose
//! operands are not adjacent on the device, SWAPs are inserted along a shortest
//! path (the moving qubit walks toward its partner), updating the running
//! layout as it goes. This matches the paper's needs — the orchestrator only
//! consumes the *post-routing* gate counts, depth, and duration.

use crate::layout::Layout;
use qonductor_backend::CouplingMap;
use qonductor_circuit::{Circuit, Gate, NO_OPERAND};

/// Result of routing a circuit onto a device.
#[derive(Debug, Clone)]
pub struct RoutedCircuit {
    /// The routed circuit, expressed over *physical* qubit indices.
    pub circuit: Circuit,
    /// Final layout after all SWAP insertions.
    pub final_layout: Layout,
    /// Number of SWAP gates inserted.
    pub swaps_inserted: usize,
}

/// Route `circuit` onto `coupling` starting from `initial_layout`.
///
/// The input circuit is expressed over logical qubits; the output circuit is
/// expressed over physical qubits of the device (width = device size).
pub fn route(circuit: &Circuit, coupling: &CouplingMap, initial_layout: &Layout) -> RoutedCircuit {
    assert!(
        initial_layout.len() >= circuit.num_qubits() as usize,
        "layout covers {} qubits but the circuit has {}",
        initial_layout.len(),
        circuit.num_qubits()
    );
    let dist = coupling.distance_matrix();
    let mut layout = initial_layout.clone();
    let mut out = Circuit::named(coupling.num_qubits(), circuit.name().to_string());
    out.set_shots(circuit.shots());
    let mut swaps = 0usize;

    for instr in circuit.instructions() {
        match instr.gate {
            Gate::Barrier => {
                out.barrier();
            }
            g if g.is_two_qubit() => {
                let mut pa = layout.physical(instr.q0);
                let pb = layout.physical(instr.q1);
                if !coupling.are_coupled(pa, pb) {
                    // Walk qubit A along a shortest path toward B until adjacent.
                    let path = shortest_path(coupling, dist, pa, pb);
                    // path = [pa, x1, x2, ..., pb]; swap pa forward until adjacent to pb.
                    for window in path.windows(2) {
                        let (from, to) = (window[0], window[1]);
                        if coupling.are_coupled(layout_position(&layout, instr.q0), pb) {
                            break;
                        }
                        out.swap(from, to);
                        layout.swap_physical(from, to);
                        swaps += 1;
                        pa = layout.physical(instr.q0);
                        if coupling.are_coupled(pa, pb) {
                            break;
                        }
                    }
                    pa = layout.physical(instr.q0);
                }
                debug_assert!(
                    coupling.are_coupled(pa, pb),
                    "routing failed to make ({pa},{pb}) adjacent"
                );
                let mut ni = *instr;
                ni.q0 = pa;
                ni.q1 = pb;
                out.push(ni);
            }
            _ => {
                let mut ni = *instr;
                ni.q0 = layout.physical(instr.q0);
                if ni.gate == Gate::Measure {
                    // Classical bit index keeps the logical qubit number so results
                    // remain comparable across devices.
                    ni.cbit = instr.q0;
                }
                debug_assert_eq!(ni.q1, NO_OPERAND);
                out.push(ni);
            }
        }
    }

    RoutedCircuit { circuit: out, final_layout: layout, swaps_inserted: swaps }
}

fn layout_position(layout: &Layout, logical: u32) -> u32 {
    layout.physical(logical)
}

/// Shortest path between two physical qubits using the precomputed distance
/// matrix (greedy descent on distance-to-target).
fn shortest_path(coupling: &CouplingMap, dist: &[Vec<u32>], from: u32, to: u32) -> Vec<u32> {
    let mut path = vec![from];
    let mut current = from;
    while current != to {
        let next = coupling
            .neighbors(current)
            .iter()
            .copied()
            .min_by_key(|&nb| dist[nb as usize][to as usize])
            .expect("coupling map must be connected for routing");
        // Guard against disconnected maps (would loop forever).
        assert!(
            dist[next as usize][to as usize] < dist[current as usize][to as usize],
            "no path from {from} to {to} on this coupling map"
        );
        path.push(next);
        current = next;
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_backend::Simulator;
    use qonductor_circuit::generators::ghz;

    #[test]
    fn adjacent_gates_need_no_swaps() {
        let coupling = CouplingMap::linear(4);
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let routed = route(&c, &coupling, &Layout::trivial(2));
        assert_eq!(routed.swaps_inserted, 0);
        assert_eq!(routed.circuit.num_qubits(), 4);
    }

    #[test]
    fn distant_gate_inserts_swaps_on_linear_chain() {
        let coupling = CouplingMap::linear(5);
        let mut c = Circuit::new(5);
        c.cx(0, 4);
        let routed = route(&c, &coupling, &Layout::trivial(5));
        // Distance 4 → need 3 swaps to become adjacent.
        assert_eq!(routed.swaps_inserted, 3);
        // All two-qubit gates in the output are physically adjacent.
        for instr in routed.circuit.instructions() {
            if instr.gate.is_two_qubit() {
                assert!(coupling.are_coupled(instr.q0, instr.q1));
            }
        }
    }

    #[test]
    fn routed_ghz_preserves_distribution_on_heavy_hex() {
        let coupling = CouplingMap::heavy_hex_27();
        let c = ghz(6);
        let routed = route(&c, &coupling, &Layout::trivial(6));
        let sim = Simulator::default();
        let original = sim.ideal_distribution(&c);
        let after = sim.ideal_distribution(&routed.circuit);
        assert!(qonductor_backend::hellinger_fidelity(&original, &after) > 0.999);
    }

    #[test]
    fn routing_respects_all_adjacency_on_ghz_ring() {
        let coupling = CouplingMap::ring(8);
        let c = ghz(8);
        let routed = route(&c, &coupling, &Layout::trivial(8));
        for instr in routed.circuit.instructions() {
            if instr.gate.is_two_qubit() {
                assert!(
                    coupling.are_coupled(instr.q0, instr.q1),
                    "gate on non-adjacent qubits {} {}",
                    instr.q0,
                    instr.q1
                );
            }
        }
    }

    #[test]
    fn final_layout_tracks_swaps() {
        let coupling = CouplingMap::linear(3);
        let mut c = Circuit::new(3);
        c.cx(0, 2);
        let routed = route(&c, &coupling, &Layout::trivial(3));
        assert!(routed.swaps_inserted >= 1);
        // The final layout is still injective.
        let mut phys = routed.final_layout.mapping().to_vec();
        phys.sort_unstable();
        phys.dedup();
        assert_eq!(phys.len(), 3);
    }

    #[test]
    fn measurement_cbits_stay_logical() {
        let coupling = CouplingMap::heavy_hex_27();
        let c = ghz(4);
        let layout = Layout::new(vec![10, 12, 13, 14]);
        let routed = route(&c, &coupling, &layout);
        for instr in routed.circuit.instructions() {
            if instr.gate == Gate::Measure {
                assert!(instr.cbit < 4, "cbit must remain a logical index");
            }
        }
    }
}
