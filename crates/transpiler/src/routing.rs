//! Qubit routing: make every two-qubit gate act on physically coupled qubits by
//! inserting SWAP gates along shortest paths (Figure 1's "routing" step).
//!
//! The router is a greedy shortest-path router: for every two-qubit gate whose
//! operands are not adjacent on the device, SWAPs are inserted along a shortest
//! path (the moving qubit walks toward its partner), updating the running
//! layout as it goes. This matches the paper's needs — the orchestrator only
//! consumes the *post-routing* gate counts, depth, and duration.
//!
//! `Router` is one instruction's step of that walk. [`route`] runs it over
//! a whole circuit and writes each SWAP as a `Gate::Swap`; the transpiler runs
//! the same step inside its one pass and writes each SWAP in the device basis.

use crate::layout::Layout;
use qonductor_backend::CouplingMap;
use qonductor_circuit::{Circuit, Gate, Instruction, NO_OPERAND};

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
    let mut out = Circuit::named(coupling.num_qubits(), circuit.name().to_string());
    out.set_shots(circuit.shots());
    let mut router = Router::new(coupling, initial_layout);
    for instr in circuit.instructions() {
        router.step(instr, &mut out, |out, from, to| {
            out.swap(from, to);
        });
    }
    let (final_layout, swaps_inserted) = router.finish();
    RoutedCircuit { circuit: out, final_layout, swaps_inserted }
}

/// The running state of the greedy router: the layout both ways, so a SWAP
/// is O(1), and the coupling map's distance table, so "coupled" is one load.
pub(crate) struct Router<'a> {
    coupling: &'a CouplingMap,
    dist: &'a [Vec<u32>],
    /// `physical[logical]`.
    physical: Vec<u32>,
    /// `logical[physical]`, `NO_OPERAND` where no logical qubit sits.
    logical: Vec<u32>,
    swaps: usize,
}

impl<'a> Router<'a> {
    pub(crate) fn new(coupling: &'a CouplingMap, initial_layout: &Layout) -> Self {
        let physical = initial_layout.mapping().to_vec();
        let mut logical = vec![NO_OPERAND; coupling.num_qubits() as usize];
        for (l, &p) in physical.iter().enumerate() {
            logical[p as usize] = l as u32;
        }
        Router { coupling, dist: coupling.distance_matrix(), physical, logical, swaps: 0 }
    }

    /// Append `instr` (over logical qubits) to `out` (over physical qubits).
    /// A two-qubit gate whose operands are not coupled first walks its first
    /// operand toward the second, one `emit_swap(out, from, to)` per hop,
    /// until the two are adjacent.
    #[inline]
    pub(crate) fn step<F>(&mut self, instr: &Instruction, out: &mut Circuit, mut emit_swap: F)
    where
        F: FnMut(&mut Circuit, u32, u32),
    {
        match instr.gate {
            Gate::Barrier => {
                out.barrier();
            }
            g if g.is_two_qubit() => {
                let start = self.physical[instr.q0 as usize];
                let pb = self.physical[instr.q1 as usize];
                let to_b = |p: u32| self.dist[p as usize][pb as usize];
                let mut pa = start;
                // Greedy descent on distance-to-target; the walk stops one hop
                // short of B, so B itself never moves. Distance 1 is "coupled";
                // a gate on one qubit twice (distance 0) does not walk.
                while to_b(pa) > 1 {
                    let next = self
                        .coupling
                        .neighbors(pa)
                        .iter()
                        .copied()
                        .min_by_key(|&nb| to_b(nb))
                        .expect("coupling map must be connected for routing");
                    // Guard against disconnected maps (would loop forever).
                    assert!(
                        to_b(next) < to_b(pa),
                        "no path from {start} to {pb} on this coupling map"
                    );
                    emit_swap(out, pa, next);
                    self.swap(pa, next);
                    pa = next;
                }
                let mut ni = *instr;
                ni.q0 = pa;
                ni.q1 = pb;
                out.push(ni);
            }
            _ => {
                let mut ni = *instr;
                ni.q0 = self.physical[instr.q0 as usize];
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

    /// Exchange whatever sits on physical qubits `a` and `b`.
    fn swap(&mut self, a: u32, b: u32) {
        let (la, lb) = (self.logical[a as usize], self.logical[b as usize]);
        self.logical[a as usize] = lb;
        self.logical[b as usize] = la;
        if la != NO_OPERAND {
            self.physical[la as usize] = b;
        }
        if lb != NO_OPERAND {
            self.physical[lb as usize] = a;
        }
        self.swaps += 1;
    }

    /// The final layout and the number of SWAPs inserted.
    pub(crate) fn finish(self) -> (Layout, usize) {
        (Layout::from_router(self.physical), self.swaps)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use qonductor_backend::Simulator;
    use qonductor_circuit::generators::ghz;

    /// The router before the one-pass transpiler: it builds the whole
    /// shortest path first and moves the layout with a scan over every
    /// logical qubit per SWAP. Kept as the oracle of [`route`].
    pub(crate) fn scan_route(
        circuit: &Circuit,
        coupling: &CouplingMap,
        initial_layout: &Layout,
    ) -> RoutedCircuit {
        assert!(
            initial_layout.len() >= circuit.num_qubits() as usize,
            "layout covers {} qubits but the circuit has {}",
            initial_layout.len(),
            circuit.num_qubits()
        );
        let dist = coupling.distance_matrix();
        let mut layout = initial_layout.mapping().to_vec();
        let mut out = Circuit::named(coupling.num_qubits(), circuit.name().to_string());
        out.set_shots(circuit.shots());
        let mut swaps = 0usize;

        for instr in circuit.instructions() {
            match instr.gate {
                Gate::Barrier => {
                    out.barrier();
                }
                g if g.is_two_qubit() => {
                    let mut pa = layout[instr.q0 as usize];
                    let pb = layout[instr.q1 as usize];
                    if !coupling.are_coupled(pa, pb) {
                        let path = shortest_path(coupling, dist, pa, pb);
                        for window in path.windows(2) {
                            let (from, to) = (window[0], window[1]);
                            if coupling.are_coupled(layout[instr.q0 as usize], pb) {
                                break;
                            }
                            out.swap(from, to);
                            for p in &mut layout {
                                if *p == from {
                                    *p = to;
                                } else if *p == to {
                                    *p = from;
                                }
                            }
                            swaps += 1;
                            pa = layout[instr.q0 as usize];
                            if coupling.are_coupled(pa, pb) {
                                break;
                            }
                        }
                        pa = layout[instr.q0 as usize];
                    }
                    debug_assert!(
                        pa == pb || coupling.are_coupled(pa, pb),
                        "routing failed to make ({pa},{pb}) adjacent"
                    );
                    let mut ni = *instr;
                    ni.q0 = pa;
                    ni.q1 = pb;
                    out.push(ni);
                }
                _ => {
                    let mut ni = *instr;
                    ni.q0 = layout[instr.q0 as usize];
                    if ni.gate == Gate::Measure {
                        ni.cbit = instr.q0;
                    }
                    debug_assert_eq!(ni.q1, NO_OPERAND);
                    out.push(ni);
                }
            }
        }

        RoutedCircuit { circuit: out, final_layout: Layout::new(layout), swaps_inserted: swaps }
    }

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
            assert!(
                dist[next as usize][to as usize] < dist[current as usize][to as usize],
                "no path from {from} to {to} on this coupling map"
            );
            path.push(next);
            current = next;
        }
        path
    }

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

    /// A SWAP onto an unoccupied physical qubit moves only the walking
    /// qubit; one onto an occupied qubit moves its occupant back.
    #[test]
    fn swaps_move_occupants_both_ways() {
        let coupling = CouplingMap::linear(6);
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(2, 1);
        let layout = Layout::new(vec![0, 4, 1]);
        let routed = route(&c, &coupling, &layout);
        // cx(0, 1): logical 0 walks 0 → 1 (displacing logical 2 to 0) → 2 → 3.
        // cx(2, 1): logical 2 walks 0 → 1 → 2 (displacing nothing) → 3 is
        // taken by logical 0, which moves back to 2.
        assert_eq!(routed.final_layout.mapping(), &[2, 4, 3]);
        assert_eq!(routed.swaps_inserted, 6);
        assert_eq!(routed.circuit, scan_route(&c, &coupling, &layout).circuit);
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
