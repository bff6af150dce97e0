//! Circuit knitting (quasi-probability circuit cutting): split a wide circuit
//! into narrower fragments that are executed separately and recombined
//! classically. This is the technique behind the paper's Figure 2(a), where
//! cutting 12-/24-qubit circuits in half trades a large increase in quantum
//! and classical runtime for a dramatic fidelity improvement.

use crate::technique::MitigationCost;
use qonductor_circuit::{Circuit, Gate, NO_OPERAND};

/// Result of cutting a circuit into two fragments at a qubit boundary.
#[derive(Debug, Clone)]
pub struct CutResult {
    /// The circuit fragments (each over a contiguous subset of the qubits).
    pub fragments: Vec<Circuit>,
    /// Number of two-qubit gates that crossed the cut (each becomes a
    /// quasi-probability gate cut).
    pub num_cuts: usize,
    /// Quasi-probability sampling overhead of the cut (grows as ~9 per cut CX).
    pub sampling_overhead: f64,
    /// Number of distinct subcircuit variants that must be executed.
    pub subcircuit_variants: usize,
}

/// Statistics of the classical reconstruction step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconstructionCost {
    /// Number of floating-point combination operations.
    pub flops: f64,
    /// Estimated CPU time in seconds.
    pub cpu_time_s: f64,
    /// Estimated GPU time in seconds (circuit knitting post-processing is a
    /// tensor contraction and accelerates well — §2.2 "GPUs and TPUs can be
    /// used for circuit knitting").
    pub gpu_time_s: f64,
}

/// Cut `circuit` into two fragments at the qubit boundary `boundary` (qubits
/// `< boundary` go to fragment 0, the rest to fragment 1). Gates crossing the
/// boundary are removed from both fragments and counted as cuts.
///
/// # Panics
/// Panics if `boundary` is 0 or ≥ the circuit width.
pub(crate) fn cut_at(circuit: &Circuit, boundary: u32) -> CutResult {
    assert!(
        boundary > 0 && boundary < circuit.num_qubits(),
        "cut boundary must split the register"
    );
    let width0 = boundary;
    let width1 = circuit.num_qubits() - boundary;
    let mut frag0 = Circuit::named(width0, format!("{}_frag0", circuit.name()));
    let mut frag1 = Circuit::named(width1, format!("{}_frag1", circuit.name()));
    frag0.set_shots(circuit.shots());
    frag1.set_shots(circuit.shots());
    let mut num_cuts = 0usize;

    for instr in circuit.instructions() {
        if instr.gate == Gate::Barrier {
            frag0.barrier();
            frag1.barrier();
            continue;
        }
        let side0 = instr.q0 < boundary;
        if instr.q1 == NO_OPERAND {
            let mut ni = *instr;
            if side0 {
                frag0.push(ni);
            } else {
                ni.q0 -= boundary;
                if ni.gate == Gate::Measure {
                    ni.cbit = ni.q0;
                }
                frag1.push(ni);
            }
            continue;
        }
        let side1 = instr.q1 < boundary;
        if side0 == side1 {
            let mut ni = *instr;
            if side0 {
                frag0.push(ni);
            } else {
                ni.q0 -= boundary;
                ni.q1 -= boundary;
                frag1.push(ni);
            }
        } else {
            // Gate crosses the cut: it becomes a quasi-probability decomposition
            // over local operations; for the orchestration model it is removed
            // from the fragments and accounted for in the overheads.
            num_cuts += 1;
        }
    }

    let (sampling_overhead, subcircuit_variants) = overheads(num_cuts);
    CutResult { fragments: vec![frag0, frag1], num_cuts, sampling_overhead, subcircuit_variants }
}

/// The sampling overhead and the number of subcircuit variants of a cut
/// through `num_cuts` gates. Each cut CX has a one-norm of 3, so the sampling
/// overhead of the decomposition is 9 per cut; the number of subcircuit
/// variants grows as 4^cuts but is capped (practical implementations batch
/// the variants).
fn overheads(num_cuts: usize) -> (f64, usize) {
    let effective_cuts = num_cuts.min(8) as u32;
    (9f64.powi(effective_cuts as i32), 2 * 4usize.pow(effective_cuts.min(6)))
}

/// Cut a circuit in half (the Figure 2(a) setting).
pub fn cut_in_half(circuit: &Circuit) -> CutResult {
    cut_at(circuit, circuit.num_qubits() / 2)
}

/// Classical reconstruction cost: combining the fragment quasi-distributions is
/// a tensor contraction over `4^cuts` terms of `2^(w0) × 2^(w1)` partial
/// distributions (capped at the shot count — sparse histograms never exceed it).
pub fn reconstruction_cost(result: &CutResult, shots: u32) -> ReconstructionCost {
    let w0 = result.fragments.first().map(|f| f.num_qubits()).unwrap_or(1);
    let w1 = result.fragments.get(1).map(|f| f.num_qubits()).unwrap_or(1);
    reconstruction(result.num_cuts, w0, w1, shots)
}

/// [`reconstruction_cost`] of `num_cuts` cut gates between fragments of
/// widths `w0` and `w1`.
fn reconstruction(num_cuts: usize, w0: u32, w1: u32, shots: u32) -> ReconstructionCost {
    let hist0 = (2f64.powi(w0 as i32)).min(f64::from(shots));
    let hist1 = (2f64.powi(w1 as i32)).min(f64::from(shots));
    let terms = 4f64.powi(num_cuts.min(8) as i32);
    let flops = terms * (hist0 * hist1);
    // 1 GFLOP/s effective CPU throughput for the combination kernel, 40 GFLOP/s on GPU.
    ReconstructionCost { flops, cpu_time_s: flops / 1e9, gpu_time_s: flops / 4e10 }
}

/// Resource-cost profile of circuit knitting for the resource estimator.
///
/// Quantum time scales with the number of subcircuit variants (each executed
/// with the original shot budget); classical time is the reconstruction cost;
/// the error-reduction factor reflects that each fragment is roughly half as
/// wide and deep as the original circuit.
///
/// Only the number of gates that cross the half-way boundary and the two
/// widths matter, so this counts the crossing gates (as [`cut_in_half`]
/// would) without building the fragments.
pub fn cost(circuit: &Circuit) -> MitigationCost {
    if circuit.num_qubits() < 4 {
        return MitigationCost::identity();
    }
    let boundary = circuit.num_qubits() / 2;
    let num_cuts = circuit
        .instructions()
        .iter()
        .filter(|i| {
            i.gate != Gate::Barrier && i.q1 != NO_OPERAND && (i.q0 < boundary) != (i.q1 < boundary)
        })
        .count();
    let (_, subcircuit_variants) = overheads(num_cuts);
    let recon =
        reconstruction(num_cuts, boundary, circuit.num_qubits() - boundary, circuit.shots());
    MitigationCost {
        circuit_multiplicity: subcircuit_variants,
        quantum_time_factor: (subcircuit_variants as f64).clamp(1.0, 24.0),
        classical_time_cpu_s: recon.cpu_time_s.max(0.05),
        accelerator_speedup: (recon.cpu_time_s / recon.gpu_time_s.max(1e-9)).max(1.0),
        error_reduction_factor: 0.30,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_backend::Fleet;
    use qonductor_circuit::generators::qaoa_maxcut;
    use qonductor_circuit::generators::{ghz, random_circuit, MaxCutGraph};
    use qonductor_circuit::{workload, Algorithm, Instruction};
    use qonductor_transpiler::Transpiler;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// [`cost`] as it was: build both fragments with [`cut_in_half`] and
    /// read the overheads and the reconstruction cost off the cut.
    fn cost_by_fragments(circuit: &Circuit) -> MitigationCost {
        if circuit.num_qubits() < 4 {
            return MitigationCost::identity();
        }
        let cut = cut_in_half(circuit);
        let recon = reconstruction_cost(&cut, circuit.shots());
        MitigationCost {
            circuit_multiplicity: cut.subcircuit_variants,
            quantum_time_factor: (cut.subcircuit_variants as f64).clamp(1.0, 24.0),
            classical_time_cpu_s: recon.cpu_time_s.max(0.05),
            accelerator_speedup: (recon.cpu_time_s / recon.gpu_time_s.max(1e-9)).max(1.0),
            error_reduction_factor: 0.30,
        }
    }

    fn cost_bits(c: &MitigationCost) -> (usize, [u64; 4]) {
        let floats = [
            c.quantum_time_factor,
            c.classical_time_cpu_s,
            c.accelerator_speedup,
            c.error_reduction_factor,
        ];
        (c.circuit_multiplicity, floats.map(f64::to_bits))
    }

    /// Counting the crossing gates gives the fragment oracle's cost bit for
    /// bit: on seeded random circuits of every width 1-27 with barriers and
    /// SWAPs spliced in, and on every algorithm family transpiled for the
    /// default fleet's templates (27-wide, routed, SWAPs lowered).
    #[test]
    fn knitting_cost_equals_the_fragment_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(53);
        let mut circuits = Vec::new();
        for width in 1..=27 {
            let mut c = random_circuit(width, rng.gen_range(1..=8), &mut rng);
            c.set_shots(rng.gen_range(1..9000));
            for _ in 0..rng.gen_range(0..4) {
                let at = rng.gen_range(0..=c.len());
                let q = rng.gen_range(0..width);
                let extra = if width > 1 && rng.gen_bool(0.5) {
                    Instruction::two(Gate::Swap, q, (q + width / 2) % width)
                } else {
                    Instruction::one(Gate::Barrier, 0)
                };
                c.instructions_mut().insert(at, extra);
            }
            circuits.push(c);
        }
        let templates = Fleet::ibm_default(&mut rng).template_qpus();
        let transpiler = Transpiler::default();
        for alg in Algorithm::ALL {
            for width in [2, 4, 7, 12, 16, 21, 27] {
                let circuit = workload::build_algorithm(alg, width, 2, &mut rng);
                for t in templates.iter().filter(|t| t.num_qubits() >= width) {
                    circuits.push(transpiler.transpile_for_template(&circuit, t).circuit);
                }
            }
        }
        let mut cuts = std::collections::HashSet::new();
        for c in &circuits {
            assert_eq!(cost_bits(&cost(c)), cost_bits(&cost_by_fragments(c)), "{}", c.name());
            if c.num_qubits() >= 4 {
                cuts.insert(cut_in_half(c).num_cuts.min(9));
            }
        }
        assert!(cuts.len() >= 8, "the inputs span the cut-count caps: {cuts:?}");
    }

    #[test]
    fn ghz_cut_in_half_has_one_crossing_gate() {
        let c = ghz(8);
        let cut = cut_in_half(&c);
        assert_eq!(cut.fragments.len(), 2);
        assert_eq!(cut.fragments[0].num_qubits(), 4);
        assert_eq!(cut.fragments[1].num_qubits(), 4);
        // The single CX from qubit 3 to qubit 4 crosses the boundary.
        assert_eq!(cut.num_cuts, 1);
        assert_eq!(cut.sampling_overhead, 9.0);
    }

    #[test]
    fn fragments_contain_only_local_qubits() {
        let c = ghz(10);
        let cut = cut_in_half(&c);
        for frag in &cut.fragments {
            for instr in frag.instructions() {
                if instr.gate != Gate::Barrier {
                    assert!(instr.q0 < frag.num_qubits());
                }
            }
        }
    }

    #[test]
    fn gate_counts_are_partitioned() {
        let c = ghz(8);
        let cut = cut_in_half(&c);
        let total_2q: usize = cut.fragments.iter().map(|f| f.two_qubit_gates()).sum();
        assert_eq!(total_2q + cut.num_cuts, c.two_qubit_gates());
    }

    #[test]
    fn dense_graphs_cost_more_cuts() {
        let sparse = ghz(12);
        let graph = MaxCutGraph::ring(12);
        let dense = qaoa_maxcut(&graph, &[0.4], &[0.3]);
        let cut_sparse = cut_in_half(&sparse);
        let cut_dense = cut_in_half(&dense);
        assert!(cut_dense.num_cuts >= cut_sparse.num_cuts);
        assert!(cut_dense.sampling_overhead >= cut_sparse.sampling_overhead);
    }

    #[test]
    fn reconstruction_cost_grows_with_cuts_and_width() {
        let small = cut_in_half(&ghz(8));
        let large = cut_in_half(&ghz(20));
        let rc_small = reconstruction_cost(&small, 4000);
        let rc_large = reconstruction_cost(&large, 4000);
        assert!(rc_large.flops > rc_small.flops);
        assert!(rc_large.gpu_time_s < rc_large.cpu_time_s);
    }

    #[test]
    fn knitting_cost_is_identity_for_tiny_circuits() {
        let c = ghz(2);
        assert_eq!(cost(&c).circuit_multiplicity, 1);
    }

    #[test]
    fn knitting_cost_has_large_quantum_overhead_for_wide_circuits() {
        let c = ghz(24);
        let k = cost(&c);
        assert!(k.quantum_time_factor > 4.0);
        assert!(k.error_reduction_factor < 0.5);
        assert!(k.accelerator_speedup > 1.0);
    }

    #[test]
    #[should_panic]
    fn cut_at_invalid_boundary_panics() {
        cut_at(&ghz(4), 0);
    }
}
