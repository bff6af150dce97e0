//! QAOA max-cut circuit generator — the workload highlighted by the paper's
//! Listing 2 and the 20-qubit resource-plan experiment (Figure 7a).

use crate::circuit::Circuit;
use rand::Rng;

/// An undirected graph instance for the max-cut problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxCutGraph {
    /// Number of vertices (= number of qubits).
    pub num_vertices: u32,
    /// Undirected edges as vertex pairs `(u, v)` with `u < v`.
    pub edges: Vec<(u32, u32)>,
}

impl MaxCutGraph {
    /// Build a ring graph with `n` vertices (each vertex connected to its successor).
    pub fn ring(n: u32) -> Self {
        assert!(n >= 2);
        let edges = (0..n).map(|u| (u, (u + 1) % n)).map(|(u, v)| (u.min(v), u.max(v))).collect();
        MaxCutGraph { num_vertices: n, edges }
    }

    /// Build an Erdős–Rényi-style random graph where every vertex pair is an
    /// edge with probability `p`. Isolated vertices are connected to a random
    /// neighbour so the problem never degenerates.
    pub fn random<R: Rng + ?Sized>(n: u32, p: f64, rng: &mut R) -> Self {
        assert!(n >= 2);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(p.clamp(0.0, 1.0)) {
                    edges.push((u, v));
                }
            }
        }
        // Connect isolated vertices.
        let mut degree = vec![0u32; n as usize];
        for &(u, v) in &edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        for u in 0..n {
            if degree[u as usize] == 0 {
                let mut v = rng.gen_range(0..n);
                if v == u {
                    v = (v + 1) % n;
                }
                edges.push((u.min(v), u.max(v)));
                degree[u as usize] += 1;
                degree[v as usize] += 1;
            }
        }
        edges.sort_unstable();
        edges.dedup();
        MaxCutGraph { num_vertices: n, edges }
    }
}

/// Build a `p`-layer QAOA max-cut circuit over `graph` with the given variational
/// parameters. `gammas` and `betas` must each have length `p`.
///
/// Each layer applies `RZZ(2γ)` per graph edge (the cost unitary) followed by
/// `RX(2β)` per qubit (the mixer unitary). All qubits are measured at the end.
pub fn qaoa_maxcut(graph: &MaxCutGraph, gammas: &[f64], betas: &[f64]) -> Circuit {
    assert_eq!(gammas.len(), betas.len(), "QAOA needs one (γ, β) pair per layer");
    assert!(!gammas.is_empty(), "QAOA needs at least one layer");
    let n = graph.num_vertices;
    let mut c = Circuit::named(n, "qaoa");
    for q in 0..n {
        c.h(q);
    }
    for (layer, (&gamma, &beta)) in gammas.iter().zip(betas.iter()).enumerate() {
        if layer > 0 {
            c.barrier();
        }
        for &(u, v) in &graph.edges {
            c.rzz(2.0 * gamma, u, v);
        }
        for q in 0..n {
            c.rx(2.0 * beta, q);
        }
    }
    c.measure_all();
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ring_graph_has_n_edges() {
        let g = MaxCutGraph::ring(6);
        assert_eq!(g.edges.len(), 6);
        assert!(g.edges.iter().all(|&(u, v)| u < v));
    }

    #[test]
    fn random_graph_has_no_isolated_vertices() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = MaxCutGraph::random(12, 0.1, &mut rng);
        let mut deg = [0u32; 12];
        for &(u, v) in &g.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        assert!(deg.iter().all(|&d| d > 0));
    }

    #[test]
    fn qaoa_layer_structure() {
        let g = MaxCutGraph::ring(5);
        let c = qaoa_maxcut(&g, &[0.4, 0.7], &[0.1, 0.2]);
        // Two layers × 5 edges of RZZ each.
        assert_eq!(c.two_qubit_gates(), 10);
        // H prep (5) + RX mixer (5 per layer × 2).
        assert_eq!(c.gate_counts().0, 15);
        assert_eq!(c.num_measurements(), 5);
    }

    #[test]
    #[should_panic]
    fn mismatched_parameters_panic() {
        let g = MaxCutGraph::ring(4);
        qaoa_maxcut(&g, &[0.1], &[0.1, 0.2]);
    }
}
