//! QPU qubit-connectivity topologies (coupling maps).
//!
//! The modelled architectures cover the heterogeneity dimensions of §2.2:
//! linear / ring / grid generic devices and the IBM-style heavy-hex lattices
//! used by the 27-qubit Falcon, 65-qubit Hummingbird, and 127-qubit Eagle models.

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// An undirected qubit coupling map.
///
/// Adjacency lists and all-pairs distances are derived from the edge list on
/// first use and shared by every clone of the map, so neither building a map
/// nor copying a fleet pays for them and a device pays for them once.
#[derive(Debug, Clone)]
pub struct CouplingMap {
    num_qubits: u32,
    /// Canonical (min, max) edge list, sorted and deduplicated.
    edges: Vec<(u32, u32)>,
    derived: Arc<OnceLock<Derived>>,
}

/// What the router and the layout pass read per gate (see [`CouplingMap`]).
#[derive(Debug)]
struct Derived {
    /// Neighbours of each qubit, ascending.
    adjacency: Vec<Vec<u32>>,
    /// BFS hop counts between every pair; `u32::MAX` marks unreachable pairs.
    distances: Vec<Vec<u32>>,
}

impl PartialEq for CouplingMap {
    fn eq(&self, other: &Self) -> bool {
        self.num_qubits == other.num_qubits && self.edges == other.edges
    }
}

impl Eq for CouplingMap {}

impl CouplingMap {
    /// Build a coupling map from an explicit edge list.
    pub fn new(num_qubits: u32, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut canon: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(a, b)| {
                assert!(a < num_qubits && b < num_qubits, "edge ({a},{b}) out of range");
                assert_ne!(a, b, "self-loop edges are not allowed");
                (a.min(b), a.max(b))
            })
            .collect();
        canon.sort_unstable();
        canon.dedup();
        CouplingMap { num_qubits, edges: canon, derived: Arc::default() }
    }

    /// A 1-D chain of `n` qubits.
    pub fn linear(n: u32) -> Self {
        assert!(n >= 1);
        Self::new(n, (0..n.saturating_sub(1)).map(|q| (q, q + 1)))
    }

    /// A ring of `n` qubits.
    pub fn ring(n: u32) -> Self {
        assert!(n >= 3);
        Self::new(n, (0..n).map(|q| (q, (q + 1) % n)))
    }

    /// A `rows × cols` 2-D grid.
    pub fn grid(rows: u32, cols: u32) -> Self {
        assert!(rows >= 1 && cols >= 1);
        let idx = |r: u32, c: u32| r * cols + c;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        Self::new(rows * cols, edges)
    }

    /// All-to-all connectivity over `n` qubits (trapped-ion style devices).
    pub(crate) fn full(n: u32) -> Self {
        assert!(n >= 1);
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b));
            }
        }
        Self::new(n, edges)
    }

    /// The IBM 27-qubit Falcon heavy-hex coupling map (e.g. cairo, hanoi,
    /// kolkata, mumbai, algiers, auckland).
    pub fn heavy_hex_27() -> Self {
        // Edge list of the IBM Falcon r5.11 27-qubit heavy-hex lattice.
        let edges = [
            (0, 1),
            (1, 2),
            (1, 4),
            (2, 3),
            (3, 5),
            (4, 7),
            (5, 8),
            (6, 7),
            (7, 10),
            (8, 9),
            (8, 11),
            (10, 12),
            (11, 14),
            (12, 13),
            (12, 15),
            (13, 14),
            (14, 16),
            (15, 18),
            (16, 19),
            (17, 18),
            (18, 21),
            (19, 20),
            (19, 22),
            (21, 23),
            (22, 25),
            (23, 24),
            (24, 25),
            (25, 26),
        ];
        Self::new(27, edges)
    }

    /// A 16-qubit heavy-hex-like map (Guadalupe-style device).
    pub(crate) fn heavy_hex_16() -> Self {
        let edges = [
            (0, 1),
            (1, 2),
            (1, 4),
            (2, 3),
            (3, 5),
            (4, 7),
            (5, 8),
            (6, 7),
            (7, 10),
            (8, 9),
            (8, 11),
            (10, 12),
            (11, 14),
            (12, 13),
            (12, 15),
            (13, 14),
        ];
        Self::new(16, edges)
    }

    /// A 7-qubit heavy-hex-like map (Falcon r5.11H: lagos / nairobi style).
    pub(crate) fn heavy_hex_7() -> Self {
        let edges = [(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)];
        Self::new(7, edges)
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// The canonical edge list.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// `true` if `a` and `b` are directly coupled.
    pub fn are_coupled(&self, a: u32, b: u32) -> bool {
        let key = (a.min(b), a.max(b));
        self.edges.binary_search(&key).is_ok()
    }

    fn derived(&self) -> &Derived {
        self.derived.get_or_init(|| {
            let n = self.num_qubits as usize;
            let mut adjacency = vec![Vec::new(); n];
            for &(a, b) in &self.edges {
                adjacency[a as usize].push(b);
                adjacency[b as usize].push(a);
            }
            // The edge list is sorted by (min, max): a qubit's smaller
            // neighbours arrive in order, then its larger ones.
            debug_assert!(adjacency.iter().all(|nbs| nbs.windows(2).all(|w| w[0] < w[1])));
            let mut distances = vec![vec![u32::MAX; n]; n];
            let mut queue = VecDeque::new();
            for (start, row) in distances.iter_mut().enumerate() {
                row[start] = 0;
                queue.push_back(start);
                while let Some(u) = queue.pop_front() {
                    let du = row[u];
                    for &v in &adjacency[u] {
                        let v = v as usize;
                        if row[v] == u32::MAX {
                            row[v] = du + 1;
                            queue.push_back(v);
                        }
                    }
                }
            }
            Derived { adjacency, distances }
        })
    }

    /// Direct neighbours of qubit `q`, ascending.
    pub fn neighbors(&self, q: u32) -> &[u32] {
        &self.derived().adjacency[q as usize]
    }

    /// Degree of qubit `q`.
    pub fn degree(&self, q: u32) -> usize {
        self.neighbors(q).len()
    }

    /// All-pairs shortest-path (hop count) distance matrix. `u32::MAX` marks
    /// unreachable pairs.
    pub fn distance_matrix(&self) -> &[Vec<u32>] {
        &self.derived().distances
    }

    /// Shortest-path distance between two qubits (`None` if disconnected).
    pub fn distance(&self, a: u32, b: u32) -> Option<u32> {
        let d = self.distance_matrix()[a as usize][b as usize];
        (d != u32::MAX).then_some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `true` if every qubit can reach every other qubit.
    fn is_connected(map: &CouplingMap) -> bool {
        map.num_qubits() <= 1 || map.distance_matrix()[0].iter().all(|&d| d != u32::MAX)
    }

    /// The per-call edge scan `neighbors` used to be.
    fn neighbors_oracle(map: &CouplingMap, q: u32) -> Vec<u32> {
        let mut out = Vec::new();
        for &(a, b) in map.edges() {
            if a == q {
                out.push(b);
            } else if b == q {
                out.push(a);
            }
        }
        out
    }

    /// The per-call BFS `distance_matrix` used to be.
    fn distance_matrix_oracle(map: &CouplingMap) -> Vec<Vec<u32>> {
        let n = map.num_qubits() as usize;
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in map.edges() {
            adj[a as usize].push(b as usize);
            adj[b as usize].push(a as usize);
        }
        let mut dist = vec![vec![u32::MAX; n]; n];
        for (start, row) in dist.iter_mut().enumerate() {
            row[start] = 0;
            let mut queue = VecDeque::new();
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                let du = row[u];
                for &v in &adj[u] {
                    if row[v] == u32::MAX {
                        row[v] = du + 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        dist
    }

    /// The derived tables equal the oracles on every map shape, a clone
    /// shares them, and neighbour order stays ascending (the router's
    /// first-minimum tie-break depends on it).
    #[test]
    fn derived_topology_matches_the_per_call_oracles() {
        let maps = [
            CouplingMap::linear(1),
            CouplingMap::linear(9),
            CouplingMap::ring(7),
            CouplingMap::grid(3, 5),
            CouplingMap::full(6),
            CouplingMap::heavy_hex_7(),
            CouplingMap::heavy_hex_16(),
            CouplingMap::heavy_hex_27(),
            CouplingMap::new(6, vec![(4, 0), (0, 1), (2, 3), (3, 5), (5, 2)]),
        ];
        for map in &maps {
            let clone = map.clone();
            let expected = distance_matrix_oracle(map);
            assert_eq!(map.distance_matrix(), expected.as_slice());
            assert!(std::ptr::eq(map.distance_matrix(), clone.distance_matrix()));
            for q in 0..map.num_qubits() {
                let nbs = neighbors_oracle(map, q);
                assert!(nbs.windows(2).all(|w| w[0] < w[1]));
                assert_eq!(map.neighbors(q), nbs.as_slice());
                assert_eq!(map.degree(q), nbs.len());
                for r in 0..map.num_qubits() {
                    let d = expected[q as usize][r as usize];
                    assert_eq!(map.distance(q, r), (d != u32::MAX).then_some(d));
                }
            }
            assert_eq!(is_connected(map), expected[0].iter().all(|&d| d != u32::MAX));
        }
        assert!(!is_connected(&maps[8]));
        assert_eq!(maps[8].distance_matrix()[0][2], u32::MAX);
    }

    #[test]
    fn linear_map_structure() {
        let m = CouplingMap::linear(5);
        assert_eq!(m.num_qubits(), 5);
        assert_eq!(m.edges().len(), 4);
        assert!(m.are_coupled(2, 3));
        assert!(m.are_coupled(3, 2));
        assert!(!m.are_coupled(0, 4));
        assert_eq!(m.distance(0, 4), Some(4));
    }

    #[test]
    fn ring_wraps_around() {
        let m = CouplingMap::ring(6);
        assert!(m.are_coupled(5, 0));
        assert_eq!(m.distance(0, 3), Some(3));
        assert_eq!(m.distance(0, 5), Some(1));
    }

    #[test]
    fn grid_adjacency() {
        let m = CouplingMap::grid(3, 4);
        assert_eq!(m.num_qubits(), 12);
        assert!(m.are_coupled(0, 1));
        assert!(m.are_coupled(0, 4));
        assert!(!m.are_coupled(0, 5));
        assert_eq!(m.distance(0, 11), Some(5));
    }

    #[test]
    fn full_connectivity() {
        let m = CouplingMap::full(5);
        assert_eq!(m.edges().len(), 10);
        for a in 0..5 {
            for b in 0..5 {
                if a != b {
                    assert_eq!(m.distance(a, b), Some(1));
                }
            }
        }
    }

    #[test]
    fn heavy_hex_27_is_connected_and_sparse() {
        let m = CouplingMap::heavy_hex_27();
        assert_eq!(m.num_qubits(), 27);
        assert_eq!(m.edges().len(), 28);
        assert!(is_connected(&m));
        // Heavy-hex degree is at most 3.
        for q in 0..27 {
            assert!(m.degree(q) <= 3, "qubit {q} has degree {}", m.degree(q));
        }
    }

    #[test]
    fn heavy_hex_variants_connected() {
        assert!(is_connected(&CouplingMap::heavy_hex_16()));
        assert!(is_connected(&CouplingMap::heavy_hex_7()));
    }

    #[test]
    fn duplicate_and_reversed_edges_are_canonicalised() {
        let m = CouplingMap::new(3, vec![(0, 1), (1, 0), (1, 2), (1, 2)]);
        assert_eq!(m.edges().len(), 2);
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        CouplingMap::new(2, vec![(0, 5)]);
    }

    #[test]
    #[should_panic]
    fn self_loop_panics() {
        CouplingMap::new(3, vec![(1, 1)]);
    }

    #[test]
    fn disconnected_map_detected() {
        let m = CouplingMap::new(4, vec![(0, 1), (2, 3)]);
        assert!(!is_connected(&m));
        assert_eq!(m.distance(0, 3), None);
    }
}
