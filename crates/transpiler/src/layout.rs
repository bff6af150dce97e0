//! Initial qubit placement (layout) onto a physical device.
//!
//! Two policies are provided: a trivial identity layout and a noise-aware
//! greedy layout that grows a connected region of the coupling map starting
//! from the best-calibrated edge, preferring low-error neighbours. The latter
//! is the default in the transpilation pipeline, mirroring how production
//! transpilers exploit the calibration heterogeneity described in §3.

use qonductor_backend::{CalibrationData, CouplingMap};

/// A layout: `layout[logical qubit] = physical qubit`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    mapping: Vec<u32>,
}

impl Layout {
    /// Build a layout from an explicit logical→physical mapping.
    pub fn new(mapping: Vec<u32>) -> Self {
        let mut seen = mapping.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), mapping.len(), "layout must be injective");
        Layout { mapping }
    }

    /// The router's running map, injective by construction (it only ever
    /// exchanges two entries), so the check [`Layout::new`] makes is skipped.
    pub(crate) fn from_router(mapping: Vec<u32>) -> Self {
        Layout { mapping }
    }

    /// Identity layout over `n` logical qubits.
    pub(crate) fn trivial(n: u32) -> Self {
        Layout { mapping: (0..n).collect() }
    }

    /// The logical→physical mapping as a slice.
    pub(crate) fn mapping(&self) -> &[u32] {
        &self.mapping
    }

    /// Number of mapped logical qubits.
    pub fn len(&self) -> usize {
        self.mapping.len()
    }

    /// `true` if the layout maps no qubits.
    pub fn is_empty(&self) -> bool {
        self.mapping.is_empty()
    }
}

/// Layout selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutPolicy {
    /// Logical qubit `i` → physical qubit `i`.
    Trivial,
    /// Greedy noise-aware region growing.
    NoiseAware,
}

/// Choose a layout for a circuit of `num_logical` qubits on a device with the
/// given coupling map and calibration.
///
/// # Panics
/// Panics if the device has fewer physical qubits than `num_logical`.
pub fn select_layout(
    num_logical: u32,
    coupling: &CouplingMap,
    calibration: &CalibrationData,
    policy: LayoutPolicy,
) -> Layout {
    assert!(
        coupling.num_qubits() >= num_logical,
        "device has {} qubits but the circuit needs {}",
        coupling.num_qubits(),
        num_logical
    );
    match policy {
        LayoutPolicy::Trivial => Layout::trivial(num_logical),
        LayoutPolicy::NoiseAware => noise_aware_layout(num_logical, coupling, calibration),
    }
}

/// Greedy region growing: start from the lowest-error two-qubit edge and
/// repeatedly add the frontier qubit with the smallest combined (edge error +
/// readout error) until `num_logical` physical qubits are selected.
fn noise_aware_layout(
    num_logical: u32,
    coupling: &CouplingMap,
    calibration: &CalibrationData,
) -> Layout {
    if num_logical == 0 {
        return Layout::new(vec![]);
    }
    if num_logical == 1 {
        // Pick the single best qubit by gate+readout error.
        let best = (0..coupling.num_qubits())
            .min_by(|&a, &b| qubit_cost(calibration, a).total_cmp(&qubit_cost(calibration, b)))
            .unwrap_or(0);
        return Layout::new(vec![best]);
    }

    // Seed with the lowest-error edge.
    let seed = coupling
        .edges()
        .iter()
        .min_by(|a, b| {
            edge_cost(calibration, a.0, a.1).total_cmp(&edge_cost(calibration, b.0, b.1))
        })
        .copied()
        .unwrap_or((0, 1.min(coupling.num_qubits() - 1)));

    let mut selected: Vec<u32> = vec![seed.0, seed.1];
    while (selected.len() as u32) < num_logical {
        // Frontier: neighbours of the selected region not yet selected.
        let mut best: Option<(u32, f64)> = None;
        for &s in &selected {
            for &nb in coupling.neighbors(s) {
                if selected.contains(&nb) {
                    continue;
                }
                let cost = edge_cost(calibration, s, nb) + qubit_cost(calibration, nb);
                if best.map(|(_, c)| cost < c).unwrap_or(true) {
                    best = Some((nb, cost));
                }
            }
        }
        match best {
            Some((nb, _)) => selected.push(nb),
            None => {
                // Disconnected remainder: fall back to any unselected qubit.
                let next = (0..coupling.num_qubits()).find(|q| !selected.contains(q));
                match next {
                    Some(q) => selected.push(q),
                    None => break,
                }
            }
        }
    }
    selected.truncate(num_logical as usize);
    Layout::new(selected)
}

fn qubit_cost(calibration: &CalibrationData, q: u32) -> f64 {
    calibration.qubits.get(q as usize).map(|c| c.gate_error + c.readout_error).unwrap_or(1.0)
}

fn edge_cost(calibration: &CalibrationData, a: u32, b: u32) -> f64 {
    calibration.edge(a, b).map(|e| e.gate_error).unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_backend::CalibrationGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cal(coupling: &CouplingMap, quality: f64, seed: u64) -> CalibrationData {
        let mut rng = StdRng::seed_from_u64(seed);
        CalibrationGenerator::with_quality(quality).generate(
            coupling.num_qubits(),
            coupling.edges(),
            &mut rng,
        )
    }

    #[test]
    fn trivial_layout_is_identity() {
        let l = Layout::trivial(5);
        assert_eq!(l.mapping(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn noise_aware_layout_is_injective_and_sized() {
        let coupling = CouplingMap::heavy_hex_27();
        let calibration = cal(&coupling, 1.0, 5);
        for n in [1u32, 2, 5, 12, 27] {
            let l = select_layout(n, &coupling, &calibration, LayoutPolicy::NoiseAware);
            assert_eq!(l.len(), n as usize);
            let mut sorted = l.mapping().to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), n as usize, "layout must not repeat physical qubits");
            assert!(sorted.iter().all(|&q| q < 27));
        }
    }

    #[test]
    fn noise_aware_layout_forms_connected_region() {
        let coupling = CouplingMap::heavy_hex_27();
        let calibration = cal(&coupling, 1.0, 7);
        let l = select_layout(6, &coupling, &calibration, LayoutPolicy::NoiseAware);
        // Every selected qubit (after the first) must neighbour another selected one.
        for (i, &q) in l.mapping().iter().enumerate() {
            if i == 0 {
                continue;
            }
            let connected = l
                .mapping()
                .iter()
                .enumerate()
                .any(|(j, &other)| j != i && coupling.are_coupled(q, other));
            assert!(connected, "qubit {q} is isolated in the layout");
        }
    }

    #[test]
    #[should_panic]
    fn circuit_larger_than_device_panics() {
        let coupling = CouplingMap::linear(4);
        let calibration = cal(&coupling, 1.0, 1);
        select_layout(5, &coupling, &calibration, LayoutPolicy::NoiseAware);
    }

    #[test]
    #[should_panic]
    fn non_injective_layout_panics() {
        Layout::new(vec![1, 1, 2]);
    }
}
