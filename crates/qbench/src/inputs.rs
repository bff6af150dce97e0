//! Seeded input generation. The program under test receives only what is
//! generated here; the same `--seed` gives the same inputs.
//!
//! Inputs are *stratified*: which (algorithm family, width, shot count)
//! cells a round holds is fixed, and so is the QPU fleet with its
//! calibration data (a fixture of the system under test, like the hardware
//! it stands for); the seed fills in the rest — angles, random gates, random
//! graphs, per-QPU fidelities, arrival streams, noise trajectories. Host
//! cost per round then depends on the seed only weakly, which is what lets
//! two runs of one commit agree within the bounds. Drawing widths and shot
//! counts at random moved `invoke-unique` wave cost by ±15 % and its mean
//! simulated completion time by ±10 %; a seed-drawn calibration moved the
//! noise-aware layouts, and with them the width of the simulated registers,
//! enough to change `dataplane-mitigated` throughput fourfold.

use qonductor_backend::Fleet;
use qonductor_circuit::generators::{qaoa_maxcut, vqe_ansatz, MaxCutGraph};
use qonductor_circuit::workload::build_algorithm;
use qonductor_circuit::{Algorithm, Circuit, Gate, Instruction};
use qonductor_core::digest::Fnv64;
use qonductor_core::JobSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// Independent random streams derived from the run seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Circuits.
    Circuits = 2,
    /// Synthetic job specs of the control-plane workload.
    Specs = 3,
    /// Simulator noise trajectories and twirls.
    Execution = 4,
    /// Fleet queue jitter while draining.
    Drain = 5,
}

/// SplitMix64 finalizer: decorrelates (seed, stream, round) triples.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of a derived stream for one round.
pub fn derive_seed(seed: u64, stream: Stream, round: usize) -> u64 {
    mix(mix(seed) ^ mix((stream as u64) << 32 | round as u64))
}

/// The generator of a derived stream for one round.
pub fn rng_for(seed: u64, stream: Stream, round: usize) -> StdRng {
    StdRng::seed_from_u64(derive_seed(seed, stream, round))
}

/// The default 8-QPU fleet with one fixed set of calibration data (see the
/// module docs for why the fleet is not drawn from the run seed).
pub fn fleet() -> Fleet {
    Fleet::ibm_default(&mut StdRng::seed_from_u64(0x51BE_7C4A))
}

/// A ring with a chord across every second vertex: a fixed max-cut instance
/// of about 1.25 n edges, so a QAOA circuit's size depends on its width only.
pub fn chorded_ring(n: u32) -> MaxCutGraph {
    let mut graph = MaxCutGraph::ring(n);
    if n >= 6 {
        graph.edges.extend((0..n / 2).step_by(2).map(|u| (u, u + n / 2)));
        graph.edges.sort_unstable();
        graph.edges.dedup();
    }
    graph
}

/// Make a circuit of a parameter-free family (GHZ, QFT, Grover, W state)
/// distinct from every other instance without changing what it computes: an
/// `RZ(θ_q)` with a seeded angle on every qubit just before the measurements
/// leaves the measured distribution untouched.
pub fn phase_tag<R: Rng + ?Sized>(circuit: &mut Circuit, rng: &mut R) {
    let n = circuit.num_qubits();
    let instructions = circuit.instructions_mut();
    let at =
        instructions.iter().position(|i| i.gate == Gate::Measure).unwrap_or(instructions.len());
    let tags = (0..n).map(|q| Instruction::one(Gate::RZ(rng.gen_range(-PI..PI)), q));
    drop(instructions.splice(at..at, tags));
}

/// One wave of `invoke-unique`: every (family, width) cell once — seven
/// families × widths `2..=max_width` — each circuit distinct from every
/// other in the run (seeded parameters, or a [`phase_tag`] for the
/// parameter-free families), with 1,000 to 8,000 shots fixed per cell.
pub fn unique_wave(seed: u64, round: usize, max_width: u32) -> Vec<Circuit> {
    let mut rng = rng_for(seed, Stream::Circuits, round);
    let mut wave = Vec::new();
    for width in 2..=max_width {
        for (index, family) in Algorithm::ALL.into_iter().enumerate() {
            let mut circuit = build_algorithm(family, width, 1 + width % 3, &mut rng);
            if matches!(
                family,
                Algorithm::Ghz | Algorithm::Qft | Algorithm::Grover | Algorithm::WState
            ) {
                phase_tag(&mut circuit, &mut rng);
            }
            circuit.set_shots(1000 * (1 + (width + index as u32) % 8));
            wave.push(circuit);
        }
    }
    wave
}

/// One iterative hybrid application: the circuit of each of its quantum
/// iterations, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct IterativeApp {
    /// `qaoa-<width>-<rebind|fixed>` / `vqe-…`.
    pub name: String,
    /// One circuit per classical→quantum iteration.
    pub iterations: Vec<Circuit>,
}

/// The applications of `invoke-iterative`: for each width, a QAOA (on the
/// width's [`chorded_ring`]) and a VQE app that re-bind their angles every
/// iteration (same structure, new parameters) and a QAOA and a VQE app that
/// resubmit the identical circuit.
pub fn iterative_apps(seed: u64, widths: &[u32], iterations: usize) -> Vec<IterativeApp> {
    let mut rng = rng_for(seed, Stream::Circuits, 0);
    let mut apps = Vec::new();
    for &width in widths {
        for rebind in [true, false] {
            let label = if rebind { "rebind" } else { "fixed" };
            let graph = chorded_ring(width);
            let vqe_seed: u64 = rng.gen_range(0..u64::MAX);
            let mut qaoa = Vec::with_capacity(iterations);
            let mut vqe = Vec::with_capacity(iterations);
            for iteration in 0..iterations {
                if rebind || iteration == 0 {
                    let gammas = [rng.gen_range(0.0..PI), rng.gen_range(0.0..PI)];
                    let betas = [rng.gen_range(0.0..PI), rng.gen_range(0.0..PI)];
                    qaoa.push(qaoa_maxcut(&graph, &gammas, &betas));
                    let mut angles = StdRng::seed_from_u64(mix(vqe_seed ^ iteration as u64));
                    vqe.push(vqe_ansatz(width, 2, &mut angles));
                } else {
                    qaoa.push(qaoa[0].clone());
                    vqe.push(vqe[0].clone());
                }
            }
            for (family, mut circuits) in [("qaoa", qaoa), ("vqe", vqe)] {
                for circuit in &mut circuits {
                    circuit.set_shots(2000);
                }
                apps.push(IterativeApp {
                    name: format!("{family}-{width}-{label}"),
                    iterations: circuits,
                });
            }
        }
    }
    apps
}

/// Synthetic job specs for `controlplane-drain`: 2–16 qubits and, on every
/// QPU wide enough, a fidelity drawn in 0.6–0.95 and an execution estimate
/// drawn in 3–7 s (so the MCDM choice matters).
pub fn drain_specs(seed: u64, round: usize, fleet: &Fleet, count: usize) -> Vec<JobSpec> {
    let mut rng = rng_for(seed, Stream::Specs, round);
    let widths: Vec<u32> = fleet.members().iter().map(|m| m.qpu.num_qubits()).collect();
    (0..count)
        .map(|j| {
            let qubits = (j % 15 + 2) as u32;
            let mut draw = |low: f64, high: f64, unfit: f64| -> Vec<f64> {
                widths
                    .iter()
                    .map(|&w| if w >= qubits { rng.gen_range(low..high) } else { unfit })
                    .collect()
            };
            JobSpec {
                qubits,
                shots: 1000,
                fidelity_per_qpu: draw(0.6, 0.95, 0.0),
                exec_time_per_qpu: draw(3.0, 7.0, f64::INFINITY),
                estimate_epoch: fleet.calibration_epoch(),
            }
        })
        .collect()
}

/// One job of `dataplane-mitigated`.
#[derive(Debug, Clone, PartialEq)]
pub struct DataplaneJob {
    /// The logical circuit.
    pub circuit: Circuit,
    /// Narrow jobs (≤ 10 qubits) take the simulator's trajectory path and
    /// are checked against the logical circuit's ideal distribution; wide
    /// jobs (≥ 15 qubits) take the analytic path.
    pub narrow: bool,
}

/// Narrow cells of a dataplane round: trajectory cost grows as gates × 2ⁿ,
/// so each family stops at the width where one job stays near 0.1 s. Only
/// families whose *structure* is fixed by the width are used (the random
/// circuit family is not): routing, and with it the number of simulated
/// qubits, must not depend on the seed.
const NARROW_CELLS: &[(Algorithm, u32)] = &[
    (Algorithm::Ghz, 6),
    (Algorithm::Ghz, 10),
    (Algorithm::Qaoa, 6),
    (Algorithm::Qaoa, 8),
    (Algorithm::Vqe, 6),
    (Algorithm::Vqe, 8),
    (Algorithm::Qft, 4),
    (Algorithm::Qft, 6),
    (Algorithm::WState, 7),
    (Algorithm::WState, 9),
    (Algorithm::Grover, 3),
    (Algorithm::Grover, 4),
];

/// Wide cells: at least 15 qubits so that no transpiled circuit fits the
/// 14-qubit statevector limit. Grover is left out (its 10⁴-gate circuits
/// would spend the whole round in `insert_dd`); QFT carries that finding.
const WIDE_CELLS: &[(Algorithm, u32)] = &[
    (Algorithm::Ghz, 16),
    (Algorithm::Ghz, 27),
    (Algorithm::Qaoa, 18),
    (Algorithm::Qaoa, 27),
    (Algorithm::Vqe, 18),
    (Algorithm::Vqe, 27),
    (Algorithm::Qft, 15),
    (Algorithm::Qft, 18),
    (Algorithm::WState, 18),
    (Algorithm::WState, 27),
];

/// The jobs of one dataplane round, narrow and wide interleaved. `quick`
/// keeps only the three cheapest cells of each half.
pub fn dataplane_round(seed: u64, round: usize, quick: bool) -> Vec<DataplaneJob> {
    let mut rng = rng_for(seed, Stream::Circuits, round);
    let take = if quick { 3 } else { usize::MAX };
    let narrow: Vec<_> =
        NARROW_CELLS.iter().filter(|c| !quick || c.1 <= 6).take(take).map(|c| (c, true)).collect();
    let wide: Vec<_> =
        WIDE_CELLS.iter().filter(|c| !quick || c.1 <= 18).take(take).map(|c| (c, false)).collect();
    let mut jobs = Vec::new();
    for i in 0..narrow.len().max(wide.len()) {
        for (cell, is_narrow) in [narrow.get(i), wide.get(i)].into_iter().flatten() {
            let (family, width) = **cell;
            let mut circuit = match family {
                Algorithm::Qaoa => {
                    let gammas = [rng.gen_range(0.0..PI), rng.gen_range(0.0..PI)];
                    let betas = [rng.gen_range(0.0..PI), rng.gen_range(0.0..PI)];
                    qaoa_maxcut(&chorded_ring(width), &gammas, &betas)
                }
                _ => build_algorithm(family, width, 2, &mut rng),
            };
            // A little seeded jitter keeps simulated times from reading the
            // same on every seed without moving host cost.
            circuit.set_shots(1024 + 512 * (i as u32 % 5) + rng.gen_range(0..256));
            jobs.push(DataplaneJob { circuit, narrow: *is_narrow });
        }
    }
    jobs
}

/// FNV-1a 64 (the control plane's own hasher) over a circuit's width and instruction list (shots and name
/// excluded): equal fingerprints mean the transpiler is asked to do the same
/// work again.
pub fn fingerprint(circuit: &Circuit) -> u64 {
    let mut hash = Fnv64::new();
    hash.absorb(&circuit.num_qubits().to_le_bytes());
    for instruction in circuit.instructions() {
        // `Gate` carries its parameters; its Debug form spells them exactly.
        hash.absorb(format!("{instruction:?}").as_bytes());
    }
    hash.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_backend::{hellinger_fidelity, Simulator};
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        assert_eq!(unique_wave(7, 3, 6), unique_wave(7, 3, 6));
        assert_ne!(unique_wave(7, 3, 6), unique_wave(8, 3, 6));
        assert_ne!(unique_wave(7, 3, 6), unique_wave(7, 4, 6));
        assert_eq!(iterative_apps(7, &[6, 7], 3), iterative_apps(7, &[6, 7], 3));
        assert_ne!(iterative_apps(7, &[6, 7], 3), iterative_apps(9, &[6, 7], 3));
        assert_eq!(dataplane_round(7, 0, true), dataplane_round(7, 0, true));
        assert_ne!(dataplane_round(7, 0, true), dataplane_round(7, 1, true));
        let f = fleet();
        assert_eq!(drain_specs(7, 0, &f, 40), drain_specs(7, 0, &f, 40));
        assert_ne!(drain_specs(7, 0, &f, 40), drain_specs(7, 1, &f, 40));
        assert_ne!(derive_seed(1, Stream::Specs, 0), derive_seed(1, Stream::Circuits, 0));
    }

    #[test]
    fn unique_wave_is_a_full_grid_of_distinct_circuits() {
        let waves: Vec<Circuit> = (0..3).flat_map(|r| unique_wave(11, r, 9)).collect();
        assert_eq!(waves.len(), 3 * 8 * 7);
        let prints: BTreeSet<u64> = waves.iter().map(fingerprint).collect();
        assert_eq!(prints.len(), waves.len(), "every circuit is distinct");
        assert!(waves.iter().all(|c| (2..=9).contains(&c.num_qubits()) && c.shots() >= 1000));
    }

    #[test]
    fn phase_tag_keeps_the_measured_distribution() {
        let sim = Simulator::default();
        for family in [Algorithm::Ghz, Algorithm::Qft, Algorithm::Grover, Algorithm::WState] {
            let mut rng = StdRng::seed_from_u64(5);
            let plain = build_algorithm(family, 4, 1, &mut rng);
            let mut tagged = plain.clone();
            phase_tag(&mut tagged, &mut rng);
            assert_eq!(tagged.len(), plain.len() + 4);
            assert_ne!(fingerprint(&tagged), fingerprint(&plain));
            let fidelity = hellinger_fidelity(
                &sim.ideal_distribution(&plain),
                &sim.ideal_distribution(&tagged),
            );
            assert!(fidelity > 1.0 - 1e-9, "{family:?}: {fidelity}");
        }
    }

    #[test]
    fn iterative_apps_rebind_or_repeat() {
        let apps = iterative_apps(3, &[6, 9], 4);
        assert_eq!(apps.len(), 8);
        for app in &apps {
            assert_eq!(app.iterations.len(), 4);
            let prints: BTreeSet<u64> = app.iterations.iter().map(fingerprint).collect();
            let structure: BTreeSet<usize> = app.iterations.iter().map(Circuit::len).collect();
            assert_eq!(structure.len(), 1, "{}: one structure", app.name);
            let expected = if app.name.ends_with("rebind") { 4 } else { 1 };
            assert_eq!(prints.len(), expected, "{}", app.name);
        }
    }

    #[test]
    fn dataplane_halves_stay_on_their_simulator_path() {
        let jobs = dataplane_round(1, 0, false);
        assert_eq!(jobs.len(), NARROW_CELLS.len() + WIDE_CELLS.len());
        assert!(jobs.iter().all(|j| if j.narrow {
            j.circuit.num_qubits() <= 10
        } else {
            j.circuit.num_qubits() >= 15
        }));
        assert_eq!(dataplane_round(1, 0, true).len(), 6);
    }
}
