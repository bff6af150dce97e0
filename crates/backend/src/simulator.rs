//! Noisy circuit execution on modelled QPUs.
//!
//! Two fidelity paths are provided, mirroring how the paper's evaluation
//! operates at two scales:
//!
//! * **Statevector + Monte-Carlo Pauli trajectories** — exact ideal
//!   distribution plus stochastic error injection, used for narrow circuits
//!   (the GHZ-12 spatial-variance experiment of Fig. 2b, unit tests, and the
//!   resource-estimator training set). Fidelity is the Hellinger fidelity
//!   between the ideal and the noisy distribution, exactly as in the paper.
//! * **Analytic ESP** — the estimated-success-probability model derived from
//!   calibration data, used for circuits too wide to simulate (up to the
//!   130-qubit benchmarks) and for the high-throughput cloud simulation.
//!
//! A trajectory run has three phases, and its counts are the same bits on
//! any number of cores:
//!
//! 1. **Draw** (serial). Every random number of the run comes from the
//!    caller's `rng` in one fixed order: trajectory by trajectory, its Pauli
//!    errors gate by gate, its decoherence errors qubit by qubit, then per
//!    shot a uniform and a readout-flip mask. No draw depends on the quantum
//!    state, so all of them can be taken before any state exists.
//! 2. **Evolve** (parallel). The trajectories, ordered by their first error,
//!    are claimed by the members of a [`par::map_indexed_with`] team. Each
//!    member keeps a noiseless *walker* state that only moves forward, since
//!    its claims arrive in increasing first-error order. A trajectory copies
//!    the walker at its first error and applies only its own suffix, with
//!    its Paulis inserted; each shot then picks a basis state by binary
//!    search over the running probability sum.
//! 3. **Merge** (serial). Counts are added in trajectory order, then shot
//!    order.
//!
//! Phase 2 applies one-qubit ops lazily. Each qubit has a pending operator,
//! the product of the one-qubit gates and Pauli errors on it since it was
//! last flushed (none is the identity): a one-qubit op multiplies its 2×2,
//! computed once per compile, into it instead of making a pass over the
//! amplitudes. A two-qubit op flushes its two qubits, then runs its kernel;
//! after the last op every qubit is flushed. A flush applies the product
//! as one diagonal pass when both off-diagonals are exactly zero, one dense
//! pass otherwise. The walker keeps pending operators too, and a trajectory
//! copies them with the amplitudes, so an error inside a one-qubit run is
//! no special case. A Pauli folds exactly: its product with a pending
//! operator is a row swap, a negation or a multiplication by ±i, so the
//! folded Pauli is `==` to its kernel applied after the flush. Fusing the
//! gates themselves changes rounding only, about 1e-16 relative per
//! amplitude, and a sampled shot moves only if its uniform lands within
//! that distance of a running sum. None did on any tested circuit or
//! benchmark seed: the counts are the bits a dense 2×2 multiply per gate
//! gives.
//!
//! The ideal distribution, the reference every fidelity is measured
//! against, stays op by op: one kernel op per instruction, lowered once per
//! compile with its matrix or phases computed then. Fused, it would move
//! fidelities in their last ulp. [`Statevector`] says why that distribution
//! is the bits a dense 2×2 multiply per gate gives.

use crate::hellinger::{hellinger_fidelity, Distribution};
use crate::math::C64;
use crate::noise::NoiseModel;
use qonductor_circuit::{par, Circuit, Gate, Instruction, NO_OPERAND};
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Result of executing a circuit on a modelled QPU.
#[derive(Debug, Clone)]
pub struct ExecutionResult {
    /// Sampled measurement counts (empty when the analytic path was used).
    pub counts: Distribution,
    /// Execution fidelity in [0, 1].
    pub fidelity: f64,
    /// Quantum execution time for all shots, in nanoseconds.
    pub duration_ns: f64,
    /// Number of shots executed.
    pub shots: u32,
}

/// Configurable noisy-execution engine.
#[derive(Debug, Clone, Copy)]
pub struct Simulator {
    /// Maximum circuit width (active qubits) for the statevector path; wider
    /// circuits take the analytic ESP path.
    pub max_statevector_qubits: u32,
    /// Number of Monte-Carlo noise trajectories sampled on the statevector path.
    pub trajectories: usize,
    /// Per-shot repetition/reset overhead in nanoseconds (added to each shot).
    pub shot_overhead_ns: f64,
}

impl Default for Simulator {
    fn default() -> Self {
        Simulator { max_statevector_qubits: 14, trajectories: 128, shot_overhead_ns: 1_000.0 }
    }
}

impl Simulator {
    /// Exact measurement-outcome distribution of the noiseless circuit.
    ///
    /// The circuit is first compacted onto its active qubits; it must use at
    /// most [`Self::max_statevector_qubits`] of them.
    pub fn ideal_distribution(&self, circuit: &Circuit) -> Distribution {
        self.compile(circuit).ideal_distribution()
    }

    /// [`Compiled::noisy_counts`] of `circuit` on the host's cores.
    #[cfg(test)]
    fn noisy_counts<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        noise: &NoiseModel,
        shots: u32,
        rng: &mut R,
    ) -> Distribution {
        let compiled = self.compile(circuit);
        let duration_ns = noise.circuit_duration_ns(circuit);
        compiled.noisy_counts(noise, duration_ns, shots, self.trajectories, par::host_cores(), rng)
    }

    /// Execute a circuit on a device described by `noise`, returning counts (if
    /// the trajectory path ran), fidelity, and the quantum execution time.
    /// Circuits at most [`Self::max_statevector_qubits`] wide take the
    /// trajectory path; wider ones the analytic ESP path.
    pub fn execute<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        noise: &NoiseModel,
        rng: &mut R,
    ) -> ExecutionResult {
        let width = circuit.active_qubits().len() as u32;
        let circuit_ns = noise.circuit_duration_ns(circuit);
        let per_shot = circuit_ns + self.shot_overhead_ns;
        let duration_ns = per_shot * f64::from(circuit.shots());
        if width <= self.max_statevector_qubits {
            let compiled = self.compile(circuit);
            let ideal = compiled.ideal_distribution();
            let noisy = compiled.noisy_counts(
                noise,
                circuit_ns,
                circuit.shots(),
                self.trajectories,
                par::host_cores(),
                rng,
            );
            let fidelity = hellinger_fidelity(&ideal, &noisy);
            ExecutionResult { counts: noisy, fidelity, duration_ns, shots: circuit.shots() }
        } else {
            // Analytic path: ESP with small multiplicative sampling jitter so that
            // repeated executions are not bit-identical (mirrors shot noise).
            let esp = noise.estimated_success_probability(circuit);
            let jitter = 1.0 + rng.gen_range(-0.02..0.02);
            ExecutionResult {
                counts: Distribution::new(),
                fidelity: (esp * jitter).clamp(0.0, 1.0),
                duration_ns,
                shots: circuit.shots(),
            }
        }
    }

    /// `circuit` prepared for the statevector path; it must use at most
    /// [`Self::max_statevector_qubits`] qubits.
    fn compile(&self, circuit: &Circuit) -> Compiled {
        let (compact, qubit_map) = compact_circuit(circuit);
        assert!(
            compact.num_qubits() <= self.max_statevector_qubits,
            "circuit too wide for the statevector simulator ({} > {})",
            compact.num_qubits(),
            self.max_statevector_qubits
        );
        let ops: Vec<Op> = compact.instructions().iter().map(Op::lower).collect();
        let steps = ops.iter().map(Step::of).collect();
        Compiled { measurements: measurement_map(&compact), compact, ops, steps, qubit_map }
    }
}

/// A circuit compacted onto its active qubits and lowered to kernel ops.
struct Compiled {
    compact: Circuit,
    /// `ops[k]` is the lowered `compact.instructions()[k]`.
    ops: Vec<Op>,
    /// `steps[k]` is `ops[k]` as trajectory evolution takes it.
    steps: Vec<Step>,
    /// Compacted qubit → physical qubit, for calibration lookups.
    qubit_map: Vec<u32>,
    /// `(qubit, clbit)` pairs of the classical register.
    measurements: Vec<(u32, u32)>,
}

/// A Pauli error on `qubit` once the first `after` instructions of the
/// compacted circuit have been applied.
struct PauliError {
    after: usize,
    qubit: u32,
    /// Index into [`PAULIS`].
    pauli: u8,
}

/// The error a Pauli draw of 0, 1 or 2 stands for.
const PAULIS: [Gate; 3] = [Gate::X, Gate::Y, Gate::Z];

/// Everything phase 1 draws, in buffers sized on the calling thread.
struct Draws {
    /// Trajectory `t`'s errors are `errors[starts[t]..starts[t + 1]]`, in the
    /// order they act.
    errors: Vec<PauliError>,
    starts: Vec<usize>,
    /// Per shot, trajectory-major: the uniform that picks the basis state.
    uniforms: Vec<f64>,
    /// Per shot: the readout-flip mask, into which phase 2 XORs the sampled
    /// register value, so that it holds the outcome.
    outcomes: Vec<AtomicU64>,
}

/// A phase-2 team member's two states, each with its pending operators.
struct Member {
    /// The noiseless state after the first `walked` instructions, with the
    /// one-qubit ops since each qubit's last two-qubit op still pending.
    walker: LazyState,
    walked: usize,
    /// The trajectory being evolved: a copy of the walker, pending
    /// operators included, at its first error, flushed after its last op.
    state: LazyState,
}

impl Compiled {
    fn ideal_distribution(&self) -> Distribution {
        let mut state = Statevector::new(self.compact.num_qubits());
        for op in &self.ops {
            state.apply_op(op);
        }
        state.measurement_distribution(&self.measurements)
    }

    /// Sample noisy measurement counts with Monte-Carlo Pauli-error
    /// trajectories; `duration_ns` is the uncompacted circuit's duration and
    /// `workers` bounds the phase-2 team.
    ///
    /// `min(trajectories, shots)` trajectories (at least one) sample
    /// `⌊shots / trajectories⌋` shots each (at least one), so the counts add
    /// up to `shots` only when the division is exact: 3,327 requested shots
    /// over 128 trajectories are 3,200 samples.
    fn noisy_counts<R: Rng + ?Sized>(
        &self,
        noise: &NoiseModel,
        duration_ns: f64,
        shots: u32,
        trajectories: usize,
        workers: usize,
        rng: &mut R,
    ) -> Distribution {
        let trajectories = trajectories.min(shots as usize).max(1);
        let shots_per_traj = (shots as usize / trajectories).max(1);
        let draws = self.draw(noise, duration_ns, trajectories, shots_per_traj, rng);
        self.evolve(&draws, shots_per_traj, workers);
        let mut counts = Distribution::new();
        for outcome in draws.outcomes {
            *counts.entry(outcome.into_inner()).or_insert(0.0) += 1.0;
        }
        counts
    }

    /// Phase 1: walk `rng` exactly as one trajectory after another would.
    fn draw<R: Rng + ?Sized>(
        &self,
        noise: &NoiseModel,
        duration_ns: f64,
        trajectories: usize,
        shots_per_traj: usize,
        rng: &mut R,
    ) -> Draws {
        // Calibration lookups use the *physical* qubit indices.
        let physical = |q: u32| self.qubit_map[q as usize];
        let instructions = self.compact.instructions();
        let unitary = || instructions.iter().enumerate().filter(|(_, i)| i.gate.is_unitary());
        let error_rates: Vec<f64> = unitary()
            .map(|(_, i)| {
                let q1 = if i.q1 == NO_OPERAND { NO_OPERAND } else { physical(i.q1) };
                noise.instruction_error(i.gate, physical(i.q0), q1)
            })
            .collect();
        // Decoherence over the circuit duration: per-qubit dephasing/damping
        // modelled as an extra stochastic Pauli error.
        let decay: Vec<f64> = (0..self.compact.num_qubits())
            .map(|q| {
                let survive = noise.decoherence_factor(physical(q), duration_ns * 0.5);
                (1.0 - survive).clamp(0.0, 1.0)
            })
            .collect();
        let readout: Vec<f64> = self
            .measurements
            .iter()
            .map(|&(q, _)| noise.readout_error(physical(q)).clamp(0.0, 1.0))
            .collect();

        let end = instructions.len();
        let shots = trajectories * shots_per_traj;
        let mut draws = Draws {
            errors: Vec::new(),
            starts: Vec::with_capacity(trajectories + 1),
            uniforms: Vec::with_capacity(shots),
            outcomes: Vec::with_capacity(shots),
        };
        for _ in 0..trajectories {
            draws.starts.push(draws.errors.len());
            for ((k, instr), &p_err) in unitary().zip(&error_rates) {
                if p_err > 0.0 && rng.gen_bool(p_err.min(1.0)) {
                    let pauli = rng.gen_range(0..3);
                    draws.errors.push(PauliError { after: k + 1, qubit: instr.q0, pauli });
                    if instr.q1 != NO_OPERAND && rng.gen_bool(0.5) {
                        let pauli = rng.gen_range(0..3);
                        draws.errors.push(PauliError { after: k + 1, qubit: instr.q1, pauli });
                    }
                }
            }
            for (qubit, &p) in (0..).zip(&decay) {
                if rng.gen_bool(p) {
                    let pauli = rng.gen_range(0..3);
                    draws.errors.push(PauliError { after: end, qubit, pauli });
                }
            }
            for _ in 0..shots_per_traj {
                draws.uniforms.push(rng.gen_range(0.0..1.0));
                let mut flips = 0u64;
                for (bit_idx, &p) in readout.iter().enumerate() {
                    if rng.gen_bool(p) {
                        flips ^= 1 << bit_idx;
                    }
                }
                draws.outcomes.push(AtomicU64::new(flips));
            }
        }
        draws.starts.push(draws.errors.len());
        draws
    }

    /// Phase 2: evolve every trajectory and sample its shots into
    /// `draws.outcomes`.
    fn evolve(&self, draws: &Draws, shots_per_traj: usize, workers: usize) {
        let steps = &self.steps;
        let end = steps.len();
        let trajectories = draws.starts.len() - 1;
        let errors = |t: usize| &draws.errors[draws.starts[t]..draws.starts[t + 1]];
        let first_error = |t: usize| errors(t).first().map_or(end, |e| e.after);
        let mut order: Vec<usize> = (0..trajectories).collect();
        order.sort_by_key(|&t| first_error(t));
        let n = self.compact.num_qubits();
        let member = || Member { walker: LazyState::new(n), walked: 0, state: LazyState::new(n) };
        par::map_indexed_with(workers, trajectories, member, |member, claim| {
            let t = order[claim];
            let first = first_error(t);
            for step in &steps[member.walked..first] {
                member.walker.step(step);
            }
            member.walked = first;
            let state = &mut member.state;
            state.copy_from(&member.walker);
            self.finish(state, first, errors(t));
            let shots = t * shots_per_traj..(t + 1) * shots_per_traj;
            state.vector.sample_into(
                &self.measurements,
                &draws.uniforms[shots.clone()],
                &draws.outcomes[shots],
            );
        });
    }

    /// Takes `state`, which stands after the first `from` instructions,
    /// through the rest with `errors` inserted (in order, each once the
    /// first `after >= from` instructions have been applied), then flushes
    /// every qubit.
    fn finish(&self, state: &mut LazyState, from: usize, errors: &[PauliError]) {
        let mut k = from;
        for e in errors {
            for step in &self.steps[k..e.after] {
                state.step(step);
            }
            k = e.after;
            state.fold(e.qubit, &one_qubit_matrix(PAULIS[usize::from(e.pauli)]));
        }
        for step in &self.steps[k..] {
            state.step(step);
        }
        for q in 0..state.vector.num_qubits {
            state.flush(q);
        }
    }
}

/// Compact a circuit onto its active qubits. Returns the compacted circuit and
/// the map `logical (compacted) index → original physical index`; classical
/// bits keep their indices.
pub(crate) fn compact_circuit(circuit: &Circuit) -> (Circuit, Vec<u32>) {
    let active = circuit.active_qubits();
    if active.is_empty() {
        return (Circuit::new(1), vec![0]);
    }
    let mut phys_to_logical = vec![u32::MAX; circuit.num_qubits() as usize];
    for (logical, &phys) in active.iter().enumerate() {
        phys_to_logical[phys as usize] = logical as u32;
    }
    let mut compact = Circuit::named(active.len() as u32, circuit.name().to_string());
    compact.set_shots(circuit.shots());
    compact.instructions_mut().reserve_exact(circuit.len());
    for instr in circuit.instructions() {
        if instr.gate == Gate::Barrier {
            compact.barrier();
            continue;
        }
        let mut ni = *instr;
        ni.q0 = phys_to_logical[instr.q0 as usize];
        if instr.q1 != NO_OPERAND {
            ni.q1 = phys_to_logical[instr.q1 as usize];
        }
        compact.push(ni);
    }
    (compact, active)
}

/// The `(qubit, clbit)` measurement pairs of a circuit in register order:
/// register bit `b` reads the pair with the `b`-th smallest `(clbit, qubit)`,
/// the order `ReadoutMitigator::from_noise` assigns readout errors in. If the
/// circuit has no measurements, all qubits are measured in index order.
fn measurement_map(circuit: &Circuit) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = circuit
        .instructions()
        .iter()
        .filter(|i| i.gate == Gate::Measure)
        .map(|i| (i.q0, i.cbit))
        .collect();
    pairs.sort_unstable_by_key(|&(q, c)| (c, q));
    if pairs.is_empty() {
        pairs = (0..circuit.num_qubits()).map(|q| (q, q)).collect();
    }
    pairs
}

/// The classical register read out of basis state `index`.
fn register_value(index: usize, measurements: &[(u32, u32)]) -> u64 {
    let mut key = 0u64;
    for (bit_idx, &(q, _c)) in measurements.iter().enumerate() {
        if index & (1usize << q) != 0 {
            key |= 1 << bit_idx;
        }
    }
    key
}

/// An instruction lowered to the kernel that applies it, with its matrix or
/// phases computed once.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Identity, and what the statevector does not see: measurements,
    /// barriers, delays.
    Skip,
    /// X: the |0⟩ and |1⟩ halves swapped.
    X(u32),
    /// Y: the halves swapped, then the exact −i on |0⟩ and i on |1⟩.
    Y(u32),
    /// diag(1, phase): Z, S, S†, T, T†.
    Phase(u32, C64),
    /// diag(d₀, d₁): RZ.
    Diagonal(u32, [C64; 2]),
    /// Any other one-qubit gate.
    Dense(u32, [[C64; 2]; 2]),
    /// CX (control, target).
    Cx(u32, u32),
    Cz(u32, u32),
    Swap(u32, u32),
    /// RZZ: the phase of even and of odd parity of the two qubits.
    Rzz(u32, u32, [C64; 2]),
}

impl Op {
    fn lower(instr: &Instruction) -> Op {
        let (a, b) = (instr.q0, instr.q1);
        match instr.gate {
            g if !g.is_unitary() => Op::Skip,
            Gate::Id => Op::Skip,
            Gate::X => Op::X(a),
            Gate::Y => Op::Y(a),
            g @ (Gate::Z | Gate::S | Gate::Sdg | Gate::T | Gate::Tdg) => {
                Op::Phase(a, one_qubit_matrix(g)[1][1])
            }
            g @ Gate::RZ(_) => {
                let m = one_qubit_matrix(g);
                Op::Diagonal(a, [m[0][0], m[1][1]])
            }
            // ECR lowers to CX, its local equivalent with the dressing
            // rotations dropped, as the transpiler's basis translation
            // rewrites it.
            Gate::CX | Gate::ECR => Op::Cx(a, b),
            Gate::CZ => Op::Cz(a, b),
            Gate::Swap => Op::Swap(a, b),
            Gate::RZZ(theta) => {
                Op::Rzz(a, b, [C64::from_polar(-theta / 2.0), C64::from_polar(theta / 2.0)])
            }
            g => Op::Dense(a, one_qubit_matrix(g)),
        }
    }
}

/// An op as trajectory evolution takes it.
enum Step {
    /// [`Op::Skip`].
    Skip,
    /// A one-qubit op's qubit and 2×2 matrix, which multiplies into the
    /// qubit's pending operator.
    Fold(u32, [[C64; 2]; 2]),
    /// A two-qubit op, which runs once both its qubits are flushed.
    Apply(u32, u32, Op),
}

impl Step {
    fn of(op: &Op) -> Step {
        let (z, o) = (C64::ZERO, C64::ONE);
        match *op {
            Op::Skip => Step::Skip,
            Op::X(q) => Step::Fold(q, one_qubit_matrix(Gate::X)),
            Op::Y(q) => Step::Fold(q, one_qubit_matrix(Gate::Y)),
            Op::Phase(q, phase) => Step::Fold(q, [[o, z], [z, phase]]),
            Op::Diagonal(q, [d0, d1]) => Step::Fold(q, [[d0, z], [z, d1]]),
            Op::Dense(q, m) => Step::Fold(q, m),
            Op::Cx(a, b) | Op::Cz(a, b) | Op::Swap(a, b) | Op::Rzz(a, b, _) => {
                Step::Apply(a, b, *op)
            }
        }
    }
}

/// A statevector with, per qubit, a pending operator: the product of the
/// one-qubit ops folded in since the qubit's last flush, not yet applied
/// to the amplitudes (`None` is the identity).
struct LazyState {
    vector: Statevector,
    pending: Vec<Option<[[C64; 2]; 2]>>,
}

impl LazyState {
    fn new(n: u32) -> Self {
        LazyState { vector: Statevector::new(n), pending: vec![None; n as usize] }
    }

    fn copy_from(&mut self, other: &LazyState) {
        self.vector.amps.copy_from_slice(&other.vector.amps);
        self.pending.copy_from_slice(&other.pending);
    }

    fn step(&mut self, step: &Step) {
        match *step {
            Step::Skip => {}
            Step::Fold(q, ref m) => self.fold(q, m),
            Step::Apply(a, b, ref op) => {
                self.flush(a);
                self.flush(b);
                self.vector.apply_op(op);
            }
        }
    }

    /// Multiplies `m` into qubit `q`'s pending operator, as the op that
    /// acts after it.
    fn fold(&mut self, q: u32, m: &[[C64; 2]; 2]) {
        let pending = &mut self.pending[q as usize];
        *pending = Some(match pending {
            Some(p) => [0, 1].map(|i| [0, 1].map(|j| m[i][0] * p[0][j] + m[i][1] * p[1][j])),
            None => *m,
        });
    }

    /// Applies qubit `q`'s pending operator in one pass and clears it.
    fn flush(&mut self, q: u32) {
        if let Some(m) = self.pending[q as usize].take() {
            let diagonal = m[0][1] == C64::ZERO && m[1][0] == C64::ZERO;
            let op = if diagonal { Op::Diagonal(q, [m[0][0], m[1][1]]) } else { Op::Dense(q, m) };
            self.vector.apply_op(&op);
        }
    }
}

/// Dense statevector over `n ≤ 30` qubits.
///
/// Each kernel writes the value the dense 2×2 multiply (or the all-index
/// two-qubit loop) would write. RZ, the phase gates and Y form the dense
/// products minus its exact `0·b` terms; Y's ±i and the swaps and negations
/// of X, CX, CZ and SWAP move numbers without rounding. Leaving out a `± 0`
/// term can change only the sign of a zero, which no probability, running
/// sum or sampled shot can see.
#[derive(Debug, Clone)]
pub struct Statevector {
    num_qubits: u32,
    amps: Vec<C64>,
}

impl Statevector {
    /// The |0…0⟩ state over `n` qubits.
    pub fn new(n: u32) -> Self {
        assert!((1..=30).contains(&n), "statevector supports 1..=30 qubits");
        let mut amps = vec![C64::ZERO; 1usize << n];
        amps[0] = C64::ONE;
        Statevector { num_qubits: n, amps }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// The amplitude `(re, im)` of basis state `index` (qubit `q` is bit `q`).
    pub fn amplitude(&self, index: usize) -> (f64, f64) {
        let amp = self.amps[index];
        (amp.re, amp.im)
    }

    /// Apply a unitary instruction (measurements, barriers and delays are
    /// skipped).
    pub fn apply(&mut self, instr: &Instruction) {
        self.apply_op(&Op::lower(instr));
    }

    fn apply_op(&mut self, op: &Op) {
        match *op {
            Op::Skip => {}
            Op::X(q) => self.for_each_pair(q, std::mem::swap),
            Op::Y(q) => {
                // Y = [[0, −i], [i, 0]]: the swap, then −i on |0⟩ and i on |1⟩.
                self.for_each_pair(q, |zero, one| {
                    (*zero, *one) = (C64::new(one.im, -one.re), C64::new(-zero.im, zero.re));
                });
            }
            Op::Phase(q, phase) => self.for_each_pair(q, |_, one| *one = phase * *one),
            Op::Diagonal(q, [d0, d1]) => {
                self.for_each_pair(q, |zero, one| (*zero, *one) = (d0 * *zero, d1 * *one));
            }
            Op::Dense(q, m) => self.for_each_pair(q, |zero, one| {
                let (a, b) = (*zero, *one);
                *zero = m[0][0] * a + m[0][1] * b;
                *one = m[1][0] * a + m[1][1] * b;
            }),
            Op::Cx(control, target) => self.cx(control, target),
            Op::Cz(a, b) => {
                let (lo, hi) = (1usize << a.min(b), 1usize << a.max(b));
                for block in self.amps.chunks_exact_mut(2 * hi) {
                    for run in block[hi..].chunks_exact_mut(2 * lo) {
                        for amp in &mut run[lo..] {
                            *amp = -*amp;
                        }
                    }
                }
            }
            Op::Swap(a, b) => {
                let (lo, hi) = (1usize << a.min(b), 1usize << a.max(b));
                for block in self.amps.chunks_exact_mut(2 * hi) {
                    let (zeros, ones) = block.split_at_mut(hi);
                    for (zeros, ones) in
                        zeros.chunks_exact_mut(2 * lo).zip(ones.chunks_exact_mut(2 * lo))
                    {
                        swap_runs(&mut zeros[lo..], &mut ones[..lo]);
                    }
                }
            }
            Op::Rzz(a, b, phases) => {
                for (i, amp) in self.amps.iter_mut().enumerate() {
                    *amp = *amp * phases[(i >> a ^ i >> b) & 1];
                }
            }
        }
    }

    /// Calls `f` on every pair of amplitudes that differ only in bit `q`,
    /// the one with the bit clear first.
    fn for_each_pair(&mut self, q: u32, mut f: impl FnMut(&mut C64, &mut C64)) {
        let stride = 1usize << q;
        for block in self.amps.chunks_exact_mut(2 * stride) {
            let (zeros, ones) = block.split_at_mut(stride);
            for (zero, one) in zeros.iter_mut().zip(ones) {
                f(zero, one);
            }
        }
    }

    /// Swaps the target's halves within the control's |1⟩ runs, a
    /// contiguous run of `2^min(control, target)` amplitudes at a time.
    fn cx(&mut self, control: u32, target: u32) {
        let (c, t) = (1usize << control, 1usize << target);
        if target > control {
            for block in self.amps.chunks_exact_mut(2 * t) {
                let (zeros, ones) = block.split_at_mut(t);
                for (zeros, ones) in zeros.chunks_exact_mut(2 * c).zip(ones.chunks_exact_mut(2 * c))
                {
                    swap_runs(&mut zeros[c..], &mut ones[c..]);
                }
            }
        } else {
            for block in self.amps.chunks_exact_mut(2 * c) {
                for pair in block[c..].chunks_exact_mut(2 * t) {
                    let (zeros, ones) = pair.split_at_mut(t);
                    swap_runs(zeros, ones);
                }
            }
        }
    }

    /// Distribution over the classical register defined by `measurements`
    /// (`(qubit, clbit)` pairs), marginalising over unmeasured qubits.
    pub(crate) fn measurement_distribution(&self, measurements: &[(u32, u32)]) -> Distribution {
        let mut dist = Distribution::new();
        for (idx, amp) in self.amps.iter().enumerate() {
            let p = amp.norm_sqr();
            if p < 1e-15 {
                continue;
            }
            *dist.entry(register_value(idx, measurements)).or_insert(0.0) += p;
        }
        dist
    }

    /// For each shot, pick the first basis state whose running probability
    /// sum reaches the shot's uniform (the last state if none does) and XOR
    /// its register value into the shot's outcome slot. Overwrites the real
    /// parts with the running sums.
    fn sample_into(
        &mut self,
        measurements: &[(u32, u32)],
        uniforms: &[f64],
        outcomes: &[AtomicU64],
    ) {
        let mut acc = 0.0;
        for amp in &mut self.amps {
            acc += amp.norm_sqr();
            amp.re = acc;
        }
        let last = self.amps.len() - 1;
        for (&r, outcome) in uniforms.iter().zip(outcomes) {
            // The sums never decrease and a NaN, once there, stays to the end
            // and compares false both ways, so the search stops where a
            // linear scan for `sum >= r` would.
            let i = self.amps.partition_point(|amp| amp.re < r);
            let chosen = if self.amps.get(i).is_some_and(|amp| amp.re >= r) { i } else { last };
            // Relaxed: each slot belongs to one trajectory, and the caller
            // reads it only after the team has joined.
            outcome.fetch_xor(register_value(chosen, measurements), Ordering::Relaxed);
        }
    }
}

/// Swaps two equally long runs of amplitudes element by element: most runs
/// are a few amplitudes long, too short for `swap_with_slice` to pay off
/// (measured slower on CX).
fn swap_runs(a: &mut [C64], b: &mut [C64]) {
    a.iter_mut().zip(b).for_each(|(a, b)| std::mem::swap(a, b));
}

/// 2×2 matrix of a single-qubit gate.
fn one_qubit_matrix(gate: Gate) -> [[C64; 2]; 2] {
    use std::f64::consts::FRAC_1_SQRT_2 as S;
    let z = C64::ZERO;
    let o = C64::ONE;
    match gate {
        Gate::Id | Gate::Delay(_) | Gate::Barrier => [[o, z], [z, o]],
        Gate::H => [[C64::real(S), C64::real(S)], [C64::real(S), C64::real(-S)]],
        Gate::X => [[z, o], [o, z]],
        Gate::Y => [[z, C64::new(0.0, -1.0)], [C64::I, z]],
        Gate::Z => [[o, z], [z, C64::real(-1.0)]],
        Gate::S => [[o, z], [z, C64::I]],
        Gate::Sdg => [[o, z], [z, C64::new(0.0, -1.0)]],
        Gate::T => [[o, z], [z, C64::from_polar(std::f64::consts::FRAC_PI_4)]],
        Gate::Tdg => [[o, z], [z, C64::from_polar(-std::f64::consts::FRAC_PI_4)]],
        Gate::SX => {
            [[C64::new(0.5, 0.5), C64::new(0.5, -0.5)], [C64::new(0.5, -0.5), C64::new(0.5, 0.5)]]
        }
        Gate::RX(t) => {
            let c = C64::real((t / 2.0).cos());
            let s = C64::new(0.0, -(t / 2.0).sin());
            [[c, s], [s, c]]
        }
        Gate::RY(t) => {
            let c = C64::real((t / 2.0).cos());
            let s = C64::real((t / 2.0).sin());
            [[c, -s], [s, c]]
        }
        Gate::RZ(t) => [[C64::from_polar(-t / 2.0), z], [z, C64::from_polar(t / 2.0)]],
        Gate::U(theta, phi, lambda) => {
            let c = (theta / 2.0).cos();
            let s = (theta / 2.0).sin();
            [
                [C64::real(c), C64::from_polar(lambda).scale(-s)],
                [C64::from_polar(phi).scale(s), C64::from_polar(phi + lambda).scale(c)],
            ]
        }
        g => panic!("{:?} is not a single-qubit unitary", g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::CalibrationGenerator;
    use crate::fleet::Fleet;
    use qonductor_circuit::generators::{ghz, qft};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    /// Every index below `len` whose bits `a` and `b` are both clear, in
    /// increasing order (`a != b`, `len` a power of two above both bits).
    fn both_clear(len: usize, a: u32, b: u32) -> impl Iterator<Item = usize> {
        let (lo, hi) = (a.min(b), a.max(b));
        let insert_zero = |k: usize, bit: u32| (k >> bit << (bit + 1)) | (k & ((1 << bit) - 1));
        (0..len >> 2).map(move |k| insert_zero(insert_zero(k, lo), hi))
    }

    /// The kernels the lowered ops replaced: every one-qubit gate a dense
    /// 2×2 multiply, the two-qubit gates one index at a time.
    impl Statevector {
        fn apply_dense(&mut self, instr: &Instruction) {
            match instr.gate {
                g if !g.is_unitary() => {}
                Gate::CX | Gate::ECR => self.apply_cx(instr.q0, instr.q1),
                Gate::CZ => self.apply_cz(instr.q0, instr.q1),
                Gate::Swap => self.apply_swap(instr.q0, instr.q1),
                Gate::RZZ(theta) => self.apply_rzz(theta, instr.q0, instr.q1),
                g => self.apply_one_qubit(&one_qubit_matrix(g), instr.q0),
            }
        }

        fn apply_one_qubit(&mut self, m: &[[C64; 2]; 2], q: u32) {
            let stride = 1usize << q;
            for block in self.amps.chunks_exact_mut(2 * stride) {
                let (zeros, ones) = block.split_at_mut(stride);
                for (zero, one) in zeros.iter_mut().zip(ones) {
                    let (a, b) = (*zero, *one);
                    *zero = m[0][0] * a + m[0][1] * b;
                    *one = m[1][0] * a + m[1][1] * b;
                }
            }
        }

        fn apply_cx(&mut self, control: u32, target: u32) {
            let cmask = 1usize << control;
            let tmask = 1usize << target;
            for i in both_clear(self.amps.len(), control, target) {
                self.amps.swap(i | cmask, i | cmask | tmask);
            }
        }

        fn apply_cz(&mut self, a: u32, b: u32) {
            let both = (1usize << a) | (1usize << b);
            for i in both_clear(self.amps.len(), a, b) {
                self.amps[i | both] = -self.amps[i | both];
            }
        }

        fn apply_swap(&mut self, a: u32, b: u32) {
            let amask = 1usize << a;
            let bmask = 1usize << b;
            for i in both_clear(self.amps.len(), a, b) {
                self.amps.swap(i | amask, i | bmask);
            }
        }

        fn apply_rzz(&mut self, theta: f64, a: u32, b: u32) {
            let amask = 1usize << a;
            let bmask = 1usize << b;
            let plus = C64::from_polar(-theta / 2.0);
            let minus = C64::from_polar(theta / 2.0);
            for i in 0..self.amps.len() {
                let parity = ((i & amask != 0) as u8) ^ ((i & bmask != 0) as u8);
                let phase = if parity == 0 { plus } else { minus };
                self.amps[i] = self.amps[i] * phase;
            }
        }
    }

    fn noise(n: u32, quality: f64) -> NoiseModel {
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|q| (q, q + 1)).collect();
        let mut rng = StdRng::seed_from_u64(123);
        NoiseModel::new(CalibrationGenerator::with_quality(quality).generate(n, &edges, &mut rng))
    }

    #[test]
    fn bell_state_ideal_distribution() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let sim = Simulator::default();
        let dist = sim.ideal_distribution(&c);
        assert_eq!(dist.len(), 2);
        assert!((dist[&0b00] - 0.5).abs() < 1e-10);
        assert!((dist[&0b11] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn ghz_ideal_distribution_has_two_peaks() {
        let sim = Simulator::default();
        let dist = sim.ideal_distribution(&ghz(8));
        assert_eq!(dist.len(), 2);
        assert!((dist[&0] - 0.5).abs() < 1e-10);
        assert!((dist[&0b1111_1111] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn x_gate_flips_deterministically() {
        let mut c = Circuit::new(3);
        c.x(0).x(2).measure_all();
        let sim = Simulator::default();
        let dist = sim.ideal_distribution(&c);
        assert_eq!(dist.len(), 1);
        assert!((dist[&0b101] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn rzz_is_diagonal_and_preserves_probabilities() {
        let mut c = Circuit::new(2);
        c.x(0).rzz(0.7, 0, 1).measure_all();
        let sim = Simulator::default();
        let dist = sim.ideal_distribution(&c);
        assert_eq!(dist.len(), 1);
        assert!((dist[&0b01] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn qft_distribution_is_normalised() {
        let sim = Simulator::default();
        let dist = sim.ideal_distribution(&qft(4));
        let total: f64 = dist.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_execution_fidelity_below_one_and_quality_ordered() {
        let sim = Simulator { trajectories: 64, ..Simulator::default() };
        let c = ghz(8);
        let mut rng = StdRng::seed_from_u64(7);
        let good = sim.execute(&c, &noise(8, 0.5), &mut rng);
        let bad = sim.execute(&c, &noise(8, 5.0), &mut rng);
        assert!(good.fidelity <= 1.0 && good.fidelity > 0.0);
        assert!(good.fidelity > bad.fidelity, "good={} bad={}", good.fidelity, bad.fidelity);
    }

    #[test]
    fn analytic_mode_handles_wide_circuits() {
        let sim = Simulator::default();
        let c = ghz(60);
        let mut rng = StdRng::seed_from_u64(9);
        let n = noise(60, 1.0);
        let res = sim.execute(&c, &n, &mut rng);
        assert!(res.fidelity >= 0.0 && res.fidelity <= 1.0);
        assert!(res.counts.is_empty());
        assert!(res.duration_ns > 0.0);
    }

    #[test]
    fn execution_duration_scales_with_shots() {
        let sim = Simulator { max_statevector_qubits: 0, ..Simulator::default() };
        let mut rng = StdRng::seed_from_u64(3);
        let n = noise(8, 1.0);
        let mut c1 = ghz(8);
        c1.set_shots(1000);
        let mut c2 = ghz(8);
        c2.set_shots(4000);
        let r1 = sim.execute(&c1, &n, &mut rng);
        let r2 = sim.execute(&c2, &n, &mut rng);
        assert!((r2.duration_ns / r1.duration_ns - 4.0).abs() < 0.01);
    }

    #[test]
    fn compact_circuit_maps_back_to_physical_qubits() {
        let mut c = Circuit::new(27);
        c.h(20).cx(20, 25).measure(20, 20);
        c.measure(25, 25);
        let (compact, map) = compact_circuit(&c);
        assert_eq!(compact.num_qubits(), 2);
        assert_eq!(map, vec![20, 25]);
        let sim = Simulator::default();
        let dist = sim.ideal_distribution(&c);
        assert_eq!(dist.len(), 2); // bell pair on the two active qubits
    }

    #[test]
    fn trajectory_counts_sum_to_requested_shots() {
        let sim = Simulator { trajectories: 16, ..Simulator::default() };
        let mut rng = StdRng::seed_from_u64(21);
        let n = noise(4, 1.0);
        let mut c = ghz(4);
        c.set_shots(160);
        let counts = sim.noisy_counts(&c, &n, c.shots(), &mut rng);
        let total: f64 = counts.values().sum();
        assert!((total - 160.0).abs() < 1e-9);
    }

    /// Pins the shots a remainder loses (see `noisy_counts`): 3,327 requested
    /// over 128 trajectories are 128 × 25 = 3,200 samples. Sampling the
    /// remainder moves every trajectory result, so it waits for a re-baseline.
    #[test]
    fn a_remainder_of_shots_over_trajectories_is_not_sampled() {
        let sim = Simulator::default();
        let mut rng = StdRng::seed_from_u64(21);
        let counts = sim.noisy_counts(&ghz(4), &noise(4, 1.0), 3_327, &mut rng);
        assert_eq!(counts.values().sum::<f64>(), 3_200.0);
    }

    fn bits(amps: &[C64]) -> Vec<(u64, u64)> {
        amps.iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect()
    }

    /// The pair-wise one-qubit kernel and the two-qubit kernels that visit
    /// only the indices they change — the `both_clear` oracles and the
    /// lowered CX/CZ/SWAP — move every amplitude exactly as the
    /// all-index loops they replaced.
    #[test]
    fn kernels_equal_the_all_index_loops() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = one_qubit_matrix(Gate::U(0.3, -1.1, 2.0));
        for n in 1..=5u32 {
            let amps: Vec<C64> = (0..1usize << n)
                .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let state = || Statevector { num_qubits: n, amps: amps.clone() };
            for a in 0..n {
                let am = 1usize << a;
                let mut one = amps.clone();
                for i in (0..one.len()).filter(|i| i & am == 0) {
                    let (x, y) = (one[i], one[i | am]);
                    one[i] = m[0][0] * x + m[0][1] * y;
                    one[i | am] = m[1][0] * x + m[1][1] * y;
                }
                let mut applied = state();
                applied.apply_one_qubit(&m, a);
                assert_eq!(bits(&applied.amps), bits(&one), "one-qubit on {a}");
                for b in (0..n).filter(|&b| b != a) {
                    let bm = 1usize << b;
                    let (mut cx, mut cz, mut swap) = (amps.clone(), amps.clone(), amps.clone());
                    for i in (0..amps.len()).filter(|i| i & am != 0 && i & bm == 0) {
                        cx.swap(i, i | bm);
                        swap.swap(i, (i & !am) | bm);
                    }
                    for (i, amp) in cz.iter_mut().enumerate() {
                        if i & am != 0 && i & bm != 0 {
                            *amp = -*amp;
                        }
                    }
                    for (gate, expected) in [(Gate::CX, cx), (Gate::CZ, cz), (Gate::Swap, swap)] {
                        let instr = Instruction::two(gate, a, b);
                        for apply in [Statevector::apply_dense, Statevector::apply] {
                            let mut applied = state();
                            apply(&mut applied, &instr);
                            let at = format!("{gate:?} on ({a}, {b})");
                            assert_eq!(bits(&applied.amps), bits(&expected), "{at}");
                        }
                    }
                }
            }
        }
    }

    /// `g · g.inverse()` is the identity up to a global phase for every gate
    /// kind, checked column by column on the statevector: on 1 qubit, and on
    /// 2 in both operand orders for two-qubit gates.
    #[test]
    fn every_gate_times_its_inverse_is_the_identity_up_to_global_phase() {
        let t = 0.83;
        let gates = [
            Gate::Id,
            Gate::H,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::SX,
            Gate::RX(t),
            Gate::RY(t),
            Gate::RZ(t),
            Gate::U(t, -1.9, 0.4),
            Gate::CX,
            Gate::CZ,
            Gate::ECR,
            Gate::Swap,
            Gate::RZZ(t),
            Gate::Measure,
            Gate::Barrier,
            Gate::Delay(35.0),
        ];
        for gate in gates {
            // Exhaustive, so that a new variant does not compile until it is
            // given its operands here; it is checked only once it is also
            // listed above.
            let operands: &[(u32, u32)] = match gate {
                Gate::Id
                | Gate::H
                | Gate::X
                | Gate::Y
                | Gate::Z
                | Gate::S
                | Gate::Sdg
                | Gate::T
                | Gate::Tdg
                | Gate::SX
                | Gate::RX(_)
                | Gate::RY(_)
                | Gate::RZ(_)
                | Gate::U(..) => &[(0, NO_OPERAND)],
                Gate::CX | Gate::CZ | Gate::ECR | Gate::Swap | Gate::RZZ(_) => &[(0, 1), (1, 0)],
                // Not unitary: the statevector skips them.
                Gate::Measure | Gate::Barrier | Gate::Delay(_) => continue,
            };
            for &(q0, q1) in operands {
                let width = if q1 == NO_OPERAND { 1 } else { 2 };
                let instr = |gate| Instruction { gate, q0, q1, cbit: NO_OPERAND };
                let mut phase = None;
                for column in 0..1usize << width {
                    let mut state = Statevector::new(width);
                    for q in (0..width).filter(|q| column >> q & 1 == 1) {
                        state.apply(&Instruction::one(Gate::X, q));
                    }
                    state.apply(&instr(gate));
                    state.apply(&instr(gate.inverse()));
                    let diagonal = state.amplitude(column);
                    let &mut phase = phase.get_or_insert(diagonal);
                    for row in 0..1usize << width {
                        let (re, im) = state.amplitude(row);
                        let expected = if row == column { phase } else { (0.0, 0.0) };
                        assert!(
                            (re - expected.0).abs() < 1e-12 && (im - expected.1).abs() < 1e-12,
                            "{gate:?} · {:?} on ({q0}, {q1}): entry ({row}, {column}) is \
                             ({re}, {im}), not {expected:?}",
                            gate.inverse()
                        );
                    }
                }
            }
        }
    }

    /// Per instruction, the lowered ops leave every amplitude `==`
    /// to the dense kernels', and the ideal distributions are the same bits.
    /// `==`, not `to_bits`: a dropped `+ 0·b` may flip the sign of a zero,
    /// which `to_bits` reports and no probability can see.
    #[test]
    fn lowered_ops_equal_the_dense_kernels() {
        let mut rng = StdRng::seed_from_u64(38);
        let mut circuits: Vec<Circuit> = (0..200).map(|_| random_circuit(&mut rng)).collect();
        circuits.extend(device_circuits(&mut rng).into_iter().map(|(circuit, _)| circuit));
        for (case, circuit) in circuits.iter().enumerate() {
            let (compact, _) = compact_circuit(circuit);
            let n = compact.num_qubits();
            let (mut lowered, mut dense) = (Statevector::new(n), Statevector::new(n));
            for (k, instr) in compact.instructions().iter().enumerate() {
                lowered.apply(instr);
                dense.apply_dense(instr);
                assert_eq!(lowered.amps, dense.amps, "case {case}, instruction {k}");
            }
            let measurements = measurement_map(&compact);
            let ideal = Simulator::default().ideal_distribution(circuit);
            let expected = dense.measurement_distribution(&measurements);
            assert_eq!(sorted_counts(&ideal), sorted_counts(&expected), "case {case}");
        }
    }

    /// The binary search stops where the linear scan does, also at its edges:
    /// a uniform equal to a running sum, zero (the first state even at
    /// probability zero), above the total (the last state), and sums that
    /// turn NaN.
    #[test]
    fn sampling_by_binary_search_matches_the_linear_scan_at_its_edges() {
        let linear = |amps: &[C64], r: f64| {
            let mut acc = 0.0;
            let reached = amps.iter().position(|a| {
                acc += a.norm_sqr();
                acc >= r
            });
            reached.unwrap_or(amps.len() - 1) as u64
        };
        let half = C64::real(0.5);
        let states = [
            vec![half; 4],
            vec![C64::ZERO, half, half, half],
            vec![half, half, C64::new(f64::NAN, 0.0), half],
            vec![C64::real(0.1); 4],
        ];
        let uniforms = [0.0, 0.25, 0.5, 0.6, 0.75, 0.999];
        for amps in states {
            let expected: Vec<u64> = uniforms.iter().map(|&r| linear(&amps, r)).collect();
            let outcomes: Vec<AtomicU64> = uniforms.iter().map(|_| AtomicU64::new(0)).collect();
            let mut state = Statevector { num_qubits: 2, amps: amps.clone() };
            state.sample_into(&[(0, 0), (1, 1)], &uniforms, &outcomes);
            let sampled: Vec<u64> = outcomes.into_iter().map(AtomicU64::into_inner).collect();
            assert_eq!(sampled, expected, "{amps:?}");
        }
    }

    /// The serial trajectory loop `noisy_counts` ran before it had phases
    /// and lowered ops: one state per trajectory on the dense kernels, each
    /// draw taken as the state reaches it, a linear scan per shot. The oracle
    /// of the three-phase path.
    fn serial_noisy_counts<R: Rng + ?Sized>(
        sim: &Simulator,
        circuit: &Circuit,
        noise: &NoiseModel,
        shots: u32,
        rng: &mut R,
    ) -> Distribution {
        let (compact, qubit_map) = compact_circuit(circuit);
        let meas = measurement_map(&compact);
        let trajectories = sim.trajectories.min(shots as usize).max(1);
        let shots_per_traj = (shots as usize / trajectories).max(1);
        let duration = noise.circuit_duration_ns(circuit);
        let random_pauli = |state: &mut Statevector, q: u32, rng: &mut R| {
            let gate = match rng.gen_range(0..3) {
                0 => Gate::X,
                1 => Gate::Y,
                _ => Gate::Z,
            };
            state.apply_dense(&Instruction::one(gate, q));
        };
        let mut counts = Distribution::new();
        for _ in 0..trajectories {
            let mut state = Statevector::new(compact.num_qubits());
            for instr in compact.instructions() {
                if !instr.gate.is_unitary() {
                    continue;
                }
                state.apply_dense(instr);
                let pq0 = qubit_map[instr.q0 as usize];
                let pq1 =
                    if instr.q1 == NO_OPERAND { NO_OPERAND } else { qubit_map[instr.q1 as usize] };
                let p_err = noise.instruction_error(instr.gate, pq0, pq1);
                if p_err > 0.0 && rng.gen_bool(p_err.min(1.0)) {
                    random_pauli(&mut state, instr.q0, rng);
                    if instr.q1 != NO_OPERAND && rng.gen_bool(0.5) {
                        random_pauli(&mut state, instr.q1, rng);
                    }
                }
            }
            for logical in 0..compact.num_qubits() {
                let phys = qubit_map[logical as usize];
                let survive = noise.decoherence_factor(phys, duration * 0.5);
                if rng.gen_bool((1.0 - survive).clamp(0.0, 1.0)) {
                    random_pauli(&mut state, logical, rng);
                }
            }
            for _ in 0..shots_per_traj {
                let r: f64 = rng.gen_range(0.0..1.0);
                let mut acc = 0.0;
                let mut chosen = state.amps.len() - 1;
                for (idx, amp) in state.amps.iter().enumerate() {
                    acc += amp.norm_sqr();
                    if acc >= r {
                        chosen = idx;
                        break;
                    }
                }
                let mut outcome = register_value(chosen, &meas);
                for (bit_idx, &(logical_q, _cbit)) in meas.iter().enumerate() {
                    let phys = qubit_map[logical_q as usize];
                    if rng.gen_bool(noise.readout_error(phys).clamp(0.0, 1.0)) {
                        outcome ^= 1 << bit_idx;
                    }
                }
                *counts.entry(outcome).or_insert(0.0) += 1.0;
            }
        }
        counts
    }

    /// A random circuit on a few scattered qubits of an 8-qubit register:
    /// every gate kind, barriers, delays, measurements on some qubits or none.
    fn random_circuit(rng: &mut StdRng) -> Circuit {
        let mut c = Circuit::new(8);
        let mut qubits: Vec<u32> = (0..8).collect();
        qubits.shuffle(rng);
        qubits.truncate(rng.gen_range(1..=6));
        for _ in 0..rng.gen_range(0..60) {
            let (a, b) = (*qubits.choose(rng).unwrap(), *qubits.choose(rng).unwrap());
            let t = rng.gen_range(-PI..PI);
            let one = [
                Gate::Id,
                Gate::H,
                Gate::X,
                Gate::Y,
                Gate::Z,
                Gate::S,
                Gate::Sdg,
                Gate::T,
                Gate::Tdg,
                Gate::SX,
                Gate::RX(t),
                Gate::RY(t),
                Gate::RZ(t),
                Gate::U(t, -t, 0.5 * t),
                Gate::Delay(*[4e-7, 35.0, 900.0].choose(rng).unwrap()),
            ];
            let two = [Gate::CX, Gate::CZ, Gate::ECR, Gate::Swap, Gate::RZZ(t)];
            match rng.gen_range(0..10) {
                0 => c.barrier(),
                1 => c.measure(a, a),
                2..=4 if a != b => c.apply2(*two.choose(rng).unwrap(), a, b),
                _ => c.apply1(*one.choose(rng).unwrap(), a),
            };
        }
        c.set_shots(rng.gen_range(0..400));
        c
    }

    /// Circuits shaped like transpiled ones on every default-fleet device —
    /// basis gates on the coupling map of a connected five-qubit region,
    /// measured — and folded ×1/3/5 as ZNE folds them.
    fn device_circuits(rng: &mut StdRng) -> Vec<(Circuit, NoiseModel)> {
        let mut cases = Vec::new();
        for member in Fleet::ibm_default(rng).members() {
            let qpu = &member.qpu;
            let edges = qpu.model.coupling_map.edges();
            let mut region = vec![edges[0].0];
            while region.len() < 5 {
                let &(a, b) = edges.choose(rng).unwrap();
                if region.contains(&a) != region.contains(&b) {
                    region.push(if region.contains(&a) { b } else { a });
                }
            }
            let inner: Vec<_> =
                edges.iter().filter(|(a, b)| region.contains(a) && region.contains(b)).collect();
            let mut logical = Circuit::new(qpu.num_qubits());
            for _ in 0..40 {
                let q = *region.choose(rng).unwrap();
                match rng.gen_range(0..4) {
                    0 => logical.apply1(Gate::RZ(rng.gen_range(-PI..PI)), q),
                    1 => logical.apply1(Gate::SX, q),
                    2 => logical.apply1(Gate::X, q),
                    _ => {
                        let &&(a, b) = inner.choose(rng).unwrap();
                        logical.apply2(Gate::CX, a, b)
                    }
                };
            }
            for &q in &region {
                logical.measure(q, q);
            }
            let unitary = logical.unitary_part();
            let inverse = unitary.inverse();
            for folds in 0..3 {
                let mut folded = unitary.clone();
                for _ in 0..folds {
                    folded.compose(&inverse).compose(&unitary);
                }
                for &measure in logical.instructions().iter().filter(|i| !i.gate.is_unitary()) {
                    folded.push(measure);
                }
                folded.set_shots(rng.gen_range(100..400));
                cases.push((folded, qpu.noise_model()));
            }
        }
        cases
    }

    fn sorted_counts(counts: &Distribution) -> Vec<(u64, u64)> {
        let mut pairs: Vec<_> = counts.iter().map(|(&k, &v)| (k, v.to_bits())).collect();
        pairs.sort_unstable();
        pairs
    }

    /// Register bit `b` reads the `b`-th smallest measured classical bit,
    /// whatever order the measurements come in, also when compaction
    /// renumbers the qubits.
    #[test]
    fn the_register_orders_bits_by_classical_bit() {
        let sim = Simulator::default();
        let mut reversed = Circuit::new(2);
        reversed.x(0).measure(1, 1).measure(0, 0);
        let mut sparse = Circuit::new(27);
        sparse.x(20).measure(25, 7).measure(20, 3);
        for circuit in [reversed, sparse] {
            let ideal = sim.ideal_distribution(&circuit);
            assert_eq!(sorted_counts(&ideal), vec![(1, 1f64.to_bits())], "{circuit:?}");
        }
    }

    /// Trajectory evolution with pending operators leaves every amplitude
    /// within 1e-12 of applying each op and each Pauli in its own pass. The
    /// errors sit inside one-qubit runs, at their ends, before two-qubit ops
    /// and at the end of the circuit, and trajectories copy the walker with
    /// operators pending. A Pauli folded into a pending operator is `==` to
    /// the Pauli's kernel applied after the flush.
    #[test]
    fn lazy_fusion_equals_op_by_op_evolution() {
        let mut rng = StdRng::seed_from_u64(39);
        let mut circuits: Vec<Circuit> = (0..200).map(|_| random_circuit(&mut rng)).collect();
        circuits.extend(device_circuits(&mut rng).into_iter().map(|(circuit, _)| circuit));
        let sim = Simulator::default();
        let mut copied_mid_run = 0;
        for (case, circuit) in circuits.iter().enumerate() {
            let compiled = sim.compile(circuit);
            let (end, n) = (compiled.steps.len(), compiled.compact.num_qubits());
            // After each one-qubit op on its qubit, before each two-qubit op
            // on either operand, and at the end on any qubit.
            let mut sites: Vec<(usize, u32)> = (0..n).map(|q| (end, q)).collect();
            for (k, step) in compiled.steps.iter().enumerate() {
                match *step {
                    Step::Skip => {}
                    Step::Fold(q, _) => sites.push((k + 1, q)),
                    Step::Apply(a, b, _) => sites.extend([(k, a), (k, b)]),
                }
            }
            let mut trajectories: Vec<Vec<PauliError>> = (0..12)
                .map(|_| {
                    let mut errors: Vec<PauliError> = (0..rng.gen_range(0..4))
                        .map(|_| {
                            let &(after, qubit) = sites.choose(&mut rng).unwrap();
                            PauliError { after, qubit, pauli: rng.gen_range(0..3) }
                        })
                        .collect();
                    errors.sort_by_key(|e| e.after);
                    errors
                })
                .collect();
            trajectories.sort_by_key(|errors| errors.first().map_or(end, |e| e.after));
            let (mut walker, mut walked, mut state) = (LazyState::new(n), 0, LazyState::new(n));
            for (t, errors) in trajectories.iter().enumerate() {
                let first = errors.first().map_or(end, |e| e.after);
                for step in &compiled.steps[walked..first] {
                    walker.step(step);
                }
                walked = first;
                if errors.first().is_some_and(|e| walker.pending[e.qubit as usize].is_some()) {
                    copied_mid_run += 1;
                }
                state.copy_from(&walker);
                compiled.finish(&mut state, first, errors);
                let mut expected = Statevector::new(n);
                let mut errors = errors.iter().peekable();
                for k in 0..=end {
                    while let Some(e) = errors.next_if(|e| e.after == k) {
                        expected.apply(&Instruction::one(PAULIS[usize::from(e.pauli)], e.qubit));
                    }
                    if let Some(op) = compiled.ops.get(k) {
                        expected.apply_op(op);
                    }
                }
                for (i, (a, b)) in state.vector.amps.iter().zip(&expected.amps).enumerate() {
                    assert!(
                        (a.re - b.re).abs() <= 1e-12 && (a.im - b.im).abs() <= 1e-12,
                        "case {case}, trajectory {t}, amplitude {i}: {a:?}, not {b:?}"
                    );
                }
            }
        }
        assert!(copied_mid_run > 100, "{copied_mid_run} trajectories copied a pending operator");

        let pending = [None, Some(Gate::RZ(0.7)), Some(Gate::SX), Some(Gate::U(0.3, -1.1, 2.0))];
        for n in 1..=3u32 {
            let amps: Vec<C64> = (0..1usize << n)
                .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let lazy = |gate: Option<Gate>, q: u32| {
                let vector = Statevector { num_qubits: n, amps: amps.clone() };
                let mut lazy = LazyState { vector, pending: vec![None; n as usize] };
                if let Some(gate) = gate {
                    lazy.fold(q, &one_qubit_matrix(gate));
                }
                lazy
            };
            for (&gate, q) in pending.iter().flat_map(|g| (0..n).map(move |q| (g, q))) {
                for pauli in PAULIS {
                    let mut folded = lazy(gate, q);
                    folded.fold(q, &one_qubit_matrix(pauli));
                    folded.flush(q);
                    let mut kernel = lazy(gate, q);
                    kernel.flush(q);
                    kernel.vector.apply(&Instruction::one(pauli, q));
                    let at = format!("{pauli:?} after {gate:?} on {q}");
                    assert_eq!(folded.vector.amps, kernel.vector.amps, "{at}");
                }
            }
        }
    }

    /// Draw, evolve, merge gives the serial loop's counts bit for bit and
    /// leaves the RNG where the serial loop leaves it, for one trajectory,
    /// more trajectories than shots and the default 128, on 1, 2 and 5
    /// workers. The worker count cannot matter: a trajectory's pending
    /// operators are the same products, multiplied in the same order,
    /// whichever member's walker it copies. The fused one-qubit runs round
    /// differently from the serial loop's gate-by-gate passes, by about
    /// 1e-16 relative (`lazy_fusion_equals_op_by_op_evolution` bounds it),
    /// and a shot moves only if its uniform falls that close to a running
    /// sum; none of these shots does, so the counts still match bit for bit.
    #[test]
    fn three_phase_counts_equal_the_serial_trajectory_loop() {
        let mut rng = StdRng::seed_from_u64(2024);
        let mut cases: Vec<(Circuit, NoiseModel)> = (0..24)
            .map(|_| (random_circuit(&mut rng), noise(8, rng.gen_range(0.5..5.0))))
            .collect();
        cases.extend(device_circuits(&mut rng));
        for (case, (circuit, noise)) in cases.iter().enumerate() {
            let shots = circuit.shots();
            let duration_ns = noise.circuit_duration_ns(circuit);
            for trajectories in [1, shots as usize + 7, 128] {
                let sim = Simulator { trajectories, ..Simulator::default() };
                let mut serial_rng = StdRng::seed_from_u64(case as u64);
                let serial = serial_noisy_counts(&sim, circuit, noise, shots, &mut serial_rng);
                let compiled = sim.compile(circuit);
                for workers in [1, 2, 5] {
                    let mut rng = StdRng::seed_from_u64(case as u64);
                    let counts = compiled.noisy_counts(
                        noise,
                        duration_ns,
                        shots,
                        trajectories,
                        workers,
                        &mut rng,
                    );
                    let at = format!("case {case}, {trajectories} trajectories, {workers} workers");
                    assert_eq!(sorted_counts(&counts), sorted_counts(&serial), "{at}");
                    assert_eq!(rng, serial_rng, "{at}: a different number of draws");
                }
                let mut rng = StdRng::seed_from_u64(case as u64);
                let public = sim.noisy_counts(circuit, noise, shots, &mut rng);
                assert_eq!(sorted_counts(&public), sorted_counts(&serial), "case {case}");
            }
        }
    }
}
