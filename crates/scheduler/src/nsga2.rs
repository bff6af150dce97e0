//! NSGA-II multi-objective genetic algorithm (Deb et al. 2002), customised as
//! described in §7: random-integer population initialisation, real-valued
//! crossover simulated with an exponential probability distribution, polynomial
//! mutation perturbing solutions within a parent's vicinity, maximum
//! generation/evaluation thresholds, and sliding-window tolerance termination.
//!
//! # Hot path
//!
//! Individuals carry their genes packed as `u16` QPU indices, and every
//! offspring is evaluated by one branch-free pass over the problem's f32
//! objective lanes ([`SchedulingProblem::evaluate_lanes_packed`]); the final
//! front is re-evaluated exactly with [`SchedulingProblem::evaluate`].
//! Non-dominated sorting is an `O(n log n)` sweep, and the genetic operators
//! draw from tabulated polynomial `ln`/`pow` approximations — pure IEEE
//! arithmetic, so a run is deterministic for a fixed seed and island count.
//!
//! All per-generation buffers (the merged parent+offspring pools, sort
//! scratch, operator tables) live in a reusable [`OptimizerWorkspace`], so a
//! generation performs no heap allocation in steady state, and warm-started
//! callers amortise the buffers across scheduling cycles. [`optimize_with`]
//! additionally accepts seed assignments (e.g. the previous cycle's Pareto
//! front) that are repaired against the current problem and injected into the
//! initial population.
//!
//! # Islands
//!
//! The population splits into [`Nsga2Config::num_threads`] independent
//! subpopulations (islands) over the shared read-only problem tables, each
//! with its own deterministic RNG stream, workspace slot, and termination
//! window. Every [`Nsga2Config::migration_interval`] generations the islands
//! exchange Pareto-front elites along a ring, and the final front is the
//! non-dominated merge of the island fronts. One island is the same loop with
//! the migration skipped.
//!
//! The islands of one run are evolved by one [`par::team`] of
//! `min(host cores, islands)` threads that lives exactly as long as the
//! call: the calling thread is a member, the other members are spawned once,
//! and every member owns a fixed contiguous group of islands from the first
//! generation to the last. An island round is tens of microseconds of work,
//! so nothing is spawned or joined per round; the members meet at the
//! team's spinning phase barrier twice per migration — once when every island
//! has published its elites to its outbox, once more before the next round
//! overwrites them — and each member performs the migration of its own
//! islands. Islands touch no shared mutable state between those meetings, so
//! the result is a pure function of (problem, config, seeds, island count):
//! bit-identical for every team size, including the one-member team of a
//! single-core host or a one-island run, which runs the same loop without
//! synchronising.

use crate::problem::{Objectives, SchedulingProblem, NO_FEASIBLE};
use parking_lot::Mutex;
use qonductor_circuit::par::{self, host_cores, PhaseBarrier};
use rand::RngCore;
use std::sync::atomic::{AtomicUsize, Ordering};

/// NSGA-II hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nsga2Config {
    /// Population size.
    pub population_size: usize,
    /// Maximum number of generations.
    pub max_generations: usize,
    /// Maximum number of objective-function evaluations.
    pub max_evaluations: usize,
    /// Crossover probability per gene.
    pub crossover_probability: f64,
    /// Mutation probability per gene.
    pub mutation_probability: f64,
    /// Mean of the exponential distribution used to simulate real-valued crossover.
    pub crossover_spread: f64,
    /// Polynomial-mutation distribution index (higher = smaller perturbations).
    pub mutation_eta: f64,
    /// Sliding-window tolerance termination: stop when the best mean-JCT and
    /// mean-error improvements over the last `tolerance_window` generations are
    /// both below `tolerance`.
    pub tolerance: f64,
    /// Number of generations in the termination window.
    pub tolerance_window: usize,
    /// Number of NSGA-II islands (independent subpopulations exchanging
    /// Pareto elites along a ring every [`Nsga2Config::migration_interval`]
    /// generations). `<= 1` means one island, which never migrates; larger
    /// values are clamped so every island keeps at least
    /// [`Nsga2Config::min_island_pop`] individuals. Despite the name
    /// (kept for its callers) this is the island count, and the count fixes
    /// the result; the thread count is not configurable: each run is evolved
    /// by a team of `min(host_cores(), islands)` threads
    /// ([`qonductor_circuit::par`]) with the caller as one member, and the
    /// team size never changes the result.
    pub num_threads: usize,
    /// Generations an island evolves between ring elite exchanges
    /// (default `MIGRATION_INTERVAL`; values `< 1` are clamped to 1).
    pub migration_interval: usize,
    /// Minimum individuals per island: requested island counts are clamped
    /// so no island drops below this (default `MIN_ISLAND_POP`; values
    /// `< 1` are clamped to 1 — tiny subpopulations stall the genetic
    /// operators).
    pub min_island_pop: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Nsga2Config {
            population_size: 60,
            max_generations: 80,
            max_evaluations: 20_000,
            crossover_probability: 0.9,
            mutation_probability: 0.15,
            crossover_spread: 1.0,
            mutation_eta: 20.0,
            tolerance: 1e-3,
            tolerance_window: 10,
            num_threads: 4,
            migration_interval: MIGRATION_INTERVAL,
            min_island_pop: MIN_ISLAND_POP,
            seed: 0xC0FFEE,
        }
    }
}

/// One solution on the returned Pareto front.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoSolution {
    /// Job→QPU assignment.
    pub assignment: Vec<usize>,
    /// Objective values of the assignment.
    pub objectives: Objectives,
}

/// Result of an NSGA-II run.
#[derive(Debug, Clone, PartialEq)]
pub struct Nsga2Result {
    /// The non-dominated front of the final population.
    pub pareto_front: Vec<ParetoSolution>,
    /// Number of generations executed.
    pub generations: usize,
    /// Number of objective-function evaluations performed.
    pub evaluations: usize,
}

const ZERO_OBJECTIVES: Objectives = Objectives { mean_jct_s: 0.0, mean_error: 0.0, mean_cost: 0.0 };

/// One member of an island's population: genes packed as `u16` QPU indices
/// (a quarter of the cache footprint of a `usize` assignment — the pool
/// streams through L1 every generation), with objectives from one
/// [`SchedulingProblem::evaluate_lanes_packed`] pass.
#[derive(Debug, Clone)]
struct Individual {
    genes: Vec<u16>,
    objectives: Objectives,
    rank: usize,
    crowding: f64,
}

impl Default for Individual {
    fn default() -> Self {
        Individual { genes: Vec::new(), objectives: ZERO_OBJECTIVES, rank: 0, crowding: 0.0 }
    }
}

impl Individual {
    /// Copy `src` into `self`, reusing buffers (no allocation once sized).
    fn copy_from(&mut self, src: &Individual) {
        self.genes.clone_from(&src.genes);
        self.objectives = src.objectives;
        self.rank = src.rank;
        self.crowding = src.crowding;
    }
}

/// Scratch buffers for the `O(n log n)` sweep-based non-dominated sort.
#[derive(Debug, Default)]
struct SweepScratch {
    /// Individual indices sorted by (JCT, error, index).
    order: Vec<u32>,
    /// Per-front lexicographic key `(error, JCT)` of the most recently
    /// inserted member — the front's minimum, strictly increasing across
    /// fronts (the staircases are nested), which is what makes the rank
    /// lookup a binary search.
    front_key: Vec<(f64, f64)>,
    /// Members of each front in processing order, for crowding assignment.
    fronts: Vec<Vec<usize>>,
    /// Crowding sort scratch.
    sorted: Vec<usize>,
}

/// Bucket count of the island operator tables: plenty of distributional
/// resolution for values that are immediately snapped to a QPU index.
const OP_TABLE: usize = 512;

/// Quantised inverse-CDF tables for the island genetic operators. The
/// crossover offset (`-spread·ln(u)`), the polynomial-mutation delta, and the
/// geometric mutation gap are each tabulated at the [`OP_TABLE`] bucket
/// centres of their uniform driver, turning three transcendental evaluations
/// per operator site into one table load. The values feed a snap to a small
/// integer QPU index, so quantising the driver to 9 bits is far below the
/// snap's own rounding; the search distribution keeps its shape. Built once
/// per workspace and reused while the operator parameters stay unchanged.
#[derive(Debug)]
struct OperatorTables {
    built: bool,
    spread: f64,
    inv_eta: f64,
    p_mut: f64,
    /// `-spread/2 · ln(u)` at bucket centres of the conditioned crossover
    /// draw (the crossover's own `· 0.5` is folded in).
    offset: Box<[f32; OP_TABLE]>,
    /// Polynomial-mutation delta at bucket centres of the magnitude draw.
    delta: Box<[f32; OP_TABLE]>,
    /// Geometric gap `ln(1-g) / ln(1-p_mut)` at bucket centres.
    gap: Box<[f32; OP_TABLE]>,
}

impl Default for OperatorTables {
    fn default() -> Self {
        OperatorTables {
            built: false,
            spread: 0.0,
            inv_eta: 0.0,
            p_mut: 0.0,
            offset: Box::new([0.0; OP_TABLE]),
            delta: Box::new([0.0; OP_TABLE]),
            gap: Box::new([0.0; OP_TABLE]),
        }
    }
}

impl OperatorTables {
    /// (Re)build the tables if `config`'s operator parameters changed.
    fn ensure(&mut self, config: &Nsga2Config) {
        let spread = config.crossover_spread;
        let inv_eta = 1.0 / (config.mutation_eta + 1.0);
        let p_mut = config.mutation_probability.clamp(0.0, 1.0);
        if self.built && self.spread == spread && self.inv_eta == inv_eta && self.p_mut == p_mut {
            return;
        }
        self.built = true;
        self.spread = spread;
        self.inv_eta = inv_eta;
        self.p_mut = p_mut;
        let inv_ln_miss = if p_mut > 0.0 && p_mut < 1.0 { 1.0 / fast_ln(1.0 - p_mut) } else { 0.0 };
        for j in 0..OP_TABLE {
            let u = (j as f64 + 0.5) / OP_TABLE as f64;
            self.offset[j] = (-0.5 * spread * fast_ln(u)) as f32;
            let delta = if u < 0.5 {
                pow_frac_fast(2.0 * u, inv_eta) - 1.0
            } else {
                1.0 - pow_frac_fast(2.0 * (1.0 - u), inv_eta)
            };
            self.delta[j] = delta as f32;
            self.gap[j] = (fast_ln(1.0 - u) * inv_ln_miss) as f32;
        }
    }

    /// Table lookup for a uniform f32 driver in `[0, 1)`. The operator hot
    /// loops run single-precision end to end (u16 genes are exact in f32),
    /// which keeps width conversions out of each iteration's dependency
    /// chain. The fixed-size array plus the integer `.min` clamp elide the
    /// bounds check, and the unchecked cast skips the ~10-instruction
    /// saturating `as usize` sequence (two compares and cmovs) the safe
    /// cast lowers to.
    #[inline]
    fn bucket32(table: &[f32; OP_TABLE], u: f32) -> f32 {
        // SAFETY: every caller derives `u` from RNG top bits (or a
        // conditioned rescale thereof), so it is finite and in [0, 1);
        // `u * OP_TABLE` is then in [0, OP_TABLE] — in range for usize.
        let idx = unsafe { (u * OP_TABLE as f32).to_int_unchecked::<usize>() };
        table[idx.min(OP_TABLE - 1)]
    }
}

/// SplitMix64: an island's entropy stream. One add is the only
/// loop-carried dependency, so consecutive draws pipeline where xoshiro's
/// four-word state rotation serialises; statistical quality is ample for
/// genetic-operator drivers. The optimizer has no RNG-stream contract —
/// only determinism per `(seed, islands)` — so swapping the generator is
/// fair game.
struct IslandRng(u64);

impl IslandRng {
    /// Seed the stream. The seed passes through one finaliser mix first:
    /// [`island_seed`] spaces raw seeds by the golden-ratio constant, which
    /// is exactly SplitMix64's own state stride — without the mix, island
    /// `i`'s stream would be island 0's stream shifted by `i` draws, and
    /// the islands would run correlated searches.
    fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        IslandRng(z ^ (z >> 31))
    }
}

impl rand::RngCore for IslandRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Scale turning the top 24 bits of a draw into a uniform f32 in `[0, 1)`.
const UNIT32: f32 = 1.0 / (1u32 << 24) as f32;

/// Lemire multiply-shift map of 64 random bits onto `[0, n)`: one widening
/// multiply instead of the shim `gen_range`'s 128-bit modulo (a `__umodti3`
/// libcall). The without-rejection bias is `O(n / 2^64)` — irrelevant for
/// genetic-operator index draws, and the optimizer carries no RNG-stream
/// contract.
#[inline]
fn lemire_index(bits: u64, n: usize) -> usize {
    (((bits as u128) * (n as u128)) >> 64) as usize
}

/// Binary tournament on (rank, crowding distance): both contestant indices
/// come from one 64-bit draw (32-bit Lemire halves) instead of two
/// `gen_range` calls.
#[inline]
fn tournament(population: &[Individual], rng: &mut IslandRng) -> usize {
    let bits = rng.next_u64();
    let n = population.len() as u64;
    let a = (((bits >> 32) * n) >> 32) as usize;
    let b = (((bits & 0xffff_ffff) * n) >> 32) as usize;
    let x = &population[a];
    let y = &population[b];
    if x.rank < y.rank || (x.rank == y.rank && x.crowding > y.crowding) {
        a
    } else {
        b
    }
}

/// Fill `genes` with a uniformly random feasible assignment.
fn random_into(problem: &SchedulingProblem, genes: &mut Vec<u16>, rng: &mut IslandRng) {
    genes.clear();
    for i in 0..problem.num_jobs() {
        let feasible = problem.feasible_qpus(i);
        let g = if feasible.is_empty() {
            lemire_index(rng.next_u64(), problem.num_qpus())
        } else {
            feasible[lemire_index(rng.next_u64(), feasible.len())]
        };
        genes.push(g as u16);
    }
}

/// Per-island evolution state: a private pool, sweep scratch, and
/// termination window, so islands only touch shared state at migration.
#[derive(Debug, Default)]
struct IslandSlot {
    pool: Vec<Individual>,
    spare: Individual,
    sweep: SweepScratch,
    history: Vec<(f64, f64)>,
    evaluations: usize,
    generations: usize,
    done: bool,
}

/// The elites an island offers its ring successor in the current migration.
/// Written by the island's owner before the team's first meeting of a
/// migration and read by the successor's owner after it, so the lock is
/// never contended; it is what lets two team members share the buffer.
type Outbox = Mutex<[Individual; MIGRATION_ELITES]>;

/// Reusable scratch state for [`optimize_with`]: one `IslandSlot` per
/// island, its elite-migration outbox, and the operator tables. Create once
/// (e.g. per scheduler) and reuse across cycles — every buffer is fully
/// overwritten per run, so reuse never changes results, it only removes
/// steady-state allocation.
#[derive(Debug, Default)]
pub struct OptimizerWorkspace {
    islands: Vec<IslandSlot>,
    outboxes: Vec<Outbox>,
    tables: OperatorTables,
}

impl OptimizerWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        OptimizerWorkspace::default()
    }
}

/// Run NSGA-II on a scheduling problem and return its Pareto front.
pub fn optimize(problem: &SchedulingProblem, config: &Nsga2Config) -> Nsga2Result {
    let mut workspace = OptimizerWorkspace::new();
    optimize_with(problem, config, &[], &mut workspace)
}

/// Run NSGA-II with seed assignments injected into the initial population
/// (warm start). Seeds are repaired against the problem: out-of-range or
/// capacity-violating genes snap to the job's first feasible QPU.
#[cfg(test)]
fn optimize_seeded(
    problem: &SchedulingProblem,
    config: &Nsga2Config,
    seeds: &[Vec<usize>],
) -> Nsga2Result {
    let mut workspace = OptimizerWorkspace::new();
    optimize_with(problem, config, seeds, &mut workspace)
}

/// Default for [`Nsga2Config::migration_interval`]: generations an island
/// evolves between elite exchanges.
pub(crate) const MIGRATION_INTERVAL: usize = 5;

/// Pareto-front elites each island sends to its ring neighbour per exchange.
const MIGRATION_ELITES: usize = 2;

/// Default for [`Nsga2Config::min_island_pop`]: minimum individuals per
/// island (tiny subpopulations stall the genetic operators).
pub(crate) const MIN_ISLAND_POP: usize = 4;

/// Effective island count for a configuration: `num_threads` clamped so each
/// island keeps at least [`Nsga2Config::min_island_pop`] individuals.
fn effective_islands(config: &Nsga2Config) -> usize {
    let pop_size = config.population_size.max(4);
    config.num_threads.min(pop_size / config.min_island_pop.max(1)).max(1)
}

/// The full-control entry point: NSGA-II with warm-start seeds and a caller
/// owned, reusable [`OptimizerWorkspace`]. At most half the population is
/// seeded (the rest stays random for diversity). Deterministic for a fixed
/// `config.seed`, seed list, island count (see [`Nsga2Config::num_threads`]),
/// and problem — regardless of workspace history or host core count.
pub fn optimize_with(
    problem: &SchedulingProblem,
    config: &Nsga2Config,
    seeds: &[Vec<usize>],
    workspace: &mut OptimizerWorkspace,
) -> Nsga2Result {
    optimize_islands(problem, config, seeds, workspace, effective_islands(config), host_cores())
}

/// Deterministic per-island RNG stream: island 0 keeps the configured seed,
/// later islands decorrelate with a Weyl increment.
fn island_seed(seed: u64, island: usize) -> u64 {
    seed.wrapping_add((island as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Island-model NSGA-II: `islands` independent subpopulations over the
/// shared read-only problem tables, ring migration of elites every
/// [`Nsga2Config::migration_interval`] generations (none for one island),
/// and a final non-dominated merge of the island fronts. Results are a pure
/// function of (problem, config, seeds, island count); the team of at most
/// `max_members` threads that evolves the islands — [`host_cores`] outside
/// the tests, which pin it to show exactly this — never changes the outcome.
fn optimize_islands(
    problem: &SchedulingProblem,
    config: &Nsga2Config,
    seeds: &[Vec<usize>],
    workspace: &mut OptimizerWorkspace,
    islands: usize,
    max_members: usize,
) -> Nsga2Result {
    let pop_size = config.population_size.max(4);
    let (base, rem) = (pop_size / islands, pop_size % islands);
    let pops: Vec<usize> = (0..islands).map(|i| base + usize::from(i < rem)).collect();
    // Split the evaluation budget evenly; every island always gets at least
    // its initial population plus one generation.
    let per_island_evals = (config.max_evaluations / islands).max(base * 2);

    let OptimizerWorkspace { islands: slots, outboxes, tables, .. } = workspace;
    if slots.len() < islands {
        slots.resize_with(islands, IslandSlot::default);
    }
    if outboxes.len() < islands {
        outboxes.resize_with(islands, Outbox::default);
    }
    tables.ensure(config);
    let mut rngs: Vec<IslandRng> =
        (0..islands).map(|i| IslandRng::new(island_seed(config.seed, i))).collect();

    // Initial populations: warm-start seeds deal round-robin across islands
    // (seed k → island k % islands), capped at half of each island.
    let mut genebuf: Vec<usize> = Vec::new();
    for (i, slot) in slots.iter_mut().take(islands).enumerate() {
        let my_pop = pops[i];
        let total = my_pop * 2;
        if slot.pool.len() < total {
            slot.pool.resize_with(total, Individual::default);
        }
        // Offspring, spare and outbox gene buffers are sized here, by the
        // caller: a buffer a team helper allocates lives in that thread's
        // malloc arena, and once the caller frees it into its own allocator
        // cache the caller's next growing `Vec` can start in — and then keep
        // reallocating inside — the helper's arena, which never shrinks
        // under it (measured: +3 MB peak RSS on an invoke wave).
        for ind in slot.pool[my_pop..total]
            .iter_mut()
            .chain(std::iter::once(&mut slot.spare))
            .chain(outboxes[i].get_mut())
        {
            ind.genes.reserve(problem.num_jobs());
        }
        slot.history.clear();
        slot.generations = 0;
        slot.done = false;
        let rng = &mut rngs[i];
        let mut island_seeds = seeds.iter().skip(i).step_by(islands).take(my_pop / 2);
        for ind in slot.pool.iter_mut().take(my_pop) {
            match island_seeds.next() {
                Some(seed) => {
                    repair_into(problem, seed, &mut genebuf);
                    ind.genes.clear();
                    ind.genes.extend(genebuf.iter().map(|&g| g as u16));
                }
                None => random_into(problem, &mut ind.genes, rng),
            }
            ind.objectives = problem.evaluate_lanes_packed(&ind.genes);
            ind.rank = 0;
            ind.crowding = 0.0;
        }
        slot.evaluations = my_pop;
        // Tournament selection reads rank/crowding in place — the island
        // pool is never kept totally ordered (see `island_round`).
        rank_and_crowd_sweep(&mut slot.pool[..my_pop], &mut slot.sweep, my_pop);
    }

    // Deal the islands to the team in contiguous groups, one per member —
    // 4 islands over 3 threads make 2 groups of 2, hence a team of two.
    let group = islands.div_ceil(max_members.clamp(1, islands));
    let team = IslandTeam {
        problem,
        config,
        tables,
        pops: &pops,
        per_island_evals,
        outboxes: &outboxes[..islands],
        running: AtomicUsize::new(islands),
    };
    let groups = slots[..islands]
        .chunks_mut(group)
        .zip(rngs.chunks_mut(group))
        .enumerate()
        .map(|(g, (slots, rngs))| (g * group, slots, rngs))
        .collect();
    par::team(groups, |group, barrier| team.evolve(group, barrier));

    // Merge: first front of each island, re-evaluated with the exact f64
    // path (the search ran on f32 lane objectives; callers get exact
    // values), then a global non-domination pass over the union.
    for (slot, &my_pop) in slots[..islands].iter_mut().zip(pops.iter()) {
        rank_and_crowd_sweep(&mut slot.pool[..my_pop], &mut slot.sweep, 1);
    }
    let candidates: Vec<ParetoSolution> = slots[..islands]
        .iter()
        .zip(pops.iter())
        .flat_map(|(slot, &my_pop)| slot.pool[..my_pop].iter().filter(|ind| ind.rank == 0))
        .map(|ind| {
            let assignment: Vec<usize> = ind.genes.iter().map(|&g| g as usize).collect();
            ParetoSolution { objectives: problem.evaluate(&assignment), assignment }
        })
        .collect();
    let mut front: Vec<ParetoSolution> = candidates
        .iter()
        .filter(|a| !candidates.iter().any(|b| b.objectives.dominates(&a.objectives)))
        .cloned()
        .collect();
    front.sort_by(|a, b| a.objectives.mean_jct_s.total_cmp(&b.objectives.mean_jct_s));
    front.dedup_by(|a, b| {
        (a.objectives.mean_jct_s - b.objectives.mean_jct_s).abs() < 1e-9
            && (a.objectives.mean_error - b.objectives.mean_error).abs() < 1e-9
    });

    Nsga2Result {
        pareto_front: front,
        generations: slots[..islands].iter().map(|s| s.generations).max().unwrap_or(0),
        evaluations: slots[..islands].iter().map(|s| s.evaluations).sum(),
    }
}

/// One team member's islands: the index of the first, their slots and RNGs.
type IslandGroup<'a> = (usize, &'a mut [IslandSlot], &'a mut [IslandRng]);

/// What the members of one run's island team share besides their barrier:
/// the read-only inputs, the islands' outboxes, and the running count.
struct IslandTeam<'a> {
    problem: &'a SchedulingProblem,
    config: &'a Nsga2Config,
    tables: &'a OperatorTables,
    /// Population of each island.
    pops: &'a [usize],
    per_island_evals: usize,
    outboxes: &'a [Outbox],
    /// Islands that have not terminated. Only decremented between a
    /// migration's second meeting and the next one's first, only read
    /// between a first and a second meeting: the barrier orders the two, so
    /// `Relaxed` suffices.
    running: AtomicUsize,
}

impl IslandTeam<'_> {
    /// One member's whole run: evolve the islands `first..first + slots.len()`
    /// round by round, migrating along the ring between rounds, until every
    /// island of the run — not just this member's — has terminated. Each
    /// island goes through the same sequence whatever the grouping: a round,
    /// then (elites out, elites in from the ring predecessor, re-rank), with
    /// the team meeting between "out" and "in" and again before the next
    /// "out", at `barrier`.
    fn evolve(&self, (first, slots, rngs): IslandGroup<'_>, barrier: &PhaseBarrier) {
        let islands = self.pops.len();
        loop {
            for (k, (slot, rng)) in slots.iter_mut().zip(rngs.iter_mut()).enumerate() {
                if !slot.done {
                    island_round(
                        self.problem,
                        self.config,
                        self.tables,
                        slot,
                        rng,
                        self.pops[first + k],
                        self.per_island_evals,
                    );
                    if slot.done {
                        self.running.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
            // Every island's round is over, and no successor is still reading
            // an outbox of the previous migration.
            barrier.wait();
            if self.running.load(Ordering::Relaxed) == 0 {
                return;
            }
            // A lone island is its own ring predecessor: an exchange would
            // only overwrite its worst two with copies of its best two.
            if islands == 1 {
                continue;
            }

            // Ring migration. Every island first publishes its elites, then —
            // after the meeting — takes its predecessor's over its own worst
            // individuals, so exchange order never influences the result.
            for (k, slot) in slots.iter_mut().enumerate() {
                let my_pop = self.pops[first + k];
                let count = MIGRATION_ELITES.min(my_pop);
                if count < my_pop {
                    // Partition the island's best `count` to the front; order
                    // within the batch is irrelevant (receivers re-rank).
                    slot.pool[..my_pop].select_nth_unstable_by(count - 1, selection_order);
                }
                let mut outbox = self.outboxes[first + k].lock();
                for (out, elite) in outbox.iter_mut().zip(&slot.pool[..count]) {
                    out.copy_from(elite);
                }
            }
            barrier.wait();
            for (k, slot) in slots.iter_mut().enumerate() {
                let src = (first + k + islands - 1) % islands;
                let my_pop = self.pops[first + k];
                let count = MIGRATION_ELITES.min(self.pops[src]).min(my_pop);
                if count < my_pop {
                    // Partition the island's worst `count` to the back, where the
                    // incoming elites overwrite them.
                    slot.pool[..my_pop].select_nth_unstable_by(my_pop - count - 1, selection_order);
                }
                let inbox = self.outboxes[src].lock();
                for (e, elite) in inbox[..count].iter().enumerate() {
                    slot.pool[my_pop - 1 - e].copy_from(elite);
                }
                drop(inbox);
                // Restore rank/crowding for the next round's tournaments.
                rank_and_crowd_sweep(&mut slot.pool[..my_pop], &mut slot.sweep, my_pop);
            }
        }
    }
}

/// NSGA-II environmental-selection order: rank ascending, then crowding
/// distance descending.
fn selection_order(a: &Individual, b: &Individual) -> std::cmp::Ordering {
    a.rank.cmp(&b.rank).then_with(|| b.crowding.total_cmp(&a.crowding))
}

/// Evolve one island for up to [`Nsga2Config::migration_interval`] generations, or until
/// its generation/evaluation budget or tolerance window terminates it.
fn island_round(
    problem: &SchedulingProblem,
    config: &Nsga2Config,
    tables: &OperatorTables,
    slot: &mut IslandSlot,
    rng: &mut IslandRng,
    my_pop: usize,
    max_evaluations: usize,
) {
    for _ in 0..config.migration_interval.max(1) {
        if slot.generations >= config.max_generations {
            slot.done = true;
            return;
        }
        slot.generations += 1;
        let total = my_pop * 2;
        let spare = &mut slot.spare;
        let (parents, kids) = slot.pool[..total].split_at_mut(my_pop);
        let mut k = 0;
        while k < kids.len() {
            let p1 = tournament(parents, rng);
            let p2 = tournament(parents, rng);
            if k + 1 < kids.len() {
                let (head, tail) = kids.split_at_mut(k + 1);
                breed_lanes(
                    problem,
                    config,
                    tables,
                    &parents[p1],
                    &parents[p2],
                    &mut head[k],
                    &mut tail[0],
                    rng,
                );
                k += 2;
            } else {
                // Odd population: the second child lands in the spare slot.
                breed_lanes(
                    problem,
                    config,
                    tables,
                    &parents[p1],
                    &parents[p2],
                    &mut kids[k],
                    spare,
                    rng,
                );
                k += 1;
            }
        }
        slot.evaluations += my_pop;

        rank_and_crowd_sweep(&mut slot.pool[..total], &mut slot.sweep, my_pop);
        // Environmental truncation only needs the best `my_pop` of the merged
        // pool in the parent half, in any order: an O(n) partition replaces
        // the full (rank, crowding) sort — tournaments compare rank/crowding
        // directly, so parent order never matters.
        slot.pool[..total].select_nth_unstable_by(my_pop - 1, selection_order);

        let best_jct = slot.pool[..my_pop]
            .iter()
            .map(|i| i.objectives.mean_jct_s)
            .fold(f64::INFINITY, f64::min);
        let best_err = slot.pool[..my_pop]
            .iter()
            .map(|i| i.objectives.mean_error)
            .fold(f64::INFINITY, f64::min);
        slot.history.push((best_jct, best_err));
        if slot.evaluations >= max_evaluations {
            slot.done = true;
            return;
        }
        if slot.history.len() > config.tolerance_window {
            let w = config.tolerance_window;
            let (old_jct, old_err) = slot.history[slot.history.len() - 1 - w];
            let jct_impr = (old_jct - best_jct) / old_jct.abs().max(1e-9);
            let err_impr = (old_err - best_err) / old_err.abs().max(1e-9);
            if jct_impr < config.tolerance && err_impr < config.tolerance {
                slot.done = true;
                return;
            }
        }
    }
}

/// Fill `genes` from a seed assignment, snapping out-of-range or infeasible
/// genes to the job's first feasible QPU (deterministic repair).
fn repair_into(problem: &SchedulingProblem, seed: &[usize], genes: &mut Vec<usize>) {
    genes.clear();
    for i in 0..problem.num_jobs() {
        let g = seed.get(i).copied().unwrap_or(usize::MAX);
        genes.push(if problem.placement_is_feasible(i, g) {
            g
        } else {
            let feasible = problem.feasible_qpus(i);
            if feasible.is_empty() {
                g.min(problem.num_qpus() - 1)
            } else {
                feasible[0]
            }
        });
    }
}

/// Produce two children from two parents in place. Crossover follows the
/// paper's customisation: each child gene is drawn around the two parents
/// with an exponentially distributed offset on the real-valued relaxation,
/// then rounded and snapped to a feasible QPU; polynomial mutation
/// ([`mutate_lanes`]) follows, and each child takes one branch-free
/// [`SchedulingProblem::evaluate_lanes_packed`] pass.
///
/// One RNG draw serves each crossover site: the accept decision and the
/// offset come from its top bits, which conditionally rescale back to
/// `[0,1)` and index the tabulated `ln` of [`OperatorTables`]; the direction
/// and snap tie-breaks come from the unused low bits.
#[allow(clippy::too_many_arguments)]
fn breed_lanes(
    problem: &SchedulingProblem,
    config: &Nsga2Config,
    tables: &OperatorTables,
    p1: &Individual,
    p2: &Individual,
    c1: &mut Individual,
    c2: &mut Individual,
    rng: &mut IslandRng,
) {
    c1.genes.clone_from(&p1.genes);
    c2.genes.clone_from(&p2.genes);
    let p_cross = config.crossover_probability.clamp(0.0, 1.0) as f32;
    let inv_p_cross = if p_cross > 0.0 { 1.0 / p_cross } else { 0.0 };
    let qf = problem.num_qpus() as f32;
    // Equal-length slice views let every per-gene index below skip its
    // bounds check; the nearest-feasible rows ride along via `chunks_exact`
    // instead of a per-gene `snap_row` range check.
    let n = p1.genes.len();
    let (p1g, p2g) = (&p1.genes[..n], &p2.genes[..n]);
    let (c1g, c2g) = (&mut c1.genes[..n], &mut c2.genes[..n]);
    let rows = problem.snap_table().chunks_exact(problem.num_qpus());
    for (i, row) in rows.take(n).enumerate() {
        let bits = rng.next_u64();
        // Top 24 bits drive accept/offset (single-precision is plenty for a
        // driver that indexes a 512-bucket table); the low bits feed the
        // direction and snap tie-breaks, so the streams stay independent.
        let u_raw = (bits >> 40) as f32 * UNIT32;
        if u_raw < p_cross {
            // `u_raw` conditioned on the accept region is uniform on
            // `[0, p_cross)`; rescaling recovers the `[0, 1)` crossover draw,
            // which indexes the tabulated half-exponential offset.
            let offset = OperatorTables::bucket32(&tables.offset, u_raw * inv_p_cross);
            let a = f32::from(p1g[i]);
            let b = f32::from(p2g[i]);
            let mid = (a + b) * 0.5;
            let d0 = offset * (b - a).abs().max(1.0);
            // The direction sign only decides which child lands on which
            // side of `mid`: snap both sides unconditionally (the two chains
            // run in parallel) and let the bit swap the stores — no sign
            // flip on the float path at all.
            let s_hi = snap_with_tie(row, mid + d0, bits >> 1);
            let s_lo = snap_with_tie(row, mid - d0, bits >> 2);
            let (x, y) = if bits & 1 == 0 { (s_hi, s_lo) } else { (s_lo, s_hi) };
            c1g[i] = x;
            c2g[i] = y;
        }
    }
    mutate_lanes(problem, tables, c1, qf, rng);
    mutate_lanes(problem, tables, c2, qf, rng);
    c1.objectives = problem.evaluate_lanes_packed(&c1.genes);
    c2.objectives = problem.evaluate_lanes_packed(&c2.genes);
}

/// Polynomial mutation: perturb a gene within the vicinity of its current
/// value, then snap to a feasible QPU. Gene-wise Bernoulli(`p_mut`) selection is
/// sampled by geometric gaps — `gap = floor(ln(1 - u) / ln(1 - p_mut))`
/// failures precede each success — so the RNG cost scales with the expected
/// number of *mutated* genes (`n * p_mut`) rather than `n`. Each selected
/// site takes one extra draw for the polynomial magnitude plus the snap
/// tie-break; both the gap and the magnitude come from the precomputed
/// [`OperatorTables`]. The sampled site distribution matches a per-gene
/// Bernoulli loop up to table quantisation.
fn mutate_lanes(
    problem: &SchedulingProblem,
    tables: &OperatorTables,
    child: &mut Individual,
    qf: f32,
    rng: &mut IslandRng,
) {
    let n = child.genes.len();
    let p_mut = tables.p_mut;
    if p_mut <= 0.0 {
        return;
    }
    // Degenerate everything-mutates case: ln(1 - p) is not finite and the
    // gap table is unusable, but every gene takes a magnitude draw anyway.
    if p_mut >= 1.0 {
        for i in 0..n {
            let mbits = rng.next_u64();
            let u = (mbits >> 40) as f32 * UNIT32;
            let delta = OperatorTables::bucket32(&tables.delta, u);
            let value = f32::from(child.genes[i]) + delta * qf;
            child.genes[i] = snap_with_tie(problem.snap_row(i), value, mbits);
        }
        return;
    }
    let mut i = 0usize;
    loop {
        let gbits = rng.next_u64();
        let g = (gbits >> 40) as f32 * UNIT32;
        // `gap` is the tabulated non-negative geometric variate: the number
        // of unmutated genes preceding the next mutation site.
        let gap = OperatorTables::bucket32(&tables.gap, g);
        if gap >= (n - i) as f32 {
            return;
        }
        // SAFETY: `gap` is a finite non-negative table value below `n - i`.
        i += unsafe { gap.to_int_unchecked::<usize>() };
        let mbits = rng.next_u64();
        let u = (mbits >> 40) as f32 * UNIT32;
        let delta = OperatorTables::bucket32(&tables.delta, u);
        let value = f32::from(child.genes[i]) + delta * qf;
        child.genes[i] = snap_with_tie(problem.snap_row(i), value, mbits);
        i += 1;
        if i >= n {
            return;
        }
    }
}

/// Round a real-valued gene to the nearest feasible QPU index for a job, an
/// equidistant tie broken by a caller-supplied entropy bit. Rounds
/// half-to-even rather than half-away-from-zero — a single `roundsd` instead of the
/// multi-instruction half-away expansion; which way an exact `.5` gene value
/// rounds carries no meaning for the search. The caller hoists the job's
/// nearest-feasible `row` once and reuses it for both children, so each snap
/// is a round, a clamp, one 8-byte load, and a conditional move — float-to-
/// int `as` casts saturate, and indexing by `row.len()` elides the bounds
/// check. The rare no-feasible-QPU row keeps the clamped index as-is (the
/// infeasibility penalty governs such jobs regardless of the gene value).
#[inline]
fn snap_with_tie(row: &[(u32, u32)], value: f32, tie_bits: u64) -> u16 {
    // `max` maps negatives *and* NaN to 0, `min` bounds the float below
    // u16::MAX + 1, so the unchecked cast (a bare cvttss2si) is always in
    // range; the integer `.min` then elides the row bounds check. Values
    // past either clamp snapped to the boundary under the safe saturating
    // cast too — the result is identical, minus ~10 instructions per snap.
    #[allow(clippy::manual_clamp)] // `clamp` would propagate NaN; `max` maps it to 0
    let rf = value.round_ties_even().max(0.0).min(65535.0);
    let r = unsafe { rf.to_int_unchecked::<usize>() }.min(row.len() - 1);
    let (lo, hi) = row[r];
    if lo == NO_FEASIBLE {
        return r as u16;
    }
    (if tie_bits & 1 == 0 { lo } else { hi }) as u16
}

/// `ln(x)` for positive, finite, normal `x`: exponent/mantissa split plus an
/// `atanh`-series for the mantissa (`t = (m-1)/(m+1)`, `|t| ≤ 1/3`).
#[inline]
fn fast_ln(x: f64) -> f64 {
    let bits = x.to_bits();
    let e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let series = 1.0
        + t2 * (1.0 / 3.0
            + t2 * (1.0 / 5.0 + t2 * (1.0 / 7.0 + t2 * (1.0 / 9.0 + t2 * (1.0 / 11.0)))));
    e as f64 * std::f64::consts::LN_2 + 2.0 * t * series
}

/// `e^y` for moderate `y` (the operator tables only need `y ∈ (-40, 1]`):
/// split off an integer power of two, Taylor for the `|f| ≤ ln(2)/2` rest.
#[inline]
fn fast_exp(y: f64) -> f64 {
    let n = (y * std::f64::consts::LOG2_E).round();
    let f = y - n * std::f64::consts::LN_2;
    let p = 1.0
        + f * (1.0
            + f * (0.5
                + f * (1.0 / 6.0 + f * (1.0 / 24.0 + f * (1.0 / 120.0 + f * (1.0 / 720.0))))));
    f64::from_bits(((1023 + n as i64) as u64) << 52) * p
}

/// `x^k` for `x ∈ [0, 1]` and a small positive exponent `k`, via
/// `exp(k·ln(x))` on the approximations above. Relative error
/// is ~1e-7 — far below what offspring sampling can distinguish.
#[inline]
fn pow_frac_fast(x: f64, k: f64) -> f64 {
    if x <= 0.0 {
        return 0.0; // 0^k = 0 for the positive exponents the operators use
    }
    if x >= 1.0 {
        return 1.0;
    }
    fast_exp(k * fast_ln(x))
}

/// Sweep-based non-dominated sorting for the two-objective case, `O(n log n)`
/// instead of the pairwise `O(n²)` peeling — ranks are mathematically
/// identical to the pairwise algorithm (the tests' oracle).
///
/// Individuals are processed in (JCT, error, index) order. Within a front,
/// error strictly decreases along that order (two members with equal error
/// or equal JCT would dominate one another), so each front is summarised by
/// its latest member's `(error, JCT)` key — its minimum — and a point is
/// dominated by a front exactly when that key is lexicographically smaller
/// than its own. The keys increase strictly across fronts (the staircases
/// are nested), so the first non-dominating front is a binary search.
///
/// Crowding is assigned front-by-front until `needed` individuals are
/// covered, and every individual past the cutoff reverts to rank
/// `usize::MAX` / crowding 0 (it can never be selected ahead of a ranked
/// individual, so environmental selection is unaffected).
fn rank_and_crowd_sweep(population: &mut [Individual], scratch: &mut SweepScratch, needed: usize) {
    let n = population.len();
    for ind in population.iter_mut() {
        ind.rank = usize::MAX;
        ind.crowding = 0.0;
    }
    let SweepScratch { order, front_key, fronts, sorted } = scratch;
    order.clear();
    order.extend(0..n as u32);
    order.sort_unstable_by(|&a, &b| {
        let oa = population[a as usize].objectives;
        let ob = population[b as usize].objectives;
        oa.mean_jct_s
            .total_cmp(&ob.mean_jct_s)
            .then(oa.mean_error.total_cmp(&ob.mean_error))
            .then(a.cmp(&b))
    });
    front_key.clear();
    for f in fronts.iter_mut() {
        f.clear();
    }
    let mut used_fronts = 0usize;
    for &iu in order.iter() {
        let i = iu as usize;
        let o = population[i].objectives;
        let key = (o.mean_error, o.mean_jct_s);
        let r = front_key[..used_fronts]
            .partition_point(|fk| fk.0 < key.0 || (fk.0 == key.0 && fk.1 < key.1));
        if r == used_fronts {
            if fronts.len() == used_fronts {
                fronts.push(Vec::new());
            }
            front_key.push(key);
            used_fronts += 1;
        } else {
            front_key[r] = key;
        }
        fronts[r].push(i);
        population[i].rank = r;
    }
    let mut assigned = 0usize;
    let mut cut = used_fronts;
    for (r, front) in fronts[..used_fronts].iter().enumerate() {
        assigned += front.len();
        if assigned >= needed {
            cut = r + 1;
            break;
        }
    }
    for front in &fronts[..cut] {
        assign_crowding(population, front, sorted);
    }
    for front in &fronts[cut..used_fronts] {
        for &i in front {
            population[i].rank = usize::MAX;
        }
    }
}

fn assign_crowding(population: &mut [Individual], front: &[usize], sorted: &mut Vec<usize>) {
    if front.is_empty() {
        return;
    }
    for &i in front {
        population[i].crowding = 0.0;
    }
    for objective in 0..2 {
        let value = |ind: &Individual| match objective {
            0 => ind.objectives.mean_jct_s,
            _ => ind.objectives.mean_error,
        };
        sorted.clear();
        sorted.extend_from_slice(front);
        // Unstable sort: in-place (a stable sort allocates a merge buffer on
        // every call) and deterministic for a fixed input order.
        sorted.sort_unstable_by(|&a, &b| value(&population[a]).total_cmp(&value(&population[b])));
        let min = value(&population[sorted[0]]);
        let max = value(&population[*sorted.last().unwrap()]);
        let range = (max - min).max(1e-12);
        population[sorted[0]].crowding = f64::INFINITY;
        population[*sorted.last().unwrap()].crowding = f64::INFINITY;
        for w in 1..sorted.len().saturating_sub(1) {
            let prev = value(&population[sorted[w - 1]]);
            let next = value(&population[sorted[w + 1]]);
            population[sorted[w]].crowding += (next - prev) / range;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{JobRequest, QpuState};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Scratch buffers for [`rank_and_crowd`].
    #[derive(Debug, Default)]
    struct RankScratch {
        dominated_by: Vec<Vec<usize>>,
        domination_count: Vec<usize>,
        current: Vec<usize>,
        next: Vec<usize>,
        sorted: Vec<usize>,
    }

    /// Pairwise `O(n²)` non-dominated sorting + crowding-distance assignment
    /// (in place), the oracle of [`rank_and_crowd_sweep`]. Peeling stops once
    /// at least `needed` individuals are ranked: the rest keep rank
    /// `usize::MAX` / crowding 0.
    fn rank_and_crowd(population: &mut [Individual], scratch: &mut RankScratch, needed: usize) {
        let n = population.len();
        for ind in population.iter_mut() {
            ind.rank = usize::MAX;
            ind.crowding = 0.0;
        }
        if scratch.dominated_by.len() < n {
            scratch.dominated_by.resize_with(n, Vec::new);
        }
        for list in scratch.dominated_by.iter_mut().take(n) {
            list.clear();
        }
        scratch.domination_count.clear();
        scratch.domination_count.resize(n, 0);
        // One comparison per unordered pair, updating both directions.
        for i in 0..n {
            for j in (i + 1)..n {
                if population[i].objectives.dominates(&population[j].objectives) {
                    scratch.dominated_by[i].push(j);
                    scratch.domination_count[j] += 1;
                } else if population[j].objectives.dominates(&population[i].objectives) {
                    scratch.dominated_by[j].push(i);
                    scratch.domination_count[i] += 1;
                }
            }
        }
        scratch.current.clear();
        scratch.current.extend((0..n).filter(|&i| scratch.domination_count[i] == 0));
        let mut rank = 0usize;
        let mut assigned = 0usize;
        while !scratch.current.is_empty() {
            scratch.next.clear();
            for idx in 0..scratch.current.len() {
                let i = scratch.current[idx];
                population[i].rank = rank;
                for d in 0..scratch.dominated_by[i].len() {
                    let j = scratch.dominated_by[i][d];
                    scratch.domination_count[j] -= 1;
                    if scratch.domination_count[j] == 0 {
                        scratch.next.push(j);
                    }
                }
            }
            // Crowding distance within this front.
            assign_crowding(population, &scratch.current, &mut scratch.sorted);
            assigned += scratch.current.len();
            if assigned >= needed {
                break;
            }
            std::mem::swap(&mut scratch.current, &mut scratch.next);
            rank += 1;
        }
    }

    fn random_problem(num_jobs: usize, num_qpus: usize, seed: u64) -> SchedulingProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let qpus: Vec<QpuState> = (0..num_qpus)
            .map(|i| QpuState {
                name: format!("qpu{i}"),
                num_qubits: 27,
                waiting_time_s: rng.gen_range(0.0..500.0),
                calibration_epoch: 0,
            })
            .collect();
        let jobs: Vec<JobRequest> = (0..num_jobs)
            .map(|i| JobRequest {
                job_id: i as u64,
                qubits: rng.gen_range(2..=20),
                shots: 1000,
                fidelity_per_qpu: (0..num_qpus).map(|_| rng.gen_range(0.4..0.95)).collect(),
                exec_time_per_qpu: (0..num_qpus).map(|_| rng.gen_range(5.0..60.0)).collect(),
            })
            .collect();
        SchedulingProblem::new(jobs, qpus)
    }

    #[test]
    fn pareto_front_is_mutually_non_dominated_and_feasible() {
        let problem = random_problem(40, 6, 1);
        let result = optimize(&problem, &Nsga2Config { max_generations: 30, ..Default::default() });
        assert!(!result.pareto_front.is_empty());
        for a in &result.pareto_front {
            assert!(problem.assignment_is_feasible(&a.assignment));
            for b in &result.pareto_front {
                assert!(
                    !a.objectives.dominates(&b.objectives) || a.objectives == b.objectives,
                    "front contains dominated solutions"
                );
            }
        }
    }

    #[test]
    fn front_spans_the_fidelity_jct_tradeoff() {
        let problem = random_problem(60, 8, 2);
        let result = optimize(&problem, &Nsga2Config::default());
        let front = &result.pareto_front;
        let min_jct = front.iter().map(|s| s.objectives.mean_jct_s).fold(f64::INFINITY, f64::min);
        let max_jct = front.iter().map(|s| s.objectives.mean_jct_s).fold(0.0, f64::max);
        let min_err = front.iter().map(|s| s.objectives.mean_error).fold(f64::INFINITY, f64::min);
        let max_err = front.iter().map(|s| s.objectives.mean_error).fold(0.0, f64::max);
        // A real tradeoff exists: the front is not a single point.
        assert!(front.len() >= 3, "front size = {}", front.len());
        assert!(max_jct > min_jct);
        assert!(max_err > min_err);
    }

    #[test]
    fn nsga2_beats_random_assignment_on_both_objectives() {
        let problem = random_problem(50, 6, 3);
        let result = optimize(&problem, &Nsga2Config::default());
        // Average objectives of random assignments.
        let mut rng = StdRng::seed_from_u64(99);
        let mut rand_jct = 0.0;
        let mut rand_err = 0.0;
        let trials = 50;
        for _ in 0..trials {
            let assignment: Vec<usize> = (0..problem.num_jobs())
                .map(|i| {
                    let feasible = problem.feasible_qpus(i);
                    feasible[rng.gen_range(0..feasible.len())]
                })
                .collect();
            let o = problem.evaluate(&assignment);
            rand_jct += o.mean_jct_s;
            rand_err += o.mean_error;
        }
        rand_jct /= trials as f64;
        rand_err /= trials as f64;
        let best_jct = result
            .pareto_front
            .iter()
            .map(|s| s.objectives.mean_jct_s)
            .fold(f64::INFINITY, f64::min);
        let best_err = result
            .pareto_front
            .iter()
            .map(|s| s.objectives.mean_error)
            .fold(f64::INFINITY, f64::min);
        assert!(best_jct < rand_jct, "NSGA-II best JCT {best_jct} vs random {rand_jct}");
        assert!(best_err < rand_err, "NSGA-II best error {best_err} vs random {rand_err}");
    }

    #[test]
    fn termination_respects_evaluation_budget() {
        let problem = random_problem(30, 4, 4);
        let config =
            Nsga2Config { max_evaluations: 500, population_size: 40, ..Default::default() };
        let result = optimize(&problem, &config);
        assert!(result.evaluations <= 500 + config.population_size * 2);
        assert!(result.generations >= 1);
    }

    #[test]
    fn single_qpu_problem_collapses_to_one_solution() {
        let problem = random_problem(10, 1, 5);
        let result = optimize(&problem, &Nsga2Config { max_generations: 10, ..Default::default() });
        assert_eq!(result.pareto_front.len(), 1);
        assert!(result.pareto_front[0].assignment.iter().all(|&q| q == 0));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let problem = random_problem(25, 5, 6);
        let config = Nsga2Config { max_generations: 15, ..Default::default() };
        let a = optimize(&problem, &config);
        let b = optimize(&problem, &config);
        assert_eq!(a.pareto_front.len(), b.pareto_front.len());
        assert_eq!(a.evaluations, b.evaluations);
        for (x, y) in a.pareto_front.iter().zip(&b.pareto_front) {
            assert_eq!(x.assignment, y.assignment);
            assert_eq!(x.objectives.mean_jct_s.to_bits(), y.objectives.mean_jct_s.to_bits());
        }
    }

    #[test]
    fn workspace_reuse_does_not_change_results() {
        let problem = random_problem(25, 5, 6);
        let other = random_problem(40, 3, 7);
        let config = Nsga2Config { max_generations: 15, ..Default::default() };
        let fresh = optimize(&problem, &config);
        // Dirty the workspace on a different problem shape first.
        let mut workspace = OptimizerWorkspace::new();
        let _ = optimize_with(&other, &config, &[], &mut workspace);
        let reused = optimize_with(&problem, &config, &[], &mut workspace);
        assert_eq!(fresh.pareto_front, reused.pareto_front);
        assert_eq!(fresh.evaluations, reused.evaluations);
    }

    #[test]
    fn sweep_ranking_matches_the_pairwise_oracle() {
        let mut rng = StdRng::seed_from_u64(13);
        for trial in 0..50 {
            let n = rng.gen_range(1..=64);
            let mut a: Vec<Individual> = (0..n)
                .map(|_| {
                    // Coarse grid so duplicate objective pairs and one-axis
                    // ties are common — the hard cases for front assignment.
                    let jct = rng.gen_range(0..8) as f64;
                    let err = rng.gen_range(0..8) as f64 / 10.0;
                    Individual {
                        objectives: Objectives { mean_jct_s: jct, mean_error: err, mean_cost: 0.0 },
                        ..Individual::default()
                    }
                })
                .collect();
            let mut b = a.clone();
            let needed = rng.gen_range(1..=n);
            let mut naive = RankScratch::default();
            let mut sweep = SweepScratch::default();
            rank_and_crowd(&mut a, &mut naive, needed);
            rank_and_crowd_sweep(&mut b, &mut sweep, needed);
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(
                    x.rank, y.rank,
                    "trial {trial}: rank mismatch at {i} for {:?} (needed {needed})",
                    x.objectives
                );
            }
        }
    }

    #[test]
    fn fast_math_tracks_libm_closely() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..20_000 {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let exact = u.ln();
            let approx = fast_ln(u);
            assert!(
                (exact - approx).abs() <= exact.abs().max(1.0) * 1e-6,
                "ln({u}) = {exact} vs {approx}"
            );
            let k = 1.0 / (rng.gen_range(1.0..40.0) + 1.0);
            let base: f64 = rng.gen_range(0.0..1.0);
            let exact = base.powf(k);
            let approx = pow_frac_fast(base, k);
            assert!((exact - approx).abs() < 1e-6, "{base}^{k} = {exact} vs {approx}");
        }
        assert_eq!(pow_frac_fast(0.0, 0.05), 0.0);
        assert_eq!(pow_frac_fast(1.0, 0.05), 1.0);
    }

    /// The search runs on f32 lane objectives; every returned front member
    /// carries the exact f64 objectives of its assignment.
    fn assert_front_is_exactly_evaluated(problem: &SchedulingProblem, result: &Nsga2Result) {
        for s in &result.pareto_front {
            let exact = problem.evaluate(&s.assignment);
            for (got, want) in [
                (s.objectives.mean_jct_s, exact.mean_jct_s),
                (s.objectives.mean_error, exact.mean_error),
                (s.objectives.mean_cost, exact.mean_cost),
            ] {
                assert_eq!(got.to_bits(), want.to_bits(), "{:?} vs {exact:?}", s.objectives);
            }
        }
    }

    #[test]
    fn one_island_is_the_island_loop() {
        let problem = random_problem(30, 5, 9);
        let one_island = |config: &Nsga2Config| {
            optimize_islands(&problem, config, &[], &mut OptimizerWorkspace::new(), 1, 1)
        };
        let mut workspace = OptimizerWorkspace::new();
        // `num_threads` 0 and 1 both mean one island, and so does a
        // population too small to split (6 < 2 × MIN_ISLAND_POP).
        for config in [
            Nsga2Config { num_threads: 0, ..Nsga2Config::default() },
            Nsga2Config { num_threads: 1, ..Nsga2Config::default() },
            Nsga2Config { num_threads: 8, population_size: 6, ..Nsga2Config::default() },
        ] {
            assert_eq!(effective_islands(&config), 1);
            let result = optimize_with(&problem, &config, &[], &mut workspace);
            assert_eq!(result, one_island(&config), "{config:?}");
            assert!(!result.pareto_front.is_empty());
            assert_front_is_exactly_evaluated(&problem, &result);
        }
    }

    #[test]
    fn island_mode_is_deterministic_per_seed_and_island_count() {
        let problem = random_problem(40, 6, 10);
        for islands in [2usize, 3, 4] {
            let config = Nsga2Config { num_threads: islands, ..Nsga2Config::default() };
            let mut w1 = OptimizerWorkspace::new();
            let mut w2 = OptimizerWorkspace::new();
            let a = optimize_with(&problem, &config, &[], &mut w1);
            // Dirty the second workspace on another shape first: reuse must
            // not change island results either.
            let other = random_problem(15, 3, 11);
            let _ = optimize_with(&other, &config, &[], &mut w2);
            let b = optimize_with(&problem, &config, &[], &mut w2);
            assert_eq!(a, b, "islands = {islands}");
            for s in &a.pareto_front {
                assert!(problem.assignment_is_feasible(&s.assignment));
            }
        }
        // Different island counts are allowed to differ (different streams).
        let two = optimize(&problem, &Nsga2Config { num_threads: 2, ..Nsga2Config::default() });
        assert!(!two.pareto_front.is_empty());
    }

    /// The property the island team rests on: how many threads evolve the
    /// islands, and how the islands are grouped onto them, changes nothing.
    #[test]
    fn island_team_size_never_changes_the_result() {
        let problem = random_problem(40, 6, 14);
        let cold = optimize(&problem, &Nsga2Config::default());
        let warm_seeds: Vec<Vec<usize>> =
            cold.pareto_front.iter().map(|s| s.assignment.clone()).collect();
        for islands in 1usize..=6 {
            // 61 deals unequal island populations and exercises the
            // spare child of an odd island.
            for population_size in [60usize, 61] {
                for seeds in [&[][..], &warm_seeds[..]] {
                    let config = Nsga2Config {
                        num_threads: islands,
                        population_size,
                        max_generations: 30,
                        ..Nsga2Config::default()
                    };
                    assert_eq!(effective_islands(&config), islands);
                    let run = |members: usize| {
                        let mut workspace = OptimizerWorkspace::new();
                        optimize_islands(&problem, &config, seeds, &mut workspace, islands, members)
                    };
                    let alone = run(1);
                    assert!(alone.generations > config.migration_interval, "one round only");
                    assert_front_is_exactly_evaluated(&problem, &alone);
                    // 4 islands / 3 members is the uneven case: two
                    // groups of two, so a team of two — not three.
                    for members in 2..=islands {
                        assert_eq!(
                            run(members),
                            alone,
                            "islands {islands}, members {members}, population \
                             {population_size}, {} seeds",
                            seeds.len()
                        );
                    }
                    let mut workspace = OptimizerWorkspace::new();
                    assert_eq!(optimize_with(&problem, &config, seeds, &mut workspace), alone);
                }
            }
        }
    }

    #[test]
    fn island_front_is_mutually_non_dominated() {
        let problem = random_problem(50, 8, 12);
        let result = optimize(&problem, &Nsga2Config { num_threads: 4, ..Nsga2Config::default() });
        assert!(result.pareto_front.len() >= 2);
        for a in &result.pareto_front {
            for b in &result.pareto_front {
                assert!(
                    !a.objectives.dominates(&b.objectives) || a.objectives == b.objectives,
                    "island merge left dominated solutions on the front"
                );
            }
        }
    }

    #[test]
    fn island_knobs_are_configurable_with_unchanged_defaults() {
        let defaults = Nsga2Config::default();
        assert_eq!(defaults.migration_interval, MIGRATION_INTERVAL);
        assert_eq!(defaults.min_island_pop, MIN_ISLAND_POP);

        let problem = random_problem(40, 6, 13);
        // A custom migration cadence is deterministic and feasible.
        let custom =
            Nsga2Config { num_threads: 3, migration_interval: 2, ..Nsga2Config::default() };
        let a = optimize(&problem, &custom);
        let b = optimize(&problem, &custom);
        assert_eq!(a, b);
        for s in &a.pareto_front {
            assert!(problem.assignment_is_feasible(&s.assignment));
        }
        // Raising the per-island floor clamps the island count; with a floor
        // of the whole population the run is exactly one island.
        let floor = Nsga2Config {
            num_threads: 8,
            min_island_pop: defaults.population_size,
            ..Nsga2Config::default()
        };
        let mut w1 = OptimizerWorkspace::new();
        let mut w2 = OptimizerWorkspace::new();
        let via_dispatch = optimize_with(&problem, &floor, &[], &mut w1);
        let one_island = optimize_islands(&problem, &floor, &[], &mut w2, 1, 1);
        assert_eq!(via_dispatch, one_island);
        // A degenerate zero interval is clamped, not an infinite loop.
        let zero = Nsga2Config {
            num_threads: 2,
            migration_interval: 0,
            max_generations: 6,
            ..Nsga2Config::default()
        };
        assert!(!optimize(&problem, &zero).pareto_front.is_empty());
    }

    #[test]
    fn seeded_start_repairs_and_improves_convergence() {
        let problem = random_problem(40, 6, 8);
        let config = Nsga2Config::default();
        let cold = optimize(&problem, &config);
        // Seed with the cold front plus deliberately broken assignments.
        let mut seeds: Vec<Vec<usize>> =
            cold.pareto_front.iter().map(|s| s.assignment.clone()).collect();
        seeds.push(vec![usize::MAX; problem.num_jobs()]); // fully out of range
        seeds.push(vec![0; 3]); // wrong length
        let warm = optimize_seeded(&problem, &config, &seeds);
        assert!(!warm.pareto_front.is_empty());
        for s in &warm.pareto_front {
            assert!(problem.assignment_is_feasible(&s.assignment));
        }
        // Elitism + seeding guarantee the warm run's best objectives are at
        // least as good as the cold run's. (Generation counts are NOT
        // asserted: tolerance-window termination does not guarantee a warm
        // run stops earlier, and such an assertion would be brittle to any
        // RNG-stream change — the convergence effect is measured by the
        // `nsga2_convergence` bench instead.)
        let best = |r: &Nsga2Result| {
            r.pareto_front.iter().map(|s| s.objectives.mean_jct_s).fold(f64::INFINITY, f64::min)
        };
        assert!(best(&warm) <= best(&cold) + 1e-9);
    }
}
