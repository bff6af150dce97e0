//! The quantum-job scheduling problem formulation of §7, Eq. (1).
//!
//! An assignment maps each of `N` jobs to one of `Q` QPUs. The two conflicting
//! objectives are the mean job completion time (queue waiting time of the
//! chosen QPU plus the execution time of every job co-scheduled on it) and the
//! mean error (one minus the estimated fidelity of each job on its chosen
//! QPU). The qubit-capacity constraint `q_i ≤ s_{x_i}` restricts the feasible
//! QPU set of each job.
//!
//! # Hot-path layout
//!
//! Estimates are stored twice: in the caller-facing [`JobRequest`] /
//! [`QpuState`] structs, and in flat structure-of-arrays tables with stride
//! `num_qpus` (`exec`, `err`, plus a per-job feasibility bitset) that
//! [`SchedulingProblem::evaluate`] walks in one pass. A third, *transposed*
//! view stores per-QPU f32 lanes (`lane_exec`, `lane_err`, `lane_feas`,
//! stride `num_jobs`) for [`SchedulingProblem::evaluate_lanes_packed`], the
//! optimizer's branch-free chunked reduction. Both f64 views hold the
//! *sanitised* values computed by
//! [`SchedulingProblem::new`]: non-finite or out-of-range estimates are
//! clamped (a NaN/∞ from the resource estimator must penalise a placement,
//! never panic or poison the objective arithmetic), and every time/error value
//! is quantised to a dyadic grid (multiples of 2⁻²⁰ s and 2⁻³² respectively).
//!
//! The dyadic grid keeps the f64 sums exact and order-independent: per-QPU
//! sums of grid values are integers scaled by a power of two, so as long as
//! the scaled magnitude stays below 2⁵³ (≈ 8.6·10⁹ s of total assigned time
//! per QPU) every addition is exact f64 arithmetic, and an assignment's
//! objectives do not depend on the order its jobs are summed in.

/// Execution-time estimate substituted for non-finite (or negative) estimates:
/// large enough that the optimizer steers away, finite so arithmetic stays
/// well-defined.
pub(crate) const NON_FINITE_EXEC_S: f64 = 1e6;

/// Upper clamp on per-job execution estimates (seconds).
pub(crate) const MAX_EXEC_S: f64 = 1e6;

/// Upper clamp on per-QPU queue waiting-time estimates (seconds); non-finite
/// waiting times clamp here (an unknown queue is assumed maximally busy).
pub(crate) const MAX_WAIT_S: f64 = 1e8;

/// Mean-JCT penalty added per infeasibly placed job (Eq. 1 constraint
/// violation), steering the optimizer toward feasible assignments.
pub(crate) const INFEASIBLE_PENALTY_S: f64 = 1e7;

/// Upper clamp on the per-placement shot cost (credit units): keeps cost sums
/// exactly representable on the dyadic grid (see the module docs' 2⁵³
/// budget) no matter what a provider's billing table claims.
pub(crate) const MAX_PLACEMENT_COST: f64 = 1e6;

/// Times snap to multiples of 2⁻²⁰ s (≈ 1 µs): power-of-two scaling keeps
/// quantisation exact and per-QPU sums exactly representable.
const TIME_GRID: f64 = 1_048_576.0; // 2^20
/// Errors snap to multiples of 2⁻³² (≈ 2.3e-10), far below any estimator
/// resolution but exact under summation.
const ERR_GRID: f64 = 4_294_967_296.0; // 2^32

/// Snap `v` to the dyadic grid with `grid` steps per unit. Scaling by a power
/// of two is exact, `round` is exact, and the division back is exact, so the
/// result is exactly `k / grid` for an integer `k`.
fn snap(v: f64, grid: f64) -> f64 {
    (v * grid).round() / grid
}

/// Sanitised execution-time estimate: finite, non-negative, clamped to
/// [`MAX_EXEC_S`], on the time grid.
fn sanitize_exec(v: f64) -> f64 {
    let v = if v.is_finite() && v >= 0.0 { v.min(MAX_EXEC_S) } else { NON_FINITE_EXEC_S };
    snap(v, TIME_GRID)
}

/// Sanitised error (1 − fidelity): a non-finite fidelity estimate degrades to
/// the maximum error 1.0 so the optimizer penalises the placement.
fn sanitize_err(fidelity: f64) -> f64 {
    let f = if fidelity.is_finite() { fidelity.clamp(0.0, 1.0) } else { 0.0 };
    snap(1.0 - f, ERR_GRID)
}

/// Sanitised queue waiting time: finite, non-negative, clamped, on the grid.
fn sanitize_wait(v: f64) -> f64 {
    let v = if v.is_finite() { v.clamp(0.0, MAX_WAIT_S) } else { MAX_WAIT_S };
    snap(v, TIME_GRID)
}

/// Sanitised per-placement shot cost: a non-finite or negative billing entry
/// degrades to free (costs must never poison the objective arithmetic), the
/// rest clamps to [`MAX_PLACEMENT_COST`] and snaps to the time grid so cost
/// sums stay exact.
fn sanitize_cost(v: f64) -> f64 {
    let v = if v.is_finite() && v >= 0.0 { v.min(MAX_PLACEMENT_COST) } else { 0.0 };
    snap(v, TIME_GRID)
}

/// One QPU lane of a single-table reduction (the cost lane): sum `vals` over
/// the genes assigned to QPU `qm`. Same 8-accumulator shape as [`lane_fold`]
/// so results are deterministic per target; the cost lane is folded
/// separately to keep the three-table SSE2 kernel untouched.
fn lane_fold_single(genes: &[u16], vals: &[f32], qm: u16) -> f32 {
    let n = genes.len();
    debug_assert_eq!(vals.len(), n);
    let mut acc = [0.0f32; 8];
    let mut i = 0usize;
    while i + 8 <= n {
        for l in 0..8 {
            let m = (genes[i + l] == qm) as u32 as f32;
            acc[l] += m * vals[i + l];
        }
        i += 8;
    }
    while i < n {
        acc[0] += (genes[i] == qm) as u32 as f32 * vals[i];
        i += 1;
    }
    acc.iter().sum()
}

/// One QPU lane of the objective reduction: sum `exec`/`feas`/`err` over the
/// genes assigned to QPU `qm`. On x86-64 this runs hand-packed SSE2 (baseline
/// for the target, so no runtime dispatch): one 128-bit load covers eight
/// `u16` genes, a packed `pcmpeqw` builds the selection mask, and widening
/// the 16-bit mask halves to 32 bits (`punpck` of the mask with itself)
/// yields all-ones f32 masks that AND the lane values directly — no
/// branches, no int→float conversion. Other targets take the scalar
/// eight-accumulator fold below, which LLVM can autovectorize. The two
/// bodies accumulate in the same 8 partial lanes; only the final horizontal
/// reduction order differs, so results are deterministic per target.
fn lane_fold(genes: &[u16], exec: &[f32], feas: &[f32], err: &[f32], qm: u16) -> (f32, f32, f32) {
    let n = genes.len();
    debug_assert!(exec.len() == n && feas.len() == n && err.len() == n);
    let mut time_acc = [0.0f32; 8];
    let mut feas_acc = [0.0f32; 8];
    let mut err_acc = [0.0f32; 8];
    let mut i = 0usize;
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::*;
        // SAFETY: all intrinsics are SSE2, baseline on x86_64; every unaligned
        // load reads 8 u16s / 4 f32s starting at `i` or `i + 4` with
        // `i + 8 <= n` checked by the loop condition, within the equal-length
        // slices.
        unsafe {
            let qv = _mm_set1_epi16(qm as i16);
            let mut t0 = _mm_setzero_ps();
            let mut t1 = _mm_setzero_ps();
            let mut f0 = _mm_setzero_ps();
            let mut f1 = _mm_setzero_ps();
            let mut e0 = _mm_setzero_ps();
            let mut e1 = _mm_setzero_ps();
            while i + 8 <= n {
                let g = _mm_loadu_si128(genes.as_ptr().add(i) as *const __m128i);
                let m16 = _mm_cmpeq_epi16(g, qv);
                let m0 = _mm_castsi128_ps(_mm_unpacklo_epi16(m16, m16));
                let m1 = _mm_castsi128_ps(_mm_unpackhi_epi16(m16, m16));
                t0 = _mm_add_ps(t0, _mm_and_ps(m0, _mm_loadu_ps(exec.as_ptr().add(i))));
                t1 = _mm_add_ps(t1, _mm_and_ps(m1, _mm_loadu_ps(exec.as_ptr().add(i + 4))));
                f0 = _mm_add_ps(f0, _mm_and_ps(m0, _mm_loadu_ps(feas.as_ptr().add(i))));
                f1 = _mm_add_ps(f1, _mm_and_ps(m1, _mm_loadu_ps(feas.as_ptr().add(i + 4))));
                e0 = _mm_add_ps(e0, _mm_and_ps(m0, _mm_loadu_ps(err.as_ptr().add(i))));
                e1 = _mm_add_ps(e1, _mm_and_ps(m1, _mm_loadu_ps(err.as_ptr().add(i + 4))));
                i += 8;
            }
            _mm_storeu_ps(time_acc.as_mut_ptr(), t0);
            _mm_storeu_ps(time_acc.as_mut_ptr().add(4), t1);
            _mm_storeu_ps(feas_acc.as_mut_ptr(), f0);
            _mm_storeu_ps(feas_acc.as_mut_ptr().add(4), f1);
            _mm_storeu_ps(err_acc.as_mut_ptr(), e0);
            _mm_storeu_ps(err_acc.as_mut_ptr().add(4), e1);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        while i + 8 <= n {
            for l in 0..8 {
                let m = (genes[i + l] == qm) as u32 as f32;
                time_acc[l] += m * exec[i + l];
                feas_acc[l] += m * feas[i + l];
                err_acc[l] += m * err[i + l];
            }
            i += 8;
        }
    }
    while i < n {
        let m = (genes[i] == qm) as u32 as f32;
        time_acc[0] += m * exec[i];
        feas_acc[0] += m * feas[i];
        err_acc[0] += m * err[i];
        i += 1;
    }
    (time_acc.iter().sum::<f32>(), feas_acc.iter().sum::<f32>(), err_acc.iter().sum::<f32>())
}

/// One job awaiting scheduling, together with its per-QPU estimates (produced
/// by the resource estimator and fetched from the system monitor).
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Unique job identifier.
    pub job_id: u64,
    /// Number of qubits the job needs (`q_i` in Eq. 1).
    pub qubits: u32,
    /// Number of shots.
    pub shots: u32,
    /// Estimated fidelity of this job on each QPU (`f_{i,x}`), indexed by QPU.
    pub fidelity_per_qpu: Vec<f64>,
    /// Estimated execution time in seconds on each QPU (`t_{i,x}`), indexed by QPU.
    pub exec_time_per_qpu: Vec<f64>,
}

/// The scheduler-visible state of one QPU.
#[derive(Debug, Clone, PartialEq)]
pub struct QpuState {
    /// Device name.
    pub name: String,
    /// Number of qubits (`s_x` in Eq. 1).
    pub num_qubits: u32,
    /// Approximate waiting time of the device's current queue in seconds (`w_x`).
    pub waiting_time_s: f64,
    /// Calibration epoch of the snapshot the estimates were computed against
    /// (§7: estimates are only valid until the device's next recalibration
    /// boundary). Callers without an epoch clock pass 0.
    pub calibration_epoch: u64,
}

/// A fully specified scheduling problem instance.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulingProblem {
    /// Jobs to schedule in this cycle (estimates sanitised by [`Self::new`]).
    pub jobs: Vec<JobRequest>,
    /// Available QPUs (waiting times sanitised by [`Self::new`]).
    pub qpus: Vec<QpuState>,
    /// For each job, the indices of QPUs that satisfy the capacity constraint.
    feasible: Vec<Vec<usize>>,
    /// Flat execution-time table, `exec[job * num_qpus + qpu]`.
    exec: Vec<f64>,
    /// Flat error table (1 − fidelity), `err[job * num_qpus + qpu]`.
    err: Vec<f64>,
    /// Capacity-feasibility bitset: bit `qpu` of the `mask_words` words
    /// starting at `job * mask_words` is set when the placement is feasible.
    feasible_bits: Vec<u64>,
    /// Number of `u64` words per job row in `feasible_bits`.
    mask_words: usize,
    /// Transposed f32 execution-time lanes, `lane_exec[qpu * num_jobs + job]`
    /// (all placements, feasible or not — they occupy the device either way).
    lane_exec: Vec<f32>,
    /// Transposed f32 error lanes: the job's error on the QPU when feasible,
    /// `1.0` when infeasible (matching the full error an infeasible placement
    /// contributes to the mean-error objective).
    lane_err: Vec<f32>,
    /// Transposed f32 feasibility lanes: `1.0` when feasible, else `0.0`.
    lane_feas: Vec<f32>,
    /// Sanitised per-QPU queue waiting times.
    wait: Vec<f64>,
    /// `nearest[job * num_qpus + r]` = the feasible QPU(s) nearest to index
    /// `r`: `(lo, hi)` with `lo == hi` when unambiguous, two equidistant
    /// candidates otherwise, and `(MAX, MAX)` for jobs with no feasible QPU.
    /// Lets the optimizer snap a real-valued gene in O(1).
    nearest: Vec<(u32, u32)>,
    /// Optional calibration-boundary penalty (see
    /// [`Self::with_boundary_penalty`]). `None` leaves the objectives
    /// bit-for-bit identical to a problem built without the penalty.
    boundary: Option<BoundaryPenalty>,
    /// Optional per-placement shot-cost objective lane (see
    /// [`Self::with_shot_costs`]). `None` leaves the objectives bit-for-bit
    /// identical to a problem built without costs.
    costs: Option<ShotCosts>,
}

/// Soft penalty steering the optimizer away from plans that spill past a
/// QPU's next recalibration: estimates are only valid until the boundary, so
/// work scheduled beyond it must be deferred or split at dispatch time.
#[derive(Debug, Clone, PartialEq)]
struct BoundaryPenalty {
    /// Seconds from now until each QPU's next calibration boundary
    /// (`f64::INFINITY` = no upcoming boundary, index-aligned with `qpus`).
    horizon_s: Vec<f64>,
    /// Seconds of JCT-sum penalty added per second a QPU's planned busy time
    /// (queue wait + newly assigned work) overruns its horizon.
    weight: f64,
}

/// The federation cost lane: per-placement monetary cost
/// (`shots × cost_per_shot[qpu]`) mirrored into both evaluation layouts.
/// The cost sum is reported as [`Objectives::mean_cost`] and, scaled by
/// `weight`, folded into the JCT objective so the optimizer trades turnaround
/// against spend. Dominance stays two-dimensional — the cost lane steers
/// through the scalarised JCT like the boundary penalty does, which keeps the
/// 2-D Pareto sweep, crowding, and MCDM layers untouched.
#[derive(Debug, Clone, PartialEq)]
struct ShotCosts {
    /// Flat sanitised cost table, `cost[job * num_qpus + qpu]`, on the time
    /// grid so sums are exact.
    cost: Vec<f64>,
    /// Transposed f32 cost lanes, `lane_cost[qpu * num_jobs + job]`, for
    /// [`SchedulingProblem::evaluate_lanes_packed`].
    lane_cost: Vec<f32>,
    /// Seconds of JCT-sum pressure per credit unit of plan cost.
    weight: f64,
}

/// Sentinel in the nearest-feasible table for jobs with an empty feasible set.
pub(crate) const NO_FEASIBLE: u32 = u32::MAX;

/// The objective values of one assignment (all minimised). `mean_jct_s` and
/// `mean_error` are the two Pareto dimensions of Eq. (1); `mean_cost` is the
/// federation cost lane, reported for MCDM tie-breaking and diagnostics and
/// folded into `mean_jct_s` (scaled by the cost weight) during the search —
/// it does **not** participate in `Objectives::dominates`, which keeps the
/// 2-D non-dominated sort intact. Always `0.0` when no cost lane is attached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// Mean job completion time in seconds (`f₁`).
    pub mean_jct_s: f64,
    /// Mean error = 1 − mean fidelity (`f₂`).
    pub mean_error: f64,
    /// Mean per-job placement cost in credit units (federation lane).
    pub mean_cost: f64,
}

impl Objectives {
    /// Mean fidelity of the assignment.
    pub fn mean_fidelity(&self) -> f64 {
        1.0 - self.mean_error
    }

    /// Pareto dominance over the two Eq. (1) objectives: `self` dominates
    /// `other` if it is no worse in both and strictly better in at least one.
    /// `mean_cost` is deliberately excluded — cost pressure reaches the
    /// search through the scalarised JCT term (see
    /// [`SchedulingProblem::with_shot_costs`]).
    pub(crate) fn dominates(&self, other: &Objectives) -> bool {
        let no_worse = self.mean_jct_s <= other.mean_jct_s && self.mean_error <= other.mean_error;
        let better = self.mean_jct_s < other.mean_jct_s || self.mean_error < other.mean_error;
        no_worse && better
    }
}

impl SchedulingProblem {
    /// Build a problem instance, computing the per-job feasible QPU sets and
    /// the flat evaluation tables. Estimates are sanitised here (see the
    /// module docs): non-finite fidelities degrade to 0, non-finite execution
    /// times to `NON_FINITE_EXEC_S`, non-finite waiting times to
    /// `MAX_WAIT_S`, and everything snaps to the dyadic grid that keeps
    /// f64 sums exact. The sanitised values are written back into the public
    /// `jobs` / `qpus` so every view agrees.
    ///
    /// # Panics
    /// Panics if `jobs` or `qpus` is empty, if there are more than 2¹⁶ QPUs
    /// (the optimizer packs a QPU index into a `u16` gene), or if estimate
    /// vectors have the wrong length.
    pub fn new(mut jobs: Vec<JobRequest>, mut qpus: Vec<QpuState>) -> Self {
        assert!(!jobs.is_empty(), "scheduling problem needs at least one job");
        assert!(!qpus.is_empty(), "scheduling problem needs at least one QPU");
        assert!(qpus.len() <= 1 << 16, "scheduling problem has more than 2^16 QPUs");
        let num_qpus = qpus.len();
        for j in &jobs {
            assert_eq!(j.fidelity_per_qpu.len(), num_qpus, "job {} fidelity estimates", j.job_id);
            assert_eq!(j.exec_time_per_qpu.len(), num_qpus, "job {} time estimates", j.job_id);
        }
        for q in &mut qpus {
            q.waiting_time_s = sanitize_wait(q.waiting_time_s);
        }
        let wait: Vec<f64> = qpus.iter().map(|q| q.waiting_time_s).collect();
        let mask_words = num_qpus.div_ceil(64);
        let mut exec = Vec::with_capacity(jobs.len() * num_qpus);
        let mut err = Vec::with_capacity(jobs.len() * num_qpus);
        let mut feasible_bits = vec![0u64; jobs.len() * mask_words];
        let mut feasible = Vec::with_capacity(jobs.len());
        for (i, j) in jobs.iter_mut().enumerate() {
            for t in &mut j.exec_time_per_qpu {
                *t = sanitize_exec(*t);
                exec.push(*t);
            }
            for f in &mut j.fidelity_per_qpu {
                let e = sanitize_err(*f);
                // 1 − k·2⁻³² is exact, so the stored fidelity mirrors `err`.
                *f = 1.0 - e;
                err.push(e);
            }
            let mut set = Vec::new();
            for (idx, q) in qpus.iter().enumerate() {
                if q.num_qubits >= j.qubits {
                    feasible_bits[i * mask_words + idx / 64] |= 1u64 << (idx % 64);
                    set.push(idx);
                }
            }
            feasible.push(set);
        }
        // Transposed f32 lanes: one contiguous run per QPU so the objective
        // reduction streams each lane without gathers.
        let num_jobs = jobs.len();
        let mut lane_exec = vec![0.0f32; num_jobs * num_qpus];
        let mut lane_err = vec![0.0f32; num_jobs * num_qpus];
        let mut lane_feas = vec![0.0f32; num_jobs * num_qpus];
        for i in 0..num_jobs {
            for q in 0..num_qpus {
                let ok = feasible_bits[i * mask_words + q / 64] >> (q % 64) & 1 != 0;
                lane_exec[q * num_jobs + i] = exec[i * num_qpus + q] as f32;
                lane_err[q * num_jobs + i] = if ok { err[i * num_qpus + q] as f32 } else { 1.0 };
                lane_feas[q * num_jobs + i] = if ok { 1.0 } else { 0.0 };
            }
        }
        let mut nearest = Vec::with_capacity(jobs.len() * num_qpus);
        for set in &feasible {
            if set.is_empty() {
                nearest.extend(std::iter::repeat_n((NO_FEASIBLE, NO_FEASIBLE), num_qpus));
                continue;
            }
            for r in 0..num_qpus {
                // `set` is ascending; find the nearest member(s) to index r.
                let idx = set.partition_point(|&q| q < r);
                let entry = if idx == 0 {
                    (set[0] as u32, set[0] as u32)
                } else if idx == set.len() {
                    (set[set.len() - 1] as u32, set[set.len() - 1] as u32)
                } else {
                    let lo = set[idx - 1];
                    let hi = set[idx];
                    match (r - lo).cmp(&(hi - r)) {
                        std::cmp::Ordering::Less => (lo as u32, lo as u32),
                        std::cmp::Ordering::Greater => (hi as u32, hi as u32),
                        std::cmp::Ordering::Equal => (lo as u32, hi as u32),
                    }
                };
                nearest.push(entry);
            }
        }
        SchedulingProblem {
            jobs,
            qpus,
            feasible,
            exec,
            err,
            feasible_bits,
            mask_words,
            lane_exec,
            lane_err,
            lane_feas,
            wait,
            nearest,
            boundary: None,
            costs: None,
        }
    }

    /// Attach a calibration-boundary penalty: `horizon_s[q]` is the number of
    /// seconds until QPU `q`'s next recalibration (non-finite or missing =
    /// no boundary), and `weight` scales the JCT-sum penalty per second a
    /// QPU's planned busy time overruns its horizon. A zero/negative weight
    /// disables it entirely.
    pub fn with_boundary_penalty(mut self, horizon_s: &[f64], weight: f64) -> Self {
        if weight <= 0.0 || !weight.is_finite() {
            self.boundary = None;
            return self;
        }
        let horizon_s: Vec<f64> = (0..self.num_qpus())
            .map(|q| match horizon_s.get(q) {
                Some(&h) if h.is_finite() => snap(h.max(0.0), TIME_GRID),
                _ => f64::INFINITY,
            })
            .collect();
        self.boundary = Some(BoundaryPenalty { horizon_s, weight });
        self
    }

    /// Attach the federation cost lane: `cost_per_shot[q]` is QPU `q`'s
    /// per-shot price in credit units (non-finite, negative, or missing
    /// entries degrade to free), and `weight` scales the JCT-sum pressure per
    /// credit unit of total plan cost. Each placement's cost is
    /// `shots × cost_per_shot[qpu]`, sanitised and snapped to the dyadic grid
    /// so cost sums are exact; the lane is also mirrored into transposed f32
    /// lanes for the optimizer. A zero/negative weight disables the lane
    /// entirely, leaving every objective bit-identical to a cost-free
    /// problem.
    pub fn with_shot_costs(mut self, cost_per_shot: &[f64], weight: f64) -> Self {
        if weight <= 0.0 || !weight.is_finite() {
            self.costs = None;
            return self;
        }
        let num_qpus = self.num_qpus();
        let num_jobs = self.num_jobs();
        let mut cost = Vec::with_capacity(num_jobs * num_qpus);
        for j in &self.jobs {
            for q in 0..num_qpus {
                let per_shot = cost_per_shot.get(q).copied().unwrap_or(0.0);
                cost.push(sanitize_cost(f64::from(j.shots) * per_shot));
            }
        }
        let mut lane_cost = vec![0.0f32; num_jobs * num_qpus];
        for (i, row) in cost.chunks_exact(num_qpus).enumerate() {
            for (q, &c) in row.iter().enumerate() {
                lane_cost[q * num_jobs + i] = c as f32;
            }
        }
        self.costs = Some(ShotCosts { cost, lane_cost, weight });
        self
    }

    /// The nearest-feasible row for `job` (length `num_qpus`). The
    /// optimizer's branch-free snap hoists this once per gene and indexes it with
    /// the row length itself, so the bounds check vanishes; entries are
    /// [`NO_FEASIBLE`] pairs when the job has no feasible QPU.
    #[inline]
    pub(crate) fn snap_row(&self, job: usize) -> &[(u32, u32)] {
        let q = self.num_qpus();
        &self.nearest[job * q..job * q + q]
    }

    /// The whole nearest-feasible table, row-major with stride `num_qpus`.
    /// Hot loops walk it with `chunks_exact(num_qpus)` alongside the gene
    /// vector, which removes the per-gene slice range checks [`snap_row`]
    /// pays.
    #[inline]
    pub(crate) fn snap_table(&self) -> &[(u32, u32)] {
        &self.nearest
    }

    /// Number of jobs (`N`).
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Number of QPUs (`Q`).
    pub fn num_qpus(&self) -> usize {
        self.qpus.len()
    }

    /// Feasible QPU indices for job `i`.
    pub fn feasible_qpus(&self, job: usize) -> &[usize] {
        &self.feasible[job]
    }

    /// Feasibility-bitset lookup (callers guarantee `qpu < num_qpus`).
    #[inline]
    fn feasible_bit(&self, job: usize, qpu: usize) -> bool {
        self.feasible_bits[job * self.mask_words + qpu / 64] >> (qpu % 64) & 1 != 0
    }

    /// `true` if placing `job` on `qpu` satisfies the capacity constraint.
    pub(crate) fn placement_is_feasible(&self, job: usize, qpu: usize) -> bool {
        qpu < self.num_qpus() && self.feasible_bit(job, qpu)
    }

    /// `true` if the assignment respects every job's capacity constraint.
    pub fn assignment_is_feasible(&self, assignment: &[usize]) -> bool {
        assignment.len() == self.num_jobs()
            && assignment.iter().enumerate().all(|(i, &q)| self.placement_is_feasible(i, q))
    }

    /// Evaluate the two objectives of Eq. (1) for an assignment
    /// (`assignment[i]` = QPU index of job `i`). Infeasible job placements are
    /// penalised with `INFEASIBLE_PENALTY_S` so the optimizer steers away
    /// from them.
    pub fn evaluate(&self, assignment: &[usize]) -> Objectives {
        assert_eq!(assignment.len(), self.num_jobs());
        let num_qpus = self.num_qpus();
        // Per QPU: the execution time newly assigned to it (infeasible
        // placements occupy the device too) and its feasibly placed jobs.
        let mut assigned_time = vec![0.0f64; num_qpus];
        let mut feasible_count = vec![0u32; num_qpus];
        let (mut err_sum, mut cost_sum, mut infeasible) = (0.0f64, 0.0f64, 0u32);
        for (job, &qpu) in assignment.iter().enumerate() {
            let k = job * num_qpus + qpu;
            assigned_time[qpu] += self.exec[k];
            if let Some(c) = &self.costs {
                cost_sum += c.cost[k];
            }
            if self.feasible_bit(job, qpu) {
                feasible_count[qpu] += 1;
                err_sum += self.err[k];
            } else {
                infeasible += 1;
            }
        }
        let n = self.num_jobs() as f64;
        let mut jct_sum = f64::from(infeasible) * INFEASIBLE_PENALTY_S;
        for ((&count, &wait), &time) in feasible_count.iter().zip(&self.wait).zip(&assigned_time) {
            jct_sum += f64::from(count) * (wait + time);
        }
        if let Some(b) = &self.boundary {
            for ((&wait, &time), &horizon) in self.wait.iter().zip(&assigned_time).zip(&b.horizon_s)
            {
                let over = wait + time - horizon;
                if over > 0.0 {
                    jct_sum += b.weight * over;
                }
            }
        }
        let mut mean_cost = 0.0;
        if let Some(c) = &self.costs {
            jct_sum += c.weight * cost_sum;
            mean_cost = cost_sum / n;
        }
        let err_total = err_sum + f64::from(infeasible);
        Objectives { mean_jct_s: jct_sum / n, mean_error: err_total / n, mean_cost }
    }

    /// Evaluate the two objectives over the transposed f32 lanes: one
    /// branch-free chunked fold per QPU lane (the selection mask is a
    /// compare-and-convert, so the compiler auto-vectorizes the inner loop).
    /// Semantically equivalent to [`Self::evaluate`] up to f32 rounding —
    /// this is the optimizer's search objective; the front it returns is
    /// re-evaluated with [`Self::evaluate`]. The genes are a packed `u16`
    /// buffer: no widening pass, no allocation, and the gene stream occupies
    /// a quarter of the cache footprint of a `usize` assignment.
    pub fn evaluate_lanes_packed(&self, genes: &[u16]) -> Objectives {
        let n = self.num_jobs();
        assert_eq!(genes.len(), n);
        let num_qpus = self.num_qpus();
        let mut jct_sum = 0.0f64;
        let mut err_total = 0.0f64;
        let mut feas_total = 0.0f64;
        let mut cost_total = 0.0f64;
        for q in 0..num_qpus {
            let qm = q as u16;
            let exec_lane = &self.lane_exec[q * n..(q + 1) * n];
            let err_lane = &self.lane_err[q * n..(q + 1) * n];
            let feas_lane = &self.lane_feas[q * n..(q + 1) * n];
            let (time32, feas32, errs32) = lane_fold(genes, exec_lane, feas_lane, err_lane, qm);
            let time = f64::from(time32);
            let feas = f64::from(feas32);
            let errs = f64::from(errs32);
            let busy = self.wait[q] + time;
            jct_sum += feas * busy;
            err_total += errs;
            feas_total += feas;
            if let Some(b) = &self.boundary {
                let over = busy - b.horizon_s[q];
                if over > 0.0 {
                    jct_sum += b.weight * over;
                }
            }
            if let Some(c) = &self.costs {
                let cost_lane = &c.lane_cost[q * n..(q + 1) * n];
                cost_total += f64::from(lane_fold_single(genes, cost_lane, qm));
            }
        }
        // Every job is assigned exactly once, so the infeasible count is the
        // complement of the feasible count; infeasible error contributions of
        // 1.0 are already folded into `lane_err`.
        let infeasible = (n as f64 - feas_total).max(0.0);
        jct_sum += infeasible * INFEASIBLE_PENALTY_S;
        let mut mean_cost = 0.0;
        if let Some(c) = &self.costs {
            jct_sum += c.weight * cost_total;
            mean_cost = cost_total / n as f64;
        }
        Objectives { mean_jct_s: jct_sum / n as f64, mean_error: err_total / n as f64, mean_cost }
    }
}

#[cfg(test)]
impl SchedulingProblem {
    /// [`Self::evaluate_lanes_packed`] over a `usize` assignment.
    fn evaluate_lanes(&self, assignment: &[usize]) -> Objectives {
        let genes: Vec<u16> = assignment.iter().map(|&q| q as u16).collect();
        self.evaluate_lanes_packed(&genes)
    }

    /// Per-job completion times (seconds) under an assignment: the
    /// per-job view whose mean [`Self::evaluate`] reports.
    fn job_completion_times(&self, assignment: &[usize]) -> Vec<f64> {
        let stride = self.num_qpus();
        let mut assigned_time = vec![0.0f64; stride];
        for (i, &q) in assignment.iter().enumerate() {
            assigned_time[q] += self.exec[i * stride + q];
        }
        assignment.iter().map(|&q| self.wait[q] + assigned_time[q]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn toy_problem() -> SchedulingProblem {
        let qpus = vec![
            QpuState {
                name: "fast_noisy".into(),
                num_qubits: 27,
                waiting_time_s: 0.0,
                calibration_epoch: 0,
            },
            QpuState {
                name: "slow_good".into(),
                num_qubits: 27,
                waiting_time_s: 100.0,
                calibration_epoch: 0,
            },
            QpuState {
                name: "small".into(),
                num_qubits: 7,
                waiting_time_s: 10.0,
                calibration_epoch: 0,
            },
        ];
        let jobs = (0..4)
            .map(|i| JobRequest {
                job_id: i,
                qubits: if i == 3 { 20 } else { 5 },
                shots: 1000,
                fidelity_per_qpu: vec![0.6, 0.9, 0.7],
                exec_time_per_qpu: vec![10.0, 10.0, 12.0],
            })
            .collect();
        SchedulingProblem::new(jobs, qpus)
    }

    #[test]
    fn qpu_epochs_mirror_the_input_states() {
        let mut p = toy_problem();
        let epochs = |p: &SchedulingProblem| -> Vec<u64> {
            p.qpus.iter().map(|q| q.calibration_epoch).collect()
        };
        assert_eq!(epochs(&p), [0, 0, 0]);
        let mut qpus = p.qpus.clone();
        for (i, q) in qpus.iter_mut().enumerate() {
            q.calibration_epoch = 5 + i as u64;
        }
        p = SchedulingProblem::new(p.jobs, qpus);
        assert_eq!(epochs(&p), [5, 6, 7], "epoch tags survive problem construction");
    }

    #[test]
    fn feasible_sets_respect_capacity() {
        let p = toy_problem();
        assert_eq!(p.feasible_qpus(0), &[0, 1, 2]);
        assert_eq!(p.feasible_qpus(3), &[0, 1], "20-qubit job cannot use the 7-qubit QPU");
        assert!((0..p.num_jobs()).all(|j| !p.feasible_qpus(j).is_empty()));
        assert!(p.placement_is_feasible(0, 2));
        assert!(!p.placement_is_feasible(3, 2));
        assert!(!p.placement_is_feasible(0, 99), "out-of-range QPU is never feasible");
    }

    #[test]
    fn evaluate_accounts_for_queue_and_co_scheduled_jobs() {
        let p = toy_problem();
        // All four jobs on QPU 0: each job's JCT = 0 (wait) + 40 (all co-scheduled).
        let all_zero = vec![0, 0, 0, 0];
        let obj = p.evaluate(&all_zero);
        assert!((obj.mean_jct_s - 40.0).abs() < 1e-9);
        assert!((obj.mean_error - 0.4).abs() < 1e-9);
        // Spread over QPUs 0 and 1: lower mean JCT contribution from co-scheduling
        // but QPU 1 carries its 100 s queue.
        let spread = vec![0, 0, 1, 1];
        let obj2 = p.evaluate(&spread);
        assert!((obj2.mean_jct_s - ((20.0 + 20.0 + 120.0 + 120.0) / 4.0)).abs() < 1e-9);
        assert!(obj2.mean_error < obj.mean_error);
    }

    #[test]
    fn infeasible_assignment_is_penalised() {
        let p = toy_problem();
        let bad = vec![2, 2, 2, 2]; // job 3 (20 qubits) cannot run on the 7-qubit QPU
        assert!(!p.assignment_is_feasible(&bad));
        let obj = p.evaluate(&bad);
        assert!(obj.mean_jct_s > 1e6);
    }

    #[test]
    fn dominance_relation() {
        let a = Objectives { mean_jct_s: 10.0, mean_error: 0.1, mean_cost: 0.0 };
        let b = Objectives { mean_jct_s: 20.0, mean_error: 0.2, mean_cost: 0.0 };
        let c = Objectives { mean_jct_s: 5.0, mean_error: 0.3, mean_cost: 0.0 };
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&c) && !c.dominates(&a), "a and c are incomparable");
        assert!(!a.dominates(&a), "dominance is irreflexive");
        // The cost lane never participates in dominance.
        let pricey = Objectives { mean_cost: 99.0, ..a };
        assert!(pricey.dominates(&b) && !b.dominates(&pricey));
    }

    #[test]
    fn completion_times_match_objective_mean() {
        let p = toy_problem();
        let assignment = vec![0, 1, 0, 1];
        let jcts = p.job_completion_times(&assignment);
        let mean: f64 = jcts.iter().sum::<f64>() / jcts.len() as f64;
        assert!((mean - p.evaluate(&assignment).mean_jct_s).abs() < 1e-9);
    }

    #[test]
    fn non_finite_estimates_are_sanitised_not_propagated() {
        let qpus = vec![
            QpuState {
                name: "a".into(),
                num_qubits: 27,
                waiting_time_s: f64::NAN,
                calibration_epoch: 0,
            },
            QpuState {
                name: "b".into(),
                num_qubits: 27,
                waiting_time_s: 5.0,
                calibration_epoch: 0,
            },
        ];
        let jobs = vec![JobRequest {
            job_id: 0,
            qubits: 5,
            shots: 100,
            fidelity_per_qpu: vec![f64::NAN, 0.9],
            exec_time_per_qpu: vec![f64::INFINITY, 10.0],
        }];
        let p = SchedulingProblem::new(jobs, qpus);
        // NaN wait clamps to the maximum: the unknown queue is maximally busy.
        assert_eq!(p.qpus[0].waiting_time_s, MAX_WAIT_S);
        // NaN fidelity degrades to zero; ∞ exec degrades to the finite marker.
        assert_eq!(p.jobs[0].fidelity_per_qpu[0], 0.0);
        assert_eq!(p.jobs[0].exec_time_per_qpu[0], NON_FINITE_EXEC_S);
        let on_bad = p.evaluate(&[0]);
        let on_good = p.evaluate(&[1]);
        assert!(on_bad.mean_jct_s.is_finite() && on_bad.mean_error.is_finite());
        assert!(on_bad.mean_error > on_good.mean_error, "NaN placement is penalised");
        assert!(on_bad.mean_jct_s > on_good.mean_jct_s);
    }

    #[test]
    #[should_panic]
    fn empty_problem_panics() {
        SchedulingProblem::new(vec![], vec![]);
    }

    /// A QPU index must fit the optimizer's `u16` gene.
    #[test]
    #[should_panic(expected = "more than 2^16 QPUs")]
    fn a_fleet_wider_than_a_u16_gene_panics() {
        let num_qpus = (1 << 16) + 1;
        let qpus = (0..num_qpus)
            .map(|i| QpuState {
                name: format!("q{i}"),
                num_qubits: 27,
                waiting_time_s: 0.0,
                calibration_epoch: 0,
            })
            .collect();
        let job = JobRequest {
            job_id: 0,
            qubits: 5,
            shots: 100,
            fidelity_per_qpu: vec![0.9; num_qpus],
            exec_time_per_qpu: vec![10.0; num_qpus],
        };
        SchedulingProblem::new(vec![job], qpus);
    }

    #[test]
    fn lane_evaluation_tracks_the_exact_path() {
        let p = toy_problem();
        for assignment in [vec![0, 0, 0, 0], vec![0, 1, 2, 1], vec![2, 2, 2, 2], vec![1, 0, 2, 0]] {
            let exact = p.evaluate(&assignment);
            let lanes = p.evaluate_lanes(&assignment);
            let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(1.0);
            assert!(rel(exact.mean_jct_s, lanes.mean_jct_s) < 1e-4, "{exact:?} vs {lanes:?}");
            assert!(rel(exact.mean_error, lanes.mean_error) < 1e-4, "{exact:?} vs {lanes:?}");
        }
    }

    #[test]
    fn boundary_penalty_only_fires_past_the_horizon() {
        let base = toy_problem();
        let assignment = vec![0, 0, 0, 0]; // 40 s of work on QPU 0 (wait 0)
        let unpenalised = base.evaluate(&assignment);

        // Horizon beyond the planned busy time: objectives are bit-identical.
        let roomy = toy_problem().with_boundary_penalty(&[100.0, 100.0, 100.0], 2.0);
        assert!(roomy.boundary.is_some());
        let o = roomy.evaluate(&assignment);
        assert_eq!(o.mean_jct_s.to_bits(), unpenalised.mean_jct_s.to_bits());

        // Horizon at 30 s: 10 s overrun × weight 2 / 4 jobs = +5 s mean JCT.
        let tight = toy_problem().with_boundary_penalty(&[30.0, 100.0, 100.0], 2.0);
        let t = tight.evaluate(&assignment);
        assert!((t.mean_jct_s - (unpenalised.mean_jct_s + 5.0)).abs() < 1e-9);
        assert_eq!(t.mean_error.to_bits(), unpenalised.mean_error.to_bits());

        // The lane path applies the penalty too.
        let lanes = tight.evaluate_lanes(&assignment);
        assert!((lanes.mean_jct_s - t.mean_jct_s).abs() / t.mean_jct_s < 1e-4);

        // Zero or non-finite weights disable the penalty outright.
        assert!(toy_problem().with_boundary_penalty(&[30.0], 0.0).boundary.is_none());
        assert!(toy_problem().with_boundary_penalty(&[30.0], f64::NAN).boundary.is_none());
    }

    #[test]
    fn cost_lane_prices_placements_without_touching_other_objectives() {
        let base = toy_problem();
        let assignment = vec![0, 0, 1, 1];
        let free = base.evaluate(&assignment);
        assert_eq!(free.mean_cost, 0.0, "no lane attached → zero cost");

        // 1000 shots each at 2.0 / 0.5 / 0.1 credits per shot.
        let prices = [2.0, 0.5, 0.1];
        let weight = 0.001;
        let priced = toy_problem().with_shot_costs(&prices, weight);
        assert!(priced.costs.is_some());
        let o = priced.evaluate(&assignment);
        let expected_cost = (2.0 * 2000.0 + 2.0 * 500.0) / 4.0;
        assert!((o.mean_cost - expected_cost).abs() < 1e-9, "{o:?}");
        // Cost reaches the search as scalarised JCT pressure...
        let expected_jct = free.mean_jct_s + weight * expected_cost * 4.0 / 4.0;
        assert!((o.mean_jct_s - expected_jct).abs() < 1e-9);
        // ...and never perturbs the error objective.
        assert_eq!(o.mean_error.to_bits(), free.mean_error.to_bits());

        // The f32 lane path agrees to lane tolerance.
        let lanes = priced.evaluate_lanes(&assignment);
        assert!((lanes.mean_cost - o.mean_cost).abs() / o.mean_cost.max(1.0) < 1e-4);
        assert!((lanes.mean_jct_s - o.mean_jct_s).abs() / o.mean_jct_s < 1e-4);

        // A disabled lane leaves every objective bit-identical to cost-free.
        let disabled = toy_problem().with_shot_costs(&prices, 0.0);
        assert!(disabled.costs.is_none());
        let d = disabled.evaluate(&assignment);
        assert_eq!(d.mean_jct_s.to_bits(), free.mean_jct_s.to_bits());
        assert_eq!(d.mean_cost, 0.0);
        assert!(toy_problem().with_shot_costs(&prices, f64::NAN).costs.is_none());

        // Billing garbage degrades to free instead of poisoning objectives.
        let weird = toy_problem().with_shot_costs(&[f64::NAN, -3.0], 1.0);
        let w = weird.evaluate(&assignment);
        assert_eq!(w.mean_cost, 0.0);
        assert!(w.mean_jct_s.is_finite());
    }
}
