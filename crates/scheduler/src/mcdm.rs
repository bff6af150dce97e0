//! Multiple-Criteria Decision-Making (MCDM) selection over the Pareto front
//! using pseudo-weights (§7, Eq. 2): pick the solution whose normalised
//! position in objective space is closest to the user's preference vector
//! `P = (p_fidelity, p_jct)` with `p_fidelity + p_jct = 1`.

use crate::nsga2::ParetoSolution;

/// Scheduling priority expressed as a preference vector over the two objectives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Preference {
    /// Relative importance of fidelity (0..=1).
    pub fidelity_weight: f64,
    /// Relative importance of (low) JCT (0..=1).
    pub jct_weight: f64,
}

impl Preference {
    /// Balanced preference (equal weights) — the paper's default.
    pub fn balanced() -> Self {
        Preference { fidelity_weight: 0.5, jct_weight: 0.5 }
    }

    /// Prioritise fidelity.
    pub fn fidelity_first() -> Self {
        Preference { fidelity_weight: 0.9, jct_weight: 0.1 }
    }

    /// Prioritise job completion time.
    pub fn jct_first() -> Self {
        Preference { fidelity_weight: 0.1, jct_weight: 0.9 }
    }

    /// Normalise the weights so that they sum to one.
    pub(crate) fn normalised(&self) -> Preference {
        let sum = (self.fidelity_weight + self.jct_weight).max(1e-12);
        Preference {
            fidelity_weight: self.fidelity_weight / sum,
            jct_weight: self.jct_weight / sum,
        }
    }
}

/// Pseudo-weights of every solution on the front: `(w_fidelity, w_jct)` per
/// solution, each measuring the normalised distance to the worst value of that
/// objective (Eq. 2). Both components of each pair sum to 1. On a degenerate
/// front where both objective ranges collapse (every solution effectively
/// identical) the weights fall back to uniform `(0.5, 0.5)` so the sum-to-1
/// invariant holds and selection stays well-defined.
pub fn pseudo_weights(front: &[ParetoSolution]) -> Vec<(f64, f64)> {
    assert!(!front.is_empty(), "cannot compute pseudo-weights of an empty front");
    let jct: Vec<f64> = front.iter().map(|s| s.objectives.mean_jct_s).collect();
    let err: Vec<f64> = front.iter().map(|s| s.objectives.mean_error).collect();
    let (jct_min, jct_max) = min_max(&jct);
    let (err_min, err_max) = min_max(&err);
    // Degeneracy is a *front-level* property: only when neither objective
    // separates any pair of solutions do the weights fall back to uniform.
    // (A per-solution check would hand a near-worst-in-both corner solution
    // the uniform weights too, making balanced selection prefer it.)
    if jct_max - jct_min <= 1e-12 && err_max - err_min <= 1e-12 {
        return vec![(0.5, 0.5); front.len()];
    }
    front
        .iter()
        .map(|s| {
            // Normalised distance to the *worst* (maximum) value: 1 = best.
            let w_jct = (jct_max - s.objectives.mean_jct_s) / (jct_max - jct_min).max(1e-12);
            let w_fid = (err_max - s.objectives.mean_error) / (err_max - err_min).max(1e-12);
            let total = (w_jct + w_fid).max(1e-12);
            (w_fid / total, w_jct / total)
        })
        .collect()
}

/// Select the Pareto solution whose pseudo-weight vector is closest (Euclidean)
/// to the preference vector. Returns the index into `front`.
pub fn select(front: &[ParetoSolution], preference: Preference) -> usize {
    assert!(!front.is_empty(), "cannot select from an empty front");
    if front.len() == 1 {
        return 0;
    }
    let pref = preference.normalised();
    pseudo_weights(front)
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            let da = (a.0 - pref.fidelity_weight).powi(2) + (a.1 - pref.jct_weight).powi(2);
            let db = (b.0 - pref.fidelity_weight).powi(2) + (b.1 - pref.jct_weight).powi(2);
            da.total_cmp(&db)
        })
        .map(|(i, _)| i)
        .expect("non-empty front")
}

fn min_max(values: &[f64]) -> (f64, f64) {
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (min, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Objectives;

    fn front() -> Vec<ParetoSolution> {
        // Four solutions spanning the tradeoff: lower JCT ↔ higher error.
        let points = [(100.0, 0.10), (200.0, 0.07), (400.0, 0.05), (800.0, 0.02)];
        points
            .iter()
            .enumerate()
            .map(|(i, &(jct, err))| ParetoSolution {
                assignment: vec![i],
                objectives: Objectives { mean_jct_s: jct, mean_error: err, mean_cost: 0.0 },
            })
            .collect()
    }

    #[test]
    fn pseudo_weights_sum_to_one_per_solution() {
        let w = pseudo_weights(&front());
        for (fid, jct) in w {
            assert!((fid + jct - 1.0).abs() < 1e-9);
            assert!(fid >= 0.0 && jct >= 0.0);
        }
    }

    #[test]
    fn extreme_solutions_get_extreme_pseudo_weights() {
        let w = pseudo_weights(&front());
        // The lowest-JCT solution has the full JCT pseudo-weight.
        assert!((w[0].1 - 1.0).abs() < 1e-9);
        // The lowest-error solution has the full fidelity pseudo-weight.
        assert!((w[3].0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn jct_priority_selects_fastest_solution() {
        let f = front();
        let idx = select(&f, Preference::jct_first());
        assert_eq!(idx, 0);
    }

    #[test]
    fn fidelity_priority_selects_highest_fidelity_solution() {
        let f = front();
        let idx = select(&f, Preference::fidelity_first());
        assert_eq!(idx, 3);
    }

    #[test]
    fn balanced_priority_selects_an_interior_solution() {
        let f = front();
        let idx = select(&f, Preference::balanced());
        assert!(idx == 1 || idx == 2, "balanced pick should be in the middle, got {idx}");
    }

    #[test]
    fn single_solution_front_is_selected_directly() {
        let f = vec![front().remove(0)];
        assert_eq!(select(&f, Preference::balanced()), 0);
    }

    #[test]
    fn preference_normalisation() {
        let p = Preference { fidelity_weight: 2.0, jct_weight: 6.0 }.normalised();
        assert!((p.fidelity_weight - 0.25).abs() < 1e-12);
        assert!((p.jct_weight - 0.75).abs() < 1e-12);
    }

    #[test]
    fn degenerate_front_falls_back_to_uniform_weights() {
        // Every solution has identical objectives: both ranges collapse.
        let f: Vec<ParetoSolution> = (0..3)
            .map(|i| ParetoSolution {
                assignment: vec![i],
                objectives: Objectives { mean_jct_s: 42.0, mean_error: 0.25, mean_cost: 0.0 },
            })
            .collect();
        for (fid, jct) in pseudo_weights(&f) {
            assert!((fid + jct - 1.0).abs() < 1e-9, "sum-to-1 must hold on degenerate fronts");
            assert!((fid - 0.5).abs() < 1e-9 && (jct - 0.5).abs() < 1e-9);
        }
        // Selection is well-defined (and deterministic) rather than arbitrary.
        assert_eq!(select(&f, Preference::balanced()), 0);
        assert_eq!(select(&f, Preference::jct_first()), 0);
    }

    /// A near-worst-in-both corner solution on a *non*-degenerate front must
    /// keep its normalised raw pseudo-weights (here ≈ (1/3, 2/3)) — the exact
    /// uniform fallback is reserved for fully collapsed fronts. (Eq. 2
    /// measures *relative* tradeoff position, so such a corner still gets
    /// interior-looking weights; what the front-level check guarantees is
    /// that the fallback never overrides the formula on a live front.)
    #[test]
    fn near_worst_corner_solution_is_not_mistaken_for_degenerate() {
        let points = [(100.0, 0.0), (0.0, 1.0), (100.0 - 1e-7, 1.0 - 5e-10)];
        let f: Vec<ParetoSolution> = points
            .iter()
            .enumerate()
            .map(|(i, &(jct, err))| ParetoSolution {
                assignment: vec![i],
                objectives: Objectives { mean_jct_s: jct, mean_error: err, mean_cost: 0.0 },
            })
            .collect();
        let w = pseudo_weights(&f);
        for (fid, jct) in &w {
            assert!((fid + jct - 1.0).abs() < 1e-9);
        }
        // Raw weights survive: w_fid/w_jct are 5e-10 and 1e-9 before
        // normalisation, i.e. (1/3, 2/3) — not the uniform (0.5, 0.5).
        assert!((w[2].0 - 1.0 / 3.0).abs() < 1e-6, "corner weights: {:?}", w[2]);
        // The extremes keep their full pseudo-weight on either objective.
        assert!((w[0].0 - 1.0).abs() < 1e-9);
        assert!((w[1].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn empty_front_panics() {
        select(&[], Preference::balanced());
    }
}
