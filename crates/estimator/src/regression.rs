//! Polynomial regression — the model class the paper selects for fidelity and
//! execution-time prediction (§6: "Polynomial Regression yields the highest
//! accuracy, achieving an R² score of 0.998 for execution time and 0.976 for
//! fidelity prediction"). Implemented from scratch: polynomial feature
//! expansion, ordinary least squares via ridge-regularised normal equations,
//! R² scoring, and K-fold cross-validation.

/// A fitted polynomial regression model.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PolynomialRegressor {
    degree: u32,
    ridge: f64,
    /// Learned coefficients over the expanded feature vector (including bias).
    coefficients: Vec<f64>,
    /// Per-feature means used for standardisation.
    feature_means: Vec<f64>,
    /// Per-feature standard deviations used for standardisation.
    feature_stds: Vec<f64>,
}

impl PolynomialRegressor {
    /// Fit a polynomial regressor of the given degree to `(features, targets)`.
    ///
    /// # Panics
    /// Panics if the dataset is empty, rows have inconsistent lengths, or the
    /// number of samples is smaller than the expanded feature dimension.
    pub(crate) fn fit(features: &[Vec<f64>], targets: &[f64], degree: u32) -> Self {
        Self::fit_with_ridge(features, targets, degree, 1e-6)
    }

    /// Fit with an explicit ridge (L2) regularisation strength.
    pub(crate) fn fit_with_ridge(
        features: &[Vec<f64>],
        targets: &[f64],
        degree: u32,
        ridge: f64,
    ) -> Self {
        assert!(!features.is_empty(), "cannot fit on an empty dataset");
        assert_eq!(features.len(), targets.len(), "features/targets length mismatch");
        let dim = features[0].len();
        assert!(features.iter().all(|f| f.len() == dim), "inconsistent feature dimensions");

        // Standardise raw features for numerical stability.
        let (means, stds) = standardisation(features);
        let standardised: Vec<Vec<f64>> =
            features.iter().map(|row| standardise(row, &means, &stds)).collect();

        let expanded: Vec<Vec<f64>> =
            standardised.iter().map(|row| expand_polynomial(row, degree)).collect();
        let p = expanded[0].len();
        let n = expanded.len();
        assert!(n >= 2, "need at least two samples");

        // Normal equations: (XᵀX + λI) w = Xᵀ y.
        let mut xtx = vec![vec![0.0f64; p]; p];
        let mut xty = vec![0.0f64; p];
        for (row, &y) in expanded.iter().zip(targets) {
            for i in 0..p {
                xty[i] += row[i] * y;
                for j in 0..p {
                    xtx[i][j] += row[i] * row[j];
                }
            }
        }
        let effective_ridge = ridge.max(1e-9);
        for (i, row) in xtx.iter_mut().enumerate() {
            row[i] += effective_ridge;
        }
        let coefficients = solve_linear_system(xtx, xty);

        PolynomialRegressor {
            degree,
            ridge,
            coefficients,
            feature_means: means,
            feature_stds: stds,
        }
    }

    /// Predict the target for one feature vector.
    pub(crate) fn predict(&self, features: &[f64]) -> f64 {
        let standardised = standardise(features, &self.feature_means, &self.feature_stds);
        let expanded = expand_polynomial(&standardised, self.degree);
        expanded.iter().zip(&self.coefficients).map(|(x, w)| x * w).sum()
    }
}

#[cfg(test)]
impl PolynomialRegressor {
    /// R² score of the model on a dataset.
    fn score(&self, features: &[Vec<f64>], targets: &[f64]) -> f64 {
        let predictions: Vec<f64> = features.iter().map(|f| self.predict(f)).collect();
        r2_score(targets, &predictions)
    }
}

/// Coefficient of determination R².
pub(crate) fn r2_score(targets: &[f64], predictions: &[f64]) -> f64 {
    assert_eq!(targets.len(), predictions.len());
    assert!(!targets.is_empty());
    let mean = targets.iter().sum::<f64>() / targets.len() as f64;
    let ss_tot: f64 = targets.iter().map(|y| (y - mean).powi(2)).sum();
    let ss_res: f64 = targets.iter().zip(predictions).map(|(y, p)| (y - p).powi(2)).sum();
    if ss_tot < 1e-15 {
        if ss_res < 1e-15 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Expand a feature vector into polynomial terms up to `degree`: a bias term,
/// all monomials x_i, x_i·x_j (degree ≥ 2), and pure powers x_i^d.
pub(crate) fn expand_polynomial(features: &[f64], degree: u32) -> Vec<f64> {
    let mut out = Vec::with_capacity(1 + features.len() * degree as usize);
    out.push(1.0);
    out.extend_from_slice(features);
    if degree >= 2 {
        for i in 0..features.len() {
            for j in i..features.len() {
                out.push(features[i] * features[j]);
            }
        }
    }
    for d in 3..=degree {
        for &f in features {
            out.push(f.powi(d as i32));
        }
    }
    out
}

fn standardisation(features: &[Vec<f64>]) -> (Vec<f64>, Vec<f64>) {
    let dim = features[0].len();
    let n = features.len() as f64;
    let mut means = vec![0.0; dim];
    for row in features {
        for (m, &x) in means.iter_mut().zip(row) {
            *m += x;
        }
    }
    for m in &mut means {
        *m /= n;
    }
    let mut stds = vec![0.0; dim];
    for row in features {
        for ((s, &x), &m) in stds.iter_mut().zip(row).zip(&means) {
            *s += (x - m).powi(2);
        }
    }
    for s in &mut stds {
        *s = (*s / n).sqrt();
        if *s < 1e-12 {
            *s = 1.0;
        }
    }
    (means, stds)
}

fn standardise(row: &[f64], means: &[f64], stds: &[f64]) -> Vec<f64> {
    row.iter().zip(means).zip(stds).map(|((&x, &m), &s)| (x - m) / s).collect()
}

/// Solve `A x = b` with Gaussian elimination and partial pivoting.
fn solve_linear_system(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let mut pivot = col;
        for row in (col + 1)..n {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        if diag.abs() < 1e-14 {
            continue; // Singular direction; ridge term should prevent this.
        }
        for row in (col + 1)..n {
            let factor = a[row][col] / diag;
            if factor == 0.0 {
                continue;
            }
            let (pivot_rows, rest) = a.split_at_mut(row);
            let pivot = &pivot_rows[col];
            for (k, value) in rest[0].iter_mut().enumerate().skip(col) {
                *value -= factor * pivot[k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut sum = b[col];
        for k in (col + 1)..n {
            sum -= a[col][k] * x[k];
        }
        x[col] = if a[col][col].abs() < 1e-14 { 0.0 } else { sum / a[col][col] };
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn synth_dataset<R: Rng>(
        n: usize,
        rng: &mut R,
        f: impl Fn(f64, f64) -> f64,
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.gen_range(-3.0..3.0);
            let b = rng.gen_range(-3.0..3.0);
            xs.push(vec![a, b]);
            ys.push(f(a, b));
        }
        (xs, ys)
    }

    #[test]
    fn linear_function_is_fitted_exactly() {
        let mut rng = StdRng::seed_from_u64(1);
        let (xs, ys) = synth_dataset(200, &mut rng, |a, b| 3.0 * a - 2.0 * b + 5.0);
        let model = PolynomialRegressor::fit(&xs, &ys, 1);
        assert!(model.score(&xs, &ys) > 0.9999);
        assert!((model.predict(&[1.0, 1.0]) - 6.0).abs() < 1e-3);
    }

    #[test]
    fn quadratic_function_needs_degree_two() {
        let mut rng = StdRng::seed_from_u64(2);
        let (xs, ys) = synth_dataset(300, &mut rng, |a, b| a * a + 0.5 * a * b - b + 1.0);
        let linear = PolynomialRegressor::fit(&xs, &ys, 1);
        let quadratic = PolynomialRegressor::fit(&xs, &ys, 2);
        assert!(quadratic.score(&xs, &ys) > 0.999);
        assert!(quadratic.score(&xs, &ys) > linear.score(&xs, &ys));
    }

    #[test]
    fn noisy_data_still_yields_high_r2() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..500 {
            let a = rng.gen_range(0.0..10.0);
            let b = rng.gen_range(0.0..10.0);
            let noise: f64 = rng.gen_range(-0.05..0.05);
            xs.push(vec![a, b]);
            ys.push(2.0 * a + 0.3 * b * b + noise);
        }
        let model = PolynomialRegressor::fit(&xs, &ys, 2);
        assert!(model.score(&xs, &ys) > 0.99);
    }

    #[test]
    fn r2_score_edge_cases() {
        assert_eq!(r2_score(&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0]), 1.0);
        assert!(r2_score(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]) > 0.9999);
        assert!(r2_score(&[1.0, 2.0, 3.0], &[3.0, 1.0, 2.0]) < 0.5);
    }

    #[test]
    fn polynomial_expansion_term_count() {
        // degree 2 on 3 features: 1 bias + 3 linear + 6 quadratic = 10.
        assert_eq!(expand_polynomial(&[1.0, 2.0, 3.0], 2).len(), 10);
        // degree 1: bias + linear.
        assert_eq!(expand_polynomial(&[1.0, 2.0, 3.0], 1).len(), 4);
    }

    #[test]
    fn constant_feature_does_not_break_fitting() {
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, 7.0]).collect();
        let ys: Vec<f64> = (0..50).map(|i| i as f64 * 2.0).collect();
        let model = PolynomialRegressor::fit(&xs, &ys, 2);
        assert!(model.score(&xs, &ys) > 0.999);
    }

    #[test]
    #[should_panic]
    fn empty_dataset_panics() {
        PolynomialRegressor::fit(&[], &[], 1);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        PolynomialRegressor::fit(&[vec![1.0]], &[1.0, 2.0], 1);
    }
}
