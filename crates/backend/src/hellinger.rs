//! Hellinger fidelity between measurement-outcome distributions — the quantum
//! performance metric used throughout the paper (§2.1).

use std::collections::HashMap;

/// A probability distribution (or histogram of counts) over measurement
/// bitstrings, keyed by the integer value of the measured classical register.
pub type Distribution = HashMap<u64, f64>;

/// Normalise a histogram of counts into a probability distribution.
/// Returns an empty map if the total weight is zero.
pub(crate) fn normalize(counts: &Distribution) -> Distribution {
    let total: f64 = counts.values().sum();
    if total <= 0.0 {
        return Distribution::new();
    }
    counts.iter().map(|(&k, &v)| (k, v / total)).collect()
}

/// Hellinger distance H(p, q) = sqrt(1 - Σ sqrt(p_i q_i)) between two
/// (automatically normalised) distributions.
pub(crate) fn hellinger_distance(p: &Distribution, q: &Distribution) -> f64 {
    let p = normalize(p);
    let q = normalize(q);
    let mut bc = 0.0; // Bhattacharyya coefficient
    for (k, &pv) in &p {
        if let Some(&qv) = q.get(k) {
            bc += (pv * qv).sqrt();
        }
    }
    (1.0 - bc.min(1.0)).max(0.0).sqrt()
}

/// Hellinger fidelity `(1 - H²)²` between two distributions, matching Qiskit's
/// `hellinger_fidelity`. Ranges in [0, 1]; 1 means identical distributions.
pub fn hellinger_fidelity(p: &Distribution, q: &Distribution) -> f64 {
    let h = hellinger_distance(p, q);
    let f = (1.0 - h * h).powi(2);
    f.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn distribution_from(pairs: &[(u64, f64)]) -> Distribution {
        pairs.iter().copied().collect()
    }

    #[test]
    fn identical_distributions_have_unit_fidelity() {
        let p = distribution_from(&[(0, 0.5), (3, 0.5)]);
        assert!((hellinger_fidelity(&p, &p) - 1.0).abs() < 1e-12);
        assert!(hellinger_distance(&p, &p).abs() < 1e-9);
    }

    #[test]
    fn disjoint_distributions_have_zero_fidelity() {
        let p = distribution_from(&[(0, 1.0)]);
        let q = distribution_from(&[(1, 1.0)]);
        assert!((hellinger_fidelity(&p, &q)).abs() < 1e-12);
        assert!((hellinger_distance(&p, &q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counts_are_normalised_automatically() {
        let p = distribution_from(&[(0, 512.0), (3, 512.0)]);
        let q = distribution_from(&[(0, 0.5), (3, 0.5)]);
        assert!((hellinger_fidelity(&p, &q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_is_between_zero_and_one() {
        let p = distribution_from(&[(0, 0.5), (1, 0.5)]);
        let q = distribution_from(&[(0, 0.5), (2, 0.5)]);
        let f = hellinger_fidelity(&p, &q);
        assert!(f > 0.0 && f < 1.0);
        // Bhattacharyya coefficient is 0.5, so H² = 0.5 and fidelity = 0.25.
        assert!((f - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_distribution_yields_zero_fidelity() {
        let p = Distribution::new();
        let q = distribution_from(&[(0, 1.0)]);
        assert_eq!(hellinger_fidelity(&p, &q), 0.0);
    }

    #[test]
    fn fidelity_is_symmetric() {
        let p = distribution_from(&[(0, 0.7), (1, 0.2), (2, 0.1)]);
        let q = distribution_from(&[(0, 0.4), (1, 0.4), (3, 0.2)]);
        assert!((hellinger_fidelity(&p, &q) - hellinger_fidelity(&q, &p)).abs() < 1e-12);
    }
}
