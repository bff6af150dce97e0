//! Order statistics for the benchmark's reports: medians and quartiles over
//! rounds, and tail percentiles that obey the "at least ten samples beyond"
//! rule, so a p99 is never quoted from a few hundred samples.

/// The values sorted ascending (NaN-free by construction: every sample is a
/// measured duration or a simulated quantity).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `q` of the mass at or below it. `0.0` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (`0.0` for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method) — the rule the acceptance driver uses
/// for run-to-run spread. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let m = s.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median; `None` below two
/// samples or for a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The percentile ladder a tail may be quoted from.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.90, 0.75];

/// The highest ladder percentile with at least ten samples strictly beyond
/// its nearest-rank sample, and that sample's value. `None` when even p75
/// does not have ten samples beyond it (fewer than 40 samples).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    TAIL_LADDER.iter().copied().find_map(|q| {
        let rank = ((q * s.len() as f64).ceil() as usize).max(1);
        (s.len() >= rank + 10).then(|| (q, s[rank - 1]))
    })
}

/// A ladder percentile's value only if it obeys the ten-beyond rule;
/// otherwise `0.0` (the per-layer table has no "absent").
pub fn tail_at(values: &[f64], q: f64) -> f64 {
    let s = sorted(values);
    let rank = ((q * s.len() as f64).ceil() as usize).max(1);
    if s.len() >= rank + 10 {
        s[rank - 1]
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_obeys_ten_samples_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 is the 990th sample: exactly ten beyond it.
        assert_eq!(tail(&thousand), Some((0.99, 990.0)));
        // One sample fewer leaves nine beyond p99, so the tail drops to p95.
        assert_eq!(tail(&thousand[..999]).map(|t| t.0), Some(0.95));
        assert_eq!(tail(&thousand[..39]), None);
        assert_eq!(tail(&thousand[..40]).map(|t| t.0), Some(0.75));
        assert_eq!(tail_at(&thousand, 0.99), 990.0);
        assert_eq!(tail_at(&thousand[..999], 0.99), 0.0);
        let many: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail(&many).map(|t| t.0), Some(0.999));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_share(&v), Some(1.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&v, 0.5), 20.0);
        assert_eq!(percentile_sorted(&v, 0.51), 30.0);
        assert_eq!(percentile_sorted(&v, 1.0), 40.0);
        assert_eq!(percentile_sorted(&v, 0.0), 10.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
    }
}
