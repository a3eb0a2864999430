//! Order statistics for latency samples and for run-to-run spread.

/// Sorted copy of `xs` (NaNs are a bug upstream and panic here).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) by the nearest-rank rule: the smallest
/// sample with at least `p·n` samples at or below it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let v = sorted(xs);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly beyond the `p`-quantile's (nearest) rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// Whether `n` samples support reporting the `p`-quantile: at least ten
/// samples must lie beyond it, or the "percentile" is one slow op.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= 10
}

/// Median (mean of the two middle samples when `n` is even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method of Python's
/// `statistics.quantiles(xs, n=4)` — the rule the acceptance driver
/// applies to ten runs.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let v = sorted(xs);
    let n = v.len();
    let at = |i: usize| {
        // position i·(n+1)/4 on a 1-based scale, linearly interpolated
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread a bound must sit three times above.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 100.0);
        assert_eq!(percentile(&xs, 0.9), 180.0);
        assert_eq!(percentile(&xs, 1.0), 200.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        // order of arrival is irrelevant
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 0.9), 180.0);
    }

    #[test]
    fn ten_beyond_rule() {
        // p90 of 200 samples leaves 20 beyond it, of 100 exactly 10, of
        // 99 only 9.
        assert_eq!(samples_beyond(200, 0.9), 20);
        assert!(supports(200, 0.9));
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        // p99 needs a thousand
        assert!(!supports(200, 0.99));
        assert!(supports(1000, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&xs), 5.5);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]);
        assert_eq!((q1, q3), (7.5, 22.5));
        assert_eq!(spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }
}
