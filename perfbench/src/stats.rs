//! Order statistics over repeated measurements.

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the exclusive method (Python's
/// `statistics.quantiles(xs, n=4)`), so the spreads printed here match
/// the ones computed over whole runs. With one sample both are it.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        return (s[0], s[0]);
    }
    let at = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, interpolated.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The nearest-rank value with exactly `beyond` samples above it — the
/// highest percentile the sample supports with `beyond` samples in its
/// tail — and that percentile. Falls back to the maximum when there are
/// not enough samples.
pub fn tail(sorted: &[f64], beyond: usize) -> (f64, f64) {
    let n = sorted.len();
    if n <= beyond {
        return (sorted[n - 1], 100.0);
    }
    (
        sorted[n - 1 - beyond],
        100.0 * (1.0 - beyond as f64 / n as f64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn tail_leaves_exactly_the_requested_samples_beyond() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let (v, p) = tail(&xs, 10);
        assert_eq!(v, 89.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!((p - 90.0).abs() < 1e-9);
    }
}
