//! Order statistics behind every reported number: medians over passes,
//! the quartiles the run-to-run spread is judged by, and nearest-rank
//! percentiles with an explicit sample-count rule for tails.

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a bug in the
/// caller, never a value to report.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (its default `exclusive` method), so spreads computed here and by an
/// external checker agree digit for digit.
///
/// # Panics
///
/// Panics with fewer than two samples, as Python does.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let s = sorted(values);
    let ld = s.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: the clamp can put `j * 4` past `i * m`.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median (the spread a bound is
/// compared with).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

/// Percentiles the benchmark reports, in basis points (1/100 of a
/// percent), highest first.
const TAIL_LADDER_BP: [u32; 5] = [9_999, 9_990, 9_900, 9_000, 5_000];

/// Nearest-rank position (1-based) of percentile `bp` among `n` samples.
fn rank(n: usize, bp: u32) -> usize {
    (n * bp as usize).div_ceil(10_000).max(1)
}

/// Samples strictly past the nearest-rank position of percentile `bp`.
pub fn beyond(n: usize, bp: u32) -> usize {
    n - rank(n, bp).min(n)
}

/// The highest reported percentile (in basis points) that has at least
/// ten samples beyond it among `n` samples, or `None` below ten samples.
pub fn tail_bp(n: usize) -> Option<u32> {
    TAIL_LADDER_BP.into_iter().find(|&bp| beyond(n, bp) >= 10)
}

/// Nearest-rank percentile `bp` (basis points) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], bp: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), bp).min(sorted.len()) - 1]
}

/// An ascending copy of `values` (total order: NaN sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([7, 1, 3, 9, 5], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0, 9.0, 5.0]), [2.0, 5.0, 8.0]);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_bp(9), None);
        // 10 samples: the median has 5 beyond, p90 has 1.
        assert_eq!(tail_bp(19), None);
        assert_eq!(tail_bp(20), Some(5_000));
        assert_eq!(tail_bp(99), Some(5_000));
        assert_eq!(tail_bp(100), Some(9_000));
        // p99 needs 1000 samples: 999 leaves only 9 beyond rank 990.
        assert_eq!(beyond(999, 9_900), 9);
        assert_eq!(tail_bp(999), Some(9_000));
        assert_eq!(beyond(1_000, 9_900), 10);
        assert_eq!(tail_bp(1_000), Some(9_900));
        assert_eq!(tail_bp(9_999), Some(9_900));
        assert_eq!(tail_bp(10_000), Some(9_990));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&v, 5_000), 500.0);
        assert_eq!(percentile(&v, 9_900), 990.0);
        assert_eq!(percentile(&v, 10_000), 1_000.0);
        assert_eq!(percentile(&[7.0], 9_900), 7.0);
    }
}
