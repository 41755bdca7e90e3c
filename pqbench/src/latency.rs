//! Exact percentiles over recorded samples. No histogram: a log₂ bucket
//! that jumps from 1023 to 2047 µs cannot resolve a 10% change.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest of p50 / p90 / p99 / p99.9 / p99.99 that still has at
/// least ten samples beyond it; the median when even p90 has not.
pub fn tail_percentile(n: usize) -> f64 {
    [99.99, 99.9, 99.0, 90.0]
        .into_iter()
        .find(|&p| n >= 1 && n - rank(n, p) >= 10)
        .unwrap_or(50.0)
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The distance between the first and third quartile as a share of the
/// median, with quartiles as Python's `statistics.quantiles(v, n=4)`
/// gives them; 0 when there are fewer than two values.
pub fn spread(values: &mut [f64]) -> f64 {
    let m = values.len();
    if m < 2 {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / quartile(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_tiny_and_odd_counts() {
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[1, 2, 3], 50.0), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
        assert_eq!(percentile(&[1, 2, 3, 4, 5], 99.0), 5);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 99.0), 99);
        assert_eq!(percentile(&hundred, 100.0), 100);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_001), 99.9);
        assert_eq!(tail_percentile(100_000), 99.99);
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        // == [3.5, 13.5, 31.0]
        let mut v = [46.0, 1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0];
        assert!((spread(&mut v) - 27.5 / 13.5).abs() < 1e-12);
        // quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert!((spread(&mut [20.0, 10.0]) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&mut [5.0]), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
