//! Order statistics for timing samples.

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    tbpoint::stats::percentile(values, 50.0)
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// `compare` reaches the verdict the driver reaches. One value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// The usual percentile ladder, each with the samples beyond it per 10 000.
const LADDER: [(f64, usize); 6] = [
    (99.99, 1),
    (99.9, 10),
    (99.0, 100),
    (95.0, 500),
    (90.0, 1000),
    (50.0, 5000),
];

/// The highest percentile of the ladder that still has at least ten of the
/// samples beyond it, with its value: `(percentile, value)`. `None` below
/// twenty samples.
pub fn tail_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    LADDER.iter().find_map(|&(pct, per_10k)| {
        let beyond = n * per_10k / 10_000;
        (beyond >= 10).then(|| (pct, sorted[n - 1 - beyond]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn percentile_picker_keeps_ten_samples_beyond() {
        let ramp = |n: u32| (0..n).map(f64::from).collect::<Vec<_>>();
        let picked = |n: u32| tail_percentile(&ramp(n)).map(|(pct, _)| pct);
        assert_eq!(picked(19), None);
        assert_eq!(picked(20), Some(50.0));
        assert_eq!(picked(100), Some(90.0));
        assert_eq!(picked(200), Some(95.0));
        assert_eq!(picked(999), Some(95.0));
        assert_eq!(picked(1000), Some(99.0));
        assert_eq!(picked(10_000), Some(99.9));

        let sorted = ramp(1000);
        let (_, p99) = tail_percentile(&sorted).expect("1000 samples");
        assert_eq!(p99, 989.0);
        assert_eq!(sorted.iter().filter(|&&x| x > p99).count(), 10);
    }
}
