//! Percentiles and "fraction within a band" — the two summaries the
//! Monte-Carlo IPC-variation experiment (Fig. 5) reports.

/// Linear-interpolation percentile (`q` in `[0, 100]`) of an unsorted slice.
///
/// Sorts a private copy; callers in hot paths should batch their queries.
/// Returns `0.0` for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, q)
}

/// Percentile of an already-sorted slice (ascending).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 100.0);
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    // `rank` is in [0, len-1] after the clamp, so the casts cannot truncate.
    #[expect(clippy::cast_possible_truncation)]
    let lo = rank.floor() as usize;
    #[expect(clippy::cast_possible_truncation)]
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Fraction of samples whose relative deviation from `center` is at most
/// `band` (e.g. `band = 0.10` for "within ±10%").
///
/// This is exactly the Fig.-5 claim shape: "more than 95% of the samples
/// have less than a 10% difference of the average IPC".
pub fn fraction_within(xs: &[f64], center: f64, band: f64) -> f64 {
    if xs.is_empty() || center.abs() < f64::EPSILON {
        return 0.0;
    }
    let n_in = xs
        .iter()
        .filter(|&&x| ((x - center) / center).abs() <= band)
        .count();
    n_in as f64 / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 25.0), 2.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 75.0), 7.5);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 50.0), 3.0);
    }

    #[test]
    fn percentile_empty_and_singleton() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[42.0], 99.0), 42.0);
    }

    #[test]
    fn percentile_clamps_q() {
        let xs = [1.0, 2.0];
        assert_eq!(percentile(&xs, -5.0), 1.0);
        assert_eq!(percentile(&xs, 150.0), 2.0);
    }

    #[test]
    fn percentile_survives_nan() {
        // Regression: sort_by(partial_cmp().expect(..)) used to panic here.
        // total_cmp orders NaN after +inf, so finite quantiles still come
        // from the finite prefix.
        let xs = [2.0, f64::NAN, 1.0, 3.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0 / 3.0), 2.0);
    }

    #[test]
    fn fraction_within_basic() {
        let xs = [95.0, 100.0, 105.0, 120.0];
        // 95, 100, 105 are within ±10% of 100; 120 is not.
        assert!((fraction_within(&xs, 100.0, 0.10) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fraction_within_edges() {
        assert_eq!(fraction_within(&[], 100.0, 0.1), 0.0);
        assert_eq!(fraction_within(&[1.0], 0.0, 0.1), 0.0);
        // Boundary value exactly on the band edge counts as inside.
        assert_eq!(fraction_within(&[110.0], 100.0, 0.10), 1.0);
    }
}
