//! Batch descriptive statistics over `f64` slices.
//!
//! All functions define their value on the empty slice explicitly (usually
//! `0.0`) instead of panicking: the sampling pipeline frequently produces
//! empty epochs / clusters at small scales and must degrade gracefully.

/// Arithmetic mean. Returns `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divides by `n`, not `n - 1`).
///
/// The paper's CoV (Eq. 5) characterises a *complete* epoch — every thread
/// block in the epoch is observed — so the population form is the right one.
/// Returns `0.0` for slices with fewer than two elements.
pub fn population_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Coefficient of variation: population standard deviation over mean.
///
/// Returns `0.0` when the mean is zero (an epoch of all-empty thread blocks
/// is perfectly homogeneous, not infinitely variable).
pub fn cov(xs: &[f64]) -> f64 {
    cov_of(|| xs.iter().copied())
}

/// [`cov`] of a sequence that `xs` can produce twice, without collecting
/// it: one pass for the mean, one for the variance, each summed in
/// sequence order, so the result is bit-identical to [`cov`] of the same
/// values in a slice.
pub fn cov_of<I: Iterator<Item = f64>>(xs: impl Fn() -> I) -> f64 {
    let (n, sum) = xs().fold((0u64, 0.0), |(n, s), x| (n + 1, s + x));
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    let m = sum / n;
    if m.abs() < f64::MIN_POSITIVE {
        return 0.0;
    }
    let variance = if n < 2.0 {
        0.0
    } else {
        xs().map(|x| (x - m) * (x - m)).sum::<f64>() / n
    };
    variance.sqrt() / m
}

/// Geometric mean of strictly positive values.
///
/// Zero or negative entries are clamped to `GEOMEAN_FLOOR` so that a single
/// perfect (0% error) benchmark does not collapse the summary to zero — the
/// same convention SimPoint-style papers use when reporting error geomeans.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    /// Clamp floor for non-positive inputs to [`geometric_mean`].
    pub const GEOMEAN_FLOOR: f64 = 1e-6;
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.max(GEOMEAN_FLOOR).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[5.0]), 5.0);
    }

    #[test]
    fn variance_basic() {
        // Var([2,4,4,4,5,5,7,9]) = 4 (classic textbook example).
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((population_variance(&xs) - 4.0).abs() < 1e-12);
        assert_eq!(population_variance(&xs).sqrt(), 2.0);
    }

    #[test]
    fn variance_degenerate() {
        assert_eq!(population_variance(&[]), 0.0);
        assert_eq!(population_variance(&[3.0]), 0.0);
        assert_eq!(population_variance(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn cov_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((cov(&xs) - 2.0 / 5.0).abs() < 1e-12);
    }

    /// The two-pass `cov_of` gives the bits of `sqrt(variance) / mean` over a
    /// slice, whatever the length (empty, one value, many).
    #[test]
    fn cov_of_is_bit_identical_to_sqrt_variance_over_mean() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for len in 0..300 {
            let xs: Vec<f64> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (state >> 40) as f64 / 7.0
                })
                .collect();
            let m = mean(&xs);
            let want = if m.abs() < f64::MIN_POSITIVE {
                0.0
            } else {
                population_variance(&xs).sqrt() / m
            };
            assert_eq!(cov(&xs).to_bits(), want.to_bits(), "len {len}");
            assert_eq!(cov_of(|| xs.iter().copied()).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn cov_zero_mean_is_zero() {
        assert_eq!(cov(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(cov(&[]), 0.0);
    }

    #[test]
    fn cov_homogeneous_epoch_is_zero() {
        assert_eq!(cov(&[7.0; 16]), 0.0);
    }

    #[test]
    fn geomean_basic() {
        assert!((geometric_mean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn geomean_clamps_zero() {
        // A single 0% error must not zero the summary.
        let g = geometric_mean(&[0.0, 0.1, 0.1]);
        assert!(g > 0.0);
        assert!(g < 0.1);
    }
}
