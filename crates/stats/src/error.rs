//! Sampling-error metrics.
//!
//! The paper reports the *sampling error* of an approach as the relative
//! difference between the IPC predicted from the samples and the IPC of the
//! full (unsampled) simulation, expressed in percent.

/// Absolute percentage error of `predicted` relative to `reference`.
///
/// `abs_pct_error(10.5, 10.0) == 5.0` (five percent). A zero reference with
/// a zero prediction is a perfect match (0%); a zero reference with a
/// nonzero prediction is reported as 100%.
pub fn abs_pct_error(predicted: f64, reference: f64) -> f64 {
    if reference.abs() < f64::MIN_POSITIVE {
        if predicted.abs() < f64::MIN_POSITIVE {
            return 0.0;
        }
        return (100.0 * predicted.signum()).abs();
    }
    ((predicted - reference) / reference * 100.0).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_error_basic() {
        assert!((abs_pct_error(10.5, 10.0) - 5.0).abs() < 1e-12);
        assert!((abs_pct_error(9.5, 10.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn pct_error_exact_match() {
        assert_eq!(abs_pct_error(3.0, 3.0), 0.0);
    }

    #[test]
    fn pct_error_zero_reference() {
        assert_eq!(abs_pct_error(0.0, 0.0), 0.0);
        assert_eq!(abs_pct_error(1.0, 0.0), 100.0);
        assert_eq!(abs_pct_error(-1.0, 0.0), 100.0);
    }
}
