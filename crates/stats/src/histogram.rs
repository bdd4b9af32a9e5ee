//! Fixed-bin histogram used for reporting distributions (thread-block sizes
//! in Fig. 8, Monte-Carlo IPC spread in Fig. 5) without storing every sample.

/// Uniform-width histogram over `[lo, hi)` with saturating under/overflow
/// bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Create a histogram with `n_bins` uniform bins covering `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `n_bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, n_bins: usize) -> Self {
        assert!(n_bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            bins: vec![0; n_bins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            // In-range x gives a bin index below bins.len(); the saturating
            // cast plus min() make rounding at the top edge harmless.
            #[expect(clippy::cast_possible_truncation)]
            let idx = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total number of recorded observations (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations below the histogram range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper edge.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Per-bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// `(bin_center, count)` pairs — convenient for plotting/CSV output.
    pub fn centers(&self) -> Vec<(f64, u64)> {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + w * (i as f64 + 0.5), c))
            .collect()
    }

    /// Merge another histogram with identical bounds and bin count.
    ///
    /// # Panics
    /// Panics if the layouts differ.
    pub fn merge(&mut self, other: &Histogram) {
        // Layout compatibility means bit-identical bounds, so compare bits.
        assert_eq!(
            self.lo.to_bits(),
            other.lo.to_bits(),
            "histogram lower bounds differ"
        );
        assert_eq!(
            self.hi.to_bits(),
            other.hi.to_bits(),
            "histogram upper bounds differ"
        );
        assert_eq!(
            self.bins.len(),
            other.bins.len(),
            "histogram bin counts differ"
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.5);
        h.record(9.9);
        h.record(5.0);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.bins()[5], 1);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-0.1);
        h.record(1.0); // upper edge is exclusive
        h.record(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bins().iter().sum::<u64>(), 0);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn centers_are_midpoints() {
        let h = Histogram::new(0.0, 4.0, 4);
        let cs = h.centers();
        assert_eq!(cs.len(), 4);
        assert_eq!(cs[0].0, 0.5);
        assert_eq!(cs[3].0, 3.5);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        a.record(1.0);
        b.record(1.5);
        b.record(9.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bins()[0], 2);
        assert_eq!(a.bins()[4], 1);
    }

    #[test]
    #[should_panic(expected = "bin counts differ")]
    fn merge_rejects_mismatched_layout() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let b = Histogram::new(0.0, 10.0, 6);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
