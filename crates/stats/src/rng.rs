//! Deterministic pseudo-random utilities.
//!
//! The workload generators must be *reproducible across runs, platforms and
//! thread counts*: a thread block's behaviour is a pure function of
//! `(benchmark seed, launch id, block id, thread id, site)`. A stateless
//! mixing function fits that better than a stateful RNG — there is no
//! sequence to keep in sync between the profiler, the emulator and the
//! timing simulator. We use the SplitMix64 finaliser, whose avalanche
//! behaviour is well studied.

/// Stateless SplitMix64-based mixer plus a thin stateful wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// SplitMix64 finalising mix of a 64-bit value (stateless, pure).
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Initial accumulator of [`hash_coords`].
pub const HASH_SEED: u64 = 0x51_7C_C1_B7_27_22_0A_95;

/// Continue a coordinate hash from accumulator `acc`. The hash is a left
/// fold, so `hash_fold(hash_fold(HASH_SEED, a), b)` equals `hash_coords`
/// of `a` followed by `b`: a caller whose leading coordinates repeat can
/// fold that prefix once and finish per item.
#[inline]
pub fn hash_fold(acc: u64, coords: &[u64]) -> u64 {
    coords.iter().fold(acc, |acc, &c| mix64(acc ^ c))
}

/// Hash an arbitrary list of coordinates into one u64 (order-sensitive).
pub fn hash_coords(coords: &[u64]) -> u64 {
    hash_fold(HASH_SEED, coords)
}

/// A hash as a uniform f64 in `[0, 1)`: its 53 high bits, the standard
/// construction.
#[inline]
pub fn unit_from_hash(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform f64 in `[0, 1)` derived from coordinates (stateless).
pub fn unit_f64(coords: &[u64]) -> f64 {
    unit_from_hash(hash_coords(coords))
}

/// Uniform integer in `[0, n)` derived from coordinates (stateless).
///
/// Uses the widening-multiply trick; bias is negligible for n << 2^64.
pub fn unit_index(coords: &[u64], n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    ((hash_coords(coords) as u128 * n as u128) >> 64) as u64
}

impl SplitMix64 {
    /// Seeded stateful generator (used where a sequence is genuinely needed,
    /// e.g. shuffling sampling-unit ids for the random baseline).
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// Next f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        unit_from_hash(self.next_u64())
    }

    /// Next integer in `[0, n)`; returns 0 when `n == 0`.
    pub fn next_index(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Standard normal variate via Box–Muller (one value per call; the
    /// second variate is discarded for simplicity — these paths are cold).
    pub fn next_gaussian(&mut self) -> f64 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            // j <= i <= usize::MAX, so the round-trip through u64 is exact.
            #[expect(clippy::cast_possible_truncation)]
            let j = self.next_index(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
    }

    #[test]
    fn unit_f64_in_range_and_spread() {
        let mut lo = 0usize;
        for i in 0..10_000u64 {
            let x = unit_f64(&[7, i]);
            assert!((0.0..1.0).contains(&x));
            if x < 0.5 {
                lo += 1;
            }
        }
        // Roughly uniform: between 45% and 55% below the median.
        assert!((4_500..=5_500).contains(&lo), "lo = {lo}");
    }

    #[test]
    fn unit_index_in_range() {
        for i in 0..1000u64 {
            assert!(unit_index(&[i], 17) < 17);
        }
        assert_eq!(unit_index(&[5], 0), 0);
    }

    #[test]
    fn hash_is_order_sensitive() {
        assert_ne!(hash_coords(&[1, 2]), hash_coords(&[2, 1]));
    }

    /// `hash_coords` / `unit_f64` as they were written before the fold was
    /// exposed: the oracle for the split-fold identity.
    fn hash_coords_loop(coords: &[u64]) -> u64 {
        let mut acc = 0x51_7C_C1_B7_27_22_0A_95u64;
        for &c in coords {
            acc = mix64(acc ^ c);
        }
        acc
    }

    /// Folding any prefix first, then the rest, is the hash of the whole
    /// list; `unit_from_hash` of it is `unit_f64`, bit for bit.
    fn fold_differential(seed: u64, cases: u64) {
        let mut rng = SplitMix64::new(seed);
        for case in 0..cases {
            let coords: Vec<u64> = (0..rng.next_index(9))
                // Small ids (sites, launches) and full-range values alike.
                .map(|_| rng.next_u64() >> rng.next_index(64))
                .collect();
            let (a, b) = coords.split_at(rng.next_index(coords.len() as u64 + 1) as usize);
            let whole = hash_coords_loop(&coords);
            assert_eq!(hash_coords(&coords), whole, "case {case}: {coords:?}");
            assert_eq!(
                hash_fold(hash_fold(HASH_SEED, a), b),
                whole,
                "case {case}: {a:?} ++ {b:?}"
            );
            let unit = (whole >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            assert_eq!(unit_f64(&coords).to_bits(), unit.to_bits(), "case {case}");
            assert_eq!(
                unit_from_hash(whole).to_bits(),
                unit.to_bits(),
                "case {case}"
            );
        }
        println!("fold differential: {cases} cases, 0 mismatches");
    }

    #[test]
    fn split_folds_match_hash_coords() {
        fold_differential(0xF01D_0001, 100_000);
    }

    #[test]
    #[ignore = "20M cases; CI runs it in release (cargo test --release -p tbpoint-stats -- --ignored)"]
    fn split_folds_match_hash_coords_large() {
        fold_differential(0xF01D_5EED_0BAD_CAFE, 20_000_000);
    }

    #[test]
    fn stateful_sequence_is_reproducible() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SplitMix64::new(1234);
        let n = 50_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let g = rng.next_gaussian();
            sum += g;
            sum2 += g * g;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SplitMix64::new(5);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input in order"
        );
    }
}
