//! Geometry divisors resolved once, at construction.
//!
//! Cache and DRAM indexing divide every address by run-time geometry
//! (line size, set count, channels, lines per page, banks). Those values
//! are fixed for a launch and almost always powers of two, so each is
//! resolved here into a shift and mask; the rest (the L2's 768 sets, the
//! 6-channel interleave) keep exactly one hardware `div`, which yields
//! quotient and remainder together.

/// A divisor fixed at construction, clamped to at least 1 so a zeroed
/// config indexes into a one-entry geometry instead of dividing by zero.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Divisor {
    n: u64,
    /// `log2(n)` when `n` is a power of two.
    shift: Option<u32>,
}

impl Divisor {
    pub(crate) fn new(n: u64) -> Self {
        let n = n.max(1);
        Divisor {
            n,
            shift: n.is_power_of_two().then(|| n.trailing_zeros()),
        }
    }

    /// The (clamped) divisor itself.
    pub(crate) fn get(self) -> u64 {
        self.n
    }

    /// `(x / n, x % n)`.
    #[inline]
    pub(crate) fn div_rem(self, x: u64) -> (u64, u64) {
        match self.shift {
            Some(s) => (x >> s, x & (self.n - 1)),
            None => (x / self.n, x % self.n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_divide_and_modulo() {
        for n in [0u64, 1, 2, 3, 6, 16, 96, 128, 768, 1 << 40, u64::MAX] {
            let d = Divisor::new(n);
            let m = n.max(1);
            assert_eq!(d.get(), m);
            for x in [
                0u64,
                1,
                5,
                127,
                128,
                767,
                768,
                1 << 33,
                u64::MAX - 1,
                u64::MAX,
            ] {
                assert_eq!(d.div_rem(x), (x / m, x % m), "x={x} n={n}");
            }
        }
    }
}
