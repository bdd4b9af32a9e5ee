//! The 2^N-state Markov chain of Eq. 3.
//!
//! State encoding follows the paper: bit `x` of the state index is warp
//! `x`'s status, `1` = runnable, `0` = stalled. State `0` is "every warp
//! stalled" (the SM issues nothing); state `2^N - 1` is "every warp
//! runnable" (the initial state `V_i = <0, 0, ..., 1>`).

/// Maximum number of warps the dense chain supports. `2^12 x 2^12` f64
/// entries = 128 MiB of transition matrix — beyond that the dense approach
/// stops being sensible, and the paper never exceeds N = 8 (Fig. 5).
pub const MAX_WARPS: u32 = 12;

/// A homogeneous interval's warp population: `n` i.i.d. warps with stall
/// probability `p` and per-warp mean stall durations `ms[x]` (cycles).
#[derive(Debug, Clone, PartialEq)]
pub struct WarpChain {
    /// Number of concurrent warps N (1..=[`MAX_WARPS`]).
    pub n_warps: u32,
    /// Per-cycle stall probability of a runnable warp.
    pub p: f64,
    /// Mean stall duration of each warp; `ms.len() == n_warps as usize`.
    pub ms: Vec<f64>,
}

impl WarpChain {
    /// Uniform-M convenience constructor.
    ///
    /// # Panics
    /// Panics on invalid parameters (see [`WarpChain::validate`]).
    pub fn uniform(n_warps: u32, p: f64, m: f64) -> Self {
        let c = Self {
            n_warps,
            p,
            ms: vec![m; n_warps as usize],
        };
        c.validate();
        c
    }

    /// Per-warp-M constructor (the Monte-Carlo path).
    ///
    /// # Panics
    /// Panics on invalid parameters (see [`WarpChain::validate`]).
    pub fn with_ms(p: f64, ms: Vec<f64>) -> Self {
        // validate() rejects more than 64 warps, so the cast is exact.
        #[expect(clippy::cast_possible_truncation)]
        let c = Self {
            n_warps: ms.len() as u32,
            p,
            ms,
        };
        c.validate();
        c
    }

    /// Parameter sanity: `1 <= N <= MAX_WARPS`, `0 <= p <= 1`, every
    /// `M >= 1` (a stall shorter than one cycle is not a stall).
    pub fn validate(&self) {
        assert!(
            (1..=MAX_WARPS).contains(&self.n_warps),
            "n_warps {} outside 1..={MAX_WARPS}",
            self.n_warps
        );
        assert!((0.0..=1.0).contains(&self.p), "p {} outside [0,1]", self.p);
        assert_eq!(self.ms.len(), self.n_warps as usize, "ms length != n_warps");
        assert!(
            self.ms.iter().all(|&m| m >= 1.0),
            "every M must be >= 1 cycle"
        );
    }

    /// Number of chain states, `2^N`.
    pub fn num_states(&self) -> usize {
        1usize << self.n_warps
    }

    /// Transition probability `S[i][j]` per Eq. 3: the product over warps
    /// of the per-warp move/stay probability.
    pub fn transition(&self, i: usize, j: usize) -> f64 {
        let mut prob = 1.0;
        for x in 0..self.n_warps as usize {
            let ai = (i >> x) & 1; // 1 = runnable
            let aj = (j >> x) & 1;
            let wake = 1.0 / self.ms[x];
            let f = if ai != aj {
                // Warp x flips state.
                if ai == 1 {
                    self.p // runnable -> stalled
                } else {
                    wake // stalled -> runnable
                }
            } else if ai == 1 {
                1.0 - self.p // stays runnable
            } else {
                1.0 - wake // stays stalled
            };
            prob *= f;
        }
        prob
    }

    /// Dense row-stochastic transition matrix (row `i` -> column `j`).
    pub fn transition_matrix(&self) -> Vec<Vec<f64>> {
        let s = self.num_states();
        (0..s)
            .map(|i| (0..s).map(|j| self.transition(i, j)).collect())
            .collect()
    }

    /// Steady-state distribution by power iteration from the paper's
    /// initial vector (all warps runnable), to tolerance `tol` in L1.
    pub fn steady_state(&self, tol: f64) -> Vec<f64> {
        let s = self.num_states();
        let t = self.transition_matrix();
        let mut v = vec![0.0; s];
        v[s - 1] = 1.0; // V_i = <0,...,0,1>
        let mut next = vec![0.0; s];
        for _ in 0..200_000 {
            next.iter_mut().for_each(|x| *x = 0.0);
            for (i, &vi) in v.iter().enumerate() {
                if vi == 0.0 {
                    continue;
                }
                for (j, nj) in next.iter_mut().enumerate() {
                    *nj += vi * t[i][j];
                }
            }
            let delta: f64 = v.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut v, &mut next);
            if delta < tol {
                break;
            }
        }
        v
    }

    /// Predicted IPC: `1 - R_0` (the SM issues unless all warps stalled).
    pub fn ipc(&self) -> f64 {
        let v = self.steady_state(1e-12);
        1.0 - v[0]
    }

    /// Closed-form IPC via the product structure of the chain.
    ///
    /// Eq. 3's transition matrix factorises over warps (each warp is an
    /// independent two-state chain), so the steady-state probability of the
    /// all-stalled state is the product of per-warp stall probabilities
    /// `p / (p + 1/M_x)`. Identical to [`WarpChain::ipc`] (a unit test
    /// checks this) but O(N) instead of O(4^N · iterations) — the
    /// Monte-Carlo driver runs this 10,000 times per configuration.
    pub fn ipc_fast(&self) -> f64 {
        if self.p == 0.0 {
            return 1.0;
        }
        let r0: f64 = self
            .ms
            .iter()
            .map(|&m| self.p / (self.p + 1.0 / m))
            .product();
        1.0 - r0
    }
}

/// One-call helper: steady-state IPC of `n` warps with uniform `p`, `m`.
pub fn steady_state_ipc(n_warps: u32, p: f64, m: f64) -> f64 {
    WarpChain::uniform(n_warps, p, m).ipc()
}

/// Closed-form IPC for any warp count (the product structure needs no
/// dense matrix, so `n` is not limited to [`MAX_WARPS`]): the SM issues
/// unless all `n` i.i.d. warps are stalled.
pub fn closed_form_ipc(n_warps: u32, p: f64, m: f64) -> f64 {
    assert!(n_warps >= 1, "need at least one warp");
    assert!((0.0..=1.0).contains(&p));
    assert!(m >= 1.0);
    if p == 0.0 {
        return 1.0;
    }
    let pi_stall = p / (p + 1.0 / m);
    1.0 - pi_stall.powi(n_warps as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_stochastic() {
        let c = WarpChain::uniform(4, 0.1, 100.0);
        let t = c.transition_matrix();
        for row in &t {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "row sum {s}");
        }
    }

    #[test]
    fn single_warp_closed_form() {
        // For N=1 the chain is a two-state birth-death process:
        // pi_runnable = (1/M) / (p + 1/M)  =>  IPC = pi_runnable.
        let (p, m) = (0.1, 50.0);
        let expect = (1.0 / m) / (p + 1.0 / m);
        let got = steady_state_ipc(1, p, m);
        assert!((got - expect).abs() < 1e-9, "got {got}, expect {expect}");
    }

    #[test]
    fn independent_warps_product_form() {
        // Warps are i.i.d. two-state chains, so the steady-state
        // probability that *all* are stalled is (p/(p+1/M))^N and
        // IPC = 1 - that.
        for &n in &[2u32, 4, 6] {
            let (p, m) = (0.2, 40.0);
            let pi_stall: f64 = p / (p + 1.0 / m);
            let expect = 1.0 - pi_stall.powi(n as i32);
            let got = steady_state_ipc(n, p, m);
            assert!(
                (got - expect).abs() < 1e-9,
                "N={n}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn closed_form_matches_chain_and_extends_beyond_cap() {
        for &(n, p, m) in &[(2u32, 0.1, 100.0), (8, 0.2, 50.0)] {
            assert!((closed_form_ipc(n, p, m) - steady_state_ipc(n, p, m)).abs() < 1e-9);
        }
        // Beyond the dense-chain cap it still behaves sanely.
        let ipc48 = closed_form_ipc(48, 0.2, 200.0);
        assert!(ipc48 > closed_form_ipc(12, 0.2, 200.0));
        assert!(ipc48 <= 1.0);
    }

    #[test]
    fn fast_path_matches_dense_chain() {
        for &(n, p, m) in &[(2u32, 0.05, 100.0), (4, 0.1, 400.0), (6, 0.3, 50.0)] {
            let c = WarpChain::uniform(n, p, m);
            assert!(
                (c.ipc() - c.ipc_fast()).abs() < 1e-8,
                "N={n} p={p} M={m}: dense {} vs fast {}",
                c.ipc(),
                c.ipc_fast()
            );
        }
        let het = WarpChain::with_ms(0.15, vec![80.0, 120.0, 350.0]);
        assert!((het.ipc() - het.ipc_fast()).abs() < 1e-8);
    }

    #[test]
    fn zero_stall_probability_gives_full_ipc() {
        assert!((steady_state_ipc(4, 0.0, 100.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_warps_hide_more_latency() {
        let ipc: Vec<f64> = (1..=8).map(|n| steady_state_ipc(n, 0.1, 200.0)).collect();
        for w in ipc.windows(2) {
            assert!(w[1] > w[0], "IPC must increase with warp count: {ipc:?}");
        }
    }

    #[test]
    fn longer_stalls_hurt_ipc() {
        let a = steady_state_ipc(4, 0.1, 100.0);
        let b = steady_state_ipc(4, 0.1, 400.0);
        assert!(b < a);
    }

    #[test]
    fn heterogeneous_ms_are_supported() {
        let c = WarpChain::with_ms(0.1, vec![100.0, 200.0, 300.0, 400.0]);
        let ipc = c.ipc();
        // Product form with heterogeneous Ms.
        let expect = 1.0
            - [100.0f64, 200.0, 300.0, 400.0]
                .iter()
                .map(|&m| 0.1 / (0.1 + 1.0 / m))
                .product::<f64>();
        assert!((ipc - expect).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn rejects_too_many_warps() {
        WarpChain::uniform(13, 0.1, 100.0);
    }

    #[test]
    #[should_panic(expected = "M must be >= 1")]
    fn rejects_sub_cycle_stalls() {
        WarpChain::uniform(2, 0.1, 0.5);
    }

    #[test]
    fn transition_example_from_paper() {
        // The paper's example: S_{6,2} is warp 2 (second-most-significant
        // of 4 bits) going runnable->stalled while others hold.
        // 6 = 0110, 2 = 0010. With the paper's MSB-first reading, our
        // LSB-first encoding gives the same product because the chain is
        // symmetric under bit relabeling when Ms are uniform.
        let c = WarpChain::uniform(4, 0.1, 100.0);
        let s62 = c.transition(6, 2);
        // 0110 -> 0010: one runnable warp stalls (p), one runnable warp
        // stays (1-p), two stalled warps stay (1 - 1/M)^2.
        let expect = 0.1 * 0.9 * (1.0 - 0.01) * (1.0 - 0.01);
        assert!((s62 - expect).abs() < 1e-12);
    }
}
