//! Exact stationary-distribution solver and transient analysis.
//!
//! Power iteration (in [`crate::markov`]) matches the paper's
//! `V_s = lim V_i T^n` formulation; this module adds:
//!
//! * a **direct solver**: the stationary distribution as the solution of
//!   `pi (T - I) = 0, sum(pi) = 1` via Gaussian elimination — an
//!   independent check on the iterative result, and immune to slow
//!   mixing when `M` is large;
//! * **transient analysis**: the distribution after exactly `n` steps
//!   from the all-runnable start, giving the model's view of how long a
//!   "warming period" needs to be before IPC measurements reflect the
//!   steady state — the quantity the paper's warming heuristic
//!   approximates empirically.

use crate::markov::WarpChain;

/// Stationary distribution by direct linear solve (Gaussian elimination
/// with partial pivoting on the transposed balance equations).
pub fn stationary_direct(chain: &WarpChain) -> Vec<f64> {
    let n = chain.num_states();
    // Build A = T^t - I with the last balance equation replaced by the
    // normalisation sum(pi) = 1.
    let mut a = vec![vec![0.0f64; n + 1]; n];
    #[expect(clippy::needless_range_loop)] // (i, j) index the matrix directly
    for i in 0..n {
        for j in 0..n {
            a[j][i] = chain.transition(i, j); // transpose
        }
    }
    for (i, row) in a.iter_mut().enumerate() {
        row[i] -= 1.0;
    }
    for x in a[n - 1].iter_mut().take(n) {
        *x = 1.0;
    }
    a[n - 1][n] = 1.0;

    // Gaussian elimination with partial pivoting.
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&r1, &r2| a[r1][col].abs().total_cmp(&a[r2][col].abs()))
            .unwrap_or(col);
        a.swap(col, pivot);
        let p = a[col][col];
        assert!(p.abs() > 1e-14, "singular transition system");
        for r in 0..n {
            if r != col {
                let f = a[r][col] / p;
                if f != 0.0 {
                    let (pivot_row, target_row) = if r < col {
                        let (lo, hi) = a.split_at_mut(col);
                        (&hi[0], &mut lo[r])
                    } else {
                        let (lo, hi) = a.split_at_mut(r);
                        (&lo[col], &mut hi[0])
                    };
                    for (t, &pv) in target_row[col..=n].iter_mut().zip(&pivot_row[col..=n]) {
                        *t -= f * pv;
                    }
                }
            }
        }
    }
    (0..n).map(|i| (a[i][n] / a[i][i]).max(0.0)).collect()
}

/// Distribution after exactly `steps` transitions from the all-runnable
/// initial state `V_i = <0, ..., 0, 1>`.
pub fn distribution_after(chain: &WarpChain, steps: u32) -> Vec<f64> {
    let n = chain.num_states();
    let t = chain.transition_matrix();
    let mut v = vec![0.0; n];
    v[n - 1] = 1.0;
    let mut next = vec![0.0; n];
    for _ in 0..steps {
        next.iter_mut().for_each(|x| *x = 0.0);
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (j, nj) in next.iter_mut().enumerate() {
                *nj += vi * t[i][j];
            }
        }
        std::mem::swap(&mut v, &mut next);
    }
    v
}

/// Expected IPC after exactly `steps` cycles from a cold (all-runnable)
/// start: `1 - P(all stalled at that step)`.
pub fn ipc_after(chain: &WarpChain, steps: u32) -> f64 {
    1.0 - distribution_after(chain, steps)[0]
}

/// Smallest number of steps after which the instantaneous IPC is within
/// `tol` (relative) of the stationary IPC — the model's warm-up length.
/// Returns `None` if not reached within `max_steps`.
pub fn warmup_steps(chain: &WarpChain, tol: f64, max_steps: u32) -> Option<u32> {
    let target = chain.ipc_fast();
    if target == 0.0 {
        return Some(0);
    }
    // Coarse-to-fine scan: march in jumps of max(1, max/256), then back
    // off a jump and finish stepwise. Transient IPC decays monotonically
    // toward the target from the all-runnable start.
    let mut step = 0u32;
    let jump = (max_steps / 256).max(1);
    let within = |s: u32| ((ipc_after(chain, s) - target) / target).abs() <= tol;
    while step <= max_steps {
        if within(step) {
            // Refine backwards to the first in-tolerance step.
            let lo = step.saturating_sub(jump);
            for s in lo..=step {
                if within(s) {
                    return Some(s);
                }
            }
            return Some(step);
        }
        step = step.saturating_add(jump);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_matches_power_iteration() {
        for &(n, p, m) in &[(2u32, 0.1, 50.0), (4, 0.2, 100.0), (6, 0.05, 200.0)] {
            let chain = WarpChain::uniform(n, p, m);
            let direct = stationary_direct(&chain);
            let iterative = chain.steady_state(1e-13);
            for (d, i) in direct.iter().zip(&iterative) {
                assert!((d - i).abs() < 1e-6, "N={n}: {d} vs {i}");
            }
            assert!((direct.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn direct_matches_closed_form_ipc() {
        let chain = WarpChain::with_ms(0.15, vec![60.0, 120.0, 240.0]);
        let pi = stationary_direct(&chain);
        assert!((1.0 - pi[0] - chain.ipc_fast()).abs() < 1e-9);
    }

    #[test]
    fn transient_starts_at_one_and_decays_to_steady() {
        let chain = WarpChain::uniform(4, 0.1, 100.0);
        assert_eq!(ipc_after(&chain, 0), 1.0);
        let early = ipc_after(&chain, 5);
        let late = ipc_after(&chain, 5_000);
        let steady = chain.ipc_fast();
        assert!(early > late, "IPC must decay from the cold start");
        assert!((late - steady).abs() / steady < 1e-3);
    }

    #[test]
    fn warmup_scales_with_stall_length() {
        // Longer stalls mean slower mixing: the warm-up grows with M.
        let short = warmup_steps(&WarpChain::uniform(4, 0.1, 50.0), 0.05, 100_000).unwrap();
        let long = warmup_steps(&WarpChain::uniform(4, 0.1, 400.0), 0.05, 100_000).unwrap();
        assert!(
            long > short,
            "M=400 warm-up ({long}) should exceed M=50 warm-up ({short})"
        );
    }

    #[test]
    fn warmup_zero_when_no_stalls() {
        let chain = WarpChain::uniform(4, 0.0, 100.0);
        assert_eq!(warmup_steps(&chain, 0.05, 1000), Some(0));
    }
}
