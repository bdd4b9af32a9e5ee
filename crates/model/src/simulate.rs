//! Direct stochastic simulation of the warp state machine.
//!
//! An independent check on the Markov algebra: instead of solving for the
//! steady state, run the per-warp coin-flip process of Fig. 4 cycle by
//! cycle and measure the fraction of cycles in which at least one warp is
//! runnable. Used by tests and by the model-validation example to show
//! simulation and analysis agree.

use tbpoint_stats::SplitMix64;

/// Simulate `n_warps` warps for `cycles` cycles and return the measured
/// IPC (fraction of cycles with >= 1 runnable warp).
///
/// Geometric stall durations with mean `m` are realised by waking each
/// stalled warp with probability `1/m` per cycle — exactly the chain's
/// dynamics, so for long runs this converges to
/// [`crate::markov::WarpChain::ipc`].
pub fn simulate_chain_ipc(n_warps: u32, p: f64, m: f64, cycles: u64, seed: u64) -> f64 {
    assert!((1..=64).contains(&n_warps), "n_warps out of range");
    assert!((0.0..=1.0).contains(&p));
    assert!(m >= 1.0);
    let mut rng = SplitMix64::new(seed);
    let wake = 1.0 / m;
    // Bit x of `state` = warp x runnable; n_warps <= 64 keeps the mask in
    // the low 64 bits of the u128 intermediate.
    #[expect(clippy::cast_possible_truncation)]
    let mut state: u64 = (1u128 << n_warps).wrapping_sub(1) as u64;
    let mut issued = 0u64;
    for _ in 0..cycles {
        if state != 0 {
            issued += 1;
        }
        let mut next = 0u64;
        for x in 0..n_warps {
            let runnable = state & (1 << x) != 0;
            let stays_runnable = if runnable {
                rng.next_f64() >= p
            } else {
                rng.next_f64() < wake
            };
            if stays_runnable {
                next |= 1 << x;
            }
        }
        state = next;
    }
    issued as f64 / cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markov::steady_state_ipc;

    #[test]
    fn simulation_agrees_with_markov_analysis() {
        for &(n, p, m) in &[(4u32, 0.1, 100.0), (8, 0.05, 200.0), (2, 0.3, 50.0)] {
            let analytic = steady_state_ipc(n, p, m);
            let simulated = simulate_chain_ipc(n, p, m, 2_000_000, 42);
            let rel = (analytic - simulated).abs() / analytic;
            assert!(
                rel < 0.02,
                "N={n} p={p} M={m}: analytic {analytic:.4} vs simulated {simulated:.4}"
            );
        }
    }

    #[test]
    fn no_stalls_means_ipc_one() {
        assert_eq!(simulate_chain_ipc(4, 0.0, 100.0, 10_000, 1), 1.0);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = simulate_chain_ipc(4, 0.1, 100.0, 10_000, 7);
        let b = simulate_chain_ipc(4, 0.1, 100.0, 10_000, 7);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_zero_warps() {
        simulate_chain_ipc(0, 0.1, 100.0, 100, 1);
    }
}
