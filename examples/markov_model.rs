//! The mathematical model behind intra-launch sampling (Section IV-A):
//! build the 2^N-state Markov chain of Fig. 4, compare its steady-state
//! IPC against a direct stochastic simulation, then run the Fig. 5
//! Monte-Carlo experiment demonstrating Lemma 4.1.
//!
//! ```text
//! cargo run --release --example markov_model
//! ```

use tbpoint::model::{ipc_variation, simulate_chain_ipc, IpcVariationConfig, WarpChain};

fn main() {
    println!("== Markov chain vs direct simulation ==");
    println!(
        "{:>4} {:>6} {:>6}  {:>10} {:>10} {:>8}",
        "N", "p", "M", "analytic", "simulated", "diff"
    );
    for &(n, p, m) in &[
        (2u32, 0.1, 100.0),
        (4, 0.1, 200.0),
        (8, 0.05, 400.0),
        (8, 0.3, 50.0),
    ] {
        let chain = WarpChain::uniform(n, p, m);
        let analytic = chain.ipc();
        let fast = chain.ipc_fast();
        assert!(
            (analytic - fast).abs() < 1e-8,
            "closed form must match the dense chain"
        );
        let simulated = simulate_chain_ipc(n, p, m, 1_000_000, 7);
        println!(
            "{n:>4} {p:>6.2} {m:>6.0}  {analytic:>10.4} {simulated:>10.4} {:>7.2}%",
            (analytic - simulated).abs() / analytic * 100.0
        );
    }

    println!();
    println!("== Fig. 5: IPC variation under random stall durations ==");
    println!("(M_x ~ N(mu, (0.1 mu / 1.96)^2) per warp, 10,000 samples each)");
    println!(
        "{:>16} {:>9} {:>9} {:>9} {:>12}",
        "config", "mean IPC", "p2.5", "p97.5", "within ±10%"
    );
    for cfg in [
        IpcVariationConfig::paper(0.05, 100.0, 4),
        IpcVariationConfig::paper(0.1, 200.0, 4),
        IpcVariationConfig::paper(0.1, 400.0, 8),
        IpcVariationConfig::paper(0.2, 100.0, 8),
    ] {
        let r = ipc_variation(&cfg);
        println!(
            "{:>16} {:>9.4} {:>9.4} {:>9.4} {:>11.1}%",
            cfg.label(),
            r.mean_ipc,
            r.p2_5,
            r.p97_5,
            r.fraction_within_band * 100.0
        );
        assert!(r.fraction_within_band > 0.95, "Lemma 4.1 must hold");
    }
    println!();
    println!("Lemma 4.1 holds: a homogeneous interval's IPC is stable under");
    println!("warp-interleaving randomness, so sampling one interval per region is sound.");
}
