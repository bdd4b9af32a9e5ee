//! Fig. 5: Monte-Carlo IPC variation of a homogeneous interval.
//!
//! One curve per legend entry (p, M, N); the paper's claim is that every
//! configuration keeps >95% of its 10,000 samples within ±10% of the
//! mean IPC.

use crate::output;
use serde::{Deserialize, Serialize};
use tbpoint_model::{ipc_variation, IpcVariationConfig, IpcVariationResult};
use tbpoint_pool::map_indexed;

/// The paper's legend entries (e.g. `p0.05M100N4`), reconstructed from
/// the figure: stall probabilities 0.05/0.1/0.2, stall lengths 100-400,
/// 4 and 8 warps.
pub fn paper_configs() -> Vec<IpcVariationConfig> {
    vec![
        IpcVariationConfig::paper(0.05, 100.0, 4),
        IpcVariationConfig::paper(0.05, 100.0, 8),
        IpcVariationConfig::paper(0.1, 200.0, 4),
        IpcVariationConfig::paper(0.1, 200.0, 8),
        IpcVariationConfig::paper(0.1, 400.0, 4),
        IpcVariationConfig::paper(0.1, 400.0, 8),
        IpcVariationConfig::paper(0.2, 100.0, 4),
        IpcVariationConfig::paper(0.2, 400.0, 8),
    ]
}

/// Fig. 5 output: one result per configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Result {
    /// Per-configuration Monte-Carlo outcomes.
    pub results: Vec<IpcVariationResult>,
}

impl Fig5Result {
    /// Does Lemma 4.1 hold for every configuration?
    pub fn lemma_holds(&self) -> bool {
        self.results.iter().all(|r| r.fraction_within_band > 0.95)
    }

    /// Render the results table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .results
            .iter()
            .map(|r| {
                vec![
                    r.config.label(),
                    output::fmt(r.nominal_ipc, 4),
                    output::fmt(r.mean_ipc, 4),
                    output::fmt(r.p2_5, 4),
                    output::fmt(r.p97_5, 4),
                    output::pct(r.fraction_within_band),
                ]
            })
            .collect();
        let mut s = output::render_table(
            &["config", "nominal", "mean", "p2.5", "p97.5", "within±10%"],
            &rows,
        );
        s.push_str(&format!(
            "Lemma 4.1 (>95% of samples within 10% of mean IPC): {}\n",
            if self.lemma_holds() {
                "HOLDS for all configs"
            } else {
                "VIOLATED"
            }
        ));
        s
    }
}

/// Run the Fig. 5 experiment with `samples` Monte-Carlo draws per
/// configuration (paper: 10,000), one configuration per pool unit over
/// `workers` workers (results are identical at any count).
pub fn fig5(samples: usize, workers: usize) -> Fig5Result {
    let configs = paper_configs();
    let results = map_indexed(workers, configs.len(), |i| {
        ipc_variation(&IpcVariationConfig {
            samples,
            ..configs[i]
        })
    });
    Fig5Result { results }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lemma holds, and the pool's worker count changes no result.
    #[test]
    fn lemma_holds_at_reduced_samples() {
        let r = fig5(1_500, 1);
        assert_eq!(r.results.len(), 8);
        assert!(r.lemma_holds(), "{}", r.render());
        assert_eq!(r, fig5(1_500, 4));
    }

    #[test]
    fn render_contains_labels() {
        let r = fig5(200, 2);
        let s = r.render();
        assert!(s.contains("p0.05M100N4"));
        assert!(s.contains("Lemma 4.1"));
    }
}
