//! The 12 benchmark generators, one module each, plus shared helpers.
//!
//! Every generator returns a [`KernelRun`](tbpoint_ir::KernelRun) whose launch count matches
//! Table VI exactly and whose total thread blocks match at
//! [`Scale::Full`].

pub mod bfs;
pub mod black;
pub mod cfd;
pub mod conv;
pub mod hotspot;
pub mod kmeans;
pub mod lbm;
pub mod mri;
pub mod mst;
pub mod spmv;
pub mod sssp;
pub mod stream;

use crate::Scale;
use tbpoint_ir::{LaunchId, LaunchSpec};

/// Split `total` blocks over launches proportionally to `weights`
/// (largest-remainder rounding; every launch gets at least one block) and
/// scale each launch with `scale`.
pub(crate) fn distribute_launches(total: u32, weights: &[f64], scale: Scale) -> Vec<LaunchSpec> {
    assert!(!weights.is_empty());
    let wsum: f64 = weights.iter().sum();
    assert!(wsum > 0.0, "weights must be positive");
    // Ideal (real-valued) shares and floors.
    let mut blocks: Vec<u32> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
    let mut assigned = 0u32;
    for (i, w) in weights.iter().enumerate() {
        let share = total as f64 * w / wsum;
        // share <= total: u32, so the saturating cast cannot wrap.
        #[expect(clippy::cast_possible_truncation)]
        let fl = (share.floor() as u32).max(1);
        blocks.push(fl);
        assigned += fl;
        remainders.push((i, share - fl as f64));
    }
    // Distribute the leftover by largest remainder (or trim overshoot
    // from the smallest remainders).
    remainders.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut i = 0;
    while assigned < total {
        blocks[remainders[i % remainders.len()].0] += 1;
        assigned += 1;
        i += 1;
    }
    let mut j = remainders.len();
    while assigned > total {
        j = if j == 0 { remainders.len() - 1 } else { j - 1 };
        let idx = remainders[j].0;
        if blocks[idx] > 1 {
            blocks[idx] -= 1;
            assigned -= 1;
        }
    }
    blocks
        .into_iter()
        .enumerate()
        .map(|(i, full)| LaunchSpec {
            // Launch counts are small (weights.len()).
            #[expect(clippy::cast_possible_truncation)]
            launch_id: LaunchId(i as u32),
            num_blocks: scale.blocks(full, 2),
            work_scale: 1.0,
        })
        .collect()
}

/// `n` identical launches totalling exactly `total` blocks (remainder
/// spread over the first launches), scaled.
pub(crate) fn uniform_launches(total: u32, n: u32, scale: Scale) -> Vec<LaunchSpec> {
    let base = total / n;
    let extra = total % n;
    (0..n)
        .map(|i| LaunchSpec {
            launch_id: LaunchId(i),
            num_blocks: scale.blocks(base + u32::from(i < extra), 2),
            work_scale: 1.0,
        })
        .collect()
}

/// Bell-curve weights for frontier-style launch sequences (bfs, sssp):
/// small start, peak in the middle, small tail.
pub(crate) fn bell_weights(n: usize) -> Vec<f64> {
    let mid = (n as f64 - 1.0) / 2.0;
    let sigma = n as f64 / 4.0;
    (0..n)
        .map(|i| {
            let d = (i as f64 - mid) / sigma;
            (-0.5 * d * d).exp()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribute_hits_exact_total() {
        for &total in &[10619u32, 2331, 12691] {
            let w = bell_weights(13);
            let launches = distribute_launches(total, &w, Scale::Full);
            let sum: u32 = launches.iter().map(|l| l.num_blocks).sum();
            assert_eq!(sum, total);
            assert!(launches.iter().all(|l| l.num_blocks >= 1));
        }
    }

    #[test]
    fn distribute_is_bell_shaped() {
        let launches = distribute_launches(10000, &bell_weights(13), Scale::Full);
        let mid = launches[6].num_blocks;
        assert!(mid > launches[0].num_blocks * 3);
        assert!(mid > launches[12].num_blocks * 3);
    }

    #[test]
    fn uniform_hits_exact_total() {
        let launches = uniform_launches(2688, 211, Scale::Full);
        assert_eq!(launches.len(), 211);
        let sum: u32 = launches.iter().map(|l| l.num_blocks).sum();
        assert_eq!(sum, 2688);
        // Sizes differ by at most one block.
        let min = launches.iter().map(|l| l.num_blocks).min().unwrap();
        let max = launches.iter().map(|l| l.num_blocks).max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn scaling_shrinks_launches_not_counts() {
        let full = distribute_launches(10619, &bell_weights(13), Scale::Full);
        let dev = distribute_launches(10619, &bell_weights(13), Scale::Dev);
        assert_eq!(full.len(), dev.len());
        let fs: u32 = full.iter().map(|l| l.num_blocks).sum();
        let ds: u32 = dev.iter().map(|l| l.num_blocks).sum();
        assert!(ds < fs / 4);
    }
}
