//! The fault taxonomy and deterministic injectors.
//!
//! Every injector is a pure function of `(input, fault, seed)` built on
//! the stateless [`tbpoint_stats`] mixers, so a failing matrix cell can
//! be replayed exactly from its `(fault, seed)` coordinates.
//!
//! Faults target the pipeline's two trust boundaries:
//!
//! * **profile faults** ([`inject_profile`]) perturb the one-time
//!   emulator profile that inter-launch clustering and region sampling
//!   trust: stall-probability jitter, dropped/duplicated epoch-sized
//!   runs of thread blocks, noise on the counters behind the Eq. 2
//!   inter-launch feature vectors, and damaged class ids in class-table
//!   launch profiles;
//! * the **pool fault** ([`Fault::PanicInUnit`]) panics inside a unit
//!   scheduled on the supervised job pool.
//!
//! Sealed files that are read back (sweep units, serve's cache) are
//! attacked by the byte-flip tests of `tbpoint-obs`'s `Store` and of
//! its two users, not here.

use serde::{Deserialize, Serialize};
use tbpoint_emu::RunProfile;
use tbpoint_stats::unit_f64;

/// Thread blocks per "epoch" chunk for the drop/duplicate faults — an
/// occupancy-sized run, matching how the intra-launch clusterer groups
/// TBs into epochs (Eq. 4).
pub const EPOCH_CHUNK: usize = 32;

/// One injectable fault. Magnitudes are relative: `0.1` means counters
/// move by up to ±10%, fractions are the share of epoch chunks affected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// Jitter each TB's `mem_requests` (the stall-probability numerator,
    /// Eq. 5) by a factor in `1 ± magnitude`. The profile stays
    /// structurally valid; region identification sees noisy stall
    /// probabilities.
    StallJitter {
        /// Maximum relative perturbation (e.g. `0.2` = ±20%).
        magnitude: f64,
    },
    /// Remove epoch-sized runs of TB profiles from every launch. The
    /// block roster no longer matches the launch spec, so profile
    /// validation must fail and the pipeline must degrade, not index
    /// out of bounds.
    DropEpochs {
        /// Share of epoch chunks to remove (at least one when positive).
        fraction: f64,
    },
    /// Duplicate epoch-sized runs of TB profiles in every launch
    /// (roster too long — again must degrade).
    DuplicateEpochs {
        /// Share of epoch chunks to duplicate (at least one when
        /// positive).
        fraction: f64,
    },
    /// Scale each launch's instruction and memory counters by
    /// per-launch factors in `1 ± magnitude`, shifting its Eq. 2
    /// inter-launch feature vector while keeping the profile valid.
    FeatureNoise {
        /// Maximum relative perturbation.
        magnitude: f64,
    },
    /// Damage the class ids of every class-table launch profile the way a
    /// truncated or corrupt profile file would: per launch, a seeded
    /// choice between dropping the last block's id and pointing a seeded
    /// block past the class table. Profile validation must reject the
    /// launch and the pipeline degrade, not index out of bounds.
    /// Per-block launch profiles are left as they are.
    CorruptClassIds,
    /// Panic inside a seeded unit scheduled on the supervised job pool.
    /// The pool must contain it: that index alone reports the panic
    /// message, every other index completes, and the
    /// assembled outcome is identical at every worker count.
    PanicInUnit,
}

impl Fault {
    /// Short stable name for reports and artifact files.
    pub fn name(&self) -> &'static str {
        match self {
            Fault::StallJitter { .. } => "stall-jitter",
            Fault::DropEpochs { .. } => "drop-epochs",
            Fault::DuplicateEpochs { .. } => "duplicate-epochs",
            Fault::FeatureNoise { .. } => "feature-noise",
            Fault::CorruptClassIds => "corrupt-class-ids",
            Fault::PanicInUnit => "panic-in-unit",
        }
    }

    /// Whether this fault perturbs a [`RunProfile`].
    pub fn is_profile_fault(&self) -> bool {
        matches!(
            self,
            Fault::StallJitter { .. }
                | Fault::DropEpochs { .. }
                | Fault::DuplicateEpochs { .. }
                | Fault::FeatureNoise { .. }
                | Fault::CorruptClassIds
        )
    }

    /// Whether this fault attacks the job pool's worker supervision
    /// (rather than an input artifact).
    pub fn is_pool_fault(&self) -> bool {
        matches!(self, Fault::PanicInUnit)
    }

    /// The default matrix roster: every fault kind once, at magnitudes
    /// large enough to be visible but small enough that the sampler is
    /// still exercised (not just rejected at the door).
    pub fn default_matrix() -> Vec<Fault> {
        vec![
            Fault::StallJitter { magnitude: 0.3 },
            Fault::DropEpochs { fraction: 0.25 },
            Fault::DuplicateEpochs { fraction: 0.25 },
            Fault::FeatureNoise { magnitude: 0.3 },
            Fault::CorruptClassIds,
            Fault::PanicInUnit,
        ]
    }
}

/// Scale a counter by a factor, saturating at the `u64` range.
#[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn scale_count(x: u64, factor: f64) -> u64 {
    let v = (x as f64 * factor).round();
    if v <= 0.0 {
        0
    } else if v >= u64::MAX as f64 {
        u64::MAX
    } else {
        v as u64
    }
}

/// A deterministic factor in `1 ± magnitude` keyed by coordinates.
fn jitter_factor(coords: &[u64], magnitude: f64) -> f64 {
    1.0 + magnitude * (2.0 * unit_f64(coords) - 1.0)
}

/// Seeded index into a collection of `n` elements. The cast cannot
/// truncate: `n` comes from an in-memory collection's length, so the
/// result fits `usize`.
#[expect(clippy::cast_possible_truncation)]
pub(crate) fn seeded_index(coords: &[u64], n: usize) -> usize {
    tbpoint_stats::unit_index(coords, n as u64) as usize
}

/// Apply a profile fault in place, deterministically under `seed`.
/// The pool fault leaves the profile untouched.
pub fn inject_profile(profile: &mut RunProfile, fault: Fault, seed: u64) {
    match fault {
        Fault::StallJitter { magnitude } => {
            for (l, lp) in profile.launches.iter_mut().enumerate() {
                lp.edit_per_block(|tbs| {
                    for (i, tb) in tbs.iter_mut().enumerate() {
                        let f = jitter_factor(&[seed, 1, l as u64, i as u64], magnitude);
                        tb.mem_requests = scale_count(tb.mem_requests, f);
                    }
                });
            }
        }
        Fault::FeatureNoise { magnitude } => {
            for (l, lp) in profile.launches.iter_mut().enumerate() {
                // One factor per feature per launch, so the launch's
                // whole feature vector shifts coherently.
                let ft = jitter_factor(&[seed, 2, l as u64, 0], magnitude);
                let fw = jitter_factor(&[seed, 2, l as u64, 1], magnitude);
                let fm = jitter_factor(&[seed, 2, l as u64, 2], magnitude);
                lp.edit_per_block(|tbs| {
                    for tb in tbs {
                        tb.thread_insts = scale_count(tb.thread_insts, ft);
                        tb.warp_insts = scale_count(tb.warp_insts, fw);
                        tb.mem_requests = scale_count(tb.mem_requests, fm);
                    }
                });
            }
        }
        Fault::DropEpochs { fraction } => {
            for (l, lp) in profile.launches.iter_mut().enumerate() {
                lp.edit_per_block(|tbs| {
                    let n_chunks = tbs.len().div_ceil(EPOCH_CHUNK).max(1);
                    let mut keep: Vec<bool> = (0..n_chunks)
                        .map(|c| unit_f64(&[seed, 3, l as u64, c as u64]) >= fraction)
                        .collect();
                    // A positive fraction must drop something, or the cell
                    // silently tests nothing.
                    if fraction > 0.0 && keep.iter().all(|&k| k) {
                        let c = seeded_index(&[seed, 4, l as u64], n_chunks);
                        keep[c] = false;
                    }
                    let mut i = 0;
                    tbs.retain(|_| {
                        i += 1;
                        keep[(i - 1) / EPOCH_CHUNK]
                    });
                });
            }
        }
        Fault::DuplicateEpochs { fraction } => {
            for (l, lp) in profile.launches.iter_mut().enumerate() {
                lp.edit_per_block(|tbs| {
                    let n_chunks = tbs.len().div_ceil(EPOCH_CHUNK).max(1);
                    let mut dup: Vec<bool> = (0..n_chunks)
                        .map(|c| unit_f64(&[seed, 5, l as u64, c as u64]) < fraction)
                        .collect();
                    if fraction > 0.0 && !dup.iter().any(|&d| d) {
                        let c = seeded_index(&[seed, 6, l as u64], n_chunks);
                        dup[c] = true;
                    }
                    let mut out = Vec::with_capacity(tbs.len() * 2);
                    for (c, chunk) in tbs.chunks(EPOCH_CHUNK).enumerate() {
                        out.extend_from_slice(chunk);
                        if dup[c] {
                            out.extend_from_slice(chunk);
                        }
                    }
                    *tbs = out;
                });
            }
        }
        Fault::CorruptClassIds => {
            for (l, lp) in profile.launches.iter_mut().enumerate() {
                // An id one past the class table, when a u16 can hold it.
                let past_table = lp.num_classes().and_then(|c| u16::try_from(c).ok());
                let Some(ids) = lp.class_ids_mut() else {
                    continue;
                };
                match past_table {
                    Some(bad) if !ids.is_empty() && unit_f64(&[seed, 7, l as u64]) < 0.5 => {
                        let b = seeded_index(&[seed, 8, l as u64], ids.len());
                        ids[b] = bad;
                    }
                    _ => {
                        ids.pop();
                    }
                }
            }
        }
        Fault::PanicInUnit => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbpoint_emu::profile_run;
    use tbpoint_ir::{
        AddrPattern, Dist, KernelBuilder, KernelRun, LaunchId, LaunchSpec, Op, TripCount,
    };

    /// Per-block trip counts make blocks distinguishable, so which epochs
    /// a fault drops or duplicates shows in the profile.
    fn tiny_run() -> KernelRun {
        let mut b = KernelBuilder::new("tiny", 7, 64);
        let site = b.fresh_site();
        let body = b.block(&[
            Op::IAlu,
            Op::LdGlobal(AddrPattern::Coalesced {
                region: 0,
                stride: 4,
            }),
        ]);
        let trips = TripCount::PerBlock {
            base: 5,
            spread: 10,
            dist: Dist::Uniform,
            site,
        };
        let n = b.loop_(trips, body);
        let kernel = b.finish(n);
        KernelRun {
            kernel,
            launches: (0..2)
                .map(|i| LaunchSpec {
                    launch_id: LaunchId(i),
                    num_blocks: 96,
                    work_scale: 1.0,
                })
                .collect(),
        }
    }

    /// Two launches of a class-path kernel: its profiles hold class ids.
    fn class_run() -> KernelRun {
        let mut run = tiny_run();
        let mut b = KernelBuilder::new("classes", 7, 96);
        let body = b.block(&[
            Op::IAlu,
            Op::LdGlobal(AddrPattern::Coalesced {
                region: 0,
                stride: 4,
            }),
        ]);
        let n = b.loop_(TripCount::Const(6), body);
        run.kernel = b.finish(n);
        run
    }

    #[test]
    fn injectors_are_deterministic_in_the_seed() {
        for fault in Fault::default_matrix() {
            if !fault.is_profile_fault() {
                continue;
            }
            let base = match fault {
                Fault::CorruptClassIds => profile_run(&class_run(), 1),
                _ => profile_run(&tiny_run(), 1),
            };
            let mut a = base.clone();
            let mut b = base.clone();
            let mut c = base.clone();
            inject_profile(&mut a, fault, 42);
            inject_profile(&mut b, fault, 42);
            inject_profile(&mut c, fault, 43);
            assert_eq!(a, b, "{} not deterministic", fault.name());
            assert_ne!(a, c, "{} ignores the seed", fault.name());
            assert_ne!(a, base, "{} changed nothing", fault.name());
        }
    }

    #[test]
    fn drop_and_duplicate_change_the_roster_length() {
        let base = profile_run(&tiny_run(), 1);
        let mut dropped = base.clone();
        inject_profile(&mut dropped, Fault::DropEpochs { fraction: 0.5 }, 7);
        assert!(dropped.launches[0].num_blocks() < base.launches[0].num_blocks());

        let mut duped = base.clone();
        inject_profile(&mut duped, Fault::DuplicateEpochs { fraction: 0.5 }, 7);
        assert!(duped.launches[0].num_blocks() > base.launches[0].num_blocks());
    }

    #[test]
    fn class_id_corruption_leaves_per_block_profiles_alone() {
        let base = profile_run(&class_run(), 1);
        assert!(base.launches.iter().all(|l| l.num_classes() == Some(4)));
        for seed in 0..8 {
            let mut damaged = base.clone();
            inject_profile(&mut damaged, Fault::CorruptClassIds, seed);
            for (d, b) in damaged.launches.iter().zip(&base.launches) {
                assert!(d.check_classes().is_err() || d.num_blocks() < b.num_blocks());
            }
        }
        let per_block = profile_run(&tiny_run(), 1);
        let mut untouched = per_block.clone();
        inject_profile(&mut untouched, Fault::CorruptClassIds, 3);
        assert_eq!(untouched, per_block);
    }

    #[test]
    fn jitter_preserves_structure() {
        let base = profile_run(&tiny_run(), 1);
        let mut j = base.clone();
        inject_profile(&mut j, Fault::StallJitter { magnitude: 0.5 }, 9);
        assert_eq!(j.launches.len(), base.launches.len());
        for (a, b) in j.launches.iter().zip(&base.launches) {
            assert_eq!(a.num_blocks(), b.num_blocks());
            // Only mem_requests moved.
            for (ta, tb) in a.tbs().zip(b.tbs()) {
                assert_eq!(ta.warp_insts, tb.warp_insts);
                assert_eq!(ta.thread_insts, tb.thread_insts);
            }
        }
    }

    #[test]
    fn fault_names_are_stable_and_serializable() {
        for f in Fault::default_matrix() {
            let json = serde_json::to_string(&f).expect("serialize");
            let back: Fault = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, f);
            assert!(!f.name().is_empty());
        }
    }
}
