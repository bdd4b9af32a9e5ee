//! Live single-pass sampling: region detection *during* the timing
//! simulation, with no profiling pass.
//!
//! The two-phase pipeline learns each thread block's features (stall
//! probability, instruction count) from the emulator profile, clusters
//! epochs offline, and only then simulates. The live classifier instead
//! consumes the same per-TB feature counters as they stream out of the
//! simulator's retire hook ([`tbpoint_sim::SamplingHook::on_retire`])
//! and rebuilds the epoch/cluster/region structure on the fly:
//!
//! * **Epochs** are `occupancy`-sized runs of consecutive TB ids, exactly
//!   as in the offline [`crate::intra::build_epochs`]. An epoch is
//!   *complete* once every one of its blocks has either retired (with
//!   feature counters) or been skipped; completed epochs are classified
//!   in index order.
//! * **Online clustering** is leader clustering on the epoch's mean
//!   stall probability: an epoch joins the first cluster whose running
//!   centre is within a relative `sigma` band, otherwise it founds a new
//!   cluster (`LiveEpochDetected` event either way).
//! * **Warming** starts after `MIN_RUN` consecutive epochs land in the
//!   same (non-abandoned) cluster, and runs on the shared
//!   [`super::Warming`] machine: once the trailing `WARMING_WINDOW` unit
//!   IPCs agree pairwise within the warming threshold, fast-forwarding
//!   begins (`FastForwardStarted`, with the cluster as its region).
//! * **Fast-forwarding** skips dispatched blocks, predicting their
//!   cycles as `insts / unit IPC`. A block whose stall probability
//!   strays more than `DESTAB_TOLERANCE` (relative) from the cluster
//!   centre — or a completed epoch that classifies into a different
//!   cluster — *destabilises* the sampler (`LiveDestabilised`) and
//!   returns it to detailed simulation. How a skipped block's stats are
//!   known depends on the launch:
//!   - *class path* (no thread- or block-varying control flow, no
//!     gathers): a block's stats are a function of its class, read from
//!     the emulator ([`tbpoint_emu::BlockClasses`]) at dispatch. Every
//!     dispatch is checked and a skipped block is charged its exact
//!     instruction count; no block is simulated to find out;
//!   - *per-block path*: every `GUARD_PERIOD`-th dispatch is simulated as
//!     a *guard* and checked when it retires; skipped blocks are charged
//!     the running mean instruction count of the cluster's simulated
//!     blocks.
//!
//! Degradation rides the shared ladder: a cluster whose warming budget
//! runs out is abandoned with a `DegradedMode` event and its blocks stay
//! on the detailed path, exactly like an abandoned offline region.

use super::{Classifier, Sampler, State, Warming};
use crate::error::{invalid, TbError};
use crate::predict::TbpointConfig;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use tbpoint_emu::{BlockClasses, TbStats};
use tbpoint_ir::TbId;
use tbpoint_obs::{EventKind, Recorder};

/// Relative-band floor: clusters whose centre is (near) zero still accept
/// exactly-zero epochs without the band collapsing to nothing.
const EPS: f64 = 1e-9;

/// Consecutive same-cluster epochs required before warming starts.
const MIN_RUN: u32 = 2;

/// Per-block-path launches only: during fast-forward, every
/// `GUARD_PERIOD`-th dispatched block is simulated as a guard
/// (destabilisation probe) instead of skipped.
const GUARD_PERIOD: u64 = 8;

/// Relative deviation of a fast-forwarded block's stall probability
/// from its cluster centre that destabilises the fast-forward.
const DESTAB_TOLERANCE: f64 = 0.5;

/// Live-only diagnostics of one sampled launch, beside the shared
/// [`super::IntraOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LiveOutcome {
    /// Epochs completed and classified.
    pub epochs_classified: u32,
    /// Distinct clusters discovered online.
    pub clusters_discovered: u32,
    /// Guard blocks simulated during fast-forward periods (per-block-path
    /// launches only).
    pub guard_tbs: u32,
    /// Fast-forward periods cut short because a dispatched or guard block
    /// (or a fresh epoch) no longer matched the cluster.
    pub destabilisations: u32,
}

/// Running statistics of one online cluster.
#[derive(Debug, Clone, Copy)]
struct Cluster {
    /// Running mean of member epochs' mean stall probability.
    center: f64,
    /// Epochs assigned so far (with at least one simulated block).
    epochs: u32,
    /// Total warp instructions of simulated member blocks.
    sum_insts: u64,
    /// Simulated member blocks.
    sim_tbs: u64,
}

/// Per-epoch completion accumulator.
#[derive(Debug, Clone, Copy, Default)]
struct EpochAcc {
    /// Blocks retired or skipped.
    done: u32,
    /// Blocks retired with feature counters.
    sim_count: u32,
    /// Sum of simulated blocks' stall probabilities.
    sum_p: f64,
    /// Sum of simulated blocks' warp instructions.
    sum_insts: u64,
}

/// The live classifier: leader-clustered epochs detected from the retire
/// stream. Needs no profile and no region table — only the launch's
/// block count, the GPU's system occupancy and, for a class-path launch,
/// its block classes.
pub struct Online<'k> {
    occupancy: u32,
    num_blocks: u32,
    /// The launch's block classes, when it has them: skipped blocks'
    /// exact stats.
    classes: Option<BlockClasses<'k>>,
    sigma: f64,

    epochs: Vec<EpochAcc>,
    next_epoch: u32,
    clusters: Vec<Cluster>,
    last_cluster: Option<u32>,
    run_cluster: Option<u32>,
    run_len: u32,
    guards: BTreeSet<u32>,
    ff_dispatch_idx: u64,
    global_sum_insts: u64,
    global_sim_tbs: u64,
    outcome: LiveOutcome,
}

/// The live sampling hook.
pub type LiveSampler<'a> = Sampler<'a, Online<'a>>;

impl<'a> LiveSampler<'a> {
    /// A live sampler for a launch of `num_blocks` thread blocks on a GPU
    /// with `occupancy` concurrently resident blocks (from
    /// [`tbpoint_sim::GpuConfig::system_occupancy`]), with `cfg`'s
    /// warming and live settings (the online clustering band reuses
    /// `cfg.intra.sigma`). `classes` are the launch's block classes
    /// ([`BlockClasses::new`]; `None` on the per-block path): with them
    /// every fast-forward dispatch is checked and charged exactly, with
    /// no guard blocks.
    ///
    /// # Errors
    ///
    /// [`TbError::InvalidConfig`] when [`TbpointConfig::validate`]
    /// rejects `cfg` or `occupancy` is zero.
    pub fn new(
        cfg: &TbpointConfig,
        num_blocks: u32,
        occupancy: u32,
        classes: Option<BlockClasses<'a>>,
        recorder: &'a dyn Recorder,
    ) -> Result<Self, TbError> {
        if occupancy == 0 {
            return Err(invalid("occupancy", "must be at least 1 (got 0)"));
        }
        Ok(Sampler {
            warming: Warming::new(cfg, recorder)?,
            classifier: Online {
                occupancy,
                num_blocks,
                classes,
                sigma: cfg.intra.sigma,
                epochs: vec![EpochAcc::default(); num_blocks.div_ceil(occupancy) as usize],
                next_epoch: 0,
                clusters: Vec::new(),
                last_cluster: None,
                run_cluster: None,
                run_len: 0,
                guards: BTreeSet::new(),
                ff_dispatch_idx: 0,
                global_sum_insts: 0,
                global_sim_tbs: 0,
                outcome: LiveOutcome::default(),
            },
        })
    }

    /// The live-only diagnostics gathered so far.
    pub fn live_outcome(&self) -> LiveOutcome {
        self.classifier.outcome
    }
}

impl Online<'_> {
    /// Blocks in epoch `e` (the last epoch may be ragged).
    fn epoch_size(&self, e: u32) -> u32 {
        let start = e * self.occupancy;
        (self.num_blocks - start).min(self.occupancy)
    }

    /// Leader clustering: the first cluster whose centre is within the
    /// relative `sigma` band wins; otherwise a new cluster is founded.
    fn assign(&mut self, p: f64) -> u32 {
        let mut id = 0u32;
        for c in &self.clusters {
            if (p - c.center).abs() <= self.sigma * c.center.max(EPS) {
                return id;
            }
            id += 1;
        }
        self.clusters.push(Cluster {
            center: p,
            epochs: 0,
            sum_insts: 0,
            sim_tbs: 0,
        });
        self.outcome.clusters_discovered += 1;
        id
    }

    /// Estimated warp instructions of one skipped per-block-path block.
    fn estimate_insts(&self, cluster: u32) -> u64 {
        let c = &self.clusters[cluster as usize];
        if let Some(avg) = c.sum_insts.checked_div(c.sim_tbs) {
            return avg;
        }
        self.global_sum_insts
            .checked_div(self.global_sim_tbs)
            .unwrap_or(0)
    }

    /// Whether a block with `stats` strays beyond the destabilisation
    /// tolerance from `cluster`'s centre.
    fn strays(&self, cluster: u32, stats: TbStats) -> bool {
        let center = self.clusters[cluster as usize].center;
        (stats.stall_probability() - center).abs() > DESTAB_TOLERANCE * center.max(EPS)
    }

    /// The only way out of a live fast-forward; the next one starts its
    /// guard cadence afresh.
    fn destabilise(&mut self, warming: &mut Warming<'_>, cycle: u64, cluster: u32) {
        self.run_cluster = None;
        self.run_len = 0;
        self.ff_dispatch_idx = 0;
        self.outcome.destabilisations += 1;
        warming.leave(cycle, EventKind::LiveDestabilised { cluster });
    }

    /// Classify the completed epoch `e` and run the state transitions it
    /// triggers.
    fn classify_epoch(&mut self, warming: &mut Warming<'_>, e: u32, cycle: u64) {
        let acc = self.epochs[e as usize];
        let cluster = if acc.sim_count == 0 {
            // Fully skipped epoch: nothing measurable; it inherits the
            // cluster we are fast-forwarding through. (`last_cluster` is
            // always set here — skipping requires an earlier classified
            // epoch — but classify an all-zero feature defensively.)
            match self.last_cluster {
                Some(c) => c,
                None => self.assign(0.0),
            }
        } else {
            self.assign(acc.sum_p / f64::from(acc.sim_count))
        };
        if acc.sim_count > 0 {
            let c = &mut self.clusters[cluster as usize];
            c.epochs += 1;
            let p = acc.sum_p / f64::from(acc.sim_count);
            c.center += (p - c.center) / f64::from(c.epochs);
            c.sum_insts += acc.sum_insts;
            c.sim_tbs += u64::from(acc.sim_count);
        }
        self.outcome.epochs_classified += 1;
        warming.record(cycle, EventKind::LiveEpochDetected { epoch: e, cluster });
        self.last_cluster = Some(cluster);
        if self.run_cluster == Some(cluster) {
            self.run_len += 1;
        } else {
            self.run_cluster = Some(cluster);
            self.run_len = 1;
        }
        match warming.state() {
            State::Outside => {
                if self.run_len >= MIN_RUN {
                    warming.enter(cycle, cluster);
                }
            }
            State::Warming(c) => {
                if cluster != c {
                    warming.exit(cycle);
                }
            }
            State::FastForward { region: c, .. } => {
                // An epoch with real measurements landing in a different
                // cluster is as good a destabilisation signal as a stray
                // guard block.
                if acc.sim_count > 0 && cluster != c {
                    self.destabilise(warming, cycle, c);
                }
            }
        }
    }

    /// One block of its epoch is accounted for (retired or skipped);
    /// classify any epochs this completes, in index order.
    fn epoch_done(
        &mut self,
        warming: &mut Warming<'_>,
        tb: TbId,
        cycle: u64,
        stats: Option<TbStats>,
    ) {
        let e = tb.0 / self.occupancy;
        let acc = &mut self.epochs[e as usize];
        acc.done += 1;
        if let Some(s) = stats {
            acc.sim_count += 1;
            acc.sum_p += s.stall_probability();
            acc.sum_insts += s.warp_insts;
            self.global_sum_insts += s.warp_insts;
            self.global_sim_tbs += 1;
        }
        while self.next_epoch < self.num_blocks.div_ceil(self.occupancy)
            && self.epochs[self.next_epoch as usize].done == self.epoch_size(self.next_epoch)
        {
            let e = self.next_epoch;
            self.next_epoch += 1;
            self.classify_epoch(warming, e, cycle);
        }
    }
}

impl Classifier for Online<'_> {
    /// A class-path block is skipped at its exact count unless its
    /// stats stray from the cluster, which destabilises the sampler and
    /// simulates it. On the per-block path every `GUARD_PERIOD`-th
    /// dispatch of a fast-forward is simulated as a guard and the rest
    /// are skipped at the cluster's estimate.
    fn skip_insts(
        &mut self,
        warming: &mut Warming<'_>,
        tb: TbId,
        cluster: u32,
        cycle: u64,
    ) -> Option<u64> {
        if let Some(classes) = &mut self.classes {
            let stats = classes.stats(tb.0);
            if self.strays(cluster, stats) {
                self.destabilise(warming, cycle, cluster);
                return None;
            }
            return Some(stats.warp_insts);
        }
        let guard = self.ff_dispatch_idx.is_multiple_of(GUARD_PERIOD);
        self.ff_dispatch_idx += 1;
        if guard {
            self.guards.insert(tb.0);
            self.outcome.guard_tbs += 1;
            return None;
        }
        Some(self.estimate_insts(cluster))
    }

    fn on_skipped(&mut self, warming: &mut Warming<'_>, tb: TbId, cycle: u64) {
        self.epoch_done(warming, tb, cycle, None);
    }

    fn before_unit(&mut self, warming: &mut Warming<'_>, tb: TbId, cycle: u64, stats: TbStats) {
        if self.guards.remove(&tb.0) {
            if let State::FastForward {
                region: cluster, ..
            } = warming.state()
            {
                if self.strays(cluster, stats) {
                    self.destabilise(warming, cycle, cluster);
                }
            }
        }
    }

    fn on_retired(&mut self, warming: &mut Warming<'_>, tb: TbId, cycle: u64, stats: TbStats) {
        self.epoch_done(warming, tb, cycle, Some(stats));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbpoint_emu::profile_launch;
    use tbpoint_ir::{
        AddrPattern, Dist, Kernel, KernelBuilder, LaunchId, LaunchSpec, Op, TripCount,
    };
    use tbpoint_obs::{CollectingRecorder, NullRecorder};
    use tbpoint_sim::{simulate_launch, GpuConfig, NullSampling};

    fn homogeneous_kernel() -> Kernel {
        let mut b = KernelBuilder::new("homog", 31, 128);
        let body = b.block(&[
            Op::IAlu,
            Op::FAlu,
            Op::LdGlobal(AddrPattern::Coalesced {
                region: 0,
                stride: 4,
            }),
        ]);
        let n = b.loop_(TripCount::Const(30), body);
        b.finish(n)
    }

    /// [`homogeneous_kernel`] with a gather load: every block still
    /// does the same work, but its stats are no function of a class, so
    /// the launch takes the per-block path.
    fn gather_kernel() -> Kernel {
        let mut b = KernelBuilder::new("gather", 31, 128);
        let body = b.block(&[
            Op::IAlu,
            Op::FAlu,
            Op::LdGlobal(AddrPattern::Random {
                region: 0,
                bytes: 1 << 16,
            }),
        ]);
        let n = b.loop_(TripCount::Const(30), body);
        b.finish(n)
    }

    fn spec(n: u32) -> LaunchSpec {
        LaunchSpec {
            launch_id: LaunchId(0),
            num_blocks: n,
            work_scale: 1.0,
        }
    }

    fn live_sampler<'a>(
        cfg: &TbpointConfig,
        k: &'a Kernel,
        gpu: &GpuConfig,
        n: u32,
        rec: &'a dyn Recorder,
    ) -> LiveSampler<'a> {
        let classes = BlockClasses::new(k, &spec(n));
        LiveSampler::new(cfg, n, gpu.system_occupancy(k), classes, rec).unwrap()
    }

    #[test]
    fn homogeneous_launch_gets_fast_forwarded_live() {
        let k = homogeneous_kernel();
        let gpu = GpuConfig::fermi();
        let sp = spec(3000);
        let mut sampler = live_sampler(&TbpointConfig::default(), &k, &gpu, 3000, &NullRecorder);
        let r = simulate_launch(&k, &sp, &gpu, &mut sampler, None);
        let (out, live) = (sampler.outcome(), sampler.live_outcome());
        assert!(out.skipped_tbs > 0, "fast-forward must engage: {out:?}");
        assert_eq!(r.skipped_tbs, out.skipped_tbs);
        assert!(live.epochs_classified > 0);
        assert_eq!(live.clusters_discovered, 1, "homogeneous -> one cluster");
        assert_eq!(live.destabilisations, 0);
        assert_eq!(live.guard_tbs, 0, "a class-path launch simulates no guards");
        // Class-path launch: skipped-inst accounting is exact.
        let profile = profile_launch(&k, &sp);
        let total = profile.warp_insts();
        assert_eq!(out.skipped_warp_insts + r.issued_warp_insts, total);
    }

    #[test]
    fn live_sampled_ipc_close_to_full_ipc() {
        let k = homogeneous_kernel();
        let gpu = GpuConfig::fermi();
        let sp = spec(3000);
        let full = simulate_launch(&k, &sp, &gpu, &mut NullSampling, None);
        let mut sampler = live_sampler(&TbpointConfig::default(), &k, &gpu, 3000, &NullRecorder);
        let sampled = simulate_launch(&k, &sp, &gpu, &mut sampler, None);
        let out = sampler.outcome();

        let full_ipc = full.ipc();
        let predicted_cycles = sampled.cycles as f64 + out.predicted_skipped_cycles;
        let total_insts = (sampled.issued_warp_insts + out.skipped_warp_insts) as f64;
        let predicted_ipc = total_insts / predicted_cycles;
        let err = ((predicted_ipc - full_ipc) / full_ipc).abs();
        assert!(
            err < 0.10,
            "live sampling error {:.2}% too high (pred {predicted_ipc:.3} vs full {full_ipc:.3})",
            err * 100.0
        );
        assert!(sampled.issued_warp_insts < full.issued_warp_insts / 2);
    }

    #[test]
    fn guard_blocks_are_simulated_during_per_block_fast_forward() {
        let k = gather_kernel();
        assert!(BlockClasses::new(&k, &spec(3000)).is_none());
        let gpu = GpuConfig::fermi();
        let sp = spec(3000);
        let mut sampler = live_sampler(&TbpointConfig::default(), &k, &gpu, 3000, &NullRecorder);
        simulate_launch(&k, &sp, &gpu, &mut sampler, None);
        let (out, live) = (sampler.outcome(), sampler.live_outcome());
        assert!(live.guard_tbs > 0, "guards must run: {live:?}");
        assert!(out.skipped_tbs > live.guard_tbs, "guards stay the minority");
        // Guards of a homogeneous kernel never destabilise.
        assert_eq!(live.destabilisations, 0);
    }

    /// A class-path kernel in two phases of `PHASE` blocks: a fixed
    /// strided load (32 requests) and a phase-drawn number of trips over
    /// an ALU block, so the phases' stall probabilities differ by the
    /// ratio of their trip counts.
    const PHASE: u32 = 1500;

    fn phase_kernel() -> Kernel {
        let mut b = KernelBuilder::new("phases", 14, 128);
        let site = b.fresh_site();
        let load = b.block(&[Op::LdGlobal(AddrPattern::Strided {
            region: 0,
            stride: 128,
        })]);
        let alu = b.block(&[Op::IAlu, Op::FAlu]);
        let trips = TripCount::PerBlockPhase {
            base: 1,
            spread: 60,
            phase_len: PHASE,
            dist: Dist::Uniform,
            site,
        };
        let alus = b.loop_(trips, alu);
        let n = b.seq(vec![load, alus]);
        b.finish(n)
    }

    #[test]
    fn class_path_phases_destabilise_at_the_boundary_and_skip_exactly() {
        let k = phase_kernel();
        let gpu = GpuConfig::fermi();
        let sp = spec(2 * PHASE);
        let cfg = TbpointConfig::default();
        let profile = profile_launch(&k, &sp);
        let (p0, p1) = (
            profile.tb(0).unwrap().stall_probability(),
            profile.tb(PHASE as usize).unwrap().stall_probability(),
        );
        assert!(
            (p1 - p0).abs() > DESTAB_TOLERANCE * p0.max(p1),
            "the phases must differ beyond the tolerance: {p0} vs {p1}"
        );

        let rec = CollectingRecorder::new();
        let mut sampler = live_sampler(&cfg, &k, &gpu, 2 * PHASE, &rec);
        let r = simulate_launch(&k, &sp, &gpu, &mut sampler, None);
        let (out, live) = (sampler.outcome(), sampler.live_outcome());
        assert_eq!(live.guard_tbs, 0, "a class-path launch simulates no guards");
        assert!(live.destabilisations >= 1, "{live:?}");

        let events = rec.events();
        let skipped: Vec<u32> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::BlockSkipped { tb, .. } => Some(tb),
                _ => None,
            })
            .collect();
        // The first destabilisation comes from the first block of phase
        // two: every block before it was skipped up to the boundary.
        let i_destab = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::LiveDestabilised { .. }))
            .expect("the phase change must destabilise");
        let last_skip_before = events[..i_destab].iter().rev().find_map(|e| match e.kind {
            EventKind::BlockSkipped { tb, .. } => Some(tb),
            _ => None,
        });
        assert_eq!(last_skip_before, Some(PHASE - 1));
        assert!(!skipped.contains(&PHASE), "the boundary block is simulated");
        assert!(
            skipped.iter().any(|&tb| tb > PHASE),
            "phase two fast-forwards too"
        );

        // Skipped blocks are charged exactly what the profile counts.
        let expected: u64 = skipped
            .iter()
            .map(|&tb| profile.tb(tb as usize).unwrap().warp_insts)
            .sum();
        assert_eq!(out.skipped_warp_insts, expected);
        assert_eq!(
            out.skipped_warp_insts + r.issued_warp_insts,
            profile.warp_insts()
        );
    }

    #[test]
    fn live_recorder_tells_a_consistent_story() {
        let k = homogeneous_kernel();
        let gpu = GpuConfig::fermi();
        let sp = spec(3000);
        let rec = CollectingRecorder::new();
        let mut sampler = live_sampler(&TbpointConfig::default(), &k, &gpu, 3000, &rec);
        simulate_launch(&k, &sp, &gpu, &mut sampler, None);
        let (out, live) = (sampler.outcome(), sampler.live_outcome());
        let events = rec.events();
        let epochs = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::LiveEpochDetected { .. }))
            .count();
        let skips = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::BlockSkipped { .. }))
            .count();
        assert_eq!(epochs as u32, live.epochs_classified);
        assert_eq!(skips as u32, out.skipped_tbs);
        // Epoch detection precedes warming entry precedes fast-forward.
        let i_epoch = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::LiveEpochDetected { .. }))
            .unwrap();
        let i_enter = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::RegionEntered { .. }))
            .unwrap();
        let i_ff = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::FastForwardStarted { .. }))
            .expect("homogeneous launch must fast-forward live");
        assert!(i_epoch < i_enter && i_enter < i_ff);
    }

    #[test]
    fn warming_budget_abandons_unstable_clusters_live() {
        let k = homogeneous_kernel();
        let gpu = GpuConfig::fermi();
        let sp = spec(3000);
        let cfg = TbpointConfig {
            warming_threshold: 1e-300,
            warming_budget: Some(crate::sampling::WARMING_WINDOW as u32),
            ..Default::default()
        };
        let mut sampler = live_sampler(&cfg, &k, &gpu, 3000, &NullRecorder);
        let r = simulate_launch(&k, &sp, &gpu, &mut sampler, None);
        let out = sampler.outcome();
        assert!(out.degraded_regions > 0, "budget must trip: {out:?}");
        assert_eq!(out.skipped_tbs, 0, "abandoned cluster never skips");
        assert_eq!(r.skipped_tbs, 0);
    }

    #[test]
    fn zero_occupancy_is_rejected() {
        let err = LiveSampler::new(&TbpointConfig::default(), 10, 0, None, &NullRecorder)
            .err()
            .expect("must be rejected");
        assert!(matches!(
            err,
            TbError::InvalidConfig {
                field: "occupancy",
                ..
            }
        ));
    }
}
