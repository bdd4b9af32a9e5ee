//! Homogeneous region sampling (Section IV-B2 of the paper): the runtime
//! half of intra-launch sampling, implemented as a simulator hook.
//!
//! One state machine per Fig. 7, [`Warming`], shared by both sampling
//! modes:
//!
//! * **Outside** — simulate normally until the classifier *enters* a
//!   region.
//! * **Warming** — keep simulating; measure sampling-unit IPCs (a unit is
//!   the lifetime of a *designated* TB: the first dispatched TB at start,
//!   then the next dispatched TB each time the current one retires). When
//!   the trailing units agree within the warming threshold (10%), the
//!   cache state is considered stable: start fast-forwarding.
//! * **Fast-forwarding** — skip dispatched TBs the classifier hands
//!   over, predicting their cycles as `warp_insts / unit_ipc` with the
//!   last warm unit's IPC, until the classifier leaves the region.
//!
//! What differs between the modes is the [`Classifier`] — who decides
//! that a region begins, which dispatches it covers and how many
//! instructions a skipped block is charged (Pac-Sim's framing: two-phase
//! sampling is live sampling whose classifier is an oracle read from a
//! profile):
//!
//! * [`Offline`] ([`RegionSampler`]) reads the profile's region table:
//!   *enter* when every concurrently resident thread block maps to the
//!   same homogeneous region, *exit* on a dispatch from a different
//!   region (or from none), skip with the profile's exact count.
//! * [`live::Online`] ([`live::LiveSampler`]) clusters epochs as they
//!   complete in the retire stream and skips with the emulator's exact
//!   count where a block's stats are a function of its class
//!   ([`tbpoint_emu::BlockClasses`]), an estimated one elsewhere.
//!
//! Both are built from a [`TbpointConfig`]; every state transition is
//! reported to the attached [`tbpoint_obs::Recorder`] (pass
//! [`tbpoint_obs::NullRecorder`] to make that free).

pub mod live;

use crate::error::TbError;
use crate::intra::RegionTable;
use crate::predict::TbpointConfig;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use tbpoint_emu::{LaunchProfile, TbStats};
use tbpoint_ir::TbId;
use tbpoint_obs::{DegradeReason, EventKind, Recorder};
use tbpoint_sim::{DispatchDecision, SamplingHook};

/// Accounting produced by one sampled launch, in either mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct IntraOutcome {
    /// Thread blocks skipped during fast-forward periods.
    pub skipped_tbs: u32,
    /// Warp instructions belonging to skipped thread blocks (they were
    /// never issued): the profile's exact counts in two-phase mode; in
    /// live mode the emulator's exact counts for class-path launches and
    /// the classifier's *estimates* for the rest.
    pub skipped_warp_insts: u64,
    /// Predicted cycles those instructions would have taken, from the
    /// last warm sampling unit's IPC (Table IV's intra-launch term).
    pub predicted_skipped_cycles: f64,
    /// Sampling units completed (diagnostic).
    pub units_observed: u32,
    /// Regions entered (diagnostic).
    pub regions_entered: u32,
    /// Regions abandoned because their IPC failed to stabilise within
    /// the warming budget (each abandonment is a `DegradedMode` event;
    /// the abandoned region's blocks are simulated in detail).
    pub degraded_regions: u32,
}

/// Where the Fig. 7 machine stands. Region ids are the classifier's:
/// region-table ids offline, online cluster ids live.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum State {
    /// Detailed simulation, no region entered.
    Outside,
    /// Inside the region, measuring unit IPCs.
    Warming(u32),
    /// Skipping the region's blocks at the last warm unit's IPC.
    FastForward {
        /// The region being fast-forwarded.
        region: u32,
        /// The last warm unit's IPC.
        ipc: f64,
    },
}

/// Number of trailing sampling units that must agree pairwise within
/// the warming threshold before fast-forwarding begins. The paper
/// compares two consecutive units; see the inline comment in
/// [`Warming`]'s unit close for why the scaled substrate uses three.
/// Recorded in DESIGN.md ("Substitutions and calibration decisions",
/// item 5).
pub const WARMING_WINDOW: usize = 3;

/// How many consecutive designated-TB lifetimes make one sampling unit.
///
/// The paper's unit is a single designated TB. Our workloads scale each
/// TB's work down by ~3 orders of magnitude (so full simulations finish
/// in minutes), which makes one TB lifetime shorter than the simulator's
/// queue/cache warm-up transient — consecutive raw units then agree to
/// within 10% while still riding the transient, and fast-forwarding locks
/// in a biased IPC. Spanning a unit over two designated TBs restores
/// the paper's unit-length-to-warm-up ratio once the simulator's
/// dispatch stagger removes the lockstep start. Recorded in DESIGN.md.
pub const UNIT_TB_SPAN: u32 = 2;

/// The policy half of a sampler: decides when the [`Warming`] machine
/// enters and leaves a region and what skipping a block costs. The
/// machine calls these from the simulator's dispatch/retire hooks.
pub trait Classifier {
    /// `tb` is dispatched at `cycle` while `region` is fast-forwarded:
    /// the warp instructions to charge for skipping it, or `None` to
    /// simulate it (after leaving the region through `warming`, if the
    /// block shows the region is over).
    fn skip_insts(
        &mut self,
        warming: &mut Warming<'_>,
        tb: TbId,
        region: u32,
        cycle: u64,
    ) -> Option<u64>;

    /// `tb` was skipped (after its `BlockSkipped` event).
    fn on_skipped(&mut self, _warming: &mut Warming<'_>, _tb: TbId, _cycle: u64) {}

    /// `tb` is about to be simulated.
    fn on_simulated(&mut self, _warming: &mut Warming<'_>, _tb: TbId, _cycle: u64) {}

    /// `tb` retired; called before its sampling unit (if it was the
    /// designated block) is closed.
    fn before_unit(&mut self, _warming: &mut Warming<'_>, _tb: TbId, _cycle: u64, _stats: TbStats) {
    }

    /// `tb` retired; called after the unit accounting.
    fn on_retired(&mut self, warming: &mut Warming<'_>, tb: TbId, cycle: u64, stats: TbStats);
}

/// The Fig. 7 outside/warming/fast-forward machine both samplers run on:
/// the designated-TB unit clock, the trailing-window convergence test,
/// warming-budget abandonment and the skip accounting.
pub struct Warming<'a> {
    threshold: f64,
    budget: Option<u32>,
    recorder: &'a dyn Recorder,
    state: State,
    abandoned: BTreeSet<u32>, // regions whose warming budget ran out
    designated: Option<u32>,
    need_designation: bool,
    unit_tbs_retired: u32,
    unit_start_cycle: u64,
    unit_start_insts: u64,
    warm_ipcs: Vec<f64>,
    outcome: IntraOutcome,
}

impl<'a> Warming<'a> {
    fn new(cfg: &TbpointConfig, recorder: &'a dyn Recorder) -> Result<Self, TbError> {
        cfg.validate()?;
        Ok(Warming {
            threshold: cfg.warming_threshold,
            budget: cfg.warming_budget,
            recorder,
            state: State::Outside,
            abandoned: BTreeSet::new(),
            designated: None,
            need_designation: true,
            unit_tbs_retired: 0,
            unit_start_cycle: 0,
            unit_start_insts: 0,
            warm_ipcs: Vec::new(),
            outcome: IntraOutcome::default(),
        })
    }

    /// The current state.
    pub fn state(&self) -> State {
        self.state
    }

    /// Report a classifier event to the attached recorder.
    pub fn record(&self, cycle: u64, kind: EventKind) {
        self.recorder.record(cycle, kind);
    }

    /// Outside → Warming(`region`). A region whose warming budget
    /// already ran out is not entered again: its blocks stay on the
    /// detailed-simulation path.
    pub fn enter(&mut self, cycle: u64, region: u32) {
        if self.abandoned.contains(&region) {
            return;
        }
        self.state = State::Warming(region);
        self.warm_ipcs.clear();
        self.outcome.regions_entered += 1;
        self.record(cycle, EventKind::RegionEntered { region });
    }

    /// Back to Outside, announcing it with `event`.
    pub fn leave(&mut self, cycle: u64, event: EventKind) {
        self.state = State::Outside;
        self.warm_ipcs.clear();
        self.record(cycle, event);
    }

    /// Back to Outside because the region ended (Fig. 7's exit edge).
    pub fn exit(&mut self, cycle: u64) {
        self.leave(cycle, EventKind::RegionExited);
    }

    fn skip(&mut self, tb: TbId, cycle: u64, insts: u64, ipc: f64) {
        self.outcome.skipped_tbs += 1;
        self.outcome.skipped_warp_insts += insts;
        if ipc > 0.0 {
            self.outcome.predicted_skipped_cycles += insts as f64 / ipc;
        }
        self.record(
            cycle,
            EventKind::BlockSkipped {
                tb: tb.0,
                warp_insts: insts,
            },
        );
    }

    /// A simulated dispatch takes over as designated TB if none is live.
    fn designate(&mut self, tb: TbId, cycle: u64, issued: u64) {
        if self.need_designation {
            self.designated = Some(tb.0);
            self.need_designation = false;
            // The unit's clock starts with its first designated TB only;
            // later designated TBs extend the same unit.
            if self.unit_tbs_retired == 0 {
                self.unit_start_cycle = cycle;
                self.unit_start_insts = issued;
            }
        }
    }

    /// Retire-side unit clock: if `tb` was the designated block, hand
    /// over, and after [`UNIT_TB_SPAN`] such lifetimes close the unit and
    /// run the convergence / budget tests.
    fn retire(&mut self, tb: TbId, cycle: u64, issued: u64) {
        if self.designated != Some(tb.0) {
            return;
        }
        // The next simulated dispatch takes over as designated TB.
        self.designated = None;
        self.need_designation = true;
        self.unit_tbs_retired += 1;
        if self.unit_tbs_retired < UNIT_TB_SPAN {
            return;
        }
        self.unit_tbs_retired = 0;
        let cycles = cycle.saturating_sub(self.unit_start_cycle);
        let insts = issued.saturating_sub(self.unit_start_insts);
        if cycles == 0 || insts == 0 {
            return;
        }
        let unit_ipc = insts as f64 / cycles as f64;
        self.outcome.units_observed += 1;
        self.record(cycle, EventKind::UnitClosed { ipc: unit_ipc });
        let State::Warming(region) = self.state else {
            return;
        };
        self.warm_ipcs.push(unit_ipc);
        // The paper declares the caches stable when the current and
        // previous units agree within the threshold. Our scaled
        // substrate drifts monotonically in sub-threshold steps during
        // its (relatively much longer) queue warm-up, so we additionally
        // require the unit BEFORE the pair to agree — i.e. the last
        // [`WARMING_WINDOW`] units must be pairwise within the band, which
        // rejects a sustained trend.
        let n = self.warm_ipcs.len();
        if n >= WARMING_WINDOW {
            let window = &self.warm_ipcs[n - WARMING_WINDOW..];
            let lo = window.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = window.iter().cloned().fold(0.0f64, f64::max);
            if lo > 0.0 && (hi - lo) / lo < self.threshold {
                // Stable: fast-forward, predicting with the last warm
                // unit's IPC.
                self.state = State::FastForward {
                    region,
                    ipc: unit_ipc,
                };
                self.record(
                    cycle,
                    EventKind::FastForwardStarted {
                        region,
                        ipc: unit_ipc,
                    },
                );
                return;
            }
        }
        // Warming budget: a region still not converged after
        // `warming_budget` units is abandoned — its IPC is not
        // trustworthy, so its blocks keep simulating in detail (graceful
        // degradation) instead of fast-forwarding.
        if self.budget.is_some_and(|budget| n >= budget as usize) {
            self.abandoned.insert(region);
            self.outcome.degraded_regions += 1;
            self.record(
                cycle,
                EventKind::DegradedMode {
                    reason: DegradeReason::WarmingBudgetExceeded { region },
                },
            );
            self.exit(cycle);
        }
    }
}

/// A sampling hook: the shared [`Warming`] machine driven by a
/// [`Classifier`]. Plug into [`tbpoint_sim::simulate_launch`]; use the
/// [`RegionSampler`] / [`live::LiveSampler`] aliases to construct one.
pub struct Sampler<'a, C> {
    warming: Warming<'a>,
    classifier: C,
}

impl<C> Sampler<'_, C> {
    /// The accounting gathered so far (read after simulation).
    pub fn outcome(&self) -> IntraOutcome {
        self.warming.outcome
    }
}

impl<C: Classifier> SamplingHook for Sampler<'_, C> {
    fn on_dispatch(&mut self, tb: TbId, cycle: u64, issued: u64) -> DispatchDecision {
        if let State::FastForward { region, ipc } = self.warming.state {
            let skip = self
                .classifier
                .skip_insts(&mut self.warming, tb, region, cycle);
            if let Some(insts) = skip {
                self.warming.skip(tb, cycle, insts, ipc);
                self.classifier.on_skipped(&mut self.warming, tb, cycle);
                return DispatchDecision::Skip;
            }
        }
        self.warming.designate(tb, cycle, issued);
        self.classifier.on_simulated(&mut self.warming, tb, cycle);
        DispatchDecision::Simulate
    }

    fn on_retire(&mut self, tb: TbId, cycle: u64, issued: u64, stats: TbStats) {
        self.classifier
            .before_unit(&mut self.warming, tb, cycle, stats);
        self.warming.retire(tb, cycle, issued);
        self.classifier
            .on_retired(&mut self.warming, tb, cycle, stats);
    }
}

/// The two-phase classifier: an oracle read from the profile's region
/// table plus the set of concurrently resident thread blocks.
pub struct Offline<'a> {
    table: &'a RegionTable,
    profile: &'a LaunchProfile,
    resident: BTreeSet<u32>,
}

impl Offline<'_> {
    /// The region every resident block maps to, if they all share one.
    fn resident_region(&self) -> Option<u32> {
        let mut iter = self.resident.iter();
        let r0 = self.table.region_of(TbId(*iter.next()?))?;
        iter.all(|&tb| self.table.region_of(TbId(tb)) == Some(r0))
            .then_some(r0)
    }

    fn maybe_enter(&self, warming: &mut Warming<'_>, cycle: u64) {
        if warming.state() == State::Outside {
            if let Some(r) = self.resident_region() {
                warming.enter(cycle, r);
            }
        }
    }
}

impl Classifier for Offline<'_> {
    /// In-region blocks are skipped outright. A block missing from the
    /// profile (e.g. a truncated profile file) cannot be fast-forwarded —
    /// its instruction count is unknown — so it falls through to
    /// detailed simulation instead of indexing out of bounds.
    fn skip_insts(
        &mut self,
        _warming: &mut Warming<'_>,
        tb: TbId,
        region: u32,
        _cycle: u64,
    ) -> Option<u64> {
        if self.table.region_of(tb) != Some(region) {
            return None;
        }
        self.profile.tb(tb.0 as usize).map(|t| t.warp_insts)
    }

    fn on_simulated(&mut self, warming: &mut Warming<'_>, tb: TbId, cycle: u64) {
        // A block from elsewhere (or unknown to the profile) ends the
        // region (Fig. 7); a simulated dispatch during fast-forward is
        // one by construction — `skip_insts` declined it.
        let foreign = match warming.state() {
            State::Outside => false,
            State::Warming(r) => self.table.region_of(tb) != Some(r),
            State::FastForward { .. } => true,
        };
        if foreign {
            warming.exit(cycle);
        }
        self.resident.insert(tb.0);
        self.maybe_enter(warming, cycle);
    }

    fn on_retired(&mut self, warming: &mut Warming<'_>, tb: TbId, cycle: u64, _stats: TbStats) {
        self.resident.remove(&tb.0);
        self.maybe_enter(warming, cycle);
    }
}

/// The two-phase intra-launch sampling hook. Borrows one region table +
/// profile per launch.
pub type RegionSampler<'a> = Sampler<'a, Offline<'a>>;

impl<'a> RegionSampler<'a> {
    /// A sampler for one launch, with `cfg`'s warming settings.
    ///
    /// # Errors
    ///
    /// [`TbError::InvalidConfig`] when [`TbpointConfig::validate`]
    /// rejects `cfg`.
    pub fn new(
        cfg: &TbpointConfig,
        table: &'a RegionTable,
        profile: &'a LaunchProfile,
        recorder: &'a dyn Recorder,
    ) -> Result<Self, TbError> {
        Ok(Sampler {
            warming: Warming::new(cfg, recorder)?,
            classifier: Offline {
                table,
                profile,
                resident: BTreeSet::new(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intra::{build_epochs, identify_regions, IntraConfig};
    use tbpoint_emu::profile_launch;
    use tbpoint_ir::{AddrPattern, Kernel, KernelBuilder, LaunchId, LaunchSpec, Op, TripCount};
    use tbpoint_obs::{CollectingRecorder, NullRecorder};
    use tbpoint_sim::{simulate_launch, GpuConfig, NullSampling};

    /// A perfectly homogeneous kernel: every TB identical.
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

    fn spec(n: u32) -> LaunchSpec {
        LaunchSpec {
            launch_id: LaunchId(0),
            num_blocks: n,
            work_scale: 1.0,
        }
    }

    #[test]
    fn homogeneous_launch_gets_fast_forwarded() {
        let k = homogeneous_kernel();
        let cfg = GpuConfig::fermi();
        let sp = spec(3000);
        let profile = profile_launch(&k, &sp);
        let occupancy = cfg.system_occupancy(&k);
        let epochs = build_epochs(&profile, occupancy);
        let table = identify_regions(&epochs, &IntraConfig::default());
        assert_eq!(table.regions.len(), 1, "homogeneous kernel -> one region");

        let mut sampler =
            RegionSampler::new(&TbpointConfig::default(), &table, &profile, &NullRecorder).unwrap();
        let r = simulate_launch(&k, &sp, &cfg, &mut sampler, None);
        let out = sampler.outcome();
        assert!(out.skipped_tbs > 0, "fast-forward must engage: {out:?}");
        assert_eq!(r.skipped_tbs, out.skipped_tbs);
        assert!(out.units_observed >= 2, "warming needs at least two units");
        assert_eq!(out.regions_entered, 1);
        assert!(out.predicted_skipped_cycles > 0.0);
        // Accounting consistency: skipped + issued = full workload.
        let total = profile.warp_insts();
        assert_eq!(out.skipped_warp_insts + r.issued_warp_insts, total);
    }

    #[test]
    fn sampled_ipc_close_to_full_ipc() {
        let k = homogeneous_kernel();
        let cfg = GpuConfig::fermi();
        let sp = spec(3000);
        let profile = profile_launch(&k, &sp);
        let epochs = build_epochs(&profile, cfg.system_occupancy(&k));
        let table = identify_regions(&epochs, &IntraConfig::default());

        let full = simulate_launch(&k, &sp, &cfg, &mut NullSampling, None);
        let mut sampler =
            RegionSampler::new(&TbpointConfig::default(), &table, &profile, &NullRecorder).unwrap();
        let sampled = simulate_launch(&k, &sp, &cfg, &mut sampler, None);
        let out = sampler.outcome();

        let full_ipc = full.ipc();
        let predicted_cycles = sampled.cycles as f64 + out.predicted_skipped_cycles;
        let total_insts = (sampled.issued_warp_insts + out.skipped_warp_insts) as f64;
        let predicted_ipc = total_insts / predicted_cycles;
        let err = ((predicted_ipc - full_ipc) / full_ipc).abs();
        assert!(
            err < 0.10,
            "sampling error {:.2}% too high (pred {predicted_ipc:.3} vs full {full_ipc:.3})",
            err * 100.0
        );
        // And it actually saved work.
        assert!(sampled.issued_warp_insts < full.issued_warp_insts / 2);
    }

    #[test]
    fn empty_region_table_simulates_everything() {
        let k = homogeneous_kernel();
        let cfg = GpuConfig::fermi();
        let sp = spec(300);
        let profile = profile_launch(&k, &sp);
        let table = RegionTable::default();
        let mut sampler =
            RegionSampler::new(&TbpointConfig::default(), &table, &profile, &NullRecorder).unwrap();
        let r = simulate_launch(&k, &sp, &cfg, &mut sampler, None);
        assert_eq!(r.skipped_tbs, 0);
        assert_eq!(sampler.outcome().skipped_tbs, 0);
        assert_eq!(sampler.outcome().regions_entered, 0);
    }

    #[test]
    fn recorder_tells_a_consistent_story() {
        let k = homogeneous_kernel();
        let cfg = GpuConfig::fermi();
        let sp = spec(3000);
        let profile = profile_launch(&k, &sp);
        let epochs = build_epochs(&profile, cfg.system_occupancy(&k));
        let table = identify_regions(&epochs, &IntraConfig::default());
        let rec = CollectingRecorder::new();
        let mut sampler =
            RegionSampler::new(&TbpointConfig::default(), &table, &profile, &rec).unwrap();
        simulate_launch(&k, &sp, &cfg, &mut sampler, None);
        let out = sampler.outcome();
        let events = rec.events();
        assert!(!events.is_empty());
        // Counts in the trace agree with the outcome counters.
        let entered = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RegionEntered { .. }))
            .count();
        let skipped = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::BlockSkipped { .. }))
            .count();
        let units = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::UnitClosed { .. }))
            .count();
        assert_eq!(entered as u32, out.regions_entered);
        assert_eq!(skipped as u32, out.skipped_tbs);
        assert_eq!(units as u32, out.units_observed);
        // Fast-forward must come after the region entry, and the first
        // skip after the fast-forward start.
        let i_enter = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::RegionEntered { .. }))
            .unwrap();
        let i_ff = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::FastForwardStarted { .. }))
            .expect("homogeneous launch must fast-forward");
        let i_skip = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::BlockSkipped { .. }))
            .unwrap();
        assert!(i_enter < i_ff && i_ff < i_skip);
    }

    #[test]
    fn tight_threshold_delays_fast_forward() {
        let k = homogeneous_kernel();
        let cfg = GpuConfig::fermi();
        let sp = spec(3000);
        let profile = profile_launch(&k, &sp);
        let epochs = build_epochs(&profile, cfg.system_occupancy(&k));
        let table = identify_regions(&epochs, &IntraConfig::default());

        let with_threshold = |warming_threshold| TbpointConfig {
            warming_threshold,
            ..Default::default()
        };
        let mut loose =
            RegionSampler::new(&with_threshold(0.5), &table, &profile, &NullRecorder).unwrap();
        simulate_launch(&k, &sp, &cfg, &mut loose, None);
        let mut tight =
            RegionSampler::new(&with_threshold(1e-6), &table, &profile, &NullRecorder).unwrap();
        simulate_launch(&k, &sp, &cfg, &mut tight, None);
        assert!(
            tight.outcome().skipped_tbs <= loose.outcome().skipped_tbs,
            "tighter warming threshold must not skip more: tight {:?} loose {:?}",
            tight.outcome(),
            loose.outcome()
        );
    }
}
