//! The sampling hook: how a sampler plugs into the thread-block
//! dispatcher.
//!
//! The paper's homogeneous-region sampling operates entirely at TB
//! dispatch/retire granularity (Section IV-B2): *entering* a region is
//! detected from the region ids of concurrently resident TBs, *warming*
//! measures per-sampling-unit IPC, and *fast-forwarding* skips dispatched
//! TBs outright. All of that is expressible through two callbacks, which
//! keeps the simulator core ignorant of sampling policy.

use tbpoint_emu::TbStats;
use tbpoint_ir::TbId;

/// What to do with a thread block that is about to be dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchDecision {
    /// Simulate the block normally.
    Simulate,
    /// Skip it: the block retires instantly, consuming no SM resources
    /// and issuing no instructions (the fast-forward period).
    Skip,
}

/// Observer/controller of the dispatch stream.
///
/// `cycle` is the current simulation cycle and `issued_warp_insts` the
/// total warp instructions issued so far across all SMs — together they
/// let a hook compute sampling-unit IPCs without touching simulator
/// internals.
pub trait SamplingHook {
    /// Called once per thread block immediately before dispatch.
    fn on_dispatch(&mut self, tb: TbId, cycle: u64, issued_warp_insts: u64) -> DispatchDecision;

    /// Called when a *simulated* thread block retires, with the block's
    /// accumulated feature counters ([`TbStats`]) — the retire-time
    /// profile stream live sampling runs on. Skipped blocks do not
    /// generate retire events (the hook already knows it skipped them).
    fn on_retire(&mut self, tb: TbId, cycle: u64, issued_warp_insts: u64, stats: TbStats);
}

/// The "Full" configuration: simulate everything, observe nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSampling;

impl SamplingHook for NullSampling {
    fn on_dispatch(&mut self, _tb: TbId, _cycle: u64, _issued: u64) -> DispatchDecision {
        DispatchDecision::Simulate
    }

    fn on_retire(&mut self, _tb: TbId, _cycle: u64, _issued: u64, _stats: TbStats) {}
}

/// Watchdog wrapper: forwards to an inner hook until the simulated clock
/// passes `budget` cycles, then skips every further dispatch so the
/// launch drains quickly instead of running away.
///
/// Skipped-past-budget blocks consume no SM resources, so once the
/// budget trips the simulation finishes in at most the lifetime of the
/// already-resident blocks. The caller checks [`CycleBudgetHook::exceeded`]
/// after simulation and must treat a tripped run's numbers as garbage
/// (TBPoint's pipeline surfaces it as `TbError::BudgetExceeded`).
#[derive(Debug)]
pub struct CycleBudgetHook<'a, H: SamplingHook + ?Sized> {
    inner: &'a mut H,
    budget: u64,
    exceeded: bool,
}

impl<'a, H: SamplingHook + ?Sized> CycleBudgetHook<'a, H> {
    /// Wrap `inner`, aborting dispatch once `cycle > budget`.
    pub fn new(inner: &'a mut H, budget: u64) -> Self {
        CycleBudgetHook {
            inner,
            budget,
            exceeded: false,
        }
    }

    /// True once a dispatch arrived past the budget (the run's results
    /// are then meaningless).
    pub fn exceeded(&self) -> bool {
        self.exceeded
    }
}

impl<H: SamplingHook + ?Sized> SamplingHook for CycleBudgetHook<'_, H> {
    fn on_dispatch(&mut self, tb: TbId, cycle: u64, issued: u64) -> DispatchDecision {
        if cycle > self.budget {
            self.exceeded = true;
        }
        if self.exceeded {
            // Drain mode: don't consult the inner hook (its accounting is
            // already invalid) — just get the launch over with.
            return DispatchDecision::Skip;
        }
        self.inner.on_dispatch(tb, cycle, issued)
    }

    fn on_retire(&mut self, tb: TbId, cycle: u64, issued: u64, stats: TbStats) {
        if !self.exceeded {
            self.inner.on_retire(tb, cycle, issued, stats);
        }
    }
}
