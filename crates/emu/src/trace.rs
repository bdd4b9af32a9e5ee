//! Materialised warp traces for the timing simulator.
//!
//! Macsim is trace-driven; so is our timing simulator. A [`WarpTrace`] is
//! the dynamic warp-instruction sequence of one warp, materialised when
//! its thread block is dispatched to an SM and dropped when the block
//! retires — peak memory is bounded by the number of *resident* blocks,
//! not the grid size. Entries carry `(op, mask, iter_key)`; per-lane
//! addresses are recomputed on demand from the deterministic IR patterns,
//! which keeps entries at a fixed small size instead of 32 addresses each.

use crate::walker::walk_warp;
use tbpoint_ir::{ExecCtx, Kernel, Op};

/// One dynamic warp instruction in a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceInst {
    /// Operation (including the address pattern for global accesses).
    pub op: Op,
    /// Active lane mask.
    pub mask: u32,
    /// Loop-iteration key for address generation.
    pub iter_key: u32,
    /// Static site id (address decorrelation).
    pub site: u32,
    /// Basic block id (BBV accounting during timing simulation).
    pub bb: u16,
}

/// The full dynamic instruction sequence of one warp.
pub type WarpTrace = Vec<TraceInst>;

/// Materialise the trace of warp `warp_id` of block `ctx.block_id`.
pub fn trace_warp(kernel: &Kernel, ctx: &ExecCtx, warp_id: u32) -> WarpTrace {
    let mut trace = Vec::new();
    walk_warp(kernel, ctx, warp_id, &mut |ev| {
        trace.push(TraceInst {
            op: ev.inst.op,
            mask: ev.mask,
            iter_key: ev.iter_key,
            site: ev.inst.site,
            bb: ev.bb.0,
        });
    });
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_tb;
    use tbpoint_ir::{AddrPattern, Dist, KernelBuilder, LaunchId, TripCount};

    fn ctx(block: u32) -> ExecCtx {
        ExecCtx {
            kernel_seed: 21,
            launch_id: LaunchId(1),
            block_id: block,
            num_blocks: 64,
            work_scale: 1.0,
        }
    }

    fn divergent_kernel() -> Kernel {
        let mut b = KernelBuilder::new("t", 21, 96);
        let site = b.fresh_site();
        let body = b.block(&[
            Op::IAlu,
            Op::LdGlobal(AddrPattern::Random {
                region: 0,
                bytes: 1 << 18,
            }),
        ]);
        let n = b.loop_(
            TripCount::PerThread {
                base: 1,
                spread: 7,
                dist: Dist::Uniform,
                site,
            },
            body,
        );
        b.finish(n)
    }

    #[test]
    fn trace_matches_profile_counts() {
        // The trace and the streaming profile must agree instruction for
        // instruction — they are two sinks over the same walker.
        let k = divergent_kernel();
        let c = ctx(3);
        let mut bbv = vec![0; k.num_basic_blocks as usize];
        let profile = profile_tb(&k, &c, &mut bbv, &mut 0);
        let mut warp_insts = 0u64;
        let mut thread_insts = 0u64;
        for w in 0..k.warps_per_block() {
            let t = trace_warp(&k, &c, w);
            warp_insts += t.len() as u64;
            thread_insts += t.iter().map(|i| i.mask.count_ones() as u64).sum::<u64>();
        }
        assert_eq!(warp_insts, profile.warp_insts);
        assert_eq!(thread_insts, profile.thread_insts);
    }

    #[test]
    fn trace_is_deterministic() {
        let k = divergent_kernel();
        assert_eq!(trace_warp(&k, &ctx(0), 1), trace_warp(&k, &ctx(0), 1));
    }

    #[test]
    fn out_of_range_warp_gives_empty_trace() {
        let k = divergent_kernel(); // 96 threads = 3 warps
        assert!(trace_warp(&k, &ctx(0), 3).is_empty());
    }

    #[test]
    fn trace_entries_carry_sites_and_bbs() {
        let k = divergent_kernel();
        let t = trace_warp(&k, &ctx(0), 0);
        assert!(!t.is_empty());
        assert!(t.iter().all(|i| i.bb == 0));
        // The two instructions in the body alternate sites.
        let sites: Vec<u32> = t.iter().map(|i| i.site).collect();
        assert!(sites.windows(2).any(|w| w[0] != w[1]));
    }
}
