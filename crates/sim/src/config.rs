//! Simulator configuration (the paper's Table V) and occupancy math.

use serde::{Deserialize, Serialize};
use tbpoint_ir::{Kernel, WARP_SIZE};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
}

impl CacheConfig {
    /// Number of sets (at least 1; a zero `line_bytes` or `assoc` counts
    /// as 1, as [`crate::cache::Cache::new`] treats it).
    pub fn num_sets(&self) -> u64 {
        (self.size_bytes / self.line_bytes.max(1) / u64::from(self.assoc.max(1))).max(1)
    }
}

/// Full machine configuration. [`GpuConfig::fermi`] reproduces Table V.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Number of SMs ("S" in Figs. 12-13).
    pub num_sms: u32,
    /// Core clock in GHz (1.15 for Fermi; converts cycles to GPU time).
    pub clock_ghz: f64,
    /// Maximum resident warps per SM ("W" in Figs. 12-13).
    pub max_warps_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Register file size per SM (32-bit registers).
    pub regs_per_sm: u32,
    /// Shared-memory bytes per SM.
    pub smem_per_sm: u32,

    /// Dependent-issue latency of ALU ops (cycles).
    pub alu_latency: u32,
    /// Dependent-issue latency of SFU ops (cycles).
    pub sfu_latency: u32,
    /// Shared-memory access latency (cycles).
    pub smem_latency: u32,
    /// L1 hit latency (cycles).
    pub l1_hit_latency: u32,
    /// Additional latency of an L2 hit (cycles, on top of L1).
    pub l2_hit_latency: u32,
    /// Fixed DRAM access overhead (cycles, on top of L2; queuing and row
    /// activation are added by the DRAM model).
    pub dram_base_latency: u32,

    /// Per-SM L1 data cache.
    pub l1: CacheConfig,
    /// Shared L2 cache.
    pub l2: CacheConfig,
    /// Outstanding-miss slots (MSHRs) per SM.
    pub mshrs_per_sm: u32,
    /// Cycles between consecutive thread-block starts during the initial
    /// launch fill. Real GPUs dispatch blocks serially through the
    /// GigaThread engine; starting every resident block on the same cycle
    /// creates an artificial lockstep whose memory-queue equilibrium
    /// takes tens of waves to develop.
    pub dispatch_stagger_cycles: u32,

    /// Number of DRAM channels.
    pub dram_channels: u32,
    /// Banks per channel.
    pub dram_banks_per_channel: u32,
    /// Row-buffer (page) size in bytes.
    pub dram_page_bytes: u64,
    /// Bank-busy time for a row-buffer hit (cycles).
    pub dram_row_hit_cycles: u32,
    /// Bank-busy time for a row-buffer miss (activate+precharge, cycles).
    pub dram_row_miss_cycles: u32,
}

impl GpuConfig {
    /// The paper's simulated machine (Table V): 14 SMs at 1.15 GHz, 16 KB
    /// L1 / 768 KB L2 with 128-byte 8-way geometry, 6 channels x 16 banks
    /// with 2 KB pages and FR-FCFS.
    pub const fn fermi() -> Self {
        GpuConfig {
            num_sms: 14,
            clock_ghz: 1.15,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 8,
            regs_per_sm: 32_768,
            smem_per_sm: 49_152,
            alu_latency: 4,
            sfu_latency: 16,
            smem_latency: 24,
            l1_hit_latency: 30,
            l2_hit_latency: 90,
            dram_base_latency: 120,
            l1: CacheConfig {
                size_bytes: 16 * 1024,
                line_bytes: 128,
                assoc: 8,
            },
            l2: CacheConfig {
                size_bytes: 768 * 1024,
                line_bytes: 128,
                assoc: 8,
            },
            mshrs_per_sm: 32,
            dispatch_stagger_cycles: 32,
            dram_channels: 6,
            dram_banks_per_channel: 16,
            dram_page_bytes: 2048,
            dram_row_hit_cycles: 20,
            dram_row_miss_cycles: 60,
        }
    }

    /// Fig. 12/13 variant: `w` warps per SM, `s` SMs (labelled `W{w}S{s}`
    /// in the paper).
    pub fn with_occupancy(w: u32, s: u32) -> Self {
        let mut c = Self::fermi();
        c.max_warps_per_sm = w;
        c.num_sms = s;
        c
    }

    /// Maximum threads per SM implied by the warp limit.
    pub fn max_threads_per_sm(&self) -> u32 {
        self.max_warps_per_sm * WARP_SIZE
    }

    /// SM occupancy for `kernel`: the number of thread blocks one SM can
    /// host concurrently, limited by threads, warp slots, block slots,
    /// registers and shared memory (CUDA occupancy rules).
    pub fn sm_occupancy(&self, kernel: &Kernel) -> u32 {
        let by_threads = self.max_threads_per_sm() / kernel.threads_per_block.max(1);
        let by_warps = self.max_warps_per_sm / kernel.warps_per_block().max(1);
        let by_blocks = self.max_blocks_per_sm;
        let by_regs = if kernel.regs_per_thread == 0 {
            u32::MAX
        } else {
            self.regs_per_sm / (kernel.regs_per_thread * kernel.threads_per_block).max(1)
        };
        let by_smem = self
            .smem_per_sm
            .checked_div(kernel.smem_per_block)
            .unwrap_or(u32::MAX);
        by_threads
            .min(by_warps)
            .min(by_blocks)
            .min(by_regs)
            .min(by_smem)
            .max(1)
    }

    /// System occupancy: concurrent thread blocks across the whole GPU —
    /// the paper's epoch size (Eq. 4).
    pub fn system_occupancy(&self, kernel: &Kernel) -> u32 {
        self.sm_occupancy(kernel) * self.num_sms
    }

    /// Convert a cycle count to GPU milliseconds at this clock.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9) * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbpoint_ir::{KernelBuilder, Op};

    fn kernel(tpb: u32, regs: u32, smem: u32) -> Kernel {
        let mut b = KernelBuilder::new("t", 1, tpb);
        b.regs(regs).smem(smem);
        let n = b.block(&[Op::IAlu]);
        b.finish(n)
    }

    #[test]
    fn fermi_matches_table_v() {
        let c = GpuConfig::fermi();
        assert_eq!(c.num_sms, 14);
        assert_eq!(c.l1.size_bytes, 16 * 1024);
        assert_eq!(c.l1.line_bytes, 128);
        assert_eq!(c.l1.assoc, 8);
        assert_eq!(c.l2.size_bytes, 768 * 1024);
        assert_eq!(c.dram_channels, 6);
        assert_eq!(c.dram_banks_per_channel, 16);
        assert_eq!(c.dram_page_bytes, 2048);
        assert!((c.clock_ghz - 1.15).abs() < 1e-12);
    }

    #[test]
    fn cache_sets() {
        let c = GpuConfig::fermi();
        assert_eq!(c.l1.num_sets(), 16); // 16KB / 128B / 8
        assert_eq!(c.l2.num_sets(), 768); // 768KB / 128B / 8
    }

    #[test]
    fn occupancy_limited_by_threads() {
        let c = GpuConfig::fermi(); // 1536 threads max
        let k = kernel(512, 8, 0);
        assert_eq!(c.sm_occupancy(&k), 3);
        assert_eq!(c.system_occupancy(&k), 42);
    }

    #[test]
    fn occupancy_limited_by_blocks() {
        let c = GpuConfig::fermi();
        let k = kernel(32, 8, 0);
        // 48 blocks would fit by threads, but the block slot limit is 8.
        assert_eq!(c.sm_occupancy(&k), 8);
    }

    #[test]
    fn occupancy_limited_by_registers() {
        let c = GpuConfig::fermi();
        let k = kernel(256, 63, 0);
        // 32768 / (63*256) = 2.03 -> 2 blocks.
        assert_eq!(c.sm_occupancy(&k), 2);
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        let c = GpuConfig::fermi();
        let k = kernel(64, 8, 16 * 1024);
        assert_eq!(c.sm_occupancy(&k), 3); // 49152 / 16384
    }

    #[test]
    fn occupancy_never_zero() {
        let c = GpuConfig::fermi();
        let k = kernel(2048, 64, 64 * 1024); // oversubscribed on purpose
        assert_eq!(c.sm_occupancy(&k), 1);
    }

    #[test]
    fn with_occupancy_variants() {
        let c = GpuConfig::with_occupancy(16, 8);
        assert_eq!(c.max_warps_per_sm, 16);
        assert_eq!(c.num_sms, 8);
        assert_eq!(c.max_threads_per_sm(), 512);
        // Epoch size shrinks with occupancy (Sec. V-C).
        let k = kernel(256, 8, 0);
        assert!(c.system_occupancy(&k) < GpuConfig::fermi().system_occupancy(&k));
    }

    #[test]
    fn cycles_to_ms_at_fermi_clock() {
        let c = GpuConfig::fermi();
        let ms = c.cycles_to_ms(1_150_000_000);
        assert!((ms - 1000.0).abs() < 1e-6);
    }
}
