//! The memory hierarchy glue: per-SM L1s and MSHRs, shared L2, DRAM.
//!
//! Requests are resolved analytically at issue time: the access walks
//! L1 -> L2 -> DRAM, accumulating traversal latency plus the DRAM bank's
//! queuing delay, and returns the completion cycle. The issuing warp
//! sleeps until then. MSHR exhaustion back-pressures the SM by pushing the
//! effective issue time of further misses behind the earliest outstanding
//! completion — long-latency divergent access bursts therefore serialise,
//! exactly the behaviour that makes memory-divergent thread blocks slow.
//!
//! Observability: [`MemorySystem::load_obs`] records the two per-request
//! events (`MshrStall`, `DramAccess`). The cache, DRAM and store counts
//! stay in the statistics the hierarchy keeps anyway, and the simulator
//! reads them once per launch for its trace counters.

use crate::cache::Cache;
use crate::config::GpuConfig;
use crate::dram::Dram;
use std::collections::BinaryHeap;
use tbpoint_obs::{EventKind, NullRecorder, Recorder};

/// Min-heap of outstanding-miss completion times for one SM.
#[derive(Debug, Default)]
struct MshrPool {
    // BinaryHeap is a max-heap; store negated times via Reverse.
    outstanding: BinaryHeap<std::cmp::Reverse<u64>>,
    capacity: usize,
}

impl MshrPool {
    fn new(capacity: usize) -> Self {
        MshrPool {
            outstanding: BinaryHeap::new(),
            capacity,
        }
    }

    /// Earliest cycle at which a new miss may issue, given `now`.
    fn issue_time(&mut self, now: u64) -> u64 {
        // Retire completed entries.
        while let Some(&std::cmp::Reverse(t)) = self.outstanding.peek() {
            if t <= now {
                self.outstanding.pop();
            } else {
                break;
            }
        }
        if self.outstanding.len() < self.capacity {
            now
        } else {
            // Full: the next miss waits for the earliest completion.
            // `capacity > 0` implies the queue is nonempty here; `now` is
            // the (unreachable) empty-queue fallback.
            match self.outstanding.pop() {
                Some(std::cmp::Reverse(t)) => t.max(now),
                None => now,
            }
        }
    }

    fn register(&mut self, completes_at: u64) {
        self.outstanding.push(std::cmp::Reverse(completes_at));
    }

    fn clear(&mut self) {
        self.outstanding.clear();
    }
}

/// The full memory system shared by all SMs.
pub struct MemorySystem {
    l1s: Vec<Cache>,
    mshrs: Vec<MshrPool>,
    l2: Cache,
    dram: Dram,
    l1_hit_latency: u64,
    l2_hit_latency: u64,
    dram_base_latency: u64,
    /// Store lines the simulator issued, added once per store
    /// instruction by `SmCore`'s memory port rather than once per line
    /// here (loads are counted by the caches and DRAM).
    pub(crate) stores: u64,
}

impl MemorySystem {
    /// Build the hierarchy for `cfg.num_sms` SMs.
    pub fn new(cfg: &GpuConfig) -> Self {
        MemorySystem {
            l1s: (0..cfg.num_sms).map(|_| Cache::new(cfg.l1)).collect(),
            mshrs: (0..cfg.num_sms)
                .map(|_| MshrPool::new(cfg.mshrs_per_sm as usize))
                .collect(),
            l2: Cache::new(cfg.l2),
            dram: Dram::new(cfg),
            l1_hit_latency: cfg.l1_hit_latency as u64,
            l2_hit_latency: cfg.l2_hit_latency as u64,
            dram_base_latency: cfg.dram_base_latency as u64,
            stores: 0,
        }
    }

    /// Issue a load for `line_addr` from SM `sm` at cycle `now`; returns
    /// the completion cycle.
    pub fn load(&mut self, sm: usize, line_addr: u64, now: u64) -> u64 {
        self.load_obs(sm, line_addr, now, &NullRecorder)
    }

    /// [`MemorySystem::load`] with observability: an `MshrStall` event
    /// when the request queues behind a full MSHR pool, and a
    /// `DramAccess` event per L2 miss. Recording is observation-only —
    /// the returned completion cycle is identical for every recorder.
    pub fn load_obs<R: Recorder + ?Sized>(
        &mut self,
        sm: usize,
        line_addr: u64,
        now: u64,
        rec: &R,
    ) -> u64 {
        if self.l1s[sm].access_load(line_addr) {
            return now + self.l1_hit_latency;
        }
        // Behind the L1: MSHR admission, L2 probe, DRAM on an L2 miss.
        // SM indices are config-bounded (tens), far below u32::MAX.
        let sm_u32 = u32::try_from(sm).unwrap_or(u32::MAX);
        let issue = self.mshrs[sm].issue_time(now);
        if issue > now {
            rec.record(
                now,
                EventKind::MshrStall {
                    sm: sm_u32,
                    cycles: issue - now,
                },
            );
        }
        let complete = if self.l2.access_load(line_addr) {
            issue + self.l1_hit_latency + self.l2_hit_latency
        } else {
            let (bank_done, row_hit) = self
                .dram
                .access_traced(line_addr, issue + self.l1_hit_latency + self.l2_hit_latency);
            rec.record(
                now,
                EventKind::DramAccess {
                    sm: sm_u32,
                    row_hit,
                },
            );
            bank_done + self.dram_base_latency
        };
        self.mshrs[sm].register(complete);
        complete
    }

    /// Issue a store (write-through, no-allocate, fire-and-forget): the
    /// traffic probes the caches for statistics, but does not occupy DRAM
    /// banks. Memory controllers hold writes in a write buffer and drain
    /// them opportunistically (FR-FCFS services reads first); modelling
    /// them as bank-blocking would let un-throttled store bursts (stores
    /// have no MSHR backpressure) push bank queues unboundedly ahead of
    /// the clock. Returns the nominal drain cycle (diagnostics).
    pub fn store(&mut self, sm: usize, line_addr: u64, now: u64) -> u64 {
        self.l1s[sm].access_store(line_addr);
        if self.l2.access_store(line_addr) {
            now + self.l1_hit_latency + self.l2_hit_latency
        } else {
            now + self.l1_hit_latency + self.l2_hit_latency + self.dram_base_latency
        }
    }

    /// Invalidate caches, banks and MSHRs (between launches).
    pub fn flush(&mut self) {
        for c in &mut self.l1s {
            c.flush();
        }
        for m in &mut self.mshrs {
            m.clear();
        }
        self.l2.flush();
        self.dram.flush();
    }

    /// (hits, misses) summed over the per-SM L1s, store probes included.
    pub(crate) fn l1_stats(&self) -> (u64, u64) {
        self.l1s
            .iter()
            .map(Cache::stats)
            .fold((0, 0), |(ah, am), (h, m)| (ah + h, am + m))
    }

    /// Aggregate L1 hit rate across SMs.
    pub fn l1_hit_rate(&self) -> f64 {
        let (h, m) = self.l1_stats();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// L2 hit rate.
    pub fn l2_hit_rate(&self) -> f64 {
        self.l2.hit_rate()
    }

    /// L2 (hits, misses), store probes included.
    pub(crate) fn l2_stats(&self) -> (u64, u64) {
        self.l2.stats()
    }

    /// DRAM row-buffer hit rate.
    pub fn dram_row_hit_rate(&self) -> f64 {
        self.dram.row_hit_rate()
    }

    /// DRAM (row hits, row misses).
    pub(crate) fn dram_row_stats(&self) -> (u64, u64) {
        self.dram.row_stats()
    }

    /// Average DRAM wait (service + queuing) per access, cycles.
    pub fn dram_avg_wait(&self) -> f64 {
        self.dram.avg_wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemorySystem {
        MemorySystem::new(&GpuConfig::fermi())
    }

    #[test]
    fn l1_hit_is_fast() {
        let mut m = mem();
        let t1 = m.load(0, 0, 0); // cold: goes to DRAM
        assert!(t1 > 100);
        let t2 = m.load(0, 0, t1);
        assert_eq!(t2 - t1, 30, "L1 hit should cost l1_hit_latency");
    }

    #[test]
    fn l2_hit_is_intermediate() {
        let mut m = mem();
        m.load(0, 0, 0); // installs in L1(0) and L2
                         // A different SM misses its own L1 but hits L2.
        let t = m.load(1, 0, 1000);
        assert_eq!(t - 1000, 30 + 90);
    }

    #[test]
    fn dram_miss_is_slowest() {
        let mut m = mem();
        let t = m.load(0, 0, 0);
        // l1 + l2 traversal + row miss + dram base = 30+90+60+120.
        assert_eq!(t, 300);
    }

    #[test]
    fn mshr_exhaustion_serialises_misses() {
        let mut m = mem();
        // 64 distinct lines from one SM at cycle 0: only 32 MSHRs, so the
        // completion times of the second half must lag the first half.
        let times: Vec<u64> = (0..64).map(|i| m.load(0, i * 128 + (1 << 40), 0)).collect();
        let first_half_max = *times[..32].iter().max().unwrap();
        let second_half_min = *times[32..].iter().min().unwrap();
        assert!(
            second_half_min >= first_half_max.min(times[0]),
            "later misses must queue behind MSHRs"
        );
        // And strictly: the last completion far exceeds the first.
        assert!(times[63] > times[0]);
    }

    #[test]
    fn stores_do_not_install_in_l1() {
        let mut m = mem();
        m.store(0, 0, 0);
        let t = m.load(0, 0, 10_000);
        assert!(t - 10_000 > 30, "load after store-miss must still miss L1");
    }

    #[test]
    fn flush_forgets_everything() {
        let mut m = mem();
        m.load(0, 0, 0);
        m.flush();
        let t = m.load(0, 0, 0);
        assert_eq!(t, 300, "post-flush load is cold");
    }

    #[test]
    fn per_sm_l1s_are_private() {
        let mut m = mem();
        m.load(0, 0, 0);
        m.load(0, 0, 400); // SM0 L1 hit
        let t = m.load(5, 0, 400); // SM5 must go to L2
        assert_eq!(t - 400, 120);
        assert!(m.l1_hit_rate() > 0.0 && m.l1_hit_rate() < 1.0);
    }
}
