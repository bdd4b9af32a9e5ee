//! DRAM timing model: channels, banks, row buffers, queuing delay.
//!
//! A request is mapped to a (channel, bank) by line-address interleaving.
//! Each bank serialises its requests (a busy-until clock) and keeps one
//! open row: a request to the open row occupies the bank for
//! `row_hit_cycles`, anything else pays `row_miss_cycles` (precharge +
//! activate) and switches the open row. The returned completion time folds
//! in the queuing delay — this is exactly the paper's source of *variable
//! stall latency M* ("resource contention and/or queuing delay",
//! Section IV-A), and is what makes a fixed-M model (the prior work the
//! paper criticises) unrealistic.
//!
//! FR-FCFS fidelity note: a real FR-FCFS scheduler reorders the queue to
//! prefer row hits. With the analytic busy-until model requests are served
//! in arrival order against the open row (FCFS + open-row). The first-ready
//! reordering mainly *reduces* average latency under heavy row locality; it
//! does not change the contention-driven variance the sampling experiments
//! depend on. Recorded as a substitution in DESIGN.md.

use crate::config::GpuConfig;
use crate::divisor::Divisor;

/// Rows a bank can serve at row-hit cost. A real FR-FCFS scheduler holds a
/// queue and *reorders* it to batch same-row requests; the analytic model
/// has no queue, so we approximate the batching with a small LRU set of
/// recently-open rows per bank. One row (a bare open-row policy) punishes
/// any interleaving of streams permanently — far more pessimistic than
/// FR-FCFS — while a small set recovers the locality FR-FCFS would.
const OPEN_ROWS: usize = 4;

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    busy_until: u64,
    open_rows: [u64; OPEN_ROWS],
    valid: u8,
    next_victim: u8,
}

impl Bank {
    /// True (and refreshed) if `row` hits the open-row set; otherwise the
    /// oldest entry is replaced.
    fn access_row(&mut self, row: u64) -> bool {
        for i in 0..self.valid as usize {
            if self.open_rows[i] == row {
                return true;
            }
        }
        if (self.valid as usize) < OPEN_ROWS {
            self.open_rows[self.valid as usize] = row;
            self.valid += 1;
        } else {
            self.open_rows[self.next_victim as usize] = row;
            // OPEN_ROWS is a small constant (< 256).
            #[expect(clippy::cast_possible_truncation)]
            let wrap = OPEN_ROWS as u8;
            self.next_victim = (self.next_victim + 1) % wrap;
        }
        false
    }
}

/// The DRAM subsystem: `channels x banks` independent banks.
#[derive(Debug, Clone)]
pub struct Dram {
    banks: Vec<Bank>,
    channels: Divisor,
    banks_per_channel: Divisor,
    lines_per_page: Divisor,
    line_bytes: Divisor,
    row_hit: u64,
    row_miss: u64,
    accesses: u64,
    row_hits: u64,
    total_wait: u64,
}

impl Dram {
    /// Build from the machine config (zero channels, banks or line size
    /// count as 1).
    pub fn new(cfg: &GpuConfig) -> Self {
        let channels = Divisor::new(u64::from(cfg.dram_channels));
        let banks_per_channel = Divisor::new(u64::from(cfg.dram_banks_per_channel));
        let line_bytes = Divisor::new(cfg.l2.line_bytes);
        // Bank count is config-bounded (tens), far below usize::MAX.
        #[expect(clippy::cast_possible_truncation)]
        Dram {
            banks: vec![Bank::default(); (channels.get() * banks_per_channel.get()) as usize],
            channels,
            banks_per_channel,
            lines_per_page: Divisor::new(cfg.dram_page_bytes / line_bytes.get()),
            line_bytes,
            row_hit: cfg.dram_row_hit_cycles as u64,
            row_miss: cfg.dram_row_miss_cycles as u64,
            accesses: 0,
            row_hits: 0,
            total_wait: 0,
        }
    }

    /// Map a line address to `(bank index, row)`.
    ///
    /// Channels interleave at line granularity (maximises channel
    /// parallelism for coalesced streams); within a channel, consecutive
    /// lines fill one 2 KB row before moving to the next bank, so
    /// streaming accesses enjoy row-buffer hits while scattered accesses
    /// thrash rows — the locality behaviour FR-FCFS exists to exploit.
    #[inline]
    fn map(&self, line_addr: u64) -> (usize, u64) {
        let (line, _) = self.line_bytes.div_rem(line_addr);
        let (chan_local_line, channel) = self.channels.div_rem(line);
        let (page_idx, _) = self.lines_per_page.div_rem(chan_local_line);
        let (row, bank) = self.banks_per_channel.div_rem(page_idx);
        // Bank index < channels * banks_per_channel == banks.len().
        #[expect(clippy::cast_possible_truncation)]
        (
            (channel * self.banks_per_channel.get() + bank) as usize,
            row,
        )
    }

    /// Issue a request at cycle `now`; returns the cycle at which the bank
    /// has produced the data (excluding the fixed interconnect latency,
    /// which the memory system adds).
    pub fn access(&mut self, line_addr: u64, now: u64) -> u64 {
        self.access_traced(line_addr, now).0
    }

    /// Like [`Dram::access`], but also reports whether the request hit an
    /// open row buffer (for observability; see `tbpoint-obs`).
    pub fn access_traced(&mut self, line_addr: u64, now: u64) -> (u64, bool) {
        let (idx, row) = self.map(line_addr);
        let bank = &mut self.banks[idx];
        let start = now.max(bank.busy_until);
        let hit = bank.access_row(row);
        let service = if hit {
            self.row_hits += 1;
            self.row_hit
        } else {
            self.row_miss
        };
        bank.busy_until = start + service;
        self.accesses += 1;
        self.total_wait += bank.busy_until - now;
        (bank.busy_until, hit)
    }

    /// Reset bank state between launches.
    pub fn flush(&mut self) {
        for b in &mut self.banks {
            *b = Bank::default();
        }
    }

    /// Row-buffer hit rate so far.
    pub fn row_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }

    /// Average total wait (queuing + service) per access, in cycles.
    pub fn avg_wait(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_wait as f64 / self.accesses as f64
        }
    }

    /// (row hits, row misses) so far.
    pub fn row_stats(&self) -> (u64, u64) {
        (self.row_hits, self.accesses - self.row_hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use tbpoint_stats::SplitMix64;

    fn dram() -> Dram {
        Dram::new(&GpuConfig::fermi())
    }

    /// The divide/modulo address map `Dram::map` replaced.
    fn map_reference(cfg: &GpuConfig, line_addr: u64) -> (usize, u64) {
        let (channels, banks) = (
            u64::from(cfg.dram_channels),
            u64::from(cfg.dram_banks_per_channel),
        );
        let line = line_addr / cfg.l2.line_bytes;
        let channel = line % channels;
        let chan_local_line = line / channels;
        let lines_per_page = (cfg.dram_page_bytes / cfg.l2.line_bytes).max(1);
        let page_idx = chan_local_line / lines_per_page;
        let bank = page_idx % banks;
        let row = page_idx / banks;
        ((channel * banks + bank) as usize, row)
    }

    /// `geometries` seeded DRAM shapes (power-of-two and odd channel,
    /// bank, page and line sizes), 1000 addresses each plus the extremes.
    fn differential(seed: u64, geometries: u64) {
        let mut rng = SplitMix64::new(seed);
        let mut addrs = 0u64;
        for g in 0..geometries {
            let mut cfg = GpuConfig::fermi();
            cfg.dram_channels = [1, 2, 3, 6, 8][rng.next_index(5) as usize];
            cfg.dram_banks_per_channel = [1, 4, 5, 16][rng.next_index(4) as usize];
            cfg.dram_page_bytes = [64, 1000, 2048, 4096][rng.next_index(4) as usize];
            cfg.l2.line_bytes = [32, 96, 128][rng.next_index(3) as usize];
            let d = Dram::new(&cfg);
            for i in 0..1_002 {
                let addr = match i {
                    0 => 0,
                    1 => u64::MAX,
                    // Half near zero (small quotients), half anywhere.
                    _ if i % 2 == 0 => rng.next_index(1 << 24),
                    _ => rng.next_u64(),
                };
                let (bank, row) = d.map(addr);
                assert!(bank < d.banks.len());
                assert_eq!(
                    (bank, row),
                    map_reference(&cfg, addr),
                    "geometry {g} (seed {seed:#x}): {} ch x {} banks, {} B pages, {} B lines, addr {addr:#x}",
                    cfg.dram_channels,
                    cfg.dram_banks_per_channel,
                    cfg.dram_page_bytes,
                    cfg.l2.line_bytes
                );
                addrs += 1;
            }
        }
        println!("dram map vs divide/modulo reference: {geometries} geometries, {addrs} addresses, 0 mismatches");
    }

    #[test]
    fn map_matches_the_divide_modulo_reference() {
        differential(0xD4A3, 200);
    }

    #[test]
    #[ignore = "50k geometries; CI runs it in release (cargo test --release -p tbpoint-sim -- --ignored)"]
    fn map_matches_the_divide_modulo_reference_50k() {
        differential(0xBA2C_D4A3, 50_000);
    }

    #[test]
    fn row_hit_is_cheaper_than_miss() {
        let mut d = dram();
        let t1 = d.access(0, 0); // row miss (cold)
                                 // Next line of the same channel (line index 6 -> channel 0,
                                 // channel-local line 1): same 2 KB row -> hit.
        let t2 = d.access(6 * 128, t1);
        assert_eq!(t1, 60);
        assert_eq!(t2 - t1, 20);
        assert!((d.row_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn same_bank_requests_serialise() {
        let mut d = dram();
        // Two simultaneous requests to the same line: second waits.
        let t1 = d.access(0, 100);
        let t2 = d.access(0, 100);
        assert!(t2 > t1, "bank must serialise: {t1} vs {t2}");
    }

    #[test]
    fn different_channels_proceed_in_parallel() {
        let mut d = dram();
        // Lines 0 and 1 interleave to different channels.
        let t1 = d.access(0, 0);
        let t2 = d.access(128, 0);
        assert_eq!(t1, t2, "independent banks should not serialise");
    }

    #[test]
    fn queuing_delay_grows_under_load() {
        // Hammer one bank: average wait must exceed the bare service time
        // — the "variable M" effect the paper models (queuing delay).
        let mut d = dram();
        for _ in 0..32 {
            d.access(0, 0);
        }
        assert!(d.avg_wait() > d.row_hit as f64, "queuing must accumulate");
    }

    #[test]
    fn row_conflict_switches_open_row() {
        let mut d = dram();
        // Channel 0, bank 0, row 0.
        let t1 = d.access(0, 0);
        // Channel 0, bank 0, row 1: 16 pages later in the channel-local
        // space = 16 banks * 16 lines/page * 6 channels * 128 B.
        let same_bank_next_row = 16u64 * 16 * 6 * 128;
        let t2 = d.access(same_bank_next_row, t1);
        assert!(t2 - t1 >= 60, "row conflict should pay the miss penalty");
        assert_eq!(d.row_hit_rate(), 0.0);
    }

    #[test]
    fn flush_resets_banks() {
        let mut d = dram();
        d.access(0, 0);
        d.flush();
        let t = d.access(128, 0);
        assert_eq!(t, 60, "after flush the open row is forgotten");
    }
}
