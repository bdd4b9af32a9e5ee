//! Fixed-size sampling-unit collection for the baselines.
//!
//! Random sampling and Ideal-SimPoint are both defined on sampling units
//! of a fixed number of instructions (one million in the paper,
//! Section V-A). During a *full* timing simulation this collector slices
//! the aggregate issued-instruction stream into units and records each
//! unit's cycle span (hence IPC) and its BBV. The paper is
//! explicit that collecting BBVs this way requires full timing simulation
//! — "Ideal-SimPoint is not a viable solution for the GPGPU platform" —
//! which is exactly why it is a baseline and not a competitor.

use serde::{Deserialize, Serialize};

/// Collection parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnitsConfig {
    /// Warp instructions per sampling unit (paper: 1,000,000).
    pub unit_warp_insts: u64,
}

/// One completed sampling unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitRecord {
    /// Cycle at which the unit began.
    pub start_cycle: u64,
    /// Cycles the unit spanned.
    pub cycles: u64,
    /// Warp instructions in the unit (== config size except the last).
    pub warp_insts: u64,
    /// Per-basic-block warp-instruction counts.
    pub bbv: Vec<u64>,
}

impl UnitRecord {
    /// Aggregate IPC of the unit.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.warp_insts as f64 / self.cycles as f64
        }
    }
}

/// Streaming collector: feed issued instructions, harvest unit records.
#[derive(Debug, Clone)]
pub struct UnitCollector {
    cfg: UnitsConfig,
    num_bbs: usize,
    records: Vec<UnitRecord>,
    unit_start_cycle: u64,
    unit_insts: u64,
    bbv: Vec<u64>,
}

impl UnitCollector {
    /// New collector for a kernel with `num_bbs` basic blocks.
    pub fn new(cfg: UnitsConfig, num_bbs: usize) -> Self {
        assert!(cfg.unit_warp_insts > 0, "unit size must be positive");
        UnitCollector {
            cfg,
            num_bbs,
            records: vec![],
            unit_start_cycle: 0,
            unit_insts: 0,
            bbv: vec![0; num_bbs],
        }
    }

    /// Record one issued warp instruction at `cycle` from basic block `bb`.
    pub fn on_issue(&mut self, cycle: u64, bb: u16) {
        if self.unit_insts == 0 {
            self.unit_start_cycle = cycle;
        }
        self.unit_insts += 1;
        self.bbv[bb as usize] += 1;
        if self.unit_insts >= self.cfg.unit_warp_insts {
            self.close_unit(cycle + 1);
        }
    }

    fn close_unit(&mut self, end_cycle: u64) {
        let bbv = std::mem::replace(&mut self.bbv, vec![0; self.num_bbs]);
        self.records.push(UnitRecord {
            start_cycle: self.unit_start_cycle,
            cycles: end_cycle.saturating_sub(self.unit_start_cycle).max(1),
            warp_insts: self.unit_insts,
            bbv,
        });
        self.unit_insts = 0;
    }

    /// Flush a trailing partial unit (end of launch) and return all
    /// records.
    pub fn finish(mut self, end_cycle: u64) -> Vec<UnitRecord> {
        if self.unit_insts > 0 {
            self.close_unit(end_cycle);
        }
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_stream_into_units() {
        let mut c = UnitCollector::new(
            UnitsConfig {
                unit_warp_insts: 10,
            },
            1,
        );
        for i in 0..25u64 {
            c.on_issue(i * 2, 0); // one inst every 2 cycles
        }
        let recs = c.finish(50);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].warp_insts, 10);
        assert_eq!(recs[1].warp_insts, 10);
        assert_eq!(recs[2].warp_insts, 5); // trailing partial
                                           // IPC of the full units: 10 insts over ~20 cycles = 0.5.
        assert!((recs[0].ipc() - 0.5).abs() < 0.06);
    }

    #[test]
    fn bbv_accumulates_per_unit() {
        let mut c = UnitCollector::new(UnitsConfig { unit_warp_insts: 4 }, 3);
        for (i, bb) in [0u16, 0, 1, 2, 1, 1, 1, 1].iter().enumerate() {
            c.on_issue(i as u64, *bb);
        }
        let recs = c.finish(8);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].bbv, vec![2, 1, 1]);
        assert_eq!(recs[1].bbv, vec![0, 4, 0]);
    }

    #[test]
    fn empty_stream_yields_no_units() {
        let c = UnitCollector::new(
            UnitsConfig {
                unit_warp_insts: 10,
            },
            1,
        );
        assert!(c.finish(100).is_empty());
    }

    #[test]
    #[should_panic(expected = "unit size must be positive")]
    fn zero_unit_size_rejected() {
        UnitCollector::new(UnitsConfig { unit_warp_insts: 0 }, 1);
    }
}
