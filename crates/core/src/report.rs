//! Execution reports: the measurements every figure of the paper is built
//! from.

use crate::Dataflow;
use flexagon_mem::PsramUsage;
use flexagon_sim::{CounterSet, Cycle, PhaseClock, Ratio};
use flexagon_sparse::stats::SpGemmWork;
use serde::Serialize;

/// Traffic through the memory hierarchy during one execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TrafficReport {
    /// Bytes read out of the STA FIFO by the datapath (Fig. 14, blue).
    pub sta_onchip_bytes: u64,
    /// Bytes delivered from the STR cache to the datapath (Fig. 14, orange).
    pub str_onchip_bytes: u64,
    /// Psum bytes moved to/from the PSRAM (Fig. 14, green).
    pub psum_onchip_bytes: u64,
    /// Bytes filled into the STR cache from DRAM (Fig. 16's metric).
    pub str_fill_bytes: u64,
    /// Total DRAM read bytes (all structures).
    pub dram_read_bytes: u64,
    /// Total DRAM write bytes (psum spills, partial fibers and final
    /// outputs).
    pub dram_write_bytes: u64,
}

impl TrafficReport {
    /// Total on-chip L1-to-datapath traffic (the stacked bars of Fig. 14).
    pub fn onchip_total(&self) -> u64 {
        self.sta_onchip_bytes + self.str_onchip_bytes + self.psum_onchip_bytes
    }

    /// Total off-chip traffic.
    pub fn offchip_total(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }
}

/// Everything measured during one SpMSpM execution.
///
/// Produced by [`crate::Accelerator::execute`]; aggregated across layers
/// by the benchmark harness for the end-to-end figures.
#[derive(Debug, Clone, Serialize)]
pub struct ExecutionReport {
    /// The dataflow that was executed.
    pub dataflow: Dataflow,
    /// Total execution cycles.
    pub total_cycles: Cycle,
    /// Cycle attribution per phase (Fig. 13's Mult/Merg split).
    pub phases: PhaseClock,
    /// Memory traffic breakdown.
    pub traffic: TrafficReport,
    /// STR cache hit/miss statistics (Fig. 15).
    pub cache: Ratio,
    /// PSRAM occupancy and spill statistics.
    pub psram: PsramUsage,
    /// Work profile of the operation (products, nnz).
    pub work: SpGemmWork,
    /// Number of stationary tiles (passes) executed.
    pub tiles: u64,
    /// Effectual scalar multiplications performed by the MN.
    pub multiplications: u64,
    /// Whether an operand had to be explicitly converted to the dataflow's
    /// required format before execution (the "EC" of Table 4).
    pub explicit_conversions: u32,
    /// Assorted low-level counters (network casts, merge passes, ...).
    pub counters: CounterSet,
}

impl ExecutionReport {
    /// On-chip traffic total in bytes.
    pub fn onchip_bytes(&self) -> u64 {
        self.traffic.onchip_total()
    }

    /// Off-chip traffic total in bytes.
    pub fn offchip_bytes(&self) -> u64 {
        self.traffic.offchip_total()
    }

    /// Speed-up of this run relative to `other` (`other.cycles / my
    /// cycles`); >1 means this run is faster.
    pub fn speedup_over(&self, other: &ExecutionReport) -> f64 {
        if self.total_cycles == 0 {
            return if other.total_cycles == 0 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        other.total_cycles as f64 / self.total_cycles as f64
    }

    /// Merges another layer's report into this aggregate (cycles and
    /// traffic add; ratios merge; the dataflow field keeps the first run's
    /// value).
    pub fn accumulate(&mut self, other: &ExecutionReport) {
        self.total_cycles += other.total_cycles;
        self.phases.merge(other.phases);
        self.traffic.sta_onchip_bytes += other.traffic.sta_onchip_bytes;
        self.traffic.str_onchip_bytes += other.traffic.str_onchip_bytes;
        self.traffic.psum_onchip_bytes += other.traffic.psum_onchip_bytes;
        self.traffic.str_fill_bytes += other.traffic.str_fill_bytes;
        self.traffic.dram_read_bytes += other.traffic.dram_read_bytes;
        self.traffic.dram_write_bytes += other.traffic.dram_write_bytes;
        self.cache.merge(other.cache);
        self.work.products += other.work.products;
        self.work.nnz_a += other.work.nnz_a;
        self.work.nnz_b += other.work.nnz_b;
        self.work.effectual_k += other.work.effectual_k;
        self.tiles += other.tiles;
        self.multiplications += other.multiplications;
        self.explicit_conversions += other.explicit_conversions;
        self.counters.merge(&other.counters);
        self.psram.spilled_elements += other.psram.spilled_elements;
        self.psram.high_water_blocks = self
            .psram
            .high_water_blocks
            .max(other.psram.high_water_blocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank(cycles: Cycle) -> ExecutionReport {
        ExecutionReport {
            dataflow: Dataflow::GustavsonM,
            total_cycles: cycles,
            phases: PhaseClock::new(),
            traffic: TrafficReport::default(),
            cache: Ratio::new(),
            psram: PsramUsage::default(),
            work: SpGemmWork {
                products: 0,
                nnz_a: 0,
                nnz_b: 0,
                effectual_k: 0,
            },
            tiles: 0,
            multiplications: 0,
            explicit_conversions: 0,
            counters: CounterSet::new(),
        }
    }

    #[test]
    fn traffic_totals() {
        let t = TrafficReport {
            sta_onchip_bytes: 1,
            str_onchip_bytes: 2,
            psum_onchip_bytes: 3,
            str_fill_bytes: 4,
            dram_read_bytes: 5,
            dram_write_bytes: 6,
        };
        assert_eq!(t.onchip_total(), 6);
        assert_eq!(t.offchip_total(), 11);
    }

    #[test]
    fn speedup_direction() {
        let fast = blank(100);
        let slow = blank(400);
        assert_eq!(fast.speedup_over(&slow), 4.0);
        assert_eq!(slow.speedup_over(&fast), 0.25);
    }

    #[test]
    fn speedup_zero_cycles_edge() {
        let zero = blank(0);
        let some = blank(10);
        assert_eq!(zero.speedup_over(&some), f64::INFINITY);
        assert_eq!(zero.speedup_over(&blank(0)), 1.0);
    }

    #[test]
    fn accumulate_adds_everything() {
        let mut a = blank(10);
        a.traffic.dram_read_bytes = 5;
        a.tiles = 1;
        let mut b = blank(20);
        b.traffic.dram_read_bytes = 7;
        b.tiles = 2;
        b.multiplications = 9;
        a.accumulate(&b);
        assert_eq!(a.total_cycles, 30);
        assert_eq!(a.traffic.dram_read_bytes, 12);
        assert_eq!(a.tiles, 3);
        assert_eq!(a.multiplications, 9);
    }
}
