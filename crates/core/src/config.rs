//! Accelerator configuration (paper Table 5) and the engine's software
//! tuning thresholds.

use crate::mapper::MapperCalibration;
use flexagon_mem::MemoryConfig;
use flexagon_sim::Cycle;
use flexagon_sparse::{AccumConfig, FiberFormat};
use serde::{Deserialize, Serialize};

/// Thresholds steering the engine's adaptive software paths.
///
/// These do not model hardware — the cycle and traffic accounting is
/// identical whichever path runs — they pick the cheapest *software*
/// strategy for the operand shape at hand. The probe and accumulator
/// gates are derived from the `threshold_probe` benchmark group's
/// measured crossovers (see the named defaults below for the method);
/// re-run that group on a new machine class to re-derive them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Inner-Product streaming loop: probe a fiber's index with the tile's
    /// stationary list (instead of mask-scanning the fiber) when
    /// `stationary_coords * probe_gate_factor <= fiber_len`.
    pub probe_gate_factor: usize,
    /// Inner-Product dispatch: take the k-indexed tile loop when
    /// `K >= indexed_min_k_ratio * multipliers`.
    pub indexed_min_k_ratio: usize,
    /// Inner-Product dispatch: upper bound, in elements, on the dense
    /// `clusters x N` accumulator grid the k-indexed path may allocate.
    pub indexed_max_acc_elements: usize,
    /// Intra-layer shard grain: target stationary-operand nonzeros per
    /// output-row band. `0` disables sharding (one band spanning every
    /// output row — the classic sequential execution).
    ///
    /// The band partition is derived *only* from the operand structure and
    /// this grain — never from the worker count — which is what makes
    /// execution reports byte-identical at any [`EngineConfig::shard_workers`]
    /// setting: workers only schedule a fixed, deterministic decomposition.
    pub shard_grain_nnz: usize,
    /// Maximum worker threads executing a layer's bands concurrently.
    /// `1` runs the bands sequentially (still banded accounting when
    /// [`EngineConfig::shard_grain_nnz`] is set). Values above the core
    /// count oversubscribe, like rayon's global pool.
    pub shard_workers: usize,
    /// Default fiber storage format for requests that leave the format
    /// to the config (`FormatChoice::Config`; [`FiberFormat::Soa`] by
    /// default). A lossless format is a label: the run reads the
    /// caller's operands untouched, so reports and outputs are
    /// byte-identical to the SoA run. The lossy [`FiberFormat::Quant8`]
    /// is the one format that changes values, and applies only when set
    /// here or pinned on the request (opt-in). The engine itself never
    /// reads this field; `Accelerator::execute` resolves it.
    pub format: FiberFormat,
    /// Tier cutoffs for the Outer-Product/Gustavson psum accumulators.
    pub accum: AccumConfig,
    /// Fitted corrections for the heuristic mapper's closed-form cost
    /// model (defaults to the checked-in `mapper_calibrate` fit; see
    /// [`MapperCalibration`]). Like the other fields, this has no effect
    /// on modeled cycles — only on which dataflow the heuristic picks.
    pub mapper: MapperCalibration,
}

impl EngineConfig {
    /// Default for [`EngineConfig::probe_gate_factor`].
    ///
    /// Derived from `threshold_probe/{scan,probe}`: a mask-scan of a
    /// 4096-element fiber is flat (~3.6 µs) while probing with a
    /// stationary list `R` times shorter scales down with `R` (6.1 µs at
    /// R=1, 3.0 µs at R=2, 1.5 µs at R=4) — the crossover sits between
    /// R=1 and R=2, so the gate probes from a 2:1 length ratio on. (The
    /// previous hand-tuned value of 4 left the 2–4x band on the slower
    /// scan path.)
    ///
    /// The `threshold_probe/probe` numbers as compiled in the bench
    /// *binary* read ~2x the lib-level cost at low `R` (a codegen/layout
    /// artifact of that binary, not a library cost — see
    /// `crates/sparse/tests/probe_micro.rs` and the BENCH_spgemm.json
    /// notes), which moves their crossover to between R=2 and R=4. Naively
    /// reading them would move the gate to 4, but an engine A/B of gate 2
    /// vs 4 on `execute/table5` showed no dataflow where 4 wins (KMN was
    /// 15% worse), so the gate stays 2.
    pub const DEFAULT_PROBE_GATE_FACTOR: usize = 2;
    /// Default for [`EngineConfig::indexed_min_k_ratio`].
    pub const DEFAULT_INDEXED_MIN_K_RATIO: usize = 2;
    /// Default for [`EngineConfig::indexed_max_acc_elements`] (8M elements,
    /// a 32 MiB `f32` grid).
    pub const DEFAULT_INDEXED_MAX_ACC_ELEMENTS: usize = 1 << 23;
    /// Default for [`EngineConfig::shard_grain_nnz`]: sharding disabled, so
    /// default-configured runs reproduce the unsharded accounting (and the
    /// recorded goldens) bit for bit.
    pub const DEFAULT_SHARD_GRAIN_NNZ: usize = 0;
    /// Default for [`EngineConfig::shard_workers`].
    pub const DEFAULT_SHARD_WORKERS: usize = 1;
    /// Default for [`EngineConfig::format`]: the SoA baseline, the format
    /// the operands already have.
    pub const DEFAULT_FORMAT: FiberFormat = FiberFormat::Soa;

    /// A sharded configuration: bands of roughly `grain_nnz` stationary
    /// nonzeros executed by up to `workers` threads.
    #[must_use]
    pub fn sharded(mut self, grain_nnz: usize, workers: usize) -> Self {
        self.shard_grain_nnz = grain_nnz;
        self.shard_workers = workers.max(1);
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            probe_gate_factor: Self::DEFAULT_PROBE_GATE_FACTOR,
            indexed_min_k_ratio: Self::DEFAULT_INDEXED_MIN_K_RATIO,
            indexed_max_acc_elements: Self::DEFAULT_INDEXED_MAX_ACC_ELEMENTS,
            shard_grain_nnz: Self::DEFAULT_SHARD_GRAIN_NNZ,
            shard_workers: Self::DEFAULT_SHARD_WORKERS,
            format: Self::DEFAULT_FORMAT,
            accum: AccumConfig::default(),
            mapper: MapperCalibration::calibrated(),
        }
    }
}

/// Architectural parameters shared by Flexagon and the three baseline
/// accelerators ("for the three accelerators, we model the same parameters
/// presented in Table 5, and we only change the memory controllers").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    /// Number of multipliers (Table 5: 64). Must be a power of two — the
    /// distribution network is a Benes topology and the MRN a binary tree.
    pub multipliers: u32,
    /// Distribution bandwidth in elements per cycle (Table 5: 16).
    pub dn_bandwidth: u64,
    /// Reduction/merging bandwidth in elements per cycle (Table 5: 16).
    pub merge_bandwidth: u64,
    /// L1 access latency in cycles (Table 5: 1).
    pub l1_latency: Cycle,
    /// Memory hierarchy configuration.
    pub memory: MemoryConfig,
    /// Software-path tuning thresholds (no effect on modeled cycles).
    pub engine: EngineConfig,
}

impl AcceleratorConfig {
    /// The paper's Table 5 configuration: 64 multipliers, 16 elems/cycle
    /// distribution and merge bandwidth, 1 MiB STR cache, 256 KiB PSRAM,
    /// HBM 2.0 DRAM.
    pub fn table5() -> Self {
        Self {
            multipliers: 64,
            dn_bandwidth: 16,
            merge_bandwidth: 16,
            l1_latency: 1,
            memory: MemoryConfig::table5(),
            engine: EngineConfig::default(),
        }
    }

    /// A deliberately tiny configuration for unit tests: 4 multipliers,
    /// 2 elements/cycle everywhere, a 512-byte cache and 256-byte PSRAM so
    /// tiling, eviction and spill paths are exercised by small matrices.
    pub fn tiny() -> Self {
        let mut memory = MemoryConfig::table5();
        memory.fifo.capacity_bytes = 32;
        memory.cache.capacity_bytes = 512;
        memory.cache.line_bytes = 16;
        memory.cache.associativity = 2;
        memory.cache.banks = 2;
        memory.psram.capacity_bytes = 256;
        memory.psram.block_bytes = 16;
        memory.psram.num_sets = 4;
        memory.psram.banks = 2;
        Self {
            multipliers: 4,
            dn_bandwidth: 2,
            merge_bandwidth: 2,
            l1_latency: 1,
            memory,
            engine: EngineConfig::default(),
        }
    }

    /// Number of adder/comparator nodes in the MRN (`multipliers - 1`,
    /// Table 5: 63 adders).
    pub fn adders(&self) -> u32 {
        self.multipliers - 1
    }

    /// Validates structural constraints.
    ///
    /// # Panics
    ///
    /// Panics if `multipliers` is not a power of two or a bandwidth is zero.
    pub fn assert_valid(&self) {
        assert!(
            self.multipliers.is_power_of_two() && self.multipliers >= 2,
            "multipliers must be a power of two >= 2"
        );
        assert!(self.dn_bandwidth > 0, "dn_bandwidth must be positive");
        assert!(self.merge_bandwidth > 0, "merge_bandwidth must be positive");
    }
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        Self::table5()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_matches_paper() {
        let c = AcceleratorConfig::table5();
        assert_eq!(c.multipliers, 64);
        assert_eq!(c.adders(), 63);
        assert_eq!(c.dn_bandwidth, 16);
        assert_eq!(c.merge_bandwidth, 16);
        assert_eq!(c.l1_latency, 1);
        c.assert_valid();
    }

    #[test]
    fn engine_defaults_match_named_constants() {
        let e = EngineConfig::default();
        assert_eq!(e.probe_gate_factor, EngineConfig::DEFAULT_PROBE_GATE_FACTOR);
        assert_eq!(
            e.indexed_min_k_ratio,
            EngineConfig::DEFAULT_INDEXED_MIN_K_RATIO
        );
        assert_eq!(
            e.indexed_max_acc_elements,
            EngineConfig::DEFAULT_INDEXED_MAX_ACC_ELEMENTS
        );
        assert_eq!(e.format, EngineConfig::DEFAULT_FORMAT);
        assert_eq!(e.format, FiberFormat::Soa);
        assert_eq!(
            e.accum.dense_span_per_elem,
            AccumConfig::DEFAULT_DENSE_SPAN_PER_ELEM
        );
        assert_eq!(
            e.accum.runs_merge_limit,
            AccumConfig::DEFAULT_RUNS_MERGE_LIMIT
        );
        assert_eq!(e.mapper, MapperCalibration::calibrated());
    }

    #[test]
    fn tiny_is_valid_and_small() {
        let c = AcceleratorConfig::tiny();
        c.assert_valid();
        assert_eq!(c.multipliers, 4);
        assert!(c.memory.cache.capacity_bytes < 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_multiplier_count_rejected() {
        let mut c = AcceleratorConfig::table5();
        c.multipliers = 48;
        c.assert_valid();
    }
}
