//! The execution engine: one hardware substrate, six dataflows.
//!
//! [`execute`] orients any of the six dataflows onto the M-stationary form
//! of its class (paper §3.2: "the IP(N), OP(N) and Gust(N) dataflows could
//! be executed in the same manner by exchanging matrices A and B"), runs the
//! class-specific phase loop against the simulated memory structures and
//! networks, and assembles the functional output together with the
//! execution report.
//!
//! The engine is clone-free: operands enter as [`MatrixView`]s, so a
//! format-matching run borrows the caller's data untouched and the
//! N-stationary duality is a zero-copy relabeling. Only an explicit format
//! conversion (the "EC" cost of Table 4) materializes a new matrix, and it
//! lives on `execute`'s stack just long enough to be viewed.
//!
//! # Sharded execution
//!
//! When [`EngineConfig::shard_grain_nnz`] is set, the layer is decomposed
//! into *bands* of output rows (the stationary dimension after the
//! M-stationary orientation): Inner-Product and Gustavson bands re-tile
//! their row range, Outer-Product bands tile the row-filtered stationary
//! elements. Each band is a complete, independent sub-execution — its own
//! tile plan, STR cache, PSRAM, DRAM channel and networks — producing its
//! rows of the output plus a [`BandOutcome`] of totals, and the outcomes
//! reduce additively in band order into the final report.
//!
//! Determinism is by construction, not by luck: the band partition is a
//! pure function of the operand structure and the configured grain, each
//! band's execution is a pure function of `(operands, config, band)`, and
//! the reduction runs in fixed band order. The worker count
//! ([`EngineConfig::shard_workers`]) only schedules bands onto threads, so
//! reports and output matrices are byte-identical at *any* worker count.
//! With the grain at its default of `0` there is a single band spanning
//! every row and the engine is the classic sequential one, bit for bit.

mod gustavson;
mod inner_product;
mod outer_product;
pub(crate) mod tiling;

use crate::{
    AcceleratorConfig, CancelToken, CoreError, Dataflow, DataflowClass, ExecutionReport, Result,
    Stationarity, TrafficReport,
};
use flexagon_mem::{Dram, Psram, PsramUsage, StaFifo, StrCache, WriteBuffer};
use flexagon_noc::{
    DistributionNetwork, DnConfig, MergerReductionNetwork, MnConfig, MrnConfig, MultiplierNetwork,
};
use flexagon_sim::{
    bottleneck, cycles_for, Bandwidth, CounterSet, Cycle, Phase, PhaseClock, Ratio,
};
use flexagon_sparse::{
    stats::SpGemmWork, CompressedMatrix, Fiber, FormatError, MajorOrder, MatrixIndex, MatrixView,
    RowAccum, Value,
};
use rayon::prelude::*;
use std::collections::VecDeque;
use std::ops::Range;

/// Precomputed per-execution state shared read-only by every band of an
/// Inner-Product run: the streaming operand's k-major copy (k-indexed tile
/// loop) or its tiered coordinate index (streaming scan). Computed once at
/// the execution level — the dispatch gate depends only on global shape,
/// so every band takes the same path.
enum IpShared {
    /// `B` converted to k-major rows for the k-indexed tile loop.
    Indexed(CompressedMatrix),
    /// Tiered per-fiber index over `B` for the probing streaming scan.
    Streaming(MatrixIndex),
}

/// Runs `a x b` under `dataflow` on the given configuration, returning the
/// output matrix (in the dataflow's natural format) and the report.
///
/// `cancel` is polled cooperatively at band, tile and merge-pass
/// boundaries: once it fires the run unwinds with
/// [`CoreError::DeadlineExceeded`] and no partial result escapes. An
/// unarmed token is result-transparent — outputs and reports are
/// byte-identical to a run without it.
pub(crate) fn execute(
    cfg: &AcceleratorConfig,
    a: &CompressedMatrix,
    b: &CompressedMatrix,
    dataflow: Dataflow,
    cancel: &CancelToken,
) -> Result<(CompressedMatrix, ExecutionReport)> {
    cfg.assert_valid();
    cancel.check()?;
    if a.cols() != b.rows() {
        return Err(CoreError::Format(FormatError::DimensionMismatch {
            left_cols: a.cols(),
            right_rows: b.rows(),
        }));
    }
    // Bring operands into the dataflow's Table 3 formats, counting explicit
    // conversions (the "EC" cost Flexagon's inter-layer mechanism avoids).
    // A format-matching operand is borrowed, never copied.
    let mut explicit_conversions = 0u32;
    let a_conv;
    let a_view = if a.order() == dataflow.a_format() {
        a.view()
    } else {
        explicit_conversions += 1;
        a_conv = a.converted(dataflow.a_format());
        a_conv.view()
    };
    let b_conv;
    let b_view = if b.order() == dataflow.b_format() {
        b.view()
    } else {
        explicit_conversions += 1;
        b_conv = b.converted(dataflow.b_format());
        b_conv.view()
    };
    // Orient to M-stationary: an N-stationary run of C = A x B is the
    // M-stationary run of Cᵀ = Bᵀ x Aᵀ, and transposition is a free
    // reinterpretation of the borrowed views.
    let (a_eff, b_eff) = match dataflow.stationarity() {
        Stationarity::M => (a_view, b_view),
        Stationarity::N => (
            b_view.reinterpret_transposed(),
            a_view.reinterpret_transposed(),
        ),
    };
    let work = SpGemmWork::of_views(a_eff, b_eff);
    let class = dataflow.class();
    let bands = shard_bands(a_eff, cfg.engine.shard_grain_nnz);
    let shared = match class {
        DataflowClass::InnerProduct => Some(ip_shared(cfg, a_eff, b_eff)),
        _ => None,
    };
    // Multi-band Outer-Product planning: one bucketing pass hands every
    // band its elements in walk order, keeping total planning linear in
    // nnz(A) instead of O(bands x nnz(A)) full rescans.
    let op_buckets: Option<Vec<Vec<(u32, u32, Value)>>> =
        if class == DataflowClass::OuterProduct && bands.len() > 1 {
            Some(bucket_op_elements(a_eff, &bands))
        } else {
            None
        };
    let run_band = |bi: usize| -> Result<BandOutcome> {
        // Band boundary: a fired token stops before any further band
        // starts (concurrent bands observe the shared latch together).
        cancel.check()?;
        let mut engine = Engine::new(cfg, a_eff, b_eff, bands[bi].clone(), cancel);
        match class {
            DataflowClass::InnerProduct => {
                inner_product::run(&mut engine, shared.as_ref().expect("precomputed"))
            }
            DataflowClass::OuterProduct => {
                outer_product::run(&mut engine, op_buckets.as_ref().map(|b| b[bi].as_slice()))
            }
            DataflowClass::Gustavson => gustavson::run(&mut engine),
        }
        if cancel.is_cancelled() {
            // The phase loop bailed mid-run (or the deadline passed at the
            // finish line): the band's fibers are incomplete, and the band
            // drops with all of its scratch.
            return Err(CoreError::DeadlineExceeded);
        }
        Ok(engine.into_outcome())
    };
    let outcomes: Vec<BandOutcome> = if bands.len() <= 1 || cfg.engine.shard_workers <= 1 {
        (0..bands.len())
            .map(run_band)
            .collect::<Result<Vec<BandOutcome>>>()?
    } else {
        let indices: Vec<usize> = (0..bands.len()).collect();
        indices
            .par_iter()
            .map(|&bi| run_band(bi))
            .max_threads(cfg.engine.shard_workers)
            .collect::<Vec<Result<BandOutcome>>>()
            .into_iter()
            .collect::<Result<Vec<BandOutcome>>>()?
    };
    let (c_m, report) = assemble(
        dataflow,
        work,
        explicit_conversions,
        a_eff.rows(),
        b_eff.cols(),
        outcomes,
    )?;
    let c = match dataflow.stationarity() {
        Stationarity::M => c_m,
        Stationarity::N => c_m.reinterpret_transposed(),
    };
    debug_assert_eq!(c.order(), dataflow.c_format());
    Ok((c, report))
}

/// Chooses and precomputes the Inner-Product strategy state. The dispatch
/// thresholds live on `EngineConfig`: the k-indexed path wins when K
/// dwarfs the array and its dense `clusters x N` accumulator grid stays
/// affordable.
fn ip_shared(cfg: &AcceleratorConfig, a: MatrixView<'_>, b: MatrixView<'_>) -> IpShared {
    let k_dim = a.cols() as usize;
    let n_dim = b.major_dim() as usize;
    let slots = cfg.multipliers as usize;
    let indexed = k_dim >= cfg.engine.indexed_min_k_ratio * slots
        && slots.saturating_mul(n_dim) <= cfg.engine.indexed_max_acc_elements
        && b.nnz() > 0;
    if indexed {
        // B's elements grouped by k. A CSC fiber scan visits each k in
        // ascending order; so does a walk of ascending stationary ks over
        // this copy, which is what keeps sums bit-identical across paths.
        IpShared::Indexed(b.converted(MajorOrder::Row))
    } else {
        IpShared::Streaming(MatrixIndex::build(b))
    }
}

/// Buckets the column-major stationary operand's `(k, row, value)`
/// elements by output-row band, preserving the global walk order within
/// each bucket — the input [`tiling::plan_cols_from_elements`] expects.
fn bucket_op_elements(a_csc: MatrixView<'_>, bands: &[Range<u32>]) -> Vec<Vec<(u32, u32, Value)>> {
    let mut band_of = vec![0u32; a_csc.rows() as usize];
    for (i, band) in bands.iter().enumerate() {
        for r in band.clone() {
            band_of[r as usize] = i as u32;
        }
    }
    let mut buckets: Vec<Vec<(u32, u32, Value)>> = vec![Vec::new(); bands.len()];
    for k in 0..a_csc.major_dim() {
        let fiber = a_csc.fiber(k);
        for (&row, &value) in fiber.coords().iter().zip(fiber.values()) {
            buckets[band_of[row as usize] as usize].push((k, row, value));
        }
    }
    buckets
}

/// Partitions the stationary operand's rows into bands of roughly
/// `grain_nnz` nonzeros each (cut at row boundaries). `grain_nnz == 0`
/// yields the single full-width band.
///
/// The partition depends only on the operand structure and the grain —
/// never on the worker count — so the decomposition, and with it every
/// band's execution, is fixed before any thread is spawned.
fn shard_bands(a: MatrixView<'_>, grain_nnz: usize) -> Vec<Range<u32>> {
    let rows = a.rows();
    let mut bands = Vec::new();
    let enabled = grain_nnz > 0 && rows > 0 && a.nnz() > 0;
    if enabled {
        // Per-output-row nonzero counts of the stationary operand: direct
        // from the pointer array in row-major, one counting pass in
        // column-major.
        let counts: Vec<u32> = if a.order() == MajorOrder::Col {
            let mut c = vec![0u32; rows as usize];
            for &r in a.coords() {
                c[r as usize] += 1;
            }
            c
        } else {
            Vec::new()
        };
        let row_nnz = |row: u32| -> u64 {
            match a.order() {
                MajorOrder::Row => a.fiber_len(row) as u64,
                MajorOrder::Col => counts[row as usize] as u64,
            }
        };
        let mut start = 0u32;
        let mut acc = 0u64;
        for row in 0..rows {
            acc += row_nnz(row);
            if acc >= grain_nnz as u64 {
                bands.push(start..row + 1);
                start = row + 1;
                acc = 0;
            }
        }
        if start < rows {
            bands.push(start..rows);
        }
    }
    if bands.is_empty() {
        // Sharding disabled (or nothing to shard): one full-width band,
        // the classic sequential execution.
        bands.push(0..rows);
    }
    bands
}

/// One band's complete results: its rows of the output (band-local order)
/// plus every additive total of the report. Reduced in band order by
/// [`assemble`].
#[derive(Debug)]
pub(crate) struct BandOutcome {
    fibers: Vec<Fiber>,
    phases: PhaseClock,
    counters: CounterSet,
    traffic: TrafficReport,
    cache: Ratio,
    psram: PsramUsage,
    tiles: u64,
    multiplications: u64,
}

/// Reduces band outcomes (in band order) into the output matrix and the
/// execution report. Every reduction is additive except the PSRAM
/// high-water mark, which takes the maximum — exactly what a sequential
/// execution of the bands through one PSRAM would record.
fn assemble(
    dataflow: Dataflow,
    work: SpGemmWork,
    explicit_conversions: u32,
    rows: u32,
    cols: u32,
    outcomes: Vec<BandOutcome>,
) -> Result<(CompressedMatrix, ExecutionReport)> {
    let mut fibers: Vec<Fiber> = Vec::with_capacity(rows as usize);
    let mut phases = PhaseClock::new();
    let mut counters = CounterSet::new();
    let mut traffic = TrafficReport::default();
    let mut cache = Ratio::new();
    let mut psram = PsramUsage::default();
    let mut tiles = 0u64;
    let mut multiplications = 0u64;
    for mut o in outcomes {
        fibers.append(&mut o.fibers);
        phases.merge(o.phases);
        counters.merge(&o.counters);
        traffic.sta_onchip_bytes += o.traffic.sta_onchip_bytes;
        traffic.str_onchip_bytes += o.traffic.str_onchip_bytes;
        traffic.psum_onchip_bytes += o.traffic.psum_onchip_bytes;
        traffic.str_fill_bytes += o.traffic.str_fill_bytes;
        traffic.dram_read_bytes += o.traffic.dram_read_bytes;
        traffic.dram_write_bytes += o.traffic.dram_write_bytes;
        cache.merge(o.cache);
        psram.live_blocks += o.psram.live_blocks;
        psram.high_water_blocks = psram.high_water_blocks.max(o.psram.high_water_blocks);
        psram.spilled_elements += o.psram.spilled_elements;
        tiles += o.tiles;
        multiplications += o.multiplications;
    }
    debug_assert_eq!(fibers.len(), rows as usize, "bands must cover every row");
    let c = CompressedMatrix::from_fibers(rows, cols, MajorOrder::Row, fibers)?;
    let report = ExecutionReport {
        dataflow,
        total_cycles: phases.total(),
        phases,
        traffic,
        cache,
        psram,
        work,
        tiles,
        multiplications,
        explicit_conversions,
        counters,
    };
    Ok((c, report))
}

/// One psum source of [`Engine::merge_row_fibers`].
#[derive(Debug)]
pub(crate) enum Psum {
    /// Streaming row `k` of B scaled by a stationary value: an
    /// Outer-Product partial fed by exactly one B row, read from the
    /// operand when it is merged instead of being copied when it is made.
    Scaled(u32, Value),
    /// A materialized fiber.
    Owned(Fiber),
}

impl Psum {
    /// The source's coordinates.
    fn coords<'s>(&'s self, b: MatrixView<'s>) -> &'s [u32] {
        match self {
            Psum::Scaled(k, _) => b.fiber(*k).coords(),
            Psum::Owned(f) => f.coords(),
        }
    }

    /// Number of elements.
    pub(crate) fn len(&self, b: MatrixView<'_>) -> usize {
        self.coords(b).len()
    }

    /// The source as a fiber, scaling a B row into a fresh copy.
    pub(crate) fn into_fiber(self, b: MatrixView<'_>) -> Fiber {
        match self {
            Psum::Scaled(k, aval) => {
                let mut f = Fiber::new();
                f.scale_from(b.fiber(k), aval);
                f
            }
            Psum::Owned(f) => f,
        }
    }
}

/// Execution context for one band: configuration, operand views (already
/// M-stationary oriented), the band's simulated hardware, and accumulating
/// results. Everything here, scratch included, lives exactly as long as
/// the band.
pub(crate) struct Engine<'a> {
    pub cfg: &'a AcceleratorConfig,
    /// Stationary operand (CSR for IP/Gust, CSC for OP), borrowed.
    pub a: MatrixView<'a>,
    /// Streaming operand (CSC for IP, CSR for OP/Gust), borrowed.
    pub b: MatrixView<'a>,
    /// The output-row band this engine owns (global row coordinates).
    pub band: Range<u32>,
    pub dram: Dram,
    pub fifo: StaFifo,
    pub cache: StrCache,
    pub psram: Psram,
    pub wbuf: WriteBuffer,
    pub dn: DistributionNetwork,
    pub mn: MultiplierNetwork,
    pub mrn: MergerReductionNetwork,
    pub phases: PhaseClock,
    pub counters: CounterSet,
    /// Output fibers per band row (`out_fibers[row - band.start]`).
    pub out_fibers: Vec<Fiber>,
    /// Scaled-fiber staging pool for the streaming phases, reused across
    /// the band's tiles.
    pub scaled_pool: Vec<Fiber>,
    /// Accumulator backing the merge passes of
    /// [`Engine::merge_row_fibers`], reused across the band's rows.
    pub merge_acc: RowAccum,
    pub tiles_run: u64,
    /// Shared cancellation handle, polled at tile and merge-pass
    /// boundaries. Unarmed on every run without a deadline.
    pub cancel: &'a CancelToken,
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("a", &(self.a.rows(), self.a.cols()))
            .field("b", &(self.b.rows(), self.b.cols()))
            .field("band", &self.band)
            .field("tiles_run", &self.tiles_run)
            .finish_non_exhaustive()
    }
}

impl<'a> Engine<'a> {
    pub(crate) fn new(
        cfg: &'a AcceleratorConfig,
        a: MatrixView<'a>,
        b: MatrixView<'a>,
        band: Range<u32>,
        cancel: &'a CancelToken,
    ) -> Self {
        let band_rows = (band.end - band.start) as usize;
        Self {
            cfg,
            a,
            b,
            band,
            dram: Dram::new(cfg.memory.dram),
            fifo: StaFifo::new(cfg.memory.fifo),
            cache: StrCache::new(cfg.memory.cache),
            psram: Psram::new(cfg.memory.psram),
            wbuf: WriteBuffer::new(),
            dn: DistributionNetwork::new(DnConfig {
                width: cfg.multipliers,
                bandwidth: Bandwidth::per_cycle(cfg.dn_bandwidth),
            }),
            mn: MultiplierNetwork::new(MnConfig {
                multipliers: cfg.multipliers,
            }),
            mrn: MergerReductionNetwork::new(MrnConfig {
                leaves: cfg.multipliers,
                bandwidth: Bandwidth::per_cycle(cfg.merge_bandwidth),
            }),
            phases: PhaseClock::new(),
            counters: CounterSet::new(),
            out_fibers: vec![Fiber::new(); band_rows],
            scaled_pool: Vec::new(),
            merge_acc: RowAccum::new(),
            tiles_run: 0,
            cancel,
        }
    }

    /// Cooperative cancellation poll for the phase loops. `false` forever
    /// on an unarmed token; once `true`, the loop should return — the
    /// band's outcome is discarded by `execute`.
    #[inline]
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Element offset of streaming fiber `major` within B's data vector —
    /// the virtual address space the STR cache operates on.
    pub(crate) fn b_elem_offset(&self, major: u32) -> u64 {
        self.b.ptr()[major as usize] as u64
    }

    /// Band-local index of global output row `row`.
    #[inline]
    pub(crate) fn band_idx(&self, row: u32) -> usize {
        debug_assert!(self.band.contains(&row), "row outside this engine's band");
        (row - self.band.start) as usize
    }

    /// Runs the stationary phase for one tile: `n` elements stream from
    /// DRAM through the STA FIFO and are unicast to their multipliers.
    pub(crate) fn stationary_phase(&mut self, n: u64) {
        self.tiles_run += 1;
        if n == 0 {
            return;
        }
        self.fifo.stream(n, &mut self.dram);
        let inject = self.dn.send_irregular(n, n);
        self.mn.load_stationary(n);
        let dram_busy = self.dram.take_busy_cycles();
        self.phases
            .advance(Phase::Stationary, bottleneck(&[inject, dram_busy]));
    }

    /// Folds accumulated DRAM occupancy into `compute` cycles for `phase`:
    /// memory either hides behind compute or becomes the bottleneck.
    pub(crate) fn advance_with_dram(&mut self, phase: Phase, compute: Cycle) {
        let dram_busy = self.dram.take_busy_cycles();
        self.phases
            .advance(phase, bottleneck(&[compute, dram_busy]));
    }

    /// Merges one row's psum sources down to a single fiber, running as
    /// many MRN passes as the tree radix requires. Intermediate pass results
    /// are buffered in the PSRAM (charged as psum traffic). Returns the
    /// merged fiber and the cycles spent.
    ///
    /// Each source is a [`Psum`]: a scaled view of one B row (an
    /// Outer-Product partial fed by a single B row) or an owned fiber. Each
    /// pass runs through a tiered [`RowAccum`] instead of the comparator-tree
    /// replay: scattering the batch in queue order folds every coordinate's
    /// values in the merge's own source order, and a scaled view stores or
    /// adds the same `v * aval` its materialized copy would hold, so the
    /// result — including the nested fold across passes — is bit-identical
    /// to `mrn.merge_fibers` over the materialized sources while the MRN
    /// charges the same pass model.
    pub(crate) fn merge_row_fibers(&mut self, sources: Vec<Psum>) -> (Fiber, Cycle) {
        let b = self.b;
        let mut queue: VecDeque<Psum> = sources.into_iter().filter(|p| p.len(b) > 0).collect();
        match queue.len() {
            0 => return (Fiber::new(), 0),
            1 => return (queue.pop_front().expect("len checked").into_fiber(b), 0),
            _ => {}
        }
        let radix = self.mrn.max_radix();
        let mut cycles = 0;
        let mut acc = std::mem::take(&mut self.merge_acc);
        loop {
            let take = radix.min(queue.len());
            let batch: Vec<Psum> = queue.drain(..take).collect();
            let (mut lo, mut hi, mut total) = (u32::MAX, 0u32, 0u64);
            for p in &batch {
                let coords = p.coords(b);
                lo = lo.min(coords[0]);
                hi = hi.max(coords[coords.len() - 1]);
                total += coords.len() as u64;
            }
            acc.begin(lo, hi, total, &self.cfg.engine.accum);
            for p in &batch {
                match p {
                    Psum::Scaled(k, aval) => acc.scatter_scaled(b.fiber(*k), *aval),
                    Psum::Owned(f) => acc.scatter(f.as_view()),
                }
            }
            let out = acc.drain();
            cycles += self.mrn.charge_merge(total, out.len() as u64);
            self.counters.incr("mrn.merge_passes");
            if queue.is_empty() {
                self.merge_acc = acc;
                return (out, cycles);
            }
            // Merge-pass boundary: a fired token abandons the remaining
            // passes. The partial fiber flows back to a caller that bails
            // at its next tile check, and the band is then discarded.
            if self.cancel.is_cancelled() {
                self.merge_acc = acc;
                return (out, cycles);
            }
            // Intermediate result waits in the PSRAM for the next pass.
            self.psram.charge_intermediate_roundtrip(out.len() as u64);
            queue.push_back(Psum::Owned(out));
        }
    }

    /// Charges the timing and counter model of one row-merge exactly as
    /// [`Engine::merge_row_fibers`] would for `nonempty` non-empty psum
    /// fibers totalling `inputs` elements that merge down to `out_len`
    /// distinct coordinates — used by the accumulator paths, which already
    /// hold the merged fiber and never fan more than one MRN pass
    /// (`nonempty` is bounded by the tree radix).
    ///
    /// Zero or one input fiber passes through untouched (no tree pass, no
    /// comparisons); two or more charge a single merge pass.
    pub(crate) fn charge_row_merge(&mut self, nonempty: usize, inputs: u64, out_len: u64) -> Cycle {
        debug_assert!(nonempty <= self.mrn.max_radix(), "single-pass bound");
        if nonempty < 2 {
            return 0;
        }
        self.counters.incr("mrn.merge_passes");
        self.mrn.charge_merge(inputs, out_len)
    }

    /// Emits a final output fiber for `row` through the write buffer.
    pub(crate) fn emit_row(&mut self, row: u32, fiber: Fiber) {
        self.wbuf.write(fiber.len() as u64, &mut self.dram);
        let idx = self.band_idx(row);
        self.out_fibers[idx] = fiber;
    }

    /// Tears the band down into its outcome.
    pub(crate) fn into_outcome(mut self) -> BandOutcome {
        let fibers = std::mem::take(&mut self.out_fibers);
        let (uni, multi, broad) = self.dn.cast_counts();
        self.counters.add("dn.unicasts", uni);
        self.counters.add("dn.multicasts", multi);
        self.counters.add("dn.broadcasts", broad);
        self.counters
            .add("dn.injected", self.dn.injected_elements());
        self.counters
            .add("dn.delivered", self.dn.delivered_elements());
        self.counters.add("mrn.additions", self.mrn.additions());
        self.counters.add("mrn.comparisons", self.mrn.comparisons());
        self.counters.add("mn.forwards", self.mn.forwards());
        self.counters.add(
            "psram.spilled_elements",
            self.psram.usage().spilled_elements,
        );
        self.counters
            .add("wbuf.elements", self.wbuf.written_elements());
        BandOutcome {
            fibers,
            phases: self.phases,
            counters: self.counters,
            traffic: TrafficReport {
                sta_onchip_bytes: self.fifo.onchip_bytes(),
                str_onchip_bytes: self.cache.onchip_bytes(),
                psum_onchip_bytes: self.psram.onchip_bytes(),
                str_fill_bytes: self.cache.fill_bytes(),
                dram_read_bytes: self.dram.read_bytes(),
                dram_write_bytes: self.dram.written_bytes(),
            },
            cache: self.cache.stats(),
            psram: self.psram.usage(),
            tiles: self.tiles_run,
            multiplications: self.mn.multiplications(),
        }
    }

    /// Shorthand for `cycles_for` against the distribution bandwidth.
    pub(crate) fn dn_cycles(&self, elements: u64) -> Cycle {
        cycles_for(elements, self.cfg.dn_bandwidth)
    }

    /// Shorthand for `cycles_for` against the merge bandwidth.
    pub(crate) fn merge_cycles(&self, elements: u64) -> Cycle {
        cycles_for(elements, self.cfg.merge_bandwidth)
    }

    /// Shorthand for `cycles_for` against the multiplier count.
    pub(crate) fn mult_cycles(&self, products: u64) -> Cycle {
        cycles_for(products, self.cfg.multipliers as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Accelerator, ExecutionRequest, Flexagon};
    use flexagon_sparse::gen;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn mats(seed: u64) -> (CompressedMatrix, CompressedMatrix) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (
            gen::random(40, 48, 0.25, MajorOrder::Row, &mut rng),
            gen::random(48, 36, 0.2, MajorOrder::Row, &mut rng),
        )
    }

    #[test]
    fn shard_bands_disabled_is_single_full_band() {
        let (a, _) = mats(1);
        assert_eq!(shard_bands(a.view(), 0), vec![0..40]);
    }

    #[test]
    fn shard_bands_partition_covers_rows_in_order() {
        let (a, _) = mats(2);
        for grain in [1usize, 7, 64, 1 << 20] {
            let bands = shard_bands(a.view(), grain);
            assert_eq!(bands.first().unwrap().start, 0);
            assert_eq!(bands.last().unwrap().end, 40);
            for w in bands.windows(2) {
                assert_eq!(w[0].end, w[1].start);
                assert!(!w[0].is_empty());
            }
        }
    }

    #[test]
    fn shard_bands_csc_counts_rows_not_columns() {
        let (a, _) = mats(3);
        let a_csc = a.converted(MajorOrder::Col);
        // Same stationary row partition whichever major order carries it.
        assert_eq!(shard_bands(a.view(), 50), shard_bands(a_csc.view(), 50));
    }

    #[test]
    fn shard_bands_grain_one_isolates_nonempty_rows() {
        let (a, _) = mats(4);
        let bands = shard_bands(a.view(), 1);
        for band in &bands {
            // Grain 1 cuts after every row with at least one element.
            let nnz: usize = (band.start..band.end).map(|r| a.view().fiber_len(r)).sum();
            assert!(nnz > 0 || band.end == a.rows());
        }
    }

    #[test]
    fn worker_count_never_changes_reports() {
        let (a, b) = mats(5);
        let run_all = |grain: usize, workers: usize| -> String {
            let mut cfg = AcceleratorConfig::tiny();
            cfg.engine = cfg.engine.sharded(grain, workers);
            Dataflow::ALL
                .iter()
                .map(|&df| {
                    let (c, report) =
                        execute(&cfg, &a, &b, df, &CancelToken::never()).expect("run");
                    format!(
                        "{}{}",
                        serde_json::to_string(&report).unwrap(),
                        serde_json::to_string(&c).unwrap()
                    )
                })
                .collect::<Vec<String>>()
                .join("|")
        };
        for grain in [0usize, 40, 200] {
            let reference = run_all(grain, 1);
            for workers in [2usize, 4, 7] {
                assert_eq!(
                    reference,
                    run_all(grain, workers),
                    "grain {grain} workers {workers}"
                );
            }
        }
    }

    #[test]
    fn sharded_single_band_matches_unsharded() {
        // A grain larger than nnz(A) yields one band; its report must be
        // byte-identical to the grain-0 classic path.
        let (a, b) = mats(6);
        let cfg0 = AcceleratorConfig::tiny();
        let mut cfg1 = AcceleratorConfig::tiny();
        cfg1.engine = cfg1.engine.sharded(1 << 30, 4);
        for df in Dataflow::ALL {
            let (c0, r0) = execute(&cfg0, &a, &b, df, &CancelToken::never()).expect("run");
            let (c1, r1) = execute(&cfg1, &a, &b, df, &CancelToken::never()).expect("run");
            assert_eq!(c0, c1);
            assert_eq!(
                serde_json::to_string(&r0).unwrap(),
                serde_json::to_string(&r1).unwrap()
            );
        }
    }

    #[test]
    fn cancelled_token_stops_every_dataflow() {
        let (a, b) = mats(8);
        let cancelled = CancelToken::manual();
        cancelled.cancel();
        let cfg = AcceleratorConfig::tiny();
        for df in Dataflow::ALL {
            let err = execute(&cfg, &a, &b, df, &cancelled).unwrap_err();
            assert!(matches!(err, CoreError::DeadlineExceeded), "{df}");
        }
        // The sharded multi-band path bails too and leaves nothing behind:
        // a clean run right after a cancelled one on the same accelerator
        // equals a run on a fresh accelerator.
        let mut sharded = AcceleratorConfig::tiny();
        sharded.engine = sharded.engine.sharded(20, 3);
        let accel = Flexagon::new(sharded);
        for df in Dataflow::ALL {
            let req = || ExecutionRequest::new(&a, &b).dataflow(df);
            let err = accel
                .execute(req().cancel_token(cancelled.clone()))
                .unwrap_err();
            assert!(matches!(err, CoreError::DeadlineExceeded), "{df} sharded");
            let after = accel
                .execute(req())
                .expect("clean run after a cancelled one");
            let fresh = Flexagon::new(sharded).execute(req()).unwrap();
            assert_eq!(after.output.c, fresh.output.c, "{df}");
            assert_eq!(
                serde_json::to_string(&after.output.report).unwrap(),
                serde_json::to_string(&fresh.output.report).unwrap(),
                "{df}"
            );
        }
    }

    #[test]
    fn unarmed_and_far_deadline_tokens_are_result_transparent() {
        use std::time::{Duration, Instant};
        let (a, b) = mats(9);
        let mut cfg = AcceleratorConfig::tiny();
        cfg.engine = cfg.engine.sharded(25, 2);
        let far = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        for df in Dataflow::ALL {
            let (c0, r0) = execute(&cfg, &a, &b, df, &CancelToken::never()).unwrap();
            let (c1, r1) = execute(&cfg, &a, &b, df, &far).unwrap();
            assert_eq!(c0, c1, "{df}");
            assert_eq!(
                serde_json::to_string(&r0).unwrap(),
                serde_json::to_string(&r1).unwrap(),
                "{df}"
            );
        }
    }
}
