//! The Outer-Product(M) phase loop (paper §3.2.2, Fig. 6).
//!
//! Stationary: individual elements of A (CSC, column-major order) occupy
//! the multipliers. Streaming: each distinct k's B row (CSR) is multicast
//! to every multiplier holding an element of A's column k; each multiplier
//! emits a psum fiber `(row m, iteration k)` into the PSRAM. Merging: row
//! by row, the k-tagged fibers are consumed from the PSRAM and merged
//! through the tree; rows that will receive psums from later tiles ship a
//! partial fiber to DRAM and are finally merged when their last tile
//! completes — the off-chip psum traffic that characterizes Outer-Product
//! designs like SpArch.
//!
//! The *hardware* model is unchanged: ghost PSRAM chains reproduce the
//! exact block allocation, spill traffic and consume traffic of the
//! k-tagged psum fibers, and the merge network charges the same pass
//! cycles and comparator counts. The *software* no longer materializes or
//! re-merges those fibers: each scaled B row scatters straight into a
//! tiered per-row [`RowAccum`](flexagon_sparse::RowAccum) in ascending-k
//! order — the merge tree's own tie-break order — so the drained fiber is
//! bit-identical to the k-way merge at a fraction of the cost. The
//! per-band plan (tiles feeding each row, per-tile output spans) lives in
//! flat band-row-indexed arrays, and the row accumulators recycle through
//! a free list across the band's tiles.

use super::{tiling, Engine};
use flexagon_sim::{bottleneck, Phase};
use flexagon_sparse::{Fiber, RowAccum, Value, ELEMENT_BYTES};

/// `elements` carries this band's pre-bucketed `(k, row, value)` triples
/// when the execution is multi-band (one bucketing pass at the execute
/// level replaces per-band full scans of A); `None` plans from the operand
/// directly — the identical plan, as the tiling tests pin.
pub(super) fn run(e: &mut Engine<'_>, elements: Option<&[(u32, u32, Value)]>) {
    let band_rows = (e.band.end - e.band.start) as usize;
    let base = e.band.start;
    let mut col_plan = tiling::ColPlan::default();
    match elements {
        Some(els) => tiling::plan_cols_from_elements(els, e.cfg.multipliers, &mut col_plan),
        None => tiling::plan_cols(e.a, e.cfg.multipliers, e.band.clone(), &mut col_plan),
    }
    let b = e.b;
    // Per-row accumulators, recycled through `free`; band row -> `pool`
    // index (`u32::MAX` when unassigned).
    let mut pool: Vec<RowAccum> = Vec::new();
    let mut free: Vec<u32> = Vec::new();
    let mut accum_of = vec![u32::MAX; band_rows];
    // Per band row: last tile stamp (deduplicates `(tile, row)` pairs),
    // tiles still owing psums, the incoming-psum span and element count of
    // the current tile, and the DRAM-resident partial fibers.
    let mut stamp = vec![u32::MAX; band_rows];
    let mut tiles_left = vec![0u32; band_rows];
    let mut lo = vec![0u32; band_rows];
    let mut hi = vec![0u32; band_rows];
    let mut nnz = vec![0u64; band_rows];
    let mut pending: Vec<Vec<Fiber>> = vec![Vec::new(); band_rows];
    // Rows the current tile feeds.
    let mut touched: Vec<u32> = Vec::new();

    // Flat tile-indexed plan, computed once per band: how many tiles
    // contribute psums to each output row. A per-row tile stamp counts each
    // (tile, row) pair exactly once without hashing.
    for (ti, tile) in col_plan.tiles().enumerate() {
        for (_, targets) in tile.groups() {
            for &(row, _) in targets {
                let r = (row - base) as usize;
                if stamp[r] != ti as u32 {
                    stamp[r] = ti as u32;
                    tiles_left[r] += 1;
                }
            }
        }
    }
    for s in stamp.iter_mut() {
        *s = u32::MAX;
    }

    for (ti, tile) in col_plan.tiles().enumerate() {
        // Tile boundary: a fired token stops before the next tile streams.
        if e.is_cancelled() {
            return;
        }
        // Span pass: which rows this tile feeds, and the coordinate span and
        // element count of each row's incoming psums — the accumulator
        // tier-selection inputs.
        touched.clear();
        for (k, targets) in tile.groups() {
            let len = b.fiber_len(k) as u64;
            let (f_lo, f_hi) = if len > 0 {
                let coords = b.fiber(k).coords();
                (coords[0], coords[coords.len() - 1])
            } else {
                (0, 0)
            };
            for &(row, _) in targets {
                let r = (row - base) as usize;
                if stamp[r] != ti as u32 {
                    stamp[r] = ti as u32;
                    touched.push(row);
                    lo[r] = u32::MAX;
                    hi[r] = 0;
                    nnz[r] = 0;
                }
                if len > 0 {
                    lo[r] = lo[r].min(f_lo);
                    hi[r] = hi[r].max(f_hi);
                    nnz[r] += len;
                }
            }
        }
        touched.sort_unstable();
        for &row in touched.iter() {
            let r = (row - base) as usize;
            if nnz[r] == 0 {
                continue;
            }
            let idx = free.pop().unwrap_or_else(|| {
                pool.push(RowAccum::new());
                (pool.len() - 1) as u32
            });
            pool[idx as usize].begin(lo[r], hi[r], nnz[r], &e.cfg.engine.accum);
            accum_of[r] = idx;
        }

        e.stationary_phase(tile.slots_used());

        // Streaming phase: one multicast of B's row k per group; every
        // multiplier's scaled fiber scatters into its row accumulator while
        // the ghost PSRAM models the psum buffering.
        let mut streaming = 0u64;
        for (k, targets) in tile.groups() {
            let len = b.fiber_len(k) as u64;
            if len == 0 {
                continue;
            }
            let start = e.b_elem_offset(k);
            e.cache.read_range(start, len, &mut e.dram);
            let fanout = targets.len() as u64;
            let products = len * fanout;
            e.dn.send_irregular(len, products);
            let mult = e.mn.multiply(products);
            let fiber = b.fiber(k);
            for &(row, aval) in targets {
                e.psram.ghost_write(row, k, len as usize, &mut e.dram);
                pool[accum_of[(row - base) as usize] as usize].scatter_scaled(fiber, aval);
            }
            // Cache scan, multipliers and PSRAM write ports run concurrently.
            streaming += bottleneck(&[e.dn_cycles(len), mult, e.merge_cycles(products)]);
        }
        e.advance_with_dram(Phase::Streaming, streaming);

        // Merging phase: proceed row by row (paper: "the merging phase
        // proceeds row by row"). Consuming the ghost chains charges the
        // PSRAM read and spill-reload traffic; the merged fiber itself
        // drains from the accumulator.
        let mut merging = e.mrn.fill_latency();
        for &row in touched.iter() {
            let r = (row - base) as usize;
            let mut inputs = 0u64;
            let mut nonempty = 0usize;
            for k in e.psram.fiber_tags_of_row(row) {
                let len = e.psram.ghost_consume(row, k, &mut e.dram);
                inputs += len;
                if len > 0 {
                    nonempty += 1;
                }
            }
            let fiber = match accum_of[r] {
                u32::MAX => Fiber::new(),
                idx => {
                    accum_of[r] = u32::MAX;
                    free.push(idx);
                    pool[idx as usize].drain()
                }
            };
            merging += e.charge_row_merge(nonempty, inputs, fiber.len() as u64);
            debug_assert!(tiles_left[r] > 0, "row appears in its own tile count");
            tiles_left[r] -= 1;
            if tiles_left[r] == 0 {
                let parts = std::mem::take(&mut pending[r]);
                if parts.is_empty() {
                    e.emit_row(row, fiber);
                } else {
                    // Reload the DRAM-resident partial fibers and run the
                    // final cross-tile merge.
                    for p in &parts {
                        e.dram.read(p.len() as u64 * ELEMENT_BYTES);
                    }
                    e.counters
                        .add("op.partial_fibers_reloaded", parts.len() as u64);
                    let mut extra = parts;
                    extra.push(fiber);
                    let (merged, cycles) = e.merge_row_fibers(row, extra);
                    merging += cycles;
                    e.emit_row(row, merged);
                }
            } else if !fiber.is_empty() {
                // More tiles will contribute: ship the partial fiber out.
                e.dram.write(fiber.len() as u64 * ELEMENT_BYTES);
                e.counters
                    .add("op.partial_fiber_elements_to_dram", fiber.len() as u64);
                pending[r].push(fiber);
            }
        }
        e.advance_with_dram(Phase::Merging, merging);
    }
    debug_assert!(
        e.psram.is_empty(),
        "all psum fibers must be consumed by the merging phases"
    );
    debug_assert!(
        pending.iter().all(Vec::is_empty),
        "every pending row must be finalized"
    );
}
