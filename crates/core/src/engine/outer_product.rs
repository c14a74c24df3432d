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
//! cycles and comparator counts. The *software* materializes only what it
//! must. A row's partial (one tile's psum contribution to it) that a
//! single nonempty B row feeds stays a [`Psum::Scaled`] view `(k, aval)`
//! until the row is emitted or finally merged. Only rows fed by two or
//! more B rows arm a tiered [`RowAccum`](flexagon_sparse::RowAccum), which
//! takes the scaled B rows in ascending-k order — the merge tree's own
//! tie-break order — so the drained fiber is bit-identical to the k-way
//! merge. The merging phase walks the tile's own `(row, k)` writes, sorted
//! by row, to consume the ghost chains. The per-band plan (tiles feeding
//! each row) and the DRAM-resident partials live in flat band-row-indexed
//! arrays.

use super::{tiling, Engine, Psum};
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
    // Accumulators of the current tile's multi-source rows; band row ->
    // `pool` index (`u32::MAX` when the row has none).
    let mut pool: Vec<RowAccum> = Vec::new();
    let mut accum_of = vec![u32::MAX; band_rows];
    // Per band row: tiles still owing psums, and the partials parked in
    // DRAM until the last of them.
    let mut tiles_left = vec![0u32; band_rows];
    let mut pending: Vec<Vec<Psum>> = (0..band_rows).map(|_| Vec::new()).collect();
    // The current tile's psum writes `(row, k, aval)`, sorted by row, then k.
    let mut writes: Vec<(u32, u32, Value)> = Vec::new();

    // Flat tile-indexed plan, computed once per band: how many tiles
    // contribute psums to each output row. A per-row tile stamp counts each
    // (tile, row) pair exactly once without hashing.
    let mut stamp = vec![u32::MAX; band_rows];
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

    for tile in col_plan.tiles() {
        // Tile boundary: a fired token stops before the next tile streams.
        if e.is_cancelled() {
            return;
        }
        writes.clear();
        for (k, targets) in tile.groups() {
            writes.extend(targets.iter().map(|&(row, aval)| (row, k, aval)));
        }
        writes.sort_unstable_by_key(|&(row, k, _)| (row, k));
        // Arm an accumulator for every row fed by two or more nonempty B
        // rows, over the coordinate span and element count of its incoming
        // psums — the tier-selection inputs.
        let mut armed = 0usize;
        for run in writes.chunk_by(|x, y| x.0 == y.0) {
            let (mut lo, mut hi, mut nnz, mut sources) = (u32::MAX, 0u32, 0u64, 0u32);
            for &(_, k, _) in run {
                let coords = b.fiber(k).coords();
                if let (Some(&first), Some(&last)) = (coords.first(), coords.last()) {
                    lo = lo.min(first);
                    hi = hi.max(last);
                    nnz += coords.len() as u64;
                    sources += 1;
                }
            }
            if sources >= 2 {
                if pool.len() == armed {
                    pool.push(RowAccum::new());
                }
                pool[armed].begin(lo, hi, nnz, &e.cfg.engine.accum);
                accum_of[(run[0].0 - base) as usize] = armed as u32;
                armed += 1;
            }
        }

        e.stationary_phase(tile.slots_used());

        // Streaming phase: one multicast of B's row k per group; the ghost
        // PSRAM models every multiplier's psum buffering, and a scaled
        // fiber scatters only into a multi-source row's accumulator.
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
                let idx = accum_of[(row - base) as usize];
                if idx != u32::MAX {
                    pool[idx as usize].scatter_scaled(fiber, aval);
                }
            }
            // Cache scan, multipliers and PSRAM write ports run concurrently.
            streaming += bottleneck(&[e.dn_cycles(len), mult, e.merge_cycles(products)]);
        }
        e.advance_with_dram(Phase::Streaming, streaming);

        // Merging phase: proceed row by row (paper: "the merging phase
        // proceeds row by row"). Consuming the ghost chains charges the
        // PSRAM read and spill-reload traffic; the merged partial is the
        // lone scaled B row or the accumulator's drain.
        let mut merging = e.mrn.fill_latency();
        for run in writes.chunk_by(|x, y| x.0 == y.0) {
            let row = run[0].0;
            let r = (row - base) as usize;
            let mut inputs = 0u64;
            let mut nonempty = 0usize;
            let mut lone = None;
            for &(_, k, aval) in run {
                if b.fiber_len(k) > 0 {
                    inputs += e.psram.ghost_consume(row, k, &mut e.dram);
                    nonempty += 1;
                    lone = Some(Psum::Scaled(k, aval));
                }
            }
            let partial = match accum_of[r] {
                u32::MAX => lone,
                idx => {
                    accum_of[r] = u32::MAX;
                    Some(Psum::Owned(pool[idx as usize].drain()))
                }
            };
            let out_len = partial.as_ref().map_or(0, |p| p.len(b)) as u64;
            merging += e.charge_row_merge(nonempty, inputs, out_len);
            debug_assert!(tiles_left[r] > 0, "row appears in its own tile count");
            tiles_left[r] -= 1;
            if tiles_left[r] == 0 {
                let mut parts = std::mem::take(&mut pending[r]);
                if parts.is_empty() {
                    e.emit_row(row, partial.map_or_else(Fiber::new, |p| p.into_fiber(b)));
                } else {
                    // Reload the DRAM-resident partials and run the final
                    // cross-tile merge.
                    for p in &parts {
                        e.dram.read(p.len(b) as u64 * ELEMENT_BYTES);
                    }
                    e.counters
                        .add("op.partial_fibers_reloaded", parts.len() as u64);
                    parts.extend(partial);
                    let (merged, cycles) = e.merge_row_fibers(parts);
                    merging += cycles;
                    e.emit_row(row, merged);
                }
            } else if let Some(p) = partial {
                // More tiles will contribute: ship the partial out.
                e.dram.write(out_len * ELEMENT_BYTES);
                e.counters.add("op.partial_fiber_elements_to_dram", out_len);
                pending[r].push(p);
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
