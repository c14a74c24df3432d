//! The Gustavson's(M) phase loop (paper §3.2.3, Fig. 7).
//!
//! Stationary: row fibers of A (CSR) map onto clusters of multipliers.
//! Streaming: each multiplier's stationary element `A[m,k]` pulls B's row
//! `k` (CSR) through the STR cache — the leader-follower intersection whose
//! irregular reuse the cache is sized for. The cluster's scaled fibers
//! merge immediately in the MRN subtree ("we can merge the psums
//! immediately after their generation"), overlapping with multiplication —
//! GAMMA's signature. Rows that fit one cluster emit final fibers straight
//! to DRAM; longer rows buffer per-chunk fibers in the PSRAM and run a
//! short merging phase when their last chunk completes.
//!
//! The in-cluster merge is where the software time went: instead of
//! copying each B row into a scaled scratch fiber and replaying the
//! comparator tree, the cluster's psums scatter straight into a tiered
//! [`RowAccum`](flexagon_sparse::RowAccum) in stationary order (the merge
//! tree's tie-break order), and the MRN charges the identical pass model
//! against the drained length. Split rows collect their per-chunk fibers
//! in sorted-run accumulators, recycled through a free list across the
//! band's tiles, while ghost PSRAM chains model the chunk buffering; rows
//! split into more chunks than one tree pass could merge (beyond the MRN
//! radix) keep the fully materialized legacy path, so multi-pass merge
//! accounting stays exact.

use super::{tiling, Engine, Psum};
use flexagon_sim::{bottleneck, Phase};
use flexagon_sparse::{Fiber, FiberView, RowAccum};

pub(super) fn run(e: &mut Engine<'_>) {
    let band_rows = (e.band.end - e.band.start) as usize;
    let base = e.band.start;
    let mut row_plan = tiling::RowPlan::default();
    tiling::plan_rows(e.a, e.cfg.multipliers, e.band.clone(), &mut row_plan);
    let (a, b) = (e.a, e.b);
    let radix = e.mrn.max_radix() as u32;
    // Split-row run collectors, recycled through `free`; band row -> `pool`
    // index (`u32::MAX` when unassigned). `cluster_acc` is the in-flight
    // cluster's accumulator.
    let mut pool: Vec<RowAccum> = Vec::new();
    let mut free: Vec<u32> = Vec::new();
    let mut accum_of = vec![u32::MAX; band_rows];
    let mut cluster_acc = RowAccum::new();

    for tile in row_plan.tiles() {
        // Tile boundary: a fired token stops before the next tile streams.
        // The early return skips the end-of-run drain asserts below — the
        // band is dropped by `execute`.
        if e.is_cancelled() {
            return;
        }
        e.stationary_phase(tiling::slots_used(tile));

        let mut delivered = 0u64;
        let mut products = 0u64;
        let mut merge_in = 0u64;
        let mut miss_lines = 0u64;
        // Completed rows, tagged with whether they took the accumulator
        // path (true) or the materialized legacy path (false).
        let mut rows_completed: Vec<(u32, bool)> = Vec::new();

        for cl in tile {
            let chunk = a.fiber(cl.row).slice(cl.start, cl.len);
            if cl.chunks_total <= radix {
                // Accumulator path. First pass: cache reads (same access
                // sequence the legacy gather performed) and the cluster's
                // output span — the tier-selection inputs.
                let mut c_lo = u32::MAX;
                let mut c_hi = 0u32;
                let mut c_nnz = 0u64;
                for el in chunk.iter() {
                    let len = b.fiber_len(el.coord) as u64;
                    if len == 0 {
                        continue;
                    }
                    let start = e.b_elem_offset(el.coord);
                    let access = e.cache.read_range(start, len, &mut e.dram);
                    miss_lines += access.misses;
                    delivered += len;
                    let coords = b.fiber(el.coord).coords();
                    c_lo = c_lo.min(coords[0]);
                    c_hi = c_hi.max(coords[coords.len() - 1]);
                    c_nnz += len;
                }
                // Second pass: scatter the scaled fibers in stationary
                // order — the order the MRN would tie-break on.
                let out = if c_nnz == 0 {
                    Fiber::new()
                } else {
                    cluster_acc.begin(c_lo, c_hi, c_nnz, &e.cfg.engine.accum);
                    for el in chunk.iter() {
                        if b.fiber_len(el.coord) > 0 {
                            cluster_acc.scatter_scaled(b.fiber(el.coord), el.value);
                        }
                    }
                    cluster_acc.drain()
                };
                products += c_nnz;
                e.mn.multiply(c_nnz);
                e.mrn.charge_merge(c_nnz, out.len() as u64);
                merge_in += c_nnz;
                if cl.is_whole_row() {
                    e.emit_row(cl.row, out);
                } else {
                    // Partial fiber: ghost-buffer under the chunk index as
                    // its tag, and keep the data as a sorted run.
                    e.psram
                        .ghost_write(cl.row, cl.chunk, out.len(), &mut e.dram);
                    if !out.is_empty() {
                        let r = (cl.row - base) as usize;
                        if accum_of[r] == u32::MAX {
                            let idx = free.pop().unwrap_or_else(|| {
                                pool.push(RowAccum::new());
                                (pool.len() - 1) as u32
                            });
                            pool[idx as usize].begin_runs(&e.cfg.engine.accum);
                            accum_of[r] = idx;
                        }
                        pool[accum_of[r] as usize].push_run(out);
                    }
                    if cl.is_last_chunk() {
                        rows_completed.push((cl.row, true));
                    }
                }
            } else {
                // Legacy materialized path for rows whose chunk count
                // exceeds one merge pass: scaled fibers stage in the
                // engine's reusable pool and the MRN merges views of them.
                let mut used = 0usize;
                for el in chunk.iter() {
                    let len = b.fiber_len(el.coord) as u64;
                    if len == 0 {
                        continue;
                    }
                    let start = e.b_elem_offset(el.coord);
                    let access = e.cache.read_range(start, len, &mut e.dram);
                    miss_lines += access.misses;
                    delivered += len;
                    if e.scaled_pool.len() == used {
                        e.scaled_pool.push(Fiber::new());
                    }
                    e.scaled_pool[used].scale_from(b.fiber(el.coord), el.value);
                    used += 1;
                }
                let cluster_products: u64 =
                    e.scaled_pool[..used].iter().map(|f| f.len() as u64).sum();
                products += cluster_products;
                e.mn.multiply(cluster_products);
                let views: Vec<FiberView<'_>> =
                    e.scaled_pool[..used].iter().map(Fiber::as_view).collect();
                let out = e.mrn.merge_fibers(&views);
                merge_in += cluster_products;
                e.psram.partial_write_fiber_view(
                    cl.row,
                    cl.chunk,
                    out.fiber.as_view(),
                    &mut e.dram,
                );
                if cl.is_last_chunk() {
                    rows_completed.push((cl.row, false));
                }
            }
        }
        e.dn.send_irregular(delivered, delivered);
        // Unlike the sequential streams of IP and OP, Gustavson's B-row
        // gathers are data-dependent (the stationary coordinate selects the
        // fiber), so cache misses serialize against consumption instead of
        // hiding behind it: each batch of outstanding misses exposes one
        // DRAM latency. This is the "irregular and unpredictable memory
        // access pattern" (§3.4) the STR cache is provisioned for, and what
        // degrades the GAMMA-like design when B outgrows the cache (Fig. 13).
        let dram_cfg = e.cfg.memory.dram;
        let gather_stall = miss_lines.div_ceil(dram_cfg.max_outstanding) * dram_cfg.latency_cycles;
        e.counters.add("gust.gather_stall_cycles", gather_stall);
        // Multiplication and in-cluster merging overlap: the tile is bound
        // by the slowest of delivery, multiply throughput and merge
        // bandwidth (GAMMA computes "the merging phase ... in parallel
        // within the multiplying phase").
        let streaming = bottleneck(&[
            e.dn_cycles(delivered),
            e.mult_cycles(products),
            e.merge_cycles(merge_in),
        ]) + gather_stall
            + e.mrn.fill_latency();
        e.advance_with_dram(Phase::Streaming, streaming);

        // Merging phase: only rows whose last chunk just finished.
        if !rows_completed.is_empty() {
            let mut merging = 0;
            for (row, via_accum) in rows_completed {
                let (fiber, cycles) = if via_accum {
                    // Consume the ghost chunk chains (PSRAM read and
                    // reload traffic), drain the collected runs, charge
                    // the single merge pass.
                    let mut inputs = 0u64;
                    let mut nonempty = 0usize;
                    for chunk in e.psram.fiber_tags_of_row(row) {
                        let len = e.psram.ghost_consume(row, chunk, &mut e.dram);
                        inputs += len;
                        if len > 0 {
                            nonempty += 1;
                        }
                    }
                    let r = (row - base) as usize;
                    let fiber = match accum_of[r] {
                        u32::MAX => Fiber::default(),
                        idx => {
                            accum_of[r] = u32::MAX;
                            free.push(idx);
                            pool[idx as usize].drain()
                        }
                    };
                    let cycles = e.charge_row_merge(nonempty, inputs, fiber.len() as u64);
                    (fiber, cycles)
                } else {
                    let chunks = e.psram.fiber_tags_of_row(row);
                    let sources = chunks
                        .into_iter()
                        .map(|chunk| Psum::Owned(e.psram.consume_fiber(row, chunk, &mut e.dram)))
                        .collect();
                    e.merge_row_fibers(sources)
                };
                merging += cycles;
                e.counters.incr("gust.split_rows_merged");
                e.emit_row(row, fiber);
            }
            e.advance_with_dram(Phase::Merging, merging);
        }
    }
    debug_assert!(
        e.psram.is_empty(),
        "all chunk fibers must be merged when their row completes"
    );
    debug_assert!(
        accum_of.iter().all(|&idx| idx == u32::MAX),
        "every split row must drain at its last chunk"
    );
}
