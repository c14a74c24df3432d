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
//! Every cluster takes one path. Its psums scatter straight into a tiered
//! [`RowAccum`] in stationary order (the merge tree's tie-break order)
//! instead of replaying the comparator tree, and the MRN charges the pass
//! model against the drained length. A split row (longer than the
//! multiplier array) parks each chunk's fiber in a ghost PSRAM chain,
//! which models the buffering, while the engine keeps the fiber itself.
//! The tile plan never starts a split row before the previous one's last
//! chunk, so at most one split row is in flight and one buffer holds its
//! chunk fibers. Its last chunk hands them to
//! [`Engine::merge_row_fibers`], which runs as many MRN passes as the tree
//! radix requires.

use super::{tiling, Engine, Psum};
use flexagon_sim::{bottleneck, Phase};
use flexagon_sparse::{AccumConfig, Fiber, RowAccum};

pub(super) fn run(e: &mut Engine<'_>) {
    let mut row_plan = tiling::RowPlan::default();
    tiling::plan_rows(e.a, e.cfg.multipliers, e.band.clone(), &mut row_plan);
    let (a, b) = (e.a, e.b);
    let mut cluster_acc = RowAccum::new();
    // Chunk fibers of the split row in flight, in chunk order.
    let mut split: Vec<Psum> = Vec::new();

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
        let mut miss_lines = 0u64;
        // `(row, chunks)` of the split row whose last chunk this tile holds.
        let mut completed: Option<(u32, u32)> = None;

        for cl in tile {
            let chunk = cl.chunk_of(a);
            // First pass: cache reads and the cluster's output span — the
            // tier-selection inputs.
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
            // Second pass: scatter the scaled fibers in stationary order —
            // the order the MRN would tie-break on.
            let out = if c_nnz == 0 {
                Fiber::new()
            } else {
                cluster_acc.begin_mode(c_lo, c_hi, c_nnz, &AccumConfig::default(), e.compute_c);
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
            if cl.is_whole_row() {
                e.emit_row(cl.row, Psum::Owned(out));
            } else {
                debug_assert!(
                    cl.chunk > 0 || split.is_empty(),
                    "row {} starts while another split row is in flight",
                    cl.row
                );
                // Partial fiber: ghost-buffered under the chunk index as
                // its tag.
                e.psram
                    .ghost_write(cl.row, cl.chunk, out.len(), &mut e.dram);
                split.push(Psum::Owned(out));
                if cl.is_last_chunk() {
                    completed = Some((cl.row, cl.chunks_total));
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
        // within the multiplying phase"). Every product enters the merge.
        let streaming = bottleneck(&[
            e.dn_cycles(delivered),
            e.mult_cycles(products),
            e.merge_cycles(products),
        ]) + gather_stall
            + e.mrn.fill_latency();
        e.advance_with_dram(Phase::Streaming, streaming);

        // Merging phase: only the split row whose last chunk just finished.
        // Consuming its ghost chains charges the PSRAM read and spill-reload
        // traffic; a chunk whose output was empty left no chain.
        if let Some((row, chunks)) = completed {
            for chunk in 0..chunks {
                e.psram.ghost_consume(row, chunk, &mut e.dram);
            }
            let (merged, merging) = e.merge_row_fibers(std::mem::take(&mut split));
            e.counters.incr("gust.split_rows_merged");
            e.emit_row(row, merged);
            e.advance_with_dram(Phase::Merging, merging);
        }
    }
    debug_assert!(
        e.psram.is_empty() && split.is_empty(),
        "all chunk fibers must be merged when their row completes"
    );
}
