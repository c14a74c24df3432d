//! The Inner-Product(M) phase loop (paper §3.2.1, Fig. 5).
//!
//! Stationary: as many row fibers of A (CSR) as possible map onto the
//! multipliers, forming clusters that each compute dot products for one
//! output row. Streaming: every column fiber of B (CSC) is examined by the
//! controller, which sends only intersecting elements into the distribution
//! network ("the controller uses the row coordinate of each element in the
//! fiber of B to detect whether it intersects"); the MRN reduces each
//! cluster's products into a full sum. No partial sums ever reach the
//! PSRAM — rows longer than the array accumulate temporally in the
//! cluster's output register across consecutive tiles, which is why the
//! SIGMA-like bars of Fig. 14 show zero psum traffic while paying a full
//! re-stream of B per tile.
//!
//! The *hardware* re-streams B once per tile and that is what the cycle and
//! traffic accounting charges, identically in every path below. The
//! *software* simulates that re-stream without re-reading all of B:
//!
//! * Every tile sends the same access sequence through the STR cache (each
//!   nonempty fiber of B once, ascending), so the cache model probes only
//!   until one pass leaves its tags as it found them, and replays that
//!   steady pass's totals for every later tile of the band
//!   ([`StrCache::stream_pass`](flexagon_mem::StrCache::stream_pass)).
//! * `run_indexed` (taken when K is large relative to the array) walks a
//!   k-indexed copy of B — only the rows matching the tile's stationary
//!   coordinates are touched, the Gamma-style schedule — at
//!   `O(Σ_{k∈tile} nnz(B_row_k))` per tile instead of `O(nnz(B))`.
//! * `run_streaming` keeps the scan shape but lets each fiber pick its
//!   short side: scan the fiber against the tile's bit mask, or probe the
//!   fiber's tiered [`MatrixIndex`](flexagon_sparse::MatrixIndex) with the
//!   tile's sorted stationary coordinates through a skip-ahead
//!   [`Prober`](flexagon_sparse::Prober).
//!
//! The strategy choice and its precomputation (`B` re-majored by k, or the
//! tiered index) are hoisted to the execution level ([`super::IpShared`])
//! so every band of a sharded run shares one copy.
//!
//! Every path visits the matches of a given (cluster, streaming fiber) pair
//! in ascending k, so each accumulator register receives its additions in
//! the exact order of the original scan and execution reports stay
//! bit-identical across strategies. Each tile loop allocates its scratch
//! once per band and keeps it clean across the band's tiles.

use super::{tiling, Engine, IpShared};
use flexagon_mem::PassMemo;
use flexagon_sim::{bottleneck, Phase};
use flexagon_sparse::{CompressedMatrix, Element, Fiber, MatrixIndex, MatrixView, Value};

/// Cross-tile accumulator for rows split into chunks, one N-wide register
/// file with a hit mask.
///
/// The planner gives a split row's first chunk a tile of its own and its
/// chunks consecutive tiles, so at most one split row is open at a time.
/// Its dot products fold `0.0 + chunk0 + chunk1 …` per column in tile
/// order, and the tile holding its last chunk closes it into a sorted
/// fiber. Rows close in ascending order.
struct SplitAcc {
    /// The row accumulating, once one of its dot products has landed.
    open: Option<u32>,
    acc: Vec<Value>,
    hit: Vec<u64>,
    /// Closed rows with their fibers, in row order.
    closed: Vec<(u32, Fiber)>,
}

impl SplitAcc {
    fn new(n_dim: usize) -> Self {
        Self {
            open: None,
            acc: vec![0.0; n_dim],
            hit: vec![0; n_dim.div_ceil(64)],
            closed: Vec::new(),
        }
    }

    fn add(&mut self, row: u32, n: u32, value: Value) {
        assert_eq!(*self.open.get_or_insert(row), row, "two split rows open");
        let n = n as usize;
        self.hit[n >> 6] |= 1u64 << (n & 63);
        self.acc[n] += value;
    }

    /// Closes `tile`'s split row if the tile holds its last chunk.
    fn close_after(&mut self, tile: &[tiling::Cluster]) {
        let Some(cl) = tile.iter().find(|c| !c.is_whole_row()) else {
            return;
        };
        if !cl.is_last_chunk() || self.open != Some(cl.row) {
            return; // more chunks to come, or no dot product landed
        }
        self.open = None;
        let mut fiber = Fiber::new();
        for (w, word) in self.hit.iter_mut().enumerate() {
            while *word != 0 {
                let n = w * 64 + word.trailing_zeros() as usize;
                *word &= *word - 1;
                fiber.push(Element::new(n as u32, self.acc[n]));
                self.acc[n] = 0.0;
            }
        }
        self.closed.push((cl.row, fiber));
    }
}

pub(super) fn run(e: &mut Engine<'_>, shared: &IpShared) {
    let mut plan = tiling::RowPlan::default();
    tiling::plan_rows(e.a, e.cfg.multipliers, e.band.clone(), &mut plan);
    let mut split_acc = SplitAcc::new(e.b.major_dim() as usize);
    match shared {
        IpShared::Indexed(b_by_k) => run_indexed(e, &plan, b_by_k, &mut split_acc),
        IpShared::Streaming(b_index) => run_streaming(e, &plan, b_index, &mut split_acc),
    }
    // A cancelled tile loop leaves nothing worth assembling: the band is
    // dropped wholesale by `execute`.
    if e.is_cancelled() {
        return;
    }

    // Store rows that accumulated across tiles. Their elements were held
    // in the cluster output registers, so only the final store is charged.
    let mut split_elems = 0u64;
    for (row, fiber) in split_acc.closed {
        split_elems += fiber.len() as u64;
        e.emit_row(row, fiber);
    }
    if split_elems > 0 {
        e.counters.add("ip.split_row_elements", split_elems);
        let drain = e.merge_cycles(split_elems);
        e.advance_with_dram(Phase::Streaming, drain);
    }
}

/// Fills `k_entries` with the tile's stationary coordinates — `k` maps to
/// the `(cluster, stationary value)` pairs holding it — and `touched_k` with
/// the distinct ks in ascending order. Shared by both tile loops: their
/// accumulation inputs must be built identically for reports to stay
/// bit-identical across paths.
fn index_tile(
    a: MatrixView<'_>,
    tile: &[tiling::Cluster],
    k_entries: &mut [Vec<(u32, Value)>],
    touched_k: &mut Vec<u32>,
) {
    touched_k.clear();
    for (ci, cl) in tile.iter().enumerate() {
        for el in cl.chunk_of(a).iter() {
            let slot = &mut k_entries[el.coord as usize];
            if slot.is_empty() {
                touched_k.push(el.coord);
            }
            slot.push((ci as u32, el.value));
        }
    }
    // Ascending order is what the prober's skip-ahead cursor needs, and it
    // reproduces the accumulation order of a plain fiber scan.
    touched_k.sort_unstable();
}

/// Streams the whole of B past one tile through the STR cache: every
/// nonempty fiber once, in ascending order. `memo` is the band's, so the
/// band's later tiles replay its steady pass.
fn stream_b(e: &mut Engine<'_>, memo: &mut PassMemo) {
    let ranges = e.b.ptr().windows(2).filter_map(|w| {
        let len = (w[1] - w[0]) as u64;
        (len > 0).then_some((w[0] as u64, len))
    });
    e.cache.stream_pass(ranges, &mut e.dram, memo);
}

/// Records `value` as cluster `cl`'s finished dot product for column `n`.
#[inline]
fn emit_dot(
    e: &mut Engine<'_>,
    cl: &tiling::Cluster,
    n: u32,
    value: Value,
    final_elems: &mut u64,
    split_acc: &mut SplitAcc,
) {
    if cl.is_whole_row() {
        let idx = e.band_idx(cl.row);
        e.out_fibers[idx].push(Element::new(n, value));
        *final_elems += 1;
    } else {
        split_acc.add(cl.row, n, value);
    }
}

/// The k-indexed tile loop: probe B through its row index, touching only the
/// rows the tile holds stationary.
fn run_indexed(
    e: &mut Engine<'_>,
    plan: &tiling::RowPlan,
    b_by_k: &CompressedMatrix,
    split_acc: &mut SplitAcc,
) {
    let (a, b) = (e.a, e.b);
    let n_dim = b.major_dim() as usize;
    let n_words = n_dim.div_ceil(64);
    let slots = e.cfg.multipliers as usize;
    // k -> entries table, cleared by the tile that filled it; the dense
    // `clusters x N` accumulator grid and its hit bits, swept clean by the
    // emission pass; per-column tallies, reset by the accounting sweep.
    let mut k_entries = vec![Vec::new(); a.cols() as usize];
    let mut touched_k = Vec::new();
    let mut acc: Vec<Value> = vec![0.0; slots * n_dim];
    let mut hit = vec![0u64; slots * n_words];
    let mut injected_n = vec![0u32; n_dim];
    let mut delivered_n = vec![0u64; n_dim];
    let mut memo = PassMemo::default();

    for tile in plan.tiles() {
        // Tile boundary: a fired token stops before the next tile streams.
        if e.is_cancelled() {
            return;
        }
        e.stationary_phase(tiling::slots_used(tile));
        stream_b(e, &mut memo);

        index_tile(a, tile, &mut k_entries, &mut touched_k);

        // Intersection phase: only the stationary ks' rows of B are read.
        for &k in touched_k.iter() {
            let row = b_by_k.fiber(k);
            let entries = &k_entries[k as usize];
            for (&n, &bval) in row.coords().iter().zip(row.values()) {
                let n = n as usize;
                injected_n[n] += 1;
                delivered_n[n] += entries.len() as u64;
                for &(ci, aval) in entries {
                    let ci = ci as usize;
                    hit[ci * n_words + (n >> 6)] |= 1u64 << (n & 63);
                    acc[ci * n_dim + n] += aval * bval;
                }
            }
        }

        // Accounting + emission sweep in ascending n — the same per-fiber
        // sequence of network charges and output pushes the streaming scan
        // produces.
        let mut streaming = 0u64;
        let mut injected_tile = 0u64;
        let mut delivered_tile = 0u64;
        let mut final_elems = 0u64;
        for n in 0..n_dim {
            let len = b.fiber_len(n as u32) as u64;
            if len == 0 {
                continue;
            }
            let injected = u64::from(injected_n[n]);
            let intersections = delivered_n[n];
            injected_n[n] = 0;
            delivered_n[n] = 0;
            injected_tile += injected;
            delivered_tile += intersections;
            let mult = e.mn.multiply(intersections);
            e.mrn.reduce(intersections);
            streaming += bottleneck(&[e.dn_cycles(len), mult]);
            if injected > 0 {
                let (word, bit) = (n >> 6, 1u64 << (n & 63));
                for (ci, cl) in tile.iter().enumerate() {
                    let w = &mut hit[ci * n_words + word];
                    if *w & bit == 0 {
                        continue;
                    }
                    *w &= !bit;
                    let slot = ci * n_dim + n;
                    let value = acc[slot];
                    acc[slot] = 0.0;
                    emit_dot(e, cl, n as u32, value, &mut final_elems, split_acc);
                }
            }
        }
        split_acc.close_after(tile);
        e.dn.send_irregular(injected_tile, delivered_tile.max(injected_tile));
        streaming += e.mrn.fill_latency();
        e.wbuf.write(final_elems, &mut e.dram);
        e.advance_with_dram(Phase::Streaming, streaming);

        for &k in touched_k.iter() {
            k_entries[k as usize].clear();
        }
    }
}

/// The streaming tile loop: every fiber of B flows past each tile, and each
/// fiber is intersected from its cheaper side.
fn run_streaming(
    e: &mut Engine<'_>,
    plan: &tiling::RowPlan,
    b_index: &MatrixIndex,
    split_acc: &mut SplitAcc,
) {
    let (a, b) = (e.a, e.b);
    let probe_gate_factor = e.cfg.engine.probe_gate_factor;
    let k_dim = a.cols() as usize;
    let slots = e.cfg.multipliers as usize;
    // k -> entries table and one-bit-per-k mask, both cleared by the tile
    // that filled them; per-cluster dot accumulators and hit flags, reset
    // as each column's dot products are emitted.
    let mut k_entries = vec![Vec::new(); k_dim];
    let mut k_mask = vec![0u64; k_dim.div_ceil(64)];
    let mut touched_k = Vec::new();
    let mut acc: Vec<Value> = vec![0.0; slots];
    let mut hit = vec![false; slots];
    let mut hit_list: Vec<u32> = Vec::new();
    let mut memo = PassMemo::default();

    for tile in plan.tiles() {
        // Tile boundary: a fired token stops before the next tile streams.
        if e.is_cancelled() {
            return;
        }
        e.stationary_phase(tiling::slots_used(tile));
        stream_b(e, &mut memo);

        // Index this tile's stationary coordinates and set the scan mask.
        index_tile(a, tile, &mut k_entries, &mut touched_k);
        for &k in touched_k.iter() {
            k_mask[(k >> 6) as usize] |= 1u64 << (k & 63);
        }
        let (tile_lo, tile_hi) = match (touched_k.first(), touched_k.last()) {
            (Some(&lo), Some(&hi)) => (lo, hi),
            _ => (1, 0), // empty tile: probes find nothing either way
        };

        // Streaming phase: the whole of B flows past this tile once.
        let mut streaming = 0u64;
        let mut injected_tile = 0u64;
        let mut delivered_tile = 0u64;
        let mut final_elems = 0u64;
        for n in 0..b.major_dim() {
            let len = b.fiber_len(n) as u64;
            if len == 0 {
                continue;
            }
            let mut intersections = 0u64;
            let mut injected = 0u64;
            let fiber = b.fiber(n);
            let (coords, vals) = (fiber.coords(), fiber.values());
            let overlaps = coords[coords.len() - 1] >= tile_lo && coords[0] <= tile_hi;
            let probe_wins = touched_k.len() * probe_gate_factor <= coords.len();
            if !overlaps {
                // Disjoint coordinate ranges: nothing can intersect. The
                // fiber still streams past (charged below), but no scan or
                // probe work is spent on it.
            } else if probe_wins {
                // The tile's stationary list is much the shorter side: probe
                // the fiber's index with it instead of re-scanning the fiber.
                let mut prober = b_index.fiber(n).prober(fiber);
                for &c in touched_k.iter() {
                    let Some((_, bval)) = prober.probe(c) else {
                        continue;
                    };
                    let entries = &k_entries[c as usize];
                    injected += 1;
                    intersections += entries.len() as u64;
                    for &(ci, aval) in entries {
                        let ci = ci as usize;
                        if !hit[ci] {
                            hit[ci] = true;
                            hit_list.push(ci as u32);
                        }
                        acc[ci] += aval * bval;
                    }
                }
            } else {
                // Scan the fiber and test membership against the tile mask.
                for (i, &c) in coords.iter().enumerate() {
                    if k_mask[(c >> 6) as usize] & (1u64 << (c & 63)) == 0 {
                        continue;
                    }
                    let entries = &k_entries[c as usize];
                    injected += 1;
                    intersections += entries.len() as u64;
                    for &(ci, aval) in entries {
                        let ci = ci as usize;
                        if !hit[ci] {
                            hit[ci] = true;
                            hit_list.push(ci as u32);
                        }
                        acc[ci] += aval * vals[i];
                    }
                }
            }
            injected_tile += injected;
            delivered_tile += intersections;
            let mult = e.mn.multiply(intersections);
            e.mrn.reduce(intersections);
            // Controller scans the fiber from the cache at DN rate; the
            // multipliers and the reduction tree run concurrently.
            streaming += bottleneck(&[e.dn_cycles(len), mult]);
            // Emit completed dot products for this column.
            for &ci in hit_list.iter() {
                let cl = &tile[ci as usize];
                let value = acc[ci as usize];
                emit_dot(e, cl, n, value, &mut final_elems, split_acc);
                acc[ci as usize] = 0.0;
                hit[ci as usize] = false;
            }
            hit_list.clear();
        }
        split_acc.close_after(tile);
        e.dn.send_irregular(injected_tile, delivered_tile.max(injected_tile));
        streaming += e.mrn.fill_latency();
        e.wbuf.write(final_elems, &mut e.dram);
        e.advance_with_dram(Phase::Streaming, streaming);

        for &k in touched_k.iter() {
            k_entries[k as usize].clear();
            k_mask[(k >> 6) as usize] = 0;
        }
    }
}
