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
//! The *hardware* re-streams B once per tile, and that is what the cycle
//! and traffic accounting charges. A column `n` of length `len_n > 0` costs
//! the tile `bottleneck(dn_cycles(len_n), mn.multiply(x_n))`, where `x_n`
//! is the number of products landing in column `n`. Each stationary element
//! meets column `n` at most once, so `x_n` is at most the tile's occupied
//! slots, at most `multipliers`: the multiply term is 0 or 1 cycle and
//! never exceeds `dn_cycles(len_n) ≥ 1`. A tile therefore streams for
//! `S_B + fill_latency` cycles, where `S_B = Σ_{len_n > 0} ceil(len_n /
//! dn_bandwidth)` is one number per execution ([`Stream`]), and its
//! counters follow from the tile's totals: `Σ x_n` multiplications and
//! reduced products, and `Σ x_n − #{n : x_n ≥ 1}` additions.
//!
//! The *software* simulates that re-stream with work that follows the
//! tile's products, not B's dimensions:
//!
//! * Every tile sends the same access sequence through the STR cache (each
//!   nonempty fiber of B once, ascending), so the cache model probes only
//!   until one pass leaves its tags as it found them, and replays that
//!   steady pass's totals for every later tile of the band
//!   ([`StrCache::stream_pass`](flexagon_mem::StrCache::stream_pass)).
//! * The intersection walks B k-major, shared by every band: only the rows
//!   matching the tile's stationary coordinates are touched, the
//!   Gamma-style schedule, at `O(Σ_{k∈tile} nnz(B_row_k))` per tile
//!   instead of `O(nnz(B))`. For each touched k, ascending, each stationary
//!   entry holding k scatters B's row k into its own cluster's row of a
//!   dense `clusters x columns` register grid with hit bits.
//! * The grid is bounded by [`ACC_GRID_ELEMENTS`]: the tile loop sweeps N
//!   in windows of `ACC_GRID_ELEMENTS / multipliers` columns, each touched
//!   k keeping a cursor into its row of B. A window that received no
//!   product is skipped; otherwise `#{n : x_n ≥ 1}` is the popcount of the
//!   OR of the clusters' hit words, and each cluster drains its hit words
//!   in ascending n.
//!
//! A cluster holds each k at most once, so each (cluster, column) register
//! receives its additions in ascending k, the order of a fiber
//! co-iteration, and every output row receives its columns in ascending n,
//! window after window, so reports and outputs do not depend on the window
//! width. The loop allocates its scratch once per band and keeps it clean
//! across the band's tiles.
//!
//! A run without C compiles its own copy of the tile loop, which keeps the
//! grid's hit words and no register: a whole row's dots are counted, not
//! pushed, and a split row keeps only its hit mask.

use super::{tiling, Engine, Psum};
use flexagon_mem::PassMemo;
use flexagon_sim::{cycles_for, Cycle, Phase};
use flexagon_sparse::{Element, Fiber, MatrixView, Value};

/// The streaming operand as Inner Product reads it, prepared once per
/// execution and shared by every band.
pub(super) struct Stream<'a> {
    /// The operand k-major: row k holds B's elements `(n, value)` in
    /// ascending n (under IP(N), A's column k).
    by_k: MatrixView<'a>,
    /// `(first element, length)` of every nonempty fiber of B in Table 3's
    /// CSC, in ascending n: the STR cache's address space.
    fibers: Vec<(u64, u64)>,
    /// `S_B`: the cycles the controller takes to scan all of B at DN rate.
    scan_cycles: Cycle,
}

impl<'a> Stream<'a> {
    /// Lays out `by_k`'s CSC fibers with one counting pass over its
    /// coordinates, without converting it.
    pub(super) fn new(by_k: MatrixView<'a>, dn_bandwidth: u64) -> Self {
        let mut lens = vec![0u32; by_k.cols() as usize];
        for &n in by_k.coords() {
            lens[n as usize] += 1;
        }
        let (mut first, mut scan_cycles) = (0u64, 0);
        let mut fibers = Vec::new();
        for len in lens.into_iter().map(u64::from) {
            if len > 0 {
                fibers.push((first, len));
                scan_cycles += cycles_for(len, dn_bandwidth);
            }
            first += len;
        }
        Self {
            by_k,
            fibers,
            scan_cycles,
        }
    }
}

/// Cross-tile accumulator for rows split into chunks, one N-wide register
/// file with a hit mask, allocated by the first split-row dot product. A
/// run without C allocates only the hit mask.
///
/// The planner gives a split row's first chunk a tile of its own and its
/// chunks consecutive tiles, so at most one split row is open at a time.
/// Its dot products fold `0.0 + chunk0 + chunk1 …` per column in tile
/// order, and the tile holding its last chunk closes it into a sorted
/// fiber (with zero values without C). Rows close in ascending order.
struct SplitAcc {
    n_dim: usize,
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
            n_dim,
            open: None,
            acc: Vec::new(),
            hit: Vec::new(),
            closed: Vec::new(),
        }
    }

    fn add(&mut self, row: u32, n: u32, value: Value) {
        self.open(row, true);
        let n = n as usize;
        self.hit[n >> 6] |= 1u64 << (n & 63);
        self.acc[n] += value;
    }

    /// Marks the columns `lo + n` of every set bit `n` of `words`, row
    /// `row`'s hits in one column window of a run without C.
    fn add_hits(&mut self, row: u32, lo: usize, words: &[u64]) {
        self.open(row, false);
        for (w, &word) in words.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let n = lo + w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.hit[n >> 6] |= 1u64 << (n & 63);
            }
        }
    }

    /// Opens `row`, allocating the hit mask and, `with_values`, the
    /// register file on first use.
    fn open(&mut self, row: u32, with_values: bool) {
        assert_eq!(*self.open.get_or_insert(row), row, "two split rows open");
        if self.hit.is_empty() {
            self.hit = vec![0; self.n_dim.div_ceil(64)];
        }
        if with_values && self.acc.is_empty() {
            self.acc = vec![0.0; self.n_dim];
        }
    }

    /// Closes `tile`'s split row if the tile holds its last chunk.
    fn close_after<const COMPUTE_C: bool>(&mut self, tile: &[tiling::Cluster]) {
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
                let value = if COMPUTE_C {
                    std::mem::take(&mut self.acc[n])
                } else {
                    0.0
                };
                fiber.push(Element::new(n as u32, value));
            }
        }
        self.closed.push((cl.row, fiber));
    }
}

/// Upper bound, in elements, on the dense `clusters x columns` accumulator
/// grid. The tile loop sweeps N in windows of `ACC_GRID_ELEMENTS /
/// multipliers` columns: 16,384 at Table 5's 64 multipliers, wider than
/// both output dimensions of every benchmark layer (at most 12,100), so
/// those run in one window, while a served B of up to 2^24 columns takes
/// several.
const ACC_GRID_ELEMENTS: usize = 1 << 20;

/// Runs the band's tiles against the streaming operand.
pub(super) fn run(e: &mut Engine<'_>, stream: &Stream<'_>) {
    let window = ACC_GRID_ELEMENTS / e.cfg.multipliers as usize;
    run_in_windows(e, stream, window);
}

/// [`run`] with the column window given: any width yields the same
/// outcome.
fn run_in_windows(e: &mut Engine<'_>, stream: &Stream<'_>, window: usize) {
    let mut plan = tiling::RowPlan::default();
    tiling::plan_rows(e.a, e.cfg.multipliers, e.band.clone(), &mut plan);
    let mut split_acc = SplitAcc::new(stream.by_k.cols() as usize);
    if e.compute_c {
        tile_loop::<true>(e, &plan, stream, window, &mut split_acc);
    } else {
        tile_loop::<false>(e, &plan, stream, window, &mut split_acc);
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
        e.emit_row(row, Psum::Owned(fiber));
    }
    if split_elems > 0 {
        e.counters.add("ip.split_row_elements", split_elems);
        let drain = e.merge_cycles(split_elems);
        e.advance_with_dram(Phase::Streaming, drain);
    }
}

/// Fills `k_entries` with the tile's stationary coordinates — `k` maps to
/// the `(cluster, stationary value)` pairs holding it — and `touched_k` with
/// the distinct ks in ascending order, the accumulation order of a plain
/// fiber scan.
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
    touched_k.sort_unstable();
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

/// The tile loop: each tile reads only the rows of B its stationary ks
/// select, one column window at a time. `COMPUTE_C` false keeps the hit
/// words only: no product is summed and no dot is stored.
fn tile_loop<const COMPUTE_C: bool>(
    e: &mut Engine<'_>,
    plan: &tiling::RowPlan,
    stream: &Stream<'_>,
    window: usize,
    split_acc: &mut SplitAcc,
) {
    let (a, by_k) = (e.a, stream.by_k);
    let n_dim = by_k.cols() as usize;
    let width = window.clamp(1, n_dim.max(1));
    let w_words = width.div_ceil(64);
    let slots = e.cfg.multipliers as usize;
    // k -> entries table, cleared by the tile that filled it; per touched
    // k, its position in B's row k; the dense `clusters x width`
    // accumulator grid and its hit bits, drained clean by the emission.
    let mut k_entries = vec![Vec::new(); a.cols() as usize];
    let mut touched_k = Vec::new();
    let mut cursor: Vec<usize> = Vec::new();
    let mut acc: Vec<Value> = vec![0.0; if COMPUTE_C { slots * width } else { 0 }];
    let mut hit = vec![0u64; slots * w_words];
    let mut memo = PassMemo::default();

    for tile in plan.tiles() {
        // Tile boundary: a fired token stops before the next tile streams.
        if e.is_cancelled() {
            return;
        }
        e.stationary_phase(tiling::slots_used(tile));
        e.cache
            .stream_pass(stream.fibers.iter().copied(), &mut e.dram, &mut memo);

        index_tile(a, tile, &mut k_entries, &mut touched_k);
        cursor.clear();
        cursor.resize(touched_k.len(), 0);

        // B elements injected, products delivered (`Σ x_n`), columns that
        // received one (`#{n : x_n ≥ 1}`), and whole-row dots stored.
        let (mut injected, mut products, mut columns, mut final_elems) = (0u64, 0u64, 0u64, 0u64);
        for lo in (0..n_dim).step_by(width) {
            let hi = n_dim.min(lo + width);
            // Intersection phase: only the stationary ks' rows of B are
            // read, each from where the previous window left it.
            let window_products = products;
            for (&k, pos) in touched_k.iter().zip(cursor.iter_mut()) {
                let row = by_k.fiber(k);
                let coords = &row.coords()[*pos..];
                let len = if hi == n_dim {
                    coords.len()
                } else {
                    coords.partition_point(|&n| (n as usize) < hi)
                };
                let (coords, vals) = (&coords[..len], &row.values()[*pos..*pos + len]);
                *pos += len;
                let entries = &k_entries[k as usize];
                injected += len as u64;
                products += (len * entries.len()) as u64;
                for &(ci, aval) in entries {
                    let ci = ci as usize;
                    let acc = if COMPUTE_C {
                        &mut acc[ci * width..(ci + 1) * width]
                    } else {
                        &mut []
                    };
                    let hit = &mut hit[ci * w_words..(ci + 1) * w_words];
                    // The hit word stays in a register while consecutive
                    // columns share it, instead of a store-to-load chain
                    // through memory.
                    let (mut word, mut bits) = (0usize, 0u64);
                    for (&n, &bval) in coords.iter().zip(vals) {
                        let n = n as usize - lo;
                        if n >> 6 != word {
                            hit[word] |= bits;
                            (word, bits) = (n >> 6, 0);
                        }
                        bits |= 1u64 << (n & 63);
                        if COMPUTE_C {
                            acc[n] += aval * bval;
                        }
                    }
                    hit[word] |= bits;
                }
            }
            if products == window_products {
                continue;
            }

            // Emission: the columns any cluster hit, then each cluster's
            // dots in ascending n.
            let words = (hi - lo).div_ceil(64);
            for w in 0..words {
                let any = (0..tile.len()).fold(0, |any, ci| any | hit[ci * w_words + w]);
                columns += u64::from(any.count_ones());
            }
            for (ci, cl) in tile.iter().enumerate() {
                if !COMPUTE_C {
                    let hits = &mut hit[ci * w_words..ci * w_words + words];
                    if cl.is_whole_row() {
                        final_elems += hits.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
                    } else {
                        split_acc.add_hits(cl.row, lo, hits);
                    }
                    hits.fill(0);
                    continue;
                }
                for w in 0..words {
                    let word = &mut hit[ci * w_words + w];
                    while *word != 0 {
                        let n = w * 64 + word.trailing_zeros() as usize;
                        *word &= *word - 1;
                        let value = std::mem::take(&mut acc[ci * width + n]);
                        emit_dot(e, cl, (lo + n) as u32, value, &mut final_elems, split_acc);
                    }
                }
            }
        }
        split_acc.close_after::<COMPUTE_C>(tile);
        e.mn.multiply(products);
        e.mrn.reduce(products, columns);
        e.dn.send_irregular(injected, products.max(injected));
        e.wbuf.write(final_elems, &mut e.dram);
        let streaming = stream.scan_cycles + e.mrn.fill_latency();
        e.advance_with_dram(Phase::Streaming, streaming);

        for &k in touched_k.iter() {
            k_entries[k as usize].clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AcceleratorConfig, CancelToken};
    use flexagon_sparse::{gen, MajorOrder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn window_width_never_changes_the_outcome() {
        // Four multipliers: A's rows of ~12 elements split across tiles,
        // and B's 150 columns span up to 150 windows. A run without C
        // stores no fiber and has the same totals.
        let cfg = AcceleratorConfig::tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let a = gen::random(24, 40, 0.3, MajorOrder::Row, &mut rng);
        let b = gen::random(40, 150, 0.2, MajorOrder::Row, &mut rng);
        assert!((0..a.rows()).any(|r| a.view().fiber_len(r) > 4));
        let stream = Stream::new(b.view(), cfg.dn_bandwidth);
        let cancel = CancelToken::never();
        let outcome = |window: usize, compute_c: bool| {
            let mut e = Engine::new(&cfg, a.view(), b.view(), 0..a.rows(), &cancel, compute_c);
            run_in_windows(&mut e, &stream, window);
            let mut outcome = e.into_outcome();
            let fibers = std::mem::take(&mut outcome.fibers);
            (format!("{outcome:?}"), fibers)
        };
        let (totals, fibers) = outcome(usize::MAX, true);
        assert_eq!(fibers.len(), 24);
        for window in [1, 7, 64, 149, usize::MAX] {
            assert_eq!(
                outcome(window, true),
                (totals.clone(), fibers.clone()),
                "window {window}"
            );
            assert_eq!(
                outcome(window, false),
                (totals.clone(), Vec::new()),
                "window {window} without C"
            );
        }
    }
}
