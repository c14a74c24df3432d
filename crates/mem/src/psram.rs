//! The PSRAM partial-sum buffer (paper §3.4, Fig. 10).
//!
//! "The memory is organized into sets corresponding to different rows and
//! each set into blocks for different K dimension within a row. Each block
//! has a valid bit. Besides, we use a register as a line tag to keep the
//! column coordinate (i.e., the k-iteration) assigned to that line. Since
//! the length of the output fiber is undetermined, it may occupy several
//! (and non-consecutive) lines in the same row. This is essentially a
//! way-combining scheme tagged by the k-iteration."
//!
//! The simulator additionally tags blocks with the output row (several rows
//! can map onto one set), and models overflow by spilling the victim fiber
//! to DRAM — the spill traffic shows up in the off-chip figures, which is
//! how an undersized PSRAM degrades a real design.
//!
//! Each set keeps its resident chains in a short list, searched linearly in
//! place of the parallel tag search of Fig. 10, and links a chain's blocks
//! through a per-set `next` array. A chain holds at least one block, so a
//! set never has more chains than blocks (64 in Table 5's geometry, 32 in
//! the GAMMA-like one). A write looks its chain up once and takes fresh
//! blocks in bulk between spill points; overflow lengths stay keyed by
//! `(row, k)` until their fiber is consumed.

use crate::Dram;
use flexagon_sparse::{Element, Fiber, FiberView, ELEMENT_BYTES};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// PSRAM geometry. Defaults give the paper's 256 KiB structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PsramConfig {
    /// Total capacity in bytes (Table 5: 256 KiB; GAMMA-like uses 128 KiB).
    pub capacity_bytes: u64,
    /// Bytes per block ("line" in Fig. 10).
    pub block_bytes: u64,
    /// Number of sets; output rows are interleaved across sets.
    pub num_sets: u32,
    /// Number of banks across the lines of a set (parallel fiber reads).
    pub banks: u32,
}

impl PsramConfig {
    /// Elements that fit in one block.
    pub fn elements_per_block(&self) -> usize {
        (self.block_bytes / ELEMENT_BYTES) as usize
    }

    /// Blocks per set implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn blocks_per_set(&self) -> usize {
        let total = self.capacity_bytes / self.block_bytes;
        assert!(
            total.is_multiple_of(self.num_sets as u64),
            "capacity must split evenly across sets"
        );
        (total / self.num_sets as u64) as usize
    }
}

impl Default for PsramConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: 256 << 10,
            block_bytes: 64,
            num_sets: 64,
            banks: 16,
        }
    }
}

/// Occupancy snapshot of the PSRAM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PsramUsage {
    /// Blocks currently valid.
    pub live_blocks: usize,
    /// Most blocks ever simultaneously valid.
    pub high_water_blocks: usize,
    /// Elements spilled to DRAM due to set overflow.
    pub spilled_elements: u64,
}

/// One way-combined fiber chain: the blocks of `(row, k)` in write order,
/// linked through [`Set::next`].
#[derive(Debug, Clone, Copy)]
struct Chain {
    /// The `(row, k)` tag.
    key: (u32, u32),
    /// First block slot of the chain.
    head: usize,
    /// Last block slot of the chain, the one that fills next.
    tail: usize,
    /// Blocks in the chain; at least one while the chain is resident.
    blocks: usize,
    /// Total elements across the chain.
    len: usize,
    /// Ghost chains model occupancy and traffic only: their blocks carry no
    /// element data (the engine accumulates the psums elsewhere), but every
    /// allocation, spill and consume follows the exact arithmetic of a data
    /// chain of the same length.
    ghost: bool,
}

impl Chain {
    /// Free element slots in the chain's tail block. Blocks fill strictly
    /// in order, so the tail's fill level is implied by the total length.
    fn tail_space(&self, per_block: usize) -> usize {
        self.blocks * per_block - self.len
    }
}

/// Struct-of-arrays element storage for one block or spill buffer: block
/// writes are a coordinate memcpy plus a scaled value map, and consuming a
/// chain appends straight into a [`Fiber`] with no per-element conversion.
#[derive(Debug, Clone, Default)]
struct SoaBuf {
    coords: Vec<u32>,
    values: Vec<f32>,
}

impl SoaBuf {
    fn len(&self) -> usize {
        self.coords.len()
    }

    /// Appends `take` elements of `fiber` starting at `off`, scaling values.
    fn append_scaled(&mut self, fiber: FiberView<'_>, off: usize, take: usize, factor: f32) {
        let span = fiber.slice(off, take);
        self.coords.extend_from_slice(span.coords());
        if factor == 1.0 {
            self.values.extend_from_slice(span.values());
        } else {
            self.values.extend(span.values().iter().map(|v| v * factor));
        }
    }

    /// Drains `other`, appending its contents here.
    fn append_drain(&mut self, other: &mut SoaBuf) {
        self.coords.append(&mut other.coords);
        self.values.append(&mut other.values);
    }
}

/// One set: fixed block slots, their chain links and a free list.
#[derive(Debug, Clone)]
struct Set {
    /// `blocks[i]` is the element data of slot `i` (empty when invalid, and
    /// always empty under a ghost chain).
    blocks: Vec<SoaBuf>,
    /// `next[i]` is the slot that follows slot `i` in its chain.
    next: Vec<usize>,
    /// Invalid slots available for allocation.
    free: Vec<usize>,
    /// Chains resident in this set, in no particular order. Every chain
    /// holds at least one block, so the list never outgrows the set.
    chains: Vec<Chain>,
}

impl Set {
    fn new(num_blocks: usize) -> Self {
        Self {
            blocks: vec![SoaBuf::default(); num_blocks],
            next: vec![0; num_blocks],
            free: (0..num_blocks).rev().collect(),
            chains: Vec::new(),
        }
    }

    /// Position of chain `key` in [`Set::chains`], if resident.
    fn find(&self, key: (u32, u32)) -> Option<usize> {
        self.chains.iter().position(|c| c.key == key)
    }
}

/// Way-combining partial-sum SRAM.
///
/// Functionally exact: it stores the real psum elements, so the merging
/// phase that consumes it produces the real output matrix.
#[derive(Debug, Clone)]
pub struct Psram {
    cfg: PsramConfig,
    sets: Vec<Set>,
    write_elems: u64,
    read_elems: u64,
    usage: PsramUsage,
    /// Overflow fibers resident in DRAM, keyed by (row, k); values stay
    /// coordinate-sorted because spills preserve write order.
    spilled: HashMap<(u32, u32), SoaBuf>,
    /// Overflow lengths of ghost chains resident in DRAM, keyed by (row, k).
    spilled_ghost: HashMap<(u32, u32), u64>,
}

impl Psram {
    /// Creates a PSRAM with the given geometry.
    pub fn new(cfg: PsramConfig) -> Self {
        let blocks = cfg.blocks_per_set();
        let sets = (0..cfg.num_sets).map(|_| Set::new(blocks)).collect();
        Self {
            cfg,
            sets,
            write_elems: 0,
            read_elems: 0,
            usage: PsramUsage::default(),
            spilled: HashMap::new(),
            spilled_ghost: HashMap::new(),
        }
    }

    /// Creates a PSRAM with the paper's 256 KiB geometry.
    pub fn with_defaults() -> Self {
        Self::new(PsramConfig::default())
    }

    /// The PSRAM geometry.
    pub fn config(&self) -> PsramConfig {
        self.cfg
    }

    fn set_index(&self, row: u32) -> usize {
        (row % self.cfg.num_sets) as usize
    }

    /// `PartialWrite(row, k, E)`: appends one psum element to the output
    /// fiber identified by `(row, k)`.
    ///
    /// Follows Fig. 10's logic: the set is indexed by `row`; if a block
    /// chain for this fiber exists and has room, the element lands in its
    /// last block; otherwise the first free block is allocated. When the
    /// set is exhausted, the largest resident fiber is spilled to DRAM.
    pub fn partial_write(&mut self, row: u32, k: u32, e: Element, dram: &mut Dram) {
        let coords = [e.coord];
        let values = [e.value];
        self.partial_write_fiber_view(row, k, FiberView::from_parts(&coords, &values), dram);
    }

    /// Appends a whole run of elements for `(row, k)`.
    ///
    /// Equivalent to repeated `PartialWrite`s; the bulk form exists because
    /// the Outer-Product streaming phase emits an entire scaled B fiber per
    /// stationary element.
    pub fn partial_write_fiber(&mut self, row: u32, k: u32, elems: &[Element], dram: &mut Dram) {
        // Allocation-free conversion: split the slice into stack-buffered
        // chunks; sequential chunk writes to the same `(row, k)` append
        // through the normal tail-block path.
        const CHUNK: usize = 64;
        let mut coords = [0u32; CHUNK];
        let mut values = [0.0f32; CHUNK];
        for chunk in elems.chunks(CHUNK) {
            for (i, e) in chunk.iter().enumerate() {
                coords[i] = e.coord;
                values[i] = e.value;
            }
            self.partial_write_fiber_view(
                row,
                k,
                FiberView::from_parts(&coords[..chunk.len()], &values[..chunk.len()]),
                dram,
            );
        }
    }

    /// Appends a whole fiber view for `(row, k)` — the zero-copy form the
    /// engine uses: elements stream straight from the operand (or a scaled
    /// scratch fiber) into the blocks, with no intermediate vector.
    pub fn partial_write_fiber_view(
        &mut self,
        row: u32,
        k: u32,
        fiber: FiberView<'_>,
        dram: &mut Dram,
    ) {
        self.partial_write_scaled(row, k, fiber, 1.0, dram);
    }

    /// Appends `fiber` with every value multiplied by `factor` — the fused
    /// multiplier-to-PSRAM path of the Outer-Product streaming phase (one
    /// stationary scalar times a streaming fiber, §3.2.2), saving the
    /// intermediate scaled copy entirely.
    pub fn partial_write_scaled(
        &mut self,
        row: u32,
        k: u32,
        fiber: FiberView<'_>,
        factor: f32,
        dram: &mut Dram,
    ) {
        self.append(row, k, fiber.len(), false, dram, |block, off, take| {
            block.append_scaled(fiber, off, take, factor)
        });
    }

    /// `PartialWrite` of `len` elements for `(row, k)` in ghost mode: the
    /// chain's block allocation, spill pressure, and read/write traffic are
    /// modeled exactly as [`Psram::partial_write_scaled`] would for a fiber
    /// of the same length, but no element data is stored — the engine's
    /// accumulator paths keep the actual psums elsewhere and retrieve the
    /// traffic with [`Psram::ghost_consume`].
    pub fn ghost_write(&mut self, row: u32, k: u32, len: usize, dram: &mut Dram) {
        self.append(row, k, len, true, dram, |_, _, _| {});
    }

    /// Appends `len` elements to chain `(row, k)` with exactly the block
    /// allocation and spills of `len` single-element `PartialWrite`s (Fig.
    /// 10): the tail block fills first, then fresh blocks come off the free
    /// list in bulk, and whenever the set runs out the largest resident
    /// fiber spills. `fill(block, off, take)` stores elements
    /// `off..off + take` into a block; ghost chains store nothing.
    fn append(
        &mut self,
        row: u32,
        k: u32,
        len: usize,
        ghost: bool,
        dram: &mut Dram,
        mut fill: impl FnMut(&mut SoaBuf, usize, usize),
    ) {
        if len == 0 {
            return;
        }
        self.write_elems += len as u64;
        let per_block = self.cfg.elements_per_block();
        let set_idx = self.set_index(row);
        let key = (row, k);
        let mut found = self.sets[set_idx].find(key);
        let mut off = 0usize;
        if let Some(ci) = found {
            let set = &mut self.sets[set_idx];
            let chain = &mut set.chains[ci];
            debug_assert_eq!(chain.ghost, ghost, "ghost and data writes to one chain");
            off = chain.tail_space(per_block).min(len);
            if off > 0 {
                fill(&mut set.blocks[chain.tail], 0, off);
                chain.len += off;
            }
        }
        while off < len {
            if self.sets[set_idx].free.is_empty() {
                // The spill may evict this very chain, or move it within
                // the list: look it up again.
                self.spill_victim(set_idx, dram);
                found = self.sets[set_idx].find(key);
                continue;
            }
            let set = &mut self.sets[set_idx];
            let ci = *found.get_or_insert_with(|| {
                set.chains.push(Chain {
                    key,
                    head: 0,
                    tail: 0,
                    blocks: 0,
                    len: 0,
                    ghost,
                });
                set.chains.len() - 1
            });
            let chain = &mut set.chains[ci];
            let n = (len - off).div_ceil(per_block).min(set.free.len());
            for _ in 0..n {
                let slot = set.free.pop().expect("n bounded by the free list");
                debug_assert_eq!(set.blocks[slot].len(), 0, "free blocks hold no data");
                let take = per_block.min(len - off);
                fill(&mut set.blocks[slot], off, take);
                if chain.blocks == 0 {
                    chain.head = slot;
                } else {
                    set.next[chain.tail] = slot;
                }
                chain.tail = slot;
                chain.blocks += 1;
                chain.len += take;
                off += take;
            }
            self.usage.live_blocks += n;
            self.usage.high_water_blocks = self.usage.high_water_blocks.max(self.usage.live_blocks);
        }
    }

    /// Evicts the largest fiber of `set_idx` to DRAM.
    ///
    /// Length ties break toward the smallest `(row, k)` tag. The chain list
    /// is in whatever order earlier `swap_remove`s left it, and letting that
    /// order pick the victim would make spill traffic — and therefore
    /// execution reports — depend on more than the resident fibers.
    fn spill_victim(&mut self, set_idx: usize, dram: &mut Dram) {
        let ci = self.sets[set_idx]
            .chains
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| (c.len, std::cmp::Reverse(c.key)))
            .map(|(i, _)| i)
            .expect("spill requested on a set with no chains");
        let mut data = SoaBuf::default();
        let chain = self.unlink(set_idx, ci, &mut data);
        let len = chain.len as u64;
        dram.write(len * ELEMENT_BYTES);
        self.usage.spilled_elements += len;
        if chain.ghost {
            *self.spilled_ghost.entry(chain.key).or_insert(0) += len;
        } else {
            self.spilled
                .entry(chain.key)
                .or_default()
                .append_drain(&mut data);
        }
    }

    /// Removes chain `ci` of `set_idx`, returning its blocks to the free
    /// list in chain order. A data chain's elements move into `out` in
    /// write order.
    fn unlink(&mut self, set_idx: usize, ci: usize, out: &mut SoaBuf) -> Chain {
        let set = &mut self.sets[set_idx];
        let chain = set.chains.swap_remove(ci);
        let mut slot = chain.head;
        for _ in 0..chain.blocks {
            if !chain.ghost {
                out.append_drain(&mut set.blocks[slot]);
            }
            set.free.push(slot);
            slot = set.next[slot];
        }
        self.usage.live_blocks -= chain.blocks;
        chain
    }

    /// `Consume(row, k)`: reads and erases the whole output fiber for
    /// `(row, k)`, re-loading any spilled portion from DRAM.
    ///
    /// Elements are returned in the order they were written, which for all
    /// dataflows is coordinate order.
    pub fn consume_fiber(&mut self, row: u32, k: u32, dram: &mut Dram) -> Fiber {
        let mut out = SoaBuf::default();
        if let Some(spilled) = take_spilled(&mut self.spilled, (row, k)) {
            dram.read(spilled.len() as u64 * ELEMENT_BYTES);
            out = spilled;
        }
        let set_idx = self.set_index(row);
        if let Some(ci) = self.sets[set_idx].find((row, k)) {
            let chain = self.unlink(set_idx, ci, &mut out);
            debug_assert!(!chain.ghost, "data consume of a ghost chain");
            self.read_elems += chain.len as u64;
        }
        debug_assert!(
            out.coords.windows(2).all(|w| w[0] < w[1]),
            "psum fiber for (row {row}, k {k}) must be coordinate-sorted"
        );
        Fiber::from_parts(out.coords, out.values)
    }

    /// `Consume(row, k)` of a ghost fiber: frees the chain's blocks and
    /// charges the same on-chip read traffic and DRAM reload traffic as
    /// [`Psram::consume_fiber`] would for the equivalent data fiber.
    /// Returns the total element count (spilled + on-chip).
    pub fn ghost_consume(&mut self, row: u32, k: u32, dram: &mut Dram) -> u64 {
        let mut total = 0u64;
        if let Some(len) = take_spilled(&mut self.spilled_ghost, (row, k)) {
            dram.read(len * ELEMENT_BYTES);
            total += len;
        }
        let set_idx = self.set_index(row);
        if let Some(ci) = self.sets[set_idx].find((row, k)) {
            let chain = self.unlink(set_idx, ci, &mut SoaBuf::default());
            debug_assert!(chain.ghost, "ghost consume of a data chain");
            self.read_elems += chain.len as u64;
            total += chain.len as u64;
        }
        total
    }

    /// Sorted list of k tags with data (on-chip or spilled) for `row`.
    pub fn fiber_tags_of_row(&self, row: u32) -> Vec<u32> {
        let set_idx = self.set_index(row);
        let mut ks: Vec<u32> = self.sets[set_idx]
            .chains
            .iter()
            .filter(|c| c.key.0 == row)
            .map(|c| c.key.1)
            .chain(
                self.spilled
                    .keys()
                    .filter(|&&(r, _)| r == row)
                    .map(|&(_, k)| k),
            )
            .chain(
                self.spilled_ghost
                    .keys()
                    .filter(|&&(r, _)| r == row)
                    .map(|&(_, k)| k),
            )
            .collect();
        ks.sort_unstable();
        ks.dedup();
        ks
    }

    /// All rows currently holding data.
    pub fn rows_with_data(&self) -> Vec<u32> {
        let mut rows: Vec<u32> = self
            .sets
            .iter()
            .flat_map(|s| s.chains.iter().map(|c| c.key.0))
            .chain(self.spilled.keys().map(|&(r, _)| r))
            .chain(self.spilled_ghost.keys().map(|&(r, _)| r))
            .collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Returns `true` when no psums are buffered anywhere.
    pub fn is_empty(&self) -> bool {
        self.usage.live_blocks == 0 && self.spilled.is_empty() && self.spilled_ghost.is_empty()
    }

    /// Occupancy snapshot.
    pub fn usage(&self) -> PsramUsage {
        self.usage
    }

    /// Elements written on-chip so far (psum write traffic, Fig. 14).
    pub fn written_elements(&self) -> u64 {
        self.write_elems
    }

    /// Elements read on-chip so far (psum read traffic, Fig. 14).
    pub fn read_elements(&self) -> u64 {
        self.read_elems
    }

    /// Total on-chip psum bytes moved (reads + writes) — Fig. 14's green bar.
    pub fn onchip_bytes(&self) -> u64 {
        (self.write_elems + self.read_elems) * ELEMENT_BYTES
    }

    /// Charges the traffic of an intermediate merge result parking in the
    /// PSRAM between passes (one write now, one read on the next pass),
    /// without storing the data — the engine keeps the fiber in flight.
    pub fn charge_intermediate_roundtrip(&mut self, elements: u64) {
        self.write_elems += elements;
        self.read_elems += elements;
    }
}

impl Default for Psram {
    fn default() -> Self {
        Self::with_defaults()
    }
}

/// Removes the overflow of fiber `key` from `spilled`. The emptiness check
/// spares the key hash on every consume of a layer that never spills.
fn take_spilled<V>(spilled: &mut HashMap<(u32, u32), V>, key: (u32, u32)) -> Option<V> {
    if spilled.is_empty() {
        None
    } else {
        spilled.remove(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(c: u32, v: f32) -> Element {
        Element::new(c, v)
    }

    fn tiny() -> Psram {
        // 2 sets x 4 blocks x 2 elements = 16 elements capacity.
        Psram::new(PsramConfig {
            capacity_bytes: 64,
            block_bytes: 8,
            num_sets: 2,
            banks: 1,
        })
    }

    #[test]
    fn default_geometry_matches_table5() {
        let cfg = PsramConfig::default();
        assert_eq!(cfg.capacity_bytes, 256 << 10);
        assert_eq!(cfg.elements_per_block(), 16);
        assert_eq!(
            cfg.blocks_per_set() * cfg.num_sets as usize * cfg.block_bytes as usize,
            256 << 10
        );
    }

    #[test]
    fn write_then_consume_roundtrips() {
        let mut p = tiny();
        let mut dram = Dram::with_defaults();
        p.partial_write(0, 3, e(1, 1.0), &mut dram);
        p.partial_write(0, 3, e(5, 2.0), &mut dram);
        let fiber = p.consume_fiber(0, 3, &mut dram);
        assert_eq!(fiber.into_inner(), vec![e(1, 1.0), e(5, 2.0)]);
        assert!(p.is_empty());
        assert_eq!(p.written_elements(), 2);
        assert_eq!(p.read_elements(), 2);
    }

    #[test]
    fn fiber_spans_multiple_blocks_in_order() {
        let mut p = tiny(); // 2 elements per block
        let mut dram = Dram::with_defaults();
        for i in 0..6 {
            p.partial_write(0, 0, e(i, i as f32), &mut dram);
        }
        let fiber = p.consume_fiber(0, 0, &mut dram);
        let coords: Vec<u32> = fiber.iter().map(|x| x.coord).collect();
        assert_eq!(coords, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn distinct_k_fibers_coexist_in_one_set() {
        let mut p = tiny();
        let mut dram = Dram::with_defaults();
        p.partial_write(0, 0, e(2, 1.0), &mut dram);
        p.partial_write(0, 7, e(1, 9.0), &mut dram);
        assert_eq!(p.fiber_tags_of_row(0), vec![0, 7]);
        assert_eq!(
            p.consume_fiber(0, 7, &mut dram).into_inner(),
            vec![e(1, 9.0)]
        );
        assert_eq!(
            p.consume_fiber(0, 0, &mut dram).into_inner(),
            vec![e(2, 1.0)]
        );
    }

    #[test]
    fn rows_interleave_across_sets() {
        let mut p = tiny(); // 2 sets
        let mut dram = Dram::with_defaults();
        p.partial_write(0, 0, e(0, 1.0), &mut dram); // set 0
        p.partial_write(1, 0, e(0, 2.0), &mut dram); // set 1
        p.partial_write(2, 0, e(0, 3.0), &mut dram); // set 0 again
        assert_eq!(p.rows_with_data(), vec![0, 1, 2]);
        assert_eq!(
            p.consume_fiber(2, 0, &mut dram).into_inner(),
            vec![e(0, 3.0)]
        );
        assert_eq!(
            p.consume_fiber(0, 0, &mut dram).into_inner(),
            vec![e(0, 1.0)]
        );
    }

    #[test]
    fn overflow_spills_to_dram_and_reloads() {
        let mut p = tiny(); // each set: 4 blocks x 2 elems = 8 elements
        let mut dram = Dram::with_defaults();
        // Fill set 0 beyond capacity with a single fiber.
        for i in 0..12 {
            p.partial_write(0, 0, e(i, 1.0), &mut dram);
        }
        assert!(p.usage().spilled_elements > 0, "overflow must spill");
        assert!(dram.written_bytes() > 0, "spill writes DRAM");
        let fiber = p.consume_fiber(0, 0, &mut dram);
        assert_eq!(fiber.len(), 12, "spilled part reloads on consume");
        let coords: Vec<u32> = fiber.iter().map(|x| x.coord).collect();
        assert!(coords.windows(2).all(|w| w[0] < w[1]), "order preserved");
        assert!(dram.read_bytes() > 0, "reload reads DRAM");
        assert!(p.is_empty());
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut p = tiny();
        let mut dram = Dram::with_defaults();
        for i in 0..4 {
            p.partial_write(0, i, e(0, 1.0), &mut dram); // 4 distinct blocks
        }
        for i in 0..4 {
            p.consume_fiber(0, i, &mut dram);
        }
        assert_eq!(p.usage().live_blocks, 0);
        assert_eq!(p.usage().high_water_blocks, 4);
    }

    #[test]
    fn consume_missing_fiber_is_empty() {
        let mut p = tiny();
        let mut dram = Dram::with_defaults();
        assert!(p.consume_fiber(5, 9, &mut dram).is_empty());
    }

    #[test]
    fn onchip_bytes_counts_reads_and_writes() {
        let mut p = tiny();
        let mut dram = Dram::with_defaults();
        p.partial_write(1, 0, e(0, 1.0), &mut dram);
        p.consume_fiber(1, 0, &mut dram);
        assert_eq!(p.onchip_bytes(), 2 * ELEMENT_BYTES);
    }

    #[test]
    fn partial_write_fiber_bulk() {
        let mut p = tiny();
        let mut dram = Dram::with_defaults();
        let elems = vec![e(0, 1.0), e(3, 2.0), e(4, 3.0)];
        p.partial_write_fiber(1, 2, &elems, &mut dram);
        assert_eq!(p.consume_fiber(1, 2, &mut dram).into_inner(), elems);
    }

    #[test]
    fn bulk_write_larger_than_set_spills_and_roundtrips() {
        let mut p = tiny(); // set capacity 8 elements
        let mut dram = Dram::with_defaults();
        let elems: Vec<Element> = (0..20).map(|i| e(i, i as f32)).collect();
        p.partial_write_fiber(0, 1, &elems, &mut dram);
        let back = p.consume_fiber(0, 1, &mut dram);
        assert_eq!(back.into_inner(), elems);
    }

    #[test]
    fn ghost_mirrors_data_chain_accounting() {
        // Drive the same write/consume schedule through a data PSRAM and a
        // ghost PSRAM (spill pressure included) and compare every
        // observable number: occupancy, spills, on-chip and DRAM traffic.
        let schedule: &[(u32, u32, usize)] = &[
            (0, 0, 5),
            (0, 1, 3),
            (2, 0, 9), // same set as row 0: contends for blocks
            (0, 0, 2),
            (1, 3, 7),
            (0, 1, 12), // overflows the 8-element set: forces spills
        ];
        let mut data = tiny();
        let mut data_dram = Dram::with_defaults();
        let mut ghost = tiny();
        let mut ghost_dram = Dram::with_defaults();
        let mut next_coord: HashMap<(u32, u32), u32> = HashMap::new();
        for &(row, k, len) in schedule {
            let base = next_coord.entry((row, k)).or_insert(0);
            let elems: Vec<Element> = (0..len as u32).map(|i| e(*base + i, 1.0)).collect();
            *base += len as u32;
            data.partial_write_fiber(row, k, &elems, &mut data_dram);
            ghost.ghost_write(row, k, len, &mut ghost_dram);
        }
        // DRAM busy cycles charge latency per batch of requests, so equal
        // bytes are not enough: the spills must split into the same writes.
        let same_dram = |a: &Dram, b: &Dram| {
            assert_eq!(a.written_bytes(), b.written_bytes());
            assert_eq!(a.read_bytes(), b.read_bytes());
            assert_eq!(a.write_requests(), b.write_requests());
            assert_eq!(a.read_requests(), b.read_requests());
        };
        assert_eq!(data.usage(), ghost.usage());
        assert!(data.usage().spilled_elements > 0, "the schedule must spill");
        assert_eq!(data.written_elements(), ghost.written_elements());
        same_dram(&data_dram, &ghost_dram);
        assert_eq!(data.rows_with_data(), ghost.rows_with_data());
        for row in data.rows_with_data() {
            assert_eq!(data.fiber_tags_of_row(row), ghost.fiber_tags_of_row(row));
            for k in data.fiber_tags_of_row(row) {
                let fiber = data.consume_fiber(row, k, &mut data_dram);
                let len = ghost.ghost_consume(row, k, &mut ghost_dram);
                assert_eq!(fiber.len() as u64, len, "row {row} k {k}");
            }
        }
        assert_eq!(data.usage(), ghost.usage());
        assert_eq!(data.read_elements(), ghost.read_elements());
        same_dram(&data_dram, &ghost_dram);
        assert!(data.is_empty() && ghost.is_empty());
    }

    #[test]
    fn interleaved_writes_to_two_fibers_keep_chains_apart() {
        let mut p = tiny();
        let mut dram = Dram::with_defaults();
        for i in 0..3 {
            p.partial_write(0, 0, e(i, 1.0), &mut dram);
            p.partial_write(0, 1, e(i, 2.0), &mut dram);
        }
        let f0 = p.consume_fiber(0, 0, &mut dram);
        let f1 = p.consume_fiber(0, 1, &mut dram);
        assert_eq!(f0.iter().map(|x| x.value).sum::<f32>(), 3.0);
        assert_eq!(f1.iter().map(|x| x.value).sum::<f32>(), 6.0);
    }
}
