//! The streaming-matrix set-associative cache (paper §3.4).
//!
//! "To factor the worst-case Gust dataflow, we implement the memory
//! structure for the streaming matrix as a traditional read-only
//! set-associative cache. However, we implement this cache to operate on a
//! virtual address space relative to the beginning of the streaming matrix."
//!
//! Addresses handed to the cache are therefore *element offsets* within the
//! streaming matrix's data vector, scaled to bytes — no translation state is
//! needed and tags stay short, exactly as the paper argues. A line's set is
//! its index modulo the set count, taken with a mask when the count is a
//! power of two (every Table 5-derived geometry) and a division otherwise.
//!
//! Accesses probe real tag state line by line, with one exception: a pass
//! that streams the same ranges again and again ([`StrCache::stream_pass`],
//! the Inner-Product re-stream of B per tile) probes only until one pass
//! leaves the tags exactly as it found them. Every later pass would then
//! repeat that pass's hits and fills, so it adds that pass's totals instead.

use crate::Dram;
use flexagon_sim::Ratio;
use flexagon_sparse::ELEMENT_BYTES;
use serde::{Deserialize, Serialize};

/// Streaming-cache geometry (defaults are Table 5's values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes (1 MiB).
    pub capacity_bytes: u64,
    /// Line size in bytes (128).
    pub line_bytes: u64,
    /// Associativity (16 ways).
    pub associativity: u32,
    /// Number of banks (16) — determines peak read bandwidth.
    pub banks: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn num_sets(&self) -> u64 {
        let per_set = self.line_bytes * self.associativity as u64;
        assert!(
            per_set > 0 && self.capacity_bytes.is_multiple_of(per_set),
            "capacity must be a multiple of line_bytes * associativity"
        );
        self.capacity_bytes / per_set
    }

    /// Elements per cache line.
    pub fn elements_per_line(&self) -> u64 {
        self.line_bytes / ELEMENT_BYTES
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity_bytes: 1 << 20,
            line_bytes: 128,
            associativity: 16,
            banks: 16,
        }
    }
}

/// Result of a ranged cache access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Distinct lines touched by the access.
    pub lines: u64,
    /// Lines that hit.
    pub hits: u64,
    /// Lines that missed and were filled from DRAM.
    pub misses: u64,
}

impl AccessOutcome {
    /// Folds another outcome into this one.
    pub fn merge(&mut self, other: AccessOutcome) {
        self.lines += other.lines;
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Read-only set-associative LRU cache for the streaming (STR) matrix.
///
/// Simulated line-by-line: accesses probe real tag state, so miss rates
/// (Fig. 15) and fill traffic (Fig. 16) emerge from the actual access
/// stream rather than an analytical estimate.
#[derive(Debug, Clone)]
pub struct StrCache {
    cfg: CacheConfig,
    /// `sets[s]` holds up to `associativity` line tags in LRU order
    /// (most-recently-used last).
    sets: Vec<Vec<u64>>,
    /// `sets.len() - 1` when the set count is a power of two, so a probe
    /// masks the line index instead of dividing it.
    set_mask: Option<u64>,
    stats: Ratio,
    fill_bytes: u64,
    onchip_bytes: u64,
}

/// What one pass of [`StrCache::stream_pass`] added to the cache's totals.
#[derive(Debug, Clone, Copy)]
struct PassTotals {
    hits: u64,
    accesses: u64,
    fills: u64,
    onchip_bytes: u64,
}

/// Caller-held state of a repeated [`StrCache::stream_pass`]: the tag
/// snapshot buffer and, once found, the totals of the steady pass.
#[derive(Debug, Default)]
pub struct PassMemo {
    snapshot: Vec<u64>,
    steady: Option<PassTotals>,
}

impl StrCache {
    /// Creates a cache with the given geometry, initially empty.
    pub fn new(cfg: CacheConfig) -> Self {
        let num_sets = cfg.num_sets();
        let sets = vec![Vec::with_capacity(cfg.associativity as usize); num_sets as usize];
        Self {
            cfg,
            sets,
            set_mask: num_sets.is_power_of_two().then(|| num_sets - 1),
            stats: Ratio::new(),
            fill_bytes: 0,
            onchip_bytes: 0,
        }
    }

    /// Creates a cache with the paper's Table 5 geometry.
    pub fn with_defaults() -> Self {
        Self::new(CacheConfig::default())
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Invalidates all lines (used when a new streaming matrix is bound,
    /// since the virtual address space restarts at zero).
    pub fn invalidate_all(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Probes the line containing virtual byte address `addr`, recording
    /// one element-granularity access in the statistics.
    ///
    /// On a miss the line is filled from `dram` and becomes MRU; on a hit it
    /// is promoted to MRU. Returns `true` on hit.
    pub fn access_byte(&mut self, addr: u64, dram: &mut Dram) -> bool {
        let line = addr / self.cfg.line_bytes;
        let hit = self.access_line(line, dram);
        self.stats.record(hit);
        hit
    }

    /// Probes line index `line` directly (no statistics recorded — the
    /// paper's Fig. 15 miss rate is per element access, which
    /// [`StrCache::read_range`] and [`StrCache::access_byte`] account for).
    pub fn access_line(&mut self, line: u64, dram: &mut Dram) -> bool {
        let set_idx = match self.set_mask {
            Some(mask) => line & mask,
            None => line % self.sets.len() as u64,
        };
        let set = &mut self.sets[set_idx as usize];
        if let Some(pos) = set.iter().position(|&tag| tag == line) {
            let tag = set.remove(pos);
            set.push(tag);
            true
        } else {
            if set.len() == self.cfg.associativity as usize {
                set.remove(0); // evict LRU; read-only, so no write-back
            }
            set.push(line);
            dram.read(self.cfg.line_bytes);
            self.fill_bytes += self.cfg.line_bytes;
            false
        }
    }

    /// Reads `n_elements` consecutive elements starting at element offset
    /// `first_element` of the streaming matrix, probing each touched line
    /// once and counting on-chip delivery traffic.
    ///
    /// This is the tile-reader STR operation for sequential fiber reads.
    pub fn read_range(
        &mut self,
        first_element: u64,
        n_elements: u64,
        dram: &mut Dram,
    ) -> AccessOutcome {
        if n_elements == 0 {
            return AccessOutcome::default();
        }
        let per_line = self.cfg.line_bytes / ELEMENT_BYTES;
        let first_line = first_element * ELEMENT_BYTES / self.cfg.line_bytes;
        let last_line = (first_element + n_elements - 1) * ELEMENT_BYTES / self.cfg.line_bytes;
        let mut out = AccessOutcome::default();
        for line in first_line..=last_line {
            // Elements of the requested range that live in this line: the
            // hit/miss statistics are per element access (Fig. 15's metric),
            // while fills and `AccessOutcome` stay at line granularity.
            let lo = (line * per_line).max(first_element);
            let hi = ((line + 1) * per_line).min(first_element + n_elements);
            let elems = hi - lo;
            out.lines += 1;
            if self.access_line(line, dram) {
                out.hits += 1;
                self.stats.record_many(elems, elems);
            } else {
                // The first element access takes the miss; once the line is
                // resident the remaining accesses to it hit.
                out.misses += 1;
                self.stats.record_many(elems - 1, elems);
            }
        }
        self.onchip_bytes += n_elements * ELEMENT_BYTES;
        out
    }

    /// Streams one pass of `ranges`, `(first_element, n_elements)` pairs
    /// read as by [`StrCache::read_range`], with the same totals as those
    /// reads.
    ///
    /// Made for a caller that streams the same ranges pass after pass, as
    /// the Inner-Product dataflow re-streams B past every tile. `memo`
    /// serves that one range list on this one cache, and the cache takes
    /// no other access between its passes. A pass snapshots the tags (LRU
    /// order included) and probes. If it leaves the tags as it found them,
    /// they are at a fixed point and every later pass would repeat it, so
    /// the memo keeps the pass's totals and later passes add them without
    /// probing: element hits and accesses, fill and on-chip bytes, and the
    /// fills as DRAM line reads. A cyclic LRU scan from a cold cache
    /// reaches the fixed point after its first pass, so only two passes
    /// probe.
    pub fn stream_pass(
        &mut self,
        ranges: impl IntoIterator<Item = (u64, u64)>,
        dram: &mut Dram,
        memo: &mut PassMemo,
    ) {
        if let Some(t) = memo.steady {
            debug_assert!(
                self.tag_words().eq(memo.snapshot.iter().copied()),
                "cache accessed between passes"
            );
            self.stats.record_many(t.hits, t.accesses);
            self.fill_bytes += t.fills * self.cfg.line_bytes;
            self.onchip_bytes += t.onchip_bytes;
            dram.read_many(t.fills, self.cfg.line_bytes);
            return;
        }
        memo.snapshot.clear();
        memo.snapshot.extend(self.tag_words());
        let (stats, fill_bytes, onchip_bytes) = (self.stats, self.fill_bytes, self.onchip_bytes);
        for (first_element, n_elements) in ranges {
            self.read_range(first_element, n_elements, dram);
        }
        if self.tag_words().eq(memo.snapshot.iter().copied()) {
            memo.steady = Some(PassTotals {
                hits: self.stats.hits() - stats.hits(),
                accesses: self.stats.total() - stats.total(),
                fills: (self.fill_bytes - fill_bytes) / self.cfg.line_bytes,
                onchip_bytes: self.onchip_bytes - onchip_bytes,
            });
        }
    }

    /// The tag state as one word sequence, LRU order included: each set's
    /// length, then its tags.
    fn tag_words(&self) -> impl Iterator<Item = u64> + '_ {
        self.sets
            .iter()
            .flat_map(|set| std::iter::once(set.len() as u64).chain(set.iter().copied()))
    }

    /// Lifetime hit/miss statistics (element-granularity accesses).
    pub fn stats(&self) -> Ratio {
        self.stats
    }

    /// Miss rate over all element accesses so far (Fig. 15's metric).
    pub fn miss_rate(&self) -> f64 {
        self.stats.miss_rate()
    }

    /// Bytes filled from DRAM (Fig. 16's off-chip traffic contribution).
    pub fn fill_bytes(&self) -> u64 {
        self.fill_bytes
    }

    /// Bytes delivered on-chip to the datapath (Fig. 14's STR bars).
    pub fn onchip_bytes(&self) -> u64 {
        self.onchip_bytes
    }
}

impl Default for StrCache {
    fn default() -> Self {
        Self::with_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StrCache {
        // 4 sets * 2 ways * 16B lines = 128 bytes.
        StrCache::new(CacheConfig {
            capacity_bytes: 128,
            line_bytes: 16,
            associativity: 2,
            banks: 1,
        })
    }

    #[test]
    fn default_geometry_matches_table5() {
        let cfg = CacheConfig::default();
        assert_eq!(cfg.capacity_bytes, 1 << 20);
        assert_eq!(cfg.line_bytes, 128);
        assert_eq!(cfg.associativity, 16);
        assert_eq!(cfg.num_sets(), 512);
        assert_eq!(cfg.elements_per_line(), 32);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        let mut dram = Dram::with_defaults();
        assert!(!c.access_byte(0, &mut dram));
        assert!(c.access_byte(4, &mut dram), "same line must hit");
        assert_eq!(c.stats().hits(), 1);
        assert_eq!(c.stats().misses(), 1);
        assert_eq!(c.fill_bytes(), 16);
        assert_eq!(dram.read_bytes(), 16);
    }

    #[test]
    fn miss_rate_is_per_element_not_per_line() {
        let mut c = tiny(); // 16B lines, 4 elements per line
        let mut dram = Dram::with_defaults();
        // A single sequential pass over 16 elements = 4 lines, all cold:
        // one miss per line (the first element), the rest hit, so the rate
        // is 1/4 on the first pass and halves after a fully-hitting second.
        c.read_range(0, 16, &mut dram);
        assert!((c.miss_rate() - 0.25).abs() < 1e-12);
        c.read_range(0, 16, &mut dram);
        assert!((c.miss_rate() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        let mut dram = Dram::with_defaults();
        // Lines 0, 4, 8 all map to set 0 (4 sets). Assoc 2.
        assert!(!c.access_line(0, &mut dram));
        assert!(!c.access_line(4, &mut dram));
        assert!(!c.access_line(8, &mut dram)); // evicts line 0
        assert!(!c.access_line(0, &mut dram), "line 0 was evicted");
        assert!(c.access_line(8, &mut dram), "line 8 is still resident");
    }

    #[test]
    fn lru_promotion_on_hit() {
        let mut c = tiny();
        let mut dram = Dram::with_defaults();
        c.access_line(0, &mut dram);
        c.access_line(4, &mut dram);
        c.access_line(0, &mut dram); // promote 0 to MRU
        c.access_line(8, &mut dram); // evicts 4, not 0
        assert!(c.access_line(0, &mut dram), "promoted line survived");
        assert!(!c.access_line(4, &mut dram), "LRU line was evicted");
    }

    #[test]
    fn read_range_touches_correct_lines() {
        let mut c = tiny();
        let mut dram = Dram::with_defaults();
        // 16B lines, 4B elements -> 4 elements per line.
        let out = c.read_range(2, 6, &mut dram); // elements 2..8 -> lines 0 and 1
        assert_eq!(out.lines, 2);
        assert_eq!(out.misses, 2);
        assert_eq!(c.onchip_bytes(), 24);
        let out2 = c.read_range(0, 4, &mut dram); // line 0 again
        assert_eq!(out2.hits, 1);
    }

    #[test]
    fn read_range_zero_elements() {
        let mut c = tiny();
        let mut dram = Dram::with_defaults();
        assert_eq!(c.read_range(5, 0, &mut dram), AccessOutcome::default());
    }

    #[test]
    fn invalidate_clears_contents() {
        let mut c = tiny();
        let mut dram = Dram::with_defaults();
        c.access_line(3, &mut dram);
        c.invalidate_all();
        assert!(!c.access_line(3, &mut dram), "line gone after invalidate");
    }

    #[test]
    fn whole_matrix_fits_second_pass_all_hits() {
        let mut c = tiny(); // 8 lines capacity
        let mut dram = Dram::with_defaults();
        // Stream 32 elements = 8 lines twice; second pass must fully hit.
        c.read_range(0, 32, &mut dram);
        let second = c.read_range(0, 32, &mut dram);
        assert_eq!(second.misses, 0);
        assert_eq!(second.hits, 8);
    }

    #[test]
    fn matrix_larger_than_cache_thrashes() {
        let mut c = tiny(); // 8 lines
        let mut dram = Dram::with_defaults();
        // 64 lines streamed twice: every line maps round-robin over 4 sets,
        // 16 lines per set vs 2 ways -> second pass misses everything.
        c.read_range(0, 256, &mut dram);
        let second = c.read_range(0, 256, &mut dram);
        assert_eq!(second.hits, 0, "capacity thrash must miss on re-stream");
    }

    #[test]
    fn outcome_merge_accumulates() {
        let mut a = AccessOutcome {
            lines: 1,
            hits: 1,
            misses: 0,
        };
        a.merge(AccessOutcome {
            lines: 2,
            hits: 0,
            misses: 2,
        });
        assert_eq!(
            a,
            AccessOutcome {
                lines: 3,
                hits: 1,
                misses: 2
            }
        );
    }
}
