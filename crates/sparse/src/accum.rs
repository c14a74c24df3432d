//! Tiered per-row psum accumulators for the merge-bound dataflows.
//!
//! The Outer-Product and Gustavson phase loops produce, for every output
//! row, a set of coordinate-sorted scaled fibers that must be summed into
//! one fiber. The merger-reduction network does this with a k-way merge —
//! and the simulator charges exactly that cost — but *software* does not
//! have to replay the comparator tree: every psum is coordinate-addressable,
//! so a row-local accumulator can scatter elements in arrival order and
//! read the merged fiber back out in one sorted sweep. This is the output
//! buffering that keeps merge bandwidth off the critical path in streaming
//! designs like Sextans and dense/sparse hybrids like FlexiSAGA.
//!
//! [`RowAccum`] picks a tier per row from the shape of its output span, its
//! width against the number of psums it expects:
//!
//! * **Dense** — the span is tight enough that a value slot per coordinate
//!   is affordable: scatters are one indexed add, and the drain walks the
//!   set bits of each presence word in ascending order.
//! * **Paged** — medium spans where only the one-bit-per-coordinate bitmap
//!   is affordable: value storage is allocated in 64-slot pages on first
//!   touch of a bitmap word, and the drain is a bitmap-directed gather.
//! * **Runs** — wide, sparse spans: incoming fibers are kept as sorted runs
//!   and k-way merged on overflow and on drain (prefix merges preserve the
//!   left-to-right accumulation order, so collapsing early never changes a
//!   bit of the result).
//!
//! Every tier accumulates a coordinate's values in exactly the order the
//! sources arrive — the first value is *stored*, later ones are *added* —
//! which is the tie-break order of [`merge::merge_accumulate`]. Scattering
//! fibers in ascending-k order therefore reproduces the k-way merge of the
//! k-tagged psum fibers bit for bit, including `-0.0` and other
//! non-associativity hazards.
//!
//! A simulation that needs only the merged row's structure arms the
//! accumulator without values ([`RowAccum::begin_mode`]). The tier is
//! selected as before, but no value is read, scaled, stored or summed:
//! the Dense and Paged tiers keep only their presence words, and the Runs
//! tier keeps the incoming coordinates and unions them on drain. The drain
//! returns the same coordinates a valued arming would, each with a zero
//! value.

use crate::{merge, Fiber, FiberView, Value};
use serde::{Deserialize, Serialize};

/// Tier-selection thresholds for [`RowAccum`]. The engine always arms
/// its accumulators with [`AccumConfig::default`]; the fields stay settable
/// so benchmarks and tests can force a tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccumConfig {
    /// Dense tier when `span <= nnz_hint * dense_span_per_elem`: each
    /// expected element justifies this many 4-byte value slots.
    pub dense_span_per_elem: u64,
    /// Absolute span cap for the dense tier, bounding the value array.
    pub dense_max_span: u64,
    /// Paged tier when `span <= nnz_hint * paged_bits_per_elem`: each
    /// expected element justifies this many presence-bitmap bits.
    pub paged_bits_per_elem: u64,
    /// Absolute span cap for the paged tier, bounding the bitmap.
    pub paged_max_span: u64,
    /// Runs tier: collapse the run list with one k-way merge whenever it
    /// grows to this many runs.
    pub runs_merge_limit: usize,
}

impl AccumConfig {
    /// Default for [`AccumConfig::dense_span_per_elem`].
    ///
    /// Derived from the `threshold_probe/{dense,paged}_accum` sweep
    /// (16×256 elements scattered over spans of 2–512 coordinates per
    /// element): the dense tier is faster at *every* measured ratio —
    /// 1.2× at span/nnz = 2 widening to ~1.7× from 32 up — because both
    /// tiers walk the same presence bitmap on drain and paged adds a page
    /// indirection per scatter. The gate is therefore a memory-footprint
    /// knob, not a speed crossover: 32 bounds the dense value array to
    /// 128 bytes per expected element (the engine recycles accumulators
    /// across a band's tiles, which amortizes the allocation), and [`AccumConfig::dense_max_span`]
    /// still caps the absolute span. (Previous hand-tuned value: 4.)
    ///
    /// Re-measured on a 2-vCPU container (medians of three sweeps): dense
    /// leads by 1.1–2.0× at every ratio but 4, where the two tiers sit
    /// within 4% of each other, so the gate remains the same footprint
    /// knob at 32.
    pub const DEFAULT_DENSE_SPAN_PER_ELEM: u64 = 32;
    /// Default for [`AccumConfig::dense_max_span`].
    pub const DEFAULT_DENSE_MAX_SPAN: u64 = 1 << 22;
    /// Default for [`AccumConfig::paged_bits_per_elem`].
    pub const DEFAULT_PAGED_BITS_PER_ELEM: u64 = 64;
    /// Default for [`AccumConfig::paged_max_span`].
    pub const DEFAULT_PAGED_MAX_SPAN: u64 = 1 << 28;
    /// Default for [`AccumConfig::runs_merge_limit`].
    pub const DEFAULT_RUNS_MERGE_LIMIT: usize = 64;
}

impl Default for AccumConfig {
    fn default() -> Self {
        Self {
            dense_span_per_elem: Self::DEFAULT_DENSE_SPAN_PER_ELEM,
            dense_max_span: Self::DEFAULT_DENSE_MAX_SPAN,
            paged_bits_per_elem: Self::DEFAULT_PAGED_BITS_PER_ELEM,
            paged_max_span: Self::DEFAULT_PAGED_MAX_SPAN,
            runs_merge_limit: Self::DEFAULT_RUNS_MERGE_LIMIT,
        }
    }
}

/// The storage tier a [`RowAccum`] selected for the current row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccumTier {
    /// Tight span: dense value array plus presence bitmap.
    Dense,
    /// Medium span: presence bitmap directing 64-slot value pages.
    Paged,
    /// Wide or sparse span: sorted-run list, merged on overflow and drain.
    Runs,
}

impl AccumTier {
    /// Selects the tier for an output row spanning `span` coordinates with
    /// an expected `nnz_hint` incoming psums.
    pub fn select(span: u64, nnz_hint: u64, cfg: &AccumConfig) -> AccumTier {
        if span <= nnz_hint.saturating_mul(cfg.dense_span_per_elem) && span <= cfg.dense_max_span {
            AccumTier::Dense
        } else if span <= nnz_hint.saturating_mul(cfg.paged_bits_per_elem)
            && span <= cfg.paged_max_span
        {
            AccumTier::Paged
        } else {
            AccumTier::Runs
        }
    }

    /// Tier name for diagnostics and bench labels.
    pub fn name(self) -> &'static str {
        match self {
            AccumTier::Dense => "dense",
            AccumTier::Paged => "paged",
            AccumTier::Runs => "runs",
        }
    }
}

/// Sentinel for an unallocated value page in the paged tier.
const NO_PAGE: u32 = u32::MAX;

/// A reusable per-row psum accumulator.
///
/// Lifecycle: [`RowAccum::begin`] arms the accumulator for one output row,
/// [`RowAccum::scatter_scaled`] / [`RowAccum::scatter`] feed it sorted
/// fibers in merge-source order, and [`RowAccum::drain`] returns the merged
/// fiber and resets the accumulator for reuse — all buffers (value array,
/// bitmap, pages, run list) keep their allocations across rows.
///
/// ```
/// use flexagon_sparse::{AccumConfig, Element, Fiber, RowAccum};
/// let a = Fiber::from_sorted(vec![Element::new(1, 1.0), Element::new(3, 2.0)]);
/// let b = Fiber::from_sorted(vec![Element::new(3, 4.0), Element::new(7, 8.0)]);
/// let mut acc = RowAccum::new();
/// acc.begin(1, 7, 4, &AccumConfig::default());
/// acc.scatter_scaled(a.as_view(), 1.0);
/// acc.scatter_scaled(b.as_view(), 0.5);
/// let merged = acc.drain();
/// assert_eq!(merged.get(3), Some(4.0));
/// assert_eq!(merged.len(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RowAccum {
    tier: Option<AccumTier>,
    /// Lowest coordinate of the armed span (dense/paged tiers).
    lo: u32,
    /// Words of the presence bitmap in use for the armed span.
    n_words: usize,
    /// Distinct coordinates touched so far (dense/paged tiers).
    distinct: usize,
    /// Run-list collapse threshold (runs tier).
    runs_limit: usize,
    /// Dense tier: one value slot per coordinate in the span. Slots are
    /// only meaningful under a set presence bit, so stale values from
    /// earlier rows never need clearing.
    vals: Vec<Value>,
    /// Presence bitmap (dense and paged tiers), zeroed by every drain.
    words: Vec<u64>,
    /// Paged tier: bitmap word -> value-page index, [`NO_PAGE`] when unset.
    pages: Vec<u32>,
    /// Paged tier: 64-slot value pages, allocated on first word touch.
    page_pool: Vec<Value>,
    /// Runs tier: sorted runs in arrival order.
    runs: Vec<Fiber>,
    /// Recycled run buffers.
    spare: Vec<Fiber>,
    /// Whether the armed row keeps values; without them every tier keeps
    /// coordinates only.
    values: bool,
    /// Runs tier without values: the coordinates of every scattered run,
    /// in arrival order.
    run_coords: Vec<u32>,
}

impl RowAccum {
    /// Creates an empty, un-armed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tier selected by the last `begin`, if armed.
    pub fn tier(&self) -> Option<AccumTier> {
        self.tier
    }

    /// Arms the accumulator for a row whose psums span `[lo, hi]` with an
    /// expected `nnz_hint` incoming elements, selecting the tier by the
    /// span/nnz shape.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the previous row was not drained or
    /// `hi < lo`.
    pub fn begin(&mut self, lo: u32, hi: u32, nnz_hint: u64, cfg: &AccumConfig) {
        self.begin_mode(lo, hi, nnz_hint, cfg, true);
    }

    /// [`RowAccum::begin`], with or without values. Armed with `values`
    /// false, the row keeps only the coordinates its scatters touch: the
    /// scale factors and values of the scattered fibers are never read, and
    /// [`RowAccum::drain`] returns the coordinates of a valued arming, each
    /// with a zero value.
    ///
    /// # Panics
    ///
    /// As [`RowAccum::begin`].
    pub fn begin_mode(&mut self, lo: u32, hi: u32, nnz_hint: u64, cfg: &AccumConfig, values: bool) {
        debug_assert!(self.is_drained(), "begin on an undrained accumulator");
        debug_assert!(lo <= hi, "inverted span");
        let span = (hi - lo) as u64 + 1;
        let tier = AccumTier::select(span, nnz_hint, cfg);
        self.lo = lo;
        self.n_words = (span as usize).div_ceil(64);
        self.values = values;
        match tier {
            AccumTier::Dense | AccumTier::Paged if !values => {
                if self.words.len() < self.n_words {
                    self.words.resize(self.n_words, 0);
                }
            }
            AccumTier::Dense => {
                // Word-aligned sizing: the drain reads a whole 64-slot value
                // window per presence word, so the array covers the final
                // partial word too. Slack slots sit under clear presence
                // bits and are never emitted.
                let padded = self.n_words * 64;
                if self.vals.len() < padded {
                    self.vals.resize(padded, 0.0);
                }
                if self.words.len() < self.n_words {
                    self.words.resize(self.n_words, 0);
                }
            }
            AccumTier::Paged => {
                if self.words.len() < self.n_words {
                    self.words.resize(self.n_words, 0);
                }
                if self.pages.len() < self.n_words {
                    self.pages.resize(self.n_words, NO_PAGE);
                }
            }
            AccumTier::Runs => {
                self.runs_limit = cfg.runs_merge_limit.max(2);
            }
        }
        self.tier = Some(tier);
    }

    /// Whether the accumulator holds no undrained data.
    pub fn is_drained(&self) -> bool {
        self.distinct == 0 && self.runs.is_empty() && self.run_coords.is_empty()
    }

    /// Scatters `fiber` scaled by `factor` into the row, as the next merge
    /// source. Coordinates must lie within the armed span (dense/paged).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the accumulator is not armed.
    pub fn scatter_scaled(&mut self, fiber: FiberView<'_>, factor: Value) {
        self.scatter_impl::<true>(fiber, factor);
    }

    /// Scatters `fiber` unscaled — the form merge passes over
    /// already-scaled fibers use. Identical to
    /// `scatter_scaled(fiber, 1.0)` bit for bit, without the multiplies.
    pub fn scatter(&mut self, fiber: FiberView<'_>) {
        self.scatter_impl::<false>(fiber, 1.0);
    }

    /// Shared scatter body. The const parameter monomorphizes the two entry
    /// points, so the unscaled path compiles without the per-element
    /// multiply while both keep exactly one copy of the tier logic. An
    /// arming without values turns off here, once per scattered fiber.
    #[inline]
    fn scatter_impl<const SCALED: bool>(&mut self, fiber: FiberView<'_>, factor: Value) {
        if !self.values {
            self.scatter_coords(fiber);
            return;
        }
        let scale = |v: Value| if SCALED { v * factor } else { v };
        match self.tier.expect("scatter on an un-armed accumulator") {
            AccumTier::Dense => {
                for (&c, &v) in fiber.coords().iter().zip(fiber.values()) {
                    let bit = (c - self.lo) as usize;
                    let (w, m) = (bit >> 6, 1u64 << (bit & 63));
                    if self.words[w] & m == 0 {
                        self.words[w] |= m;
                        self.vals[bit] = scale(v);
                        self.distinct += 1;
                    } else {
                        self.vals[bit] += scale(v);
                    }
                }
            }
            AccumTier::Paged => {
                for (&c, &v) in fiber.coords().iter().zip(fiber.values()) {
                    let bit = (c - self.lo) as usize;
                    let (w, m) = (bit >> 6, 1u64 << (bit & 63));
                    let mut page = self.pages[w];
                    if page == NO_PAGE {
                        page = (self.page_pool.len() / 64) as u32;
                        self.page_pool.resize(self.page_pool.len() + 64, 0.0);
                        self.pages[w] = page;
                    }
                    let slot = page as usize * 64 + (bit & 63);
                    if self.words[w] & m == 0 {
                        self.words[w] |= m;
                        self.page_pool[slot] = scale(v);
                        self.distinct += 1;
                    } else {
                        self.page_pool[slot] += scale(v);
                    }
                }
            }
            AccumTier::Runs => {
                if fiber.is_empty() {
                    return;
                }
                let mut run = self.spare.pop().unwrap_or_default();
                if SCALED {
                    run.scale_from(fiber, factor);
                } else {
                    run.clone_from_view(fiber);
                }
                self.runs.push(run);
                self.collapse_if_full();
            }
        }
    }

    /// The scatter of an arming without values, kept out of line so the
    /// valued tiers compile as they would alone.
    #[inline(never)]
    fn scatter_coords(&mut self, fiber: FiberView<'_>) {
        let coords = fiber.coords();
        match self.tier.expect("scatter on an un-armed accumulator") {
            AccumTier::Dense | AccumTier::Paged => {
                // The coordinates ascend, so each presence word they touch
                // gathers its bits in a register and is stored once.
                let Some(&first) = coords.first() else {
                    return;
                };
                let (mut word, mut bits) = (((first - self.lo) >> 6) as usize, 0u64);
                for &c in coords {
                    let bit = (c - self.lo) as usize;
                    if bit >> 6 != word {
                        self.distinct += (bits & !self.words[word]).count_ones() as usize;
                        self.words[word] |= bits;
                        (word, bits) = (bit >> 6, 0);
                    }
                    bits |= 1u64 << (bit & 63);
                }
                self.distinct += (bits & !self.words[word]).count_ones() as usize;
                self.words[word] |= bits;
            }
            AccumTier::Runs => self.run_coords.extend_from_slice(coords),
        }
    }

    /// Collapses the run list into one run when it hits the limit. A prefix
    /// merge folds values in exactly the order a single final merge would,
    /// so this is invisible in the drained result.
    fn collapse_if_full(&mut self) {
        if self.runs.len() < self.runs_limit {
            return;
        }
        let (merged, _) = {
            let views: Vec<FiberView<'_>> = self.runs.iter().map(Fiber::as_view).collect();
            merge::merge_accumulate(&views)
        };
        for mut f in self.runs.drain(..) {
            f.clear();
            self.spare.push(f);
        }
        self.runs.push(merged);
    }

    /// Reads the merged row back out as a coordinate-sorted fiber and
    /// resets the accumulator for the next `begin`.
    ///
    /// The result is bit-identical to `merge::merge_accumulate` over the
    /// scattered fibers in arrival order. Armed without values, it has the
    /// same coordinates, each with a zero value.
    pub fn drain(&mut self) -> Fiber {
        if !self.values {
            return self.drain_coords();
        }
        let tier = self.tier.take().expect("drain on an un-armed accumulator");
        match tier {
            AccumTier::Dense => {
                // Values are moved, never summed, so the drain is bit-exact.
                let mut coords: Vec<u32> = Vec::with_capacity(self.distinct);
                let mut values: Vec<Value> = Vec::with_capacity(self.distinct);
                for w in 0..self.n_words {
                    let word = self.words[w];
                    if word == 0 {
                        continue;
                    }
                    self.words[w] = 0;
                    drain_word(
                        word,
                        self.lo + ((w << 6) as u32),
                        &self.vals[w << 6..(w << 6) + 64],
                        &mut coords,
                        &mut values,
                    );
                }
                self.distinct = 0;
                Fiber::from_parts(coords, values)
            }
            AccumTier::Paged => {
                // Same walk as the dense drain; the window is the word's
                // 64-slot page instead of a span offset.
                let mut coords: Vec<u32> = Vec::with_capacity(self.distinct);
                let mut values: Vec<Value> = Vec::with_capacity(self.distinct);
                for w in 0..self.n_words {
                    let word = self.words[w];
                    if word == 0 {
                        continue;
                    }
                    self.words[w] = 0;
                    let base = self.pages[w] as usize * 64;
                    self.pages[w] = NO_PAGE;
                    drain_word(
                        word,
                        self.lo + ((w << 6) as u32),
                        &self.page_pool[base..base + 64],
                        &mut coords,
                        &mut values,
                    );
                }
                self.page_pool.clear();
                self.distinct = 0;
                Fiber::from_parts(coords, values)
            }
            AccumTier::Runs => match self.runs.len() {
                0 => Fiber::new(),
                1 => self.runs.pop().expect("len checked"),
                _ => {
                    let (merged, _) = {
                        let views: Vec<FiberView<'_>> =
                            self.runs.iter().map(Fiber::as_view).collect();
                        merge::merge_accumulate(&views)
                    };
                    for mut f in self.runs.drain(..) {
                        f.clear();
                        self.spare.push(f);
                    }
                    merged
                }
            },
        }
    }

    /// The drain of an arming without values: the union of the scattered
    /// coordinates, each with a zero value.
    #[inline(never)]
    fn drain_coords(&mut self) -> Fiber {
        let coords = match self.tier.take().expect("drain on an un-armed accumulator") {
            AccumTier::Dense | AccumTier::Paged => {
                let mut coords: Vec<u32> = Vec::with_capacity(self.distinct);
                for w in 0..self.n_words {
                    let mut word = std::mem::take(&mut self.words[w]);
                    let base = self.lo + ((w << 6) as u32);
                    while word != 0 {
                        coords.push(base + word.trailing_zeros());
                        word &= word - 1;
                    }
                }
                self.distinct = 0;
                coords
            }
            AccumTier::Runs => {
                let mut coords = std::mem::take(&mut self.run_coords);
                coords.sort_unstable();
                coords.dedup();
                coords
            }
        };
        let zeros = vec![0.0; coords.len()];
        Fiber::from_parts(coords, zeros)
    }
}

/// Appends `base + b` to `coords` and `vals[b]` to `values` for every set
/// bit `b` of `word`, in ascending bit order.
#[inline]
fn drain_word(
    word: u64,
    base: u32,
    vals: &[Value],
    coords: &mut Vec<u32>,
    values: &mut Vec<Value>,
) {
    let mut w = word;
    while w != 0 {
        let b = w.trailing_zeros();
        coords.push(base + b);
        values.push(vals[b as usize]);
        w &= w - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Element;

    fn f(pairs: &[(u32, Value)]) -> Fiber {
        Fiber::from_sorted(pairs.iter().map(|&(c, v)| Element::new(c, v)).collect())
    }

    /// Reference: k-way merge of the scaled fibers in arrival order.
    fn reference(fibers: &[(Fiber, Value)]) -> Fiber {
        let scaled: Vec<Fiber> = fibers.iter().map(|(fb, s)| fb.scaled(*s)).collect();
        let views: Vec<FiberView<'_>> = scaled.iter().map(Fiber::as_view).collect();
        merge::merge_accumulate(&views).0
    }

    fn span_of(fibers: &[(Fiber, Value)]) -> (u32, u32, u64) {
        let mut lo = u32::MAX;
        let mut hi = 0;
        let mut nnz = 0;
        for (fb, _) in fibers {
            if fb.is_empty() {
                continue;
            }
            lo = lo.min(fb.coords()[0]);
            hi = hi.max(*fb.coords().last().unwrap());
            nnz += fb.len() as u64;
        }
        (lo, hi, nnz)
    }

    fn check_tier(fibers: &[(Fiber, Value)], cfg: &AccumConfig, want_tier: AccumTier) {
        let (lo, hi, nnz) = span_of(fibers);
        let mut acc = RowAccum::new();
        acc.begin(lo, hi, nnz, cfg);
        assert_eq!(acc.tier(), Some(want_tier));
        for (fb, s) in fibers {
            acc.scatter_scaled(fb.as_view(), *s);
        }
        let got = acc.drain();
        let want = reference(fibers);
        assert_eq!(got, want, "{} tier mismatch", want_tier.name());
        assert!(acc.is_drained());
    }

    #[test]
    fn dense_tier_matches_merge() {
        let fibers = vec![
            (f(&[(3, 1.0), (5, 2.0), (9, 3.0)]), 2.0),
            (f(&[(5, 1.5), (7, 0.5)]), -1.0),
            (f(&[(3, 4.0), (9, 0.25)]), 0.5),
        ];
        check_tier(&fibers, &AccumConfig::default(), AccumTier::Dense);
    }

    #[test]
    fn paged_tier_matches_merge() {
        // 6 elements over a span of ~300: too sparse for dense (span >
        // nnz * 4) but fine for the bitmap.
        let fibers = vec![
            (f(&[(10, 1.0), (200, 2.0)]), 1.0),
            (f(&[(10, 3.0), (310, 4.0)]), 2.5),
            (f(&[(155, 5.0), (310, 6.0)]), -0.5),
        ];
        check_tier(&fibers, &AccumConfig::default(), AccumTier::Paged);
    }

    #[test]
    fn runs_tier_matches_merge() {
        // A huge span with few elements: both array tiers are unaffordable.
        let fibers = vec![
            (f(&[(0, 1.0), (1 << 30, 2.0)]), 1.0),
            (f(&[(512, 3.0), (1 << 30, 4.0)]), 3.0),
        ];
        check_tier(&fibers, &AccumConfig::default(), AccumTier::Runs);
    }

    #[test]
    fn runs_overflow_collapse_is_invisible() {
        let sources: Vec<(Fiber, Value)> = (0..9)
            .map(|i| (f(&[(i, 1.0), (i + 3, 0.5), (100, 0.125)]), 1.0 + i as Value))
            .collect();
        let tiny_limit = AccumConfig {
            runs_merge_limit: 3,
            ..AccumConfig::default()
        };
        let mut acc = RowAccum::new();
        // A span far wider than the psums it expects selects the runs tier.
        acc.begin(0, 1 << 30, 27, &tiny_limit);
        assert_eq!(acc.tier(), Some(AccumTier::Runs));
        for (fb, s) in &sources {
            acc.scatter_scaled(fb.as_view(), *s);
        }
        let got = acc.drain();
        assert_eq!(got, reference(&sources));
    }

    #[test]
    fn first_touch_stores_rather_than_adds() {
        // -0.0 must survive: 0.0 + -0.0 would flip it to +0.0.
        let fibers = vec![(f(&[(4, -0.0)]), 1.0)];
        let (lo, hi, nnz) = span_of(&fibers);
        let mut acc = RowAccum::new();
        acc.begin(lo, hi, nnz, &AccumConfig::default());
        acc.scatter_scaled(fibers[0].0.as_view(), 1.0);
        let got = acc.drain();
        assert_eq!(got.values()[0].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn reuse_across_rows_and_tiers() {
        let mut acc = RowAccum::new();
        let cfg = AccumConfig::default();
        let batches = [
            vec![(f(&[(0, 1.0), (63, 2.0)]), 1.0), (f(&[(63, 3.0)]), 2.0)],
            vec![(f(&[(1000, 1.0), (9000, 2.0)]), 1.0)], // different span
            vec![(f(&[(2, 5.0)]), 4.0), (f(&[(2, 1.0), (3, 1.0)]), 1.0)],
        ];
        for fibers in &batches {
            let (lo, hi, nnz) = span_of(fibers);
            acc.begin(lo, hi, nnz, &cfg);
            for (fb, s) in fibers {
                acc.scatter_scaled(fb.as_view(), *s);
            }
            assert_eq!(acc.drain(), reference(fibers));
        }
    }

    #[test]
    fn arming_without_values_keeps_each_tiers_coordinates() {
        let cfg = AccumConfig {
            runs_merge_limit: 2,
            ..AccumConfig::default()
        };
        let batches = [
            // Dense, Paged and Runs (collapsing at two runs when valued).
            vec![
                (f(&[(3, 1.0), (5, 2.0)]), 2.0),
                (f(&[(5, 1.5), (9, 0.5)]), -1.0),
            ],
            vec![
                (f(&[(10, 1.0), (200, 2.0)]), 1.0),
                (f(&[(10, 3.0), (310, 4.0)]), 2.5),
                (f(&[(155, 5.0), (310, 6.0)]), -0.5),
            ],
            vec![
                (f(&[(0, 1.0), (1 << 30, 2.0)]), 1.0),
                (f(&[(512, 3.0), (1 << 30, 4.0)]), 3.0),
                (f(&[(7, 3.0), (512, 4.0)]), 0.5),
            ],
        ];
        let mut acc = RowAccum::new();
        for (fibers, tier) in
            batches
                .iter()
                .zip([AccumTier::Dense, AccumTier::Paged, AccumTier::Runs])
        {
            let (lo, hi, nnz) = span_of(fibers);
            acc.begin_mode(lo, hi, nnz, &cfg, false);
            assert_eq!(acc.tier(), Some(tier));
            for (fb, s) in fibers {
                acc.scatter_scaled(fb.as_view(), *s);
            }
            let got = acc.drain();
            assert!(acc.is_drained());
            let want = reference(fibers);
            assert_eq!(got.coords(), want.coords(), "{} tier", tier.name());
            assert!(got.values().iter().all(|&v| v == 0.0));
            // The next valued arming is unaffected.
            acc.begin(lo, hi, nnz, &cfg);
            for (fb, s) in fibers {
                acc.scatter_scaled(fb.as_view(), *s);
            }
            assert_eq!(acc.drain(), want);
        }
    }

    #[test]
    fn tier_selection_shape() {
        let cfg = AccumConfig::default();
        assert_eq!(AccumTier::select(16, 8, &cfg), AccumTier::Dense);
        assert_eq!(AccumTier::select(500, 8, &cfg), AccumTier::Paged);
        assert_eq!(AccumTier::select(1 << 30, 8, &cfg), AccumTier::Runs);
    }
}
