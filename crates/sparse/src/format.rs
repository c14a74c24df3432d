//! Fiber storage formats: the representation tier *under* the dataflow.
//!
//! The paper's thesis — no single dataflow fits every layer — holds one
//! level down, of the storage format itself. The SoA coords+values
//! baseline ([`CompressedMatrix`]) is the most general representation, but
//! it spends four coordinate bytes per element even when the sparsity
//! pattern carries structure a cheaper encoding could exploit:
//!
//! * [`FiberFormat::Bcsr4`] / [`FiberFormat::Bcsr8`] — BCSR-style blocked
//!   fibers: elements grouped into fixed-width value blocks (one base
//!   coordinate + one occupancy mask per block), the layout for
//!   dense-clustered regions. A block holds at least one element, so
//!   storage is bounded, and the value slots are `f32` verbatim, so the
//!   encoding is bit-exact.
//! * [`FiberFormat::Ell`] — an ELL-ish fixed-width layout for uniform-row
//!   fibers: one `major_dim x width` value/coordinate grid plus per-fiber
//!   lengths, with no per-fiber pointer chasing. Encoding falls back to
//!   SoA storage when padding would exceed the [`ELL_WASTE_BUDGET`]
//!   allocation budget (adversarial skew or `u32`-boundary shapes).
//! * [`FiberFormat::Quant8`] — INT8-quantized values with one `f32` scale
//!   per [`QUANT_BLOCK`]-element block (the DNN-weight footprint format).
//!   This is the one *lossy* format: `|v - decode(encode(v))| <=
//!   max_abs_in_block / 254` for finite inputs, and it is opt-in only —
//!   the mapper never selects it implicitly.
//!
//! Lossless formats ([`FiberFormat::is_lossless`]) decode back to the
//! exact `CompressedMatrix` they were encoded from — same pointer, same
//! coordinates, same value bits. An execution under a lossless format is
//! therefore a footprint label: it runs on the caller's operands and its
//! report is byte-identical to the SoA baseline. `q8` is the one format
//! that changes values.
//!
//! [`FormatStats`] summarizes the shape features (row-length CV, block
//! fill, ELL waste) the mapper's format heuristic reads, and
//! [`BlockedFiber`] is the fiber-level blocked kernel (encode + masked
//! dot) that makes the clustered intersection fast without a round trip
//! through SoA.

use crate::{CompressedMatrix, Fiber, FiberView, MajorOrder, ValidationError, Value};
use serde::{Deserialize, Serialize};
use std::str::FromStr;

/// Elements per quantization block of [`FiberFormat::Quant8`]: one `f32`
/// scale amortized over this many `i8` values (effective ~9.1 bits per
/// element, vs 64 for the SoA baseline's coord+value pair).
pub const QUANT_BLOCK: usize = 32;

/// ELL padding budget: encoding keeps the fixed-width grid only while
/// `major_dim * width <= ELL_WASTE_BUDGET * nnz + ELL_WASTE_SLACK` cells.
/// One pathological fiber (adversarial skew, or a near-empty matrix with a
/// `u32`-boundary major dimension) would otherwise turn a few wire bytes
/// into a gigabyte-scale grid; past the budget the encoder stores SoA
/// internally and the format becomes a no-op tag.
pub const ELL_WASTE_BUDGET: u64 = 4;

/// Constant slack of the ELL padding budget, so tiny matrices (where a
/// single short fiber dominates the ratio) still take the grid path.
pub const ELL_WASTE_SLACK: u64 = 1024;

/// The storage format of a fiber's element data — a mapping dimension
/// alongside [`Dataflow`](crate::stats), selected per layer by the mapper
/// or pinned by the client exactly like a dataflow token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum FiberFormat {
    /// The SoA coords+values baseline (`CompressedMatrix` verbatim).
    #[default]
    Soa,
    /// Blocked fibers, 4-wide value blocks (lossless).
    Bcsr4,
    /// Blocked fibers, 8-wide value blocks (lossless).
    Bcsr8,
    /// Fixed-width padded rows with per-fiber lengths (lossless; falls
    /// back to SoA storage past the padding budget).
    Ell,
    /// INT8 values with per-block scales (**lossy**, opt-in only).
    Quant8,
}

impl FiberFormat {
    /// Every format, in token order.
    pub const ALL: [FiberFormat; 5] = [
        FiberFormat::Soa,
        FiberFormat::Bcsr4,
        FiberFormat::Bcsr8,
        FiberFormat::Ell,
        FiberFormat::Quant8,
    ];

    /// The client-facing token, as parsed by [`FromStr`] and carried in
    /// the serve protocol and CLI flags.
    pub fn token(self) -> &'static str {
        match self {
            FiberFormat::Soa => "soa",
            FiberFormat::Bcsr4 => "bcsr4",
            FiberFormat::Bcsr8 => "bcsr8",
            FiberFormat::Ell => "ell",
            FiberFormat::Quant8 => "q8",
        }
    }

    /// Whether encode → decode reproduces the exact input bits. Everything
    /// but [`FiberFormat::Quant8`] is lossless; only lossless formats are
    /// eligible for implicit selection by the mapper's heuristic.
    pub fn is_lossless(self) -> bool {
        !matches!(self, FiberFormat::Quant8)
    }

    /// Block width of the blocked formats (`None` for the others).
    pub fn block_width(self) -> Option<u32> {
        match self {
            FiberFormat::Bcsr4 => Some(4),
            FiberFormat::Bcsr8 => Some(8),
            _ => None,
        }
    }
}

impl std::fmt::Display for FiberFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for FiberFormat {
    type Err = String;

    /// Parses a format token: `soa`, `bcsr4` (alias `bcsr`), `bcsr8`,
    /// `ell`, `q8` (alias `quant8`). Case-insensitive.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "soa" => Ok(FiberFormat::Soa),
            "bcsr" | "bcsr4" => Ok(FiberFormat::Bcsr4),
            "bcsr8" => Ok(FiberFormat::Bcsr8),
            "ell" => Ok(FiberFormat::Ell),
            "q8" | "quant8" => Ok(FiberFormat::Quant8),
            other => Err(format!(
                "unknown storage format '{other}' (expected soa, bcsr4, bcsr8, ell or q8)"
            )),
        }
    }
}

/// Element storage of a [`FormattedMatrix`], one variant per layout
/// family. Kept private: the invariants (block bases sorted and
/// width-aligned, masks non-empty, ELL lengths within width) are
/// maintained by [`FormattedMatrix::encode`] and checked by
/// [`FormattedMatrix::validate`].
#[derive(Debug, Clone, PartialEq)]
enum Storage {
    /// The baseline layout, also the ELL fallback past the padding budget.
    Soa {
        ptr: Vec<usize>,
        coords: Vec<u32>,
        values: Vec<Value>,
    },
    /// Blocked fibers: `fiber_ptr[f]..fiber_ptr[f+1]` indexes the blocks
    /// of fiber `f`; block `i` covers coordinates `base[i] .. base[i] +
    /// width`, with `mask[i]` bit `l` set iff lane `l` holds an element
    /// and `vals[i*width + l]` carrying its value (absent lanes are 0.0).
    Blocked {
        width: u32,
        fiber_ptr: Vec<usize>,
        base: Vec<u32>,
        mask: Vec<u8>,
        vals: Vec<Value>,
    },
    /// Fixed-width grid: fiber `f` owns `coords/values[f*width ..]`, with
    /// `lens[f]` valid leading cells; padding cells are zeroed.
    Ell {
        width: usize,
        lens: Vec<u32>,
        coords: Vec<u32>,
        values: Vec<Value>,
    },
    /// Quantized values: SoA structure with `q[i]` the INT8 value of
    /// element `i` and `scales[i / QUANT_BLOCK]` its dequantization scale.
    Quant {
        ptr: Vec<usize>,
        coords: Vec<u32>,
        scales: Vec<Value>,
        q: Vec<i8>,
    },
}

/// A [`CompressedMatrix`] re-encoded into a [`FiberFormat`].
///
/// `encode` → [`decode`](FormattedMatrix::decode) round-trips losslessly
/// for every format but [`FiberFormat::Quant8`], which is why a lossless
/// format can label an execution without touching its operands.
///
/// ```
/// use flexagon_sparse::{CompressedMatrix, FiberFormat, FormattedMatrix, MajorOrder};
/// let m = CompressedMatrix::from_triplets(
///     2, 8, &[(0, 0, 1.0), (0, 1, 2.0), (0, 2, 3.0), (1, 5, 4.0)], MajorOrder::Row)
///     .unwrap();
/// let blocked = FormattedMatrix::encode(&m, FiberFormat::Bcsr4);
/// assert_eq!(blocked.decode(), m);
/// assert!(blocked.footprint_bytes() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FormattedMatrix {
    format: FiberFormat,
    rows: u32,
    cols: u32,
    order: MajorOrder,
    nnz: usize,
    storage: Storage,
}

impl FormattedMatrix {
    /// Encodes `m` into `format`. Never fails: formats that cannot afford
    /// a shape (ELL past its padding budget) fall back to SoA storage
    /// under the same format tag, observable via
    /// [`storage_kind`](FormattedMatrix::storage_kind).
    pub fn encode(m: &CompressedMatrix, format: FiberFormat) -> Self {
        let storage = match format {
            FiberFormat::Soa => soa_storage(m),
            FiberFormat::Bcsr4 => blocked_storage(m, 4),
            FiberFormat::Bcsr8 => blocked_storage(m, 8),
            FiberFormat::Ell => ell_storage(m),
            FiberFormat::Quant8 => quant_storage(m),
        };
        Self {
            format,
            rows: m.rows(),
            cols: m.cols(),
            order: m.order(),
            nnz: m.nnz(),
            storage,
        }
    }

    /// The format this matrix was encoded into.
    pub fn format(&self) -> FiberFormat {
        self.format
    }

    /// Declared row count.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Declared column count.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Major order of the underlying fibers.
    pub fn order(&self) -> MajorOrder {
        self.order
    }

    /// Stored element count.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The storage family actually holding the elements (`"soa"`,
    /// `"blocked"`, `"ell"`, `"quant"`) — differs from the format tag only
    /// when ELL fell back to SoA past its padding budget.
    pub fn storage_kind(&self) -> &'static str {
        match &self.storage {
            Storage::Soa { .. } => "soa",
            Storage::Blocked { .. } => "blocked",
            Storage::Ell { .. } => "ell",
            Storage::Quant { .. } => "quant",
        }
    }

    /// Bytes of element storage in this encoding (the analogue of
    /// [`CompressedMatrix::compressed_size_bytes`], measured on the actual
    /// arrays).
    pub fn footprint_bytes(&self) -> usize {
        match &self.storage {
            Storage::Soa {
                ptr,
                coords,
                values,
            } => ptr.len() * 8 + coords.len() * 4 + values.len() * 4,
            Storage::Blocked {
                fiber_ptr,
                base,
                mask,
                vals,
                ..
            } => fiber_ptr.len() * 8 + base.len() * 4 + mask.len() + vals.len() * 4,
            Storage::Ell {
                lens,
                coords,
                values,
                ..
            } => lens.len() * 4 + coords.len() * 4 + values.len() * 4,
            Storage::Quant {
                ptr,
                coords,
                scales,
                q,
            } => ptr.len() * 8 + coords.len() * 4 + scales.len() * 4 + q.len(),
        }
    }

    /// Decodes back to the SoA baseline. Bit-identical to the encoded
    /// input for lossless formats; for [`FiberFormat::Quant8`] each value
    /// is `q * scale` (see the module docs for the error bound).
    ///
    /// # Panics
    ///
    /// Panics if the storage was corrupted after encoding (the encoder
    /// establishes the compressed invariants by construction; see
    /// [`validate`](FormattedMatrix::validate)).
    pub fn decode(&self) -> CompressedMatrix {
        let (ptr, coords, values) = match &self.storage {
            Storage::Soa {
                ptr,
                coords,
                values,
            } => (ptr.clone(), coords.clone(), values.clone()),
            Storage::Blocked {
                width,
                fiber_ptr,
                base,
                mask,
                vals,
            } => {
                let w = *width as usize;
                let mut ptr = Vec::with_capacity(fiber_ptr.len());
                let mut coords = Vec::with_capacity(self.nnz);
                let mut values = Vec::with_capacity(self.nnz);
                ptr.push(0);
                for f in 0..fiber_ptr.len() - 1 {
                    for blk in fiber_ptr[f]..fiber_ptr[f + 1] {
                        let mut m = mask[blk];
                        let window = &vals[blk * w..blk * w + w];
                        while m != 0 {
                            let lane = m.trailing_zeros() as usize;
                            coords.push(base[blk] + lane as u32);
                            values.push(window[lane]);
                            m &= m - 1;
                        }
                    }
                    ptr.push(coords.len());
                }
                (ptr, coords, values)
            }
            Storage::Ell {
                width,
                lens,
                coords,
                values,
            } => {
                let mut ptr = Vec::with_capacity(lens.len() + 1);
                let mut out_coords = Vec::with_capacity(self.nnz);
                let mut out_values = Vec::with_capacity(self.nnz);
                ptr.push(0);
                for (f, &len) in lens.iter().enumerate() {
                    let start = f * width;
                    let end = start + len as usize;
                    out_coords.extend_from_slice(&coords[start..end]);
                    // A plain copy, *not* a multiply by 1.0: a multiply may
                    // canonicalize NaN payloads, and the lossless contract
                    // is bit-exact.
                    out_values.extend_from_slice(&values[start..end]);
                    ptr.push(out_coords.len());
                }
                (ptr, out_coords, out_values)
            }
            Storage::Quant {
                ptr,
                coords,
                scales,
                q,
            } => {
                let mut values = Vec::with_capacity(q.len());
                for (i, chunk) in q.chunks(QUANT_BLOCK).enumerate() {
                    values.extend(chunk.iter().map(|&x| x as f32 * scales[i]));
                }
                (ptr.clone(), coords.clone(), values)
            }
        };
        CompressedMatrix::from_raw_parts(self.rows, self.cols, self.order, ptr, coords, values)
            .expect("formatted storage holds the compressed invariants")
    }

    /// Checks the encoding's internal invariants — the choke point for
    /// formatted representations that did not come out of
    /// [`encode`](FormattedMatrix::encode) (a future wire format, a
    /// corrupted cache entry).
    ///
    /// # Errors
    ///
    /// [`ValidationError::FormatDefect`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), ValidationError> {
        let defect = |what: &'static str| Err(ValidationError::FormatDefect { what });
        let major = match self.order {
            MajorOrder::Row => self.rows,
            MajorOrder::Col => self.cols,
        } as usize;
        match &self.storage {
            Storage::Soa {
                ptr,
                coords,
                values,
            } => {
                if ptr.len() != major + 1 || ptr.first() != Some(&0) {
                    return defect("soa pointer shape");
                }
                if ptr.windows(2).any(|w| w[0] > w[1]) || ptr[major] != coords.len() {
                    return defect("soa pointer monotonicity");
                }
                if coords.len() != values.len() || coords.len() != self.nnz {
                    return defect("soa element count");
                }
            }
            Storage::Blocked {
                width,
                fiber_ptr,
                base,
                mask,
                vals,
            } => {
                let w = *width;
                if !(1..=8).contains(&w) {
                    return defect("blocked width out of range");
                }
                if fiber_ptr.len() != major + 1 || fiber_ptr.first() != Some(&0) {
                    return defect("blocked fiber pointer shape");
                }
                if fiber_ptr.windows(2).any(|x| x[0] > x[1]) || fiber_ptr[major] != base.len() {
                    return defect("blocked fiber pointer monotonicity");
                }
                if mask.len() != base.len() || vals.len() != base.len() * w as usize {
                    return defect("blocked array lengths");
                }
                if mask.contains(&0) {
                    return defect("blocked empty block");
                }
                if w < 8 && mask.iter().any(|&m| m >> w != 0) {
                    return defect("blocked mask beyond width");
                }
                if base.iter().any(|&b| b % w != 0) {
                    return defect("blocked base misaligned");
                }
                for f in 0..major {
                    let bases = &base[fiber_ptr[f]..fiber_ptr[f + 1]];
                    if bases.windows(2).any(|x| x[0] >= x[1]) {
                        return defect("blocked bases not increasing");
                    }
                }
                let elements: usize = mask.iter().map(|m| m.count_ones() as usize).sum();
                if elements != self.nnz {
                    return defect("blocked element count");
                }
            }
            Storage::Ell {
                width,
                lens,
                coords,
                values,
            } => {
                if lens.len() != major {
                    return defect("ell length-vector shape");
                }
                if coords.len() != major * width || values.len() != coords.len() {
                    return defect("ell grid shape");
                }
                if lens.iter().any(|&l| l as usize > *width) {
                    return defect("ell length beyond width");
                }
                if lens.iter().map(|&l| l as usize).sum::<usize>() != self.nnz {
                    return defect("ell element count");
                }
                for (f, &len) in lens.iter().enumerate() {
                    let row = &coords[f * width..f * width + len as usize];
                    if row.windows(2).any(|x| x[0] >= x[1]) {
                        return defect("ell coordinates not increasing");
                    }
                }
            }
            Storage::Quant {
                ptr,
                coords,
                scales,
                q,
            } => {
                if ptr.len() != major + 1 || ptr.first() != Some(&0) {
                    return defect("quant pointer shape");
                }
                if ptr.windows(2).any(|w| w[0] > w[1]) || ptr[major] != coords.len() {
                    return defect("quant pointer monotonicity");
                }
                if q.len() != coords.len() || q.len() != self.nnz {
                    return defect("quant element count");
                }
                if scales.len() != q.len().div_ceil(QUANT_BLOCK) {
                    return defect("quant scale count");
                }
            }
        }
        Ok(())
    }
}

fn soa_storage(m: &CompressedMatrix) -> Storage {
    Storage::Soa {
        ptr: m.ptr().to_vec(),
        coords: m.coords().to_vec(),
        values: m.values().to_vec(),
    }
}

fn blocked_storage(m: &CompressedMatrix, width: u32) -> Storage {
    let w = width as usize;
    let mut fiber_ptr = Vec::with_capacity(m.major_dim() as usize + 1);
    let mut base: Vec<u32> = Vec::new();
    let mut mask: Vec<u8> = Vec::new();
    let mut vals: Vec<Value> = Vec::new();
    fiber_ptr.push(0);
    for f in 0..m.major_dim() {
        let fiber = m.fiber(f);
        let fiber_start = base.len();
        for (&c, &v) in fiber.coords().iter().zip(fiber.values()) {
            let b = c - c % width;
            if base.len() == fiber_start || *base.last().expect("non-empty") != b {
                base.push(b);
                mask.push(0);
                vals.resize(vals.len() + w, 0.0);
            }
            let lane = (c - b) as usize;
            *mask.last_mut().expect("just pushed") |= 1 << lane;
            let start = vals.len() - w;
            vals[start + lane] = v;
        }
        fiber_ptr.push(base.len());
    }
    Storage::Blocked {
        width,
        fiber_ptr,
        base,
        mask,
        vals,
    }
}

fn ell_storage(m: &CompressedMatrix) -> Storage {
    let major = m.major_dim() as usize;
    let width = (0..m.major_dim())
        .map(|f| m.fiber_len(f))
        .max()
        .unwrap_or(0);
    let cells = major as u64 * width as u64;
    if cells > ELL_WASTE_BUDGET * m.nnz() as u64 + ELL_WASTE_SLACK {
        return soa_storage(m);
    }
    let mut lens = Vec::with_capacity(major);
    let mut coords = vec![0u32; major * width];
    let mut values = vec![0.0f32; major * width];
    for f in 0..m.major_dim() {
        let fiber = m.fiber(f);
        let len = fiber.len();
        lens.push(len as u32);
        let start = f as usize * width;
        coords[start..start + len].copy_from_slice(fiber.coords());
        values[start..start + len].copy_from_slice(fiber.values());
    }
    Storage::Ell {
        width,
        lens,
        coords,
        values,
    }
}

fn quant_storage(m: &CompressedMatrix) -> Storage {
    let mut scales = Vec::with_capacity(m.nnz().div_ceil(QUANT_BLOCK));
    let mut q = Vec::with_capacity(m.nnz());
    for chunk in m.values().chunks(QUANT_BLOCK) {
        let max_abs = chunk.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
        let scale = if max_abs == 0.0 { 0.0 } else { max_abs / 127.0 };
        scales.push(scale);
        if scale == 0.0 {
            q.resize(q.len() + chunk.len(), 0);
        } else {
            q.extend(
                chunk
                    .iter()
                    .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8),
            );
        }
    }
    Storage::Quant {
        ptr: m.ptr().to_vec(),
        coords: m.coords().to_vec(),
        scales,
        q,
    }
}

/// A single fiber in the blocked layout: the kernel-level form of
/// [`FiberFormat::Bcsr4`]/[`FiberFormat::Bcsr8`], used where the engine
/// would otherwise run a coordinate-compare per element.
///
/// The masked dot walks block *bases* instead of coordinates — one compare
/// per block, then mask-AND plus up to `width` multiply-adds — and
/// accumulates matched lanes in ascending coordinate order, so the result
/// is bit-identical to [`FiberView::dot`] over the decoded fibers.
///
/// ```
/// use flexagon_sparse::{BlockedFiber, Element, Fiber};
/// let a = Fiber::from_sorted(vec![Element::new(0, 2.0), Element::new(1, 3.0)]);
/// let b = Fiber::from_sorted(vec![Element::new(1, 4.0), Element::new(9, 1.0)]);
/// let (ba, bb) = (BlockedFiber::encode(a.as_view(), 4), BlockedFiber::encode(b.as_view(), 4));
/// assert_eq!(ba.dot(&bb), 12.0);
/// assert_eq!(ba.decode(), a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedFiber {
    width: u32,
    len: usize,
    base: Vec<u32>,
    mask: Vec<u8>,
    vals: Vec<Value>,
}

impl BlockedFiber {
    /// Encodes a fiber into `width`-wide blocks (width 1–8; the engine
    /// formats use 4 and 8).
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=8` (the mask is one byte).
    pub fn encode(fiber: FiberView<'_>, width: u32) -> Self {
        assert!((1..=8).contains(&width), "block width must be 1..=8");
        let w = width as usize;
        let mut base: Vec<u32> = Vec::new();
        let mut mask: Vec<u8> = Vec::new();
        let mut vals: Vec<Value> = Vec::new();
        for (&c, &v) in fiber.coords().iter().zip(fiber.values()) {
            let b = c - c % width;
            if base.last() != Some(&b) {
                base.push(b);
                mask.push(0);
                vals.resize(vals.len() + w, 0.0);
            }
            let lane = (c - b) as usize;
            *mask.last_mut().expect("just pushed") |= 1 << lane;
            let start = vals.len() - w;
            vals[start + lane] = v;
        }
        Self {
            width,
            len: fiber.len(),
            base,
            mask,
            vals,
        }
    }

    /// Block width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of encoded elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the fiber holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.base.len()
    }

    /// Occupied fraction of the allocated lanes (`1.0` for an empty
    /// fiber): the block-fill statistic of this fiber alone.
    pub fn fill(&self) -> f64 {
        if self.base.is_empty() {
            1.0
        } else {
            self.len as f64 / (self.base.len() * self.width as usize) as f64
        }
    }

    /// Sparse dot product against another blocked fiber of the same
    /// width, bit-identical to the scalar two-pointer dot over the
    /// decoded fibers (ascending-coordinate accumulation order).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn dot(&self, other: &BlockedFiber) -> Value {
        assert_eq!(self.width, other.width, "blocked dot needs equal widths");
        let w = self.width as usize;
        let (mut i, mut j) = (0usize, 0usize);
        let mut acc = 0.0f32;
        while i < self.base.len() && j < other.base.len() {
            match self.base[i].cmp(&other.base[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let mut m = self.mask[i] & other.mask[j];
                    let va = &self.vals[i * w..i * w + w];
                    let vb = &other.vals[j * w..j * w + w];
                    while m != 0 {
                        let lane = m.trailing_zeros() as usize;
                        acc += va[lane] * vb[lane];
                        m &= m - 1;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Visits every element in ascending coordinate order.
    pub fn for_each(&self, mut visit: impl FnMut(u32, Value)) {
        let w = self.width as usize;
        for (blk, &b) in self.base.iter().enumerate() {
            let mut m = self.mask[blk];
            let window = &self.vals[blk * w..blk * w + w];
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                visit(b + lane as u32, window[lane]);
                m &= m - 1;
            }
        }
    }

    /// Decodes back to a SoA fiber (bit-exact).
    pub fn decode(&self) -> Fiber {
        let mut coords = Vec::with_capacity(self.len);
        let mut values = Vec::with_capacity(self.len);
        self.for_each(|c, v| {
            coords.push(c);
            values.push(v);
        });
        Fiber::from_parts(coords, values)
    }
}

/// Shape statistics of a matrix's fibers — the features the mapper's
/// format heuristic reads (the format-tier analogue of the cost-model
/// features on the dataflow side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FormatStats {
    /// Stored elements.
    pub nnz: usize,
    /// Fibers along the major dimension (including empty ones).
    pub fibers: usize,
    /// Mean fiber length over all fibers.
    pub row_len_mean: f64,
    /// Coefficient of variation of the fiber lengths (`stddev / mean`;
    /// `0.0` for an empty matrix). Low CV means uniform rows — the ELL
    /// sweet spot.
    pub row_len_cv: f64,
    /// `nnz / (blocks * 4)` under 4-wide blocking (`1.0` when empty):
    /// high fill means dense-clustered coordinates — the BCSR sweet spot.
    pub block_fill4: f64,
    /// Same under 8-wide blocking.
    pub block_fill8: f64,
    /// ELL padding ratio `(fibers * max_len - nnz) / nnz` (`0.0` when
    /// empty): the allocation cost of the fixed-width grid.
    pub ell_waste: f64,
    /// Fraction of non-empty fibers whose coordinate span is dense enough
    /// for the bitmap index tier ([`FiberIndex::classify`]) — a clustering
    /// signal independent of block alignment.
    ///
    /// [`FiberIndex::classify`]: crate::FiberIndex::classify
    pub bitmap_fiber_fraction: f64,
}

impl FormatStats {
    /// Computes the statistics in one pass over `m`'s fibers.
    pub fn of(m: &CompressedMatrix) -> Self {
        let fibers = m.major_dim() as usize;
        let nnz = m.nnz();
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut max_len = 0usize;
        let mut blocks4 = 0usize;
        let mut blocks8 = 0usize;
        let mut nonempty = 0usize;
        let mut bitmap_fibers = 0usize;
        for f in 0..m.major_dim() {
            let coords = m.fiber(f).coords();
            let len = coords.len();
            sum += len as f64;
            sum_sq += (len * len) as f64;
            max_len = max_len.max(len);
            let mut last4 = u32::MAX;
            let mut last8 = u32::MAX;
            for &c in coords {
                let (b4, b8) = (c >> 2, c >> 3);
                if b4 != last4 {
                    blocks4 += 1;
                    last4 = b4;
                }
                if b8 != last8 {
                    blocks8 += 1;
                    last8 = b8;
                }
            }
            if len > 0 {
                nonempty += 1;
                if crate::FiberIndex::classify(coords) == "bitmap" {
                    bitmap_fibers += 1;
                }
            }
        }
        let mean = if fibers == 0 {
            0.0
        } else {
            sum / fibers as f64
        };
        let variance = if fibers == 0 {
            0.0
        } else {
            (sum_sq / fibers as f64 - mean * mean).max(0.0)
        };
        let cv = if mean > 0.0 {
            variance.sqrt() / mean
        } else {
            0.0
        };
        let fill = |blocks: usize, width: usize| {
            if blocks == 0 {
                1.0
            } else {
                nnz as f64 / (blocks * width) as f64
            }
        };
        let ell_waste = if nnz == 0 {
            0.0
        } else {
            (fibers as f64 * max_len as f64 - nnz as f64) / nnz as f64
        };
        Self {
            nnz,
            fibers,
            row_len_mean: mean,
            row_len_cv: cv,
            block_fill4: fill(blocks4, 4),
            block_fill8: fill(blocks8, 8),
            ell_waste,
            bitmap_fiber_fraction: if nonempty == 0 {
                0.0
            } else {
                bitmap_fibers as f64 / nonempty as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Element, MajorOrder};

    fn matrix(triplets: &[(u32, u32, Value)], rows: u32, cols: u32) -> CompressedMatrix {
        CompressedMatrix::from_triplets(rows, cols, triplets, MajorOrder::Row).unwrap()
    }

    fn clustered() -> CompressedMatrix {
        // Two rows of dense 4-aligned runs plus a straggler.
        matrix(
            &[
                (0, 0, 1.0),
                (0, 1, 2.0),
                (0, 2, 3.0),
                (0, 3, 4.0),
                (0, 9, 5.0),
                (1, 4, 6.0),
                (1, 5, 7.0),
                (2, 7, -0.0),
            ],
            4,
            12,
        )
    }

    #[test]
    fn tokens_roundtrip() {
        for fmt in FiberFormat::ALL {
            assert_eq!(fmt.token().parse::<FiberFormat>().unwrap(), fmt);
            assert_eq!(format!("{fmt}"), fmt.token());
        }
        assert_eq!("bcsr".parse::<FiberFormat>().unwrap(), FiberFormat::Bcsr4);
        assert_eq!(
            "QUANT8".parse::<FiberFormat>().unwrap(),
            FiberFormat::Quant8
        );
        assert!("csr5".parse::<FiberFormat>().is_err());
    }

    #[test]
    fn lossless_formats_roundtrip_bit_exact() {
        let cases = [
            clustered(),
            matrix(&[], 0, 0),
            matrix(&[], 5, 7),
            matrix(&[(0, 0, f32::NAN), (2, 6, -0.0)], 3, 8),
            CompressedMatrix::from_triplets(
                3,
                4,
                &[(0, 1, 1.5), (1, 0, 2.5), (2, 3, 3.5)],
                MajorOrder::Col,
            )
            .unwrap(),
        ];
        for m in &cases {
            for fmt in FiberFormat::ALL.into_iter().filter(|f| f.is_lossless()) {
                let enc = FormattedMatrix::encode(m, fmt);
                enc.validate().unwrap();
                let dec = enc.decode();
                assert_eq!(dec.ptr(), m.ptr(), "{fmt} ptr");
                assert_eq!(dec.coords(), m.coords(), "{fmt} coords");
                let bits = |vs: &[Value]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(dec.values()), bits(m.values()), "{fmt} value bits");
                assert_eq!(dec.rows(), m.rows());
                assert_eq!(dec.cols(), m.cols());
                assert_eq!(dec.order(), m.order());
            }
        }
    }

    #[test]
    fn ell_falls_back_past_the_padding_budget() {
        // One long fiber over many empty ones: the grid would cost
        // fibers x width cells for almost no elements.
        let skew: Vec<(u32, u32, Value)> = (0..64).map(|i| (0, i * 3, i as Value)).collect();
        let m = matrix(&skew, 4096, 256);
        let enc = FormattedMatrix::encode(&m, FiberFormat::Ell);
        assert_eq!(enc.storage_kind(), "soa");
        assert_eq!(enc.format(), FiberFormat::Ell);
        enc.validate().unwrap();
        assert_eq!(enc.decode(), m);
        // A uniform matrix keeps the grid.
        let uniform: Vec<(u32, u32, Value)> = (0..16)
            .flat_map(|r| (0..4).map(move |c| (r, c * 2, 1.0)))
            .collect();
        let u = matrix(&uniform, 16, 8);
        assert_eq!(
            FormattedMatrix::encode(&u, FiberFormat::Ell).storage_kind(),
            "ell"
        );
    }

    #[test]
    fn quant_error_is_bounded_per_block() {
        let vals: Vec<(u32, u32, Value)> = (0..200)
            .map(|i| (i / 20, i % 20, ((i as f32) * 0.37 - 40.0) * 1.7))
            .collect();
        let m = matrix(&vals, 10, 20);
        let enc = FormattedMatrix::encode(&m, FiberFormat::Quant8);
        enc.validate().unwrap();
        let dec = enc.decode();
        assert_eq!(dec.coords(), m.coords());
        for (chunk, dchunk) in m
            .values()
            .chunks(QUANT_BLOCK)
            .zip(dec.values().chunks(QUANT_BLOCK))
        {
            let max_abs = chunk.iter().fold(0.0f32, |a, v| a.max(v.abs()));
            let bound = max_abs / 253.0; // max_abs/254 plus float slack
            for (v, d) in chunk.iter().zip(dchunk) {
                assert!(
                    (v - d).abs() <= bound,
                    "quant error {} exceeds bound {bound}",
                    (v - d).abs()
                );
            }
        }
        // Footprint: ~9 bits per element vs 64 for SoA.
        assert!(
            enc.footprint_bytes() < FormattedMatrix::encode(&m, FiberFormat::Soa).footprint_bytes()
        );
    }

    #[test]
    fn blocked_fiber_dot_matches_scalar() {
        let a = Fiber::from_sorted(
            [(0u32, 1.5f32), (1, -2.0), (2, 0.25), (9, 4.0), (10, 1.0)]
                .iter()
                .map(|&(c, v)| Element::new(c, v))
                .collect(),
        );
        let b = Fiber::from_sorted(
            [(1u32, 3.0f32), (2, -1.0), (8, 2.0), (10, 0.5)]
                .iter()
                .map(|&(c, v)| Element::new(c, v))
                .collect(),
        );
        for width in [1u32, 4, 8] {
            let ba = BlockedFiber::encode(a.as_view(), width);
            let bb = BlockedFiber::encode(b.as_view(), width);
            assert_eq!(
                ba.dot(&bb).to_bits(),
                a.as_view().dot(b.as_view()).0.to_bits(),
                "width {width}"
            );
            assert_eq!(ba.decode(), a);
            assert_eq!(bb.len(), b.len());
        }
        let ba = BlockedFiber::encode(a.as_view(), 4);
        assert!(ba.fill() > 0.0 && ba.fill() <= 1.0);
        assert!(!ba.is_empty());
        assert!(BlockedFiber::encode(Fiber::new().as_view(), 4).is_empty());
    }

    #[test]
    fn format_stats_read_the_shape() {
        let s = FormatStats::of(&clustered());
        assert_eq!(s.nnz, 8);
        assert_eq!(s.fibers, 4);
        assert!(s.block_fill4 > 0.4, "clustered rows fill blocks: {s:?}");
        assert!(s.row_len_cv > 0.0);
        // A uniform diagonal: CV 0, minimal fill.
        let diag: Vec<(u32, u32, Value)> = (0..32).map(|i| (i, (i * 9) % 64, 1.0)).collect();
        let d = FormatStats::of(&matrix(&diag, 32, 64));
        assert!(d.row_len_cv < 1e-9);
        assert!(d.block_fill4 <= 0.5);
        assert_eq!(d.ell_waste, 0.0);
        // Empty matrix: all-neutral stats.
        let e = FormatStats::of(&matrix(&[], 3, 3));
        assert_eq!(e.nnz, 0);
        assert_eq!(e.block_fill4, 1.0);
        assert_eq!(e.ell_waste, 0.0);
    }

    #[test]
    fn validate_catches_corruption() {
        let m = clustered();
        let mut enc = FormattedMatrix::encode(&m, FiberFormat::Bcsr4);
        enc.validate().unwrap();
        if let Storage::Blocked { mask, .. } = &mut enc.storage {
            mask[0] = 0;
        }
        assert!(matches!(
            enc.validate(),
            Err(ValidationError::FormatDefect { .. })
        ));
    }

    #[test]
    fn footprints_track_the_encoding() {
        let m = clustered();
        for fmt in FiberFormat::ALL {
            let enc = FormattedMatrix::encode(&m, fmt);
            assert!(enc.footprint_bytes() > 0, "{fmt}");
            assert_eq!(enc.nnz(), m.nnz());
        }
    }
}
