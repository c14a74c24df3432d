//! The unified CSR/CSC compressed matrix representation.

use crate::fiber::ElementIter;
use crate::{Fiber, FiberView, FormatError, Result, Value, ELEMENT_BYTES};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Major order of a [`CompressedMatrix`]: row-major is CSR, column-major CSC.
///
/// The paper (§2.1) notes that CSR and CSC "employ the same compression
/// method, and thus, can be seen as a single compression format", sharing
/// control logic in the accelerator. We encode that as a tag on one type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MajorOrder {
    /// Row-major compression (CSR): fibers are rows, coordinates are columns.
    Row,
    /// Column-major compression (CSC): fibers are columns, coordinates are rows.
    Col,
}

impl MajorOrder {
    /// The opposite order.
    #[must_use]
    pub fn flipped(self) -> Self {
        match self {
            Self::Row => Self::Col,
            Self::Col => Self::Row,
        }
    }

    /// Conventional format name: `"CSR"` or `"CSC"`.
    pub fn format_name(self) -> &'static str {
        match self {
            Self::Row => "CSR",
            Self::Col => "CSC",
        }
    }
}

impl std::fmt::Display for MajorOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Row => write!(f, "row-major"),
            Self::Col => write!(f, "column-major"),
        }
    }
}

/// A sparse matrix compressed in CSR or CSC form.
///
/// Storage follows the paper's description: a pointer vector marking where
/// each fiber begins, plus per-element data held struct-of-arrays (one
/// coordinate array, one value array) so a fiber is a pair of contiguous,
/// zero-copy slices — the layout the merge and intersection hot loops want.
///
/// # Example
///
/// ```
/// use flexagon_sparse::{CompressedMatrix, MajorOrder};
///
/// # fn main() -> Result<(), flexagon_sparse::FormatError> {
/// let m = CompressedMatrix::from_triplets(
///     2, 2, &[(0, 0, 1.0), (1, 1, 2.0)], MajorOrder::Row)?;
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.fiber(1).coords()[0], 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CompressedMatrix {
    rows: u32,
    cols: u32,
    order: MajorOrder,
    /// `ptr[i]..ptr[i+1]` delimits fiber `i` within the element arrays.
    ptr: Vec<usize>,
    /// Minor coordinates, fiber-major order.
    coords: Vec<u32>,
    /// Values, parallel to `coords`.
    values: Vec<Value>,
    /// Memoized structural transpose plan, built on the first explicit
    /// conversion. Ignored by `Clone`, `PartialEq` and serialization — it is
    /// derived state, recomputable from `coords` alone.
    transpose_plan: OnceLock<TransposePlan>,
}

/// The structure-only part of a CSR↔CSC conversion: the flipped pointer
/// vector and each element's destination slot. Value-independent, so one
/// plan serves every conversion of the same matrix — and the mapper oracle
/// converts the same operands once per candidate dataflow.
#[derive(Debug, Clone)]
struct TransposePlan {
    /// Pointer vector of the converted matrix.
    ptr: Vec<usize>,
    /// `dest[i]` is where element `i` (fiber-major order) lands after the
    /// flip.
    dest: Vec<u32>,
}

/// Counting-sort prefix and destination slots for flipping a compressed
/// layout with `majors_out` output fibers.
fn build_transpose_plan(majors_out: usize, coords: &[u32]) -> TransposePlan {
    let mut cursor = vec![0u32; majors_out + 1];
    for &c in coords {
        cursor[c as usize + 1] += 1;
    }
    for i in 0..majors_out {
        cursor[i + 1] += cursor[i];
    }
    let ptr: Vec<usize> = cursor.iter().map(|&c| c as usize).collect();
    let mut dest = vec![0u32; coords.len()];
    for (i, &c) in coords.iter().enumerate() {
        let slot = &mut cursor[c as usize];
        dest[i] = *slot;
        *slot += 1;
    }
    TransposePlan { ptr, dest }
}

/// Applies a transpose plan: scatters the source majors and values into the
/// converted SoA arrays, one random-write stream per pass.
fn apply_transpose_plan(
    plan: &TransposePlan,
    src_ptr: &[usize],
    src_values: &[Value],
) -> (Vec<u32>, Vec<Value>) {
    let nnz = src_values.len();
    // Pass 1: scatter the new minor coordinates (the source majors).
    let mut coords = vec![0u32; nnz];
    for major in 0..src_ptr.len() - 1 {
        for &d in &plan.dest[src_ptr[major]..src_ptr[major + 1]] {
            coords[d as usize] = major as u32;
        }
    }
    // Pass 2: scatter the values.
    let mut values = vec![0.0f32; nnz];
    for (i, &d) in plan.dest.iter().enumerate() {
        values[d as usize] = src_values[i];
    }
    (coords, values)
}

/// `nnz / (rows * cols)`, and 0 for a matrix with no entries.
fn density_of(rows: u32, cols: u32, nnz: u64) -> f64 {
    if rows == 0 || cols == 0 {
        return 0.0;
    }
    nnz as f64 / (f64::from(rows) * f64::from(cols))
}

impl Clone for CompressedMatrix {
    /// Clones the matrix data. The transpose plan is not carried over; it is
    /// rebuilt on the clone's first conversion.
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            order: self.order,
            ptr: self.ptr.clone(),
            coords: self.coords.clone(),
            values: self.values.clone(),
            transpose_plan: OnceLock::new(),
        }
    }
}

impl PartialEq for CompressedMatrix {
    /// Structural and value equality; the memoized plan does not participate.
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.order == other.order
            && self.ptr == other.ptr
            && self.coords == other.coords
            && self.values == other.values
    }
}

impl Serialize for CompressedMatrix {
    /// Mirrors the derived field-map encoding (the plan is never emitted).
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            (String::from("rows"), self.rows.to_value()),
            (String::from("cols"), self.cols.to_value()),
            (String::from("order"), self.order.to_value()),
            (String::from("ptr"), self.ptr.to_value()),
            (String::from("coords"), self.coords.to_value()),
            (String::from("values"), self.values.to_value()),
        ])
    }
}

impl Deserialize for CompressedMatrix {
    /// Decodes the field map and routes it through
    /// [`CompressedMatrix::from_raw_parts`] — wire bytes cannot construct a
    /// matrix that violates the structural invariants the engine's hot
    /// loops index by without checking.
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::DeError::new("expected a JSON object for CompressedMatrix"))?;
        Self::from_raw_parts(
            Deserialize::from_value(serde::map_get(m, "rows")?)?,
            Deserialize::from_value(serde::map_get(m, "cols")?)?,
            Deserialize::from_value(serde::map_get(m, "order")?)?,
            Deserialize::from_value(serde::map_get(m, "ptr")?)?,
            Deserialize::from_value(serde::map_get(m, "coords")?)?,
            Deserialize::from_value(serde::map_get(m, "values")?)?,
        )
        .map_err(|e| serde::DeError::new(&format!("invalid CompressedMatrix: {e}")))
    }
}

impl CompressedMatrix {
    /// Creates an empty (all-zero) matrix in the given order.
    pub fn zero(rows: u32, cols: u32, order: MajorOrder) -> Self {
        let majors = match order {
            MajorOrder::Row => rows,
            MajorOrder::Col => cols,
        };
        Self {
            rows,
            cols,
            order,
            ptr: vec![0; majors as usize + 1],
            coords: Vec::new(),
            values: Vec::new(),
            transpose_plan: OnceLock::new(),
        }
    }

    /// Builds a matrix from `(row, col, value)` triplets.
    ///
    /// Triplets may arrive in any order. Zero-valued entries are kept (they
    /// were explicitly provided), matching how pruned-but-stored weights
    /// behave.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::CoordOutOfBounds`] if an entry lies outside
    /// `rows x cols` and [`FormatError::DuplicateCoord`] if a position
    /// repeats.
    pub fn from_triplets(
        rows: u32,
        cols: u32,
        triplets: &[(u32, u32, Value)],
        order: MajorOrder,
    ) -> Result<Self> {
        for &(r, c, _) in triplets {
            if r >= rows || c >= cols {
                return Err(FormatError::CoordOutOfBounds {
                    row: r,
                    col: c,
                    rows,
                    cols,
                });
            }
        }
        let majors = match order {
            MajorOrder::Row => rows,
            MajorOrder::Col => cols,
        } as usize;
        let mut counts = vec![0usize; majors + 1];
        for &(r, c, _) in triplets {
            let major = match order {
                MajorOrder::Row => r,
                MajorOrder::Col => c,
            } as usize;
            counts[major + 1] += 1;
        }
        for i in 0..majors {
            counts[i + 1] += counts[i];
        }
        let ptr = counts.clone();
        let mut cursor = counts;
        let mut coords = vec![0u32; triplets.len()];
        let mut values = vec![0.0f32; triplets.len()];
        for &(r, c, v) in triplets {
            let (major, minor) = match order {
                MajorOrder::Row => (r as usize, c),
                MajorOrder::Col => (c as usize, r),
            };
            coords[cursor[major]] = minor;
            values[cursor[major]] = v;
            cursor[major] += 1;
        }
        // Sort each fiber by coordinate through an index permutation so the
        // parallel arrays stay in lockstep.
        let mut perm: Vec<u32> = Vec::new();
        for i in 0..majors {
            let (start, end) = (ptr[i], ptr[i + 1]);
            let span = end - start;
            if span > 1 {
                perm.clear();
                perm.extend(0..span as u32);
                perm.sort_by_key(|&p| coords[start + p as usize]);
                let fiber_coords: Vec<u32> =
                    perm.iter().map(|&p| coords[start + p as usize]).collect();
                let fiber_values: Vec<Value> =
                    perm.iter().map(|&p| values[start + p as usize]).collect();
                coords[start..end].copy_from_slice(&fiber_coords);
                values[start..end].copy_from_slice(&fiber_values);
            }
            for w in coords[start..end].windows(2) {
                if w[0] == w[1] {
                    let (row, col) = match order {
                        MajorOrder::Row => (i as u32, w[0]),
                        MajorOrder::Col => (w[0], i as u32),
                    };
                    return Err(FormatError::DuplicateCoord { row, col });
                }
            }
        }
        Ok(Self {
            rows,
            cols,
            order,
            ptr,
            coords,
            values,
            transpose_plan: OnceLock::new(),
        })
    }

    /// Builds a matrix directly from its storage arrays, validating the
    /// structural invariants before the parts become a matrix.
    ///
    /// This is the ingestion path for *decoded* representations — the serve
    /// protocol's operand fields, golden fixtures — where the arrays arrive
    /// from bytes rather than from a constructor that established the
    /// invariants. Validation here is structural only
    /// ([`CompressedMatrix::validate`]); resource ceilings and value
    /// policies are the caller's choice via
    /// [`crate::validate::validate_matrix`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::validate::ValidationError::Structure`] wrapping the
    /// first structural defect found.
    pub fn from_raw_parts(
        rows: u32,
        cols: u32,
        order: MajorOrder,
        ptr: Vec<usize>,
        coords: Vec<u32>,
        values: Vec<Value>,
    ) -> std::result::Result<Self, crate::validate::ValidationError> {
        let m = Self {
            rows,
            cols,
            order,
            ptr,
            coords,
            values,
            transpose_plan: OnceLock::new(),
        };
        m.validate()?;
        Ok(m)
    }

    /// Builds a matrix from per-fiber element lists.
    ///
    /// `fibers[i]` becomes fiber `i`; its length must equal the major
    /// dimension implied by `order`.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::MalformedPointers`] when the fiber count does
    /// not match the major dimension, and [`FormatError::CoordOutOfBounds`]
    /// when an element's coordinate exceeds the minor dimension.
    pub fn from_fibers(
        rows: u32,
        cols: u32,
        order: MajorOrder,
        fibers: Vec<Fiber>,
    ) -> Result<Self> {
        let (majors, minors) = match order {
            MajorOrder::Row => (rows, cols),
            MajorOrder::Col => (cols, rows),
        };
        if fibers.len() != majors as usize {
            return Err(FormatError::MalformedPointers {
                detail: format!(
                    "expected {majors} fibers for a {rows}x{cols} {} matrix, got {}",
                    order.format_name(),
                    fibers.len()
                ),
            });
        }
        let total: usize = fibers.iter().map(Fiber::len).sum();
        let mut ptr = Vec::with_capacity(majors as usize + 1);
        let mut coords = Vec::with_capacity(total);
        let mut values = Vec::with_capacity(total);
        ptr.push(0);
        for (i, fiber) in fibers.iter().enumerate() {
            if let Some(&max) = fiber.coords().last() {
                if max >= minors {
                    let bad = *fiber
                        .coords()
                        .iter()
                        .find(|&&c| c >= minors)
                        .expect("max out of range implies some out of range");
                    let (row, col) = match order {
                        MajorOrder::Row => (i as u32, bad),
                        MajorOrder::Col => (bad, i as u32),
                    };
                    return Err(FormatError::CoordOutOfBounds {
                        row,
                        col,
                        rows,
                        cols,
                    });
                }
            }
            coords.extend_from_slice(fiber.coords());
            values.extend_from_slice(fiber.values());
            ptr.push(coords.len());
        }
        Ok(Self {
            rows,
            cols,
            order,
            ptr,
            coords,
            values,
            transpose_plan: OnceLock::new(),
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// The compression order (CSR or CSC).
    pub fn order(&self) -> MajorOrder {
        self.order
    }

    /// Number of fibers (rows for CSR, columns for CSC).
    pub fn major_dim(&self) -> u32 {
        match self.order {
            MajorOrder::Row => self.rows,
            MajorOrder::Col => self.cols,
        }
    }

    /// Length of each fiber's coordinate space (columns for CSR).
    pub fn minor_dim(&self) -> u32 {
        match self.order {
            MajorOrder::Row => self.cols,
            MajorOrder::Col => self.rows,
        }
    }

    /// Number of stored non-zero elements.
    pub fn nnz(&self) -> usize {
        self.coords.len()
    }

    /// Fraction of stored entries, `nnz / (rows * cols)`.
    pub fn density(&self) -> f64 {
        density_of(self.rows, self.cols, self.nnz() as u64)
    }

    /// Sparsity as a percentage, `100 * (1 - density)` — the paper's metric.
    pub fn sparsity_percent(&self) -> f64 {
        Self::sparsity_percent_of(self.rows, self.cols, self.nnz() as u64)
    }

    /// [`CompressedMatrix::sparsity_percent`] of a `rows x cols` matrix
    /// holding `nnz` elements, for a caller that knows only the counts.
    pub fn sparsity_percent_of(rows: u32, cols: u32, nnz: u64) -> f64 {
        100.0 * (1.0 - density_of(rows, cols, nnz))
    }

    /// Zero-copy view of fiber `major`.
    ///
    /// # Panics
    ///
    /// Panics if `major >= self.major_dim()`.
    pub fn fiber(&self, major: u32) -> FiberView<'_> {
        self.view().fiber(major)
    }

    /// Length (nnz) of fiber `major` without materializing a view.
    pub fn fiber_len(&self, major: u32) -> usize {
        let i = major as usize;
        self.ptr[i + 1] - self.ptr[i]
    }

    /// Iterator over `(major_index, fiber_view)` pairs.
    pub fn fibers(&self) -> FiberIter<'_> {
        self.view().fibers()
    }

    /// The raw pointer vector (`major_dim + 1` monotone offsets).
    pub fn ptr(&self) -> &[usize] {
        &self.ptr
    }

    /// All stored coordinates in fiber-major order.
    pub fn coords(&self) -> &[u32] {
        &self.coords
    }

    /// All stored values, parallel to [`CompressedMatrix::coords`].
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Iterates over all stored elements in fiber-major order.
    pub fn elements(&self) -> ElementIter<'_> {
        FiberView::from_parts_unchecked(&self.coords, &self.values).iter()
    }

    /// Borrowed, zero-copy view of the whole matrix — the unit the engine
    /// executes on (operands are never cloned into the engine).
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView {
            rows: self.rows,
            cols: self.cols,
            order: self.order,
            ptr: &self.ptr,
            coords: &self.coords,
            values: &self.values,
        }
    }

    /// Value at `(row, col)`, or `0.0` if not stored.
    pub fn get(&self, row: u32, col: u32) -> Value {
        let (major, minor) = match self.order {
            MajorOrder::Row => (row, col),
            MajorOrder::Col => (col, row),
        };
        if major >= self.major_dim() {
            return 0.0;
        }
        self.fiber(major).get(minor).unwrap_or(0.0)
    }

    /// Compressed footprint in bytes: element data plus the pointer vector.
    ///
    /// Elements are charged [`ELEMENT_BYTES`] each (32-bit value+coordinate
    /// word, Table 5); pointers 4 bytes each. This is the `cs{A,B,C}` metric
    /// of Tables 2 and 6.
    pub fn compressed_size_bytes(&self) -> u64 {
        Self::compressed_size_of(self.major_dim(), self.nnz() as u64)
    }

    /// [`CompressedMatrix::compressed_size_bytes`] of a matrix with
    /// `major_dim` fibers holding `nnz` elements, for a caller that knows
    /// only the counts.
    pub fn compressed_size_of(major_dim: u32, nnz: u64) -> u64 {
        nnz * ELEMENT_BYTES + (u64::from(major_dim) + 1) * 4
    }

    /// Reinterprets this matrix as its transpose, free of data movement.
    ///
    /// A CSR matrix of `A` is bit-identical to a CSC matrix of `Aᵀ`; only the
    /// dimension labels and the order tag change. This is the trick that lets
    /// one engine run N-stationary dataflows by "exchanging matrices A and B"
    /// (paper §3.2). The owned form clones the arrays; the engine uses the
    /// allocation-free [`MatrixView::reinterpret_transposed`] instead.
    #[must_use]
    pub fn reinterpret_transposed(&self) -> Self {
        Self {
            rows: self.cols,
            cols: self.rows,
            order: self.order.flipped(),
            ptr: self.ptr.clone(),
            coords: self.coords.clone(),
            values: self.values.clone(),
            transpose_plan: OnceLock::new(),
        }
    }

    /// Explicitly converts to the other major order (CSR ↔ CSC).
    ///
    /// This is the *expensive* operation the paper's inter-layer dataflow
    /// mechanism avoids (Table 4 marks transitions requiring it as "EC").
    /// The accelerator never performs it in hardware; it exists so tests and
    /// the workload suite can prepare operands in the format each dataflow
    /// expects.
    #[must_use]
    pub fn converted(&self, target: MajorOrder) -> Self {
        if target == self.order {
            return self.clone();
        }
        // Two-pass counting sort over the SoA arrays, split into a
        // structure-only plan (counts, prefix sums, per-element destinations)
        // and its application (two scatter passes, one output array each so a
        // single random-write stream is live at a time). The plan depends
        // only on `coords`, so it is memoized: the mapper oracle and the
        // workload suite convert the same operands once per candidate
        // dataflow, and every conversion after the first skips straight to
        // the scatters.
        let plan = self.transpose_plan.get_or_init(|| self.transpose_plan());
        let (coords, values) = apply_transpose_plan(plan, &self.ptr, &self.values);
        // Source fibers are scanned in increasing major order, so each output
        // fiber receives its coordinates already sorted.
        Self {
            rows: self.rows,
            cols: self.cols,
            order: target,
            ptr: plan.ptr.clone(),
            coords,
            values,
            transpose_plan: OnceLock::new(),
        }
    }

    /// Builds the structural half of a conversion: the counting-sort prefix
    /// (the converted pointer vector) and each element's destination slot.
    fn transpose_plan(&self) -> TransposePlan {
        build_transpose_plan(self.minor_dim() as usize, &self.coords)
    }

    /// Structural validation: pointer monotonicity, bounds, fiber ordering.
    ///
    /// # Errors
    ///
    /// Returns the first defect found as a [`FormatError`].
    pub fn validate(&self) -> Result<()> {
        if self.ptr.len() != self.major_dim() as usize + 1 {
            return Err(FormatError::MalformedPointers {
                detail: format!(
                    "pointer vector has {} entries, expected {}",
                    self.ptr.len(),
                    self.major_dim() + 1
                ),
            });
        }
        if self.coords.len() != self.values.len() {
            return Err(FormatError::MalformedPointers {
                detail: format!(
                    "coordinate array ({}) and value array ({}) disagree",
                    self.coords.len(),
                    self.values.len()
                ),
            });
        }
        if self.ptr[0] != 0 || *self.ptr.last().unwrap() != self.coords.len() {
            return Err(FormatError::MalformedPointers {
                detail: "pointer vector does not span the element data".into(),
            });
        }
        for w in self.ptr.windows(2) {
            if w[0] > w[1] {
                return Err(FormatError::MalformedPointers {
                    detail: "pointer vector is not monotone".into(),
                });
            }
        }
        for major in 0..self.major_dim() {
            let fiber = &self.coords[self.ptr[major as usize]..self.ptr[major as usize + 1]];
            for w in fiber.windows(2) {
                if w[0] >= w[1] {
                    return Err(FormatError::UnsortedFiber { fiber: major });
                }
            }
            for &c in fiber {
                if c >= self.minor_dim() {
                    let (row, col) = match self.order {
                        MajorOrder::Row => (major, c),
                        MajorOrder::Col => (c, major),
                    };
                    return Err(FormatError::CoordOutOfBounds {
                        row,
                        col,
                        rows: self.rows,
                        cols: self.cols,
                    });
                }
            }
        }
        Ok(())
    }

    /// Compares against `other` element-wise with absolute tolerance `tol`,
    /// regardless of either matrix's major order.
    pub fn approx_eq(&self, other: &Self, tol: Value) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        let canonical = |m: &Self| -> Vec<(u32, u32, Value)> {
            let mut v: Vec<(u32, u32, Value)> = m
                .fibers()
                .flat_map(|(major, fiber)| {
                    fiber
                        .iter()
                        .map(move |e| match m.order {
                            MajorOrder::Row => (major, e.coord, e.value),
                            MajorOrder::Col => (e.coord, major, e.value),
                        })
                        .collect::<Vec<_>>()
                })
                .filter(|&(_, _, val)| val != 0.0)
                .collect();
            v.sort_by_key(|&(r, c, _)| (r, c));
            v
        };
        let (a, b) = (canonical(self), canonical(other));
        if a.len() != b.len() {
            return false;
        }
        a.iter()
            .zip(&b)
            .all(|(&(ar, ac, av), &(br, bc, bv))| ar == br && ac == bc && (av - bv).abs() <= tol)
    }
}

/// A borrowed, zero-copy view of a [`CompressedMatrix`] — dimensions, order
/// tag and data slices.
///
/// The engine executes entirely on views: a format-matching operand is
/// borrowed as-is, and the N-stationary duality ("exchange matrices A and
/// B", §3.2) is a relabeling via [`MatrixView::reinterpret_transposed`] that
/// moves no data at all.
#[derive(Debug, Clone, Copy)]
pub struct MatrixView<'a> {
    rows: u32,
    cols: u32,
    order: MajorOrder,
    ptr: &'a [usize],
    coords: &'a [u32],
    values: &'a [Value],
}

impl<'a> MatrixView<'a> {
    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// The compression order (CSR or CSC).
    pub fn order(&self) -> MajorOrder {
        self.order
    }

    /// Number of fibers (rows for CSR, columns for CSC).
    pub fn major_dim(&self) -> u32 {
        match self.order {
            MajorOrder::Row => self.rows,
            MajorOrder::Col => self.cols,
        }
    }

    /// Length of each fiber's coordinate space (columns for CSR).
    pub fn minor_dim(&self) -> u32 {
        match self.order {
            MajorOrder::Row => self.cols,
            MajorOrder::Col => self.rows,
        }
    }

    /// Number of stored non-zero elements.
    pub fn nnz(&self) -> usize {
        self.coords.len()
    }

    /// The raw pointer vector (`major_dim + 1` monotone offsets).
    pub fn ptr(&self) -> &'a [usize] {
        self.ptr
    }

    /// All stored coordinates in fiber-major order.
    pub fn coords(&self) -> &'a [u32] {
        self.coords
    }

    /// All stored values, parallel to [`MatrixView::coords`].
    pub fn values(&self) -> &'a [Value] {
        self.values
    }

    /// Zero-copy view of fiber `major`.
    ///
    /// # Panics
    ///
    /// Panics if `major >= self.major_dim()`.
    pub fn fiber(&self, major: u32) -> FiberView<'a> {
        let i = major as usize;
        let (start, end) = (self.ptr[i], self.ptr[i + 1]);
        FiberView::from_parts_unchecked(&self.coords[start..end], &self.values[start..end])
    }

    /// Length (nnz) of fiber `major` without materializing a view.
    pub fn fiber_len(&self, major: u32) -> usize {
        let i = major as usize;
        self.ptr[i + 1] - self.ptr[i]
    }

    /// Iterator over `(major_index, fiber_view)` pairs.
    pub fn fibers(&self) -> FiberIter<'a> {
        FiberIter {
            matrix: *self,
            next: 0,
        }
    }

    /// Reinterprets the view as its transpose: dimension labels swap, the
    /// order tag flips, and no data moves.
    #[must_use]
    pub fn reinterpret_transposed(&self) -> MatrixView<'a> {
        MatrixView {
            rows: self.cols,
            cols: self.rows,
            order: self.order.flipped(),
            ptr: self.ptr,
            coords: self.coords,
            values: self.values,
        }
    }

    /// Copies the view into an owned matrix in `target` order, converting
    /// with the same two-pass counting sort as
    /// [`CompressedMatrix::converted`] but without materializing an
    /// intermediate copy first. No plan is memoized — views are transient;
    /// convert through the owning matrix to benefit from the cache.
    #[must_use]
    pub fn converted(&self, target: MajorOrder) -> CompressedMatrix {
        if target == self.order {
            return self.to_matrix();
        }
        let plan = build_transpose_plan(self.minor_dim() as usize, self.coords);
        let (coords, values) = apply_transpose_plan(&plan, self.ptr, self.values);
        CompressedMatrix {
            rows: self.rows,
            cols: self.cols,
            order: target,
            ptr: plan.ptr,
            coords,
            values,
            transpose_plan: OnceLock::new(),
        }
    }

    /// Copies the view into an owned matrix.
    pub fn to_matrix(&self) -> CompressedMatrix {
        CompressedMatrix {
            rows: self.rows,
            cols: self.cols,
            order: self.order,
            ptr: self.ptr.to_vec(),
            coords: self.coords.to_vec(),
            values: self.values.to_vec(),
            transpose_plan: OnceLock::new(),
        }
    }
}

/// Iterator over the fibers of a [`CompressedMatrix`] or [`MatrixView`].
///
/// Produced by [`CompressedMatrix::fibers`] / [`MatrixView::fibers`].
#[derive(Debug, Clone)]
pub struct FiberIter<'a> {
    matrix: MatrixView<'a>,
    next: u32,
}

impl<'a> Iterator for FiberIter<'a> {
    type Item = (u32, FiberView<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.matrix.major_dim() {
            return None;
        }
        let major = self.next;
        self.next += 1;
        Some((major, self.matrix.fiber(major)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.matrix.major_dim() - self.next) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for FiberIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Element;

    fn sample_csr() -> CompressedMatrix {
        // [[0 2 0]
        //  [1 0 3]]
        CompressedMatrix::from_triplets(
            2,
            3,
            &[(0, 1, 2.0), (1, 0, 1.0), (1, 2, 3.0)],
            MajorOrder::Row,
        )
        .unwrap()
    }

    #[test]
    fn from_triplets_sorts_within_fibers() {
        let m = CompressedMatrix::from_triplets(
            2,
            3,
            &[(1, 2, 3.0), (1, 0, 1.0), (0, 1, 2.0)],
            MajorOrder::Row,
        )
        .unwrap();
        assert_eq!(m, sample_csr());
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds() {
        let err =
            CompressedMatrix::from_triplets(2, 2, &[(2, 0, 1.0)], MajorOrder::Row).unwrap_err();
        assert!(matches!(err, FormatError::CoordOutOfBounds { row: 2, .. }));
    }

    #[test]
    fn from_triplets_rejects_duplicates() {
        let err =
            CompressedMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0)], MajorOrder::Row)
                .unwrap_err();
        assert!(matches!(
            err,
            FormatError::DuplicateCoord { row: 0, col: 0 }
        ));
    }

    #[test]
    fn csc_fibers_are_columns() {
        let m = CompressedMatrix::from_triplets(
            2,
            3,
            &[(0, 1, 2.0), (1, 0, 1.0), (1, 2, 3.0)],
            MajorOrder::Col,
        )
        .unwrap();
        assert_eq!(m.major_dim(), 3);
        assert_eq!(
            m.fiber(0).to_fiber().into_inner(),
            vec![Element::new(1, 1.0)]
        );
        assert_eq!(
            m.fiber(1).to_fiber().into_inner(),
            vec![Element::new(0, 2.0)]
        );
        assert_eq!(
            m.fiber(2).to_fiber().into_inner(),
            vec![Element::new(1, 3.0)]
        );
    }

    #[test]
    fn get_works_in_both_orders() {
        let csr = sample_csr();
        let csc = csr.converted(MajorOrder::Col);
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(csr.get(r, c), csc.get(r, c), "mismatch at ({r},{c})");
            }
        }
        assert_eq!(csr.get(1, 2), 3.0);
        assert_eq!(csr.get(0, 0), 0.0);
    }

    #[test]
    fn conversion_roundtrip_preserves_matrix() {
        let csr = sample_csr();
        let back = csr.converted(MajorOrder::Col).converted(MajorOrder::Row);
        assert_eq!(csr, back);
    }

    #[test]
    fn converted_to_same_order_is_identity() {
        let csr = sample_csr();
        assert_eq!(csr.converted(MajorOrder::Row), csr);
    }

    #[test]
    fn reinterpret_transposed_swaps_dims_without_moving_data() {
        let csr = sample_csr();
        let t = csr.reinterpret_transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.order(), MajorOrder::Col);
        assert_eq!(t.coords(), csr.coords());
        assert_eq!(t.values(), csr.values());
        // A[1][2] == Aᵀ[2][1]
        assert_eq!(t.get(2, 1), 3.0);
    }

    #[test]
    fn view_transpose_moves_no_data() {
        let csr = sample_csr();
        let v = csr.view().reinterpret_transposed();
        assert_eq!(v.rows(), 3);
        assert_eq!(v.cols(), 2);
        assert_eq!(v.order(), MajorOrder::Col);
        assert!(std::ptr::eq(v.coords(), csr.coords()));
        assert!(std::ptr::eq(v.values(), csr.values()));
        assert_eq!(v.to_matrix(), csr.reinterpret_transposed());
    }

    #[test]
    fn zero_matrix_has_no_elements() {
        let z = CompressedMatrix::zero(4, 5, MajorOrder::Col);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.major_dim(), 5);
        z.validate().unwrap();
    }

    #[test]
    fn density_and_sparsity() {
        let m = sample_csr();
        assert!((m.density() - 0.5).abs() < 1e-9);
        assert!((m.sparsity_percent() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn compressed_size_counts_elements_and_pointers() {
        let m = sample_csr();
        assert_eq!(m.compressed_size_bytes(), 3 * 4 + 3 * 4);
    }

    #[test]
    fn fibers_iterator_visits_all_majors() {
        let m = sample_csr();
        let lens: Vec<usize> = m.fibers().map(|(_, f)| f.len()).collect();
        assert_eq!(lens, vec![1, 2]);
        assert_eq!(m.fibers().len(), 2);
    }

    #[test]
    fn elements_iterates_in_fiber_major_order() {
        let m = sample_csr();
        let elems: Vec<Element> = m.elements().collect();
        assert_eq!(
            elems,
            vec![
                Element::new(1, 2.0),
                Element::new(0, 1.0),
                Element::new(2, 3.0)
            ]
        );
    }

    #[test]
    fn from_fibers_matches_from_triplets() {
        let m = CompressedMatrix::from_fibers(
            2,
            3,
            MajorOrder::Row,
            vec![
                Fiber::from_sorted(vec![Element::new(1, 2.0)]),
                Fiber::from_sorted(vec![Element::new(0, 1.0), Element::new(2, 3.0)]),
            ],
        )
        .unwrap();
        assert_eq!(m, sample_csr());
    }

    #[test]
    fn from_fibers_rejects_wrong_count() {
        let err =
            CompressedMatrix::from_fibers(2, 3, MajorOrder::Row, vec![Fiber::new()]).unwrap_err();
        assert!(matches!(err, FormatError::MalformedPointers { .. }));
    }

    #[test]
    fn from_fibers_rejects_out_of_range_coord() {
        let err = CompressedMatrix::from_fibers(
            2,
            3,
            MajorOrder::Row,
            vec![Fiber::from_sorted(vec![Element::new(3, 1.0)]), Fiber::new()],
        )
        .unwrap_err();
        assert!(matches!(err, FormatError::CoordOutOfBounds { .. }));
    }

    #[test]
    fn validate_accepts_well_formed() {
        sample_csr().validate().unwrap();
    }

    #[test]
    fn approx_eq_across_orders() {
        let csr = sample_csr();
        let csc = csr.converted(MajorOrder::Col);
        assert!(csr.approx_eq(&csc, 1e-6));
    }

    #[test]
    fn approx_eq_detects_value_difference() {
        let a = sample_csr();
        let b = CompressedMatrix::from_triplets(
            2,
            3,
            &[(0, 1, 2.5), (1, 0, 1.0), (1, 2, 3.0)],
            MajorOrder::Row,
        )
        .unwrap();
        assert!(!a.approx_eq(&b, 0.1));
        assert!(a.approx_eq(&b, 0.6));
    }

    #[test]
    fn major_order_flip_and_names() {
        assert_eq!(MajorOrder::Row.flipped(), MajorOrder::Col);
        assert_eq!(MajorOrder::Col.flipped(), MajorOrder::Row);
        assert_eq!(MajorOrder::Row.format_name(), "CSR");
        assert_eq!(MajorOrder::Col.format_name(), "CSC");
    }
}
