//! Sparse matrix substrate for the Flexagon accelerator simulator.
//!
//! This crate provides the data representations the paper's hardware operates
//! on:
//!
//! * [`Element`] — a `(coordinate, value)` duple, the unit the networks move.
//! * [`Fiber`] — a compressed row or column: a coordinate-sorted list of
//!   elements (the paper's §2.1 terminology, borrowed from GAMMA).
//! * [`CompressedMatrix`] — the unified CSR/CSC representation. The paper
//!   observes that "both CSR and CSC employ the same compression method, and
//!   thus, can be seen as a single compression format"; we encode that
//!   observation directly: one type, tagged with a [`MajorOrder`].
//! * [`DenseMatrix`] — dense reference used by tests and golden models.
//! * [`RowAccum`] — tiered per-row psum accumulators (dense array, paged
//!   bitmap-directed gather, or sorted-run list) behind the Outer-Product
//!   and Gustavson merge paths.
//! * [`FiberFormat`] / [`FormattedMatrix`] — storage-format tokens:
//!   `soa`, the lossless labels `bcsr4`/`bcsr8`/`ell`, and the INT8
//!   quantization `q8`, the one format that changes values
//!   ([`mod@format`]).
//! * Workload generators ([`gen`]) and reference SpGEMM kernels
//!   ([`mod@reference`]) implementing the Inner-Product,
//!   Outer-Product and Gustavson algorithms in software.
//!
//! # Example
//!
//! ```
//! use flexagon_sparse::{CompressedMatrix, MajorOrder, reference};
//!
//! # fn main() -> Result<(), flexagon_sparse::FormatError> {
//! // A 2x3 matrix in CSR with 3 non-zeros.
//! let a = CompressedMatrix::from_triplets(
//!     2, 3, &[(0, 1, 2.0), (1, 0, 1.0), (1, 2, 3.0)], MajorOrder::Row)?;
//! // A 3x2 matrix in CSR.
//! let b = CompressedMatrix::from_triplets(
//!     3, 2, &[(0, 0, 4.0), (1, 1, 5.0), (2, 0, 6.0)], MajorOrder::Row)?;
//! let c = reference::gustavson(&a, &b)?;
//! assert_eq!(c.get(0, 1), 10.0);
//! assert_eq!(c.get(1, 0), 22.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accum;
mod compressed;
mod dense;
mod element;
mod error;
mod fiber;
pub mod format;
pub mod gen;
pub mod io;
pub mod merge;
pub mod reference;
pub mod stats;
pub mod validate;

pub use accum::{AccumConfig, AccumTier, RowAccum};
pub use compressed::{CompressedMatrix, FiberIter, MajorOrder, MatrixView};
pub use dense::DenseMatrix;
pub use element::{Element, Value, ELEMENT_BYTES};
pub use error::FormatError;
pub use fiber::{ElementIter, Fiber, FiberView};
pub use format::{FiberFormat, FormattedMatrix};
pub use validate::{validate_matrix, ValidationConfig, ValidationError, ValuePolicy};

/// Convenience result alias for fallible format operations.
pub type Result<T> = std::result::Result<T, FormatError>;
