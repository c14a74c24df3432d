//! Validated ingestion for untrusted compressed matrices.
//!
//! The engine's hot paths assume their operands hold the `CompressedMatrix`
//! invariants — monotone pointers spanning the element data, per-fiber
//! coordinates strictly increasing and in bounds — and index without
//! checking. Matrices built through [`CompressedMatrix::from_triplets`] /
//! [`CompressedMatrix::from_fibers`] carry those invariants by
//! construction, but matrices *decoded from bytes* (the serve protocol, a
//! Matrix Market file, a golden fixture) arrive from outside the type
//! system's guarantees. This module is the single choke point such bytes
//! must pass:
//!
//! * [`ValidationError`] — the structured taxonomy: every structural
//!   defect ([`FormatError`]), plus the untrusted-input classes the
//!   structural check cannot see (non-finite values, dimension/nnz
//!   resource bombs, element-count lies).
//! * [`ValidationConfig`] — the policy knob. [`ValidationConfig::permissive`]
//!   checks structure only (in-process data, where NaN/Inf are the
//!   caller's business); [`ValidationConfig::untrusted`] adds the
//!   network-facing policy: non-finite values rejected and dimensions/nnz
//!   capped below the allocation-bomb range near the `u32` boundary (a
//!   wire matrix claiming `u32::MAX` rows costs its sender a few bytes
//!   and would cost the engine tens of gigabytes of `O(rows)` scratch).
//! * [`validate_matrix`] — runs a config against a matrix.
//!
//! Empty fibers need no normalization pass: `ptr[i] == ptr[i+1]` *is*
//! their normal form — the only representation CSR/CSC admits — so
//! validation accepts all-empty and zero-dimension matrices as first-class
//! citizens (the adversarial generator families pin the engine on them).
//!
//! The invariant the fuzz harness enforces on top of this module:
//! validated input never panics downstream, invalid input always yields a
//! typed error here.

use crate::{CompressedMatrix, FormatError, Value};

/// What to do with non-finite (`NaN`/`±Inf`) stored values.
///
/// JSON cannot spell `NaN`, but `1e999` parses to `+Inf` — a wire operand
/// can smuggle non-finite values past the parser, and one `Inf` poisons
/// every output element its fiber touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValuePolicy {
    /// Accept any bit pattern (in-process data; the default).
    #[default]
    AllowNonFinite,
    /// Reject `NaN` and `±Inf` with [`ValidationError::NonFiniteValue`].
    RejectNonFinite,
}

/// Dimension ceiling of [`ValidationConfig::untrusted`]: 2^24 rows or
/// columns. Far above every workload the simulator models, far below the
/// `u32` boundary where a tiny wire payload (a CSC matrix with
/// `rows = u32::MAX` has a three-entry pointer vector) buys gigabytes of
/// `O(dim)` engine scratch.
pub const UNTRUSTED_MAX_DIM: u32 = 1 << 24;

/// Element ceiling of [`ValidationConfig::untrusted`]: 2^28 stored
/// elements (2 GiB of element data) — beyond what a 64 MiB frame can
/// carry, so it only triggers on programmatic misuse.
pub const UNTRUSTED_MAX_NNZ: u64 = 1 << 28;

/// Validation policy: value handling plus resource ceilings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationConfig {
    /// Non-finite value handling.
    pub values: ValuePolicy,
    /// Inclusive ceiling on `rows` and `cols`.
    pub max_dim: u32,
    /// Inclusive ceiling on the stored element count.
    pub max_nnz: u64,
}

impl ValidationConfig {
    /// Structure-only validation: any dimensions, any value bits. The
    /// policy for data this process built itself.
    pub fn permissive() -> Self {
        Self {
            values: ValuePolicy::AllowNonFinite,
            max_dim: u32::MAX,
            max_nnz: u64::MAX,
        }
    }

    /// The network-facing policy: structure, finite values, and
    /// dimensions/nnz capped at [`UNTRUSTED_MAX_DIM`] /
    /// [`UNTRUSTED_MAX_NNZ`].
    pub fn untrusted() -> Self {
        Self {
            values: ValuePolicy::RejectNonFinite,
            max_dim: UNTRUSTED_MAX_DIM,
            max_nnz: UNTRUSTED_MAX_NNZ,
        }
    }
}

impl Default for ValidationConfig {
    fn default() -> Self {
        Self::permissive()
    }
}

/// The structured taxonomy of ingestion defects.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ValidationError {
    /// A structural defect: unsorted or duplicate coordinates,
    /// out-of-bounds indices, malformed pointers (the [`FormatError`]
    /// taxonomy, verbatim).
    Structure(FormatError),
    /// A stored value is `NaN` or `±Inf` under
    /// [`ValuePolicy::RejectNonFinite`].
    NonFiniteValue {
        /// Index into the value array (fiber-major order).
        index: usize,
        /// The offending value.
        value: Value,
    },
    /// A dimension exceeds the configured ceiling (an allocation bomb near
    /// the `u32` boundary, not a representable workload).
    DimTooLarge {
        /// `"rows"` or `"cols"`.
        what: &'static str,
        /// The declared dimension (`u64` so loaders can report dimensions
        /// beyond the `u32` coordinate space verbatim).
        value: u64,
        /// The configured ceiling.
        limit: u32,
    },
    /// The stored element count exceeds the configured ceiling.
    NnzTooLarge {
        /// The element count.
        nnz: u64,
        /// The configured ceiling.
        limit: u64,
    },
    /// A header-declared element count disagrees with the elements
    /// actually present (truncated or padded input).
    NnzMismatch {
        /// The count the header declared.
        declared: u64,
        /// The count actually parsed.
        actual: u64,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Structure(e) => write!(f, "{e}"),
            Self::NonFiniteValue { index, value } => {
                write!(f, "non-finite value {value} at element {index}")
            }
            Self::DimTooLarge { what, value, limit } => {
                write!(f, "{what} dimension {value} exceeds the ceiling of {limit}")
            }
            Self::NnzTooLarge { nnz, limit } => {
                write!(f, "{nnz} stored elements exceed the ceiling of {limit}")
            }
            Self::NnzMismatch { declared, actual } => {
                write!(
                    f,
                    "header declares {declared} elements but {actual} are present"
                )
            }
        }
    }
}

impl std::error::Error for ValidationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Structure(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FormatError> for ValidationError {
    fn from(e: FormatError) -> Self {
        Self::Structure(e)
    }
}

/// Validates `m` under `cfg`: resource ceilings first (cheap, and they
/// bound the cost of everything after), then structure, then the value
/// policy.
///
/// # Errors
///
/// The first defect found, as a [`ValidationError`].
pub fn validate_matrix(
    m: &CompressedMatrix,
    cfg: &ValidationConfig,
) -> Result<(), ValidationError> {
    for (what, value) in [("rows", m.rows()), ("cols", m.cols())] {
        if value > cfg.max_dim {
            return Err(ValidationError::DimTooLarge {
                what,
                value: u64::from(value),
                limit: cfg.max_dim,
            });
        }
    }
    if m.nnz() as u64 > cfg.max_nnz {
        return Err(ValidationError::NnzTooLarge {
            nnz: m.nnz() as u64,
            limit: cfg.max_nnz,
        });
    }
    m.validate()?;
    if cfg.values == ValuePolicy::RejectNonFinite {
        if let Some((index, &value)) = m.values().iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(ValidationError::NonFiniteValue { index, value });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MajorOrder;

    fn sample() -> CompressedMatrix {
        CompressedMatrix::from_triplets(
            2,
            3,
            &[(0, 1, 2.0), (1, 0, 1.0), (1, 2, 3.0)],
            MajorOrder::Row,
        )
        .unwrap()
    }

    #[test]
    fn well_formed_passes_both_policies() {
        let m = sample();
        validate_matrix(&m, &ValidationConfig::permissive()).unwrap();
        validate_matrix(&m, &ValidationConfig::untrusted()).unwrap();
    }

    #[test]
    fn empty_fibers_are_normal_form() {
        // All-empty, zero-dimension, and single-empty-fiber matrices are
        // already normalized — validation accepts them as-is.
        for m in [
            CompressedMatrix::zero(8, 8, MajorOrder::Row),
            CompressedMatrix::zero(0, 0, MajorOrder::Row),
            CompressedMatrix::zero(0, 5, MajorOrder::Col),
            CompressedMatrix::zero(1, 1, MajorOrder::Col),
        ] {
            validate_matrix(&m, &ValidationConfig::untrusted()).unwrap();
        }
    }

    #[test]
    fn non_finite_values_follow_the_policy() {
        let m = CompressedMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1.0), (1, 1, f32::INFINITY)],
            MajorOrder::Row,
        )
        .unwrap();
        validate_matrix(&m, &ValidationConfig::permissive()).unwrap();
        let err = validate_matrix(&m, &ValidationConfig::untrusted()).unwrap_err();
        assert!(matches!(
            err,
            ValidationError::NonFiniteValue { index: 1, .. }
        ));
        let nan =
            CompressedMatrix::from_triplets(1, 1, &[(0, 0, f32::NAN)], MajorOrder::Row).unwrap();
        assert!(validate_matrix(&nan, &ValidationConfig::untrusted()).is_err());
    }

    #[test]
    fn u32_boundary_dims_are_rejected_cheaply() {
        // A CSC matrix with u32::MAX rows has a tiny pointer vector — the
        // ceiling must catch it before any O(rows) allocation downstream.
        let bomb = CompressedMatrix::zero(u32::MAX, 2, MajorOrder::Col);
        let err = validate_matrix(&bomb, &ValidationConfig::untrusted()).unwrap_err();
        assert!(matches!(
            err,
            ValidationError::DimTooLarge {
                what: "rows",
                value,
                ..
            } if value == u64::from(u32::MAX)
        ));
        let wide = CompressedMatrix::zero(2, u32::MAX - 1, MajorOrder::Row);
        assert!(matches!(
            validate_matrix(&wide, &ValidationConfig::untrusted()).unwrap_err(),
            ValidationError::DimTooLarge { what: "cols", .. }
        ));
        // The permissive policy still takes them (structure is sound).
        validate_matrix(&bomb, &ValidationConfig::permissive()).unwrap();
    }

    #[test]
    fn structural_defects_surface_as_structure() {
        let m = CompressedMatrix::from_raw_parts(
            2,
            2,
            MajorOrder::Row,
            vec![0, 1, 1],
            vec![5],
            vec![1.0],
        )
        .unwrap_err();
        assert!(matches!(
            m,
            ValidationError::Structure(FormatError::CoordOutOfBounds { .. })
        ));
    }

    #[test]
    fn display_is_informative() {
        let e = ValidationError::NnzMismatch {
            declared: 10,
            actual: 7,
        };
        assert!(format!("{e}").contains("declares 10"));
        let e = ValidationError::DimTooLarge {
            what: "rows",
            value: u64::from(u32::MAX),
            limit: UNTRUSTED_MAX_DIM,
        };
        assert!(format!("{e}").contains("ceiling"));
        let e: ValidationError = FormatError::UnsortedFiber { fiber: 3 }.into();
        assert!(format!("{e}").contains("unsorted"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ValidationError>();
    }
}
