//! Error type for accelerator operations.

use crate::Dataflow;
use flexagon_sparse::{FormatError, ValidationError};

/// Errors produced while configuring or running an accelerator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A sparse-format defect (dimensions, ordering, bounds).
    Format(FormatError),
    /// An operand failed untrusted-input validation before reaching the
    /// engine (requests built with [`crate::ExecutionRequest::validated`]).
    Validation(ValidationError),
    /// The accelerator does not support the requested dataflow — e.g. the
    /// SIGMA-like baseline asked to run Gustavson's.
    UnsupportedDataflow {
        /// Name of the accelerator that rejected the request.
        accelerator: String,
        /// The requested dataflow.
        dataflow: Dataflow,
    },
    /// The request's [`crate::CancelToken`] fired before execution
    /// finished: the deadline passed (or the token was cancelled) and the
    /// engine stopped at the next band/tile/merge-pass boundary. No
    /// partial result is returned.
    DeadlineExceeded,
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Format(e) => write!(f, "{e}"),
            Self::Validation(e) => write!(f, "invalid operand: {e}"),
            Self::UnsupportedDataflow {
                accelerator,
                dataflow,
            } => {
                write!(f, "accelerator {accelerator} does not support {dataflow}")
            }
            Self::DeadlineExceeded => {
                write!(f, "execution cancelled: deadline exceeded")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Format(e) => Some(e),
            Self::Validation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FormatError> for CoreError {
    fn from(e: FormatError) -> Self {
        Self::Format(e)
    }
}

impl From<ValidationError> for CoreError {
    fn from(e: ValidationError) -> Self {
        Self::Validation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = CoreError::UnsupportedDataflow {
            accelerator: "SIGMA-like".into(),
            dataflow: Dataflow::GustavsonM,
        };
        assert!(format!("{e}").contains("SIGMA-like"));
        assert!(e.source().is_none());

        let f: CoreError = FormatError::DimensionMismatch {
            left_cols: 2,
            right_rows: 3,
        }
        .into();
        assert!(f.source().is_some());

        let d = CoreError::DeadlineExceeded;
        assert!(format!("{d}").contains("deadline"));
        assert!(d.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
