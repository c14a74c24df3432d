//! The Flexagon accelerator engine and its baselines.
//!
//! This crate implements the paper's primary contribution: a single hardware
//! substrate that executes all six SpMSpM dataflows (Inner Product, Outer
//! Product and Gustavson's, each in M- and N-stationary variants), plus the
//! three fixed-dataflow baseline accelerators it is evaluated against and
//! the CPU reference.
//!
//! * [`Dataflow`] — the six dataflows and their Table 3 taxonomy.
//! * [`transitions`] — the inter-layer format-compatibility rules (Table 4).
//! * [`AcceleratorConfig`] — the Table 5 configuration.
//! * [`Accelerator`] — common interface; implemented by [`Flexagon`],
//!   [`SigmaLike`], [`SparchLike`] and [`GammaLike`]. The CPU reference
//!   [`CpuMkl`] is not an accelerator: it has its own `run` and `report`.
//! * [`ExecutionReport`] — cycles, phase split, on-/off-chip traffic, cache
//!   and PSRAM statistics for one SpMSpM execution.
//! * [`mapper`] — per-layer dataflow selection: [`MappingStrategy`]
//!   (oracle sweep, calibrated heuristic, or pinned dataflow) with the
//!   fitted [`MapperCalibration`] cost-model corrections, plus
//!   [`FormatChoice`], which takes the config's storage format or pins
//!   one.
//! * [`Accelerator::execute`] — the one execution entry point: an
//!   [`ExecutionRequest`] carries strategy, format, validation and an
//!   optional [`CancelToken`] deadline. An accelerator is a plain
//!   configuration value; every execution builds its scratch and simulated
//!   hardware fresh, so runs never influence one another.
//! * [`Accelerator::simulate`] — the same request, resolved and simulated
//!   the same way, for its [`ExecutionReport`] alone: C is never computed,
//!   and the report is byte-identical to `execute`'s.
//! * [`CancelToken`] — cooperative cancellation, polled at band/tile/
//!   merge-pass boundaries; unarmed tokens are result-transparent, armed
//!   ones surface [`CoreError::DeadlineExceeded`].
//!
//! Every [`Accelerator::execute`] run is functionally exact: the returned
//! output matrix is produced by actually executing the dataflow
//! (stationary/streaming/merging phases against the simulated memory
//! structures) and can be validated against the dense reference. A
//! [`Accelerator::simulate`] run walks the same phases over the operands'
//! structure only, since no cycle or traffic charge reads a value.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod accel;
mod cancel;
mod config;
mod cpu;
mod dataflow;
mod engine;
mod error;
pub mod mapper;
mod report;
pub mod transitions;

pub use accel::{
    Accelerator, Execution, ExecutionRequest, Flexagon, GammaLike, RunOutput, SigmaLike,
    Simulation, SparchLike,
};
pub use cancel::CancelToken;
pub use config::{AcceleratorConfig, EngineConfig};
pub use cpu::{CpuConfig, CpuMkl};
pub use dataflow::{Dataflow, DataflowClass, Stationarity};
pub use error::CoreError;
pub use mapper::{ClassCalibration, FormatChoice, MapperCalibration, MappingStrategy};
pub use report::{ExecutionReport, TrafficReport};

/// Convenience result alias for accelerator operations.
pub type Result<T> = std::result::Result<T, CoreError>;
