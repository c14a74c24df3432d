//! The benchmark harness around the simulator.
//!
//! [`repro`] renders every table and figure of the paper's evaluation from
//! one suite pass and one Table 6 pass; the `repro_all` binary is its
//! command line. The other modules hold what the harness binaries share:
//! running one layer across the four accelerators and aggregating
//! per-model results ([`runner`]), the mapper audit ([`mapper`]), the
//! golden corpus ([`golden`]) and text-table rendering ([`render`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod golden;
pub mod mapper;
pub mod render;
pub mod repro;
pub mod runner;

pub use runner::DEFAULT_SEED;
