//! Shared helpers for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation section has a dedicated
//! binary under `src/bin/` (`repro_all` runs them all). This library
//! holds the pieces they share: running one layer across the four
//! accelerators, aggregating per-model results, and text-table rendering.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod golden;
pub mod mapper;
pub mod render;
pub mod runner;

pub use runner::{
    run_layer, run_layer_with, run_model, run_model_with, LayerResults, ModelResults, SystemId,
    DEFAULT_SEED,
};
