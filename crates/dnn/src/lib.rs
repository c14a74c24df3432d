//! The sparse DNN workload suite (paper Tables 2 and 6).
//!
//! The paper evaluates on eight pruned DNN models from MLPerf and beyond:
//! AlexNet, SqueezeNet, VGG-16, ResNet-50, SSD-ResNets, SSD-MobileNets,
//! DistilBERT and MobileBERT. We do not have the checkpoints; this crate
//! reconstructs each model as a list of per-layer SpMSpM problems
//! ([`LayerSpec`]) with the published GEMM dimensions and per-model
//! sparsity ratios (Table 2), materialized as unstructured-random sparse
//! matrices from a deterministic seed.
//!
//! The nine representative layers of Table 6 are embedded at their exact
//! published dimensions and sparsities — both inside their parent models
//! (e.g. `V0` is layer 0 of [`DnnModel::vgg16`]) and directly via
//! [`table6::layers`].
//!
//! Very large fully-connected / transformer layers are scaled down so the
//! whole suite simulates in minutes on a laptop; the scaling is uniform and
//! documented per model, and preserves the features that drive dataflow
//! choice (dimension ratios, sparsity degrees, operand-size-to-cache
//! ratios). See the scaling note at the top of `src/models.rs`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod layer;
mod models;
mod stats;
pub mod table6;

pub use layer::{LayerMatrices, LayerSpec};
pub use models::{suite, DnnModel, Domain};
pub use stats::{AgreementStats, ModelStats};
