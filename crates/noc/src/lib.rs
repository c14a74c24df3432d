//! Flexagon's three-tier reconfigurable NoC (paper §3.1, Fig. 4).
//!
//! * [`DistributionNetwork`] — the Benes-topology network delivering
//!   elements from the L1 structures to the multipliers (unicast, multicast
//!   and broadcast).
//! * [`MultiplierNetwork`] — the linear array of multipliers, each operating
//!   in *Multiplier* or *Forwarder* mode (Fig. 4c).
//! * [`MergerReductionNetwork`] — the paper's key novelty: one augmented
//!   tree whose nodes act as adders, comparators, or both, unifying the
//!   reduction (Inner Product) and merging (Outer Product / Gustavson's)
//!   operations on the same substrate.
//!
//! All networks are functionally exact (they move real elements) and charge
//! cycles with the pipelined-tree model: fill latency = tree depth, then
//! bandwidth-limited streaming.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod distribution;
mod mrn;
mod multiplier;

pub use distribution::{CastKind, DistributionNetwork, DnConfig};
pub use mrn::{MergeOutcome, MergerReductionNetwork, MrnConfig};
pub use multiplier::{MnConfig, MultiplierMode, MultiplierNetwork};
