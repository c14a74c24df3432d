//! Flexagon's memory hierarchy (paper §3.4, Figs. 9 and 10).
//!
//! The paper designs "a customized L1 memory level specifically tailored for
//! the common and different patterns among the three dataflows":
//!
//! * [`StaFifo`] — a small read-only FIFO for the stationary matrix, whose
//!   elements are always read once, sequentially.
//! * [`StrCache`] — a read-only set-associative cache for the streaming
//!   matrix, operating on a virtual address space relative to the beginning
//!   of the matrix; sized for the worst-case Gustavson access pattern.
//! * [`Psram`] — a way-combining partial-sum buffer whose sets are indexed
//!   by output row and whose blocks are tagged by k-iteration, with
//!   `PartialWrite` / `Consume` operations.
//! * [`WriteBuffer`] — a FIFO hiding the latency of final output stores.
//! * [`Dram`] — the off-chip HBM 2.0 channel (SST's role in the paper).
//!
//! Every structure counts its own traffic; those counters feed the on-chip
//! (Fig. 14) and off-chip (Fig. 16) traffic figures and the miss-rate figure
//! (Fig. 15).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod config;
mod dram;
mod fifo;
mod psram;
mod wbuf;

pub use cache::{AccessOutcome, CacheConfig, PassMemo, StrCache};
pub use config::MemoryConfig;
pub use dram::{Dram, DramConfig};
pub use fifo::{FifoConfig, StaFifo};
pub use psram::{Psram, PsramConfig, PsramUsage};
pub use wbuf::WriteBuffer;
