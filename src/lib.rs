//! # Flexagon
//!
//! A from-scratch Rust reproduction of *"Flexagon: A Multi-Dataflow
//! Sparse-Sparse Matrix Multiplication Accelerator for Efficient DNN
//! Processing"* (ASPLOS 2023).
//!
//! This facade crate re-exports the workspace's sub-crates:
//!
//! * [`sparse`] — compressed formats (unified CSR/CSC), fibers, generators,
//!   reference SpMSpM kernels.
//! * [`sim`] — cycle-accounting substrate.
//! * [`mem`] — the 3-tier L1 memory organization (STA FIFO, STR cache,
//!   PSRAM) plus the DRAM model.
//! * [`noc`] — the three on-chip networks (distribution, multiplier,
//!   merger-reduction) and the baseline reduction/merger networks.
//! * [`core`] — the accelerator engine, the six dataflows, the baseline
//!   accelerators (SIGMA-like, SpArch-like, GAMMA-like, CPU) and the mapper.
//! * [`dnn`] — the eight-model sparse DNN workload suite.
//! * [`rtl`] — area/power models calibrated to the paper's RTL results.
//!
//! # Quickstart
//!
//! ```
//! use flexagon::core::{Accelerator, Dataflow, ExecutionRequest, Flexagon};
//! use flexagon::sparse::{gen, MajorOrder};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let a = gen::random(64, 64, 0.2, MajorOrder::Row, &mut rng);
//! let b = gen::random(64, 64, 0.3, MajorOrder::Row, &mut rng);
//!
//! let accel = Flexagon::with_defaults();
//! let ex = accel.execute(ExecutionRequest::new(&a, &b).dataflow(Dataflow::GustavsonM))?;
//! let report = &ex.output.report;
//! println!("{} cycles, {} bytes off-chip", report.total_cycles, report.offchip_bytes());
//! # Ok(())
//! # }
//! ```

pub use flexagon_core as core;
pub use flexagon_dnn as dnn;
pub use flexagon_mem as mem;
pub use flexagon_noc as noc;
pub use flexagon_rtl as rtl;
pub use flexagon_sim as sim;
pub use flexagon_sparse as sparse;
