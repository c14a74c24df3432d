//! The CPU MKL baseline (paper §4).
//!
//! The paper measures Intel MKL's SpMSpM on a 4-core i5-7400 at 3 GHz and
//! reports total cycles per model (Table 2, last column). We cannot run
//! MKL; instead we compute C the way MKL's SpGEMM does, with Gustavson's
//! row-by-row algorithm over a row accumulator, and charge a calibrated
//! superscalar-CPU cost model.
//!
//! For each row of A, one reused [`RowAccum`] armed over B's columns takes
//! the selected rows of B, scaled, in ascending k, and is drained into that
//! row of C. The accumulator stores a coordinate's first value and adds
//! later ones in arrival order, the tie-break of
//! [`merge_accumulate`](flexagon_sparse::merge::merge_accumulate), so C is
//! bit-identical to the golden
//! [`reference::gustavson`](flexagon_sparse::reference::gustavson).
//!
//! The cost model sees only the work profile and nnz(C), never how the
//! host computed C. It only needs to place the CPU 1–2 orders of magnitude
//! behind the accelerators — the property Fig. 12's speed-ups rest on —
//! and its two constants are documented and tunable. A caller that already
//! holds both counts, such as the per-layer harness beside an accelerator
//! run of the same operands, takes the report from [`CpuMkl::report`] and
//! skips the SpGEMM.

use crate::{Dataflow, ExecutionReport, Result, RunOutput, TrafficReport};
use flexagon_sim::{CounterSet, Cycle, Phase, PhaseClock, Ratio};
use flexagon_sparse::{
    stats::SpGemmWork, AccumConfig, CompressedMatrix, Fiber, FormatError, MajorOrder, RowAccum,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Cost-model constants for the CPU baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Cycles per effectual multiply-accumulate.
    ///
    /// MKL's sparse-sparse kernel is gather/scatter-bound: each product
    /// involves an index load, a value load, a hash/accumulator update and
    /// poor SIMD utilization. The default (4 cycles/product across the
    /// whole chip) reproduces the order of magnitude of Table 2's measured
    /// cycle counts on our synthetic suite.
    pub cycles_per_product: f64,
    /// Cycles per compressed input/output element touched (streaming the
    /// operands and writing the result through the cache hierarchy).
    pub cycles_per_element: f64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self {
            cycles_per_product: 4.0,
            cycles_per_element: 2.0,
        }
    }
}

/// The CPU MKL stand-in: row-accumulator Gustavson SpGEMM plus a cycle model.
#[derive(Debug, Clone, Default)]
pub struct CpuMkl {
    cfg: CpuConfig,
}

impl CpuMkl {
    /// Creates a CPU baseline with the given cost model.
    pub fn new(cfg: CpuConfig) -> Self {
        Self { cfg }
    }

    /// Creates a CPU baseline with the default calibration.
    pub fn with_defaults() -> Self {
        Self::new(CpuConfig::default())
    }

    /// The cost-model constants.
    pub fn config(&self) -> CpuConfig {
        self.cfg
    }

    /// Executes `a x b` (any input formats; CSR output) and returns the
    /// result with a cycle estimate in an [`ExecutionReport`].
    ///
    /// The report reuses the accelerator schema: all cycles land in the
    /// streaming phase, and no on-chip structures are modelled.
    ///
    /// # Errors
    ///
    /// Returns a format error on dimension mismatch.
    pub fn run(&self, a: &CompressedMatrix, b: &CompressedMatrix) -> Result<RunOutput> {
        let a_csr = csr(a);
        let b_csr = csr(b);
        let work = SpGemmWork::of(&a_csr, &b_csr);
        let c = gustavson(&a_csr, &b_csr)?;
        let report = self.report(&work, c.nnz() as u64);
        Ok(RunOutput { c, report })
    }

    /// The report [`CpuMkl::run`] returns for a product with work profile
    /// `work` and `nnz_c` output nonzeros, without computing C: the cost
    /// model reads nothing else.
    pub fn report(&self, work: &SpGemmWork, nnz_c: u64) -> ExecutionReport {
        let cycles = self.estimate_cycles(work, nnz_c);
        let mut phases = PhaseClock::new();
        phases.advance(Phase::Streaming, cycles);
        ExecutionReport {
            dataflow: Dataflow::GustavsonM,
            total_cycles: cycles,
            phases,
            traffic: TrafficReport::default(),
            cache: Ratio::new(),
            psram: flexagon_mem::PsramUsage::default(),
            work: *work,
            tiles: 0,
            multiplications: work.products,
            explicit_conversions: 0,
            counters: CounterSet::new(),
        }
    }

    /// The cycle estimate for a given work profile and output size.
    pub fn estimate_cycles(&self, work: &SpGemmWork, nnz_c: u64) -> Cycle {
        let elements = work.nnz_a + work.nnz_b + nnz_c;
        let cycles = self.cfg.cycles_per_product * work.products as f64
            + self.cfg.cycles_per_element * elements as f64;
        cycles.ceil() as Cycle
    }
}

/// Borrows `m` when it is already CSR and converts it otherwise.
fn csr(m: &CompressedMatrix) -> Cow<'_, CompressedMatrix> {
    if m.order() == MajorOrder::Row {
        Cow::Borrowed(m)
    } else {
        Cow::Owned(m.converted(MajorOrder::Row))
    }
}

/// Row-accumulator Gustavson over CSR operands, returning C in CSR.
fn gustavson(a: &CompressedMatrix, b: &CompressedMatrix) -> Result<CompressedMatrix> {
    if a.cols() != b.rows() {
        return Err(FormatError::DimensionMismatch {
            left_cols: a.cols(),
            right_rows: b.rows(),
        }
        .into());
    }
    let cfg = AccumConfig::default();
    let mut acc = RowAccum::new();
    let mut rows = Vec::with_capacity(a.rows() as usize);
    for (_, a_row) in a.fibers() {
        let products: u64 = a_row.coords().iter().map(|&k| b.fiber_len(k) as u64).sum();
        // A row without products stays empty. This also covers a `k x 0` B,
        // whose column span is empty.
        if products == 0 {
            rows.push(Fiber::new());
            continue;
        }
        acc.begin(0, b.cols() - 1, products, &cfg);
        for (&k, &v) in a_row.coords().iter().zip(a_row.values()) {
            acc.scatter_scaled(b.fiber(k), v);
        }
        rows.push(acc.drain());
    }
    Ok(CompressedMatrix::from_fibers(
        a.rows(),
        b.cols(),
        MajorOrder::Row,
        rows,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;
    use flexagon_sparse::{gen, reference, AccumTier, DenseMatrix};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeSet;

    /// Asserts that `CpuMkl::run`'s C equals `reference::gustavson` of the
    /// CSR-converted operands bit for bit.
    fn assert_matches_reference(a: &CompressedMatrix, b: &CompressedMatrix) {
        let got = CpuMkl::with_defaults().run(a, b).unwrap().c;
        let want =
            reference::gustavson(&a.converted(MajorOrder::Row), &b.converted(MajorOrder::Row))
                .unwrap();
        let bits =
            |m: &CompressedMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            (got.rows(), got.cols(), got.order()),
            (want.rows(), want.cols(), want.order())
        );
        assert_eq!(got.ptr(), want.ptr());
        assert_eq!(got.coords(), want.coords());
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn c_is_bit_identical_to_reference_gustavson() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        // CSC inputs, converted inside `run`.
        let a = gen::random(24, 40, 0.2, MajorOrder::Col, &mut rng);
        let b = gen::random(40, 30, 0.3, MajorOrder::Col, &mut rng);
        assert_matches_reference(&a, &b);

        // Row 1 of A is empty, and so are rows 1 and 3 of B.
        let a = CompressedMatrix::from_triplets(
            3,
            4,
            &[
                (0, 0, 1.5),
                (0, 1, 2.0),
                (0, 3, -1.0),
                (2, 1, 0.5),
                (2, 2, 3.0),
            ],
            MajorOrder::Row,
        )
        .unwrap();
        let b = CompressedMatrix::from_triplets(
            4,
            5,
            &[(0, 0, 1.0), (0, 4, 2.0), (2, 1, -3.0), (2, 4, 0.25)],
            MajorOrder::Row,
        )
        .unwrap();
        assert_matches_reference(&a, &b);

        // A `k x 0` B: C has no columns, so no row may arm the accumulator
        // (its span `[0, n - 1]` would underflow).
        let a = gen::random(6, 5, 0.5, MajorOrder::Row, &mut rng);
        assert_matches_reference(&a, &CompressedMatrix::zero(5, 0, MajorOrder::Row));

        // A `-0.0` first product is stored, not added to `+0.0`: the sum
        // -0.0 + -0.0 is -0.0, while 0.0 + -0.0 + -0.0 would be +0.0.
        let a =
            CompressedMatrix::from_triplets(1, 2, &[(0, 0, -1.0), (0, 1, 2.0)], MajorOrder::Row)
                .unwrap();
        let b =
            CompressedMatrix::from_triplets(2, 1, &[(0, 0, 0.0), (1, 0, -0.0)], MajorOrder::Row)
                .unwrap();
        assert_matches_reference(&a, &b);
        let c = CpuMkl::with_defaults().run(&a, &b).unwrap().c;
        assert_eq!(c.values()[0].to_bits(), (-0.0f32).to_bits());

        // A wide, sparse B: rows of A with few products land in the runs
        // tier, denser ones in the paged and dense tiers.
        let b = gen::random(64, 2048, 0.002, MajorOrder::Row, &mut rng);
        let cfg = AccumConfig::default();
        let mut tiers = BTreeSet::new();
        for density in [0.02, 0.2, 0.5, 1.0] {
            let a = gen::random(16, 64, density, MajorOrder::Row, &mut rng);
            for (_, row) in a.fibers() {
                let products: u64 = row.coords().iter().map(|&k| b.fiber_len(k) as u64).sum();
                if products > 0 {
                    tiers.insert(AccumTier::select(b.cols() as u64, products, &cfg).name());
                }
            }
            assert_matches_reference(&a, &b);
        }
        assert_eq!(tiers.len(), 3, "tiers covered: {tiers:?}");
    }

    #[test]
    fn run_rejects_mismatched_inner_dimensions() {
        let a = CompressedMatrix::zero(3, 4, MajorOrder::Row);
        let b = CompressedMatrix::zero(5, 2, MajorOrder::Row);
        assert!(matches!(
            CpuMkl::with_defaults().run(&a, &b),
            Err(CoreError::Format(FormatError::DimensionMismatch {
                left_cols: 4,
                right_rows: 5
            }))
        ));
    }

    #[test]
    fn cpu_result_matches_dense_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = gen::random(12, 15, 0.3, MajorOrder::Row, &mut rng);
        let b = gen::random(15, 9, 0.4, MajorOrder::Col, &mut rng);
        let out = CpuMkl::with_defaults().run(&a, &b).unwrap();
        let want = DenseMatrix::from_compressed(&a)
            .matmul(&DenseMatrix::from_compressed(&b))
            .unwrap();
        assert!(DenseMatrix::from_compressed(&out.c).approx_eq(&want, 1e-3));
    }

    #[test]
    fn cycles_scale_with_work() {
        let cpu = CpuMkl::with_defaults();
        let small = SpGemmWork {
            products: 100,
            nnz_a: 10,
            nnz_b: 10,
            effectual_k: 5,
        };
        let large = SpGemmWork {
            products: 10_000,
            nnz_a: 10,
            nnz_b: 10,
            effectual_k: 5,
        };
        assert!(cpu.estimate_cycles(&large, 100) > cpu.estimate_cycles(&small, 100));
    }

    #[test]
    fn empty_product_costs_nothing_but_elements() {
        let cpu = CpuMkl::with_defaults();
        let w = SpGemmWork {
            products: 0,
            nnz_a: 0,
            nnz_b: 0,
            effectual_k: 0,
        };
        assert_eq!(cpu.estimate_cycles(&w, 0), 0);
    }

    #[test]
    fn config_is_tunable() {
        let cpu = CpuMkl::new(CpuConfig {
            cycles_per_product: 10.0,
            cycles_per_element: 0.0,
        });
        let w = SpGemmWork {
            products: 7,
            nnz_a: 0,
            nnz_b: 0,
            effectual_k: 1,
        };
        assert_eq!(cpu.estimate_cycles(&w, 0), 70);
    }
}
