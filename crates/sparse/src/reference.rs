//! Software reference implementations of the three SpMSpM dataflows.
//!
//! These are the golden models every accelerator run and the CPU baseline
//! are checked against. Each mirrors the loop nest of Fig. 2:
//!
//! * [`inner_product`] — MNK order, co-iteration innermost, A·CSR × B·CSC.
//! * [`outer_product`] — KMN order, co-iteration outermost, A·CSC × B·CSR.
//! * [`gustavson`] — MKN order, co-iteration in the middle, A·CSR × B·CSR.
//!
//! All return C in CSR (the M-stationary output format of Table 3).

use crate::{
    merge, CompressedMatrix, Element, Fiber, FormatError, MajorOrder, MatrixIndex, Result,
};

fn check_dims(a: &CompressedMatrix, b: &CompressedMatrix) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(FormatError::DimensionMismatch {
            left_cols: a.cols(),
            right_rows: b.rows(),
        });
    }
    Ok(())
}

/// Inner-Product (M) SpMSpM: for each `(m, n)` pair, a sparse dot product.
///
/// Expects `a` in CSR and `b` in CSC (Table 3). This is the algorithm the
/// SIGMA-like accelerator executes: full sums are produced one at a time and
/// no partial-sum merging is ever required, at the cost of streaming the
/// whole of B once per stationary tile.
///
/// # Errors
///
/// Returns [`FormatError::DimensionMismatch`] on inner-dimension mismatch and
/// [`FormatError::WrongMajorOrder`] when operands are not CSR × CSC.
pub fn inner_product(a: &CompressedMatrix, b: &CompressedMatrix) -> Result<CompressedMatrix> {
    check_dims(a, b)?;
    if a.order() != MajorOrder::Row {
        return Err(FormatError::WrongMajorOrder {
            expected: MajorOrder::Row,
            actual: a.order(),
        });
    }
    if b.order() != MajorOrder::Col {
        return Err(FormatError::WrongMajorOrder {
            expected: MajorOrder::Col,
            actual: b.order(),
        });
    }
    // Index B's column fibers once; every (m, n) dot product then probes the
    // index instead of co-iterating both fibers. Matches are visited in
    // ascending k either way, so sums stay bit-identical to `FiberView::dot`.
    let b_index = MatrixIndex::build(b.view());
    let mut fibers = Vec::with_capacity(a.rows() as usize);
    for (_, a_fiber) in a.fibers() {
        let mut out = Fiber::new();
        if !a_fiber.is_empty() {
            for (n, b_fiber) in b.fibers() {
                let (v, work) = a_fiber.dot_probe(b_fiber, b_index.fiber(n));
                if work > 0 && v != 0.0 {
                    out.push(Element::new(n, v));
                }
            }
        }
        fibers.push(out);
    }
    CompressedMatrix::from_fibers(a.rows(), b.cols(), MajorOrder::Row, fibers)
}

/// Outer-Product (M) SpMSpM: per `k`, the outer product of A's column `k`
/// and B's row `k`; partial matrices are merged at the end.
///
/// Expects `a` in CSC and `b` in CSR (Table 3). This is the SpArch-like
/// algorithm: every input is read once, but `O(products)` partial sums are
/// produced and must be merged.
///
/// # Errors
///
/// Returns [`FormatError::DimensionMismatch`] on inner-dimension mismatch and
/// [`FormatError::WrongMajorOrder`] when operands are not CSC × CSR.
pub fn outer_product(a: &CompressedMatrix, b: &CompressedMatrix) -> Result<CompressedMatrix> {
    check_dims(a, b)?;
    if a.order() != MajorOrder::Col {
        return Err(FormatError::WrongMajorOrder {
            expected: MajorOrder::Col,
            actual: a.order(),
        });
    }
    if b.order() != MajorOrder::Row {
        return Err(FormatError::WrongMajorOrder {
            expected: MajorOrder::Row,
            actual: b.order(),
        });
    }
    // Per-row psum fiber lists, one fiber per contributing k.
    let mut psums: Vec<Vec<Fiber>> = vec![Vec::new(); a.rows() as usize];
    for (k, a_col) in a.fibers() {
        let b_row = b.fiber(k);
        if b_row.is_empty() {
            continue;
        }
        for ae in a_col.iter() {
            psums[ae.coord as usize].push(b_row.to_fiber().scaled(ae.value));
        }
    }
    let mut fibers = Vec::with_capacity(a.rows() as usize);
    for row_psums in &psums {
        let views: Vec<_> = row_psums.iter().map(Fiber::as_view).collect();
        let (merged, _) = merge::merge_accumulate(&views);
        fibers.push(merged);
    }
    CompressedMatrix::from_fibers(a.rows(), b.cols(), MajorOrder::Row, fibers)
}

/// Gustavson's (M) SpMSpM: for each row of A, linearly combine the rows of B
/// selected by that row's coordinates.
///
/// Expects both operands in CSR (Table 3). This is the GAMMA-like
/// algorithm; merging is confined to the current output fiber.
///
/// # Errors
///
/// Returns [`FormatError::DimensionMismatch`] on inner-dimension mismatch and
/// [`FormatError::WrongMajorOrder`] when operands are not CSR × CSR.
pub fn gustavson(a: &CompressedMatrix, b: &CompressedMatrix) -> Result<CompressedMatrix> {
    check_dims(a, b)?;
    if a.order() != MajorOrder::Row {
        return Err(FormatError::WrongMajorOrder {
            expected: MajorOrder::Row,
            actual: a.order(),
        });
    }
    if b.order() != MajorOrder::Row {
        return Err(FormatError::WrongMajorOrder {
            expected: MajorOrder::Row,
            actual: b.order(),
        });
    }
    let mut fibers = Vec::with_capacity(a.rows() as usize);
    let mut scaled: Vec<Fiber> = Vec::new();
    for (_, a_row) in a.fibers() {
        scaled.clear();
        for ae in a_row.iter() {
            let b_row = b.fiber(ae.coord);
            if !b_row.is_empty() {
                scaled.push(b_row.to_fiber().scaled(ae.value));
            }
        }
        let views: Vec<_> = scaled.iter().map(Fiber::as_view).collect();
        let (merged, _) = merge::merge_accumulate(&views);
        fibers.push(merged);
    }
    CompressedMatrix::from_fibers(a.rows(), b.cols(), MajorOrder::Row, fibers)
}

/// Runs `a × b` with whichever reference kernel matches the given formats,
/// converting operands as needed, and returns C in CSR.
///
/// Convenience for tests and examples that do not care about dataflow.
///
/// # Errors
///
/// Returns [`FormatError::DimensionMismatch`] on inner-dimension mismatch.
pub fn spgemm(a: &CompressedMatrix, b: &CompressedMatrix) -> Result<CompressedMatrix> {
    check_dims(a, b)?;
    let a_csr = a.converted(MajorOrder::Row);
    let b_csr = b.converted(MajorOrder::Row);
    gustavson(&a_csr, &b_csr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, DenseMatrix};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn golden(a: &CompressedMatrix, b: &CompressedMatrix) -> DenseMatrix {
        DenseMatrix::from_compressed(a)
            .matmul(&DenseMatrix::from_compressed(b))
            .unwrap()
    }

    fn random_pair(
        m: u32,
        k: u32,
        n: u32,
        da: f64,
        db: f64,
        seed: u64,
    ) -> (CompressedMatrix, CompressedMatrix) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = gen::random(m, k, da, MajorOrder::Row, &mut rng);
        let b = gen::random(k, n, db, MajorOrder::Row, &mut rng);
        (a, b)
    }

    #[test]
    fn all_three_dataflows_agree_with_dense() {
        for seed in 0..5 {
            let (a, b) = random_pair(17, 23, 19, 0.3, 0.25, seed);
            let want = golden(&a, &b);
            let ip = inner_product(&a, &b.converted(MajorOrder::Col)).unwrap();
            let op = outer_product(&a.converted(MajorOrder::Col), &b).unwrap();
            let gu = gustavson(&a, &b).unwrap();
            for c in [ip, op, gu] {
                let got = DenseMatrix::from_compressed(&c);
                assert!(
                    got.approx_eq(&want, 1e-3),
                    "seed {seed}: max diff {}",
                    got.max_abs_diff(&want)
                );
            }
        }
    }

    #[test]
    fn empty_times_anything_is_empty() {
        let a = CompressedMatrix::zero(4, 5, MajorOrder::Row);
        let b = gen::random(
            5,
            6,
            0.5,
            MajorOrder::Row,
            &mut ChaCha8Rng::seed_from_u64(1),
        );
        let c = gustavson(&a, &b).unwrap();
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.rows(), 4);
        assert_eq!(c.cols(), 6);
    }

    #[test]
    fn identity_is_neutral() {
        let b = gen::random(
            6,
            7,
            0.5,
            MajorOrder::Row,
            &mut ChaCha8Rng::seed_from_u64(2),
        );
        let i = gen::diagonal(6, 1.0, MajorOrder::Row);
        let c = gustavson(&i, &b).unwrap();
        assert!(c.approx_eq(&b, 1e-6));
    }

    #[test]
    fn dimension_mismatch_is_rejected_by_all() {
        let a = CompressedMatrix::zero(2, 3, MajorOrder::Row);
        let b = CompressedMatrix::zero(4, 2, MajorOrder::Col);
        assert!(matches!(
            inner_product(&a, &b),
            Err(FormatError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            outer_product(&a.converted(MajorOrder::Col), &b.converted(MajorOrder::Row)),
            Err(FormatError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            gustavson(&a, &b.converted(MajorOrder::Row)),
            Err(FormatError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn wrong_order_is_rejected() {
        let a = CompressedMatrix::zero(2, 3, MajorOrder::Col);
        let b = CompressedMatrix::zero(3, 2, MajorOrder::Col);
        assert!(matches!(
            inner_product(&a, &b),
            Err(FormatError::WrongMajorOrder {
                expected: MajorOrder::Row,
                ..
            })
        ));
        assert!(matches!(
            gustavson(&a, &b),
            Err(FormatError::WrongMajorOrder { .. })
        ));
        let a_csr = a.converted(MajorOrder::Row);
        assert!(matches!(
            outer_product(&a_csr, &b),
            Err(FormatError::WrongMajorOrder {
                expected: MajorOrder::Col,
                ..
            })
        ));
    }

    #[test]
    fn spgemm_convenience_converts_formats() {
        let (a, b) = random_pair(9, 11, 8, 0.4, 0.4, 7);
        let c1 = spgemm(&a, &b).unwrap();
        let c2 = spgemm(&a.converted(MajorOrder::Col), &b.converted(MajorOrder::Col)).unwrap();
        assert!(c1.approx_eq(&c2, 1e-4));
    }

    #[test]
    fn very_sparse_inputs() {
        let (a, b) = random_pair(40, 40, 40, 0.01, 0.01, 3);
        let want = golden(&a, &b);
        let got = DenseMatrix::from_compressed(&gustavson(&a, &b).unwrap());
        assert!(got.approx_eq(&want, 1e-4));
    }

    #[test]
    fn fully_dense_inputs() {
        let (a, b) = random_pair(8, 8, 8, 1.0, 1.0, 4);
        let want = golden(&a, &b);
        for c in [
            inner_product(&a, &b.converted(MajorOrder::Col)).unwrap(),
            outer_product(&a.converted(MajorOrder::Col), &b).unwrap(),
            gustavson(&a, &b).unwrap(),
        ] {
            assert!(DenseMatrix::from_compressed(&c).approx_eq(&want, 1e-3));
        }
    }

    #[test]
    fn tall_skinny_and_short_fat() {
        for (m, k, n) in [(64, 2, 3), (2, 64, 3), (3, 2, 64)] {
            let (a, b) = random_pair(m, k, n, 0.5, 0.5, 9);
            let want = golden(&a, &b);
            let got = DenseMatrix::from_compressed(&gustavson(&a, &b).unwrap());
            assert!(got.approx_eq(&want, 1e-3), "dims ({m},{k},{n})");
        }
    }
}
