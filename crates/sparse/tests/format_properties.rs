//! Property-based tests for the sparse-format substrate.

use flexagon_sparse::{
    merge, reference, CompressedMatrix, DenseMatrix, Element, Fiber, MajorOrder,
};
use proptest::prelude::*;

/// Strategy: a sparse matrix with unique random cells.
fn matrix(max_dim: u32) -> impl Strategy<Value = CompressedMatrix> {
    (1..max_dim, 1..max_dim).prop_flat_map(|(r, c)| {
        let cells = (r * c) as usize;
        proptest::collection::btree_map(0..cells, 0.25f32..4.0, 0..cells.min(100)).prop_map(
            move |entries| {
                let triplets: Vec<(u32, u32, f32)> = entries
                    .into_iter()
                    .map(|(p, v)| (p as u32 / c, p as u32 % c, v))
                    .collect();
                CompressedMatrix::from_triplets(r, c, &triplets, MajorOrder::Row)
                    .expect("unique in-range triplets")
            },
        )
    })
}

/// Strategy: an `m x k` CSR operand and a `k x n` CSC operand. Three in
/// four values are halves from -2 to 2, so dot products can cancel to
/// exactly zero; the rest are inexact, so a sum in another order shows.
fn ip_operands() -> impl Strategy<Value = (CompressedMatrix, CompressedMatrix)> {
    fn cells(rows: u32, cols: u32) -> impl Strategy<Value = Vec<(u32, u32, f32)>> {
        let total = (rows * cols) as usize;
        let value =
            (-4i32..8, 0.1f32..3.0).prop_map(|(v, f)| if v > 4 { f } else { v as f32 * 0.5 });
        proptest::collection::btree_map(0..total, value, 0..total.min(150)).prop_map(
            move |entries| {
                entries
                    .into_iter()
                    .map(|(p, v)| (p as u32 / cols, p as u32 % cols, v))
                    .collect()
            },
        )
    }
    (1u32..12, 1u32..80, 1u32..12).prop_flat_map(|(m, k, n)| {
        (cells(m, k), cells(k, n)).prop_map(move |(ta, tb)| {
            (
                CompressedMatrix::from_triplets(m, k, &ta, MajorOrder::Row).expect("in range"),
                CompressedMatrix::from_triplets(k, n, &tb, MajorOrder::Col).expect("in range"),
            )
        })
    })
}

proptest! {
    /// CSR -> CSC -> CSR is the identity.
    #[test]
    fn conversion_roundtrip(m in matrix(24)) {
        let back = m.converted(MajorOrder::Col).converted(MajorOrder::Row);
        prop_assert_eq!(m, back);
    }

    /// Conversion preserves every element value and the total count.
    #[test]
    fn conversion_preserves_content(m in matrix(24)) {
        let csc = m.converted(MajorOrder::Col);
        prop_assert_eq!(m.nnz(), csc.nnz());
        prop_assert!(m.approx_eq(&csc, 0.0));
        csc.validate().unwrap();
    }

    /// Reinterpretation as the transpose agrees with an explicit transpose
    /// through the dense path.
    #[test]
    fn reinterpret_is_transpose(m in matrix(16)) {
        let t = m.reinterpret_transposed();
        let dense = DenseMatrix::from_compressed(&m);
        let dense_t = DenseMatrix::from_compressed(&t);
        prop_assert_eq!(dense.rows(), dense_t.cols());
        for r in 0..dense.rows() {
            for c in 0..dense.cols() {
                prop_assert_eq!(dense.get(r, c), dense_t.get(c, r));
            }
        }
    }

    /// Dense round trip: compress(densify(m)) == m for any order.
    #[test]
    fn dense_roundtrip(m in matrix(20)) {
        let d = DenseMatrix::from_compressed(&m);
        prop_assert_eq!(d.to_compressed(MajorOrder::Row), m.clone());
        prop_assert!(d.to_compressed(MajorOrder::Col).approx_eq(&m, 0.0));
    }

    /// The three reference kernels agree with the dense product on
    /// arbitrary pairs.
    #[test]
    fn kernels_agree_with_dense(a in matrix(14), seed in 0u64..100) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let b = flexagon_sparse::gen::random(a.cols(), 11, 0.35, MajorOrder::Row, &mut rng);
        let want = DenseMatrix::from_compressed(&a)
            .matmul(&DenseMatrix::from_compressed(&b))
            .unwrap();
        let gu = reference::gustavson(&a, &b).unwrap();
        let ip = reference::inner_product(&a, &b.converted(MajorOrder::Col)).unwrap();
        let op = reference::outer_product(&a.converted(MajorOrder::Col), &b).unwrap();
        for c in [gu, ip, op] {
            prop_assert!(DenseMatrix::from_compressed(&c).approx_eq(&want, 1e-2));
        }
    }

    /// The reference Inner Product is one `FiberView::dot` per (m, n)
    /// pair, bit for bit: a pair is stored when at least one k matches and
    /// its sum is not zero.
    #[test]
    fn inner_product_matches_per_pair_dot((a, b) in ip_operands()) {
        let c = reference::inner_product(&a, &b).unwrap();
        let bits = |vals: &[f32]| vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for m in 0..a.rows() {
            let mut want = Fiber::new();
            for n in 0..b.cols() {
                let (v, work) = a.fiber(m).dot(b.fiber(n));
                if work > 0 && v != 0.0 {
                    want.push(Element::new(n, v));
                }
            }
            let got = c.fiber(m);
            prop_assert_eq!(got.coords(), want.coords());
            prop_assert_eq!(bits(got.values()), bits(want.values()));
        }
    }

    /// Merging a fiber with itself doubles every value.
    #[test]
    fn self_merge_doubles(coords in proptest::collection::btree_set(0u32..60, 0..30)) {
        let f = Fiber::from_sorted(
            coords.iter().map(|&c| Element::new(c, c as f32 + 1.0)).collect(),
        );
        let (m, stats) = merge::merge_two(f.as_view(), f.as_view());
        prop_assert_eq!(m.len(), f.len());
        for (a, b) in m.iter().zip(f.iter()) {
            prop_assert_eq!(a.value, 2.0 * b.value);
        }
        prop_assert_eq!(stats.additions, f.len() as u64);
    }

    /// Merge order does not matter (commutativity up to float tolerance on
    /// disjoint/overlapping fibers built from integer-valued data).
    #[test]
    fn merge_is_commutative(
        xs in proptest::collection::btree_set(0u32..40, 0..20),
        ys in proptest::collection::btree_set(0u32..40, 0..20),
    ) {
        let fx = Fiber::from_sorted(xs.iter().map(|&c| Element::new(c, 1.0)).collect());
        let fy = Fiber::from_sorted(ys.iter().map(|&c| Element::new(c, 2.0)).collect());
        let (ab, _) = merge::merge_two(fx.as_view(), fy.as_view());
        let (ba, _) = merge::merge_two(fy.as_view(), fx.as_view());
        prop_assert_eq!(ab, ba);
    }

    /// Fiber dot product is symmetric.
    #[test]
    fn dot_is_symmetric(
        xs in proptest::collection::btree_set(0u32..30, 0..15),
        ys in proptest::collection::btree_set(0u32..30, 0..15),
    ) {
        let fx = Fiber::from_sorted(xs.iter().map(|&c| Element::new(c, 1.5)).collect());
        let fy = Fiber::from_sorted(ys.iter().map(|&c| Element::new(c, 2.5)).collect());
        let (v1, w1) = fx.dot(&fy);
        let (v2, w2) = fy.dot(&fx);
        prop_assert_eq!(v1, v2);
        prop_assert_eq!(w1, w2);
        prop_assert_eq!(w1, xs.intersection(&ys).count());
    }

    /// Compressed size accounting is exact.
    #[test]
    fn compressed_size_formula(m in matrix(20)) {
        let want = m.nnz() as u64 * 4 + (m.major_dim() as u64 + 1) * 4;
        prop_assert_eq!(m.compressed_size_bytes(), want);
    }
}
