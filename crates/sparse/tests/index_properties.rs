//! Property tests for the tiered fiber indexes, the indexed/galloping
//! intersection paths, and the memoized CSR↔CSC conversion.

use flexagon_sparse::{
    CompressedMatrix, Element, Fiber, FiberIndex, MajorOrder, MatrixIndex, Value,
};
use proptest::prelude::*;

/// Strategy: a fiber over a configurable coordinate space, so small spaces
/// exercise the bitmap tier, wide ones the short/skip tiers.
fn fiber(space: u32, max_len: usize) -> impl Strategy<Value = Fiber> {
    proptest::collection::btree_map(0..space, 0.25f32..4.0, 0..max_len).prop_map(|cells| {
        Fiber::from_sorted(cells.into_iter().map(|(c, v)| Element::new(c, v)).collect())
    })
}

/// Strategy: a sparse matrix with unique random cells in either order.
fn matrix(max_dim: u32) -> impl Strategy<Value = CompressedMatrix> {
    (1..max_dim, 1..max_dim, 0u32..2).prop_flat_map(|(r, c, col_major)| {
        let cells = (r * c) as usize;
        proptest::collection::btree_map(0..cells, 0.25f32..4.0, 0..cells.min(120)).prop_map(
            move |entries| {
                let triplets: Vec<(u32, u32, Value)> = entries
                    .into_iter()
                    .map(|(p, v)| (p as u32 / c, p as u32 % c, v))
                    .collect();
                let order = if col_major == 1 {
                    MajorOrder::Col
                } else {
                    MajorOrder::Row
                };
                CompressedMatrix::from_triplets(r, c, &triplets, order)
                    .expect("unique in-range triplets")
            },
        )
    })
}

proptest! {
    /// Galloping intersection returns bit-identical sums and identical work
    /// counts to the naive two-pointer scan, on every span shape (the
    /// 2,000,000-space pair takes long gallop advances).
    #[test]
    fn gallop_matches_naive(
        a in fiber(50_000, 40),
        b in fiber(50_000, 40),
        dense_a in fiber(96, 40),
        dense_b in fiber(96, 40),
        sparse_a in fiber(2_000_000, 40),
        sparse_b in fiber(2_000_000, 200),
    ) {
        for (x, y) in [(&a, &b), (&dense_a, &dense_b), (&a, &dense_b), (&sparse_a, &sparse_b)] {
            let (v_naive, w_naive) = x.as_view().dot(y.as_view());
            let (v_gallop, w_gallop) = x.as_view().dot_gallop(y.as_view());
            prop_assert_eq!(v_naive.to_bits(), v_gallop.to_bits());
            prop_assert_eq!(w_naive, w_gallop);
        }
    }

    /// Index probing returns bit-identical sums and identical work counts to
    /// the naive scan, whichever tier the index picked (the
    /// 2,000,000-space pair indexes a many-block skip tier).
    #[test]
    fn probe_matches_naive(
        a in fiber(50_000, 40),
        b in fiber(50_000, 40),
        dense_a in fiber(96, 40),
        dense_b in fiber(96, 40),
        sparse_a in fiber(2_000_000, 40),
        sparse_b in fiber(2_000_000, 200),
    ) {
        for (x, y) in [
            (&a, &b),
            (&dense_a, &dense_b),
            (&dense_a, &b),
            (&a, &dense_b),
            (&sparse_a, &sparse_b),
        ] {
            let index = FiberIndex::build(y.coords());
            let (v_naive, w_naive) = x.as_view().dot(y.as_view());
            let (v_probe, w_probe) = x.as_view().dot_probe(y.as_view(), &index);
            prop_assert_eq!(v_naive.to_bits(), v_probe.to_bits(),
                "tier {}", index.tier_name());
            prop_assert_eq!(w_naive, w_probe);
        }
    }

    /// `position` agrees with binary search for every coordinate in and
    /// around the fiber, and the skip-ahead prober agrees when queried in
    /// ascending order.
    #[test]
    fn position_matches_binary_search(f in fiber(2_000, 64)) {
        let index = FiberIndex::build(f.coords());
        prop_assert_eq!(index.len(), f.len());
        let mut prober = index.prober(f.as_view());
        let upper = f.coords().last().map_or(4, |&c| c + 3);
        for coord in 0..upper {
            let want = f.coords().binary_search(&coord).ok();
            prop_assert_eq!(index.position(f.coords(), coord), want);
            prop_assert_eq!(index.contains(f.coords(), coord), want.is_some());
            let probed = prober.probe(coord);
            prop_assert_eq!(probed.map(|(i, _)| i), want);
            if let (Some((i, v)), Some(j)) = (probed, want) {
                prop_assert_eq!(i, j);
                prop_assert_eq!(v.to_bits(), f.values()[j].to_bits());
            }
        }
    }

    /// A matrix index probes every fiber exactly as per-fiber indexes do.
    #[test]
    fn matrix_index_matches_fiber_indexes(m in matrix(24)) {
        let index = MatrixIndex::build(m.view());
        prop_assert_eq!(index.len(), m.major_dim() as usize);
        for (major, fv) in m.fibers() {
            let standalone = FiberIndex::build(fv.coords());
            for coord in 0..m.minor_dim() {
                prop_assert_eq!(
                    index.fiber(major).position(fv.coords(), coord),
                    standalone.position(fv.coords(), coord)
                );
            }
        }
    }

    /// CSR→CSC→CSR is the identity, from either starting order.
    #[test]
    fn conversion_roundtrip_is_identity(m in matrix(24)) {
        let flipped = m.converted(m.order().flipped());
        flipped.validate().unwrap();
        let back = flipped.converted(m.order());
        prop_assert_eq!(&m, &back);
    }

    /// Conversion preserves the stats surface: nnz, density, sparsity,
    /// compressed size shape, and every stored value.
    #[test]
    fn conversion_preserves_stats(m in matrix(24)) {
        let flipped = m.converted(m.order().flipped());
        prop_assert_eq!(m.nnz(), flipped.nnz());
        prop_assert_eq!(m.rows(), flipped.rows());
        prop_assert_eq!(m.cols(), flipped.cols());
        prop_assert!((m.density() - flipped.density()).abs() < 1e-12);
        prop_assert!((m.sparsity_percent() - flipped.sparsity_percent()).abs() < 1e-12);
        prop_assert!(m.approx_eq(&flipped, 0.0));
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                prop_assert_eq!(m.get(r, c).to_bits(), flipped.get(r, c).to_bits());
            }
        }
    }

    /// The memoized transpose plan changes nothing observable: repeated
    /// conversions and conversions of fresh clones are all identical.
    #[test]
    fn conversion_memo_is_transparent(m in matrix(24)) {
        let target = m.order().flipped();
        let first = m.converted(target);   // builds the plan
        let second = m.converted(target);  // reuses it
        let of_clone = m.clone().converted(target); // fresh plan
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(&first, &of_clone);
        prop_assert_eq!(&m, &m.clone());
    }
}
