//! Property tests for the memoized CSR↔CSC conversion.

use flexagon_sparse::{CompressedMatrix, MajorOrder, Value};
use proptest::prelude::*;

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
