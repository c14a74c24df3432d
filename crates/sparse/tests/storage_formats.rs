//! Property-based tests for the storage-format tier ([`FormattedMatrix`]):
//! lossless formats are exact round-trips on arbitrary structure, and the
//! quantized tier honours its documented error bound.

use flexagon_sparse::{CompressedMatrix, FiberFormat, FormattedMatrix, MajorOrder};
use proptest::prelude::*;

/// Strategy: a sparse matrix with unique random cells in either order.
fn matrix(max_dim: u32) -> impl Strategy<Value = CompressedMatrix> {
    (1..max_dim, 1..max_dim, 0u8..2).prop_flat_map(|(r, c, col_major)| {
        let cells = (r * c) as usize;
        let order = if col_major == 1 {
            MajorOrder::Col
        } else {
            MajorOrder::Row
        };
        proptest::collection::btree_map(0..cells, -4.0f32..4.0, 0..cells.min(120)).prop_map(
            move |entries| {
                let triplets: Vec<(u32, u32, f32)> = entries
                    .into_iter()
                    .map(|(p, v)| (p as u32 / c, p as u32 % c, v))
                    .collect();
                CompressedMatrix::from_triplets(r, c, &triplets, order)
                    .expect("unique in-range triplets")
            },
        )
    })
}

proptest! {
    /// Every lossless format is an exact (bit-identical) round-trip on
    /// arbitrary structure.
    #[test]
    fn lossless_formats_roundtrip_exactly(m in matrix(32)) {
        for format in FiberFormat::ALL {
            if !format.is_lossless() {
                continue;
            }
            let enc = FormattedMatrix::encode(&m, format);
            prop_assert_eq!(&enc.decode(), &m, "{} round-trip differs", format);
        }
    }

    /// Quantization error stays within the documented bound: for every
    /// element, `|v - v'| <= max_abs_in_block / 254` (the per-block scale
    /// is `max_abs / 127` and values round to the nearest step).
    #[test]
    fn quantization_error_is_bounded(m in matrix(32)) {
        let dec = FormattedMatrix::encode(&m, FiberFormat::Quant8).decode();
        prop_assert_eq!(dec.nnz(), m.nnz(), "quantization must keep structure");
        prop_assert_eq!(dec.coords(), m.coords());
        prop_assert_eq!(dec.ptr(), m.ptr());
        // Walk elements in storage order; blocks are QUANT_BLOCK-sized
        // runs of that same order.
        let orig = m.values();
        let got = dec.values();
        for (block_idx, block) in orig.chunks(flexagon_sparse::format::QUANT_BLOCK).enumerate() {
            let max_abs = block.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
            let bound = f64::from(max_abs) / 254.0 + 1e-9;
            let start = block_idx * flexagon_sparse::format::QUANT_BLOCK;
            for (i, &want) in block.iter().enumerate() {
                let err = f64::from((got[start + i] - want).abs());
                prop_assert!(
                    err <= bound,
                    "element {} err {err} exceeds bound {bound} (max_abs {max_abs})",
                    start + i
                );
            }
        }
    }
}
