//! Output checks: simulated results against a software reference.

use flexagon_sparse::{CompressedMatrix, MajorOrder};

/// Relative tolerance for f32 outputs whose accumulation order differs
/// from the reference's (every generated value is positive, so there is
/// no cancellation to amplify rounding).
pub const REL_TOL: f32 = 1e-3;

/// Whether `c` equals `reference` up to [`REL_TOL`]: same shape, same
/// nonzero positions, and every value within the tolerance, whatever the
/// two matrices' major orders. Explicitly stored zeros are ignored.
pub fn matches_reference(c: &CompressedMatrix, reference: &CompressedMatrix) -> bool {
    if (c.rows(), c.cols()) != (reference.rows(), reference.cols()) {
        return false;
    }
    let row_major = |m: &CompressedMatrix| match m.order() {
        MajorOrder::Row => None,
        MajorOrder::Col => Some(m.converted(MajorOrder::Row)),
    };
    let (c_conv, r_conv) = (row_major(c), row_major(reference));
    let (c, r) = (
        c_conv.as_ref().unwrap_or(c),
        r_conv.as_ref().unwrap_or(reference),
    );
    (0..c.rows()).all(|row| {
        let nonzero = |m: &CompressedMatrix| {
            let f = m.fiber(row);
            f.coords()
                .iter()
                .zip(f.values())
                .filter(|(_, &v)| v != 0.0)
                .map(|(&k, &v)| (k, v))
                .collect::<Vec<_>>()
        };
        let (got, want) = (nonzero(c), nonzero(r));
        got.len() == want.len()
            && got.iter().zip(&want).all(|(&(gk, gv), &(wk, wv))| {
                gk == wk && (gv - wv).abs() <= REL_TOL * wv.abs().max(1.0)
            })
    })
}
