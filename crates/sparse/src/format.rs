//! Fiber storage formats: labels on an execution, and the one lossy tier.
//!
//! Flexagon's dataflows read and write CSR/CSC fibers only (paper
//! Table 3), so a storage format never changes how the accelerator walks
//! its operands:
//!
//! * [`FiberFormat::Soa`] — the operands as they are ([`CompressedMatrix`]
//!   verbatim). The default.
//! * [`FiberFormat::Bcsr4`], [`FiberFormat::Bcsr8`] and [`FiberFormat::Ell`]
//!   — accepted lossless labels. An execution under one of them runs on the
//!   caller's operands, and its report and output are byte-identical to the
//!   SoA run.
//! * [`FiberFormat::Quant8`] — INT8-quantized values with one `f32` scale
//!   per [`QUANT_BLOCK`]-element block (the DNN-weight footprint format).
//!   This is the one *lossy* format: `|v - decode(encode(v))| <=
//!   max_abs_in_block / 254` for finite inputs, and it is opt-in only.

use crate::{CompressedMatrix, MajorOrder, Value};
use serde::{Deserialize, Serialize};
use std::str::FromStr;

/// Elements per quantization block of [`FiberFormat::Quant8`]: one `f32`
/// scale amortized over this many `i8` values (effective ~9.1 bits per
/// element, vs 64 for the SoA baseline's coord+value pair).
pub const QUANT_BLOCK: usize = 32;

/// The storage format of a fiber's element data, pinned by the client
/// exactly like a dataflow token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum FiberFormat {
    /// The SoA coords+values baseline (`CompressedMatrix` verbatim).
    #[default]
    Soa,
    /// Lossless label `bcsr4` (alias `bcsr`).
    Bcsr4,
    /// Lossless label `bcsr8`.
    Bcsr8,
    /// Lossless label `ell`.
    Ell,
    /// INT8 values with per-block scales (**lossy**, opt-in only).
    Quant8,
}

impl FiberFormat {
    /// Every format, in token order.
    pub const ALL: [FiberFormat; 5] = [
        FiberFormat::Soa,
        FiberFormat::Bcsr4,
        FiberFormat::Bcsr8,
        FiberFormat::Ell,
        FiberFormat::Quant8,
    ];

    /// The client-facing token, as parsed by [`FromStr`] and carried in
    /// the serve protocol and CLI flags.
    pub fn token(self) -> &'static str {
        match self {
            FiberFormat::Soa => "soa",
            FiberFormat::Bcsr4 => "bcsr4",
            FiberFormat::Bcsr8 => "bcsr8",
            FiberFormat::Ell => "ell",
            FiberFormat::Quant8 => "q8",
        }
    }

    /// Whether encode → decode reproduces the exact input bits. Everything
    /// but [`FiberFormat::Quant8`] is lossless.
    pub fn is_lossless(self) -> bool {
        !matches!(self, FiberFormat::Quant8)
    }
}

impl std::fmt::Display for FiberFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for FiberFormat {
    type Err = String;

    /// Parses a format token: `soa`, `bcsr4` (alias `bcsr`), `bcsr8`,
    /// `ell`, `q8` (alias `quant8`). Case-insensitive.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "soa" => Ok(FiberFormat::Soa),
            "bcsr" | "bcsr4" => Ok(FiberFormat::Bcsr4),
            "bcsr8" => Ok(FiberFormat::Bcsr8),
            "ell" => Ok(FiberFormat::Ell),
            "q8" | "quant8" => Ok(FiberFormat::Quant8),
            other => Err(format!(
                "unknown storage format '{other}' (expected soa, bcsr4, bcsr8, ell or q8)"
            )),
        }
    }
}

/// A [`CompressedMatrix`] stored under a [`FiberFormat`]: as it is under
/// a lossless label, quantized under [`FiberFormat::Quant8`].
///
/// `encode` → [`decode`](FormattedMatrix::decode) round-trips exactly for
/// every format but `q8`.
///
/// ```
/// use flexagon_sparse::{CompressedMatrix, FiberFormat, FormattedMatrix, MajorOrder};
/// let m = CompressedMatrix::from_triplets(
///     2, 8, &[(0, 0, 1.0), (0, 1, 2.0), (0, 2, 3.0), (1, 5, 4.0)], MajorOrder::Row)
///     .unwrap();
/// assert_eq!(FormattedMatrix::encode(&m, FiberFormat::Bcsr4).decode(), m);
/// let q8 = FormattedMatrix::encode(&m, FiberFormat::Quant8).decode();
/// assert_eq!(q8.coords(), m.coords());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FormattedMatrix(Storage);

#[derive(Debug, Clone, PartialEq)]
enum Storage {
    /// A lossless label: the operand as it is.
    Plain(CompressedMatrix),
    /// Quantized values: SoA structure with `q[i]` the INT8 value of
    /// element `i` and `scales[i / QUANT_BLOCK]` its dequantization scale.
    Quant {
        rows: u32,
        cols: u32,
        order: MajorOrder,
        ptr: Vec<usize>,
        coords: Vec<u32>,
        scales: Vec<Value>,
        q: Vec<i8>,
    },
}

impl FormattedMatrix {
    /// Stores `m` under `format`. Never fails.
    pub fn encode(m: &CompressedMatrix, format: FiberFormat) -> Self {
        if format.is_lossless() {
            return Self(Storage::Plain(m.clone()));
        }
        let mut scales = Vec::with_capacity(m.nnz().div_ceil(QUANT_BLOCK));
        let mut q = Vec::with_capacity(m.nnz());
        for chunk in m.values().chunks(QUANT_BLOCK) {
            let max_abs = chunk.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
            let scale = if max_abs == 0.0 { 0.0 } else { max_abs / 127.0 };
            scales.push(scale);
            if scale == 0.0 {
                q.resize(q.len() + chunk.len(), 0);
            } else {
                q.extend(
                    chunk
                        .iter()
                        .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8),
                );
            }
        }
        Self(Storage::Quant {
            rows: m.rows(),
            cols: m.cols(),
            order: m.order(),
            ptr: m.ptr().to_vec(),
            coords: m.coords().to_vec(),
            scales,
            q,
        })
    }

    /// Decodes back to the SoA baseline. Bit-identical to the encoded
    /// input for lossless formats; for [`FiberFormat::Quant8`] each value
    /// is `q * scale` (see the module docs for the error bound).
    pub fn decode(&self) -> CompressedMatrix {
        match &self.0 {
            Storage::Plain(m) => m.clone(),
            Storage::Quant {
                rows,
                cols,
                order,
                ptr,
                coords,
                scales,
                q,
            } => {
                let mut values = Vec::with_capacity(q.len());
                for (i, chunk) in q.chunks(QUANT_BLOCK).enumerate() {
                    values.extend(chunk.iter().map(|&x| x as f32 * scales[i]));
                }
                CompressedMatrix::from_raw_parts(
                    *rows,
                    *cols,
                    *order,
                    ptr.clone(),
                    coords.clone(),
                    values,
                )
                .expect("quantization keeps the compressed structure")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(triplets: &[(u32, u32, Value)], rows: u32, cols: u32) -> CompressedMatrix {
        CompressedMatrix::from_triplets(rows, cols, triplets, MajorOrder::Row).unwrap()
    }

    #[test]
    fn tokens_roundtrip() {
        for fmt in FiberFormat::ALL {
            assert_eq!(fmt.token().parse::<FiberFormat>().unwrap(), fmt);
            assert_eq!(format!("{fmt}"), fmt.token());
        }
        assert_eq!("bcsr".parse::<FiberFormat>().unwrap(), FiberFormat::Bcsr4);
        assert_eq!(
            "QUANT8".parse::<FiberFormat>().unwrap(),
            FiberFormat::Quant8
        );
        assert!("csr5".parse::<FiberFormat>().is_err());
    }

    #[test]
    fn lossless_formats_roundtrip_bit_exact() {
        let cases = [
            matrix(
                &[
                    (0, 0, 1.0),
                    (0, 1, 2.0),
                    (0, 2, 3.0),
                    (0, 3, 4.0),
                    (0, 9, 5.0),
                    (1, 4, 6.0),
                    (1, 5, 7.0),
                    (2, 7, -0.0),
                ],
                4,
                12,
            ),
            matrix(&[], 0, 0),
            matrix(&[], 5, 7),
            matrix(&[(0, 0, f32::NAN), (2, 6, -0.0)], 3, 8),
            CompressedMatrix::from_triplets(
                3,
                4,
                &[(0, 1, 1.5), (1, 0, 2.5), (2, 3, 3.5)],
                MajorOrder::Col,
            )
            .unwrap(),
        ];
        for m in &cases {
            for fmt in FiberFormat::ALL.into_iter().filter(|f| f.is_lossless()) {
                let dec = FormattedMatrix::encode(m, fmt).decode();
                assert_eq!(dec.ptr(), m.ptr(), "{fmt} ptr");
                assert_eq!(dec.coords(), m.coords(), "{fmt} coords");
                let bits = |vs: &[Value]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(dec.values()), bits(m.values()), "{fmt} value bits");
                assert_eq!(dec.rows(), m.rows());
                assert_eq!(dec.cols(), m.cols());
                assert_eq!(dec.order(), m.order());
            }
        }
    }

    #[test]
    fn quant_error_is_bounded_per_block() {
        let vals: Vec<(u32, u32, Value)> = (0..200)
            .map(|i| (i / 20, i % 20, ((i as f32) * 0.37 - 40.0) * 1.7))
            .collect();
        let m = matrix(&vals, 10, 20);
        let dec = FormattedMatrix::encode(&m, FiberFormat::Quant8).decode();
        assert_eq!(dec.coords(), m.coords());
        for (chunk, dchunk) in m
            .values()
            .chunks(QUANT_BLOCK)
            .zip(dec.values().chunks(QUANT_BLOCK))
        {
            let max_abs = chunk.iter().fold(0.0f32, |a, v| a.max(v.abs()));
            let bound = max_abs / 253.0; // max_abs/254 plus float slack
            for (v, d) in chunk.iter().zip(dchunk) {
                assert!(
                    (v - d).abs() <= bound,
                    "quant error {} exceeds bound {bound}",
                    (v - d).abs()
                );
            }
        }
    }
}
