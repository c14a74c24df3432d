//! The golden corpus: a fixed spread of shapes and sparsities run under all
//! six dataflows and on the CPU MKL baseline, each case serialized as its
//! full execution report plus its functional output matrix.
//!
//! Two builds of the simulator are functionally and timing-model
//! equivalent iff their corpora are byte-identical. `golden_reports` prints
//! the corpus (so CI can `cmp` it across shard-worker legs within one
//! build), and `tests/golden_digests.rs` pins one FNV-1a digest per case
//! against the checked-in `golden_digests.txt`, so the same contract also
//! holds *across* builds. A deliberate change to the
//! cycle model or the outputs regenerates that file with
//! `golden_reports --digests`.

use crate::runner::SystemId;
use flexagon_core::{Accelerator, CpuMkl, Dataflow, ExecutionRequest, RunOutput};
use flexagon_sparse::{gen, CompressedMatrix, MajorOrder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One operand shape of the corpus: `A` is `m x k` at `density_a`, `B` is
/// `k x n` at `density_b`, both drawn from one ChaCha8 stream at `seed`.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Rows of A (and C).
    pub m: u32,
    /// Columns of A, rows of B.
    pub k: u32,
    /// Columns of B (and C).
    pub n: u32,
    /// Nonzero density of A.
    pub density_a: f64,
    /// Nonzero density of B.
    pub density_b: f64,
    /// Generator seed.
    pub seed: u64,
}

impl Shape {
    /// Materializes the operand pair.
    pub fn operands(&self) -> (CompressedMatrix, CompressedMatrix) {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let a = gen::random(self.m, self.k, self.density_a, MajorOrder::Row, &mut rng);
        let b = gen::random(self.k, self.n, self.density_b, MajorOrder::Row, &mut rng);
        (a, b)
    }

    /// The case label for this shape on `system` (a dataflow, or the CPU
    /// baseline).
    pub fn label(&self, system: impl std::fmt::Display) -> String {
        let Shape {
            m,
            k,
            n,
            density_a,
            density_b,
            seed,
        } = self;
        format!("{m}x{k}x{n}/da{density_a}/db{density_b}/seed{seed}/{system}")
    }
}

const fn shape(m: u32, k: u32, n: u32, density_a: f64, density_b: f64, seed: u64) -> Shape {
    Shape {
        m,
        k,
        n,
        density_a,
        density_b,
        seed,
    }
}

/// The corpus shapes; each runs under every dataflow in [`Dataflow::ALL`]
/// and on [`CpuMkl`].
pub const SHAPES: [Shape; 6] = [
    shape(32, 48, 40, 0.30, 0.20, 1),
    shape(96, 64, 80, 0.10, 0.40, 2),
    shape(160, 160, 160, 0.05, 0.05, 3),
    shape(64, 512, 48, 0.20, 0.15, 4),
    shape(8, 8, 8, 1.00, 1.00, 5),
    shape(32, 16, 1100, 0.50, 0.90, 6),
];

/// One serialized corpus case.
#[derive(Debug)]
pub struct GoldenCase {
    /// `<shape>/<dataflow>` label.
    pub label: String,
    /// The execution report as JSON.
    pub report: String,
    /// The output matrix as JSON.
    pub c: String,
}

impl GoldenCase {
    fn new(label: String, out: &RunOutput) -> Self {
        Self {
            label,
            report: serde_json::to_string(&out.report).expect("report serializes"),
            c: serde_json::to_string(&out.c).expect("matrix serializes"),
        }
    }

    /// FNV-1a (64-bit) over the report JSON followed by the output JSON.
    pub fn digest(&self) -> u64 {
        fnv1a(fnv1a(FNV_OFFSET, self.report.as_bytes()), self.c.as_bytes())
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues an FNV-1a (64-bit) hash `h` over `bytes`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Runs the whole corpus, shape-major: each shape on `accel` in
/// [`Dataflow::ALL`] order, then on the default [`CpuMkl`] baseline.
///
/// # Panics
///
/// Panics if `accel` rejects a dataflow or a case fails to serialize.
pub fn run(accel: &impl Accelerator) -> Vec<GoldenCase> {
    let cpu = CpuMkl::with_defaults();
    let mut cases = Vec::with_capacity(SHAPES.len() * (Dataflow::ALL.len() + 1));
    for shape in &SHAPES {
        let (a, b) = shape.operands();
        for df in Dataflow::ALL {
            let out = accel
                .execute(ExecutionRequest::new(&a, &b).dataflow(df))
                .expect("golden run")
                .output;
            cases.push(GoldenCase::new(shape.label(df), &out));
        }
        let out = cpu.run(&a, &b).expect("golden CPU run");
        cases.push(GoldenCase::new(shape.label(SystemId::CpuMkl.name()), &out));
    }
    cases
}

/// Renders digests in the checked-in file format: one
/// `<16 hex digits>  <label>` line per case.
pub fn digest_lines(cases: &[GoldenCase]) -> String {
    cases
        .iter()
        .map(|c| format!("{:016x}  {}\n", c.digest(), c.label))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }
}
