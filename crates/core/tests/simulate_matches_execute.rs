//! `Accelerator::simulate` against `Accelerator::execute`.
//!
//! No cycle, counter, traffic or PSRAM charge of the engine reads a value,
//! so a run that never computes C must report exactly what a run that does
//! reports. Every case here runs both on `AcceleratorConfig::tiny()`, whose
//! 4-multiplier array splits rows and whose 256-byte PSRAM spills, over
//! both operand orders, unsharded and in small bands, all six dataflows and
//! the `soa` and `q8` formats. It asserts two things: the report JSON of
//! `simulate` equals that of `execute`, and the write buffer's element
//! count equals nnz(C), which is how a simulated report tells C's size.

use flexagon_core::{
    Accelerator, AcceleratorConfig, Dataflow, ExecutionReport, ExecutionRequest, Flexagon,
};
use flexagon_sparse::{gen, CompressedMatrix, FiberFormat, MajorOrder};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Shard grains: one band, and bands of a few nonzeros of A.
const GRAINS: [usize; 2] = [0, 5];

/// Runs every dataflow, format, operand order and grain on `a x b` and
/// checks both invariants. Returns the reports, for the callers that also
/// check which situation a shape reaches.
fn check(a: &CompressedMatrix, b: &CompressedMatrix) -> Vec<ExecutionReport> {
    let mut reports = Vec::new();
    for grain in GRAINS {
        let mut cfg = AcceleratorConfig::tiny();
        cfg.engine = cfg.engine.sharded(grain, 1);
        let accel = Flexagon::new(cfg);
        for (a_order, b_order) in [
            (MajorOrder::Row, MajorOrder::Row),
            (MajorOrder::Col, MajorOrder::Col),
            (MajorOrder::Row, MajorOrder::Col),
            (MajorOrder::Col, MajorOrder::Row),
        ] {
            let (a, b) = (a.converted(a_order), b.converted(b_order));
            for df in Dataflow::ALL {
                for format in [FiberFormat::Soa, FiberFormat::Quant8] {
                    let req = ExecutionRequest::new(&a, &b).dataflow(df).format(format);
                    let ex = accel.execute(req.clone()).expect("execute");
                    let sim = accel.simulate(req).expect("simulate");
                    let case = format!("{df} {format} grain {grain} {a_order:?}/{b_order:?}");
                    assert_eq!((sim.dataflow, sim.format), (df, format), "{case}");
                    assert_eq!(
                        serde_json::to_string(&sim.report).unwrap(),
                        serde_json::to_string(&ex.output.report).unwrap(),
                        "{case}"
                    );
                    assert_eq!(
                        ex.output.report.counters.get("wbuf.elements"),
                        ex.output.c.nnz() as u64,
                        "{case}"
                    );
                    reports.push(sim.report);
                }
            }
        }
    }
    reports
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random shapes, from tiny and dense to wide and sparse.
    #[test]
    fn simulated_reports_equal_executed_reports(
        m in 1u32..24,
        k in 1u32..24,
        n in 1u32..400,
        density_a in 0.02f64..0.9,
        density_b in 0.002f64..0.6,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = gen::random(m, k, density_a, MajorOrder::Row, &mut rng);
        let b = gen::random(k, n, density_b, MajorOrder::Row, &mut rng);
        check(&a, &b);
    }
}

/// A wide, very sparse B: each row of A gathers a few B rows whose
/// elements lie far apart, so the accumulators of Gustavson's and Outer
/// Product take their Runs tier (span wider than 64 slots per element).
#[test]
fn wide_sparse_rows_take_the_runs_tier() {
    let (m, k, n) = (6u32, 8u32, 1u32 << 16);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let a = gen::random(m, k, 0.6, MajorOrder::Row, &mut rng);
    let triplets: Vec<(u32, u32, f32)> = (0..k)
        .flat_map(|r| {
            let step = n / 3 - 1 - r * 97;
            (0..3).map(move |i| (r, i * step + r, 1.0 + (r + i) as f32))
        })
        .collect();
    let b = CompressedMatrix::from_triplets(k, n, &triplets, MajorOrder::Row).unwrap();
    // Some row of A merges two or more B rows whose span exceeds 64 slots
    // per element: the tier-selection rule's Runs case.
    let runs_row = (0..m).any(|row| {
        let ks = a.view().fiber(row).coords().to_vec();
        let (mut lo, mut hi, mut nnz) = (u32::MAX, 0, 0u64);
        for &kk in &ks {
            let coords = b.view().fiber(kk).coords();
            lo = lo.min(coords[0]);
            hi = hi.max(coords[coords.len() - 1]);
            nnz += coords.len() as u64;
        }
        ks.len() >= 2 && u64::from(hi - lo) + 1 > 64 * nnz
    });
    assert!(runs_row);
    check(&a, &b);
}

/// A psum-heavy shape that spills the tiny PSRAM under Outer Product and
/// under Gustavson's split rows.
#[test]
fn psram_spills_report_the_same() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let a = gen::random(12, 40, 0.7, MajorOrder::Row, &mut rng);
    let b = gen::random(40, 24, 0.6, MajorOrder::Row, &mut rng);
    let reports = check(&a, &b);
    for df in [Dataflow::OuterProductM, Dataflow::GustavsonM] {
        assert!(
            reports
                .iter()
                .any(|r| r.dataflow == df && r.psram.spilled_elements > 0),
            "{df} must spill"
        );
    }
}
