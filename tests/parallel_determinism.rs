//! The parallel-execution determinism guarantee, end to end: with a fixed
//! shard grain, the worker count must never change a byte of any execution
//! report or output matrix — across all six dataflows and the generator
//! families of `gen::scenario_sweep` (R-MAT skew, banded locality,
//! block-sparse pruning, exact-nnz extremes, cross-family products).
//!
//! This is the contract that makes intra-layer parallel simulation safe to
//! enable anywhere: the band decomposition is a pure function of the
//! operand structure and the grain, each band is an independent
//! sub-execution, and the reduction runs in band order — so threads only
//! change wall clock, never results.

use flexagon::core::{Accelerator, AcceleratorConfig, Dataflow, Flexagon};
use flexagon::sparse::gen;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One fixed-dataflow run through the `execute` entry point.
fn run_df(
    accel: &impl Accelerator,
    a: &flexagon::sparse::CompressedMatrix,
    b: &flexagon::sparse::CompressedMatrix,
    df: Dataflow,
) -> flexagon::core::Result<flexagon::core::RunOutput> {
    accel
        .execute(flexagon::core::ExecutionRequest::new(a, b).dataflow(df))
        .map(|ex| ex.output)
}

/// One affordable representative per generator family keeps the debug
/// tier-1 runtime bounded while covering every structure class the sweep
/// generates.
fn representative_scenarios() -> Vec<gen::Scenario> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF1E_CA60);
    let mut picked: Vec<gen::Scenario> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for s in gen::scenario_sweep(&mut rng) {
        let family = s.name.split('/').next().expect("family prefix").to_string();
        if seen.contains(&family) || s.a.nnz() + s.b.nnz() > 14_000 {
            continue;
        }
        seen.insert(family);
        picked.push(s);
    }
    assert!(
        picked.len() >= 4,
        "the sweep should offer small scenarios across families, got {:?}",
        picked.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
    picked
}

#[test]
fn sharded_execution_is_byte_identical_across_worker_counts() {
    for s in representative_scenarios() {
        // A grain that yields a handful of bands per dataflow, so the
        // parallel path genuinely splits and reduces.
        let grain = (s.a.nnz() / 6).max(1);
        let run_all = |workers: usize| -> String {
            let mut cfg = AcceleratorConfig::table5();
            cfg.engine = cfg.engine.sharded(grain, workers);
            let accel = Flexagon::new(cfg);
            Dataflow::ALL
                .iter()
                .map(|&df| {
                    let out = run_df(&accel, &s.a, &s.b, df).expect("scenario run");
                    format!(
                        "{df}:{}:{}",
                        serde_json::to_string(&out.report).expect("report"),
                        serde_json::to_string(&out.c).expect("matrix")
                    )
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        let sequential = run_all(1);
        for workers in [2usize, 3, 7] {
            assert_eq!(
                sequential,
                run_all(workers),
                "{} diverged at {workers} workers (grain {grain})",
                s.name
            );
        }
    }
}

#[test]
fn sharding_grain_disabled_matches_defaults() {
    // The default engine (grain 0) and an explicit single-band grain must
    // agree with each other — the sharded machinery collapses exactly onto
    // the classic sequential path.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let a = gen::random(48, 64, 0.2, flexagon::sparse::MajorOrder::Row, &mut rng);
    let b = gen::random(64, 40, 0.25, flexagon::sparse::MajorOrder::Row, &mut rng);
    let default_accel = Flexagon::with_defaults();
    let mut cfg = AcceleratorConfig::table5();
    cfg.engine = cfg.engine.sharded(usize::MAX, 4);
    let one_band = Flexagon::new(cfg);
    for df in Dataflow::ALL {
        let d = run_df(&default_accel, &a, &b, df).expect("default run");
        let s = run_df(&one_band, &a, &b, df).expect("one-band run");
        assert_eq!(
            serde_json::to_string(&d.report).unwrap(),
            serde_json::to_string(&s.report).unwrap(),
            "{df}"
        );
        assert_eq!(d.c, s.c, "{df}");
    }
}
