//! Differential tests for the storage-format tier of `Accelerator::execute`:
//! a *lossless* format is a label that runs on the caller's operands, so it
//! must be result-transparent — byte-identical output matrix **and**
//! byte-identical execution report — against the SoA baseline, across all
//! six dataflows and the adversarial generator sweep. `q8` is the one
//! format that changes values.

use flexagon_core::{Accelerator, AcceleratorConfig, Dataflow, ExecutionRequest, Flexagon};
use flexagon_sparse::{gen, DenseMatrix, FiberFormat, FormattedMatrix};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs one `(dataflow, format)` point and returns the output.
fn run(
    accel: &Flexagon,
    a: &flexagon_sparse::CompressedMatrix,
    b: &flexagon_sparse::CompressedMatrix,
    df: Dataflow,
    format: FiberFormat,
) -> flexagon_core::RunOutput {
    accel
        .execute(ExecutionRequest::new(a, b).dataflow(df).format(format))
        .unwrap_or_else(|e| panic!("{df} @ {format} failed: {e}"))
        .output
}

/// Every lossless non-SoA format, on every dataflow, over the adversarial
/// sweep: outputs and reports must equal the SoA run bit for bit.
#[test]
fn lossless_formats_are_result_transparent_on_every_dataflow() {
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let scenarios = gen::adversarial_sweep(&mut rng);
    assert!(scenarios.len() >= 7, "sweep lost scenarios");
    let accel = Flexagon::new(AcceleratorConfig::tiny());
    for s in &scenarios {
        for df in Dataflow::ALL {
            let baseline = run(&accel, &s.a, &s.b, df, FiberFormat::Soa);
            for format in FiberFormat::ALL {
                if format == FiberFormat::Soa || !format.is_lossless() {
                    continue;
                }
                let formatted = run(&accel, &s.a, &s.b, df, format);
                assert_eq!(
                    formatted.c, baseline.c,
                    "{}: {df} output differs under {format}",
                    s.name
                );
                assert_eq!(
                    serde_json::to_string(&formatted.report).unwrap(),
                    serde_json::to_string(&baseline.report).unwrap(),
                    "{}: {df} report differs under {format}",
                    s.name
                );
            }
        }
    }
}

/// The lossy quantized tier is *opt-in* and close, not identical: under
/// `q8` every dataflow still computes a product within the per-block
/// quantization tolerance of the exact one, and structure is untouched.
#[test]
fn quantized_execution_stays_within_tolerance() {
    let mut rng = ChaCha8Rng::seed_from_u64(29);
    let a = gen::random(48, 64, 0.2, flexagon_sparse::MajorOrder::Row, &mut rng);
    let b = gen::random(64, 40, 0.3, flexagon_sparse::MajorOrder::Row, &mut rng);
    let accel = Flexagon::new(AcceleratorConfig::tiny());
    // The engine computes on dequantized operands, so the right reference
    // is the dense product of the *quantized* operands — exactly what the
    // documented bound covers — plus a sanity band against the true one.
    let aq = FormattedMatrix::encode(&a, FiberFormat::Quant8).decode();
    let bq = FormattedMatrix::encode(&b, FiberFormat::Quant8).decode();
    let want_q = DenseMatrix::from_compressed(&aq)
        .matmul(&DenseMatrix::from_compressed(&bq))
        .expect("dims agree");
    let want_exact = DenseMatrix::from_compressed(&a)
        .matmul(&DenseMatrix::from_compressed(&b))
        .expect("dims agree");
    for df in Dataflow::ALL {
        let out = run(&accel, &a, &b, df, FiberFormat::Quant8);
        let got = DenseMatrix::from_compressed(&out.c);
        assert!(
            got.approx_eq(&want_q, 1e-3),
            "{df}: quantized run differs from the quantized reference"
        );
        // |v - v'| <= max_abs/254 per operand element; through a K-deep
        // dot product the product error stays far inside this band for
        // these magnitudes.
        assert!(
            got.approx_eq(&want_exact, 0.5),
            "{df}: quantized run drifted past the documented tolerance"
        );
    }
}

/// The config-default route (`FormatChoice::Config`, the way serve model
/// jobs pick a format): `engine.format = q8` quantizes exactly like a
/// pinned `q8` request, a lossless default matches SoA byte for byte, and
/// pinning `soa` on a `q8`-configured accelerator does not quantize.
#[test]
fn config_default_format_matches_the_pinned_route() {
    use flexagon_core::FormatChoice::{Config, Fixed};
    use FiberFormat::{Bcsr4, Quant8, Soa};
    let mut rng = ChaCha8Rng::seed_from_u64(37);
    let a = gen::random(40, 48, 0.25, flexagon_sparse::MajorOrder::Row, &mut rng);
    let b = gen::random(48, 36, 0.3, flexagon_sparse::MajorOrder::Row, &mut rng);
    let configured = |format| {
        let mut cfg = AcceleratorConfig::tiny();
        cfg.engine.format = format;
        Flexagon::new(cfg)
    };
    let (plain, quant, blocked) = (configured(Soa), configured(Quant8), configured(Bcsr4));
    let report = |out: &flexagon_core::RunOutput| serde_json::to_string(&out.report).unwrap();
    for df in Dataflow::ALL {
        let soa = run(&plain, &a, &b, df, Soa);
        let pinned_q8 = run(&plain, &a, &b, df, Quant8);
        assert_ne!(pinned_q8.c, soa.c, "{df}: q8 must change values here");
        let cases = [
            (&quant, Config, Quant8, &pinned_q8),
            (&blocked, Config, Bcsr4, &soa),
            (&quant, Fixed(Soa), Soa, &soa),
        ];
        for (accel, choice, resolved, want) in cases {
            let req = ExecutionRequest::new(&a, &b).dataflow(df);
            let ex = accel.execute(req.format_choice(choice)).unwrap();
            let label = format!(
                "{df}: {choice} on a {} default",
                accel.config().engine.format
            );
            assert_eq!(ex.format, resolved, "{label}");
            assert_eq!(ex.output.c, want.c, "{label}: output");
            assert_eq!(report(&ex.output), report(want), "{label}: report");
        }
    }
}
