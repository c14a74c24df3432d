//! The accelerators: Flexagon and the three fixed-dataflow baselines.
//!
//! Following the paper's methodology (§4), the four accelerators share the
//! same Table 5 parameters — "we only change the memory controllers to
//! deliver the data in the proper order according to its dataflow" — so the
//! baselines are the same engine pinned to one dataflow class, with the
//! PSRAM sized per Table 8 (none for SIGMA-like, half for GAMMA-like).

use crate::{
    engine, mapper, AcceleratorConfig, CancelToken, CoreError, Dataflow, ExecutionReport,
    FormatChoice, MappingStrategy, Result,
};
use flexagon_sparse::{
    validate_matrix, CompressedMatrix, FiberFormat, FormattedMatrix, ValidationConfig,
};

/// Result of one accelerator execution: the functional output matrix and
/// the measured report.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The output matrix C, in the dataflow's natural format (Table 3).
    pub c: CompressedMatrix,
    /// Cycles, traffic and statistics for the run.
    pub report: ExecutionReport,
}

/// One execution, fully specified: operands plus the strategy, format,
/// validation and cancellation knobs.
///
/// Built builder-style from [`ExecutionRequest::new`] — every knob
/// defaults to the common case (heuristic dataflow, config-default
/// format, no validation), so the simplest call reads
/// `accel.execute(ExecutionRequest::new(&a, &b).dataflow(df))`.
#[derive(Debug, Clone)]
pub struct ExecutionRequest<'m> {
    /// The stationary operand A.
    pub a: &'m CompressedMatrix,
    /// The streaming operand B.
    pub b: &'m CompressedMatrix,
    /// How the dataflow is chosen ([`MappingStrategy::Heuristic`] by
    /// default).
    pub strategy: MappingStrategy,
    /// How the fiber storage format is chosen ([`FormatChoice::Config`]
    /// by default — the accelerator's configured format).
    pub format: FormatChoice,
    /// Operand validation to run before execution (`None` skips it — the
    /// policy for operands this process built itself).
    pub validation: Option<ValidationConfig>,
    /// Cooperative cancellation handle, polled at band/tile/merge-pass
    /// boundaries. The default unarmed token never fires and is
    /// result-transparent; an armed token surfaces
    /// [`CoreError::DeadlineExceeded`] once it fires.
    pub cancel: CancelToken,
}

impl<'m> ExecutionRequest<'m> {
    /// A request for `a x b` with every knob at its default: heuristic
    /// dataflow selection, the config-default format, no validation.
    pub fn new(a: &'m CompressedMatrix, b: &'m CompressedMatrix) -> Self {
        Self {
            a,
            b,
            strategy: MappingStrategy::Heuristic,
            format: FormatChoice::Config,
            validation: None,
            cancel: CancelToken::never(),
        }
    }

    /// Sets the mapping strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: MappingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Pins the dataflow (shorthand for
    /// `strategy(MappingStrategy::Fixed(dataflow))`).
    #[must_use]
    pub fn dataflow(mut self, dataflow: Dataflow) -> Self {
        self.strategy = MappingStrategy::Fixed(dataflow);
        self
    }

    /// Pins the fiber storage format (shorthand for
    /// `format_choice(FormatChoice::Fixed(format))`).
    #[must_use]
    pub fn format(mut self, format: FiberFormat) -> Self {
        self.format = FormatChoice::Fixed(format);
        self
    }

    /// Sets how the storage format is chosen.
    #[must_use]
    pub fn format_choice(mut self, choice: FormatChoice) -> Self {
        self.format = choice;
        self
    }

    /// Validates both operands under `validation` before execution — the
    /// boundary for operands whose bytes arrived from outside the process.
    #[must_use]
    pub fn validated(mut self, validation: ValidationConfig) -> Self {
        self.validation = Some(validation);
        self
    }

    /// Attaches a cancellation token. Clones of the token share the same
    /// latch, so the caller keeps one handle and can fire it (or let its
    /// deadline pass) while the execution is in flight.
    #[must_use]
    pub fn cancel_token(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Arms an end-to-end deadline `budget` from now (shorthand for
    /// `cancel_token(CancelToken::after(budget))`).
    #[must_use]
    pub fn deadline_in(self, budget: std::time::Duration) -> Self {
        self.cancel_token(CancelToken::after(budget))
    }
}

/// Result of [`Accelerator::execute`]: the selections the request left
/// open, resolved, plus the run output.
#[derive(Debug, Clone)]
pub struct Execution {
    /// The dataflow that ran (the strategy's choice).
    pub dataflow: Dataflow,
    /// The resolved fiber storage format: a label for the lossless
    /// formats, the quantization the operands ran under for
    /// [`FiberFormat::Quant8`].
    pub format: FiberFormat,
    /// The output matrix and execution report.
    pub output: RunOutput,
}

/// Common interface of all simulated accelerators.
pub trait Accelerator {
    /// Human-readable name used in reports ("Flexagon", "SIGMA-like", ...).
    fn name(&self) -> &str;

    /// The architectural configuration.
    fn config(&self) -> &AcceleratorConfig;

    /// The dataflows this accelerator can execute.
    fn supported_dataflows(&self) -> &[Dataflow];

    /// The execution entry point: runs one SpMSpM operation as a
    /// fully-specified [`ExecutionRequest`], resolved in three steps:
    ///
    /// * **Validation** runs first when requested
    ///   ([`ExecutionRequest::validated`]) — the boundary for operands
    ///   whose bytes arrived from outside the process.
    /// * **Format** resolves next: [`FormatChoice::Config`] takes the
    ///   configured [`crate::EngineConfig::format`], and
    ///   [`FormatChoice::Fixed`] pins a token. A lossless format is a
    ///   label: the run reads the caller's operands untouched, so outputs
    ///   and reports equal the SoA run byte for byte. The lossy
    ///   [`FiberFormat::Quant8`] is the one format that changes values: both
    ///   operands are quantized once, before any dataflow runs.
    /// * **Strategy** dispatches last: [`MappingStrategy::Fixed`] runs
    ///   the pinned dataflow, [`MappingStrategy::Heuristic`] picks by
    ///   calibrated cost estimate and runs once, and
    ///   [`MappingStrategy::Oracle`] sweeps every supported dataflow and
    ///   keeps the fastest (the paper's evaluation methodology, at
    ///   `supported_dataflows().len()` times the simulation cost).
    ///
    /// # Errors
    ///
    /// [`CoreError::Validation`] when a requested validation fails;
    /// [`CoreError::UnsupportedDataflow`] when a `Fixed` dataflow is not
    /// in [`Accelerator::supported_dataflows`]; [`CoreError::Format`] on
    /// dimension mismatch; [`CoreError::DeadlineExceeded`] when the
    /// request's [`CancelToken`] fires mid-execution; plus any engine
    /// error.
    fn execute(&self, req: ExecutionRequest<'_>) -> Result<Execution> {
        if let Some(validation) = &req.validation {
            validate_matrix(req.a, validation).map_err(CoreError::Validation)?;
            validate_matrix(req.b, validation).map_err(CoreError::Validation)?;
        }
        let cfg = self.config();
        let format = match req.format {
            FormatChoice::Config => cfg.engine.format,
            FormatChoice::Fixed(f) => f,
        };
        // Lossless formats are labels and leave the operands as they are;
        // `q8` quantizes them once for every dataflow the strategy runs.
        let quantized;
        let (a, b) = if format.is_lossless() {
            (req.a, req.b)
        } else {
            quantized = [req.a, req.b].map(|m| FormattedMatrix::encode(m, format).decode());
            (&quantized[0], &quantized[1])
        };
        let run_one = |df: Dataflow| -> Result<RunOutput> {
            if !self.supported_dataflows().contains(&df) {
                return Err(CoreError::UnsupportedDataflow {
                    accelerator: self.name().to_owned(),
                    dataflow: df,
                });
            }
            let (c, report) = engine::execute(cfg, a, b, df, &req.cancel)?;
            Ok(RunOutput { c, report })
        };
        let (dataflow, output) = match req.strategy {
            MappingStrategy::Fixed(df) => (df, run_one(df)?),
            MappingStrategy::Heuristic => {
                let df = mapper::heuristic_among(cfg, a, b, self.supported_dataflows());
                (df, run_one(df)?)
            }
            MappingStrategy::Oracle => {
                let mut best: Option<(Dataflow, RunOutput)> = None;
                for &df in self.supported_dataflows() {
                    let out = run_one(df)?;
                    let better = match &best {
                        None => true,
                        Some((_, prev)) => out.report.total_cycles < prev.report.total_cycles,
                    };
                    if better {
                        best = Some((df, out));
                    }
                }
                best.ok_or_else(|| CoreError::UnsupportedDataflow {
                    accelerator: self.name().to_owned(),
                    dataflow: Dataflow::InnerProductM,
                })?
            }
        };
        Ok(Execution {
            dataflow,
            format,
            output,
        })
    }
}

macro_rules! fixed_accelerator {
    (
        $(#[$doc:meta])*
        $name:ident, $display:expr, $dataflows:expr, $memory:expr
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name {
            cfg: AcceleratorConfig,
        }

        impl $name {
            /// Creates the accelerator from a base configuration; the
            /// memory hierarchy is adjusted to this design's sizing.
            pub fn new(mut cfg: AcceleratorConfig) -> Self {
                cfg.memory = $memory(cfg.memory);
                Self { cfg }
            }

            /// Creates the accelerator with the paper's Table 5 parameters.
            pub fn with_defaults() -> Self {
                Self::new(AcceleratorConfig::table5())
            }
        }

        impl Accelerator for $name {
            fn name(&self) -> &str {
                $display
            }

            fn config(&self) -> &AcceleratorConfig {
                &self.cfg
            }

            fn supported_dataflows(&self) -> &[Dataflow] {
                &$dataflows
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::with_defaults()
            }
        }
    };
}

fixed_accelerator!(
    /// The Flexagon accelerator: all six dataflows on one substrate, with
    /// the unified MRN and the full 256 KiB PSRAM.
    Flexagon,
    "Flexagon",
    Dataflow::ALL,
    |m| m
);

fixed_accelerator!(
    /// The SIGMA-like Inner-Product baseline: FAN reduction network, no
    /// merging capability, no PSRAM use.
    SigmaLike,
    "SIGMA-like",
    [Dataflow::InnerProductM, Dataflow::InnerProductN],
    |m: flexagon_mem::MemoryConfig| {
        let _ = m;
        flexagon_mem::MemoryConfig::table5_no_psram()
    }
);

fixed_accelerator!(
    /// The SpArch-like Outer-Product baseline: merger tree plus a full
    /// 256 KiB PSRAM for its worst-case psum volume.
    SparchLike,
    "Sparch-like",
    [Dataflow::OuterProductM, Dataflow::OuterProductN],
    |m| m
);

fixed_accelerator!(
    /// The GAMMA-like Gustavson baseline: merger tree, fiber-reuse cache,
    /// and a half-sized (128 KiB) PSRAM per Table 8.
    GammaLike,
    "GAMMA-like",
    [Dataflow::GustavsonM, Dataflow::GustavsonN],
    |mut m: flexagon_mem::MemoryConfig| {
        m.psram.capacity_bytes /= 2;
        m
    }
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataflowClass;

    #[test]
    fn supported_dataflows_match_table1() {
        assert_eq!(Flexagon::with_defaults().supported_dataflows().len(), 6);
        for d in SigmaLike::with_defaults().supported_dataflows() {
            assert_eq!(d.class(), DataflowClass::InnerProduct);
        }
        for d in SparchLike::with_defaults().supported_dataflows() {
            assert_eq!(d.class(), DataflowClass::OuterProduct);
        }
        for d in GammaLike::with_defaults().supported_dataflows() {
            assert_eq!(d.class(), DataflowClass::Gustavson);
        }
    }

    #[test]
    fn gamma_like_has_half_psram() {
        let g = GammaLike::with_defaults();
        let f = Flexagon::with_defaults();
        assert_eq!(
            g.config().memory.psram.capacity_bytes * 2,
            f.config().memory.psram.capacity_bytes
        );
    }

    #[test]
    fn baselines_reject_foreign_dataflows() {
        let sigma = SigmaLike::with_defaults();
        let a = CompressedMatrix::zero(2, 2, flexagon_sparse::MajorOrder::Row);
        let b = CompressedMatrix::zero(2, 2, flexagon_sparse::MajorOrder::Row);
        let err = sigma
            .execute(ExecutionRequest::new(&a, &b).dataflow(Dataflow::GustavsonM))
            .unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedDataflow { .. }));
    }

    #[test]
    fn fixed_strategy_matches_direct_run() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let a =
            flexagon_sparse::gen::random(24, 24, 0.3, flexagon_sparse::MajorOrder::Row, &mut rng);
        let b =
            flexagon_sparse::gen::random(24, 24, 0.3, flexagon_sparse::MajorOrder::Row, &mut rng);
        let f = Flexagon::with_defaults();
        for df in Dataflow::ALL {
            let ex = f
                .execute(ExecutionRequest::new(&a, &b).dataflow(df))
                .unwrap();
            let (c, report) =
                engine::execute(f.config(), &a, &b, df, &CancelToken::never()).unwrap();
            assert_eq!(ex.dataflow, df);
            assert_eq!(ex.output.c, c);
            assert_eq!(ex.output.report.total_cycles, report.total_cycles);
        }
    }

    #[test]
    fn oracle_strategy_matches_run_best() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(12);
        let a =
            flexagon_sparse::gen::random(24, 32, 0.3, flexagon_sparse::MajorOrder::Row, &mut rng);
        let b =
            flexagon_sparse::gen::random(32, 24, 0.3, flexagon_sparse::MajorOrder::Row, &mut rng);
        let f = Flexagon::with_defaults();
        let ex = f
            .execute(ExecutionRequest::new(&a, &b).strategy(MappingStrategy::Oracle))
            .unwrap();
        // The oracle keeps the fastest of every supported dataflow.
        let best = f
            .supported_dataflows()
            .iter()
            .map(|&df| {
                f.execute(ExecutionRequest::new(&a, &b).dataflow(df))
                    .unwrap()
                    .output
                    .report
                    .total_cycles
            })
            .min()
            .unwrap();
        assert_eq!(ex.output.report.total_cycles, best);
        assert_eq!(ex.dataflow, ex.output.report.dataflow);
    }

    #[test]
    fn heuristic_strategy_picks_a_supported_dataflow() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
        let a =
            flexagon_sparse::gen::random(24, 24, 0.4, flexagon_sparse::MajorOrder::Row, &mut rng);
        let b =
            flexagon_sparse::gen::random(24, 24, 0.4, flexagon_sparse::MajorOrder::Row, &mut rng);
        let sigma = SigmaLike::with_defaults();
        let ex = sigma
            .execute(ExecutionRequest::new(&a, &b).strategy(MappingStrategy::Heuristic))
            .unwrap();
        assert!(sigma.supported_dataflows().contains(&ex.dataflow));
        assert_eq!(ex.output.report.dataflow, ex.dataflow);
    }

    #[test]
    fn execute_lossless_formats_are_result_transparent() {
        use flexagon_sparse::FiberFormat;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
        let a =
            flexagon_sparse::gen::random(32, 24, 0.3, flexagon_sparse::MajorOrder::Row, &mut rng);
        let b =
            flexagon_sparse::gen::random(24, 32, 0.3, flexagon_sparse::MajorOrder::Row, &mut rng);
        let f = Flexagon::with_defaults();
        for df in [Dataflow::InnerProductM, Dataflow::GustavsonN] {
            // The baseline pins SoA explicitly so the differential holds
            // whatever the config default is.
            let base = f
                .execute(
                    ExecutionRequest::new(&a, &b)
                        .dataflow(df)
                        .format(FiberFormat::Soa),
                )
                .unwrap();
            assert_eq!(base.format, FiberFormat::Soa);
            for fmt in [FiberFormat::Bcsr4, FiberFormat::Bcsr8, FiberFormat::Ell] {
                let ex = f
                    .execute(ExecutionRequest::new(&a, &b).dataflow(df).format(fmt))
                    .unwrap();
                assert_eq!(ex.format, fmt);
                assert_eq!(ex.dataflow, df);
                assert_eq!(ex.output.c, base.output.c, "{fmt} output");
                assert_eq!(
                    format!("{:?}", ex.output.report),
                    format!("{:?}", base.output.report),
                    "{fmt} report"
                );
            }
        }
    }

    #[test]
    fn unarmed_cancellation_is_result_transparent() {
        // The tentpole invariant: threading the cancellation layer through
        // every dataflow must not change a single byte of output or report
        // when no deadline is armed — goldens stay identical.
        use rand::SeedableRng;
        use std::time::{Duration, Instant};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        let a =
            flexagon_sparse::gen::random(32, 28, 0.3, flexagon_sparse::MajorOrder::Row, &mut rng);
        let b =
            flexagon_sparse::gen::random(28, 32, 0.25, flexagon_sparse::MajorOrder::Row, &mut rng);
        let f = Flexagon::with_defaults();
        for df in Dataflow::ALL {
            let base = f
                .execute(ExecutionRequest::new(&a, &b).dataflow(df))
                .unwrap();
            // Explicit unarmed token and a far-future armed one: both must
            // reproduce the default run bit for bit.
            let tokens = [
                CancelToken::never(),
                CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600)),
            ];
            for token in tokens {
                let ex = f
                    .execute(
                        ExecutionRequest::new(&a, &b)
                            .dataflow(df)
                            .cancel_token(token),
                    )
                    .unwrap();
                assert_eq!(ex.output.c, base.output.c, "{df} output");
                assert_eq!(
                    format!("{:?}", ex.output.report),
                    format!("{:?}", base.output.report),
                    "{df} report"
                );
            }
        }
    }

    #[test]
    fn fired_token_surfaces_deadline_exceeded() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(24);
        let a =
            flexagon_sparse::gen::random(24, 24, 0.3, flexagon_sparse::MajorOrder::Row, &mut rng);
        let b =
            flexagon_sparse::gen::random(24, 24, 0.3, flexagon_sparse::MajorOrder::Row, &mut rng);
        let f = Flexagon::with_defaults();
        let fired = CancelToken::manual();
        fired.cancel();
        for strategy in [
            MappingStrategy::Heuristic,
            MappingStrategy::Oracle,
            MappingStrategy::Fixed(Dataflow::OuterProductN),
        ] {
            let err = f
                .execute(
                    ExecutionRequest::new(&a, &b)
                        .strategy(strategy)
                        .cancel_token(fired.clone()),
                )
                .unwrap_err();
            assert!(matches!(err, CoreError::DeadlineExceeded), "{strategy:?}");
        }
        // An already-expired deadline behaves the same.
        let err = f
            .execute(ExecutionRequest::new(&a, &b).deadline_in(std::time::Duration::ZERO))
            .unwrap_err();
        assert!(matches!(err, CoreError::DeadlineExceeded));
    }

    #[test]
    fn try_run_rejects_invalid_operands_and_matches_run_on_valid() {
        // The validated request is the checked ("try") entry point: valid
        // operands run exactly as unvalidated, and an Inf operand is refused
        // whichever strategy the request carries.
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(14);
        let a =
            flexagon_sparse::gen::random(16, 16, 0.3, flexagon_sparse::MajorOrder::Row, &mut rng);
        let b =
            flexagon_sparse::gen::random(16, 16, 0.3, flexagon_sparse::MajorOrder::Row, &mut rng);
        let f = Flexagon::with_defaults();
        let untrusted = flexagon_sparse::ValidationConfig::untrusted();
        let req = ExecutionRequest::new(&a, &b).dataflow(Dataflow::GustavsonM);
        let checked = f.execute(req.clone().validated(untrusted)).unwrap();
        assert_eq!(checked.output.c, f.execute(req).unwrap().output.c);

        let inf = CompressedMatrix::from_triplets(
            16,
            16,
            &[(0, 0, f32::INFINITY)],
            flexagon_sparse::MajorOrder::Row,
        )
        .unwrap();
        for (x, y, strategy) in [
            (&a, &inf, MappingStrategy::Fixed(Dataflow::GustavsonM)),
            (&inf, &b, MappingStrategy::Heuristic),
        ] {
            let err = f
                .execute(
                    ExecutionRequest::new(x, y)
                        .strategy(strategy)
                        .validated(untrusted),
                )
                .unwrap_err();
            assert!(matches!(err, CoreError::Validation(_)), "{strategy:?}");
        }
    }

    #[test]
    fn execute_validates_when_asked() {
        let f = Flexagon::with_defaults();
        let untrusted = flexagon_sparse::ValidationConfig::untrusted();
        let good =
            CompressedMatrix::from_triplets(2, 2, &[(0, 0, 1.0)], flexagon_sparse::MajorOrder::Row)
                .unwrap();
        let nan = CompressedMatrix::from_triplets(
            2,
            2,
            &[(0, 0, f32::NAN)],
            flexagon_sparse::MajorOrder::Row,
        )
        .unwrap();
        // Without validation the NaN operand executes; with the untrusted
        // policy it is refused before the engine sees it.
        f.execute(ExecutionRequest::new(&good, &nan)).unwrap();
        for (x, y, strategy) in [
            (&good, &nan, MappingStrategy::Heuristic),
            (&nan, &good, MappingStrategy::Fixed(Dataflow::InnerProductM)),
        ] {
            let err = f
                .execute(
                    ExecutionRequest::new(x, y)
                        .strategy(strategy)
                        .validated(untrusted),
                )
                .unwrap_err();
            assert!(matches!(err, CoreError::Validation(_)), "{strategy:?}");
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Flexagon::with_defaults().name(), "Flexagon");
        assert_eq!(SigmaLike::with_defaults().name(), "SIGMA-like");
        assert_eq!(SparchLike::with_defaults().name(), "Sparch-like");
        assert_eq!(GammaLike::with_defaults().name(), "GAMMA-like");
    }
}
