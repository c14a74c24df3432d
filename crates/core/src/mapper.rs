//! Dataflow selection — the paper's offline phase 1.
//!
//! "A mapper/compiler examines the features of the SpMSpM operation to be
//! executed (i.e., matrix dimensions and sparsity patterns) and decides the
//! dataflow (between the six available) that best matches the operation."
//! The paper leaves the tool as future work and evaluates Flexagon with
//! per-layer best dataflows; this module provides both that oracle and a
//! calibrated closed-form cost model behind a first-class
//! [`MappingStrategy`]:
//!
//! * [`MappingStrategy::Oracle`] — run every candidate dataflow, keep the
//!   fastest. Exact, but pays a full sweep per operation.
//! * [`MappingStrategy::Heuristic`] — pick from matrix features alone via
//!   [`CostEstimates`], whose closed-form terms are corrected by the
//!   [`MapperCalibration`] fitted from measured execution reports (the
//!   `mapper_calibrate` harness binary re-derives the coefficients; the
//!   `mapper_accuracy` binary audits the choices against the oracle).
//! * [`MappingStrategy::Fixed`] — pin one dataflow, bypassing selection.
//!
//! A request also names a storage format: [`FormatChoice`] takes the
//! config's format or pins a token, and [`MappingStrategy::parse_spec`]
//! parses the compound `strategy@format` client token. No format is
//! chosen from the operands: the lossless labels change nothing, and the
//! lossy `q8` is opt-in.

use crate::{
    Accelerator, AcceleratorConfig, Dataflow, DataflowClass, ExecutionRequest, Result, RunOutput,
};
use flexagon_sparse::{stats::SpGemmWork, CompressedMatrix, FiberFormat, ELEMENT_BYTES};
use serde::{Deserialize, Serialize};

/// How an accelerator chooses the dataflow for one SpMSpM operation.
///
/// Threaded through the bench runner, `spgemm_cli` and the per-layer DNN
/// flow; the oracle remains the audit reference, the heuristic is the fast
/// production path (no simulation sweep), and `Fixed` pins a dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingStrategy {
    /// Run every supported dataflow and keep the fastest (the paper's
    /// evaluation methodology; 3–6× the simulation cost per operation).
    Oracle,
    /// Select via the calibrated closed-form cost model, then run once.
    Heuristic,
    /// Always run the given dataflow.
    Fixed(Dataflow),
}

impl std::fmt::Display for MappingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Oracle => write!(f, "oracle"),
            Self::Heuristic => write!(f, "heuristic"),
            Self::Fixed(df) => write!(f, "fixed({})", df.token()),
        }
    }
}

impl std::str::FromStr for MappingStrategy {
    type Err = String;

    /// Parses `"oracle"` (alias `"auto"`), `"heuristic"`, or a dataflow
    /// token (`"ip-m"`, `"op-n"`, `"gust-m"`, ...) meaning `Fixed`.
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "oracle" | "auto" => Ok(Self::Oracle),
            "heuristic" => Ok(Self::Heuristic),
            other => Dataflow::from_token(other).map(Self::Fixed).ok_or_else(|| {
                format!("unknown mapping strategy '{other}' (expected oracle, heuristic, or a dataflow token like ip-m)")
            }),
        }
    }
}

impl MappingStrategy {
    /// Parses a compound `strategy@format` spec — the client-facing form
    /// that pins a storage format next to the dataflow choice, e.g.
    /// `heuristic@bcsr4`, `gust-m@ell`, or a bare `oracle` (format
    /// defaulting to [`FormatChoice::Config`]).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the unknown strategy or format
    /// token.
    pub fn parse_spec(spec: &str) -> std::result::Result<(Self, FormatChoice), String> {
        match spec.split_once('@') {
            None => Ok((spec.parse()?, FormatChoice::Config)),
            Some((strategy, format)) => Ok((strategy.parse()?, format.parse()?)),
        }
    }
}

/// How the fiber storage format is chosen for one execution, carried
/// alongside a [`MappingStrategy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FormatChoice {
    /// Use the format on the accelerator's [`crate::EngineConfig`] (the
    /// SoA baseline unless the config says otherwise). The default.
    #[default]
    Config,
    /// Pin the given format, exactly like pinning a dataflow.
    Fixed(FiberFormat),
}

impl std::fmt::Display for FormatChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config => write!(f, "config"),
            Self::Fixed(fmt) => write!(f, "{}", fmt.token()),
        }
    }
}

impl std::str::FromStr for FormatChoice {
    type Err = String;

    /// Parses `"config"` or a [`FiberFormat`] token (`"soa"`, `"bcsr4"`,
    /// `"ell"`, ...) meaning `Fixed`.
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "config" => Ok(Self::Config),
            other => other.parse::<FiberFormat>().map(Self::Fixed).map_err(|_| {
                format!(
                    "unknown format choice '{other}' (expected config or a format token like bcsr4)"
                )
            }),
        }
    }
}

/// Fitted linear correction for one dataflow class's closed-form estimate:
///
/// `cycles ≈ scale · raw_estimate + per_nnz_a · nnz(A) + per_row · M +
/// per_nnz_b · nnz(B)`
///
/// The raw closed-form terms model bandwidth-bound streaming; the fitted
/// per-element/per-row terms absorb the constant overheads the hand
/// model ignores (per-fiber setup, intersection scheduling, merge
/// bookkeeping), which decide the near-tie cases — e.g. the MobileBERT
/// layers, whose tiny `N` makes Gustavson's per-A-element fiber machinery
/// cost as much as its streaming. `scale = 1` with zero overheads is the
/// identity (the hand-written model).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassCalibration {
    /// Multiplicative coefficient on the raw closed-form estimate.
    pub scale: f64,
    /// Cycles charged per non-zero of the stationary operand A.
    pub per_nnz_a: f64,
    /// Cycles charged per stationary-dimension row (M).
    pub per_row: f64,
    /// Cycles charged per non-zero of the streaming operand B.
    pub per_nnz_b: f64,
}

impl ClassCalibration {
    /// The identity correction.
    pub const IDENTITY: Self = Self {
        scale: 1.0,
        per_nnz_a: 0.0,
        per_row: 0.0,
        per_nnz_b: 0.0,
    };

    /// Applies the correction to a raw estimate given the problem's
    /// structural features.
    pub fn apply(&self, raw: f64, nnz_a: u64, rows: u32, nnz_b: u64) -> f64 {
        self.scale * raw
            + self.per_nnz_a * nnz_a as f64
            + self.per_row * rows as f64
            + self.per_nnz_b * nnz_b as f64
    }
}

/// Per-class corrections for the heuristic mapper's cost model, fitted from
/// measured per-dataflow execution reports by the `mapper_calibrate` harness
/// binary (a log-log regression seed plus a deterministic coordinate search
/// maximizing top-1 oracle agreement, over the DNN suite and the generator
/// scenario sweep).
///
/// [`MapperCalibration::calibrated`] is the checked-in fit and the default
/// on [`crate::EngineConfig`]; [`MapperCalibration::IDENTITY`] recovers the
/// uncalibrated hand-written model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MapperCalibration {
    /// Correction for the Inner-Product estimate.
    pub inner_product: ClassCalibration,
    /// Correction for the Outer-Product estimate.
    pub outer_product: ClassCalibration,
    /// Correction for the Gustavson estimate.
    pub gustavson: ClassCalibration,
}

impl MapperCalibration {
    /// The uncalibrated model (all corrections identity).
    pub const IDENTITY: Self = Self {
        inner_product: ClassCalibration::IDENTITY,
        outer_product: ClassCalibration::IDENTITY,
        gustavson: ClassCalibration::IDENTITY,
    };

    /// The checked-in fit produced by `mapper_calibrate` over the Table 5
    /// configuration (DNN suite + generator scenario sweep; see
    /// `MAPPER_accuracy.json` for the audited agreement/regret it
    /// achieves). Notable corrections: the raw Outer-Product estimate is a
    /// systematic under-estimate (its merge traffic hides PSRAM block
    /// bookkeeping), and Gustavson pays real per-A-element and per-row
    /// fiber overheads that decide the tiny-`N` NLP layers.
    pub fn calibrated() -> Self {
        Self {
            inner_product: ClassCalibration {
                scale: 1.0,
                per_nnz_a: 0.0475,
                per_row: 0.1,
                per_nnz_b: 0.0,
            },
            outer_product: ClassCalibration {
                scale: 6.0,
                per_nnz_a: 0.0,
                per_row: 0.0,
                per_nnz_b: 0.0,
            },
            gustavson: ClassCalibration {
                scale: 1.0,
                per_nnz_a: 0.5,
                per_row: 8.005,
                per_nnz_b: 0.0,
            },
        }
    }

    /// The correction for one dataflow class.
    pub fn of_class(&self, class: DataflowClass) -> ClassCalibration {
        match class {
            DataflowClass::InnerProduct => self.inner_product,
            DataflowClass::OuterProduct => self.outer_product,
            DataflowClass::Gustavson => self.gustavson,
        }
    }
}

impl Default for MapperCalibration {
    fn default() -> Self {
        Self::calibrated()
    }
}

/// Oracle selection: runs every dataflow the accelerator supports and
/// returns the fastest, together with its output.
///
/// This matches the paper's evaluation methodology ("by properly
/// configuring the control logic of Flexagon according to the most suitable
/// dataflow for each layer").
///
/// # Errors
///
/// Propagates the first execution error.
pub fn oracle<A: Accelerator + ?Sized>(
    accel: &A,
    a: &CompressedMatrix,
    b: &CompressedMatrix,
) -> Result<(Dataflow, RunOutput)> {
    accel
        .execute(ExecutionRequest::new(a, b).strategy(MappingStrategy::Oracle))
        .map(|ex| (ex.dataflow, ex.output))
}

/// Closed-form cycle estimates used by the heuristic mapper.
///
/// The raw estimates model only the first-order bottlenecks that separate
/// the dataflows:
///
/// * **IP** pays a full re-stream of B per stationary tile
///   (`ceil(nnz_A / multipliers)` tiles).
/// * **OP** reads B once but moves every product through the PSRAM twice,
///   spilling to DRAM beyond its capacity.
/// * **Gustavson** moves every product through the distribution network
///   once, with B re-fetches served by the cache when B fits and by DRAM
///   when it does not.
///
/// [`CostEstimates::of`] additionally applies the
/// [`MapperCalibration`] carried on the configuration's
/// [`crate::EngineConfig`]; [`CostEstimates::raw`] skips it (the
/// calibration harness fits against the raw values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimates {
    /// Estimated Inner-Product cycles.
    pub inner_product: f64,
    /// Estimated Outer-Product cycles.
    pub outer_product: f64,
    /// Estimated Gustavson cycles.
    pub gustavson: f64,
}

/// The raw closed-form estimates together with the structural features the
/// calibration's overhead terms are charged against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostFeatures {
    /// Uncalibrated closed-form estimates.
    pub raw: CostEstimates,
    /// Non-zeros of the stationary operand A.
    pub nnz_a: u64,
    /// Stationary-dimension rows (M).
    pub rows: u32,
    /// Non-zeros of the streaming operand B.
    pub nnz_b: u64,
}

impl CostFeatures {
    /// Computes the raw terms and features for `a x b` on `cfg`.
    pub fn of(cfg: &AcceleratorConfig, a: &CompressedMatrix, b: &CompressedMatrix) -> Self {
        let work = SpGemmWork::of(a, b);
        let dn = cfg.dn_bandwidth.max(1);
        let merge = cfg.merge_bandwidth.max(1);
        let mults = cfg.multipliers as u64;
        let dram_bpc = cfg.memory.dram.bytes_per_cycle.max(1);
        let cache_bytes = cfg.memory.cache.capacity_bytes;
        let psram_elems = cfg.memory.psram.capacity_bytes / ELEMENT_BYTES;
        let b_bytes = work.nnz_b * ELEMENT_BYTES;

        // Inner Product: tiles x stream-all-of-B, DRAM-bound when B does
        // not fit in the cache.
        let tiles = work.nnz_a.div_ceil(mults).max(1);
        let stream_onchip = tiles * work.nnz_b / dn;
        let reload_bytes = if b_bytes > cache_bytes {
            tiles * b_bytes
        } else {
            b_bytes
        };
        let inner_product = stream_onchip.max(reload_bytes / dram_bpc) + work.products / mults;

        // Outer Product: B once, every product written+read on-chip, spilled
        // volume through DRAM.
        let spilled = work.products.saturating_sub(psram_elems);
        let op_onchip = work.nnz_b / dn + 2 * work.products / merge;
        let op_offchip = (b_bytes + 2 * spilled * ELEMENT_BYTES) / dram_bpc;
        let outer_product = op_onchip.max(op_offchip);

        // Gustavson: every product delivered once; B fiber fetches hit the
        // cache when B fits, otherwise each fetch goes off-chip.
        let gust_onchip = (work.products / dn).max(work.products / merge);
        let fetch_bytes = if b_bytes <= cache_bytes {
            b_bytes
        } else {
            work.products * ELEMENT_BYTES
        };
        let gustavson = gust_onchip.max(fetch_bytes / dram_bpc);

        Self {
            raw: CostEstimates {
                inner_product: inner_product as f64,
                outer_product: outer_product as f64,
                gustavson: gustavson as f64,
            },
            nnz_a: work.nnz_a,
            rows: a.rows(),
            nnz_b: work.nnz_b,
        }
    }

    /// Applies per-class calibration corrections to the raw estimates.
    pub fn calibrated(&self, cal: &MapperCalibration) -> CostEstimates {
        let apply =
            |c: &ClassCalibration, raw: f64| c.apply(raw, self.nnz_a, self.rows, self.nnz_b);
        CostEstimates {
            inner_product: apply(&cal.inner_product, self.raw.inner_product),
            outer_product: apply(&cal.outer_product, self.raw.outer_product),
            gustavson: apply(&cal.gustavson, self.raw.gustavson),
        }
    }
}

impl CostEstimates {
    /// Computes the calibrated estimates for `a x b` on `cfg` (the raw
    /// closed-form terms corrected by `cfg.engine.mapper`).
    pub fn of(cfg: &AcceleratorConfig, a: &CompressedMatrix, b: &CompressedMatrix) -> Self {
        CostFeatures::of(cfg, a, b).calibrated(&cfg.engine.mapper)
    }

    /// Computes the uncalibrated closed-form estimates.
    pub fn raw(cfg: &AcceleratorConfig, a: &CompressedMatrix, b: &CompressedMatrix) -> Self {
        CostFeatures::of(cfg, a, b).raw
    }

    /// The estimate for one dataflow class.
    pub fn of_class(&self, class: DataflowClass) -> f64 {
        match class {
            DataflowClass::InnerProduct => self.inner_product,
            DataflowClass::OuterProduct => self.outer_product,
            DataflowClass::Gustavson => self.gustavson,
        }
    }

    /// The M-stationary dataflow with the lowest estimate (ties resolved in
    /// IP, OP, Gust order).
    pub fn best(&self) -> Dataflow {
        let mut best = (self.inner_product, Dataflow::InnerProductM);
        if self.outer_product < best.0 {
            best = (self.outer_product, Dataflow::OuterProductM);
        }
        if self.gustavson < best.0 {
            best = (self.gustavson, Dataflow::GustavsonM);
        }
        best.1
    }
}

/// Heuristic mapper: picks an M-stationary dataflow from matrix features
/// alone, without running the simulator (the three-way choice the bench
/// runner and the per-layer DNN flow audit against their oracle).
pub fn heuristic(cfg: &AcceleratorConfig, a: &CompressedMatrix, b: &CompressedMatrix) -> Dataflow {
    CostEstimates::of(cfg, a, b).best()
}

/// Heuristic mapper over an explicit candidate list (e.g. an accelerator's
/// [`Accelerator::supported_dataflows`]): the candidate with the lowest
/// calibrated estimate, ties resolved in candidate order.
///
/// M-stationary candidates use the estimates directly; N-stationary ones
/// are the same class with the operand roles mirrored, so their estimates
/// come from the transposed problem (computed only when needed).
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn heuristic_among(
    cfg: &AcceleratorConfig,
    a: &CompressedMatrix,
    b: &CompressedMatrix,
    candidates: &[Dataflow],
) -> Dataflow {
    assert!(!candidates.is_empty(), "no candidate dataflows");
    let m_est = CostEstimates::of(cfg, a, b);
    let n_est = if candidates
        .iter()
        .any(|d| d.stationarity() == crate::Stationarity::N)
    {
        let bt = b.reinterpret_transposed();
        let at = a.reinterpret_transposed();
        Some(CostEstimates::of(cfg, &bt, &at))
    } else {
        None
    };
    let estimate = |df: Dataflow| match df.stationarity() {
        crate::Stationarity::M => m_est.of_class(df.class()),
        crate::Stationarity::N => n_est
            .expect("n_est computed when an N candidate exists")
            .of_class(df.class()),
    };
    let mut best = (estimate(candidates[0]), candidates[0]);
    for &df in &candidates[1..] {
        let e = estimate(df);
        if e < best.0 {
            best = (e, df);
        }
    }
    best.1
}

/// All six dataflows ranked by calibrated estimated cost, cheapest first.
///
/// M-stationary variants use the estimates directly; N-stationary variants
/// are the same class with the operand roles mirrored (B becomes the
/// stationary tensor), so their estimates come from the transposed problem.
pub fn ranked_dataflows(
    cfg: &AcceleratorConfig,
    a: &CompressedMatrix,
    b: &CompressedMatrix,
) -> Vec<(Dataflow, f64)> {
    let m_est = CostEstimates::of(cfg, a, b);
    let bt = b.reinterpret_transposed();
    let at = a.reinterpret_transposed();
    let n_est = CostEstimates::of(cfg, &bt, &at);
    let mut ranked = vec![
        (Dataflow::InnerProductM, m_est.inner_product),
        (Dataflow::OuterProductM, m_est.outer_product),
        (Dataflow::GustavsonM, m_est.gustavson),
        (Dataflow::InnerProductN, n_est.inner_product),
        (Dataflow::OuterProductN, n_est.outer_product),
        (Dataflow::GustavsonN, n_est.gustavson),
    ];
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite estimates"));
    ranked
}

/// Plans a whole model: one dataflow per layer such that (when possible)
/// every inter-layer transition is conversion-free (Table 4), preferring
/// each layer's cheapest dataflows.
///
/// This is the "best sequence of dataflows" decision the paper assigns to
/// the mapper/compiler (§3.3). When no conversion-free chain exists under
/// the given preferences, the planner falls back to each layer's
/// locally-cheapest dataflow (explicit conversions then show up in the
/// execution reports).
///
/// `layers` supplies `(A, B)` per layer in execution order.
pub fn plan_model(
    cfg: &AcceleratorConfig,
    layers: &[(&CompressedMatrix, &CompressedMatrix)],
) -> Vec<Dataflow> {
    let preferences: Vec<Vec<Dataflow>> = layers
        .iter()
        .map(|(a, b)| {
            ranked_dataflows(cfg, a, b)
                .into_iter()
                .map(|(d, _)| d)
                .collect()
        })
        .collect();
    crate::transitions::plan_chain(&preferences).unwrap_or_else(|| {
        preferences
            .iter()
            .map(|p| *p.first().expect("six ranked dataflows per layer"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexagon_sparse::{gen, MajorOrder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::table5()
    }

    #[test]
    fn heuristic_prefers_gustavson_for_small_cached_b() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // Small B (fits in cache easily), plenty of A rows.
        let a = gen::random(256, 128, 0.3, MajorOrder::Row, &mut rng);
        let b = gen::random(128, 64, 0.3, MajorOrder::Row, &mut rng);
        assert_eq!(heuristic(&cfg(), &a, &b), Dataflow::GustavsonM);
    }

    #[test]
    fn heuristic_avoids_inner_product_when_many_tiles() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        // nnz_A >> multipliers makes IP re-stream B many times: the raw
        // closed form ranks it worst of the three, and the calibrated
        // heuristic must not pick it either (the calibration reorders IP
        // vs OP — measured OP is the real worst here — but never makes IP
        // the winner).
        let a = gen::random(512, 512, 0.5, MajorOrder::Row, &mut rng);
        let b = gen::random(512, 512, 0.5, MajorOrder::Row, &mut rng);
        let raw = CostEstimates::raw(&cfg(), &a, &b);
        assert!(raw.inner_product > raw.gustavson);
        assert!(raw.inner_product > raw.outer_product);
        assert_ne!(heuristic(&cfg(), &a, &b), Dataflow::InnerProductM);
    }

    #[test]
    fn heuristic_prefers_inner_product_for_tiny_a() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        // A fits in one tile: B is streamed exactly once with no merge work.
        let a = gen::random_with_nnz(8, 64, 40, MajorOrder::Row, &mut rng);
        let b = gen::random(64, 256, 0.4, MajorOrder::Row, &mut rng);
        let est = CostEstimates::of(&cfg(), &a, &b);
        assert!(est.inner_product <= est.outer_product);
    }

    #[test]
    fn estimates_are_monotone_in_products() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let a = gen::random(64, 64, 0.2, MajorOrder::Row, &mut rng);
        let b_sparse = gen::random(64, 64, 0.1, MajorOrder::Row, &mut rng);
        let b_dense = gen::random(64, 64, 0.8, MajorOrder::Row, &mut rng);
        let sparse = CostEstimates::of(&cfg(), &a, &b_sparse);
        let dense = CostEstimates::of(&cfg(), &a, &b_dense);
        assert!(dense.gustavson >= sparse.gustavson);
        assert!(dense.outer_product >= sparse.outer_product);
    }

    #[test]
    fn best_breaks_ties_in_declared_order() {
        let est = CostEstimates {
            inner_product: 5.0,
            outer_product: 5.0,
            gustavson: 5.0,
        };
        assert_eq!(est.best(), Dataflow::InnerProductM);
    }

    #[test]
    fn identity_calibration_is_identity() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a = gen::random(48, 48, 0.3, MajorOrder::Row, &mut rng);
        let b = gen::random(48, 48, 0.3, MajorOrder::Row, &mut rng);
        let features = CostFeatures::of(&cfg(), &a, &b);
        assert_eq!(
            features.calibrated(&MapperCalibration::IDENTITY),
            features.raw
        );
    }

    #[test]
    fn calibration_applies_scale_and_overheads() {
        let cal = ClassCalibration {
            scale: 2.0,
            per_nnz_a: 0.5,
            per_row: 3.0,
            per_nnz_b: 0.25,
        };
        // 2*100 + 0.5*10 + 3*4 + 0.25*8 = 219.
        assert!((cal.apply(100.0, 10, 4, 8) - 219.0).abs() < 1e-9);
        assert_eq!(ClassCalibration::IDENTITY.apply(7.0, 999, 999, 999), 7.0);
    }

    #[test]
    fn calibration_features_match_operands() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a = gen::random(48, 32, 0.3, MajorOrder::Row, &mut rng);
        let b = gen::random(32, 24, 0.3, MajorOrder::Row, &mut rng);
        let f = CostFeatures::of(&cfg(), &a, &b);
        assert_eq!(f.nnz_a, a.nnz() as u64);
        assert_eq!(f.nnz_b, b.nnz() as u64);
        assert_eq!(f.rows, 48);
    }

    #[test]
    fn calibration_can_flip_the_choice() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let a = gen::random(256, 128, 0.3, MajorOrder::Row, &mut rng);
        let b = gen::random(128, 64, 0.3, MajorOrder::Row, &mut rng);
        let mut cfg = cfg();
        // A Gustavson penalty large enough always changes the winner away
        // from Gustavson.
        cfg.engine.mapper = MapperCalibration {
            gustavson: ClassCalibration {
                scale: 1e12,
                ..ClassCalibration::IDENTITY
            },
            ..MapperCalibration::IDENTITY
        };
        assert_ne!(heuristic(&cfg, &a, &b), Dataflow::GustavsonM);
    }

    #[test]
    fn heuristic_among_matches_best_on_m_stationary() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let a = gen::random(64, 64, 0.3, MajorOrder::Row, &mut rng);
        let b = gen::random(64, 64, 0.3, MajorOrder::Row, &mut rng);
        let c = cfg();
        assert_eq!(
            heuristic_among(&c, &a, &b, &Dataflow::M_STATIONARY),
            heuristic(&c, &a, &b)
        );
    }

    #[test]
    fn heuristic_among_single_candidate_is_that_candidate() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let a = gen::random(32, 32, 0.3, MajorOrder::Row, &mut rng);
        let b = gen::random(32, 32, 0.3, MajorOrder::Row, &mut rng);
        for df in Dataflow::ALL {
            assert_eq!(heuristic_among(&cfg(), &a, &b, &[df]), df);
        }
    }

    #[test]
    fn heuristic_among_agrees_with_ranked_front() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let a = gen::random(96, 64, 0.2, MajorOrder::Row, &mut rng);
        let b = gen::random(64, 96, 0.25, MajorOrder::Row, &mut rng);
        let c = cfg();
        let ranked = ranked_dataflows(&c, &a, &b);
        let picked = heuristic_among(&c, &a, &b, &Dataflow::ALL);
        // Same estimate as the ranked front (the pick may differ only on
        // exact ties, where candidate order breaks them).
        let picked_cost = ranked.iter().find(|&&(d, _)| d == picked).unwrap().1;
        assert_eq!(picked_cost, ranked[0].1);
    }

    #[test]
    fn strategy_parses_and_displays() {
        use std::str::FromStr;
        assert_eq!(
            MappingStrategy::from_str("oracle").unwrap(),
            MappingStrategy::Oracle
        );
        assert_eq!(
            MappingStrategy::from_str("auto").unwrap(),
            MappingStrategy::Oracle
        );
        assert_eq!(
            MappingStrategy::from_str("heuristic").unwrap(),
            MappingStrategy::Heuristic
        );
        assert_eq!(
            MappingStrategy::from_str("gust-m").unwrap(),
            MappingStrategy::Fixed(Dataflow::GustavsonM)
        );
        assert!(MappingStrategy::from_str("nope").is_err());
        assert_eq!(MappingStrategy::Oracle.to_string(), "oracle");
        assert_eq!(
            MappingStrategy::Fixed(Dataflow::InnerProductN).to_string(),
            "fixed(ip-n)"
        );
    }

    #[test]
    fn parse_spec_splits_strategy_and_format() {
        assert_eq!(
            MappingStrategy::parse_spec("heuristic").unwrap(),
            (MappingStrategy::Heuristic, FormatChoice::Config)
        );
        assert_eq!(
            MappingStrategy::parse_spec("heuristic@bcsr4").unwrap(),
            (
                MappingStrategy::Heuristic,
                FormatChoice::Fixed(FiberFormat::Bcsr4)
            )
        );
        assert!(MappingStrategy::parse_spec("gust-m@auto").is_err());
        assert!(MappingStrategy::parse_spec("heuristic@csr5").is_err());
        assert!(MappingStrategy::parse_spec("nope@ell").is_err());
    }

    #[test]
    fn format_choice_parses_and_displays() {
        for (token, want) in [
            ("config", FormatChoice::Config),
            ("ell", FormatChoice::Fixed(FiberFormat::Ell)),
            ("q8", FormatChoice::Fixed(FiberFormat::Quant8)),
        ] {
            assert_eq!(token.parse::<FormatChoice>().unwrap(), want);
            assert_eq!(want.to_string(), token);
        }
        assert!("csr5".parse::<FormatChoice>().is_err());
        assert!("auto".parse::<FormatChoice>().is_err());
        assert_eq!(FormatChoice::default(), FormatChoice::Config);
    }

    #[test]
    fn ranked_covers_all_six_and_sorts() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let a = gen::random(32, 32, 0.3, MajorOrder::Row, &mut rng);
        let b = gen::random(32, 32, 0.3, MajorOrder::Row, &mut rng);
        let ranked = ranked_dataflows(&cfg(), &a, &b);
        assert_eq!(ranked.len(), 6);
        let mut seen: Vec<Dataflow> = ranked.iter().map(|&(d, _)| d).collect();
        seen.sort_by_key(|d| d.loop_order());
        seen.dedup();
        assert_eq!(seen.len(), 6, "all variants ranked exactly once");
        assert!(
            ranked.windows(2).all(|w| w[0].1 <= w[1].1),
            "sorted by cost"
        );
    }

    #[test]
    fn plan_model_produces_free_chain_when_possible() {
        use crate::transitions;
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let x = gen::random(24, 32, 0.4, MajorOrder::Row, &mut rng);
        let w1 = gen::random(32, 40, 0.3, MajorOrder::Row, &mut rng);
        let c1 = flexagon_sparse::reference::spgemm(&x, &w1).unwrap();
        let w2 = gen::random(40, 16, 0.3, MajorOrder::Row, &mut rng);
        let plan = plan_model(&cfg(), &[(&x, &w1), (&c1, &w2)]);
        assert_eq!(plan.len(), 2);
        assert!(
            transitions::is_free(plan[0], plan[1]),
            "planner must chain {} -> {} for free",
            plan[0],
            plan[1]
        );
    }

    #[test]
    fn plan_model_empty_is_empty() {
        assert!(plan_model(&cfg(), &[]).is_empty());
    }
}
