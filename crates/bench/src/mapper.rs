//! Mapper-accuracy evaluation: audit [`flexagon_core::mapper`]'s heuristic
//! against the oracle over the DNN suite and the generator scenario sweep.
//!
//! The oracle here is the same three-way choice the per-layer DNN flow
//! makes (Inner-Product(M) / Outer-Product(M) / Gustavson(M) on the Table 5
//! Flexagon): every case simulates all three dataflows once, and the
//! heuristic's pick is scored by *top-1 agreement* (did it pick the
//! winner?) and *cycle regret* (`picked_cycles / best_cycles`). The same
//! measurements double as the calibration harness's fitting data — the raw
//! closed-form estimates ride along in [`CaseOutcome`].

use flexagon_core::{mapper, Accelerator, AcceleratorConfig, Dataflow, ExecutionRequest, Flexagon};
use flexagon_dnn::AgreementStats;
use flexagon_sparse::{gen, CompressedMatrix};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// One SpMSpM problem to audit the mapper on.
#[derive(Debug, Clone)]
pub struct AccuracyCase {
    /// Aggregation group: the model short code (`"A"`, `"MB"`, ...) or the
    /// scenario family (`"rmat"`, `"banded"`, ...).
    pub group: String,
    /// Unique row label (`"R/res12"`, `"banded/chain/512w8"`, ...).
    pub label: String,
    /// Left operand.
    pub a: CompressedMatrix,
    /// Right operand.
    pub b: CompressedMatrix,
}

/// Every layer of the eight-model DNN suite, materialized at `seed`.
///
/// With `smoke`, each model is stride-sampled down to at most
/// [`SMOKE_LAYERS_PER_MODEL`] layers so the sweep fits a CI smoke budget;
/// the stride keeps the front/middle/back spread (early convolutions,
/// bottlenecks, classifier heads) rather than truncating.
pub fn dnn_cases(seed: u64, smoke: bool) -> Vec<AccuracyCase> {
    let mut cases = Vec::new();
    for model in flexagon_dnn::suite() {
        let stride = if smoke {
            model.layers.len().div_ceil(SMOKE_LAYERS_PER_MODEL)
        } else {
            1
        };
        for spec in model.layers.iter().step_by(stride.max(1)) {
            let mats = spec.materialize(seed);
            cases.push(AccuracyCase {
                group: model.short.to_string(),
                label: format!("{}/{}", model.short, spec.name),
                a: mats.a,
                b: mats.b,
            });
        }
    }
    cases
}

/// Smoke-budget cap on audited layers per model (see [`dnn_cases`]).
pub const SMOKE_LAYERS_PER_MODEL: usize = 8;

/// The generator scenario sweep ([`gen::scenario_sweep`]) as accuracy
/// cases, grouped by generator family.
pub fn scenario_cases(seed: u64) -> Vec<AccuracyCase> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    gen::scenario_sweep(&mut rng)
        .into_iter()
        .map(|s| AccuracyCase {
            group: s
                .name
                .split('/')
                .next()
                .expect("scenario names are family/shape")
                .to_string(),
            label: s.name,
            a: s.a,
            b: s.b,
        })
        .collect()
}

/// Measured outcome of one audited case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Aggregation group (see [`AccuracyCase::group`]).
    pub group: String,
    /// Row label.
    pub label: String,
    /// The heuristic's pick.
    pub predicted: Dataflow,
    /// The oracle's winner.
    pub oracle: Dataflow,
    /// Measured cycles per M-stationary dataflow, in
    /// [`Dataflow::M_STATIONARY`] order (IP, OP, Gust).
    pub measured_cycles: [u64; 3],
    /// Raw (uncalibrated) closed-form estimates, same order — the
    /// calibration harness's fitting features.
    pub raw_estimates: [f64; 3],
    /// Structural features of the problem for calibration analysis:
    /// `[m, k, n, nnz_a, nnz_b, products, effectual_k]`.
    pub features: [f64; 7],
}

impl CaseOutcome {
    /// Cycles of the oracle's winner.
    pub fn oracle_cycles(&self) -> u64 {
        self.cycles_of(self.oracle)
    }

    /// Cycles of the heuristic's pick.
    pub fn predicted_cycles(&self) -> u64 {
        self.cycles_of(self.predicted)
    }

    /// Measured cycles for one M-stationary dataflow.
    ///
    /// # Panics
    ///
    /// Panics if `df` is not M-stationary.
    pub fn cycles_of(&self, df: Dataflow) -> u64 {
        let idx = Dataflow::M_STATIONARY
            .iter()
            .position(|&d| d == df)
            .expect("outcomes cover M-stationary dataflows");
        self.measured_cycles[idx]
    }

    /// `predicted_cycles / oracle_cycles` (≥ 1; 1.0 on agreement or tie).
    pub fn regret(&self) -> f64 {
        self.predicted_cycles() as f64 / self.oracle_cycles() as f64
    }

    /// Whether the pick costs nothing: either the exact winner, or a
    /// different dataflow with identical measured cycles (a tie the oracle
    /// broke arbitrarily).
    pub fn agrees(&self) -> bool {
        self.predicted_cycles() == self.oracle_cycles()
    }
}

/// Audits one case: simulates the three M-stationary dataflows on `accel`
/// (fanned out across cores; each simulation is a pure function of the
/// operands, so the schedule cannot change any count) and compares the
/// oracle's winner with the calibrated heuristic's feature-only pick.
///
/// # Panics
///
/// Panics if a simulation fails — audit inputs are always well-formed.
pub fn evaluate_case(accel: &Flexagon, case: &AccuracyCase) -> CaseOutcome {
    let run = |df: Dataflow| {
        accel
            .execute(ExecutionRequest::new(&case.a, &case.b).dataflow(df))
            .unwrap_or_else(|e| panic!("{}: {df} failed: {e}", case.label))
            .output
            .report
            .total_cycles
    };
    let (ip, (op, gust)) = rayon::join(
        || run(Dataflow::InnerProductM),
        || {
            rayon::join(
                || run(Dataflow::OuterProductM),
                || run(Dataflow::GustavsonM),
            )
        },
    );
    let measured = [ip, op, gust];
    let best = Dataflow::M_STATIONARY[measured
        .iter()
        .enumerate()
        .min_by_key(|&(_, &c)| c)
        .expect("three dataflows measured")
        .0];
    let predicted = mapper::heuristic(accel.config(), &case.a, &case.b);
    let raw = mapper::CostEstimates::raw(accel.config(), &case.a, &case.b);
    let work = flexagon_sparse::stats::SpGemmWork::of(&case.a, &case.b);
    CaseOutcome {
        group: case.group.clone(),
        label: case.label.clone(),
        predicted,
        oracle: best,
        measured_cycles: measured,
        raw_estimates: [raw.inner_product, raw.outer_product, raw.gustavson],
        features: [
            case.a.rows() as f64,
            case.a.cols() as f64,
            case.b.cols() as f64,
            work.nnz_a as f64,
            work.nnz_b as f64,
            work.products as f64,
            work.effectual_k as f64,
        ],
    }
}

/// Audits every case (layer-level rayon fan-out, results in input order).
pub fn evaluate_all(cfg: &AcceleratorConfig, cases: &[AccuracyCase]) -> Vec<CaseOutcome> {
    let accel = Flexagon::new(*cfg);
    cases
        .par_iter()
        .map(|case| evaluate_case(&accel, case))
        .collect()
}

/// Per-group and overall agreement statistics for a set of outcomes.
///
/// Groups come back in first-appearance order, followed by the merged
/// overall row.
pub fn aggregate(outcomes: &[CaseOutcome]) -> (Vec<(String, AgreementStats)>, AgreementStats) {
    let mut groups: Vec<(String, AgreementStats)> = Vec::new();
    for o in outcomes {
        let stats = match groups.iter_mut().find(|(g, _)| *g == o.group) {
            Some((_, s)) => s,
            None => {
                groups.push((o.group.clone(), AgreementStats::new()));
                &mut groups.last_mut().expect("just pushed").1
            }
        };
        stats.record(&o.label, o.agrees(), o.regret());
    }
    let mut overall = AgreementStats::new();
    for (_, s) in &groups {
        overall.merge(s);
    }
    (groups, overall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cases_are_a_subset_with_all_models() {
        let smoke = dnn_cases(1, true);
        let full = dnn_cases(1, false);
        assert!(smoke.len() < full.len());
        assert!(smoke.len() <= 8 * SMOKE_LAYERS_PER_MODEL + 8);
        for short in ["A", "S", "V", "R", "S-R", "S-M", "DB", "MB"] {
            assert!(
                smoke.iter().any(|c| c.group == short),
                "model {short} missing from smoke set"
            );
        }
        let full_labels: std::collections::HashSet<&str> =
            full.iter().map(|c| c.label.as_str()).collect();
        assert!(smoke.iter().all(|c| full_labels.contains(c.label.as_str())));
    }

    #[test]
    fn scenario_cases_group_by_family() {
        let cases = scenario_cases(7);
        assert!(cases.iter().any(|c| c.group == "rmat"));
        assert!(cases.iter().any(|c| c.group == "banded"));
        assert!(cases.iter().any(|c| c.group == "block"));
        assert!(cases.iter().any(|c| c.group == "nnz"));
    }

    #[test]
    fn evaluate_case_measures_and_scores() {
        let cases = scenario_cases(3);
        let small = cases
            .iter()
            .find(|c| c.group == "nnz")
            .expect("nnz scenarios exist");
        let accel = Flexagon::with_defaults();
        let out = evaluate_case(&accel, small);
        assert!(out.measured_cycles.iter().all(|&c| c > 0));
        assert!(out.regret() >= 1.0);
        assert_eq!(
            out.oracle_cycles(),
            *out.measured_cycles.iter().min().unwrap()
        );
        if out.agrees() {
            assert_eq!(out.regret(), 1.0);
        }
        assert!(out.raw_estimates.iter().all(|&e| e > 0.0));
    }

    #[test]
    fn aggregate_groups_and_merges() {
        let mk = |group: &str, agrees: bool, regret_cycles: u64| CaseOutcome {
            group: group.into(),
            label: format!("{group}/x"),
            predicted: if agrees {
                Dataflow::InnerProductM
            } else {
                Dataflow::OuterProductM
            },
            oracle: Dataflow::InnerProductM,
            measured_cycles: [100, regret_cycles, 400],
            raw_estimates: [1.0, 1.0, 1.0],
            features: [1.0; 7],
        };
        let outcomes = vec![mk("a", true, 200), mk("a", false, 150), mk("b", true, 300)];
        let (groups, overall) = aggregate(&outcomes);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, "a");
        assert_eq!(groups[0].1.cases, 2);
        assert_eq!(overall.cases, 3);
        assert_eq!(overall.agreements, 2);
        assert!((overall.max_regret() - 1.5).abs() < 1e-12);
    }
}
