//! Per-model workload statistics — the measured columns of Table 2.

use crate::DnnModel;
use flexagon_sparse::CompressedMatrix;
use serde::Serialize;

/// One Table 2 row: a model's layer count, sparsities and compressed sizes.
#[derive(Debug, Clone, Serialize)]
pub struct ModelStats {
    /// Model short code ("A", "V", ...).
    pub short: &'static str,
    /// Number of layers (nl).
    pub num_layers: usize,
    /// Average sparsity of A across layers, percent (AvSpA).
    pub avg_sp_a: f64,
    /// Average sparsity of B across layers, percent (AvSpB).
    pub avg_sp_b: f64,
    /// Average compressed size of A in MiB (AvCsA).
    pub avg_cs_a_mib: f64,
    /// Average compressed size of B in MiB (AvCsB).
    pub avg_cs_b_mib: f64,
    /// Minimum compressed size of A in MiB (MinCsA).
    pub min_cs_a_mib: f64,
    /// Minimum compressed size of B in MiB (MinCsB).
    pub min_cs_b_mib: f64,
    /// Maximum compressed size of A in MiB (MaxCsA).
    pub max_cs_a_mib: f64,
    /// Maximum compressed size of B in MiB (MaxCsB).
    pub max_cs_b_mib: f64,
}

impl ModelStats {
    /// Materializes every layer of `model` with `seed` and aggregates the
    /// Table 2 statistics.
    pub fn measure(model: &DnnModel, seed: u64) -> Self {
        let nnz: Vec<(u64, u64)> = model
            .layers
            .iter()
            .map(|layer| {
                let mats = layer.materialize(seed);
                (mats.a.nnz() as u64, mats.b.nnz() as u64)
            })
            .collect();
        Self::from_counts(model, &nnz)
    }

    /// Aggregates the Table 2 statistics from each layer's
    /// `(nnz(A), nnz(B))`, in layer order. A layer's sparsities and
    /// compressed sizes depend only on its dimensions and these counts, so
    /// the result equals [`ModelStats::measure`]'s bit for bit without
    /// materializing a matrix.
    ///
    /// # Panics
    ///
    /// Panics if `nnz` does not hold one entry per layer.
    pub fn from_counts(model: &DnnModel, nnz: &[(u64, u64)]) -> Self {
        assert_eq!(
            nnz.len(),
            model.layers.len(),
            "one (nnz(A), nnz(B)) pair per layer"
        );
        let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
        let mut sp_a = 0.0;
        let mut sp_b = 0.0;
        let mut cs_a = Vec::with_capacity(model.layers.len());
        let mut cs_b = Vec::with_capacity(model.layers.len());
        for (layer, &(nnz_a, nnz_b)) in model.layers.iter().zip(nnz) {
            // A is M x K and B is K x N, both row-major.
            sp_a += CompressedMatrix::sparsity_percent_of(layer.m, layer.k, nnz_a);
            sp_b += CompressedMatrix::sparsity_percent_of(layer.k, layer.n, nnz_b);
            cs_a.push(mib(CompressedMatrix::compressed_size_of(layer.m, nnz_a)));
            cs_b.push(mib(CompressedMatrix::compressed_size_of(layer.k, nnz_b)));
        }
        let n = model.layers.len() as f64;
        let minmax = |v: &[f64]| {
            (
                v.iter().copied().fold(f64::INFINITY, f64::min),
                v.iter().copied().fold(0.0, f64::max),
            )
        };
        let (min_a, max_a) = minmax(&cs_a);
        let (min_b, max_b) = minmax(&cs_b);
        Self {
            short: model.short,
            num_layers: model.layers.len(),
            avg_sp_a: sp_a / n,
            avg_sp_b: sp_b / n,
            avg_cs_a_mib: cs_a.iter().sum::<f64>() / n,
            avg_cs_b_mib: cs_b.iter().sum::<f64>() / n,
            min_cs_a_mib: min_a,
            min_cs_b_mib: min_b,
            max_cs_a_mib: max_a,
            max_cs_b_mib: max_b,
        }
    }
}

/// Running top-1 agreement and cycle-regret statistics for a dataflow
/// selector audited against an oracle (the mapper-accuracy report's
/// aggregation unit, one per model or scenario family plus one overall).
///
/// *Agreement* is the fraction of cases where the selector picked the
/// oracle's winner; *regret* is `selected_cycles / oracle_cycles ≥ 1`, so
/// a geomean regret of 1.0 means the selector never cost anything even
/// where it disagreed (ties), and 1.15 means 15% mean slowdown.
#[derive(Debug, Clone, Default)]
pub struct AgreementStats {
    /// Number of recorded cases.
    pub cases: usize,
    /// Cases where the selector matched the oracle's top-1 choice.
    pub agreements: usize,
    log_regret_sum: f64,
    max_regret: f64,
    worst: Option<String>,
}

impl AgreementStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one audited case.
    ///
    /// # Panics
    ///
    /// Panics if `regret < 1` (the oracle is by definition no slower than
    /// any selection) or is not finite.
    pub fn record(&mut self, label: &str, agrees: bool, regret: f64) {
        assert!(
            regret.is_finite() && regret >= 1.0,
            "regret must be a finite ratio >= 1, got {regret} for {label}"
        );
        self.cases += 1;
        if agrees {
            self.agreements += 1;
        }
        self.log_regret_sum += regret.ln();
        if regret > self.max_regret {
            self.max_regret = regret;
            self.worst = Some(label.to_owned());
        }
    }

    /// Folds another accumulator into this one (e.g. per-group stats into
    /// the overall row). The worst case is kept from whichever side has the
    /// larger max regret.
    pub fn merge(&mut self, other: &AgreementStats) {
        self.cases += other.cases;
        self.agreements += other.agreements;
        self.log_regret_sum += other.log_regret_sum;
        if other.max_regret > self.max_regret {
            self.max_regret = other.max_regret;
            self.worst = other.worst.clone();
        }
    }

    /// Top-1 agreement as a fraction in `[0, 1]` (1.0 when empty).
    pub fn top1_fraction(&self) -> f64 {
        if self.cases == 0 {
            1.0
        } else {
            self.agreements as f64 / self.cases as f64
        }
    }

    /// Geometric-mean regret (1.0 when empty).
    pub fn geomean_regret(&self) -> f64 {
        if self.cases == 0 {
            1.0
        } else {
            (self.log_regret_sum / self.cases as f64).exp()
        }
    }

    /// Largest single-case regret (1.0 when empty).
    pub fn max_regret(&self) -> f64 {
        if self.cases == 0 {
            1.0
        } else {
            self.max_regret
        }
    }

    /// Label of the worst-regret case, if any case was recorded.
    pub fn worst_case(&self) -> Option<&str> {
        self.worst.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexagon_sparse::stats::MatrixStats;

    #[test]
    fn alexnet_stats_are_sane() {
        let stats = ModelStats::measure(&DnnModel::alexnet(), 1);
        assert_eq!(stats.num_layers, 7);
        assert!(
            (stats.avg_sp_a - 70.0).abs() < 8.0,
            "spA = {}",
            stats.avg_sp_a
        );
        assert!(stats.min_cs_a_mib <= stats.avg_cs_a_mib);
        assert!(stats.avg_cs_a_mib <= stats.max_cs_a_mib);
        assert!(stats.max_cs_b_mib > 0.0);
    }

    #[test]
    fn counts_give_the_materialized_statistics() {
        let model = DnnModel::alexnet();
        let stats = ModelStats::measure(&model, 1);
        let (mut sp_a, mut sp_b, mut cs_a, mut cs_b) = (0.0, 0.0, 0.0, 0.0);
        for layer in &model.layers {
            let mats = layer.materialize(1);
            let (a, b) = (MatrixStats::of(&mats.a), MatrixStats::of(&mats.b));
            sp_a += a.sparsity_percent;
            sp_b += b.sparsity_percent;
            cs_a += a.compressed_mib();
            cs_b += b.compressed_mib();
        }
        let n = model.layers.len() as f64;
        assert_eq!(stats.avg_sp_a.to_bits(), (sp_a / n).to_bits());
        assert_eq!(stats.avg_sp_b.to_bits(), (sp_b / n).to_bits());
        assert_eq!(stats.avg_cs_a_mib.to_bits(), (cs_a / n).to_bits());
        assert_eq!(stats.avg_cs_b_mib.to_bits(), (cs_b / n).to_bits());
    }

    #[test]
    fn mobilebert_matrices_are_tiny() {
        let stats = ModelStats::measure(&DnnModel::mobilebert(), 1);
        assert!(
            stats.avg_cs_b_mib < 0.1,
            "MB csB avg {}",
            stats.avg_cs_b_mib
        );
        assert!(stats.max_cs_a_mib < 1.0);
    }

    #[test]
    fn vgg_has_the_largest_activations() {
        let vgg = ModelStats::measure(&DnnModel::vgg16(), 1);
        let mb = ModelStats::measure(&DnnModel::mobilebert(), 1);
        assert!(vgg.max_cs_b_mib > 20.0 * mb.max_cs_b_mib);
    }

    #[test]
    fn agreement_stats_aggregate_correctly() {
        let mut s = AgreementStats::new();
        assert_eq!(s.top1_fraction(), 1.0);
        assert_eq!(s.geomean_regret(), 1.0);
        assert_eq!(s.max_regret(), 1.0);
        s.record("a", true, 1.0);
        s.record("b", false, 4.0);
        assert_eq!(s.cases, 2);
        assert_eq!(s.agreements, 1);
        assert!((s.top1_fraction() - 0.5).abs() < 1e-12);
        assert!((s.geomean_regret() - 2.0).abs() < 1e-12, "sqrt(1*4)");
        assert_eq!(s.max_regret(), 4.0);
        assert_eq!(s.worst_case(), Some("b"));
    }

    #[test]
    fn agreement_stats_merge_matches_flat_recording() {
        let mut left = AgreementStats::new();
        left.record("x", true, 1.2);
        let mut right = AgreementStats::new();
        right.record("y", false, 1.8);
        right.record("z", true, 1.0);
        let mut merged = left.clone();
        merged.merge(&right);
        let mut flat = AgreementStats::new();
        flat.record("x", true, 1.2);
        flat.record("y", false, 1.8);
        flat.record("z", true, 1.0);
        assert_eq!(merged.cases, flat.cases);
        assert_eq!(merged.agreements, flat.agreements);
        assert!((merged.geomean_regret() - flat.geomean_regret()).abs() < 1e-12);
        assert_eq!(merged.max_regret(), flat.max_regret());
        assert_eq!(merged.worst_case(), Some("y"));
    }

    #[test]
    #[should_panic(expected = "regret must be")]
    fn agreement_stats_reject_sub_unity_regret() {
        AgreementStats::new().record("bad", true, 0.5);
    }
}
