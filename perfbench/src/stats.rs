//! Order statistics for timings: medians, quartiles, and the tail rule.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_TAIL_SAMPLES`] samples beyond it, so a p99 is
//! only claimed from 1000 samples or more; smaller runs report a lower
//! percentile and say which one.

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Percentiles considered for the tail, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Sorts a copy of `values` ascending (NaN-free input assumed; infinities
/// sort last, which is how failed requests are recorded).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `p` among `n` samples. `p` is taken
/// to 0.1 and the rank computed in integers, so `p99` of 1000 samples is
/// exactly rank 990.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of an ascending slice (`NaN` when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the two middle samples for an even
/// count; `NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_TAIL_SAMPLES`] samples strictly beyond its nearest rank, or
/// `None` when not even the median has that many.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(nearest_rank(p, n)) >= MIN_TAIL_SAMPLES)
}

/// Median and tail of a sample, with the percentile the tail stands for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile `tail` is (see [`tail_percentile`]); 50 when the
    /// sample is too small for any tail, in which case `tail` is the
    /// nearest-rank median (the sample's maximum would be its noisiest
    /// statistic).
    pub tail_p: f64,
    /// The tail value.
    pub tail: f64,
}

impl Summary {
    /// Summarizes unsorted values.
    pub fn of(values: &[f64]) -> Self {
        let s = sorted(values);
        let n = s.len();
        let (tail_p, tail) = match tail_percentile(n) {
            Some(p) => (p, percentile(&s, p)),
            None => (50.0, percentile(&s, 50.0)),
        };
        Self {
            n,
            p50: median(values),
            tail_p,
            tail,
        }
    }
}

/// Geometric mean of positive values (`NaN` when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
