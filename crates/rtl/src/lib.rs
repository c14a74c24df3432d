//! Analytical area and power models (paper §5.3, Table 8, Figs. 17–18).
//!
//! The paper synthesizes its building blocks with Synopsys DC + Cadence
//! Innovus (TSMC 28 nm GP LVT, 800 MHz) and models SRAMs with CACTI 7.0.
//! Those tools are proprietary; this crate substitutes a parametric
//! component model whose constants are calibrated so the 64-multiplier
//! configuration reproduces Table 8 exactly, and whose scaling rules
//! (linear datapath growth, capacity-proportional SRAM) let the harness
//! explore other sizes (e.g. the naive-design comparison of Fig. 17 and
//! the ablations).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod components;
pub mod energy;
mod naive;
mod table8;

pub use components::{dn_cost, mn_cost, psram_cost, rn_cost, str_cache_cost, AreaPower, RnKind};
pub use naive::{naive_design, NaiveComparison, NaiveDesign};
pub use table8::{table8_rows, AcceleratorKind, Table8Row};

/// Performance/area efficiency (Fig. 18): a speed-up divided by the design's
/// area normalized to a reference area.
///
/// The paper normalizes both speed-ups and areas to the SIGMA-like design;
/// `perf_per_area(speedup, area, reference_area)` reproduces that metric.
pub fn perf_per_area(speedup: f64, area_mm2: f64, reference_area_mm2: f64) -> f64 {
    if area_mm2 <= 0.0 {
        return 0.0;
    }
    speedup / (area_mm2 / reference_area_mm2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_per_area_normalizes() {
        // Same speed, same area: efficiency 1.
        assert_eq!(perf_per_area(1.0, 4.21, 4.21), 1.0);
        // Twice as fast but 25% bigger: efficiency 1.6.
        let e = perf_per_area(2.0, 5.28, 4.22);
        assert!((e - 2.0 / (5.28 / 4.22)).abs() < 1e-12);
    }

    #[test]
    fn zero_area_is_guarded() {
        assert_eq!(perf_per_area(2.0, 0.0, 4.0), 0.0);
    }
}
