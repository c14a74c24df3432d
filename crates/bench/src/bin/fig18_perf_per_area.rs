//! Fig. 18: performance/area of the four accelerators across the eight DNN
//! models (speed-ups and areas both normalized to the SIGMA-like design).
//!
//! Run with `cargo run --release -p flexagon-bench --bin fig18_perf_per_area`.

use flexagon_bench::render::{geomean, table};
use flexagon_bench::{run_layer, run_model, SystemId, DEFAULT_SEED};
use flexagon_dnn::suite;
use flexagon_rtl::{perf_per_area, table8_rows, AcceleratorKind};

fn main() {
    println!("Fig. 18 — performance/area (normalized to SIGMA-like)\n");
    let areas = table8_rows();
    let area_of = |kind: AcceleratorKind| -> f64 {
        areas
            .iter()
            .find(|r| r.kind == kind)
            .expect("all kinds present")
            .total()
            .area_mm2
    };
    let ref_area = area_of(AcceleratorKind::SigmaLike);
    let systems = [
        (SystemId::SigmaLike, AcceleratorKind::SigmaLike),
        (SystemId::SparchLike, AcceleratorKind::SparchLike),
        (SystemId::GammaLike, AcceleratorKind::GammaLike),
        (SystemId::Flexagon, AcceleratorKind::Flexagon),
    ];
    let mut rows = Vec::new();
    let mut efficiencies: Vec<Vec<f64>> = vec![Vec::new(); systems.len()];
    for model in suite() {
        eprintln!("running {}...", model.name);
        let r = run_model(&model, DEFAULT_SEED, false);
        let base = r.cycles(SystemId::SigmaLike) as f64;
        let mut row = vec![model.short.to_string()];
        for (i, (system, kind)) in systems.into_iter().enumerate() {
            let speedup = base / r.cycles(system) as f64;
            let eff = perf_per_area(speedup, area_of(kind), ref_area);
            efficiencies[i].push(eff);
            row.push(format!("{eff:.2}"));
        }
        rows.push(row);
    }
    let mut gm = vec!["GEOMEAN".to_string()];
    for e in &efficiencies {
        gm.push(format!("{:.2}", geomean(e)));
    }
    rows.push(gm);
    println!(
        "{}",
        table(
            &[
                "model",
                "SIGMA-like",
                "Sparch-like",
                "GAMMA-like",
                "Flexagon"
            ],
            &rows
        )
    );
    let f = geomean(&efficiencies[3]);
    println!(
        "Flexagon perf/area advantage: {:.0}% vs SIGMA-like (paper: 265%), \
         {:.0}% vs Sparch-like (paper: 67%), {:.0}% vs GAMMA-like (paper: 18%).",
        100.0 * (f / geomean(&efficiencies[0]) - 1.0),
        100.0 * (f / geomean(&efficiencies[1]) - 1.0),
        100.0 * (f / geomean(&efficiencies[2]) - 1.0),
    );

    // Second view: the nine Table 6 layers at their exact published shapes
    // and sparsities. The synthetic full-model suite scales large layers
    // down (see the scaling note in `crates/dnn/src/models.rs`), which
    // shifts the OP/Gust balance; the pinned layers measure perf/area free
    // of that scaling.
    println!("\nPerf/area on the Table 6 representative layers (exact shapes):");
    let mut rows = Vec::new();
    let mut efficiencies: Vec<Vec<f64>> = vec![Vec::new(); systems.len()];
    for layer in flexagon_dnn::table6::layers() {
        let r = run_layer(&layer.spec, DEFAULT_SEED);
        let base = r.of(SystemId::SigmaLike).total_cycles as f64;
        let mut row = vec![layer.id.to_string()];
        for (i, (system, kind)) in systems.into_iter().enumerate() {
            let speedup = base / r.of(system).total_cycles as f64;
            let eff = perf_per_area(speedup, area_of(kind), ref_area);
            efficiencies[i].push(eff);
            row.push(format!("{eff:.2}"));
        }
        rows.push(row);
    }
    let mut gm = vec!["GEOMEAN".to_string()];
    for e in &efficiencies {
        gm.push(format!("{:.2}", geomean(e)));
    }
    rows.push(gm);
    println!(
        "{}",
        table(
            &[
                "layer",
                "SIGMA-like",
                "Sparch-like",
                "GAMMA-like",
                "Flexagon"
            ],
            &rows
        )
    );
}
