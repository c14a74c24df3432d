//! Table 2: the DNN model suite — layer counts, sparsities, compressed
//! sizes and CPU baseline cycles.
//!
//! Run with `cargo run --release -p flexagon-bench --bin table2_models`.

use flexagon_bench::render::table;
use flexagon_bench::DEFAULT_SEED;
use flexagon_core::CpuMkl;
use flexagon_dnn::{suite, ModelStats};

fn main() {
    println!("Table 2 — DNN models (measured on the synthetic suite)\n");
    let cpu = CpuMkl::with_defaults();
    let mut rows = Vec::new();
    for model in suite() {
        eprintln!("measuring {}...", model.name);
        let stats = ModelStats::measure(&model, DEFAULT_SEED);
        let mut cpu_cycles = 0u64;
        for layer in &model.layers {
            let mats = layer.materialize(DEFAULT_SEED);
            cpu_cycles += cpu
                .run(&mats.a, &mats.b)
                .expect("cpu run")
                .report
                .total_cycles;
        }
        rows.push(vec![
            format!("{} ({})", model.name, model.short),
            model.domain.to_string(),
            stats.num_layers.to_string(),
            format!("{:.0}", stats.avg_sp_a),
            format!("{:.0}", stats.avg_sp_b),
            format!("{:.2}", stats.avg_cs_a_mib),
            format!("{:.2}", stats.avg_cs_b_mib),
            format!("{:.3}", stats.min_cs_a_mib),
            format!("{:.3}", stats.min_cs_b_mib),
            format!("{:.2}", stats.max_cs_a_mib),
            format!("{:.2}", stats.max_cs_b_mib),
            format!("{:.1}", cpu_cycles as f64 / 1e6),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "DNN",
                "Appl",
                "nl",
                "AvSpA",
                "AvSpB",
                "AvCsA",
                "AvCsB",
                "MinCsA",
                "MinCsB",
                "MaxCsA",
                "MaxCsB",
                "CPU Mcycles"
            ],
            &rows
        )
    );
    println!(
        "Sizes in MiB. FC/transformer layers are uniformly scaled for\n\
         tractability (see crates/dnn/src/models.rs), so absolute sizes sit\n\
         below the paper's; per-model orderings and sparsity averages match\n\
         Table 2."
    );
}
