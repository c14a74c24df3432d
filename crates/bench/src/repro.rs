//! The paper reproduction: every table and figure of the evaluation as a
//! named section, rendered in-process from shared simulation passes.
//!
//! The paper's numbers come from two runs: one per-layer simulation of the
//! eight-model suite under the per-layer-best mapping (Table 2, Figs. 1,
//! 12 and 18) and one of the nine Table 6 layers (Figs. 13–16 and 18).
//! [`Inputs`] holds both and runs each at most once, on first use, so a
//! section that needs neither simulates nothing. [`SECTIONS`] lists the
//! sections in report order; the `repro_all` binary renders all of them,
//! each under its [`banner`], or only the ones named on its command line.

use std::cell::OnceCell;
use std::fmt::{self, Write};
use std::time::Instant;

use flexagon_core::{
    mapper, transitions, Accelerator, AcceleratorConfig, Dataflow, ExecutionRequest, Flexagon,
};
use flexagon_dnn::{suite, table6, ModelStats};
use flexagon_rtl::{naive_design, perf_per_area, table8_rows, AcceleratorKind};
use flexagon_sparse::reference;

use crate::render::{geomean, kib, mib, pct, speedup, table};
use crate::runner::{
    run_layer, run_model, LayerResults, ModelResults, RunOptions, SystemId, DEFAULT_SEED,
};

/// The simulation passes the sections share, at [`DEFAULT_SEED`]. Each
/// runs at most once, on first use, and prints its host time to stderr.
#[derive(Debug, Default)]
pub struct Inputs {
    suite: OnceCell<Vec<ModelResults>>,
    table6: OnceCell<Vec<(&'static str, LayerResults)>>,
}

impl Inputs {
    /// [`run_model`] of every suite model, in suite order.
    fn suite(&self) -> &[ModelResults] {
        self.suite.get_or_init(|| {
            let start = Instant::now();
            let models = suite();
            let results: Vec<ModelResults> = models
                .iter()
                .map(|model| run_model(model, DEFAULT_SEED, false))
                .collect();
            let layers: usize = models.iter().map(|m| m.layers.len()).sum();
            eprintln!(
                "suite pass: {} models / {layers} layers {:.1} s",
                models.len(),
                start.elapsed().as_secs_f64()
            );
            results
        })
    }

    /// [`run_layer`] of every Table 6 layer under the default options,
    /// with its Table 6 id, in Table 6 order.
    fn table6(&self) -> &[(&'static str, LayerResults)] {
        self.table6.get_or_init(|| {
            let start = Instant::now();
            let results: Vec<_> = table6::layers()
                .into_iter()
                .map(|layer| {
                    let r = run_layer(&layer.spec, DEFAULT_SEED, &RunOptions::default());
                    (layer.id, r)
                })
                .collect();
            eprintln!(
                "table6 pass: {} layers {:.1} s",
                results.len(),
                start.elapsed().as_secs_f64()
            );
            results
        })
    }
}

/// Writes a section's text from the shared passes.
type Render = fn(&Inputs, &mut String) -> fmt::Result;

/// One table or figure of the reproduction.
#[derive(Debug, Clone, Copy)]
pub struct Section {
    /// The section's name: its report banner, and the `repro_all` argument
    /// that selects it.
    pub name: &'static str,
    render: Render,
}

impl Section {
    const fn new(name: &'static str, render: Render) -> Self {
        Self { name, render }
    }

    /// Looks a section up by name.
    ///
    /// # Errors
    ///
    /// [`UnknownSection`] if no entry of [`SECTIONS`] has that name.
    pub fn find(name: &str) -> Result<&'static Section, UnknownSection> {
        SECTIONS
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| UnknownSection(name.to_string()))
    }

    /// Renders the section's text, first running whichever passes of
    /// `inputs` it needs and `inputs` has not run yet.
    pub fn render(&self, inputs: &Inputs) -> String {
        let mut out = String::new();
        (self.render)(inputs, &mut out).expect("writing to a String cannot fail");
        out
    }
}

/// Every section, in report order.
pub static SECTIONS: [Section; 14] = [
    Section::new("table3_taxonomy", table3_taxonomy),
    Section::new("table4_transitions", table4_transitions),
    Section::new("table6_layers", table6_layers),
    Section::new("table8_area_power", table8_area_power),
    Section::new("fig17_naive_design", fig17_naive_design),
    Section::new("fig13_layerwise", fig13_layerwise),
    Section::new("fig14_onchip_traffic", fig14_onchip_traffic),
    Section::new("fig15_miss_rate", fig15_miss_rate),
    Section::new("fig16_offchip_traffic", fig16_offchip_traffic),
    Section::new("table2_models", table2_models),
    Section::new("fig01_best_dataflow", fig01_best_dataflow),
    Section::new("fig12_end_to_end", fig12_end_to_end),
    Section::new("fig18_perf_per_area", fig18_perf_per_area),
    Section::new("ablations", ablations),
];

/// A section name that is not in [`SECTIONS`]; its message lists the
/// valid names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSection(pub String);

impl fmt::Display for UnknownSection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown section `{}`; valid sections:", self.0)?;
        for section in &SECTIONS {
            write!(f, "\n  {}", section.name)?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownSection {}

/// The banner that precedes a section in the full report.
pub fn banner(name: &str) -> String {
    let rule = "=".repeat(72);
    format!("\n{rule}\n== {name}\n{rule}\n")
}

/// The four accelerators Figs. 13–16 and 18 compare, in plotting order.
const ACCELERATORS: [SystemId; 4] = [
    SystemId::SigmaLike,
    SystemId::SparchLike,
    SystemId::GammaLike,
    SystemId::Flexagon,
];

/// A table header: `first`, then the names of `systems`.
fn header(first: &'static str, systems: &[SystemId]) -> Vec<&'static str> {
    let mut header = vec![first];
    header.extend(systems.iter().map(|s| s.name()));
    header
}

/// The `GEOMEAN` row under per-system columns of ratios.
fn geomean_row(columns: &[Vec<f64>], format: fn(f64) -> String) -> Vec<String> {
    let mut row = vec!["GEOMEAN".to_string()];
    row.extend(columns.iter().map(|c| format(geomean(c))));
    row
}

/// Tables 3 and 5: the dataflow taxonomy and the accelerator configuration.
fn table3_taxonomy(_: &Inputs, out: &mut String) -> fmt::Result {
    writeln!(out, "Table 3 — taxonomy of dataflow properties\n")?;
    let rows: Vec<Vec<String>> = Dataflow::ALL
        .into_iter()
        .map(|d| {
            vec![
                d.loop_order().to_string(),
                d.informal_name().to_string(),
                d.a_format().format_name().to_string(),
                d.b_format().format_name().to_string(),
                d.c_format().format_name().to_string(),
                d.intersection().to_string(),
                d.merging().to_string(),
            ]
        })
        .collect();
    writeln!(
        out,
        "{}",
        table(
            &[
                "Dataflow",
                "Informal Name",
                "A",
                "B",
                "C",
                "Intersection",
                "Merging"
            ],
            &rows
        )
    )?;

    writeln!(out, "Table 5 — configuration parameters of Flexagon\n")?;
    let cfg = AcceleratorConfig::table5();
    let rows = vec![
        vec!["Number of Multipliers".into(), cfg.multipliers.to_string()],
        vec!["Number of Adders".into(), cfg.adders().to_string()],
        vec![
            "Distribution bandwidth".into(),
            format!("{} elems/cycle", cfg.dn_bandwidth),
        ],
        vec![
            "Reduction/Merging bandwidth".into(),
            format!("{} elems/cycle", cfg.merge_bandwidth),
        ],
        vec!["Total Word Size".into(), "32 bits".into()],
        vec![
            "L1 Access Latency".into(),
            format!("{} cycle", cfg.l1_latency),
        ],
        vec![
            "L1 STA FIFO Size".into(),
            format!("{} bytes", cfg.memory.fifo.capacity_bytes),
        ],
        vec![
            "L1 STR cache Size".into(),
            format!("{} MiB", cfg.memory.cache.capacity_bytes >> 20),
        ],
        vec![
            "L1 STR Cache Line Size".into(),
            format!("{} bytes", cfg.memory.cache.line_bytes),
        ],
        vec![
            "L1 STR Cache Associativity".into(),
            cfg.memory.cache.associativity.to_string(),
        ],
        vec![
            "L1 STR Cache Number of Banks".into(),
            cfg.memory.cache.banks.to_string(),
        ],
        vec![
            "PSRAM".into(),
            format!("{} KiB", cfg.memory.psram.capacity_bytes >> 10),
        ],
        vec![
            "DRAM access time / Bandwidth".into(),
            format!(
                "{} cycles / {} B/cycle",
                cfg.memory.dram.latency_cycles, cfg.memory.dram.bytes_per_cycle
            ),
        ],
    ];
    writeln!(out, "{}", table(&["Parameter", "Value"], &rows))
}

/// Table 4: inter-layer dataflow transitions that avoid explicit format
/// conversions.
fn table4_transitions(_: &Inputs, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Table 4 — transitions without Explicit format Conversion (EC)\n"
    )?;
    let names: Vec<&str> = Dataflow::ALL.iter().map(|d| d.informal_name()).collect();
    let matrix = transitions::matrix();
    let mut rows = Vec::new();
    for (i, from) in names.iter().enumerate() {
        let mut row = vec![format!("from {from}")];
        for &free in &matrix[i] {
            row.push(if free { "ok".into() } else { "EC".into() });
        }
        rows.push(row);
    }
    let mut header = vec!["producer \\ consumer"];
    header.extend(names.iter().copied());
    writeln!(out, "{}", table(&header, &rows))?;

    writeln!(out, "Fig. 8's example chain (free of conversions):")?;
    let chain = [
        Dataflow::InnerProductN,
        Dataflow::OuterProductM,
        Dataflow::GustavsonM,
    ];
    for pair in chain.windows(2) {
        writeln!(
            out,
            "  {} -> {}: {}",
            pair[0],
            pair[1],
            if transitions::is_free(pair[0], pair[1]) {
                "free"
            } else {
                "EC"
            }
        )?;
    }
    Ok(())
}

/// Table 6: the nine representative DNN layers, their measured compressed
/// sizes, and the calibrated heuristic mapper's feature-only pick for each
/// (the accuracy audit proper — oracle comparison over the whole suite —
/// is the `mapper_accuracy` binary).
fn table6_layers(_: &Inputs, out: &mut String) -> fmt::Result {
    writeln!(out, "Table 6 — representative DNN layers (measured)\n")?;
    let cfg = AcceleratorConfig::table5();
    let mut rows = Vec::new();
    for layer in table6::layers() {
        let mats = layer.spec.materialize(DEFAULT_SEED);
        let c = reference::spgemm(&mats.a, &mats.b).expect("well-formed layer");
        let predicted = mapper::heuristic(&cfg, &mats.a, &mats.b);
        rows.push(vec![
            layer.id.to_string(),
            format!("{}, {}, {}", layer.spec.m, layer.spec.n, layer.spec.k),
            format!("{:.0}", mats.a.sparsity_percent()),
            format!("{:.0}", mats.b.sparsity_percent()),
            kib(mats.a.compressed_size_bytes()),
            kib(mats.b.compressed_size_bytes()),
            kib(c.compressed_size_bytes()),
            format!("{:?}", layer.favours),
            predicted.to_string(),
        ]);
    }
    writeln!(
        out,
        "{}",
        table(
            &[
                "Layer",
                "M, N, K",
                "spA",
                "spB",
                "csA KiB",
                "csB KiB",
                "csC KiB",
                "favours",
                "heuristic picks",
            ],
            &rows
        )
    )
}

/// Table 8: post-layout area and power for the four 64-multiplier designs.
fn table8_area_power(_: &Inputs, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Table 8 — area (mm²) and power (mW), TSMC 28 nm @ 800 MHz\n"
    )?;
    let rows = table8_rows();
    let mut area_rows = Vec::new();
    let mut power_rows = Vec::new();
    for r in &rows {
        area_rows.push(vec![
            r.kind.name().to_string(),
            format!("{:.2}", r.dn.area_mm2),
            format!("{:.2}", r.mn.area_mm2),
            format!("{:.2}", r.rn.area_mm2),
            format!("{:.2}", r.cache.area_mm2),
            format!("{:.2}", r.psram.area_mm2),
            format!("{:.2}", r.total().area_mm2),
        ]);
        power_rows.push(vec![
            r.kind.name().to_string(),
            format!("{:.2}", r.dn.power_mw),
            format!("{:.2}", r.mn.power_mw),
            format!("{:.0}", r.rn.power_mw),
            format!("{:.0}", r.cache.power_mw),
            format!("{:.0}", r.psram.power_mw),
            format!("{:.0}", r.total().power_mw),
        ]);
    }
    let columns = ["design", "DN", "MN", "RN", "Cache", "PSRAM", "Total"];
    writeln!(out, "Area results:")?;
    writeln!(out, "{}", table(&columns, &area_rows))?;
    writeln!(out, "Power results:")?;
    writeln!(out, "{}", table(&columns, &power_rows))?;
    writeln!(
        out,
        "Paper totals — area: 4.21 / 5.14 / 4.62 / 5.28 mm²; \
         power: 2396 / 2750 / 2481 / 2998 mW."
    )
}

/// Fig. 17: area of the naive three-network design versus Flexagon's
/// unified MRN, with the mux/demux / SRAM / datapath breakdown.
fn fig17_naive_design(_: &Inputs, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Fig. 17 — naive (3 separate networks) vs unified MRN, area (mm²)\n"
    )?;
    let mut rows = Vec::new();
    for mults in [64u32, 128, 256] {
        let cmp = naive_design(mults, 1 << 20, 256 << 10);
        for (name, d) in [("Flexagon", cmp.flexagon), ("Naive", cmp.naive)] {
            rows.push(vec![
                format!("{mults}-MS {name}"),
                format!("{:.2}", d.mux_demux.area_mm2),
                format!("{:.2}", d.sram.area_mm2),
                format!("{:.2}", d.datapath.area_mm2),
                format!("{:.2}", d.total().area_mm2),
            ]);
        }
        rows.push(vec![
            format!("{mults}-MS overhead"),
            String::new(),
            String::new(),
            String::new(),
            format!("{:.1}%", 100.0 * cmp.naive_overhead()),
        ]);
    }
    writeln!(
        out,
        "{}",
        table(&["design", "Mux/Demux", "SRAM", "Datapath", "Total"], &rows)
    )?;
    writeln!(
        out,
        "Paper: at 64 multipliers the naive design's muxes/demuxes add ≈25%\n\
         area over Flexagon, while the three separate networks alone add only\n\
         ≈2% (SRAM dominates); the overhead grows with multiplier count."
    )
}

/// Fig. 13: layer-wise speed-ups of the four accelerators on the nine
/// representative layers of Table 6, with the multiply/merge cycle split.
fn fig13_layerwise(inputs: &Inputs, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Fig. 13 — layer-wise performance (speed-up vs SIGMA-like)\n"
    )?;
    let mut rows = Vec::new();
    let mut per_system_speedups: Vec<Vec<f64>> = vec![Vec::new(); ACCELERATORS.len()];
    for (id, r) in inputs.table6() {
        let base = r.inner_product.total_cycles as f64;
        let mut row = vec![id.to_string()];
        for (i, system) in ACCELERATORS.into_iter().enumerate() {
            let rep = r.of(system);
            let s = base / rep.total_cycles as f64;
            per_system_speedups[i].push(s);
            row.push(format!(
                "{} (mult {}%, merg {}%)",
                speedup(s),
                (100 * rep.phases.mult_cycles() / rep.total_cycles.max(1)),
                (100 * rep.phases.merge_cycles() / rep.total_cycles.max(1)),
            ));
        }
        row.push(r.best_dataflow().to_string());
        rows.push(row);
    }
    let mut gm = geomean_row(&per_system_speedups, speedup);
    gm.push(String::new());
    rows.push(gm);
    let mut columns = header("layer", &ACCELERATORS);
    columns.push("best dataflow");
    writeln!(out, "{}", table(&columns, &rows))
}

/// Fig. 14: on-chip memory traffic (STA / STR / psums) through the L1
/// hierarchy for the four accelerators on the nine Table 6 layers.
fn fig14_onchip_traffic(inputs: &Inputs, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Fig. 14 — on-chip memory traffic in MiB (STA + STR + psums)\n"
    )?;
    let mut rows = Vec::new();
    for (id, r) in inputs.table6() {
        for system in ACCELERATORS {
            let t = &r.of(system).traffic;
            rows.push(vec![
                id.to_string(),
                system.name().to_string(),
                mib(t.sta_onchip_bytes),
                mib(t.str_onchip_bytes),
                mib(t.psum_onchip_bytes),
                mib(t.onchip_total()),
            ]);
        }
    }
    writeln!(
        out,
        "{}",
        table(
            &[
                "layer",
                "system",
                "STA (MiB)",
                "STR (MiB)",
                "psums (MiB)",
                "total"
            ],
            &rows
        )
    )?;
    writeln!(
        out,
        "Expected shape: SIGMA-like psums always 0; Sparch-like psums dominate;\n\
         STA is negligible everywhere (paper §5.2)."
    )
}

/// Fig. 15: STR cache miss rate for the four accelerators on the nine
/// Table 6 layers.
fn fig15_miss_rate(inputs: &Inputs, out: &mut String) -> fmt::Result {
    writeln!(out, "Fig. 15 — STR cache miss rate\n")?;
    let mut rows = Vec::new();
    for (id, r) in inputs.table6() {
        let mut row = vec![id.to_string()];
        for system in ACCELERATORS {
            row.push(pct(r.of(system).cache.miss_rate()));
        }
        rows.push(row);
    }
    writeln!(out, "{}", table(&header("layer", &ACCELERATORS), &rows))?;
    writeln!(
        out,
        "Expected shape: Sparch-like lowest (sequential, single pass);\n\
         GAMMA-like elevated on large-B layers (R6, S-R3, V0); SIGMA-like\n\
         elevated when B exceeds the cache and reloads per tile (V0)."
    )
}

/// Fig. 16: off-chip (DRAM) traffic for the four accelerators on the nine
/// Table 6 layers.
fn fig16_offchip_traffic(inputs: &Inputs, out: &mut String) -> fmt::Result {
    writeln!(out, "Fig. 16 — off-chip data traffic in KiB\n")?;
    let mut rows = Vec::new();
    for (id, r) in inputs.table6() {
        for system in ACCELERATORS {
            let t = &r.of(system).traffic;
            rows.push(vec![
                id.to_string(),
                system.name().to_string(),
                kib(t.str_fill_bytes),
                kib(t.dram_read_bytes),
                kib(t.dram_write_bytes),
                kib(t.offchip_total()),
            ]);
        }
    }
    writeln!(
        out,
        "{}",
        table(
            &[
                "layer",
                "system",
                "STR fills (KiB)",
                "DRAM reads",
                "DRAM writes",
                "total"
            ],
            &rows
        )
    )?;
    writeln!(
        out,
        "Expected shape: GAMMA-like ≈ Sparch-like on small-B layers (MB215,\n\
         V7, A2); GAMMA-like several times higher on large-B layers (R6,\n\
         S-R3, V0); SIGMA-like explodes when B reloads per tile (V0)."
    )
}

/// Table 2: the DNN model suite — layer counts, sparsities, compressed
/// sizes and CPU baseline cycles (the suite pass's CPU MKL totals).
fn table2_models(inputs: &Inputs, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Table 2 — DNN models (measured on the synthetic suite)\n"
    )?;
    let mut rows = Vec::new();
    for (model, r) in suite().iter().zip(inputs.suite()) {
        let stats = ModelStats::measure(model, DEFAULT_SEED);
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
            format!("{:.1}", r.cycles(SystemId::CpuMkl) as f64 / 1e6),
        ]);
    }
    writeln!(
        out,
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
    )?;
    writeln!(
        out,
        "Sizes in MiB. FC/transformer layers are uniformly scaled for\n\
         tractability (see crates/dnn/src/models.rs), so absolute sizes sit\n\
         below the paper's; per-model orderings and sparsity averages match\n\
         Table 2."
    )
}

/// Fig. 1: the dataflow that obtains the best performance per layer across
/// the eight DNN models. For MobileBERT the paper plots only the first 60
/// layers; we do the same for the plot series but count all layers in the
/// summary.
fn fig01_best_dataflow(inputs: &Inputs, out: &mut String) -> fmt::Result {
    fn tag(d: Dataflow) -> &'static str {
        match d {
            Dataflow::InnerProductM | Dataflow::InnerProductN => "IP",
            Dataflow::OuterProductM | Dataflow::OuterProductN => "OP",
            Dataflow::GustavsonM | Dataflow::GustavsonN => "Gust",
        }
    }

    writeln!(out, "Fig. 1 — best dataflow per layer (IP / OP / Gust)\n")?;
    for results in inputs.suite() {
        let shown = if results.short == "MB" {
            60
        } else {
            results.winners.len()
        };
        let series: Vec<&str> = results.winners[..shown].iter().map(|&d| tag(d)).collect();
        writeln!(out, "{:<4} {}", results.short, series.join(" "))?;
        let mut counts = [0usize; 3];
        for &w in &results.winners {
            match tag(w) {
                "IP" => counts[0] += 1,
                "OP" => counts[1] += 1,
                _ => counts[2] += 1,
            }
        }
        let n = results.winners.len();
        writeln!(
            out,
            "     summary: IP {}/{n}, OP {}/{n}, Gust {}/{n}\n",
            counts[0], counts[1], counts[2]
        )?;
    }
    Ok(())
}

/// Fig. 12: end-to-end performance of the five systems on the eight DNN
/// models, as speed-up over the CPU MKL baseline.
fn fig12_end_to_end(inputs: &Inputs, out: &mut String) -> fmt::Result {
    writeln!(out, "Fig. 12 — end-to-end speed-up over CPU MKL\n")?;
    let mut rows = Vec::new();
    let mut per_system: Vec<Vec<f64>> = vec![Vec::new(); SystemId::ALL.len()];
    let mut flexagon_vs = [Vec::new(), Vec::new(), Vec::new()];
    for r in inputs.suite() {
        let mut row = vec![r.short.to_string()];
        for (i, system) in SystemId::ALL.into_iter().enumerate() {
            let s = r.speedup_vs_cpu(system);
            per_system[i].push(s);
            row.push(speedup(s));
        }
        flexagon_vs[0]
            .push(r.cycles(SystemId::SigmaLike) as f64 / r.cycles(SystemId::Flexagon) as f64);
        flexagon_vs[1]
            .push(r.cycles(SystemId::SparchLike) as f64 / r.cycles(SystemId::Flexagon) as f64);
        flexagon_vs[2]
            .push(r.cycles(SystemId::GammaLike) as f64 / r.cycles(SystemId::Flexagon) as f64);
        rows.push(row);
    }
    rows.push(geomean_row(&per_system, speedup));
    writeln!(out, "{}", table(&header("model", &SystemId::ALL), &rows))?;
    writeln!(
        out,
        "Flexagon speed-up: {} vs SIGMA-like (paper: 4.59x), {} vs Sparch-like \
         (paper: 1.71x), {} vs GAMMA-like (paper: 1.35x)",
        speedup(geomean(&flexagon_vs[0])),
        speedup(geomean(&flexagon_vs[1])),
        speedup(geomean(&flexagon_vs[2])),
    )?;
    writeln!(
        out,
        "Flexagon vs CPU: {} average (paper: ~31x, range 13x-163x); range {}..{}",
        speedup(geomean(&per_system[4])),
        speedup(per_system[4].iter().copied().fold(f64::INFINITY, f64::min)),
        speedup(per_system[4].iter().copied().fold(0.0, f64::max)),
    )
}

/// Fig. 18: performance/area of the four accelerators across the eight DNN
/// models (speed-ups and areas both normalized to the SIGMA-like design),
/// then the same over the Table 6 layers.
fn fig18_perf_per_area(inputs: &Inputs, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Fig. 18 — performance/area (normalized to SIGMA-like)\n"
    )?;
    let rows = inputs
        .suite()
        .iter()
        .map(|r| (r.short.to_string(), ACCELERATORS.map(|s| r.cycles(s))))
        .collect();
    let (models, efficiencies) = perf_per_area_table("model", rows);
    writeln!(out, "{models}")?;
    let f = geomean(&efficiencies[3]);
    writeln!(
        out,
        "Flexagon perf/area advantage: {:.0}% vs SIGMA-like (paper: 265%), \
         {:.0}% vs Sparch-like (paper: 67%), {:.0}% vs GAMMA-like (paper: 18%).",
        100.0 * (f / geomean(&efficiencies[0]) - 1.0),
        100.0 * (f / geomean(&efficiencies[1]) - 1.0),
        100.0 * (f / geomean(&efficiencies[2]) - 1.0),
    )?;

    // Second view: the nine Table 6 layers at their exact published shapes
    // and sparsities. The synthetic full-model suite scales large layers
    // down (see the scaling note in `crates/dnn/src/models.rs`), which
    // shifts the OP/Gust balance; the pinned layers measure perf/area free
    // of that scaling.
    writeln!(
        out,
        "\nPerf/area on the Table 6 representative layers (exact shapes):"
    )?;
    let rows = inputs
        .table6()
        .iter()
        .map(|(id, r)| (id.to_string(), ACCELERATORS.map(|s| r.of(s).total_cycles)))
        .collect();
    writeln!(out, "{}", perf_per_area_table("layer", rows).0)
}

/// Fig. 18's table: per row of (label, cycles of each of [`ACCELERATORS`]),
/// each accelerator's perf/area normalized to SIGMA-like, then a geomean
/// row. Returns the table and the per-accelerator perf/area columns.
fn perf_per_area_table(
    first: &'static str,
    rows: Vec<(String, [u64; 4])>,
) -> (String, Vec<Vec<f64>>) {
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
    let kinds = [
        AcceleratorKind::SigmaLike,
        AcceleratorKind::SparchLike,
        AcceleratorKind::GammaLike,
        AcceleratorKind::Flexagon,
    ];
    let mut table_rows = Vec::new();
    let mut efficiencies: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    for (label, cycles) in rows {
        let base = cycles[0] as f64;
        let mut row = vec![label];
        for (i, (c, kind)) in cycles.into_iter().zip(kinds).enumerate() {
            let eff = perf_per_area(base / c as f64, area_of(kind), ref_area);
            efficiencies[i].push(eff);
            row.push(format!("{eff:.2}"));
        }
        table_rows.push(row);
    }
    table_rows.push(geomean_row(&efficiencies, |g| format!("{g:.2}")));
    let text = table(&header(first, &ACCELERATORS), &table_rows);
    (text, efficiencies)
}

/// Ablation sweeps over the design choices Table 5 fixes: multiplier count,
/// STR cache capacity, PSRAM capacity and merge and distribution bandwidth.
/// These go beyond the paper's figures: they quantify how much each
/// provisioning decision matters on a representative layer from each
/// dataflow group.
fn ablations(_: &Inputs, out: &mut String) -> fmt::Result {
    fn run_with(cfg: AcceleratorConfig, layer_id: &str, dataflow: Dataflow) -> u64 {
        let layer = table6::by_id(layer_id).expect("known layer");
        let mats = layer.spec.materialize(DEFAULT_SEED);
        Flexagon::new(cfg)
            .execute(ExecutionRequest::new(&mats.a, &mats.b).dataflow(dataflow))
            .expect("run")
            .output
            .report
            .total_cycles
    }

    writeln!(out, "Ablations on Flexagon's Table 5 provisioning\n")?;

    writeln!(out, "(a) Multiplier count (layer V7, Gustavson's):")?;
    let mut rows = Vec::new();
    for mults in [16u32, 32, 64, 128, 256] {
        let mut cfg = AcceleratorConfig::table5();
        cfg.multipliers = mults;
        rows.push(vec![
            mults.to_string(),
            run_with(cfg, "V7", Dataflow::GustavsonM).to_string(),
        ]);
    }
    writeln!(out, "{}", table(&["multipliers", "cycles"], &rows))?;

    writeln!(
        out,
        "(b) STR cache capacity (layer R6, Gustavson's — large B):"
    )?;
    let mut rows = Vec::new();
    for shift in [16u32, 18, 20, 22] {
        let mut cfg = AcceleratorConfig::table5();
        cfg.memory.cache.capacity_bytes = 1 << shift;
        rows.push(vec![
            format!("{} KiB", (1u64 << shift) >> 10),
            run_with(cfg, "R6", Dataflow::GustavsonM).to_string(),
        ]);
    }
    writeln!(out, "{}", table(&["cache", "cycles"], &rows))?;

    writeln!(
        out,
        "(c) PSRAM capacity (layer S-R3, Outer Product — psum heavy):"
    )?;
    let mut rows = Vec::new();
    for kib in [32u64, 64, 128, 256, 512] {
        let mut cfg = AcceleratorConfig::table5();
        cfg.memory.psram.capacity_bytes = kib << 10;
        rows.push(vec![
            format!("{kib} KiB"),
            run_with(cfg, "S-R3", Dataflow::OuterProductM).to_string(),
        ]);
    }
    writeln!(out, "{}", table(&["psram", "cycles"], &rows))?;

    writeln!(out, "(d) Merge bandwidth (layer A2, Gustavson's):")?;
    let mut rows = Vec::new();
    for bw in [4u64, 8, 16, 32, 64] {
        let mut cfg = AcceleratorConfig::table5();
        cfg.merge_bandwidth = bw;
        rows.push(vec![
            format!("{bw}/cycle"),
            run_with(cfg, "A2", Dataflow::GustavsonM).to_string(),
        ]);
    }
    writeln!(out, "{}", table(&["merge bw", "cycles"], &rows))?;

    writeln!(
        out,
        "(e) Distribution bandwidth (layer SQ5, Inner Product):"
    )?;
    let mut rows = Vec::new();
    for bw in [4u64, 8, 16, 32, 64] {
        let mut cfg = AcceleratorConfig::table5();
        cfg.dn_bandwidth = bw;
        rows.push(vec![
            format!("{bw}/cycle"),
            run_with(cfg, "SQ5", Dataflow::InnerProductM).to_string(),
        ]);
    }
    writeln!(out, "{}", table(&["dn bw", "cycles"], &rows))
}
