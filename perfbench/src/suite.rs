//! `suite`: a pass over the Table 2 DNN suite through the harness runner.
//!
//! The timed path is `flexagon_bench::runner::run_model` — oracle mapping,
//! the three fixed-dataflow accelerators plus the CPU baseline per layer,
//! layers fanned out on the runner's rayon threads — called by one caller,
//! one model after another (a closed loop).
//!
//! The job list is a fixed stratified sample of the suite: every
//! [`STRIDE`]th layer of every model, starting at layer [`OFFSET`]. A full
//! pass over all 513 layers takes about 40 s on two cores, longer than a
//! benchmark run may measure; the sample keeps all eight models and the
//! suite's mix of layer shapes at an eighth of the cost. Offset 2 skips each
//! model's first layer, so the largest early-conv layers (VGG's `V0` among
//! them, which `layers6` already covers) do not dominate a pass.
//!
//! The same layers also run through the decomposed public calls the runner
//! makes (`LayerSpec::materialize`, `Accelerator::execute` per dataflow,
//! `CpuMkl::run`, `mapper::heuristic`); that path is what the traced run
//! records, and its totals are the reference every timed pass must
//! reproduce exactly.

use crate::check::matches_reference;
use crate::report::{RunResult, SimTally};
use crate::stats::{geomean, median, Summary};
use crate::trace::{self_time_by_name, to_json_lines, Recorder};
use crate::{engine_metrics, nproc, repeated_setup, RunConfig};
use flexagon_bench::runner::{run_model, LayerResults, ModelResults, SystemId};
use flexagon_core::{
    mapper, Accelerator, AcceleratorConfig, CpuMkl, Dataflow, ExecutionReport, ExecutionRequest,
    GammaLike, SigmaLike, SparchLike,
};
use flexagon_dnn::{DnnModel, LayerMatrices, LayerSpec};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every `STRIDE`th layer of each model is in the job list.
pub const STRIDE: u32 = 8;
/// The first sampled layer index of each model.
pub const OFFSET: u32 = 2;

/// The job list: the eight suite models, each cut to its sampled layers.
/// It does not depend on the seed; the seed only materializes operands.
pub fn job_list() -> Vec<DnnModel> {
    flexagon_dnn::suite()
        .into_iter()
        .map(|m| DnnModel {
            layers: m
                .layers
                .into_iter()
                .filter(|l| l.index % STRIDE == OFFSET)
                .collect(),
            ..m
        })
        .collect()
}

/// The job list with every sampled layer's operands materialized.
#[derive(Debug)]
pub struct Prepared {
    /// The sampled models.
    pub models: Vec<DnnModel>,
    /// Operands per model, per sampled layer.
    pub mats: Vec<Vec<LayerMatrices>>,
}

impl Prepared {
    /// Sampled layers across all models.
    pub fn layers(&self) -> usize {
        self.models.iter().map(|m| m.layers.len()).sum()
    }
}

/// Builds the job list and materializes it from `seed`.
pub fn prepare(seed: u64, rec: &Recorder) -> Prepared {
    let models = job_list();
    let mut job = 0u64;
    let mats = models
        .iter()
        .map(|m| {
            m.layers
                .iter()
                .map(|spec| {
                    job += 1;
                    rec.span("dnn.materialize", job - 1, None, |_| spec.materialize(seed))
                })
                .collect()
        })
        .collect();
    Prepared { models, mats }
}

/// What the decomposed calls produced for one layer.
#[derive(Debug, Clone)]
pub struct LayerCheck {
    /// The reports in the runner's own layout, with Flexagon's dataflow
    /// resolved by the oracle as `run_model` resolves it.
    pub results: LayerResults,
    /// The calibrated heuristic's pick for the layer.
    pub heuristic: Dataflow,
    /// Every call succeeded and every accelerator's C matched the CPU
    /// baseline's C.
    pub ok: bool,
}

/// The report of one of the three M-stationary dataflows.
fn report_of(r: &LayerResults, df: Dataflow) -> &ExecutionReport {
    match df {
        Dataflow::InnerProductM => &r.inner_product,
        Dataflow::OuterProductM => &r.outer_product,
        _ => &r.gustavson,
    }
}

const M_DATAFLOWS: [Dataflow; 3] = [
    Dataflow::InnerProductM,
    Dataflow::OuterProductM,
    Dataflow::GustavsonM,
];

/// Runs every sampled layer through the decomposed public calls, layers
/// fanned out on `threads` threads, and returns the per-layer results with
/// the pass's wall time in seconds. Outputs are checked after each layer's
/// calls, outside every span.
pub fn decomposed_pass(prep: &Prepared, rec: &Recorder, threads: usize) -> (Vec<LayerCheck>, f64) {
    let layers = prep
        .models
        .iter()
        .zip(&prep.mats)
        .flat_map(|(model, mats)| model.layers.iter().zip(mats));
    let jobs: Vec<(u64, (&LayerSpec, &LayerMatrices))> = (0u64..).zip(layers).collect();
    let t0 = Instant::now();
    let checks = jobs
        .par_iter()
        .map(|&(job, (spec, m))| {
            let cfg = AcceleratorConfig::table5();
            let (runs, cpu, heuristic) = rec.span("suite.layer", job, None, |p| {
                let run = |df: Dataflow| {
                    rec.span(crate::engine_span(df), job, p, |_| {
                        let req = ExecutionRequest::new(&m.a, &m.b).dataflow(df);
                        match df {
                            Dataflow::InnerProductM => SigmaLike::new(cfg).execute(req),
                            Dataflow::OuterProductM => SparchLike::new(cfg).execute(req),
                            _ => GammaLike::new(cfg).execute(req),
                        }
                    })
                };
                let runs = M_DATAFLOWS.map(run);
                let cpu = rec.span("core.cpu.run", job, p, |_| {
                    CpuMkl::with_defaults().run(&m.a, &m.b)
                });
                let heuristic = rec.span("core.mapper.heuristic", job, p, |_| {
                    mapper::heuristic(&cfg, &m.a, &m.b)
                });
                (runs, cpu, heuristic)
            });
            let cpu = cpu.expect("CPU baseline run on generated operands");
            let ok = runs.iter().all(|r| {
                r.as_ref()
                    .is_ok_and(|ex| matches_reference(&ex.output.c, &cpu.c))
            });
            let [inner_product, outer_product, gustavson] = runs.map(|r| {
                r.expect("accelerator run on generated operands")
                    .output
                    .report
            });
            let mut results = LayerResults {
                spec: spec.clone(),
                inner_product,
                outer_product,
                gustavson,
                cpu: cpu.report,
                flexagon_dataflow: Dataflow::InnerProductM,
            };
            results.flexagon_dataflow = results.best_dataflow();
            LayerCheck {
                results,
                heuristic,
                ok,
            }
        })
        .max_threads(threads)
        .collect();
    (checks, t0.elapsed().as_secs_f64())
}

/// Per-model totals and winners from the decomposed results, in the
/// runner's [`ModelResults`] layout (totals in [`SystemId::ALL`] order).
pub fn model_totals(prep: &Prepared, checks: &[LayerCheck]) -> Vec<([u64; 5], Vec<Dataflow>)> {
    let mut out = Vec::new();
    let mut it = checks.iter();
    for m in &prep.models {
        let mut totals = [0u64; 5];
        let mut winners = Vec::new();
        for c in it.by_ref().take(m.layers.len()) {
            for (total, sys) in totals.iter_mut().zip(SystemId::ALL) {
                *total += c.results.of(sys).total_cycles;
            }
            winners.push(c.results.flexagon_dataflow);
        }
        out.push((totals, winners));
    }
    out
}

/// The untraced run: timed `run_model` passes, then the decomposed
/// reference pass they must all reproduce.
pub fn run(cfg: &RunConfig) -> RunResult {
    let mut res = RunResult::default();
    let off = Recorder::new(false);
    let (prep, setup_s) = repeated_setup(cfg, || prepare(cfg.seed, &off));
    let t_start = Instant::now();
    let mut passes: Vec<Vec<ModelResults>> = Vec::new();
    let mut pass_s = Vec::new();
    let mut call_ms = Vec::new();
    while passes.len() < 2 || t_start.elapsed().as_secs_f64() < cfg.seconds {
        let mut pass = Vec::new();
        let mut total = 0.0;
        for model in &prep.models {
            let t = Instant::now();
            let r = run_model(model, cfg.seed, false);
            let s = t.elapsed().as_secs_f64();
            total += s;
            call_ms.push(s * 1e3);
            pass.push(r);
        }
        pass_s.push(total);
        passes.push(pass);
    }
    let (checks, _) = decomposed_pass(&prep, &off, nproc());
    for c in &checks {
        res.count(c.ok);
    }
    let expected = model_totals(&prep, &checks);
    for pass in &passes {
        for (got, (totals, winners)) in pass.iter().zip(&expected) {
            res.count(got.total_cycles == *totals && got.winners == *winners);
        }
    }
    let flexagon: u64 = expected.iter().map(|(t, _)| t[4]).sum();
    res.push("setup_s", setup_s, "s");
    res.push("wall_s", median(&pass_s), "s");
    res.push_latency("run_model call", &call_ms);
    res.push(
        "sim_cycles_per_job",
        flexagon as f64 / prep.layers() as f64,
        "cycles",
    );
    res.note(format!(
        "{} passes over {} models / {} layers ({pass_s:.3?} s)",
        passes.len(),
        prep.models.len(),
        prep.layers()
    ));
    res
}

/// The traced run: the decomposed pass once untraced and once traced, and
/// the per-layer metrics from the traced spans.
pub fn run_traced(cfg: &RunConfig) -> RunResult {
    let mut res = RunResult::default();
    let rec = Recorder::new(true);
    let threads = nproc();
    let prep = prepare(cfg.seed, &rec);
    let (plain, wall_u) = decomposed_pass(&prep, &Recorder::new(false), threads);
    let (traced, wall_t) = decomposed_pass(&prep, &rec, threads);
    for (p, t) in plain.iter().zip(&traced) {
        let same = SystemId::ALL
            .into_iter()
            .all(|s| p.results.of(s).total_cycles == t.results.of(s).total_cycles);
        res.count(p.ok);
        res.count(t.ok && same);
    }
    let spans = rec.take();
    let by_name = self_time_by_name(&spans);
    let ms = |name: &str| by_name.get(name).map_or(0.0, |&(_, ns)| ns as f64 / 1e6);
    let mut cycles: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut tally = SimTally::default();
    let mut top1 = 0usize;
    let mut regret = Vec::new();
    for c in &traced {
        let r = &c.results;
        for df in M_DATAFLOWS {
            *cycles.entry(crate::engine_span(df)).or_default() += report_of(r, df).total_cycles;
        }
        tally.add(r.flexagon());
        top1 += usize::from(c.heuristic == r.flexagon_dataflow);
        regret.push(
            report_of(r, c.heuristic).total_cycles as f64 / r.flexagon().total_cycles.max(1) as f64,
        );
    }
    let layer_job_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "suite.layer")
        .map(|s| s.duration_ns())
        .sum();
    let calls = by_name
        .get("core.mapper.heuristic")
        .map_or(1, |&(n, _)| n.max(1));
    res.push("dnn.materialize_ms", ms("dnn.materialize"), "ms");
    res.push("core.cpu.run_ms", ms("core.cpu.run"), "ms");
    res.metrics.extend(engine_metrics(&by_name, &cycles));
    res.push(
        "core.mapper.heuristic_us",
        ms("core.mapper.heuristic") * 1e3 / calls as f64,
        "us",
    );
    res.push(
        "core.mapper.top1",
        top1 as f64 / traced.len() as f64,
        "ratio",
    );
    res.push("core.mapper.regret", geomean(&regret), "ratio");
    res.metrics.extend(tally.metrics());
    res.push(
        "bench.runner.busy_ratio",
        layer_job_ns as f64 / 1e9 / (wall_t * threads as f64),
        "ratio",
    );
    res.push(
        "bench.trace_overhead_pct",
        (wall_t / wall_u - 1.0) * 100.0,
        "%",
    );
    let layer_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "suite.layer")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let s = Summary::of(&layer_ms);
    res.note(format!(
        "{} layers on {threads} threads: traced pass {wall_t:.3} s, untraced {wall_u:.3} s; \
         layer job p50 {:.2} ms, p{} {:.2} ms",
        traced.len(),
        s.p50,
        s.tail_p,
        s.tail
    ));
    res.trace = Some(to_json_lines(&spans));
    res
}
