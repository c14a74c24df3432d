//! `layers6`: the nine Table 6 layers under all six dataflows, each once
//! in SoA and once pinned to lossless `bcsr4`, back to back through one
//! long-lived `Flexagon` on the sharded engine (a closed loop, one
//! caller).
//!
//! This exercises what `suite` never reaches: N-stationary orientation,
//! band sharding and reduce, format encode/decode staging, pooled
//! workspaces, the k-indexed Inner-Product path (`V7`) and
//! multi-million-nonzero operands (`V0`).

use crate::check::matches_reference;
use crate::report::{RunResult, SimTally};
use crate::stats::{geomean, median};
use crate::trace::{self_time_by_name, to_json_lines, Recorder};
use crate::{engine_metrics, engine_span, nproc, repeated_setup, RunConfig};
use flexagon_core::{
    mapper, Accelerator, AcceleratorConfig, Dataflow, EngineConfig, ExecutionReport,
    ExecutionRequest, Flexagon,
};
use flexagon_dnn::table6::{self, RepresentativeLayer};
use flexagon_dnn::LayerMatrices;
use flexagon_serve::protocol::matrix_digest;
use flexagon_sparse::{reference, CompressedMatrix, FiberFormat, FormattedMatrix, MajorOrder};
use std::collections::BTreeMap;
use std::time::Instant;

/// The two storage formats every (layer, dataflow) pair runs under.
pub const FORMATS: [FiberFormat; 2] = [FiberFormat::Soa, FiberFormat::Bcsr4];

/// Timed passes over the job list in an untraced run (more if they end
/// before `--seconds`). A job's latency is its median over the passes, so
/// a burst of host contention that slows one pass of a job does not move
/// it; with two passes it was their mean, and `p50_ms` spread 0.2-0.3.
pub const PASSES: usize = 3;

/// Stationary nonzeros per shard band (the grain the repository's
/// `execute_sharded` bench uses).
pub const SHARD_GRAIN_NNZ: usize = 2048;

/// One job of the list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Index into [`table6::layers`].
    pub layer: usize,
    /// The pinned dataflow.
    pub dataflow: Dataflow,
    /// The pinned storage format.
    pub format: FiberFormat,
}

/// The fixed job list, layer-major: 9 layers x 6 dataflows x 2 formats.
pub fn job_list() -> Vec<Job> {
    let mut jobs = Vec::new();
    for layer in 0..table6::layers().len() {
        for dataflow in Dataflow::ALL {
            for format in FORMATS {
                jobs.push(Job {
                    layer,
                    dataflow,
                    format,
                });
            }
        }
    }
    jobs
}

/// The materialized layers and the long-lived accelerator.
#[derive(Debug)]
pub struct Prepared {
    /// The Table 6 layers.
    pub layers: Vec<RepresentativeLayer>,
    /// Their operands.
    pub mats: Vec<LayerMatrices>,
    /// The one accelerator every job runs on.
    pub accel: Flexagon,
    /// Its configuration.
    pub cfg: AcceleratorConfig,
}

/// Materializes the layers from `seed`, builds the sharded accelerator
/// and runs one small job so its workspace pool exists before timing.
pub fn prepare(seed: u64, rec: &Recorder) -> Prepared {
    let layers = table6::layers();
    let mats: Vec<LayerMatrices> = (0u64..)
        .zip(&layers)
        .map(|(i, l)| rec.span("dnn.materialize", i, None, |_| l.spec.materialize(seed)))
        .collect();
    let mut cfg = AcceleratorConfig::table5();
    cfg.engine = EngineConfig::default().sharded(SHARD_GRAIN_NNZ, nproc());
    let accel = Flexagon::new(cfg);
    let smallest = mats
        .iter()
        .min_by_key(|m| m.a.nnz() + m.b.nnz())
        .expect("Table 6 has layers");
    accel
        .execute(ExecutionRequest::new(&smallest.a, &smallest.b).dataflow(Dataflow::GustavsonM))
        .expect("warm-up job on generated operands");
    Prepared {
        layers,
        mats,
        accel,
        cfg,
    }
}

/// What one job produced, compared exactly across passes and formats.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The dataflow that ran.
    pub dataflow: Dataflow,
    /// The format the engine staged through.
    pub format: FiberFormat,
    /// Simulated cycles.
    pub cycles: u64,
    /// `matrix_digest` of C.
    pub digest: u64,
}

/// One timed pass: each job's host time in ms, its record and its report.
pub struct Pass {
    /// Host ms per job.
    pub job_ms: Vec<f64>,
    /// Records per job.
    pub records: Vec<Record>,
    /// Reports per job.
    pub reports: Vec<ExecutionReport>,
    /// Per-job output check (true when not checked).
    pub ok: Vec<bool>,
}

/// Runs the job list once. `rec` spans each engine call; `check` compares
/// every C with the reference product, outside the timed window.
pub fn pass(prep: &Prepared, jobs: &[Job], rec: &Recorder, check: bool) -> Pass {
    let mut out = Pass {
        job_ms: Vec::new(),
        records: Vec::new(),
        reports: Vec::new(),
        ok: Vec::new(),
    };
    let mut reference: Option<(usize, CompressedMatrix)> = None;
    for (id, job) in (0u64..).zip(jobs) {
        let m = &prep.mats[job.layer];
        let req = ExecutionRequest::new(&m.a, &m.b)
            .dataflow(job.dataflow)
            .format(job.format);
        let t = Instant::now();
        let ex = rec.span(engine_span(job.dataflow), id, None, |_| {
            prep.accel.execute(req)
        });
        out.job_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let ex = match ex {
            Ok(ex) => ex,
            Err(e) => {
                eprintln!("layers6 job {id} failed: {e}");
                out.ok.push(false);
                continue;
            }
        };
        let mut ok = ex.dataflow == job.dataflow && ex.format == job.format;
        if check {
            if reference.as_ref().is_none_or(|(l, _)| *l != job.layer) {
                let r = reference::spgemm(&m.a, &m.b).expect("reference product");
                reference = Some((job.layer, r));
            }
            let (_, r) = reference.as_ref().expect("set above");
            ok &= matches_reference(&ex.output.c, r);
        }
        out.ok.push(ok);
        out.records.push(Record {
            dataflow: ex.dataflow,
            format: ex.format,
            cycles: ex.output.report.total_cycles,
            digest: matrix_digest(&ex.output.c),
        });
        out.reports.push(ex.output.report);
    }
    out
}

/// Whether a pass's records all exist and lossless formats reproduced the
/// SoA job bit for bit (same cycles, same C).
fn formats_agree(records: &[Record]) -> bool {
    records.chunks(FORMATS.len()).all(|pair| {
        pair.iter()
            .all(|r| r.cycles == pair[0].cycles && r.digest == pair[0].digest)
    })
}

/// The untraced run.
pub fn run(cfg: &RunConfig) -> RunResult {
    let mut res = RunResult::default();
    let off = Recorder::new(false);
    let jobs = job_list();
    let (prep, setup_s) = repeated_setup(cfg, || prepare(cfg.seed, &off));
    let t_start = Instant::now();
    let first = pass(&prep, &jobs, &off, true);
    let complete = first.records.len() == jobs.len() && formats_agree(&first.records);
    for &ok in &first.ok {
        res.count(ok && complete);
    }
    // Host ms of every job, one row per pass.
    let mut passes = vec![first.job_ms.clone()];
    while passes.len() < PASSES || t_start.elapsed().as_secs_f64() < cfg.seconds {
        let p = pass(&prep, &jobs, &off, false);
        for (i, &ok) in p.ok.iter().enumerate() {
            res.count(ok && p.records.get(i) == first.records.get(i));
        }
        passes.push(p.job_ms);
    }
    let pass_s: Vec<f64> = passes.iter().map(|p| p.iter().sum::<f64>() / 1e3).collect();
    let job_median: Vec<f64> = (0..jobs.len())
        .map(|j| median(&passes.iter().map(|p| p[j]).collect::<Vec<_>>()))
        .collect();
    let mut tally = SimTally::default();
    for r in &first.reports {
        tally.add(r);
    }
    res.push("setup_s", setup_s, "s");
    res.push("wall_s", median(&pass_s), "s");
    res.push_latency("job (each the median of its passes)", &job_median);
    res.push("sim_cycles_per_job", tally.cycles_per_job(), "cycles");
    res.note(format!(
        "{} passes over {} jobs ({pass_s:.3?} s); wall_s is the median pass, each the sum of \
         its job times (output checks run between jobs, outside them)",
        pass_s.len(),
        jobs.len()
    ));
    res
}

/// The traced run: one untraced and one traced pass, plus standalone
/// probes of the `sparse` and `mapper` calls the engine makes internally.
pub fn run_traced(cfg: &RunConfig) -> RunResult {
    let mut res = RunResult::default();
    let rec = Recorder::new(true);
    let jobs = job_list();
    let prep = prepare(cfg.seed, &rec);
    let plain = pass(&prep, &jobs, &Recorder::new(false), true);
    let traced = pass(&prep, &jobs, &rec, false);
    let complete = plain.records.len() == jobs.len() && formats_agree(&plain.records);
    for (i, &ok) in plain.ok.iter().enumerate() {
        res.count(ok && complete);
        res.count(traced.ok.get(i) == Some(&true) && traced.records.get(i) == plain.records.get(i));
    }
    // Probes: the staging, conversion and mapping calls the engine makes
    // inside `execute`, timed standalone on the same operands.
    let probe_job = jobs.len() as u64;
    let mut top1 = 0usize;
    let mut regret = Vec::new();
    for (i, m) in prep.mats.iter().enumerate() {
        let job = probe_job + i as u64;
        let enc = rec.span("sparse.format.encode", job, None, |_| {
            [&m.a, &m.b].map(|x| FormattedMatrix::encode(x, FiberFormat::Bcsr4))
        });
        rec.span("sparse.format.decode", job, None, |_| {
            enc.iter().map(FormattedMatrix::decode).count()
        });
        rec.span("sparse.convert", job, None, |_| {
            [&m.a, &m.b].map(|x| x.converted(MajorOrder::Col).nnz())
        });
        let pick = rec.span("core.mapper.heuristic", job, None, |_| {
            mapper::heuristic_among(&prep.cfg, &m.a, &m.b, &Dataflow::ALL)
        });
        // Oracle over the six SoA jobs of this layer.
        let soa: Vec<&Record> = (0..Dataflow::ALL.len())
            .filter_map(|d| {
                plain
                    .records
                    .get((i * Dataflow::ALL.len() + d) * FORMATS.len())
            })
            .collect();
        if let Some(best) = soa.iter().min_by_key(|r| r.cycles) {
            let picked = soa
                .iter()
                .find(|r| r.dataflow == pick)
                .map_or(0, |r| r.cycles);
            top1 += usize::from(picked == best.cycles);
            regret.push(picked as f64 / best.cycles.max(1) as f64);
        }
        drop(enc);
    }
    let spans = rec.take();
    let by_name = self_time_by_name(&spans);
    let ms = |name: &str| by_name.get(name).map_or(0.0, |&(_, ns)| ns as f64 / 1e6);
    let mut cycles: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut tally = SimTally::default();
    for (job, r) in jobs.iter().zip(&traced.reports) {
        *cycles.entry(engine_span(job.dataflow)).or_default() += r.total_cycles;
        tally.add(r);
    }
    let staging_ms: f64 = traced
        .job_ms
        .chunks(FORMATS.len())
        .map(|pair| pair[1] - pair[0])
        .sum();
    let (wall_u, wall_t) = (
        plain.job_ms.iter().sum::<f64>(),
        traced.job_ms.iter().sum::<f64>(),
    );
    let calls = by_name
        .get("core.mapper.heuristic")
        .map_or(1, |&(n, _)| n.max(1));
    res.push("dnn.materialize_ms", ms("dnn.materialize"), "ms");
    res.metrics.extend(engine_metrics(&by_name, &cycles));
    res.push("core.engine.bcsr4_minus_soa_ms", staging_ms, "ms");
    res.push("sparse.convert_ms", ms("sparse.convert"), "ms");
    res.push("sparse.format.encode_ms", ms("sparse.format.encode"), "ms");
    res.push("sparse.format.decode_ms", ms("sparse.format.decode"), "ms");
    res.push(
        "core.mapper.heuristic_us",
        ms("core.mapper.heuristic") * 1e3 / calls as f64,
        "us",
    );
    res.push(
        "core.mapper.top1",
        top1 as f64 / prep.mats.len() as f64,
        "ratio",
    );
    res.push("core.mapper.regret", geomean(&regret), "ratio");
    res.metrics.extend(tally.metrics());
    res.push(
        "bench.trace_overhead_pct",
        (wall_t / wall_u - 1.0) * 100.0,
        "%",
    );
    res.note(format!(
        "{} jobs: traced pass {:.3} s, untraced {:.3} s; mapper metrics over the {} layers \
         against the six-dataflow SoA oracle",
        jobs.len(),
        wall_t / 1e3,
        wall_u / 1e3,
        prep.mats.len()
    ));
    for (job, ms) in jobs.iter().zip(&traced.job_ms) {
        res.note(format!(
            "job {} {} {}: {ms:.2} ms",
            prep.layers[job.layer].id,
            job.dataflow.loop_order(),
            job.format.token()
        ));
    }
    res.trace = Some(to_json_lines(&spans));
    res
}
