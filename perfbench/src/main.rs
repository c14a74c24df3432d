//! The benchmark command:
//!
//! ```text
//! perfbench --workload <suite|layers6|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run environment, every metric by name with its unit, and as
//! its last line one JSON object: `correct`, `attempted`, `failed` and the
//! headline `metrics` (end-to-end ones untraced, per-layer ones traced).
//! Everything measured, the environment and the trace spans are also
//! written under `perfbench/results/`.

use perfbench::report::{
    cpu_ticks, environment, json_number, json_string, peak_rss_mb, steal_pct, Metric, RunResult,
};
use perfbench::{layers6, serve, suite, RunConfig};
use std::time::Instant;

/// End-to-end metrics every untraced run reports (as in `BENCHMARK.json`).
/// `p99_ms` is printed and recorded too, but not listed: on a shared host
/// the tail follows the hypervisor's steal time more than the program.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "wall_s",
    "p50_ms",
    "sim_cycles_per_job",
    "peak_rss_mb",
];

/// Per-layer metrics every traced run reports (as in `BENCHMARK.json`);
/// workload-specific ones are printed and written to the results file.
const PER_LAYER: [&str; 12] = [
    "dnn.materialize_ms",
    "core.engine.MKN_ms",
    "core.engine.MKN.ns_per_cycle",
    "core.mapper.heuristic_us",
    "core.mapper.regret",
    "sim.stationary_cycles",
    "sim.streaming_cycles",
    "sim.merging_cycles",
    "mem.str_cache.hit_ratio",
    "mem.dram.bytes",
    "noc.mrn.additions",
    "bench.trace_overhead_pct",
];

const USAGE: &str =
    "usage: perfbench --workload <suite|layers6|serve> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, RunConfig), String> {
    let started = Instant::now();
    let mut workload = None;
    let mut seed = perfbench::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or(format!("--seconds {value}: not a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        RunConfig {
            seed,
            seconds,
            trace,
            started,
        },
    ))
}

fn main() {
    let (workload, cfg) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run: fn(&RunConfig) -> RunResult = match (workload.as_str(), cfg.trace) {
        ("suite", false) => suite::run,
        ("suite", true) => suite::run_traced,
        ("layers6", false) => layers6::run,
        ("layers6", true) => layers6::run_traced,
        ("serve", false) => serve::run,
        ("serve", true) => serve::run_traced,
        _ => {
            eprintln!("unknown workload {workload}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let env = environment(&workload, cfg.seed);
    for (k, v) in &env {
        println!("env {k} = {v}");
    }
    let ticks = cpu_ticks();
    let mut res = run(&cfg);
    if !cfg.trace {
        res.push("peak_rss_mb", peak_rss_mb(), "MB");
    }
    if let (Some(start), Some(end)) = (ticks, cpu_ticks()) {
        res.push("bench.host_steal_pct", steal_pct(start, end), "%");
    }
    for n in &res.notes {
        println!("note {n}");
    }
    for m in &res.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let headline: &[&str] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    let mut correct = res.failed == 0 && res.attempted > 0;
    for name in headline {
        match res.metrics.iter().find(|m| m.name == *name) {
            Some(m) if m.value.is_finite() => fields.push(metric_json(m)),
            _ => {
                eprintln!("metric {name} missing or not finite");
                correct = false;
            }
        }
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        res.attempted,
        res.failed,
        fields.join(", ")
    );
    write_results(&workload, &cfg, &env, &res, &line);
    println!("{line}");
}

/// `"name": {"value": v, "unit": u}` for the result line and file.
fn metric_json(m: &Metric) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json_string(&m.name),
        json_number(m.value),
        json_string(m.unit)
    )
}

/// Writes everything measured, the environment and the spans under
/// `perfbench/results/`. A write failure is reported, never fatal.
fn write_results(
    workload: &str,
    cfg: &RunConfig,
    env: &[(&'static str, String)],
    res: &RunResult,
    line: &str,
) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let stem = format!("{workload}-seed{}-trace{}", cfg.seed, u8::from(cfg.trace));
    let mut body = String::from("{\n  \"env\": {");
    let env_fields: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    body.push_str(&env_fields.join(", "));
    body.push_str("},\n  \"notes\": [");
    let notes: Vec<String> = res.notes.iter().map(|n| json_string(n)).collect();
    body.push_str(&notes.join(", "));
    body.push_str("],\n  \"all_metrics\": {");
    let all: Vec<String> = res.metrics.iter().map(metric_json).collect();
    body.push_str(&all.join(", "));
    body.push_str("},\n  \"result\": ");
    body.push_str(line);
    body.push_str("\n}\n");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), body))
        .and_then(|()| match &res.trace {
            Some(spans) => std::fs::write(dir.join(format!("{stem}.spans.jsonl")), spans),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("cannot write results under {}: {e}", dir.display());
    }
}
