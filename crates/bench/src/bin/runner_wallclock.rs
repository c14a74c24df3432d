//! Multi-core wall-clock bench for the rayon model runner (ROADMAP item (a)).
//!
//! The criterion suites measure single-simulation kernels; the parallel
//! fan-out of `flexagon_bench::runner` (layers x systems across cores) only
//! shows up in end-to-end wall clock. This binary times `run_model` over a
//! fixed synthetic model and appends a result record — including the rayon
//! thread count — to the `FLEXAGON_BENCH_JSON` results file, in the same
//! line format the criterion shim emits plus a `"threads"` field.
//!
//! `bench_guard` gates each recorded number only when a measurement exists
//! at the baseline's thread count, so the benchmark is always *run* (even
//! when `available_parallelism() == 1`) without ever comparing wall clocks
//! across different parallelism. To cover multi-core baselines (ROADMAP
//! item (a); GitHub-hosted runners have 4 vCPUs), one invocation can
//! measure several thread counts: `FLEXAGON_BENCH_THREADS` is a
//! comma-separated list (e.g. `1,4`), each measured in turn by setting
//! `RAYON_NUM_THREADS` — the vendored rayon shim sizes every parallel
//! operation from the environment, honoring requests above the hardware
//! parallelism exactly like real rayon's global-pool variable (a count
//! above the core count oversubscribes). Default: the ambient thread
//! count only.
//!
//! The other knobs mirror the criterion shim: `FLEXAGON_BENCH_MS`
//! (measurement budget, default 300) and `FLEXAGON_BENCH_JSON` (output
//! path; relative paths resolve against the workspace root).

use flexagon_bench::runner::{self, RunOptions, DEFAULT_SEED};
use flexagon_core::EngineConfig;
use flexagon_dnn::{DnnModel, Domain, LayerSpec};
use std::io::Write;
use std::time::Instant;

/// Shard grain for the intra-layer-sharded configuration: the synthetic
/// layers carry ~3.7k stationary nonzeros, so a 512-nonzero grain yields
/// roughly seven bands per layer — enough slack for four shard workers.
const SHARD_GRAIN_NNZ: usize = 512;

/// A small fixed model: large enough that the per-layer fan-out dominates,
/// small enough for a smoke budget.
fn bench_model() -> DnnModel {
    let layers = (0..8)
        .map(|i| LayerSpec::new(i, format!("wall{i}"), 96, 128, 96, 70.0, 60.0))
        .collect();
    DnnModel {
        name: "Runner wall-clock synthetic",
        short: "W",
        domain: Domain::ComputerVision,
        layers,
    }
}

fn budget_ms() -> u64 {
    std::env::var("FLEXAGON_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

/// Resolves the results path exactly like the criterion shim, so this
/// bin's records land in the same file the bench harnesses append to.
fn results_path() -> std::path::PathBuf {
    let path = std::env::var("FLEXAGON_BENCH_JSON")
        .unwrap_or_else(|_| "target/bench_results.json".to_string());
    criterion::resolve_output_path(&path)
}

/// Thread counts to measure: `FLEXAGON_BENCH_THREADS` as a comma-separated
/// list (deduplicated, order preserved), or the ambient count.
///
/// # Panics
///
/// Panics on a malformed token — silently dropping one would leave a
/// recorded wall-clock baseline unmeasured, and `bench_guard` only prints
/// an easily-missed skip line for that, so a CI typo must fail loudly
/// here instead.
fn thread_counts() -> Vec<usize> {
    let parsed: Vec<usize> = std::env::var("FLEXAGON_BENCH_THREADS")
        .map(|s| {
            s.split(',')
                .map(|t| match t.trim().parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => panic!(
                        "FLEXAGON_BENCH_THREADS: '{t}' is not a positive thread count \
                         (expected a comma-separated list like '1,4')"
                    ),
                })
                .collect()
        })
        .unwrap_or_default();
    let mut counts = Vec::new();
    for t in parsed {
        if !counts.contains(&t) {
            counts.push(t);
        }
    }
    if counts.is_empty() {
        counts.push(rayon::current_num_threads());
    }
    counts
}

fn main() {
    let model = bench_model();
    let budget = std::time::Duration::from_millis(budget_ms());
    let path = results_path();
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let mut total_cycles = 0u64;
    for requested in thread_counts() {
        std::env::set_var("RAYON_NUM_THREADS", requested.to_string());
        let threads = rayon::current_num_threads();
        // Two configurations per thread count: the classic layer-parallel
        // fan-out, and the intra-layer-sharded engine with layers run
        // sequentially (all parallelism inside `execute`) — the path the
        // `bench-smoke` CI job guards alongside the layer-parallel one.
        let sharded = RunOptions {
            engine: EngineConfig::default().sharded(SHARD_GRAIN_NNZ, requested),
            layer_parallel: false,
            ..RunOptions::default()
        };
        let configs: [(&str, Option<&RunOptions>); 2] = [
            ("runner_wallclock/synthetic8x96", None),
            ("runner_wallclock/sharded8x96", Some(&sharded)),
        ];
        for (name, opts) in configs {
            let run = || match opts {
                None => runner::run_model(&model, DEFAULT_SEED, false),
                Some(o) => runner::run_model_opts(&model, DEFAULT_SEED, o, false),
            };
            // Warm-up: one full pass (operand materialization, allocator,
            // caches) at this parallelism.
            run();
            let start = Instant::now();
            let mut iters = 0u64;
            while start.elapsed() < budget || iters == 0 {
                let results = run();
                total_cycles = total_cycles.max(results.total_cycles.iter().sum());
                iters += 1;
            }
            let ns_per_iter = start.elapsed().as_nanos() as f64 / iters as f64;
            println!(
                "bench: {name:<56} {ns_per_iter:>14.1} ns/iter ({iters} iters, {threads} threads)"
            );
            match std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
            {
                Ok(mut file) => {
                    let _ = writeln!(
                        file,
                        "{{\"name\": \"{name}\", \"ns_per_iter\": {ns_per_iter:.1}, \
                         \"iterations\": {iters}, \"threads\": {threads}}}"
                    );
                }
                Err(e) => eprintln!(
                    "warning: cannot write bench results to {}: {e}",
                    path.display()
                ),
            }
        }
    }
    // Keep the optimizer honest about the simulation results.
    std::hint::black_box(total_cycles);
}
