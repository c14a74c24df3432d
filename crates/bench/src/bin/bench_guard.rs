//! Compares a criterion-shim results file against the recorded baseline in
//! `BENCH_spgemm.json` and fails on real per-benchmark regressions.
//!
//! Usage: `bench_guard [--only PREFIX]... [--skip PREFIX]...
//! [results.json] [baseline.json]` (defaults: `target/bench_results.json`,
//! `BENCH_spgemm.json`). The results file is the record-per-line output the
//! vendored criterion shim appends to `FLEXAGON_BENCH_JSON`. `--only`
//! restricts the gated baseline set to benchmarks whose name starts with
//! `PREFIX` (repeatable; any match qualifies), `--skip` excludes a prefix —
//! so CI jobs each gate their own suite against the shared baseline file
//! without tripping the unmatched-entry failure for suites they do not run
//! (serve-smoke passes `--only serve_wallclock/`, bench-smoke passes
//! `--skip serve_wallclock/`); within the filtered set, unmatched gated
//! baselines still fail.
//!
//! Latency-percentile baselines: an entry carrying `post_p50_ns` /
//! `post_p99_ns` alongside `post_ns_per_iter` gates those fields against
//! the measurement's `p50_ns` / `p99_ns` (rows labeled `/p50`, `/p99`),
//! with the same machine-factor normalization. A percentile recorded in
//! the baseline but missing from the measurement is an unmatched failure —
//! dropping a percentile silently must not shrink the guarded set.
//!
//! CI machines are not the machine the baseline was recorded on, so raw
//! nanosecond comparisons would flag every benchmark on a slower runner. The
//! guard instead normalizes by the *median* measured/recorded ratio across
//! all matched benchmarks — the machine-speed factor — and fails only when a
//! single benchmark is more than `BENCH_GUARD_TOLERANCE` (default 1.5×)
//! slower than that factor predicts: a shape regression, not a slow machine.

use serde::{DeError, Deserialize, Value};
use std::process::ExitCode;

/// Benchmarks faster than this are dominated by timer jitter and batching
/// granularity at smoke budgets (micro-benches were observed 1.5-1.7x off
/// on unchanged code at starved budgets); they are uploaded in the artifact
/// but not gated on.
const MIN_GATED_NS: f64 = 5000.0;

/// Median measured/recorded ratio beyond which the run fails outright: the
/// median normalization exists to tolerate slower CI machines, but a factor
/// this large means either a systemic regression (slowing everything evades
/// per-bench gating) or a runner too far from the baseline machine class for
/// the comparison to mean anything.
const MAX_MACHINE_FACTOR: f64 = 4.0;

#[derive(Debug, Deserialize)]
struct Baseline {
    results: Vec<BaselineEntry>,
}

/// One record of the baseline file; extra fields (pre numbers, speedups)
/// are ignored by the shim's deserializer. `threads` is optional (absent
/// means a single-simulation kernel bench), so deserialization is manual —
/// the derive shim treats every listed field as required.
#[derive(Debug)]
struct BaselineEntry {
    benchmark: String,
    post_ns_per_iter: f64,
    threads: Option<u64>,
    post_p50_ns: Option<f64>,
    post_p99_ns: Option<f64>,
}

impl Deserialize for BaselineEntry {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| DeError::new("expected an object for BaselineEntry"))?;
        Ok(Self {
            benchmark: Deserialize::from_value(serde::map_get(m, "benchmark")?)?,
            post_ns_per_iter: Deserialize::from_value(serde::map_get(m, "post_ns_per_iter")?)?,
            threads: optional_u64(m, "threads")?,
            post_p50_ns: optional_f64(m, "post_p50_ns")?,
            post_p99_ns: optional_f64(m, "post_p99_ns")?,
        })
    }
}

/// One line of the criterion shim's results file (or a wall-clock
/// runner's, which may add `threads` and latency percentiles).
#[derive(Debug)]
struct Measured {
    name: String,
    ns_per_iter: f64,
    threads: Option<u64>,
    p50_ns: Option<f64>,
    p99_ns: Option<f64>,
}

impl Deserialize for Measured {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| DeError::new("expected an object for Measured"))?;
        Ok(Self {
            name: Deserialize::from_value(serde::map_get(m, "name")?)?,
            ns_per_iter: Deserialize::from_value(serde::map_get(m, "ns_per_iter")?)?,
            threads: optional_u64(m, "threads")?,
            p50_ns: optional_f64(m, "p50_ns")?,
            p99_ns: optional_f64(m, "p99_ns")?,
        })
    }
}

/// Reads an optional numeric field: absent and `null` both mean `None`.
fn optional_u64(m: &[(String, Value)], key: &str) -> Result<Option<u64>, DeError> {
    match serde::map_get(m, key) {
        Ok(Value::Null) | Err(_) => Ok(None),
        Ok(v) => Deserialize::from_value(v).map(Some),
    }
}

/// Reads an optional float field: absent and `null` both mean `None`.
fn optional_f64(m: &[(String, Value)], key: &str) -> Result<Option<f64>, DeError> {
    match serde::map_get(m, key) {
        Ok(Value::Null) | Err(_) => Ok(None),
        Ok(v) => Deserialize::from_value(v).map(Some),
    }
}

/// Display label for a baseline entry: the benchmark name, with the thread
/// count appended for wall-clock entries so per-thread baselines of the
/// same benchmark stay distinguishable in the output.
fn label(b: &BaselineEntry) -> String {
    match b.threads {
        Some(t) => format!("{} @{}t", b.benchmark, t),
        None => b.benchmark.clone(),
    }
}

fn main() -> ExitCode {
    let mut only: Vec<String> = Vec::new();
    let mut skip: Vec<String> = Vec::new();
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--only" || arg == "--skip" {
            let Some(p) = args.next() else {
                eprintln!("bench_guard: {arg} needs a benchmark-name prefix");
                return ExitCode::FAILURE;
            };
            if arg == "--only" {
                only.push(p)
            } else {
                skip.push(p)
            }
        } else {
            positional.push(arg);
        }
    }
    let mut positional = positional.into_iter();
    let results_path = positional
        .next()
        .unwrap_or_else(|| "target/bench_results.json".into());
    let baseline_path = positional
        .next()
        .unwrap_or_else(|| "BENCH_spgemm.json".into());
    let tolerance: f64 = std::env::var("BENCH_GUARD_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.5);

    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_guard: cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline: Baseline = match serde_json::from_str(&baseline_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_guard: cannot parse baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let results_text = match std::fs::read_to_string(&results_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_guard: cannot read results {results_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let measured: Vec<Measured> = results_text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| serde_json::from_str(l).ok())
        .collect();
    if measured.is_empty() {
        eprintln!("bench_guard: no measurements in {results_path}");
        return ExitCode::FAILURE;
    }

    // Match measurements to baseline records and compute speed ratios.
    let mut rows: Vec<(String, f64, f64, f64)> = Vec::new(); // name, base, now, ratio
    let mut unmatched: Vec<String> = Vec::new();
    for b in &baseline.results {
        if !only.is_empty() && !only.iter().any(|p| b.benchmark.starts_with(p.as_str())) {
            continue;
        }
        if skip.iter().any(|p| b.benchmark.starts_with(p.as_str())) {
            continue;
        }
        if b.post_ns_per_iter < MIN_GATED_NS {
            continue;
        }
        // The shim appends records, so a reused results file can hold
        // several measurements per benchmark: the last one is the latest.
        // Wall-clock baselines exist per thread count (the multi-core
        // runner records several), so a measurement matches only at equal
        // parallelism; a baseline measured only at *other* thread counts is
        // informational (a 4-thread baseline cannot gate a 2-core machine),
        // while one not measured at all fails below.
        let same_name = || measured.iter().rev().filter(|m| m.name == b.benchmark);
        match same_name().find(|m| m.threads.unwrap_or(1) == b.threads.unwrap_or(1)) {
            Some(m) => {
                rows.push((
                    label(b),
                    b.post_ns_per_iter,
                    m.ns_per_iter,
                    m.ns_per_iter / b.post_ns_per_iter,
                ));
                // Latency-percentile baselines gate alongside the mean: one
                // row per recorded percentile, matched against the same
                // measurement. A baseline percentile the runner stopped
                // reporting is an unmatched failure, same as a dropped
                // benchmark.
                let percentiles = [
                    ("p50", b.post_p50_ns, m.p50_ns),
                    ("p99", b.post_p99_ns, m.p99_ns),
                ];
                for (suffix, base, now) in percentiles {
                    match (base, now) {
                        (Some(base), Some(now)) => {
                            rows.push((format!("{}/{suffix}", label(b)), base, now, now / base));
                        }
                        (Some(_), None) => unmatched.push(format!("{}/{suffix}", label(b))),
                        (None, _) => {}
                    }
                }
            }
            None if same_name().next().is_some() => {
                println!(
                    "  {:<44} skipped: baseline at {} thread(s), measured only at {:?}",
                    label(b),
                    b.threads.unwrap_or(1),
                    same_name()
                        .map(|m| m.threads.unwrap_or(1))
                        .collect::<Vec<_>>(),
                );
            }
            // A gated baseline entry with no measurement means the benchmark
            // was renamed or dropped without updating the baseline — that
            // must not silently shrink the guarded set.
            None => unmatched.push(label(b)),
        }
    }
    if !unmatched.is_empty() {
        for name in &unmatched {
            eprintln!("bench_guard: baseline benchmark '{name}' was not measured");
        }
        eprintln!(
            "bench_guard: {} gated baseline entr{} missing from the results — \
             renamed or dropped benchmarks must update {baseline_path}",
            unmatched.len(),
            if unmatched.len() == 1 { "y" } else { "ies" },
        );
        return ExitCode::FAILURE;
    }
    if rows.is_empty() {
        eprintln!("bench_guard: no benchmark matched the baseline — name drift?");
        return ExitCode::FAILURE;
    }
    let mut ratios: Vec<f64> = rows.iter().map(|r| r.3).collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let machine_factor = ratios[ratios.len() / 2];
    if machine_factor > MAX_MACHINE_FACTOR {
        eprintln!(
            "bench_guard: median ratio {machine_factor:.2}x exceeds {MAX_MACHINE_FACTOR}x — \
             systemic regression, or a machine too slow to compare against the baseline"
        );
        return ExitCode::FAILURE;
    }
    let limit = machine_factor * tolerance;

    println!(
        "bench_guard: {} benchmarks, machine factor {machine_factor:.2}x, \
         per-bench limit {limit:.2}x (tolerance {tolerance}x)",
        rows.len()
    );
    let mut failed = false;
    for (name, base, now, ratio) in &rows {
        let verdict = if *ratio > limit {
            failed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        println!("  {name:<44} {base:>14.1} -> {now:>14.1} ns/iter  {ratio:>5.2}x  {verdict}");
    }
    if failed {
        eprintln!("bench_guard: regression(s) above {tolerance}x the machine-normalized baseline");
        ExitCode::FAILURE
    } else {
        println!("bench_guard: baseline held");
        ExitCode::SUCCESS
    }
}
