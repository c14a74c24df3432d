//! Metrics, the run environment, and the result line.

use crate::stats::Summary;
use flexagon_core::ExecutionReport;
use flexagon_sim::Phase;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or the notes.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (jobs or requests).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Every metric measured, headline or not.
    pub metrics: Vec<Metric>,
    /// Context lines printed before the result (sample counts, which
    /// percentile a tail stands for, ...).
    pub notes: Vec<String>,
    /// Trace spans as JSON lines, when traced.
    pub trace: Option<String>,
}

impl RunResult {
    /// Adds a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(metric(name, value, unit));
    }

    /// Adds a context note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds `p50_ms`/`p99_ms` from a latency sample (ms), noting which
    /// percentile the tail is and from how many samples.
    pub fn push_latency(&mut self, what: &str, latencies_ms: &[f64]) -> Summary {
        let s = Summary::of(latencies_ms);
        self.push("p50_ms", s.p50, "ms");
        self.push("p99_ms", s.tail, "ms");
        self.note(format!(
            "p99_ms is the p{} of {} {what} latencies (highest percentile with >= 10 samples \
             beyond it)",
            s.tail_p, s.n
        ));
        s
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `NaN` when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Machine-wide CPU time so far from the `cpu` line of `/proc/stat`, in
/// clock ticks: (time spent running, time stolen by the hypervisor while
/// a vCPU wanted to run), or `None` when `/proc` is unavailable.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...
    let running = fields.iter().take(7).sum::<u64>() - fields.get(3)? - fields.get(4)?;
    Some((running, *fields.get(7)?))
}

/// Stolen share of the CPU time the run wanted (running + stolen), in %,
/// between two [`cpu_ticks`] readings. On a shared host this is the usual
/// cause of a run that reads slower than its neighbours.
pub fn steal_pct(start: (u64, u64), end: (u64, u64)) -> f64 {
    let running = end.0.saturating_sub(start.0);
    let stolen = end.1.saturating_sub(start.1);
    100.0 * stolen as f64 / (running + stolen).max(1) as f64
}

/// Sums of the simulated-component counters over a set of reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimTally {
    /// Reports added.
    pub jobs: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Stationary-phase cycles.
    pub stationary: u64,
    /// Streaming-phase cycles.
    pub streaming: u64,
    /// Merging-phase cycles.
    pub merging: u64,
    /// STR cache hits.
    pub cache_hits: u64,
    /// STR cache accesses.
    pub cache_accesses: u64,
    /// PSRAM elements spilled to DRAM.
    pub spilled: u64,
    /// DRAM bytes read and written.
    pub dram_bytes: u64,
    /// MRN merge passes.
    pub merge_passes: u64,
    /// MRN additions.
    pub additions: u64,
    /// Explicit operand conversions (Table 4's EC).
    pub explicit_conversions: u64,
}

impl SimTally {
    /// Adds one report.
    pub fn add(&mut self, r: &ExecutionReport) {
        self.jobs += 1;
        self.cycles += r.total_cycles;
        self.stationary += r.phases.of(Phase::Stationary);
        self.streaming += r.phases.of(Phase::Streaming);
        self.merging += r.phases.of(Phase::Merging);
        self.cache_hits += r.cache.hits();
        self.cache_accesses += r.cache.total();
        self.spilled += r.psram.spilled_elements;
        self.dram_bytes += r.offchip_bytes();
        self.merge_passes += r.counters.get("mrn.merge_passes");
        self.additions += r.counters.get("mrn.additions");
        self.explicit_conversions += u64::from(r.explicit_conversions);
    }

    /// Mean simulated cycles per report.
    pub fn cycles_per_job(&self) -> f64 {
        self.cycles as f64 / self.jobs.max(1) as f64
    }

    /// The per-layer simulated-component metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let hit_ratio = self.cache_hits as f64 / self.cache_accesses.max(1) as f64;
        vec![
            metric("sim.stationary_cycles", self.stationary as f64, "cycles"),
            metric("sim.streaming_cycles", self.streaming as f64, "cycles"),
            metric("sim.merging_cycles", self.merging as f64, "cycles"),
            metric("mem.str_cache.hit_ratio", hit_ratio, "ratio"),
            metric("mem.psram.spilled_elements", self.spilled as f64, "count"),
            metric("mem.dram.bytes", self.dram_bytes as f64, "bytes"),
            metric("noc.mrn.merge_passes", self.merge_passes as f64, "count"),
            metric("noc.mrn.additions", self.additions as f64, "count"),
            metric(
                "core.engine.explicit_conversions",
                self.explicit_conversions as f64,
                "count",
            ),
        ]
    }
}

/// The run environment, recorded with every result.
pub fn environment(workload: &str, seed: u64) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    vec![
        ("workload", workload.to_owned()),
        ("seed", seed.to_string()),
        ("nproc", crate::nproc().to_string()),
        ("cpu", cpu),
        ("rustc", env!("PERFBENCH_RUSTC").to_owned()),
        ("commit", git_commit()),
        ("serve_rate_rps", crate::serve::RATE_RPS.to_string()),
        ("latency_limit_ms", crate::serve::LIMIT_MS.to_string()),
        ("default_seed", crate::DEFAULT_SEED.to_string()),
        ("held_out_seed", crate::HELD_OUT_SEED.to_string()),
    ]
}

/// The checked-out commit, read from `.git` when the benchmark runs inside
/// a git checkout, else `"unknown"`.
fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned()),
        None => head,
    }
}

/// A JSON number for `v` with all its digits (`null` if not finite).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Escapes a string for a JSON literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
