//! Dumps full execution reports and outputs for a fixed workload matrix as
//! JSON — the regression golden for "perf work must not change semantics".
//!
//! Usage: `golden_reports > golden.json`. Two builds of the simulator are
//! functionally and timing-model equivalent iff their outputs are
//! byte-identical: the dump covers every field of
//! [`ExecutionReport`](flexagon_core::ExecutionReport)
//! (cycles, per-phase clocks, traffic, cache stats, counters) plus the
//! functional output matrix for all six dataflows and the CPU MKL baseline
//! over a spread of shapes and sparsities (the corpus in
//! [`flexagon_bench::golden`]).
//!
//! `golden_reports --digests` prints one FNV-1a digest per case instead,
//! in the format of the checked-in `crates/bench/golden_digests.txt` that
//! tier-1 tests assert against.
//!
//! `FLEXAGON_SHARD_GRAIN` / `FLEXAGON_SHARD_WORKERS` configure the
//! intra-layer sharded engine, which is how the parallel determinism
//! guarantee is verified end to end: with a fixed grain, dumps at worker
//! counts 1, 2 and 4 must be byte-identical (`cmp` them).

use flexagon_bench::golden;
use flexagon_core::{AcceleratorConfig, Flexagon};

fn env_knob(name: &str) -> Option<usize> {
    std::env::var(name).ok().map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{name}: '{v}' is not a count"))
    })
}

fn main() {
    let digests = match std::env::args().nth(1).as_deref() {
        None => false,
        Some("--digests") => true,
        Some(other) => panic!("unknown argument '{other}' (usage: golden_reports [--digests])"),
    };
    let mut cfg = AcceleratorConfig::table5();
    cfg.engine = cfg.engine.sharded(
        env_knob("FLEXAGON_SHARD_GRAIN").unwrap_or(0),
        env_knob("FLEXAGON_SHARD_WORKERS").unwrap_or(1),
    );
    let cases = golden::run(&Flexagon::new(cfg));
    if digests {
        print!("{}", golden::digest_lines(&cases));
        return;
    }
    let body: Vec<String> = cases
        .iter()
        .map(|c| {
            format!(
                "{{\"case\": \"{}\", \"report\": {}, \"c\": {}}}",
                c.label, c.report, c.c
            )
        })
        .collect();
    println!("[");
    println!("{}", body.join(",\n"));
    println!("]");
}
