//! General-purpose SpMSpM runner: multiply two Matrix Market files — or a
//! synthetic R-MAT graph by itself — on any accelerator and mapping
//! strategy, and print the full cycle/traffic/energy report.
//!
//! Usage:
//!   `spgemm_cli mtx <a.mtx> <b.mtx> [strategy] [--format F]`
//!   `spgemm_cli rmat <scale> <edges> [strategy] [--format F]`
//!   `spgemm_cli help`
//!
//! `strategy` is `oracle` (alias `auto`; sweep all six dataflows and keep
//! the best — the default), `heuristic` (one run, dataflow picked by the
//! calibrated cost model — the production fast path), or a fixed dataflow
//! token: ip-m, op-m, gust-m, ip-n, op-n, gust-n.
//!
//! The storage format is pinned like the dataflow: either with `--format`
//! (`soa`, `bcsr4`, `bcsr8`, `ell`, `q8`) or inline as a `strategy@format`
//! spec (`heuristic@bcsr4`). Omitted, the configured default applies. The
//! lossless `bcsr4`, `bcsr8` and `ell` are labels that change no number;
//! `q8` quantizes both operands once.
//!
//! Bad input (an unknown token, a missing argument, an unreadable file,
//! operands whose dimensions disagree) prints one `spgemm_cli: <reason>`
//! line plus the usage to stderr and exits with status 2.

use flexagon_core::{Accelerator, ExecutionRequest, Flexagon, FormatChoice, MappingStrategy};
use flexagon_rtl::energy::{average_power_mw, energy_of, EnergyParams};
use flexagon_sparse::{gen, io, CompressedMatrix, MajorOrder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fs::File;
use std::io::BufReader;

const USAGE: &str = "usage: spgemm_cli mtx <a.mtx> <b.mtx> [strategy] [--format F] \
     | rmat <scale> <edges> [strategy] [--format F]\n\
     strategy: oracle (default) | heuristic | ip-m | op-m | gust-m | ip-n | op-n | gust-n\n\
     format:   soa | bcsr4 | bcsr8 | ell | q8 (also inline: strategy@format)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("help") {
        println!("{USAGE}");
        return;
    }
    if let Err(reason) = run(args) {
        eprintln!("spgemm_cli: {reason}\n{USAGE}");
        std::process::exit(2);
    }
}

fn number<T: std::str::FromStr>(name: &str, text: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse()
        .map_err(|e| format!("invalid {name} '{text}': {e}"))
}

fn load_mtx(path: &str) -> Result<CompressedMatrix, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    io::read_matrix_market(BufReader::new(file), MajorOrder::Row)
        .map_err(|e| format!("cannot parse {path}: {e}"))
}

fn run(mut args: Vec<String>) -> Result<(), String> {
    // `--format` may appear anywhere; strip it before positional parsing.
    let mut format_flag: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--format") {
        args.remove(i);
        if i == args.len() {
            return Err("missing value after --format".to_owned());
        }
        format_flag = Some(args.remove(i));
    }
    let (x_name, y_name) = match args.first().map(String::as_str) {
        Some("mtx") => ("<a.mtx>", "<b.mtx>"),
        Some("rmat") => ("<scale>", "<edges>"),
        Some(other) => return Err(format!("unknown mode '{other}' (expected mtx or rmat)")),
        None => return Err("missing mode (mtx or rmat)".to_owned()),
    };
    let missing = |name: &str| format!("missing argument {name}");
    let x = args.get(1).ok_or_else(|| missing(x_name))?;
    let y = args.get(2).ok_or_else(|| missing(y_name))?;
    let (strategy, mut format) =
        MappingStrategy::parse_spec(args.get(3).map_or("oracle", String::as_str))?;
    if let Some(f) = format_flag {
        format = f.parse()?;
    }
    let (a, b) = if args[0] == "mtx" {
        (load_mtx(x)?, load_mtx(y)?)
    } else {
        let scale: u32 = number(x_name, x)?;
        if scale >= 31 {
            return Err(format!("invalid {x_name} '{x}': must be below 31"));
        }
        let edges: usize = number(y_name, y)?;
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // Squaring an R-MAT graph: the canonical SpGEMM graph kernel
        // (two-hop neighbourhoods).
        let g = gen::rmat(
            scale,
            edges,
            (0.57, 0.19, 0.19, 0.05),
            MajorOrder::Row,
            &mut rng,
        );
        (g.clone(), g)
    };
    println!(
        "A: {}x{} nnz {} ({:.2}% sparse)  B: {}x{} nnz {} ({:.2}% sparse)",
        a.rows(),
        a.cols(),
        a.nnz(),
        a.sparsity_percent(),
        b.rows(),
        b.cols(),
        b.nnz(),
        b.sparsity_percent()
    );

    let ex = Flexagon::with_defaults()
        .execute(
            ExecutionRequest::new(&a, &b)
                .strategy(strategy)
                .format_choice(format),
        )
        .map_err(|e| e.to_string())?;
    let (df, out) = (ex.dataflow, ex.output);
    match strategy {
        MappingStrategy::Fixed(_) => {}
        _ => println!("{strategy} selected dataflow: {df}"),
    }
    if format != FormatChoice::Config {
        println!("{format} selected storage format: {}", ex.format);
    }
    let r = &out.report;
    println!("\n== report ({df}) ==");
    println!("cycles            {:>14}", r.total_cycles);
    println!(
        "  stationary      {:>14}",
        r.phases.of(flexagon_sim::Phase::Stationary)
    );
    println!(
        "  streaming       {:>14}",
        r.phases.of(flexagon_sim::Phase::Streaming)
    );
    println!(
        "  merging         {:>14}",
        r.phases.of(flexagon_sim::Phase::Merging)
    );
    println!("tiles             {:>14}", r.tiles);
    println!("multiplications   {:>14}", r.multiplications);
    println!("output nnz        {:>14}", out.c.nnz());
    println!("cache miss rate   {:>13.2}%", 100.0 * r.cache.miss_rate());
    println!(
        "on-chip traffic   {:>11.2} MiB",
        r.onchip_bytes() as f64 / (1 << 20) as f64
    );
    println!(
        "off-chip traffic  {:>11.2} MiB",
        r.offchip_bytes() as f64 / (1 << 20) as f64
    );
    let e = energy_of(r, &EnergyParams::default());
    println!("energy            {:>11.2} uJ", e.total_uj());
    println!("  on-chip share   {:>13.1}%", 100.0 * e.onchip_fraction());
    println!(
        "avg power         {:>11.1} mW @ 800 MHz",
        average_power_mw(&e, r.total_cycles, 800e6)
    );
    Ok(())
}
