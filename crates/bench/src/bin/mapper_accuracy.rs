//! Mapper-accuracy report: audits the calibrated heuristic mapper against
//! the oracle over the DNN suite and the generator scenario sweep, and
//! (with `--check`) gates the numbers against the recorded floor in
//! `MAPPER_accuracy.json` — the CI `mapper-accuracy` job's guard.
//!
//! For every case, the three M-stationary dataflows are simulated once on
//! the Table 5 Flexagon; *top-1 agreement* is the fraction of cases where
//! the heuristic's feature-only pick costs nothing (same cycles as the
//! oracle's winner, so measured ties count), and *cycle regret* is
//! `picked_cycles / best_cycles`. The nine Table 6 representative layers
//! are reported individually alongside their published dataflow groups.
//!
//! Usage: `mapper_accuracy [--smoke] [--json <out.json>] [--check <MAPPER_accuracy.json>]`
//!
//! * `--smoke`  stride-sampled DNN layers (CI budget); full sweep otherwise.
//! * `--json`   write per-case rows and aggregates as JSON.
//! * `--check`  compare against the recorded thresholds; non-zero exit on
//!   a floor violation.

use flexagon_bench::mapper::{dnn_cases, evaluate_all, evaluate_case, scenario_cases};
use flexagon_bench::render::{pct, table};
use flexagon_bench::DEFAULT_SEED;
use flexagon_core::{AcceleratorConfig, Flexagon};
use flexagon_dnn::{table6, AgreementStats};
use std::io::Write;
use std::process::ExitCode;

/// One gate of the recorded thresholds file.
#[derive(Debug)]
struct Gate {
    min_top1_percent: f64,
    max_geomean_regret: f64,
}

impl serde::Deserialize for Gate {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::DeError::new("expected an object for Gate"))?;
        Ok(Self {
            min_top1_percent: serde::Deserialize::from_value(serde::map_get(
                m,
                "min_top1_percent",
            )?)?,
            max_geomean_regret: serde::Deserialize::from_value(serde::map_get(
                m,
                "max_geomean_regret",
            )?)?,
        })
    }
}

/// The recorded thresholds file (`MAPPER_accuracy.json`): only the
/// `thresholds.{smoke,full}` dataflow gates are read; the recorded results
/// and notes alongside them are documentation.
struct Thresholds {
    smoke: Gate,
    full: Gate,
}

impl serde::Deserialize for Thresholds {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let top = v
            .as_map()
            .ok_or_else(|| serde::DeError::new("expected an object for the thresholds file"))?;
        let by_mode = serde::map_get(top, "thresholds")?
            .as_map()
            .ok_or_else(|| serde::DeError::new("expected an object for thresholds"))?;
        Ok(Self {
            smoke: serde::Deserialize::from_value(serde::map_get(by_mode, "smoke")?)?,
            full: serde::Deserialize::from_value(serde::map_get(by_mode, "full")?)?,
        })
    }
}

fn load_thresholds(path: &str) -> Thresholds {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn stats_row(name: &str, s: &AgreementStats) -> Vec<String> {
    vec![
        name.to_string(),
        s.cases.to_string(),
        pct(s.top1_fraction()),
        format!("{:.4}x", s.geomean_regret()),
        format!("{:.3}x", s.max_regret()),
        s.worst_case().unwrap_or("-").to_string(),
    ]
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mode = if smoke { "smoke" } else { "full" };
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{flag} needs a path"))
                .clone()
        })
    };

    let cfg = AcceleratorConfig::table5();
    let mut cases = dnn_cases(DEFAULT_SEED, smoke);
    cases.extend(scenario_cases(DEFAULT_SEED));
    eprintln!(
        "auditing {} cases x 3 dataflows ({mode} sweep, table5 config)...",
        cases.len()
    );
    let outcomes = evaluate_all(&cfg, &cases);
    let (groups, overall) = flexagon_bench::mapper::aggregate(&outcomes);

    println!("Mapper accuracy — calibrated heuristic vs oracle ({mode} sweep)\n");
    let mut rows: Vec<Vec<String>> = groups.iter().map(|(g, s)| stats_row(g, s)).collect();
    rows.push(stats_row("OVERALL", &overall));
    println!(
        "{}",
        table(
            &[
                "group",
                "cases",
                "top-1",
                "geomean regret",
                "max regret",
                "worst case"
            ],
            &rows
        )
    );

    // Every disagreement that actually cost cycles, worst first.
    let mut misses: Vec<_> = outcomes.iter().filter(|o| !o.agrees()).collect();
    misses.sort_by(|a, b| b.regret().partial_cmp(&a.regret()).expect("finite regret"));
    if misses.is_empty() {
        println!("no costly disagreements.\n");
    } else {
        let rows: Vec<Vec<String>> = misses
            .iter()
            .map(|o| {
                vec![
                    o.label.clone(),
                    o.oracle.to_string(),
                    o.predicted.to_string(),
                    format!("{:.3}x", o.regret()),
                ]
            })
            .collect();
        println!(
            "{} costly disagreement(s):\n{}",
            misses.len(),
            table(&["case", "oracle", "heuristic", "regret"], &rows)
        );
    }

    // The Table 6 representative layers, individually (the paper's named
    // per-dataflow-group exemplars; materialized at the harness seed).
    let accel = Flexagon::new(cfg);
    let t6_rows: Vec<Vec<String>> = table6::layers()
        .iter()
        .map(|layer| {
            let mats = layer.spec.materialize(DEFAULT_SEED);
            let out = evaluate_case(
                &accel,
                &flexagon_bench::mapper::AccuracyCase {
                    group: "table6".into(),
                    label: layer.id.to_string(),
                    a: mats.a,
                    b: mats.b,
                },
            );
            vec![
                layer.id.to_string(),
                layer.favours.short_name().to_string(),
                out.oracle.to_string(),
                out.predicted.to_string(),
                if out.agrees() {
                    "yes".into()
                } else {
                    format!("{:.3}x", out.regret())
                },
            ]
        })
        .collect();
    println!(
        "Table 6 representative layers:\n{}",
        table(
            &["layer", "paper favours", "oracle", "heuristic", "agrees"],
            &t6_rows
        )
    );

    if let Some(path) = flag_value("--json") {
        let mut file =
            std::fs::File::create(&path).unwrap_or_else(|e| panic!("create {path}: {e}"));
        writeln!(file, "{{\"mode\": \"{mode}\", \"cases\": [").expect("write json");
        for (i, o) in outcomes.iter().enumerate() {
            writeln!(
                file,
                "  {{\"label\": {}, \"oracle\": {}, \"heuristic\": {}, \"regret\": {:.6}}}{}",
                serde_json::to_string(&o.label).expect("label"),
                serde_json::to_string(&o.oracle).expect("dataflow"),
                serde_json::to_string(&o.predicted).expect("dataflow"),
                o.regret(),
                if i + 1 == outcomes.len() { "" } else { "," },
            )
            .expect("write json");
        }
        writeln!(
            file,
            "], \"top1_percent\": {:.4}, \"geomean_regret\": {:.6}, \"max_regret\": {:.6}}}",
            100.0 * overall.top1_fraction(),
            overall.geomean_regret(),
            overall.max_regret(),
        )
        .expect("write json");
        eprintln!("wrote per-case results to {path}");
    }

    if let Some(path) = flag_value("--check") {
        let thresholds = load_thresholds(&path);
        let gate = if smoke {
            thresholds.smoke
        } else {
            thresholds.full
        };
        let top1 = 100.0 * overall.top1_fraction();
        let regret = overall.geomean_regret();
        println!(
            "gate ({mode}): top-1 {top1:.2}% (floor {:.2}%), geomean regret {regret:.4}x (ceiling {:.2}x)",
            gate.min_top1_percent, gate.max_geomean_regret
        );
        let mut failed = false;
        if top1 < gate.min_top1_percent {
            eprintln!(
                "mapper_accuracy: top-1 agreement {top1:.2}% fell below the recorded floor \
                 {:.2}% — recalibrate (mapper_calibrate) or update {path}",
                gate.min_top1_percent
            );
            failed = true;
        }
        if regret > gate.max_geomean_regret {
            eprintln!(
                "mapper_accuracy: geomean regret {regret:.4}x exceeds {:.2}x — recalibrate \
                 (mapper_calibrate) or update {path}",
                gate.max_geomean_regret
            );
            failed = true;
        }
        if failed {
            return ExitCode::FAILURE;
        }
        println!("mapper_accuracy: floor held");
    }
    ExitCode::SUCCESS
}
