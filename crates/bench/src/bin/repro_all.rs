//! The paper reproduction: renders the sections of
//! [`flexagon_bench::repro`] in one process, sharing one suite pass and one
//! Table 6 pass between them.
//!
//! With no arguments it writes every section, each under its banner, to
//! `results/repro_report.txt` and to stdout. With section names as
//! arguments it prints only those sections' text and writes no file; an
//! unknown name exits with status 2 and lists the valid names. Host
//! seconds per section and per simulation pass go to stderr; a section's
//! time includes any pass it was the first to need.
//!
//! Run with `cargo run --release -p flexagon-bench --bin repro_all
//! [section...]`.

use std::time::Instant;

use flexagon_bench::repro::{banner, Inputs, Section, SECTIONS};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let full = names.is_empty();
    let sections: Vec<&Section> = if full {
        SECTIONS.iter().collect()
    } else {
        match names.iter().map(|name| Section::find(name)).collect() {
            Ok(sections) => sections,
            Err(err) => {
                eprintln!("{err}");
                std::process::exit(2);
            }
        }
    };

    let inputs = Inputs::default();
    let mut report = String::new();
    for section in sections {
        let start = Instant::now();
        let mut text = if full {
            banner(section.name)
        } else {
            String::new()
        };
        text.push_str(&section.render(&inputs));
        eprintln!("{}: {:.1} s", section.name, start.elapsed().as_secs_f64());
        print!("{text}");
        report.push_str(&text);
    }
    if full {
        std::fs::create_dir_all("results").expect("create results dir");
        std::fs::write("results/repro_report.txt", &report).expect("write report");
        println!();
        println!("\nCombined report written to results/repro_report.txt");
    }
}
