//! The reproduction's section registry against the checked-in report.
//!
//! `repro_report.txt` is the full `repro_all` output, pinned across
//! changes like `golden_digests.txt`: a deliberate model change
//! regenerates it (`repro_all` writes `results/repro_report.txt`) in the
//! same change. These tests render only the sections that simulate
//! nothing, so they stay fast in a debug build; CI compares the whole
//! report from a release build.

use flexagon_bench::repro::{banner, Inputs, Section, SECTIONS};

const REPORT: &str = include_str!("../repro_report.txt");

/// The report split at its banners into `(name, text)` blocks, in order.
fn blocks() -> Vec<(&'static str, &'static str)> {
    let rule = "=".repeat(72);
    let marker = format!("\n{rule}\n== ");
    let mut pieces = REPORT.split(marker.as_str());
    assert_eq!(pieces.next(), Some(""), "the report starts with a banner");
    pieces
        .map(|piece| {
            let (name, rest) = piece.split_once('\n').expect("banner name line");
            let text = rest
                .strip_prefix(rule.as_str())
                .and_then(|t| t.strip_prefix('\n'))
                .expect("banner closing rule");
            (name, text)
        })
        .collect()
}

#[test]
fn section_names_are_unique_and_match_the_report_banners() {
    let names: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
    for (i, name) in names.iter().enumerate() {
        assert!(!names[..i].contains(name), "duplicate section {name}");
    }
    let blocks = blocks();
    let banners: Vec<&str> = blocks.iter().map(|&(name, _)| name).collect();
    assert_eq!(names, banners);
    let rebuilt: String = blocks
        .iter()
        .map(|&(name, text)| banner(name) + text)
        .collect();
    assert_eq!(rebuilt, REPORT, "banner() is the report's banner format");
}

#[test]
fn sections_without_simulation_render_byte_identical_to_the_report() {
    let inputs = Inputs::default();
    let blocks = blocks();
    for name in [
        "table3_taxonomy",
        "table4_transitions",
        "table8_area_power",
        "fig17_naive_design",
    ] {
        let (_, expected) = blocks
            .iter()
            .find(|&&(n, _)| n == name)
            .expect("section in the report");
        let section = Section::find(name).expect("registered section");
        assert_eq!(section.render(&inputs), *expected, "{name}");
    }
}

#[test]
fn unknown_section_is_an_error() {
    let err = Section::find("fig99_missing").expect_err("no such section");
    let message = err.to_string();
    assert!(message.contains("fig99_missing"), "{message}");
    for section in &SECTIONS {
        assert!(message.contains(section.name), "{message}");
    }
}
