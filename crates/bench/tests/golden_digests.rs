//! Pins the golden corpus across builds: every case's FNV-1a digest
//! (report JSON plus output JSON) must match the checked-in
//! `golden_digests.txt`. A deliberate change to the cycle model or the
//! outputs regenerates that file with `golden_reports --digests`.

use flexagon_bench::golden;
use flexagon_core::Flexagon;

const CHECKED_IN: &str = include_str!("../golden_digests.txt");

#[test]
fn golden_corpus_matches_checked_in_digests() {
    let actual = golden::digest_lines(&golden::run(&Flexagon::with_defaults()));
    let drifted: Vec<String> = CHECKED_IN
        .lines()
        .zip(actual.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  want {want}\n  got  {got}"))
        .collect();
    assert!(
        drifted.is_empty() && CHECKED_IN.lines().count() == actual.lines().count(),
        "golden corpus drifted from golden_digests.txt ({} of {} cases):\n{}",
        drifted.len(),
        CHECKED_IN.lines().count(),
        drifted.join("\n")
    );
}
