//! `spgemm_cli` on bad input: every case exits with status 2 and prints
//! one `spgemm_cli: <reason>` line naming the offending token or path,
//! followed by the usage. No case gets as far as a simulation.

use std::path::{Path, PathBuf};
use std::process::Command;

const MTX_HEADER: &str = "%%MatrixMarket matrix coordinate real general\n";

/// Writes the fixtures into a directory of the test target dir, one per
/// test so parallel tests never rewrite a file another is reading: a 4x5
/// and a 3x4 matrix (valid files whose product is undefined) and a file
/// that is not Matrix Market at all.
fn fixtures(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("spgemm_cli_{test}"));
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    let files = [
        ("a.mtx", format!("{MTX_HEADER}4 5 2\n1 1 1.0\n4 5 2.0\n")),
        ("b.mtx", format!("{MTX_HEADER}3 4 2\n1 1 1.0\n3 4 2.0\n")),
        ("bad.mtx", "not a matrix market file\n".to_owned()),
    ];
    for (name, text) in files {
        std::fs::write(dir.join(name), text).expect("write fixture");
    }
    dir
}

/// Runs the CLI and returns its `spgemm_cli: ...` reason line, after
/// checking the exit status and that the usage follows the reason.
fn reason(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_spgemm_cli"))
        .args(args)
        .output()
        .expect("spawn spgemm_cli");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    let mut lines = stderr.lines();
    let first = lines.next().unwrap_or_default().to_owned();
    assert!(first.starts_with("spgemm_cli: "), "{args:?}: {stderr}");
    assert!(
        lines.next().is_some_and(|l| l.starts_with("usage: ")),
        "{args:?}: no usage after the reason: {stderr}"
    );
    first
}

#[test]
fn unknown_tokens_exit_2_naming_the_token() {
    for (args, token) in [
        (&["rmat", "4", "10", "--format", "csr5"][..], "'csr5'"),
        (&["rmat", "4", "10", "heuristic@csr5"][..], "'csr5'"),
        (&["rmat", "4", "10", "--format", "auto"][..], "'auto'"),
        (&["rmat", "4", "10", "heuristic@auto"][..], "'auto'"),
        (&["rmat", "4", "10", "fastest"][..], "'fastest'"),
        (&["rmat", "4", "10", "--format"][..], "--format"),
        (&["matmul", "4", "10"][..], "'matmul'"),
    ] {
        let line = reason(args);
        assert!(line.contains(token), "{args:?}: {line}");
    }
}

#[test]
fn missing_or_malformed_arguments_exit_2_naming_the_argument() {
    for (args, token) in [
        (&["mtx", "a.mtx"][..], "<b.mtx>"),
        (&["rmat", "4"][..], "<edges>"),
        (&[][..], "mode"),
        (&["rmat", "x4", "10"][..], "'x4'"),
        (&["rmat", "4", "many"][..], "'many'"),
        (&["rmat", "31", "10"][..], "'31'"),
    ] {
        let line = reason(args);
        assert!(line.contains(token), "{args:?}: {line}");
    }
}

#[test]
fn unreadable_matrix_files_exit_2_naming_the_path() {
    let dir = fixtures("files");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_owned();
    let (a, bad, missing) = (path("a.mtx"), path("bad.mtx"), path("missing.mtx"));
    for (args, culprit) in [
        ([a.as_str(), missing.as_str()], &missing),
        ([bad.as_str(), a.as_str()], &bad),
    ] {
        let line = reason(&["mtx", args[0], args[1]]);
        assert!(line.contains(culprit.as_str()), "{args:?}: {line}");
    }
}

#[test]
fn mismatched_operands_exit_2_naming_the_dimensions() {
    let dir = fixtures("dimensions");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_owned();
    let line = reason(&["mtx", &path("a.mtx"), &path("b.mtx"), "heuristic@q8"]);
    assert!(
        line.contains("5 columns") && line.contains("3 rows"),
        "{line}"
    );
}
