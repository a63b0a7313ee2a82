//! End-to-end lint checks: the seeded violation fixture must produce
//! exactly the expected `file:line: [rule]` diagnostics (through both the
//! library API and the binary, with its documented exit codes), and the
//! real workspace must be clean.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn repo_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

#[test]
fn fixture_violations_are_reported_with_file_and_line() {
    let diags = xtask::lint_workspace(&fixture_root()).expect("fixture lints");
    let got: Vec<(String, usize, &str)> = diags
        .iter()
        .map(|d| (d.path.to_string_lossy().replace('\\', "/"), d.line, d.rule))
        .collect();
    let expected: Vec<(String, usize, &str)> = vec![
        ("crates/policies/src/bad_order.rs".into(), 4, "hot-map"),
        ("crates/runtime/src/bad.rs".into(), 1, "sync-import"),
        ("crates/runtime/src/bad.rs".into(), 2, "sync-import"),
        ("crates/runtime/src/bad.rs".into(), 5, "panic"),
        ("crates/runtime/src/bad.rs".into(), 15, "hot-instant"),
        ("crates/runtime/src/bad.rs".into(), 16, "hot-alloc"),
        ("crates/runtime/src/bad.rs".into(), 21, "hot-alloc"),
        ("crates/runtime/src/bad.rs".into(), 22, "hot-alloc"),
        ("crates/sim/src/bad_unsafe.rs".into(), 2, "unsafe-doc"),
    ];
    assert_eq!(got, expected, "full diagnostics: {diags:#?}");
}

#[test]
fn shared_pointer_constructors_are_hot_path_allocations() {
    let diags = xtask::lint_workspace(&fixture_root()).expect("fixture lints");
    let shown: Vec<String> = diags
        .iter()
        .map(|d| d.to_string().replace('\\', "/"))
        .filter(|d| d.contains("`Arc::new`") || d.contains("`Rc::new`"))
        .collect();
    assert_eq!(shown.len(), 2, "{shown:#?}");
    assert!(
        shown[0].starts_with("crates/runtime/src/bad.rs:21: [hot-alloc] `Arc::new` inside"),
        "{}",
        shown[0]
    );
    assert!(
        shown[1].starts_with("crates/runtime/src/bad.rs:22: [hot-alloc] `Rc::new` inside"),
        "{}",
        shown[1]
    );
}

#[test]
fn waived_and_test_code_violations_stay_silent() {
    let diags = xtask::lint_workspace(&fixture_root()).expect("fixture lints");
    assert!(
        !diags
            .iter()
            .any(|d| d.line == 10 && d.path.to_string_lossy().ends_with("bad.rs")),
        "waived unwrap must not be reported"
    );
    assert!(
        !diags
            .iter()
            .any(|d| d.path.to_string_lossy().ends_with("stressy.rs")),
        "tests/ files are exempt from panic and sync-import rules"
    );
    assert!(
        !diags
            .iter()
            .any(|d| d.line == 6 && d.path.to_string_lossy().ends_with("bad_unsafe.rs")),
        "SAFETY-documented unsafe must not be reported"
    );
}

#[test]
fn binary_exits_one_on_fixture_and_zero_on_workspace() {
    let bin = env!("CARGO_BIN_EXE_xtask");

    let bad = Command::new(bin)
        .args(["lint", "--root"])
        .arg(fixture_root())
        .output()
        .expect("run xtask");
    assert_eq!(bad.status.code(), Some(1), "violations exit 1");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(
        stdout.contains("crates/runtime/src/bad.rs:5: [panic]"),
        "diagnostics carry file:line: {stdout}"
    );

    let good = Command::new(bin)
        .args(["lint", "--root"])
        .arg(repo_root())
        .output()
        .expect("run xtask");
    let stdout = String::from_utf8_lossy(&good.stdout);
    assert_eq!(good.status.code(), Some(0), "clean tree exits 0: {stdout}");

    let usage = Command::new(bin).output().expect("run xtask");
    assert_eq!(usage.status.code(), Some(2), "usage error exits 2");
}

#[test]
fn real_workspace_is_lint_clean() {
    let diags = xtask::lint_workspace(&repo_root()).expect("workspace lints");
    assert!(
        diags.is_empty(),
        "workspace must stay lint-clean: {diags:#?}"
    );
}
