//! Regression guard: the workspace must stay lint-clean.
//!
//! Two assertions hold the line: a fresh in-process run over the live
//! sources must produce zero unannotated findings, and the committed
//! `lint-report.json` snapshot must equal that run's report byte for
//! byte — so a PR that introduces a violation *or* quietly regenerates
//! the report with findings in it fails `cargo test` even before the CI
//! lint job runs.

use wakurln_lint::{lint_workspace, workspace_root};

#[test]
fn workspace_has_zero_unannotated_findings() {
    let root = workspace_root();
    let report = lint_workspace(&root).expect("walk workspace");
    let unannotated: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        unannotated.is_empty(),
        "workspace lint regressions (fix or add a reasoned lint:allow):\n{}",
        unannotated.join("\n")
    );
}

#[test]
fn suppression_inventory_matches_committed_report() {
    // The committed snapshot must be the report of the live tree, byte for
    // byte — the same comparison as CI's "Committed lint report is
    // current" diff, so files, markers and line numbers cannot drift
    // without regenerating.
    let root = workspace_root();
    let report = lint_workspace(&root).expect("walk workspace");
    let committed =
        std::fs::read_to_string(root.join("lint-report.json")).expect("committed report");
    assert_eq!(
        report.to_json(),
        committed,
        "committed lint-report.json is stale: regenerate it with \
         `cargo run -p wakurln-lint -- --json lint-report.json`"
    );
}
