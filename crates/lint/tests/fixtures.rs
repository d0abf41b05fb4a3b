//! Fixture corpus: every rule must fire on its known-bad snippet at the
//! exact expected lines (`//~ <rule>` trailing comments) and stay silent
//! on the allowed/suppressed variant.

use std::collections::BTreeSet;
use std::path::PathBuf;
use wakurln_lint::config::FileClass;
use wakurln_lint::rules::lint_source;

fn fixture(name: &str) -> (String, String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {name}: {e}"));
    (name.to_string(), src)
}

/// `//~ <rule>` comments name the rule expected to fire on that line.
fn expectations(src: &str) -> BTreeSet<(u32, String)> {
    let mut out = BTreeSet::new();
    for (i, line) in src.lines().enumerate() {
        if let Some(at) = line.find("//~") {
            let rule = line[at + 3..].split_whitespace().next().unwrap_or("");
            assert!(!rule.is_empty(), "empty //~ expectation on line {}", i + 1);
            out.insert((i as u32 + 1, rule.to_string()));
        }
    }
    out
}

fn check_bad(name: &str) {
    let (name, src) = fixture(name);
    let expected = expectations(&src);
    assert!(
        !expected.is_empty(),
        "{name}: bad fixture carries no //~ expectations"
    );
    let findings = lint_source(&name, FileClass::DETERMINISTIC_LIBRARY, &src);
    let got: BTreeSet<(u32, String)> = findings
        .iter()
        .filter(|f| f.allowed.is_none())
        .map(|f| (f.line, f.rule.to_string()))
        .collect();
    assert_eq!(
        got, expected,
        "{name}: findings (left) do not match //~ expectations (right)"
    );
}

fn check_allowed(name: &str) {
    let (name, src) = fixture(name);
    let findings = lint_source(&name, FileClass::DETERMINISTIC_LIBRARY, &src);
    let unannotated: Vec<_> = findings.iter().filter(|f| f.allowed.is_none()).collect();
    assert!(
        unannotated.is_empty(),
        "{name}: expected a clean fixture, got findings: {unannotated:?}"
    );
    let markers = src.matches("lint:allow(").count();
    let suppressed = findings.iter().filter(|f| f.allowed.is_some()).count();
    assert_eq!(
        suppressed, markers,
        "{name}: every lint:allow marker must suppress exactly one finding \
         (markers: {markers}, suppressed: {suppressed})"
    );
}

#[test]
fn map_iteration_fires_and_suppresses() {
    check_bad("map_iteration_bad.rs");
    check_allowed("map_iteration_allowed.rs");
}

/// A `#[cfg(test)]` field hides only itself: the impl and function
/// after it are still checked.
#[test]
fn cfg_test_field_ends_at_its_comma() {
    check_bad("cfg_test_field_bad.rs");
}

#[test]
fn host_time_fires_and_suppresses() {
    check_bad("host_time_bad.rs");
    check_allowed("host_time_allowed.rs");
}

#[test]
fn rng_in_branch_fires_and_suppresses() {
    check_bad("rng_branch_bad.rs");
    check_allowed("rng_branch_allowed.rs");
}

#[test]
fn unsafe_audit_fires_and_safety_comments_suppress() {
    check_bad("unsafe_bad.rs");
    check_allowed("unsafe_allowed.rs");
}

#[test]
fn panic_path_fires_and_suppresses() {
    check_bad("panic_path_bad.rs");
    check_allowed("panic_path_allowed.rs");
}

#[test]
fn malformed_markers_are_findings() {
    check_bad("bad_marker.rs");
}

#[test]
fn host_side_class_disables_determinism_rules() {
    let (_, src) = fixture("host_time_bad.rs");
    let findings = lint_source("host_time_bad.rs", FileClass::HOST_SIDE, &src);
    assert!(
        findings.iter().all(|f| f.rule != "host-time"),
        "host-side files may read the wall clock"
    );
}

#[test]
fn non_library_class_disables_panic_path() {
    let (_, src) = fixture("panic_path_bad.rs");
    let findings = lint_source("panic_path_bad.rs", FileClass::HOST_SIDE, &src);
    assert!(
        findings.iter().all(|f| f.rule != "panic-path"),
        "host-side files may unwrap"
    );
}
