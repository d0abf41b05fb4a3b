//! Which contract applies where.
//!
//! The rules are not uniform across the tree: the determinism contract
//! (docs/ARCHITECTURE.md) binds the simulation crates whose state feeds
//! `ScenarioReport` bytes, while the bench/compat/CLI layers are
//! explicitly host-side and *measure* wall-clock on purpose. This module
//! encodes that map so the rule set can be strict without drowning in
//! allow markers. Changes here are contract changes — mirror them in
//! docs/LINT.md.

use std::path::Path;

/// How a source file participates in the workspace contracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Determinism rules apply: `map-iteration`, `host-time`,
    /// `rng-in-branch`. True for the simulation/protocol crates' library
    /// code — everything whose execution order or state can reach a
    /// `ScenarioReport`, checkpoint fingerprint, or trace replay.
    pub deterministic: bool,
    /// Panic-path rule applies: library (non-test, non-bin) code on the
    /// relay/validator paths must stay total.
    pub library: bool,
    /// Whether the file is lint-checked at all (false for fixtures).
    pub checked: bool,
}

impl FileClass {
    /// A class with every rule disabled except `unsafe-audit`
    /// (which applies to all checked files).
    pub const HOST_SIDE: FileClass = FileClass {
        deterministic: false,
        library: false,
        checked: true,
    };
    /// Full-contract class: determinism + panic-path + unsafe-audit.
    pub const DETERMINISTIC_LIBRARY: FileClass = FileClass {
        deterministic: true,
        library: true,
        checked: true,
    };
    /// Not checked at all.
    pub const SKIPPED: FileClass = FileClass {
        deterministic: false,
        library: false,
        checked: false,
    };
}

/// The crates bound by the determinism contract (library sources only).
/// `bench` and `compat` are deliberately absent: bench is the host-side
/// command line (`simctl`), and the compat shims mirror third-party APIs
/// verbatim.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "crypto",
    "zksnark",
    "rln",
    "model",
    "core",
    "relay",
    "gossipsub",
    "netsim",
    "ethsim",
    "scenarios",
    "baselines",
];

/// Classify a workspace-relative path (forward slashes).
///
/// The map, in order of precedence:
/// - non-`.rs` files, anything under `target/` or a `fixtures/` dir: skipped;
/// - `crates/compat/**`: skipped (vendored third-party API surface — its
///   panics replicate the upstream crates by design);
/// - any `src/bin/**`, `benches/**`, `examples/**`,
///   top-level `tests/**` and per-crate `tests/**`: host-side
///   (`unsafe-audit` only — test and measurement code may use wall
///   clocks, ambient RNG, and `unwrap` freely);
/// - `crates/lint/src/**`: host-side tooling (it walks the filesystem),
///   but its panic-path hygiene is still checked (`library`);
/// - `crates/<deterministic>/src/**` and the umbrella `src/**`:
///   the full contract.
pub fn classify(rel: &str) -> FileClass {
    if !rel.ends_with(".rs") {
        return FileClass::SKIPPED;
    }
    let parts: Vec<&str> = rel.split('/').collect();
    if parts
        .iter()
        .any(|p| *p == "target" || *p == "fixtures" || p.starts_with('.'))
    {
        return FileClass::SKIPPED;
    }
    if rel.starts_with("crates/compat/") {
        return FileClass::SKIPPED;
    }
    // Test, bench, example, and binary code is host-side regardless of crate.
    if parts
        .iter()
        .any(|p| *p == "tests" || *p == "benches" || *p == "examples" || *p == "bin")
    {
        return FileClass::HOST_SIDE;
    }
    if rel.starts_with("crates/lint/") {
        return FileClass {
            deterministic: false,
            library: true,
            checked: true,
        };
    }
    if let Some(krate) = parts
        .first()
        .and_then(|p| (*p == "crates").then(|| parts.get(1)).flatten())
    {
        if DETERMINISTIC_CRATES.contains(krate) && parts.get(2) == Some(&"src") {
            return FileClass::DETERMINISTIC_LIBRARY;
        }
        // An unknown crate: be conservative, apply the full contract so a
        // future crate opts *out* explicitly (here) rather than silently.
        if parts.get(2) == Some(&"src") {
            return FileClass::DETERMINISTIC_LIBRARY;
        }
        return FileClass::HOST_SIDE;
    }
    if parts.first() == Some(&"src") {
        // The umbrella crate's re-export shim.
        return FileClass::DETERMINISTIC_LIBRARY;
    }
    FileClass::HOST_SIDE
}

/// Walk `root` collecting workspace-relative paths of checked `.rs`
/// files, sorted for deterministic report ordering.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "fixtures" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                if classify(&rel).checked {
                    out.push(rel);
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_map() {
        assert_eq!(
            classify("crates/netsim/src/scheduler.rs"),
            FileClass::DETERMINISTIC_LIBRARY
        );
        assert_eq!(
            classify("crates/scenarios/src/report.rs"),
            FileClass::DETERMINISTIC_LIBRARY
        );
        assert_eq!(classify("src/lib.rs"), FileClass::DETERMINISTIC_LIBRARY);
        assert_eq!(
            classify("crates/scenarios/src/bin/simctl.rs"),
            FileClass::HOST_SIDE
        );
        assert_eq!(
            classify("crates/core/tests/whatever.rs"),
            FileClass::HOST_SIDE
        );
        assert_eq!(classify("tests/scale.rs"), FileClass::HOST_SIDE);
        assert_eq!(classify("examples/spam_slashing.rs"), FileClass::HOST_SIDE);
        assert_eq!(
            classify("crates/compat/rand/src/lib.rs"),
            FileClass::SKIPPED
        );
        assert_eq!(
            classify("crates/lint/tests/fixtures/bad.rs"),
            FileClass::SKIPPED
        );
        assert!(!classify("crates/lint/src/rules.rs").deterministic);
        assert!(classify("crates/lint/src/rules.rs").library);
        assert_eq!(classify("README.md"), FileClass::SKIPPED);
    }
}
