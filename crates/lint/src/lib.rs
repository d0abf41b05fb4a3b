#![deny(missing_docs)]
//! `wakurln-lint` — the workspace static-analysis pass that makes the
//! determinism, unsafe-audit, and panic-path contracts *executable*.
//!
//! Every headline property of this reproduction — byte-identical
//! `ScenarioReport`s per seed, checkpoint/restore
//! fingerprints, the wheel/heap pop-order pin, the anonymity and
//! resilience measurements — rests on the determinism contract in
//! docs/ARCHITECTURE.md. This crate enforces the mechanizable part of
//! that contract at compile-check time instead of hoping a 3-seed diff
//! job trips: no unordered-collection iteration, no host clocks or
//! ambient entropy, no RNG draws conditioned on unordered state in the
//! deterministic crates; `// SAFETY:` comments on every `unsafe`; total
//! (panic-free) library paths unless a site is explicitly justified.
//!
//! The tool is self-contained by design (hand-rolled lexer + token-tree
//! matcher, no third-party parser) because the build environment is
//! offline. See docs/LINT.md for the rule catalog and marker syntax.
//!
//! Run it:
//!
//! ```text
//! cargo run -p wakurln-lint --              # human diagnostics, exit 0
//! cargo run -p wakurln-lint -- --deny-all   # exit 1 on any unannotated finding
//! cargo run -p wakurln-lint -- --json lint-report.json
//! ```

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;

use config::{classify, workspace_sources};
use report::Report;
use std::path::Path;

pub use rules::Finding;

/// Lint every checked source file under `root` (the workspace root).
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    for rel in workspace_sources(root)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        report.absorb(rules::lint_source(&rel, classify(&rel), &src));
    }
    Ok(report)
}

/// Locate the workspace root from this crate's manifest dir (works from
/// tests and from `cargo run -p wakurln-lint` alike).
pub fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| {
            // lint:allow(panic-path, reason = "CLI/test entry point: a missing workspace root is unrecoverable and the message is actionable")
            panic!("cannot canonicalize workspace root from CARGO_MANIFEST_DIR")
        })
}
