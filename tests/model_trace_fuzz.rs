//! Trace-fuzz regression harness: replays the committed corpus in
//! `tests/corpus/*.trace` and a bank of fixed-seed generator schedules
//! through the pure model, checking the five machine-readable
//! invariants (nullifier-map boundedness, at-most-one-accept per
//! statement, slashing ⇒ genuine double-signal, GC never drops an
//! in-window entry, one detection per caught statement) after every
//! step.
//!
//! When a generated schedule fails, the harness delta-debugs it to a
//! locally minimal trace and prints it in the corpus format — commit
//! the output as a new `tests/corpus/<name>.trace` so the regression
//! replays forever.

use std::fs;
use std::path::PathBuf;
use waku_rln::model::trace::{
    format_trace, generate_trace, parse_trace, replay, shrink_trace, TraceParams,
};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Every committed corpus trace must parse and replay with all
/// invariants intact.
#[test]
fn committed_corpus_replays_clean() {
    let mut entries: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "trace"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 4,
        "corpus went missing: only {} traces found",
        entries.len()
    );
    for path in entries {
        let text = fs::read_to_string(&path).expect("readable trace");
        let (params, steps) =
            parse_trace(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        replay(&params, &steps).unwrap_or_else(|v| {
            panic!(
                "{}: invariant broken at step {}: {}",
                path.display(),
                v.step_index,
                v.description
            )
        });
    }
}

/// The corpus traces are not just clean — each pins the specific
/// behavior its name promises.
#[test]
fn corpus_traces_pin_their_named_behaviors() {
    let load = |name: &str| {
        let text = fs::read_to_string(corpus_dir().join(name)).expect("trace exists");
        parse_trace(&text).expect("trace parses")
    };

    // double_signal: the second message triggers secret recovery
    let (p, steps) = load("double_signal.trace");
    let state = replay(&p, &steps).expect("invariants hold");
    assert_eq!(state.stats.spam_detected, 1);
    assert_eq!(
        state.detections[0].evidence.revealed_secret,
        p.member_identity(0).secret()
    );

    // caught_once: five double-signal frames, two caught statements
    let (p, steps) = load("caught_once.trace");
    let state = replay(&p, &steps).expect("invariants hold");
    assert_eq!(state.stats.valid, 2);
    assert_eq!(state.stats.spam_detected, 5, "every frame is counted");
    let caught: Vec<_> = state
        .detections
        .iter()
        .map(|d| d.evidence.revealed_secret)
        .collect();
    assert_eq!(
        caught,
        [p.member_identity(0).secret(), p.member_identity(1).secret()],
        "one detection per statement"
    );

    // gc_boundary: the entry at the exact GC cutoff survived long enough
    // to catch a double-signal against it
    let (p, steps) = load("gc_boundary.trace");
    let state = replay(&p, &steps).expect("invariants hold");
    assert_eq!(state.stats.spam_detected, 1, "cutoff entry was GC'd away");
    assert!(
        state
            .nullifier_map
            .epoch_numbers()
            .all(|e| e >= 170_000_002),
        "pre-cutoff epoch survived GC"
    );

    // epoch_skew: ±Thr accepted, beyond ignored, map untouched by the
    // out-of-window inputs
    let (p, steps) = load("epoch_skew.trace");
    let state = replay(&p, &steps).expect("invariants hold");
    assert_eq!(state.stats.valid, 2);
    assert_eq!(state.stats.epoch_out_of_window, 2);

    // replay_mutated: duplicate ignored, mutated proof rejected, expired
    // replay ignored — exactly one accept
    let (p, steps) = load("replay_mutated.trace");
    let state = replay(&p, &steps).expect("invariants hold");
    assert_eq!(state.stats.valid, 1);
    assert_eq!(state.stats.duplicates, 1);
    assert_eq!(state.stats.invalid_proof, 1);
    assert_eq!(state.stats.epoch_out_of_window, 1);
    assert_eq!(state.stats.spam_detected, 0);
}

/// Fixed-seed generator bank: 3 window geometries × 200 seeds × 200-step
/// adversarial schedules. Failures shrink to a minimal counterexample
/// printed in the corpus format for committing.
#[test]
fn fixed_seed_generator_bank_upholds_invariants() {
    let geometries = [
        TraceParams {
            epoch_secs: 10,
            max_delay_ms: 20_000,
            members: 4,
        }, // Thr = 2
        TraceParams {
            epoch_secs: 1,
            max_delay_ms: 1_000,
            members: 2,
        }, // Thr = 1
        TraceParams {
            epoch_secs: 5,
            max_delay_ms: 60_000,
            members: 6,
        }, // Thr = 12
    ];
    for params in geometries {
        for seed in 0..200u64 {
            let steps = generate_trace(&params, seed, 200);
            if let Err(violation) = replay(&params, &steps) {
                let shrunk = shrink_trace(&steps, |t| replay(&params, t).is_err());
                let final_violation =
                    replay(&params, &shrunk).expect_err("shrunk trace still fails");
                panic!(
                    "seed {seed}: step {}: {}\n\
                     original failure at step {}: {}\n\
                     minimal reproducing trace (commit to tests/corpus/):\n{}",
                    final_violation.step_index,
                    final_violation.description,
                    violation.step_index,
                    violation.description,
                    format_trace(&params, &shrunk),
                );
            }
        }
    }
}
