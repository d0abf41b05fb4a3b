//! The `simctl` command-line contract: what `list` prints, which inputs
//! are usage errors (exit 2), and that `run` is deterministic per seed.

use std::process::{Command, Output};
use wakurln_scenarios::{ScenarioReport, BUILTIN_NAMES};

fn simctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simctl"))
        .args(args)
        .output()
        .expect("spawn simctl")
}

#[test]
fn list_prints_exactly_the_builtin_names() {
    let out = simctl(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(stdout.lines().collect::<Vec<_>>(), BUILTIN_NAMES);
}

#[test]
fn usage_errors_exit_2_and_print_no_report() {
    let cases: &[&[&str]] = &[
        &[],
        &["run", "no_such_scenario"],
        &["run", "baseline", "--no-such-flag"],
        // removed with the scheduler's worker pool: scripts that still
        // pass it must fail loudly, not silently run single-threaded
        &["run", "baseline", "--nodes", "30", "--threads", "2"],
        &["soak", "--threads", "2"],
        &["run", "baseline", "--nodes", "1"],
        &["run", "baseline", "--nodes", "30,60"],
        &["soak", "--sim-hours", "0"],
        // 2^57 + 1 hours: as milliseconds this wraps u64 to exactly one hour
        &["soak", "--sim-hours", "144115188075855873", "--nodes", "10"],
        // 5 000 000 000 initial peers plus 250 000 000 joins overflow a
        // tree of the maximum depth 32: rejected before the testbed is
        // built
        &["run", "mass_churn", "--nodes", "5000000000"],
    ];
    for &args in cases {
        let out = simctl(args);
        assert_eq!(out.status.code(), Some(2), "simctl {args:?}");
        assert!(out.stdout.is_empty(), "simctl {args:?} wrote to stdout");
        assert!(!out.stderr.is_empty(), "simctl {args:?} gave no reason");
    }
}

#[test]
fn run_is_byte_identical_per_seed_and_parses_as_a_report() {
    let args = ["run", "baseline", "--nodes", "30", "--seed", "1"];
    let first = simctl(&args);
    let second = simctl(&args);
    assert_eq!(first.status.code(), Some(0));
    assert_eq!(first.stdout, second.stdout);
    let json = String::from_utf8(first.stdout).expect("utf-8 stdout");
    let report = ScenarioReport::from_json(&json).expect("stdout is one ScenarioReport");
    assert_eq!(report.scenario, "baseline");
    assert_eq!(report.seed, 1);
}

#[test]
fn populations_below_the_bootstrap_degree_run() {
    let out = simctl(&["run", "baseline", "--nodes", "5", "--seed", "1"]);
    assert_eq!(out.status.code(), Some(0), "simctl run baseline --nodes 5");
    let json = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let report = ScenarioReport::from_json(&json).expect("stdout is one ScenarioReport");
    assert_eq!(report.peers_initial, 5);
}
