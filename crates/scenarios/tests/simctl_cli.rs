//! The `simctl` command-line contract: what `list` prints, which inputs
//! are usage errors (exit 2), that `run` is deterministic per seed, and
//! that a drain cut off mid-propagation exits 1.

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

/// `epoch_boundary_race`'s drain ends amid a wave of liveness pings over
/// 0.2–4 s links: control traffic, not a network that failed to settle.
#[test]
fn a_drain_ending_amid_control_traffic_exits_0() {
    let out = simctl(&["run", "epoch_boundary_race", "--nodes", "40", "--seed", "7"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

/// First-hop copies held back up to 100 s outlast `baseline`'s 40 s
/// drain, so the hard stop cuts those publishes off mid-propagation.
#[test]
fn a_drain_cut_mid_propagation_exits_1_after_the_report() {
    let out = simctl(&[
        "run",
        "baseline",
        "--nodes",
        "40",
        "--seed",
        "7",
        "--publish-jitter",
        "100000",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8(out.stdout).expect("utf-8 stdout");
    ScenarioReport::from_json(&json).expect("the report is still emitted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("application frames still in flight"),
        "{stderr}"
    );
}
