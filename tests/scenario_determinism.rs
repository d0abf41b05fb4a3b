//! Integration: the simulation's determinism contract.
//!
//! Same `ScenarioSpec` + seed ⇒ **byte-identical** `ScenarioReport`
//! JSON, for every built-in scenario, and a different seed ⇒ different
//! bytes. This is what makes scenario runs citable (a report is
//! reproducible from `(name, nodes, seed)` alone) and sweeps comparable
//! across machines.
//!
//! Runs are sized down (and traffic thinned) so each scenario finishes
//! quickly in debug builds; the engine scales the same code path to
//! 1000+ nodes under `simctl`.
//!
//! Every built-in's report at the small sizes is pinned **across commits**
//! in `tests/golden.txt` (one `name sha256` line per built-in), and four
//! more reports by constants below: their SHA-256 must equal a value
//! computed at an earlier commit. Proof bytes, every RNG draw and every
//! simulated statistic feed those bytes, so a change that is meant to be
//! speed-only and shifts any of them fails here, by itself, instead of
//! waiting for a benchmark diff. A *declared* protocol or report-format
//! change updates the file or the constant in the same PR:
//! the `baseline` and `spam_burst` constants date from the O(n · degree)
//! bootstrap generator (same graph family, another sample per seed), the
//! ring one from the commit before it and held across that swap, and the
//! `fault_storm` one from the commit before the scheduler's worker pool
//! was deleted.
//!
//! `tests/work_golden.txt` pins each built-in's work profile the same
//! way: the exact Poseidon permutations, SHA-256 blocks, reconstructions
//! and gossipsub table walks of its run. A change that does more or less
//! of any of them fails here even when its reports and its wall-clock
//! look the same; a *declared* change of work replaces that file with
//! the fresh table this test prints.

use waku_rln::crypto::sha256::{to_hex, Sha256};
use waku_rln::crypto::work::{self, Profile};
use waku_rln::scenarios::{
    builtin, run_scenario, ScenarioReport, ScenarioSpec, TopologySpec, BUILTIN_NAMES,
};

/// Two full runs of the spec must serialize to the same bytes, and the
/// next seed must not. Returns the first run's report and the second's
/// work profile: that run has a fresh thread, so no per-thread cache
/// carries over into it, and comes after the first, which has warmed
/// the process-wide ones.
fn assert_deterministic(mut spec: ScenarioSpec) -> (ScenarioReport, Profile) {
    // thin the traffic: the point is byte-identity, not load
    spec.traffic.publishers = spec.traffic.publishers.min(3);
    spec.traffic.rounds = spec.traffic.rounds.min(3);
    let report = run_scenario(&spec);
    let first = report.to_json();
    let (second, work) = std::thread::scope(|s| {
        s.spawn(|| (run_scenario(&spec), work::profile()))
            .join()
            .expect("the second run panicked")
    });
    let second = second.to_json();
    assert_eq!(
        first, second,
        "scenario {} not deterministic for seed {}",
        spec.name, spec.seed
    );
    // sanity: the run actually simulated something
    assert!(first.contains("\"messages_sent\""));
    let mut reseeded = spec.clone();
    reseeded.seed += 1;
    let third = run_scenario(&reseeded).to_json();
    assert_ne!(
        first, third,
        "{}: seed {} had no effect",
        spec.name, spec.seed
    );
    (report, work)
}

/// The SHA-256 (hex) of the report's JSON bytes — the cross-commit pin.
fn report_sha256(report: &ScenarioReport) -> String {
    to_hex(&Sha256::digest(report.to_json().as_bytes()))
}

/// [`assert_deterministic`], then [`report_sha256`].
fn pinned_sha256(spec: ScenarioSpec) -> String {
    report_sha256(&assert_deterministic(spec).0)
}

/// The names of `fresh`'s lines that `golden` lacks, or every name when
/// the two differ in length.
fn moved<'a>(golden: &str, fresh: &'a str) -> Vec<&'a str> {
    let golden: Vec<&str> = golden.lines().collect();
    fresh
        .lines()
        .filter(|line| golden.len() != BUILTIN_NAMES.len() || !golden.contains(line))
        .filter_map(|line| line.split(' ').next())
        .collect()
}

/// Every built-in on its own topology, at small sizes: 14 peers, and 20
/// for `mass_churn` so its crash draws still leave a mesh. Each report's
/// hash must match its line in `tests/golden.txt`, and each run's work
/// its line in `tests/work_golden.txt`; a declared change replaces the
/// file with the fresh table this test prints.
#[test]
fn every_builtin_is_deterministic() {
    let (mut reports, mut works) = (String::new(), String::new());
    for name in BUILTIN_NAMES {
        let nodes = if name == "mass_churn" { 20 } else { 14 };
        let (report, work) = assert_deterministic(builtin(name, nodes, 11).expect("known builtin"));
        reports.push_str(&format!("{name} {}\n", report_sha256(&report)));
        works.push_str(&format!("{name} {work}\n"));
    }
    let moved_reports = moved(include_str!("golden.txt"), &reports);
    assert!(
        moved_reports.is_empty(),
        "reports moved against tests/golden.txt: {moved_reports:?}; fresh table:\n{reports}"
    );
    let moved_work = moved(include_str!("work_golden.txt"), &works);
    assert!(
        moved_work.is_empty(),
        "work moved against tests/work_golden.txt: {moved_work:?}; fresh table:\n{works}"
    );
}

/// The one row that takes the publisher-side hold path
/// (`Context::send_delayed`): a jittered `deanonymization_sweep`, whose
/// anonymity section must also be populated rather than vacuously null.
#[test]
fn jittered_deanonymization_sweep_is_deterministic() {
    let mut spec = builtin("deanonymization_sweep", 40, 11).expect("known builtin");
    spec.publish_jitter_ms = 150;
    let (report, _) = assert_deterministic(spec);
    assert!(report.anonymity_observers.unwrap() >= 1);
    assert!(report.anonymity_observations.unwrap() > 0);
    assert!(
        report.anonymity_messages_observed.unwrap() > 0,
        "adversary saw no honest message"
    );
    let precision = report.anonymity_first_spy_precision_at1.unwrap();
    assert!((0.0..=1.0).contains(&precision));
    assert!(report.anonymity_set_mean_size.unwrap() >= 1.0);
    assert!(report.anonymity_arrival_entropy_bits.unwrap() >= 0.0);
}

#[test]
fn baseline_is_deterministic() {
    assert_eq!(
        pinned_sha256(builtin("baseline", 16, 91).unwrap()),
        "c2f079d5fb9f800d4e269f77d8ce755dc22f78de04b6def18b1315c81d8e9254",
        "the baseline@16 seed 91 report moved against the pinned commit"
    );
}

#[test]
fn spam_burst_is_deterministic() {
    assert_eq!(
        pinned_sha256(builtin("spam_burst", 16, 92).unwrap()),
        "df00749dd3e17ba01cee645fd16964c433ee497ef4fc000d5cab38ea2a7b70db",
        "the spam_burst@16 seed 92 report moved against the pinned commit"
    );
}

/// No `random_regular` in this run's path: the constant was computed at
/// the commit before the bootstrap generator changed and must hold
/// whatever that generator draws (pipeline on, spam burst included).
#[test]
fn high_throughput_on_a_ring_is_deterministic() {
    let mut spec = builtin("high_throughput", 16, 99).unwrap();
    spec.topology = TopologySpec::Ring;
    assert_eq!(
        pinned_sha256(spec),
        "639debe5d831cd59f3717946e54a7224d07d8674dbc79764349a5d57746f5932",
        "the high_throughput@16 seed 99 ring report moved against the pinned commit"
    );
}

/// Restarts, a degradation burst and a contract outage: the fault layer's
/// pin.
#[test]
fn fault_storm_is_deterministic() {
    assert_eq!(
        pinned_sha256(builtin("fault_storm", 16, 93).unwrap()),
        "ed0f441832865316ff26762b8186789d93d94fdc2d5038f35f2df18aeb232402",
        "the fault_storm@16 seed 93 report moved against the pinned commit"
    );
}

#[test]
fn targeted_eclipse_is_deterministic() {
    assert_deterministic(builtin("targeted_eclipse", 16, 93).unwrap());
}

#[test]
fn heterogeneous_devices_is_deterministic() {
    assert_deterministic(builtin("heterogeneous_devices", 16, 94).unwrap());
}

#[test]
fn mass_churn_is_deterministic() {
    assert_deterministic(builtin("mass_churn", 20, 95).unwrap());
}

#[test]
fn epoch_boundary_race_is_deterministic() {
    assert_deterministic(builtin("epoch_boundary_race", 16, 96).unwrap());
}

#[test]
fn passive_surveillance_is_deterministic() {
    assert_deterministic(builtin("passive_surveillance", 16, 97).unwrap());
}

#[test]
fn deanonymization_sweep_is_deterministic() {
    assert_deterministic(builtin("deanonymization_sweep", 16, 98).unwrap());
}
