//! Integration: the built-in scenarios make their claims hold at small
//! scale (the same specs `simctl` runs at 1000+ nodes).

use waku_rln::scenarios::{builtin, library, run_scenario};

#[test]
fn targeted_eclipse_starves_the_victim_not_the_network() {
    let mut spec = builtin("targeted_eclipse", 14, 21).unwrap();
    spec.traffic.publishers = 3;
    let report = run_scenario(&spec);
    let victim_rate = report
        .eclipse_victim_delivery_rate
        .expect("eclipse scenario reports the victim rate");
    // the victim's bootstrap ring censors everything...
    assert!(
        victim_rate < 0.05,
        "eclipse failed: victim still saw {victim_rate}"
    );
    // ...while the rest of the network is healthy
    assert!(
        report.delivery_rate > 0.85,
        "network collateral damage: {}",
        report.delivery_rate
    );
}

#[test]
fn mass_churn_survivors_keep_delivering() {
    let mut spec = builtin("mass_churn", 20, 22).unwrap();
    spec.traffic.publishers = 3;
    let report = run_scenario(&spec);
    assert!(report.peers_crashed >= 2);
    assert!(report.peers_joined >= 1);
    assert_eq!(
        report.peers_final_live,
        report.peers_initial + report.peers_joined - report.peers_crashed
    );
    // crashes are not slashes: every stake is still on the contract
    assert_eq!(
        report.members_end,
        report.members_start + report.peers_joined
    );
    assert!(
        report.delivery_rate > 0.8,
        "survivor delivery collapsed: {}",
        report.delivery_rate
    );
    // dead peers really went dark mid-run
    assert!(report.messages_to_removed_peer > 0);
}

#[test]
fn epoch_boundary_race_is_absorbed_by_the_thr_window() {
    let mut spec = library::epoch_boundary_race(14, 23);
    spec.traffic.publishers = 3;
    let report = run_scenario(&spec);
    // in-flight cross-boundary messages are accepted, not dropped
    assert!(
        report.delivery_rate > 0.9,
        "boundary race dropped traffic: {}",
        report.delivery_rate
    );
    assert!(report.valid_total > 0);
    // the Thr filter stays quiet for honest-but-slow traffic
    assert!(
        report.epoch_out_of_window_total <= report.valid_total / 10,
        "window rejections: {} vs {} valid",
        report.epoch_out_of_window_total,
        report.valid_total
    );
}

#[test]
fn spam_burst_runs_at_the_maximum_tree_depth() {
    // every depth that validates must run: the full node's tree stores
    // O(members) nodes, not the 2^33 - 1 of a fully stored depth-32 tree
    let mut spec = builtin("spam_burst", 16, 1).unwrap();
    spec.tree_depth = 32;
    spec.validate();
    let report = run_scenario(&spec);
    assert_eq!(report.tree_depth, 32);
    assert!(report.spammers >= 1);
    assert_eq!(report.spammers_slashed, report.spammers);
    assert!(
        report.delivery_rate > 0.9,
        "delivery at depth 32: {}",
        report.delivery_rate
    );
}
