//! Integration: a longer-running, larger network — multiple epochs of
//! honest traffic, several concurrent spammers, churn via slashing and
//! crashes, and late joiners, all in one deterministic scenario.
//!
//! Ported to the scenario engine: the hand-wired world-building that
//! used to live here (explicit publish lists, manual run slicing, per
//! node stat loops) is now a `ScenarioSpec`. The original assertions are
//! preserved — aggregate ones against the `ScenarioReport`, per-message
//! and late-joiner ones against the finished `Testbed` the engine hands
//! back.

use std::collections::HashMap;
use waku_rln::netsim::NodeId;
use waku_rln::scenarios::{
    run_scenario_detailed, ChurnAction, ChurnEvent, ScenarioSpec, SpamSpec, TrafficSpec,
};

#[test]
fn thirty_peers_three_epochs_two_spammers_churn_and_late_joiners() {
    let mut spec = ScenarioSpec::baseline(30, 2022);
    spec.name = "scale".to_string();
    spec.tree_depth = 12;
    // epoch 1: a batch of honest traffic while two members double-signal;
    // later rounds exercise the post-slash, post-join network
    spec.traffic = TrafficSpec {
        publishers: 8,
        rounds: 3,
        start_ms: 10_000,
        interval_ms: 45_000,
    };
    spec.spam = Some(SpamSpec {
        spammers: 2,
        burst: 2,
        at_ms: 15_000,
    });
    spec.churn = vec![
        // a peer crashes mid-run (process death, not slashing)
        ChurnEvent {
            at_ms: 40_000,
            action: ChurnAction::Crash { peers: 1 },
        },
        // and a late joiner arrives after the churn
        ChurnEvent {
            at_ms: 60_000,
            action: ChurnAction::Join { peers: 1 },
        },
    ];
    spec.drain_ms = 60_000;

    let (report, tb) = run_scenario_detailed(&spec);

    // both spammers slashed, the crash did not cost a membership
    assert_eq!(report.spammers_slashed, 2, "spammers survived");
    assert!(report.spam_detections >= 1);
    // 30 honest + 2 spammers − 2 slashed + 1 joined
    assert_eq!(report.members_end, 31);
    assert_eq!(report.peers_crashed, 1);
    assert_eq!(report.peers_joined, 1);

    // honest messages delivered (the original bar: ≥ 25 of 29 receivers)
    assert!(report.honest_published >= 20);
    assert!(
        report.delivery_rate >= 25.0 / 29.0,
        "under-delivered: {}",
        report.delivery_rate
    );
    // ...and per message, not just in aggregate: every honest payload
    // (engine traffic is "r{round}-p{peer}") reached ≥ 25 live peers
    let mut receivers_of: HashMap<Vec<u8>, usize> = HashMap::new();
    for i in 0..tb.peer_count() {
        if !tb.is_live(i) {
            continue;
        }
        for (payload, _) in tb.net.node(NodeId(i)).app_deliveries() {
            if payload.starts_with(b"r") {
                *receivers_of.entry(payload).or_default() += 1;
            }
        }
    }
    assert_eq!(receivers_of.len() as u64, report.honest_published);
    for (payload, receivers) in &receivers_of {
        assert!(
            *receivers >= 25,
            "{} reached only {receivers} live peers",
            String::from_utf8_lossy(payload)
        );
    }

    // spam contained: at most one majority delivery per spammer
    assert!(report.spam_delivered_majority <= 2);

    // validators stayed clean: no honest message was ever counted as
    // malformed, and real traffic was validated
    assert_eq!(report.malformed_total, 0);
    assert!(report.valid_total > 0);

    // bounded state everywhere: nullifier maps hold ≤ Thr+1 epochs
    assert!(
        report.nullifier_map_max_bytes < 64 * 1024,
        "nullifier map grew to {} B",
        report.nullifier_map_max_bytes
    );

    // light membership trees stayed tiny (E3 property, in vivo)
    assert!(
        report.membership_tree_max_bytes < 2 * 1024,
        "tree storage {} B",
        report.membership_tree_max_bytes
    );

    // the late joiner is a synced member with the same root as peer 0
    let joiner = tb.peer_count() - 1;
    assert!(tb.is_member(joiner), "late joiner not registered");
    assert_eq!(
        tb.net.node(NodeId(joiner)).membership_root(),
        tb.net.node(NodeId(0)).membership_root(),
        "late joiner's root diverged"
    );

    // traffic still flows from the newcomer: keep driving the finished
    // testbed, as the original test published from the joiner directly
    let mut tb = tb;
    tb.publish(joiner, b"hello from the late joiner")
        .expect("joiner can publish");
    tb.run(15_000);
    assert!(
        tb.delivery_count(b"hello from the late joiner", joiner) >= 24,
        "late joiner's message under-delivered: {}",
        tb.delivery_count(b"hello from the late joiner", joiner)
    );
}
