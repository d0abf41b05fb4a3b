//! Integration: the complete Figure-1 lifecycle across every crate —
//! chain registration, group sync, anonymous publishing, routing
//! validation, spam detection, on-chain slashing, reward payment, and
//! continued operation after membership churn.

use waku_rln::core::{PublishError, Testbed, TestbedConfig};
use waku_rln::ethsim::types::{Address, ETHER};
use waku_rln::netsim::NodeId;

fn build(n: usize, seed: u64) -> Testbed {
    let mut tb = Testbed::build(TestbedConfig {
        n_peers: n,
        tree_depth: 12,
        degree: 4,
        seed,
        ..Default::default()
    });
    tb.run(8_000);
    tb
}

#[test]
fn full_lifecycle_register_publish_deliver() {
    let mut tb = build(12, 1);
    assert_eq!(tb.active_members(), 12);

    tb.publish(0, b"lifecycle message").unwrap();
    tb.run(15_000);
    assert!(tb.delivery_count(b"lifecycle message", 0) >= 10);

    // every relayer that validated it counted it as valid, nobody as spam
    for i in 0..12 {
        let stats = tb.net.node(NodeId(i)).validator().stats();
        assert_eq!(stats.spam_detected, 0);
        assert_eq!(stats.invalid_proof, 0);
    }
}

#[test]
fn all_peers_can_publish_in_their_own_epochs() {
    let mut tb = build(8, 2);
    for peer in 0..8 {
        let payload = format!("from-{peer}").into_bytes();
        tb.publish(peer, &payload).unwrap();
    }
    tb.run(20_000);
    for peer in 0..8 {
        let payload = format!("from-{peer}").into_bytes();
        assert!(
            tb.delivery_count(&payload, peer) >= 6,
            "peer {peer}'s message under-delivered"
        );
    }
}

#[test]
fn spam_to_slash_to_reward_roundtrip() {
    let mut tb = build(10, 3);
    let spammer = 6;
    let spammer_addr = tb.address(spammer);
    let balance_before = tb.chain.balance_of(spammer_addr);

    tb.publish_spam(spammer, b"payload-a").unwrap();
    tb.publish_spam(spammer, b"payload-b").unwrap();
    tb.run(40_000);

    // detection happened
    assert!(tb.total_spam_detections() >= 1);
    // slashed on-chain: member gone, stake split between burn and slasher
    assert_eq!(tb.active_members(), 9);
    assert!(!tb.is_member(spammer));
    assert_eq!(tb.chain.balance_of(Address::BURN), ETHER / 2);
    let reward_recipients: Vec<usize> = (0..10)
        .filter(|i| tb.chain.balance_of(tb.address(*i)) > 100 * ETHER - ETHER)
        .collect();
    assert_eq!(reward_recipients.len(), 1, "exactly one slasher rewarded");
    assert_ne!(reward_recipients[0], spammer);
    // the spammer's liquid balance never recovered its stake
    assert_eq!(tb.chain.balance_of(spammer_addr), balance_before);

    // the slashed member cannot publish any more
    let err = tb.publish(spammer, b"retry").unwrap_err();
    assert!(matches!(err, PublishError::MembershipLost));
}

#[test]
fn network_keeps_working_after_slashing() {
    let mut tb = build(10, 4);
    tb.publish_spam(2, b"s1").unwrap();
    tb.publish_spam(2, b"s2").unwrap();
    tb.run(40_000);
    assert!(!tb.is_member(2));

    // remaining peers' proofs are against the *new* root (the light trees
    // applied the deletion witness) and still verify
    tb.publish(7, b"post-slash message").unwrap();
    tb.run(15_000);
    assert!(tb.delivery_count(b"post-slash message", 7) >= 8);
}

#[test]
fn rate_limit_resets_at_epoch_boundary() {
    let mut tb = build(6, 5);
    tb.publish(1, b"epoch-n").unwrap();
    assert!(matches!(
        tb.publish(1, b"epoch-n-again"),
        Err(PublishError::RateLimited { .. })
    ));
    // epoch length is 10 s; advance past the boundary
    tb.run(11_000);
    tb.publish(1, b"epoch-n-plus-1").unwrap();
    tb.run(15_000);
    assert!(tb.delivery_count(b"epoch-n", 1) >= 4);
    assert!(tb.delivery_count(b"epoch-n-plus-1", 1) >= 4);
}

#[test]
fn deterministic_end_to_end() {
    let run = |seed: u64| {
        let mut tb = build(8, seed);
        tb.publish(0, b"det").unwrap();
        tb.publish_spam(3, b"x1").unwrap();
        tb.publish_spam(3, b"x2").unwrap();
        tb.run(40_000);
        (
            tb.delivery_count(b"det", 0),
            tb.active_members(),
            tb.total_spam_detections(),
        )
    };
    assert_eq!(run(42), run(42));
}
