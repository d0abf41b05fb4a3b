//! Integration: adversarial behaviours against the full stack — replays,
//! forged proofs, non-members, malformed frames, packet loss, and the
//! comparison baselines.

use waku_rln::baselines::{run_peer_scoring, Scenario};
use waku_rln::core::{EpochScheme, Testbed, TestbedConfig};
use waku_rln::scenarios::{run_scenario, ScenarioSpec, SpamSpec};

use waku_rln::netsim::NodeId;
use waku_rln::relay::WakuMessage;

fn build(n: usize, seed: u64) -> Testbed {
    let mut tb = Testbed::build(TestbedConfig {
        n_peers: n,
        tree_depth: 12,
        degree: 4,
        seed,
        epoch: EpochScheme::new(10, 20_000),
        ..Default::default()
    });
    tb.run(8_000, 1_000);
    tb
}

/// The epoch-replay attack (§III): `attacker` signs one message per
/// offset for epoch `current + offset`, and 15 s of gossip follow each.
/// Returns, per offset, whether a majority of the other peers received it.
fn epoch_replay_attack(tb: &mut Testbed, attacker: usize, offsets: &[i64]) -> Vec<(i64, bool)> {
    let half = tb.config().n_peers / 2;
    offsets
        .iter()
        .map(|&offset| {
            let payload = format!("replay-{offset}").into_bytes();
            tb.publish_with_epoch_offset(attacker, &payload, offset)
                .expect("attacker can always send");
            tb.run(15_000, 1_000);
            (offset, tb.delivery_count(&payload, attacker) >= half)
        })
        .collect()
}

#[test]
fn replay_attack_blocked_outside_thr_window() {
    // Thr = D / T = 2: delivered exactly when |offset| <= 2
    let mut tb = build(8, 10);
    let results = epoch_replay_attack(&mut tb, 0, &[-50, -2, 0, 2, 50]);
    for (offset, delivered) in results {
        let expected = offset.abs() <= 2;
        assert_eq!(delivered, expected, "offset {offset}");
    }
}

#[test]
fn burst_spammer_is_neutralized() {
    // ported to the scenario engine: same world (8 honest peers, one
    // member bursting 6 double-signals), same assertions, now against
    // the ScenarioReport instead of hand-driven attack plumbing
    let mut spec = ScenarioSpec::baseline(8, 11);
    spec.name = "burst".to_string();
    spec.tree_depth = 12;
    spec.spam = Some(SpamSpec {
        spammers: 1,
        burst: 6,
        at_ms: 15_000,
    });
    spec.drain_ms = 60_000;
    let report = run_scenario(&spec);
    assert_eq!(report.spammers_slashed, 1, "attacker kept membership");
    assert!(report.spam_detections >= 1);
    assert!(report.spam_delivered_majority <= 1);
}

#[test]
fn garbage_frames_are_rejected_and_penalized() {
    let mut tb = build(6, 12);
    // a malicious peer injects a WAKU frame with no RLN fields at all
    let junk = tb.net.invoke(NodeId(0), |node, ctx| {
        let msg = WakuMessage::new("/junk", b"not an rln signal".to_vec());
        node.inject_raw(ctx, &msg)
    });
    tb.run(15_000, 1_000);
    // nobody delivered it: no peer's delivery tape holds its id
    for i in 0..6 {
        let tape = tb.net.node(NodeId(i)).gossipsub().delivered();
        assert!(
            tape.iter().all(|d| d.id() != junk),
            "peer {i} delivered junk"
        );
    }
    // at least one direct neighbour counted a malformed frame
    let malformed: u64 = (0..6)
        .map(|i| tb.net.node(NodeId(i)).validator().stats().malformed)
        .sum();
    assert!(malformed >= 1, "no validator saw the garbage");
}

#[test]
fn packet_loss_does_not_break_protection() {
    let mut tb = build(10, 13);
    tb.net.set_loss_probability(0.15);
    // honest message still gets through (gossip recovery)
    tb.publish(0, b"lossy but honest").unwrap();
    // spammer still gets caught
    tb.publish_spam(4, b"ls1").unwrap();
    tb.publish_spam(4, b"ls2").unwrap();
    tb.run(60_000, 1_000);
    assert!(tb.delivery_count(b"lossy but honest", 0) >= 7);
    assert!(!tb.is_member(4), "spammer survived packet loss");
}

#[test]
fn peer_scoring_baseline_fails_where_rln_succeeds() {
    // cross-check at integration level: the same flood volume that RLN
    // neutralizes (burst test above) sails through peer scoring
    let out = run_peer_scoring(Scenario {
        honest_peers: 7,
        spam_k: 6,
        seed: 14,
    });
    assert!(out.spam_delivery_rate >= 0.9);
    assert!(!out.attacker_globally_excluded);
}
