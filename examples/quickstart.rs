//! Quickstart: the Figure-1 pipeline on a small network.
//!
//! Builds a 10-peer WAKU-RLN-RELAY network backed by a simulated
//! membership contract, registers everyone (staking), lets the gossip
//! meshes form, publishes an anonymous rate-limited message and shows it
//! reaching the network.
//!
//! Run with: `cargo run --example quickstart`

use waku_rln_relay::{Testbed, TestbedConfig};

fn main() {
    println!("== WAKU-RLN-RELAY quickstart ==");

    // 1. Build the world: trusted setup, chain + membership contract,
    //    10 peers, funding, registration transactions, event sync.
    let mut testbed = Testbed::build(TestbedConfig {
        n_peers: 10,
        tree_depth: 12,
        degree: 4,
        seed: 2024,
        ..Default::default()
    });
    println!(
        "registered members on contract: {}",
        testbed.active_members()
    );
    println!(
        "membership root (local view of peer 0): {}",
        testbed
            .net
            .node(wakurln_netsim::NodeId(0))
            .membership_root()
    );

    // 2. Let GossipSub meshes form.
    testbed.run(8_000);

    // 3. Publish anonymously through the RLN pipeline: proof generation,
    //    epoch-bound nullifier, Shamir share — all attached automatically.
    let payload = b"hello, spam-protected anonymous world";
    let id = testbed.publish(3, payload).expect("peer 3 is a member");
    println!("peer 3 published message {id:?}");

    // 4. The one-per-epoch local rate limit is enforced at the source...
    match testbed.publish(3, b"second message, same epoch") {
        Err(e) => println!("second publish in the same epoch refused: {e}"),
        Ok(_) => unreachable!("rate limiter must refuse"),
    }

    // 5. ...and the message propagates to everyone else.
    testbed.run(15_000);
    let received = testbed.delivery_count(payload, 3);
    println!("peers that received the message: {received}/9");
    assert!(received >= 7, "propagation failed");

    // 6. Relayer-side statistics from a routing peer.
    let stats = testbed
        .net
        .node(wakurln_netsim::NodeId(0))
        .validator()
        .stats();
    println!(
        "peer 0 validation stats: valid={} invalid_proof={} out_of_window={} spam={}",
        stats.valid, stats.invalid_proof, stats.epoch_out_of_window, stats.spam_detected
    );
    println!("done.");
}
