//! WAKU-RELAY end to end: a relay peer is a plain `GossipsubNode`
//! subscribed to the default pub/sub topic, and its payloads are encoded
//! [`WakuMessage`]s. The envelope is all this crate adds.

use wakurln_gossipsub::{AcceptAll, GossipsubConfig, GossipsubNode, ScoringConfig, Topic};
use wakurln_netsim::{topology, Network, NodeId, UniformLatency};
use wakurln_relay::{WakuMessage, DEFAULT_PUBSUB_TOPIC};

fn network(n: usize, seed: u64) -> Network<GossipsubNode<AcceptAll>> {
    let mut net = Network::new(
        UniformLatency {
            min_ms: 10,
            max_ms: 40,
        },
        seed,
    );
    for peers in topology::random_regular(n, 5, seed) {
        let mut node = GossipsubNode::new(
            GossipsubConfig::default(),
            ScoringConfig::default(),
            peers,
            AcceptAll,
        );
        node.subscribe(Topic::new(DEFAULT_PUBSUB_TOPIC));
        net.add_node(node);
    }
    net
}

fn publish(net: &mut Network<GossipsubNode<AcceptAll>>, from: usize, msg: &WakuMessage) {
    net.invoke(NodeId(from), |node, ctx| {
        node.publish(ctx, Topic::new(DEFAULT_PUBSUB_TOPIC), msg.encode())
    });
}

/// The envelopes `peer` delivered, decoded.
fn waku_deliveries(net: &Network<GossipsubNode<AcceptAll>>, peer: usize) -> Vec<WakuMessage> {
    net.node(NodeId(peer))
        .delivered()
        .iter()
        .filter_map(|d| WakuMessage::decode(d.data()).ok())
        .collect()
}

#[test]
fn waku_messages_flow_end_to_end() {
    let mut net = network(25, 1);
    net.run_until(8_000);
    let msg = WakuMessage::new("/app/1/chat/proto", b"gm, anonymously".to_vec());
    publish(&mut net, 3, &msg);
    net.run_until(20_000);
    let got = (0..25)
        .filter(|&i| i != 3 && waku_deliveries(&net, i).contains(&msg))
        .count();
    assert!(got >= 23, "delivered to {got}/24");
}

#[test]
fn content_topics_multiplex_over_one_pubsub_topic() {
    let mut net = network(10, 2);
    net.run_until(8_000);
    publish(&mut net, 0, &WakuMessage::new("/app/a", b"1".to_vec()));
    publish(&mut net, 0, &WakuMessage::new("/app/b", b"2".to_vec()));
    net.run_until(20_000);
    let deliveries = waku_deliveries(&net, 5);
    let topics: Vec<&str> = deliveries
        .iter()
        .map(|m| m.content_topic.as_str())
        .collect();
    assert!(topics.contains(&"/app/a"));
    assert!(topics.contains(&"/app/b"));
}
