//! The content id is a property of the message: derived once where the
//! message is built, shared by every copy, impossible to set or to let go
//! stale. Written against the public API only — what these tests cannot
//! reach, no other crate can.

use proptest::prelude::*;
use wakurln_crypto::sha256::compression_count;
use wakurln_gossipsub::{
    AcceptAll, GossipsubConfig, GossipsubNode, MessageCache, MessageId, RawMessage, ScoringConfig,
    Topic,
};
use wakurln_netsim::{topology, Network, NodeId, UniformLatency};

const PEERS: usize = 30;
const FRAMES: u64 = 5;
const FRAME_BYTES: usize = 400;

/// SHA-256 blocks for an `n`-byte input: the padding appends a `0x80`
/// byte and a 64-bit length.
fn blocks(n: usize) -> u64 {
    (n + 9).div_ceil(64) as u64
}

/// Publishes [`FRAMES`] frames into a formed 30-peer mesh, with the
/// observer tap on every third peer if asked, and returns (SHA-256 blocks
/// compressed, `messages_delivered`, observations recorded) over the
/// publish phase.
fn publish_phase(observers: bool) -> (u64, u64, usize) {
    let topic = Topic::new("test");
    let mut net: Network<GossipsubNode<AcceptAll>> = Network::new(
        UniformLatency {
            min_ms: 10,
            max_ms: 50,
        },
        17,
    );
    for (i, peers) in topology::random_regular(PEERS, 6, 17)
        .into_iter()
        .enumerate()
    {
        let mut node = GossipsubNode::new(
            GossipsubConfig::default(),
            ScoringConfig::default(),
            peers,
            AcceptAll,
        );
        node.subscribe(topic.clone());
        node.set_observer(observers && i % 3 == 0);
        net.add_node(node);
    }
    net.run_until(10_000); // mesh formation

    let blocks_before = compression_count();
    let delivered_before = net.metrics().counter("messages_delivered");
    for k in 0..FRAMES {
        let mut frame = vec![0xab; FRAME_BYTES];
        frame[..8].copy_from_slice(&k.to_le_bytes());
        net.invoke(NodeId(k as usize * 7 % PEERS), |node, ctx| {
            node.publish(ctx, topic.clone(), frame)
        });
    }
    net.run_until(40_000); // every copy, IHAVE and IWANT has landed

    for i in 0..PEERS {
        assert_eq!(
            net.node(NodeId(i)).seen_len(),
            FRAMES as usize,
            "peer {i} missed a frame"
        );
    }
    let observations = (0..PEERS)
        .map(|i| net.node(NodeId(i)).observations().len())
        .sum();
    (
        compression_count() - blocks_before,
        net.metrics().counter("messages_delivered") - delivered_before,
        observations,
    )
}

#[test]
fn a_message_is_hashed_once_network_wide_not_once_per_hop() {
    let per_frame = blocks("test".len() + 1 + FRAME_BYTES);
    let (hashed, delivered, observations) = publish_phase(false);
    assert_eq!(observations, 0);
    assert!(
        delivered >= 100 * FRAMES,
        "only {delivered} wire deliveries: the mesh did not flood"
    );
    assert_eq!(
        hashed,
        FRAMES * per_frame,
        "{delivered} wire deliveries cost {hashed} SHA-256 blocks; \
         {FRAMES} frames of {per_frame} blocks should be hashed once each"
    );

    // the observer tap records the id of every arriving copy, duplicates
    // included — and must read it, not hash for it
    let (hashed_tapped, delivered_tapped, observations) = publish_phase(true);
    assert!(
        observations as u64 >= 10 * FRAMES,
        "the tap recorded nothing"
    );
    assert_eq!(delivered_tapped, delivered, "the tap changed the protocol");
    assert_eq!(hashed_tapped, hashed);
}

#[test]
fn duplicate_publish_is_deduplicated_network_wide() {
    let topic = Topic::new("test");
    let mut net: Network<GossipsubNode<AcceptAll>> = Network::new(
        UniformLatency {
            min_ms: 10,
            max_ms: 40,
        },
        3,
    );
    for peers in topology::random_regular(10, 5, 3) {
        let mut node = GossipsubNode::new(
            GossipsubConfig::default(),
            ScoringConfig::default(),
            peers,
            AcceptAll,
        );
        node.subscribe(topic.clone());
        net.add_node(node);
    }
    net.run_until(8_000);
    // two different peers publish identical bytes: content addressing
    // collapses them into one message
    for publisher in [0, 1] {
        net.invoke(NodeId(publisher), |node, ctx| {
            node.publish(ctx, topic.clone(), b"same-bytes")
        });
    }
    net.run_until(20_000);
    for i in 2..10 {
        let copies = net
            .node(NodeId(i))
            .delivered()
            .iter()
            .filter(|d| d.data() == b"same-bytes")
            .count();
        assert_eq!(copies, 1, "node {i} delivered {copies} copies");
    }
}

/// Bytes as a string, one `char` per byte (injective, always valid).
fn name(bytes: &[u8]) -> String {
    bytes.iter().map(|b| char::from(*b)).collect()
}

proptest! {
    #[test]
    fn memoized_id_is_the_computed_id(
        topic in proptest::collection::vec(any::<u8>(), 0..24),
        data in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let topic = Topic::new(name(&topic));
        let msg = RawMessage::new(topic.clone(), data.as_slice().into());
        prop_assert_eq!(msg.id(), MessageId::compute(&topic, &data));
        prop_assert_eq!(msg.topic(), &topic);
        prop_assert_eq!(msg.data(), &data);
        // a copy is the same message, id included
        let copy = msg.clone();
        prop_assert_eq!(copy.id(), msg.id());
        prop_assert_eq!(&copy, &msg);
    }

    #[test]
    fn equal_contents_share_an_id_and_any_difference_changes_it(
        topic in proptest::collection::vec(any::<u8>(), 0..24),
        data in proptest::collection::vec(any::<u8>(), 1..300),
        flip in any::<u32>(),
    ) {
        let build = |t: &[u8], d: &[u8]| RawMessage::new(Topic::new(name(t)), d.into());
        let msg = build(&topic, &data);
        // built independently (another allocation, another peer): same id
        let twin = build(&topic, &data);
        prop_assert_eq!(twin.id(), msg.id());
        prop_assert_eq!(&twin, &msg);

        let mut other_topic = topic.clone();
        other_topic.push(b'x');
        let renamed = build(&other_topic, &data);
        prop_assert_ne!(renamed.id(), msg.id());
        prop_assert_ne!(&renamed, &msg);

        let mut flipped = data.clone();
        let bit = flip as usize % (data.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        let corrupted = build(&topic, &flipped);
        prop_assert_ne!(corrupted.id(), msg.id());
        prop_assert_ne!(&corrupted, &msg);
    }

    #[test]
    fn cache_is_keyed_by_the_memoized_id(
        data in proptest::collection::vec(any::<u8>(), 0..120),
        windows in 1usize..5,
    ) {
        let topic = Topic::new("t");
        let id = MessageId::compute(&topic, &data);
        let msg = RawMessage::new(topic.clone(), data.as_slice().into());
        let mut cache = MessageCache::new(windows);
        prop_assert!(cache.get(&id).is_none());
        cache.put(msg.clone());
        // an equal message built elsewhere is the same entry
        cache.put(RawMessage::new(topic.clone(), data.as_slice().into()));
        prop_assert_eq!(cache.len(), 1);
        prop_assert_eq!(cache.get(&id), Some(&msg));
        prop_assert_eq!(cache.gossip_ids(&topic, windows), vec![id]);
        prop_assert!(cache.gossip_ids(&Topic::new("u"), windows).is_empty());
        // and it leaves with its window
        for _ in 0..windows {
            prop_assert_eq!(cache.get(&id), Some(&msg));
            cache.shift();
        }
        prop_assert!(cache.get(&id).is_none());
        prop_assert!(cache.is_empty());
    }
}
