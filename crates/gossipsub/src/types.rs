//! Wire types and the message cache.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use wakurln_netsim::{Bytes, Payload};

/// A pub/sub topic (peers congregate around topics, §I).
///
/// The name is interned in an `Arc<str>`: a topic rides in every
/// `Rpc::Forward`, [`Delivery`](crate::Delivery), mesh key and IHAVE, so
/// `clone()` is a reference-count bump rather than a heap copy of the
/// string. Equality, ordering and hashing are those of the name.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Topic(Arc<str>);

impl Topic {
    /// Creates a topic from any string-like value.
    pub fn new(name: impl Into<String>) -> Topic {
        Topic(name.into().into())
    }

    /// The topic's name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for Topic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Content-derived message identifier.
///
/// WAKU-RELAY strips all sender-identifying fields, so the id is a hash of
/// `(topic, data)` only — two peers publishing identical bytes produce the
/// same id (deduplicated), and nothing in the id links a message to its
/// origin.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MessageId(pub [u8; 32]);

impl MessageId {
    /// Computes the id for a `(topic, data)` pair: SHA-256 over
    /// `topic ‖ 0 ‖ data`. Routing code never calls this — it reads the
    /// id [`RawMessage::new`] memoized.
    pub fn compute(topic: &Topic, data: &[u8]) -> MessageId {
        let mut h = wakurln_crypto::sha256::Sha256::new();
        h.update(topic.as_str().as_bytes());
        h.update(&[0]);
        h.update(data);
        MessageId(h.finalize())
    }
}

impl std::fmt::Debug for MessageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "msg:")?;
        for b in &self.0[..6] {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// A routed message: topic plus opaque payload. Deliberately carries **no
/// sender field, signature, or sequence number** — the anonymization
/// WAKU-RELAY applies to GossipSub messages (§I: "removing personally
/// identifiable information that binds a message to its owner").
///
/// One reference-counted allocation holds `{ id, topic, data }`, built
/// once by [`RawMessage::new`] where the message enters the network and
/// shared by every copy after that: forwarding, caching and deferring a
/// message clone a reference count, and the content id is hashed **once
/// per message network-wide**, not once per received copy. The fields are
/// private and there is no mutator, so the memoized id cannot go stale or
/// be set to anything but [`MessageId::compute`] of the contents:
///
/// ```compile_fail,E0616
/// use wakurln_gossipsub::{RawMessage, Topic};
///
/// let msg = RawMessage::new(Topic::new("t"), b"payload".into());
/// let _ = &msg.0; // private: nothing outside this module reaches the parts
/// ```
///
/// This is host-side bookkeeping only. What a *device* would spend on a
/// frame is modelled separately (`Validator::last_cost_micros`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RawMessage(Arc<Shared>);

#[derive(Debug, PartialEq)]
struct Shared {
    id: MessageId,
    topic: Topic,
    data: Bytes,
}

impl RawMessage {
    /// Builds a message, deriving its content id (the only place routing
    /// code hashes a payload).
    pub fn new(topic: Topic, data: Bytes) -> RawMessage {
        let id = MessageId::compute(&topic, &data);
        RawMessage(Arc::new(Shared { id, topic, data }))
    }

    /// The content-derived id, memoized at construction.
    pub fn id(&self) -> MessageId {
        self.0.id
    }

    /// Destination topic.
    pub fn topic(&self) -> &Topic {
        &self.0.topic
    }

    /// Opaque payload (for WAKU-RLN-RELAY: a serialized RLN signal).
    pub fn data(&self) -> &Bytes {
        &self.0.data
    }
}

/// GossipSub RPC frames exchanged between peers.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Rpc {
    /// Announce subscription to a topic.
    Subscribe(Topic),
    /// Announce unsubscription.
    Unsubscribe(Topic),
    /// Full message forward (eager push along the mesh).
    Forward(RawMessage),
    /// Lazy gossip: "I have these messages" (heartbeat).
    IHave {
        /// Topic the ids belong to.
        topic: Topic,
        /// Advertised message ids.
        ids: Vec<MessageId>,
    },
    /// Request for full messages previously advertised via IHAVE.
    IWant {
        /// Requested ids.
        ids: Vec<MessageId>,
    },
    /// Request to join the sender's mesh for a topic.
    Graft(Topic),
    /// Removal from the sender's mesh for a topic.
    Prune(Topic),
    /// Liveness probe. The simulator has no transport-level connection
    /// teardown, so peers detect crashed neighbours by pinging quiet ones
    /// (see `GossipsubConfig::peer_timeout_ms`); a dead peer never
    /// answers and is pruned from the mesh after the timeout.
    Ping,
    /// Answer to a [`Rpc::Ping`].
    Pong,
}

impl Payload for Rpc {
    fn size_bytes(&self) -> usize {
        match self {
            Rpc::Subscribe(t) | Rpc::Unsubscribe(t) => 2 + t.as_str().len(),
            Rpc::Forward(m) => 2 + m.topic().as_str().len() + m.data().len(),
            Rpc::IHave { topic, ids } => 2 + topic.as_str().len() + 32 * ids.len(),
            Rpc::IWant { ids } => 2 + 32 * ids.len(),
            Rpc::Graft(t) | Rpc::Prune(t) => 2 + t.as_str().len(),
            Rpc::Ping | Rpc::Pong => 2,
        }
    }
}

/// The sliding-window message cache (`mcache`): full messages for the last
/// `history_length` heartbeats, with the most recent `history_gossip`
/// windows eligible for IHAVE gossip.
#[derive(Clone, Debug)]
pub struct MessageCache {
    history_length: usize,
    windows: Vec<Vec<MessageId>>,
    messages: HashMap<MessageId, RawMessage>,
}

impl MessageCache {
    /// Creates a cache with `history_length` windows.
    pub fn new(history_length: usize) -> MessageCache {
        assert!(history_length >= 1, "need at least one window");
        MessageCache {
            history_length,
            windows: vec![Vec::new()],
            messages: HashMap::new(),
        }
    }

    /// Inserts a message into the current window (idempotent), keyed by
    /// its memoized id.
    pub fn put(&mut self, msg: RawMessage) {
        let id = msg.id();
        if self.messages.insert(id, msg).is_none() {
            self.windows
                .last_mut()
                // lint:allow(panic-path, reason = "the constructor seeds one window and shift() never leaves the ring empty")
                .expect("at least one window")
                .push(id);
        }
    }

    /// Fetches a cached message by id.
    pub fn get(&self, id: &MessageId) -> Option<&RawMessage> {
        self.messages.get(id)
    }

    /// Ids in the most recent `gossip_windows` windows for `topic`.
    pub fn gossip_ids(&self, topic: &Topic, gossip_windows: usize) -> Vec<MessageId> {
        let start = self.windows.len().saturating_sub(gossip_windows);
        self.windows[start..]
            .iter()
            .flatten()
            .filter(|id| {
                self.messages
                    .get(id)
                    .map(|m| m.topic() == topic)
                    .unwrap_or(false)
            })
            .copied()
            .collect()
    }

    /// Advances to a new window, evicting the oldest if full.
    pub fn shift(&mut self) {
        self.windows.push(Vec::new());
        if self.windows.len() > self.history_length {
            let evicted = self.windows.remove(0);
            for id in evicted {
                self.messages.remove(&id);
            }
        }
    }

    /// Number of cached messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// `true` when no messages are cached.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(topic: &str, data: &[u8]) -> RawMessage {
        RawMessage::new(Topic::new(topic), data.into())
    }

    #[test]
    fn id_is_content_addressed_and_sender_free() {
        let a = msg("t", b"hello");
        let b = msg("t", b"hello");
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), msg("t", b"other").id());
        assert_ne!(a.id(), msg("u", b"hello").id());
    }

    #[test]
    fn cache_put_get_roundtrip() {
        let mut c = MessageCache::new(3);
        let m = msg("t", b"x");
        c.put(m.clone());
        assert_eq!(c.get(&m.id()), Some(&m));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn put_is_idempotent() {
        let mut c = MessageCache::new(3);
        c.put(msg("t", b"x"));
        c.put(msg("t", b"x"));
        assert_eq!(c.len(), 1);
        assert_eq!(c.gossip_ids(&Topic::new("t"), 3).len(), 1);
    }

    #[test]
    fn shift_evicts_oldest_window() {
        let mut c = MessageCache::new(2);
        let m1 = msg("t", b"1");
        c.put(m1.clone());
        c.shift();
        c.put(msg("t", b"2"));
        c.shift(); // m1's window evicted
        assert!(c.get(&m1.id()).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn gossip_ids_respect_window_and_topic() {
        let mut c = MessageCache::new(5);
        let old = msg("t", b"old");
        c.put(old.clone());
        c.shift();
        c.shift();
        c.put(msg("t", b"new"));
        c.put(msg("other", b"x"));
        // only 2 most recent windows
        let ids = c.gossip_ids(&Topic::new("t"), 2);
        assert_eq!(ids.len(), 1);
        assert_ne!(ids[0], old.id());
        // but a 3-window view still sees the old one
        assert_eq!(c.gossip_ids(&Topic::new("t"), 3).len(), 2);
    }

    #[test]
    fn rpc_sizes_reflect_content() {
        let small = Rpc::Forward(msg("t", b"x"));
        let big = Rpc::Forward(msg("t", &[0u8; 1000]));
        assert!(big.size_bytes() > small.size_bytes());
        let ihave = Rpc::IHave {
            topic: Topic::new("t"),
            ids: vec![MessageId([0; 32]); 4],
        };
        assert_eq!(ihave.size_bytes(), 2 + 1 + 128);
    }
}
