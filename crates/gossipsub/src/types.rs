//! Wire types and the message cache.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use wakurln_crypto::digest_hash::DigestState;
use wakurln_netsim::{Bytes, Payload};

/// A pub/sub topic (peers congregate around topics, §I).
///
/// The name is interned in an `Arc<str>`: a topic rides in every
/// message, topic entry and IHAVE, so `clone()` is a reference-count
/// bump rather than a heap copy of the string. Equality, ordering and
/// hashing are those of the name.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
#[derive(Clone, Debug, PartialEq)]
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
#[derive(Clone, Debug, PartialEq)]
pub enum Rpc {
    /// Announce subscription to a topic.
    Subscribe(Topic),
    /// Full message forward (eager push along the mesh).
    Forward(RawMessage),
    /// Lazy gossip: "I have these messages" (heartbeat).
    IHave {
        /// Topic the ids belong to.
        topic: Topic,
        /// Advertised message ids, built once per topic per heartbeat
        /// and shared by every target.
        ids: Rc<[MessageId]>,
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
            Rpc::Subscribe(t) => 2 + t.as_str().len(),
            Rpc::Forward(m) => 2 + m.topic().as_str().len() + m.data().len(),
            Rpc::IHave { topic, ids } => 2 + topic.as_str().len() + 32 * ids.len(),
            Rpc::IWant { ids } => 2 + 32 * ids.len(),
            Rpc::Graft(t) | Rpc::Prune(t) => 2 + t.as_str().len(),
            Rpc::Ping | Rpc::Pong => 2,
        }
    }
}

/// Makes room for one more element, growing a full vector to exactly
/// twice its length (1 → 2 → 4 …) rather than std's first jump to four
/// slots: most per-peer vectors hold one or two entries.
///
/// `wakurln-model` keeps an identical copy in `nullifier_map.rs`: no
/// crate that both it and this crate depend on owns `Vec` helpers, and
/// one line of Cargo edge per helper is not worth it before the crate
/// graph is collapsed.
pub(crate) fn reserve_doubling<T>(v: &mut Vec<T>) {
    if v.len() == v.capacity() {
        v.reserve_exact(v.len().max(1));
    }
}

/// `Entry::seen_at` of an id the seen-cache no longer holds (simulated
/// time never reaches it).
const NOT_SEEN: u64 = u64::MAX;

/// What a node holds for one message id.
#[derive(Clone, Debug)]
struct Entry {
    /// First-seen time (ms), refreshed by a publish; [`NOT_SEEN`] once
    /// the seen-cache TTL expired it.
    seen_at: u64,
    /// The message, while an mcache window holds it.
    cached: Option<RawMessage>,
    /// Published here with `publish_jitter_ms` on; cleared with the seen
    /// entry.
    own: bool,
}

impl Entry {
    const EMPTY: Entry = Entry {
        seen_at: NOT_SEEN,
        cached: None,
        own: false,
    };

    fn is_seen(&self) -> bool {
        self.seen_at != NOT_SEEN
    }
}

/// A node's per-message state in one id-keyed table: the seen-cache, the
/// sliding-window message cache (`mcache`) and the marks on own
/// publishes.
///
/// - *Seen:* every id first received or published less than `seen_ttl_ms`
///   before the last [`MessageCache::expire_seen`].
/// - *Cached:* full messages for the last `history_length` heartbeats, in
///   windows ordered oldest first, each holding its messages in put
///   order; the most recent `history_gossip` windows are eligible for
///   IHAVE gossip.
/// - *Own:* ids this node published while `publish_jitter_ms` was on:
///   every wire copy of these gets a fresh hold. An id is own only while
///   it is seen.
///
/// An entry lives while its id is seen or cached.
///
/// The table is keyed by SHA-256 message ids, so it hashes one word of
/// the id ([`DigestState`]) instead of SipHashing all 32 bytes. The
/// seen-cache keeps a lower bound on its oldest `seen_at`, so a
/// heartbeat's [`MessageCache::expire_seen`] walks the table only when
/// an entry can have reached the TTL.
#[derive(Clone, Debug)]
pub struct MessageCache {
    history_length: usize,
    /// Never empty: the last window is the current one.
    windows: Vec<Vec<RawMessage>>,
    table: HashMap<MessageId, Entry, DigestState>,
    /// Entries that are seen.
    seen: usize,
    /// Entries that are own.
    own: usize,
    /// At most the smallest `seen_at` of a seen entry ([`NOT_SEEN`] when
    /// none is seen): exact after a sweep, lowered by every new seen
    /// time, left alone when a re-publish raises one.
    oldest_seen: u64,
}

#[cfg(test)]
thread_local! {
    /// Full-table sweeps [`MessageCache::expire_seen`] ran on this thread.
    static SWEEPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl MessageCache {
    /// Creates a cache with `history_length` windows.
    pub fn new(history_length: usize) -> MessageCache {
        assert!(history_length >= 1, "need at least one window");
        let mut windows = Vec::with_capacity(history_length);
        windows.push(Vec::new());
        MessageCache {
            history_length,
            windows,
            table: HashMap::default(),
            seen: 0,
            own: 0,
            oldest_seen: NOT_SEEN,
        }
    }

    /// Adds `msg` to the current window unless a window already holds it.
    fn cache(windows: &mut [Vec<RawMessage>], entry: &mut Entry, msg: RawMessage) {
        if entry.cached.is_some() {
            return;
        }
        if let Some(current) = windows.last_mut() {
            reserve_doubling(current);
            current.push(msg.clone());
            entry.cached = Some(msg);
        }
    }

    /// Inserts a message into the current window (idempotent while it is
    /// cached), keyed by its memoized id.
    pub fn put(&mut self, msg: RawMessage) {
        let entry = self.table.entry(msg.id()).or_insert(Entry::EMPTY);
        MessageCache::cache(&mut self.windows, entry, msg);
    }

    /// Records our own publish of `msg` at `now`: its seen entry starts
    /// (or restarts) at `now`, the message is cached, and with `own` it
    /// is marked own.
    pub fn publish(&mut self, msg: RawMessage, now: u64, own: bool) {
        let entry = self.table.entry(msg.id()).or_insert(Entry::EMPTY);
        if !entry.is_seen() {
            self.seen += 1;
        }
        entry.seen_at = now;
        self.oldest_seen = self.oldest_seen.min(now);
        if own && !entry.own {
            entry.own = true;
            self.own += 1;
        }
        MessageCache::cache(&mut self.windows, entry, msg);
    }

    /// Marks `id` seen at `now`; `false` (and no change) when it already
    /// is — the message is a duplicate.
    pub fn first_seen(&mut self, id: MessageId, now: u64) -> bool {
        let entry = self.table.entry(id).or_insert(Entry::EMPTY);
        if entry.is_seen() {
            return false;
        }
        entry.seen_at = now;
        self.seen += 1;
        self.oldest_seen = self.oldest_seen.min(now);
        true
    }

    /// Whether the seen-cache holds `id`.
    pub fn is_seen(&self, id: &MessageId) -> bool {
        self.table.get(id).is_some_and(Entry::is_seen)
    }

    /// Whether `id` is an own publish still in the seen-cache.
    pub fn is_own(&self, id: &MessageId) -> bool {
        self.table.get(id).is_some_and(|e| e.own)
    }

    /// Fetches a cached message by id.
    pub fn get(&self, id: &MessageId) -> Option<&RawMessage> {
        self.table.get(id).and_then(|e| e.cached.as_ref())
    }

    /// Ids in the most recent `gossip_windows` windows for `topic`.
    pub fn gossip_ids(&self, topic: &Topic, gossip_windows: usize) -> Vec<MessageId> {
        let start = self.windows.len().saturating_sub(gossip_windows);
        self.windows[start..]
            .iter()
            .flatten()
            .filter(|m| m.topic() == topic)
            .map(RawMessage::id)
            .collect()
    }

    /// Advances to a new window, evicting the oldest once
    /// `history_length` windows are held.
    pub fn shift(&mut self) {
        if self.windows.len() == self.history_length {
            for msg in self.windows.remove(0) {
                let id = msg.id();
                if let Some(entry) = self.table.get_mut(&id) {
                    entry.cached = None;
                    if !entry.is_seen() {
                        self.table.remove(&id);
                    }
                }
            }
        }
        self.windows.push(Vec::new());
    }

    /// Expires every seen entry first seen `ttl_ms` or more before `now`,
    /// and its own mark with it, then drops entries left neither seen
    /// nor cached.
    ///
    /// Returns at once while no seen entry can have reached the TTL (every
    /// entry is seen or cached between calls, so there is nothing else to
    /// drop); otherwise sweeps the table and re-derives the bound on the
    /// oldest seen entry from the entries it keeps.
    pub fn expire_seen(&mut self, now: u64, ttl_ms: u64) {
        if now.saturating_sub(self.oldest_seen) < ttl_ms {
            return;
        }
        #[cfg(test)]
        SWEEPS.with(|sweeps| sweeps.set(sweeps.get() + 1));
        let (mut seen, mut own, mut oldest) = (self.seen, self.own, NOT_SEEN);
        // lint:allow(map-iteration, reason = "order-independent: per-entry TTL prune; entries are judged in isolation and the bound is a min")
        self.table.retain(|_, e| {
            if e.is_seen() && now.saturating_sub(e.seen_at) >= ttl_ms {
                e.seen_at = NOT_SEEN;
                seen -= 1;
                if e.own {
                    e.own = false;
                    own -= 1;
                }
            }
            oldest = oldest.min(e.seen_at);
            e.is_seen() || e.cached.is_some()
        });
        (self.seen, self.own, self.oldest_seen) = (seen, own, oldest);
    }

    /// Number of cached messages.
    pub fn len(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }

    /// `true` when no messages are cached.
    pub fn is_empty(&self) -> bool {
        self.windows.iter().all(Vec::is_empty)
    }

    /// Number of ids in the seen-cache.
    pub fn seen_len(&self) -> usize {
        self.seen
    }

    /// Number of own ids (always 0 while `publish_jitter_ms` is 0).
    pub fn own_len(&self) -> usize {
        self.own
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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

    /// The tables the one message table replaced, kept as the
    /// differential oracle: the node's `seen` map and own-published set
    /// and the mcache's message map and id windows, each driven by the
    /// rule the node applied to it.
    struct Reference {
        history_length: usize,
        seen: HashMap<MessageId, u64>,
        own: BTreeSet<MessageId>,
        windows: Vec<Vec<MessageId>>,
        messages: HashMap<MessageId, RawMessage>,
    }

    impl Reference {
        fn new(history_length: usize) -> Reference {
            Reference {
                history_length,
                seen: HashMap::new(),
                own: BTreeSet::new(),
                windows: vec![Vec::new()],
                messages: HashMap::new(),
            }
        }

        fn put(&mut self, msg: RawMessage) {
            let id = msg.id();
            if self.messages.insert(id, msg).is_none() {
                self.windows.last_mut().unwrap().push(id);
            }
        }

        fn publish(&mut self, msg: RawMessage, now: u64, jitter: bool) {
            self.seen.insert(msg.id(), now);
            if jitter {
                self.own.insert(msg.id());
            }
            self.put(msg);
        }

        fn first_seen(&mut self, id: MessageId, now: u64) -> bool {
            if self.seen.contains_key(&id) {
                return false;
            }
            self.seen.insert(id, now);
            true
        }

        fn shift(&mut self) {
            self.windows.push(Vec::new());
            if self.windows.len() > self.history_length {
                for id in self.windows.remove(0) {
                    self.messages.remove(&id);
                }
            }
        }

        fn expire_seen(&mut self, now: u64, ttl: u64) {
            self.seen.retain(|_, t| now.saturating_sub(*t) < ttl);
            let seen = &self.seen;
            self.own.retain(|id| seen.contains_key(id));
        }

        fn gossip_ids(&self, topic: &Topic, gossip_windows: usize) -> Vec<MessageId> {
            let start = self.windows.len().saturating_sub(gossip_windows);
            self.windows[start..]
                .iter()
                .flatten()
                .filter(|id| self.messages[*id].topic() == topic)
                .copied()
                .collect()
        }
    }

    /// Asserts every read of `cache` equals the oracle's, for every id of
    /// the message pool.
    fn assert_matches(cache: &MessageCache, oracle: &Reference, pool: &[RawMessage]) {
        assert_eq!(cache.seen_len(), oracle.seen.len());
        assert_eq!(cache.len(), oracle.messages.len());
        assert_eq!(cache.is_empty(), oracle.messages.is_empty());
        assert_eq!(cache.own_len(), oracle.own.len());
        for msg in pool {
            let id = msg.id();
            assert_eq!(cache.is_seen(&id), oracle.seen.contains_key(&id));
            assert_eq!(cache.is_own(&id), oracle.own.contains(&id));
            assert_eq!(cache.get(&id), oracle.messages.get(&id));
        }
        for topic in [Topic::new("a"), Topic::new("b")] {
            for windows in 0..=oracle.history_length + 1 {
                assert_eq!(
                    cache.gossip_ids(&topic, windows),
                    oracle.gossip_ids(&topic, windows)
                );
            }
        }
        // an entry lives exactly while its id is seen or cached
        let live: BTreeSet<MessageId> = oracle
            .seen
            .keys()
            .chain(oracle.messages.keys())
            .copied()
            .collect();
        assert_eq!(cache.table.len(), live.len());
    }

    proptest! {
        /// The one table is observably the two maps, the windows and the
        /// own set it replaced: random publishes (re-publishes of seen
        /// ids included, with and without jitter), first receipts, puts
        /// (after eviction included), shifts, seen expiries, IWANT gets
        /// and IHAVE id lists agree after every step, with seen TTLs
        /// shorter and longer than the cache history and clock steps of
        /// exactly `ttl − 1` and `ttl` among the small ones (the edges of
        /// the expiry bound).
        #[test]
        fn prop_message_table_matches_the_maps_it_replaced(
            history_length in 1usize..6,
            ttl in 0u64..12,
            ops in proptest::collection::vec((any::<u8>(), any::<u8>(), 0u64..5), 1..200),
        ) {
            let pool: Vec<RawMessage> = ["a", "b"]
                .iter()
                .flat_map(|t| (0u8..6).map(move |d| msg(t, &[d])))
                .collect();
            let mut cache = MessageCache::new(history_length);
            let mut oracle = Reference::new(history_length);
            let mut now = 0;
            for (kind, pick, step) in ops {
                now += match step {
                    3 => ttl.saturating_sub(1),
                    4 => ttl,
                    small => small,
                };
                let msg = pool[usize::from(pick) % pool.len()].clone();
                match kind % 6 {
                    0 => {
                        let jitter = pick >= 128;
                        cache.publish(msg.clone(), now, jitter);
                        oracle.publish(msg, now, jitter);
                    }
                    1 => prop_assert_eq!(
                        cache.first_seen(msg.id(), now),
                        oracle.first_seen(msg.id(), now)
                    ),
                    2 => {
                        cache.put(msg.clone());
                        oracle.put(msg);
                    }
                    3 => {
                        cache.shift();
                        oracle.shift();
                    }
                    4 => {
                        cache.expire_seen(now, ttl);
                        oracle.expire_seen(now, ttl);
                    }
                    _ => {
                        // a node heartbeat: shift, then expire
                        cache.shift();
                        cache.expire_seen(now, ttl);
                        oracle.shift();
                        oracle.expire_seen(now, ttl);
                    }
                }
                assert_matches(&cache, &oracle, &pool);
            }
        }
    }

    #[test]
    fn a_put_after_eviction_and_an_expiry_while_cached_keep_the_rules() {
        let mut c = MessageCache::new(2);
        let m = msg("t", b"x");
        c.publish(m.clone(), 0, true);
        // the seen entry expires while the message is still cached: the
        // own mark goes with it, the cached copy stays
        c.expire_seen(10, 10);
        assert!(!c.is_seen(&m.id()) && !c.is_own(&m.id()));
        assert_eq!(c.get(&m.id()), Some(&m));
        // eviction then drops the entry; a later put caches it afresh
        c.shift();
        c.shift();
        assert!(c.get(&m.id()).is_none() && c.table.is_empty());
        c.put(m.clone());
        assert_eq!(c.gossip_ids(&Topic::new("t"), 1), vec![m.id()]);
        // a re-publish of a seen id restarts its clock and caches nothing twice
        assert!(c.first_seen(m.id(), 20));
        c.publish(m.clone(), 30, false);
        c.expire_seen(39, 10);
        assert!(c.is_seen(&m.id()) && !c.is_own(&m.id()));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn expiry_sweeps_only_once_an_entry_can_have_reached_the_ttl() {
        const TTL: u64 = 10_000;
        let mut c = MessageCache::new(3);
        let (old_a, old_b, young) = (msg("t", b"a"), msg("t", b"b"), msg("t", b"y"));
        assert!(c.first_seen(old_a.id(), 0));
        c.publish(old_b.clone(), 0, true);
        c.publish(young.clone(), 4_000, false);
        let heartbeat = |c: &mut MessageCache, now: u64| {
            c.shift();
            c.expire_seen(now, TTL);
        };
        let start = SWEEPS.with(std::cell::Cell::get);
        let sweeps = || SWEEPS.with(std::cell::Cell::get) - start;
        // heartbeats before the oldest entry reaches the TTL do not sweep
        for now in (1_000..TTL).step_by(1_000) {
            heartbeat(&mut c, now);
        }
        assert_eq!((sweeps(), c.seen_len(), c.oldest_seen), (0, 3, 0));
        // the first one after sweeps once and expires exactly the old ids
        heartbeat(&mut c, TTL);
        assert_eq!(sweeps(), 1);
        assert!(!c.is_seen(&old_a.id()) && !c.is_seen(&old_b.id()));
        assert!(c.is_seen(&young.id()) && !c.is_own(&old_b.id()));
        assert_eq!((c.seen_len(), c.own_len(), c.table.len()), (1, 0, 1));
        assert_eq!(c.oldest_seen, 4_000);
        heartbeat(&mut c, 4_000 + TTL - 1);
        assert_eq!(sweeps(), 1);
        // re-publishing the oldest id raises its seen_at: the bound stays
        // below it (safe, no longer tight), so the heartbeat the old time
        // would have expired sweeps once, expires nothing and re-derives
        c.publish(young.clone(), 6_000, false);
        assert_eq!(c.oldest_seen, 4_000);
        heartbeat(&mut c, 4_000 + TTL);
        assert_eq!((sweeps(), c.seen_len(), c.oldest_seen), (2, 1, 6_000));
        heartbeat(&mut c, 6_000 + TTL - 1);
        assert_eq!(sweeps(), 2);
        heartbeat(&mut c, 6_000 + TTL);
        assert_eq!((sweeps(), c.seen_len(), c.oldest_seen), (3, 0, NOT_SEEN));
        // with nothing seen, no heartbeat sweeps
        heartbeat(&mut c, 100 * TTL);
        assert_eq!(sweeps(), 3);
        assert!(c.table.is_empty());
    }

    #[test]
    fn small_vectors_grow_one_two_four() {
        let mut v: Vec<u64> = Vec::new();
        let mut capacities = Vec::new();
        for k in 0..5 {
            reserve_doubling(&mut v);
            v.push(k);
            capacities.push(v.capacity());
        }
        assert_eq!(capacities, [1, 2, 4, 4, 8]);
    }

    #[test]
    fn rpc_sizes_reflect_content() {
        let small = Rpc::Forward(msg("t", b"x"));
        let big = Rpc::Forward(msg("t", &[0u8; 1000]));
        assert!(big.size_bytes() > small.size_bytes());
        let ihave = Rpc::IHave {
            topic: Topic::new("t"),
            ids: vec![MessageId([0; 32]); 4].into(),
        };
        assert_eq!(ihave.size_bytes(), 2 + 1 + 128);
    }
}
