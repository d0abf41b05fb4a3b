//! The GossipSub protocol state machine.

use crate::config::{GossipsubConfig, ScoringConfig};
use crate::neighbours::Neighbours;
use crate::score::PeerScore;
use crate::topics::{self, Topics};
use crate::types::{reserve_doubling, MessageCache, MessageId, RawMessage, Rpc, Topic};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;
use std::rc::Rc;
use wakurln_netsim::{Bytes, Context, Node, NodeId};

/// Heartbeat timer token.
const TIMER_HEARTBEAT: u64 = 0;

/// Batch-validation flush timer token (armed only when the validator
/// reports a [`Validator::flush_interval_ms`]).
const TIMER_FLUSH: u64 = 1;

#[cfg(test)]
thread_local! {
    /// Full liveness sweeps [`GossipsubNode::heartbeat`] ran on this
    /// thread.
    static LIVENESS_SWEEPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Mesh eviction scans [`GossipsubNode::heartbeat`] ran on this thread.
    static EVICTION_SCANS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Application verdict on an incoming message, produced by a [`Validator`].
///
/// WAKU-RLN-RELAY plugs its proof/epoch/nullifier checks in through this
/// hook (§III "Routing and Slashing": "A routing peer follows the regular
/// routing protocol of WAKU-RELAY […] and additionally does the
/// verification steps of the RLN framework").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValidationResult {
    /// Deliver locally and forward to the mesh.
    Accept,
    /// Drop and penalize the forwarding peer (counts toward P4).
    Reject,
    /// Drop silently (e.g. out-of-window epoch from an honest but laggy
    /// peer — invalid, but not necessarily malicious).
    Ignore,
}

/// Outcome of handing a message to a (possibly batching) validator via
/// [`Validator::submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The verdict is available immediately (serial validators).
    Decided(ValidationResult),
    /// The message was queued; its verdict will be released by a later
    /// [`Validator::flush`] under this ticket.
    Deferred(u64),
}

/// One deferred verdict released by [`Validator::flush`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchDecision {
    /// The ticket handed out by [`Validator::submit`].
    pub ticket: u64,
    /// The verdict for the queued message.
    pub result: ValidationResult,
    /// Simulated CPU cost attributed to this message, microseconds.
    pub cost_micros: u64,
}

/// Message validation hook.
///
/// Serial validators implement [`Validator::validate`] only. Batching
/// validators (e.g. WAKU-RLN-RELAY's staged proof-verification pipeline)
/// additionally override the `submit`/`flush` family: `submit` may defer
/// a message, and the node completes delivery/forwarding when a later
/// `flush` — triggered by a full batch or the flush timer — releases the
/// verdict.
pub trait Validator {
    /// Judges a message before delivery/forwarding. `now_ms` is simulated
    /// time; implementations may mutate internal state (nullifier maps…).
    fn validate(&mut self, now_ms: u64, topic: &Topic, data: &[u8]) -> ValidationResult;

    /// Simulated CPU cost of the validation just performed, in
    /// microseconds (drives the E6/E9 relayer-overhead accounting).
    fn last_cost_micros(&self) -> u64 {
        0
    }

    /// Hands a message to the validator, allowing it to defer the
    /// verdict for batched processing. The default forwards to
    /// [`Validator::validate`] and always decides immediately.
    fn submit(&mut self, now_ms: u64, topic: &Topic, data: &[u8]) -> SubmitOutcome {
        SubmitOutcome::Decided(self.validate(now_ms, topic, data))
    }

    /// Whether the internal batch has reached the size at which the node
    /// should flush without waiting for the timer.
    fn flush_due(&self) -> bool {
        false
    }

    /// Resolves queued messages, returning one [`BatchDecision`] per
    /// deferred ticket that is now decided (possibly none).
    fn flush(&mut self, _now_ms: u64) -> Vec<BatchDecision> {
        Vec::new()
    }

    /// The bounded staleness of the batch, i.e. how often the node should
    /// fire a flush timer. `None` (the default) disables the timer — the
    /// validator never defers.
    fn flush_interval_ms(&self) -> Option<u64> {
        None
    }
}

/// Accepts everything at zero cost (plain WAKU-RELAY behaviour).
#[derive(Clone, Copy, Debug, Default)]
pub struct AcceptAll;

impl Validator for AcceptAll {
    fn validate(&mut self, _now_ms: u64, _topic: &Topic, _data: &[u8]) -> ValidationResult {
        ValidationResult::Accept
    }
}

/// One wire-level record taken by a passive observer tap: a `Forward`
/// frame arrived, carrying message `id`, handed over by neighbour
/// `from`, at simulated time `at_ms`.
///
/// This is exactly the view a network-level adversary controlling this
/// node gets *without* breaking any cryptography — no payload contents,
/// no signatures, just content id, timing and the previous hop. The
/// source-attribution estimators of the gossip-privacy literature
/// ("first spy" / earliest arrival, and centrality variants) operate on
/// collections of these records pooled across colluding observers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Observation {
    /// Content-derived message id of the observed `Forward`.
    pub id: MessageId,
    /// The neighbour that forwarded the message to the observer.
    pub from: NodeId,
    /// Simulated arrival time, milliseconds.
    pub at_ms: u64,
}

/// A message delivered to the local application: the network-wide
/// message handle (nothing is copied per delivery) and the arrival time.
#[derive(Clone, Debug, PartialEq)]
pub struct Delivery {
    msg: RawMessage,
    /// Simulated arrival time (ms).
    pub at_ms: u64,
}

const _: () = assert!(std::mem::size_of::<Delivery>() == 16);

impl Delivery {
    /// Content id.
    pub fn id(&self) -> MessageId {
        self.msg.id()
    }

    /// Topic it arrived on.
    pub fn topic(&self) -> &Topic {
        self.msg.topic()
    }

    /// Payload.
    pub fn data(&self) -> &Bytes {
        self.msg.data()
    }
}

/// A GossipSub v1.1 peer with a pluggable validator.
///
/// # Examples
///
/// See the crate-level docs for a complete small-network example; unit
/// tests in this module exercise mesh formation, gossip recovery and
/// score-based defenses.
#[derive(Clone)]
pub struct GossipsubNode<V: Validator> {
    config: GossipsubConfig,
    /// Peers we can open connections to (bootstrap set), in the order
    /// `on_start` announces to them.
    known_peers: Vec<NodeId>,
    /// Per topic: our subscription, our mesh, the peers known to
    /// subscribe (learned from Subscribe RPCs) and the graft backoffs.
    topics: Topics,
    /// Per message id: the seen-cache entry, the mcache copy and the own
    /// mark. Every wire copy of an own id — eager push *and* IWANT
    /// serving — gets a fresh hold, so no path leaks the unjittered
    /// `from = publisher` timing.
    mcache: MessageCache,
    /// Per remote peer: liveness clock, this heartbeat's IWANT budgets
    /// (per *heartbeat*, not per RPC, so splitting ids across many IWANT
    /// frames — or re-requesting the same id — cannot drain unbounded
    /// payload bytes out of the cache) and the score counters.
    neighbours: Neighbours,
    validator: V,
    delivered: Vec<Delivery>,
    /// Passive observer tap: when enabled, every incoming `Forward`
    /// frame is recorded as an [`Observation`] (duplicates included —
    /// the adversary sees the wire, not the dedup cache).
    observer: bool,
    /// Records taken while `observer` is set, in arrival order.
    observations: Vec<Observation>,
    /// Messages whose validation verdict is deferred inside a batching
    /// validator, keyed by the validator's ticket. Delivery and
    /// forwarding complete when a flush releases the verdict.
    pending_validation: HashMap<u64, (NodeId, RawMessage)>,
}

impl<V: Validator> GossipsubNode<V> {
    /// Creates a node with the given bootstrap peers and validator.
    pub fn new(
        config: GossipsubConfig,
        scoring: ScoringConfig,
        known_peers: Vec<NodeId>,
        validator: V,
    ) -> GossipsubNode<V> {
        config.assert_valid();
        scoring.assert_valid();
        GossipsubNode {
            mcache: MessageCache::new(config.history_length),
            config,
            neighbours: Neighbours::new(scoring, known_peers.len()),
            known_peers,
            topics: Topics::default(),
            validator,
            delivered: Vec::new(),
            observer: false,
            observations: Vec::new(),
            pending_validation: HashMap::new(),
        }
    }

    /// Subscribes to a topic (call before the simulation starts).
    pub fn subscribe(&mut self, topic: Topic) {
        let t = self.topics.entry(&topic);
        t.subscribed = true;
        // the bootstrap set answers our announcement: size for it once
        let missing = self.known_peers.len().saturating_sub(t.subscribers.len());
        t.subscribers.reserve_exact(missing);
    }

    /// Publishes a message to a topic: eager-push to the mesh (or to known
    /// topic peers while the mesh is still forming). The payload is
    /// shared ([`Bytes`]) from here on — each forward clones a reference,
    /// not the bytes.
    pub fn publish(
        &mut self,
        ctx: &mut Context<Rpc>,
        topic: Topic,
        data: impl Into<Bytes>,
    ) -> MessageId {
        // the one place a payload is hashed: every copy made from here on
        // shares this allocation and reads the id
        let msg = RawMessage::new(topic, data.into());
        let id = msg.id();
        let jitter = self.config.publish_jitter_ms;
        // with jitter on, mark the id own so IWANT serving jitters it too
        // — the message enters the mcache (and so our IHAVE gossip)
        // immediately, and an unjittered IWANT reply would hand an
        // observer exactly the from=publisher timing signal the
        // eager-push holds below are hiding
        self.mcache.publish(msg.clone(), ctx.now(), jitter > 0);
        ctx.count("published", 1);
        for peer in self.eager_targets(msg.topic(), None) {
            if jitter > 0 {
                // source-anonymity countermeasure: each first-hop copy is
                // held back independently, so the neighbour that hears us
                // first is no longer determined by link latency alone
                let hold = ctx.rng().gen_range(0..=jitter);
                ctx.send_delayed(peer, Rpc::Forward(msg.clone()), hold);
            } else {
                ctx.send(peer, Rpc::Forward(msg.clone()));
            }
        }
        id
    }

    /// Switches the passive observer tap on or off (the colluding
    /// surveillance adversary of the scenario library): while enabled,
    /// every incoming `Forward` frame is recorded as an [`Observation`].
    /// Purely read-side — an observer's protocol behaviour is unchanged.
    pub fn set_observer(&mut self, observer: bool) {
        self.observer = observer;
    }

    /// The wire-level records taken while the observer tap was enabled,
    /// in arrival order.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// Messages delivered to the application so far.
    pub fn delivered(&self) -> &[Delivery] {
        &self.delivered
    }

    /// Drains the delivered-message buffer.
    pub fn take_delivered(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.delivered)
    }

    /// Current mesh for a topic (test/diagnostic access).
    pub fn mesh_peers(&self, topic: &Topic) -> Vec<NodeId> {
        self.topics
            .get(topic)
            .map(|t| t.mesh.clone())
            .unwrap_or_default()
    }

    /// The peer-score table (diagnostics; baselines read attacker scores).
    pub fn peer_score(&self) -> PeerScore<'_> {
        self.neighbours.score()
    }

    /// Entries currently in the seen-cache (bounded by `seen_ttl_ms` GC;
    /// soak tests hold the long-horizon memory contract to this).
    pub fn seen_len(&self) -> usize {
        self.mcache.seen_len()
    }

    /// Messages currently held across the mcache's history windows
    /// (bounded by `history_length` shifts).
    pub fn mcache_len(&self) -> usize {
        self.mcache.len()
    }

    /// Own-published ids still tracked for jittered IWANT serving
    /// (GC'd with the seen-cache; empty whenever `publish_jitter_ms` is 0).
    pub fn own_published_len(&self) -> usize {
        self.mcache.own_len()
    }

    /// Messages awaiting a deferred validation verdict (bounded by the
    /// batching validator's flush interval).
    pub fn pending_validation_len(&self) -> usize {
        self.pending_validation.len()
    }

    /// Forgets every deferred verdict. Call it when the validator's batch
    /// is discarded (a cold restart): the tickets it handed out will never
    /// be released, and the validator's next tickets would collide with
    /// them.
    pub fn clear_pending_validation(&mut self) {
        self.pending_validation.clear();
    }

    /// The validator (e.g. to read RLN spam-detection state).
    pub fn validator(&self) -> &V {
        &self.validator
    }

    /// Mutable validator access.
    pub fn validator_mut(&mut self) -> &mut V {
        &mut self.validator
    }

    /// Peers a message on `topic` is eagerly pushed to, in ascending id
    /// order (borrowed from the tables — nothing is collected per forward).
    fn eager_targets<'a>(
        &'a self,
        topic: &Topic,
        exclude: Option<NodeId>,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let (candidates, limit): (&[NodeId], usize) = match self.topics.get(topic) {
            Some(t) if !t.mesh.is_empty() => (&t.mesh, usize::MAX),
            // mesh not yet formed: fall back to known subscribers
            Some(t) => (&t.subscribers, self.config.mesh_n),
            None => (&[], 0),
        };
        candidates
            .iter()
            .copied()
            .take(limit)
            .filter(move |p| Some(*p) != exclude)
            .filter(|p| self.peer_score().accepts_publish(*p))
    }

    fn handle_forward(&mut self, ctx: &mut Context<Rpc>, from: NodeId, msg: RawMessage) {
        // read, not hashed: the id was derived once where the message was
        // built and every copy on the wire shares it
        if !self.mcache.first_seen(msg.id(), ctx.now()) {
            ctx.count("duplicates", 1);
            return;
        }

        match self.validator.submit(ctx.now(), msg.topic(), msg.data()) {
            SubmitOutcome::Decided(verdict) => {
                ctx.charge_cpu(self.validator.last_cost_micros());
                self.apply_verdict(ctx, from, msg, verdict);
            }
            SubmitOutcome::Deferred(ticket) => {
                ctx.count("validation_deferred", 1);
                self.pending_validation.insert(ticket, (from, msg));
                if self.validator.flush_due() {
                    self.complete_flush(ctx);
                }
            }
        }
    }

    /// Completes processing of a validated message: scoring, local
    /// delivery and mesh forwarding. Shared by the immediate path and the
    /// batched-flush path.
    fn apply_verdict(
        &mut self,
        ctx: &mut Context<Rpc>,
        from: NodeId,
        msg: RawMessage,
        verdict: ValidationResult,
    ) {
        match verdict {
            ValidationResult::Reject => {
                self.neighbours.record_invalid(from);
                ctx.count("rejected", 1);
                return;
            }
            ValidationResult::Ignore => {
                ctx.count("ignored", 1);
                return;
            }
            ValidationResult::Accept => {}
        }

        self.neighbours.record_first_delivery(from);
        if self.topics.subscribed(msg.topic()) {
            reserve_doubling(&mut self.delivered);
            self.delivered.push(Delivery {
                msg: msg.clone(),
                at_ms: ctx.now(),
            });
            ctx.count("delivered_app", 1);
        }
        self.mcache.put(msg.clone());
        for peer in self.eager_targets(msg.topic(), Some(from)) {
            ctx.send(peer, Rpc::Forward(msg.clone()));
        }
    }

    /// Drains the validator's batch and completes every released verdict.
    fn complete_flush(&mut self, ctx: &mut Context<Rpc>) {
        for decision in self.validator.flush(ctx.now()) {
            let Some((from, msg)) = self.pending_validation.remove(&decision.ticket) else {
                continue; // unknown ticket: validator-internal bookkeeping
            };
            ctx.charge_cpu(decision.cost_micros);
            self.apply_verdict(ctx, from, msg, decision.result);
        }
    }

    fn handle_ihave(
        &mut self,
        ctx: &mut Context<Rpc>,
        from: NodeId,
        topic: Topic,
        ids: Rc<[MessageId]>,
    ) {
        // IHAVE for a topic we never subscribed to buys the advertiser
        // nothing but would still spend our IWANT budget and pull
        // payloads that validation drops on arrival — ignore it outright
        if !self.topics.subscribed(&topic) {
            ctx.count("ihave_ignored_unsubscribed", 1);
            return;
        }
        if !self.peer_score().accepts_gossip(from) {
            ctx.count("ihave_ignored_low_score", 1);
            return;
        }
        let spent = self.neighbours.iwant_spent(from);
        let budget = self.config.max_iwant_per_heartbeat.saturating_sub(spent);
        let wanted: Vec<MessageId> = ids
            .iter()
            .copied()
            .filter(|id| !self.mcache.is_seen(id))
            .take(budget)
            .collect();
        if wanted.is_empty() {
            return;
        }
        self.neighbours.spend_iwant(from, wanted.len());
        ctx.count("iwant_sent", wanted.len() as u64);
        ctx.send(from, Rpc::IWant { ids: wanted });
    }

    fn handle_iwant(&mut self, ctx: &mut Context<Rpc>, from: NodeId, ids: Vec<MessageId>) {
        // the serving budget is per peer per *heartbeat*, not per RPC: a
        // peer splitting ids across many IWANT frames (or re-requesting
        // the same id) would otherwise drain unbounded full payloads out
        // of the mcache between two heartbeats — a classic
        // request-amplification vector, since an IWANT id costs the
        // requester 32 bytes and the responder a whole message
        let served = self.neighbours.iwant_served(from);
        let budget = self.config.max_iwant_per_heartbeat.saturating_sub(served);
        let mut sent = 0usize;
        let mut capped = 0u64;
        for id in ids {
            if sent >= budget {
                capped += 1;
                continue;
            }
            if let Some(msg) = self.mcache.get(&id) {
                let jitter = self.config.publish_jitter_ms;
                if jitter > 0 && self.mcache.is_own(&id) {
                    // serving our own fresh message is a first hop too:
                    // an unjittered reply would leak the exact
                    // from=publisher timing the eager-push holds hide
                    let hold = ctx.rng().gen_range(0..=jitter);
                    ctx.send_delayed(from, Rpc::Forward(msg.clone()), hold);
                } else {
                    ctx.send(from, Rpc::Forward(msg.clone()));
                }
                sent += 1;
            }
        }
        self.neighbours.serve_iwant(from, sent);
        if capped > 0 {
            ctx.count("iwant_served_capped", capped);
        }
    }

    fn handle_graft(&mut self, ctx: &mut Context<Rpc>, from: NodeId, topic: Topic) {
        let acceptable = !self.peer_score().should_evict(from);
        // only peers that announced the subscription may graft: a mesh
        // slot hands out eager-push fan-out, and granting it to a peer
        // that never subscribed lets an adversary collect full-message
        // streams for topics it has no stake in
        let admissible = self
            .topics
            .get_mut(&topic)
            .filter(|t| t.subscribed && topics::contains(&t.subscribers, from) && acceptable);
        if let Some(t) = admissible {
            // cap admissions at D_hi: an unbounded GRAFT flood would
            // otherwise inflate the mesh (and with it every eager-push
            // fan-out) arbitrarily until the next heartbeat prunes it
            if topics::contains(&t.mesh, from) || t.mesh.len() < self.config.mesh_n_high {
                topics::insert(&mut t.mesh, from);
                self.neighbours.set_in_mesh(from, true);
                self.neighbours.joined(ctx.now());
                return;
            }
            ctx.count("graft_rejected_mesh_full", 1);
        }
        ctx.send(from, Rpc::Prune(topic));
    }

    fn handle_prune(&mut self, from: NodeId, topic: &Topic) {
        if let Some(t) = self.topics.get_mut(topic) {
            topics::remove(&mut t.mesh, from);
        }
        let still_meshed = self.topics.iter().any(|t| topics::contains(&t.mesh, from));
        self.neighbours.set_in_mesh(from, still_meshed);
    }

    /// Churn repair: ping quiet peers, presume peers silent beyond the
    /// timeout dead, and drop them from mesh and candidate tables so the
    /// graft step can backfill with live peers.
    fn liveness_sweep(&mut self, ctx: &mut Context<Rpc>) {
        let timeout = self.config.peer_timeout_ms;
        if timeout == 0 {
            return;
        }
        let now = ctx.now();
        // nobody has been quiet for half the timeout yet: there is no one
        // to ping or time out
        if !self.neighbours.liveness_due(now, timeout / 2) {
            return;
        }
        #[cfg(test)]
        LIVENESS_SWEEPS.with(|sweeps| sweeps.set(sweeps.get() + 1));
        // everyone we currently track, ascending: mesh members plus known
        // topic peers
        let mut tracked: Vec<NodeId> = self
            .topics
            .iter()
            .flat_map(|t| t.mesh.iter().chain(&t.subscribers))
            .copied()
            .collect();
        tracked.sort_unstable();
        tracked.dedup();
        let mut dead: Vec<NodeId> = Vec::new();
        let mut floor = u64::MAX;
        for peer in tracked {
            let last = self.neighbours.clock(peer, now);
            let quiet_ms = now.saturating_sub(last);
            if quiet_ms >= timeout {
                dead.push(peer);
                continue;
            }
            floor = floor.min(last);
            if quiet_ms >= timeout / 2 {
                ctx.send(peer, Rpc::Ping);
                ctx.count("pings_sent", 1);
            }
        }
        self.neighbours.set_heard_floor(floor);
        for peer in dead {
            for t in self.topics.iter_mut() {
                topics::remove(&mut t.mesh, peer);
                topics::remove(&mut t.subscribers, peer);
            }
            self.neighbours.presume_dead(peer);
            ctx.count("peers_presumed_dead", 1);
        }
    }

    /// Asserts the neighbour table's invariants against the peers this
    /// node tracks.
    #[cfg(test)]
    fn check_invariants(&self) {
        let tracked = self
            .topics
            .iter()
            .flat_map(|t| t.mesh.iter().chain(&t.subscribers))
            .copied();
        self.neighbours.check_invariants(tracked);
    }

    fn heartbeat(&mut self, ctx: &mut Context<Rpc>) {
        self.neighbours.heartbeat();
        self.liveness_sweep(ctx);

        // sweep expired graft backoffs so the table stays bounded by the
        // set of peers that pruned us within the last backoff window
        let now = ctx.now();
        self.topics.sweep_backoffs(now);

        for t in self.topics.iter_mut().filter(|t| t.subscribed) {
            // evict misbehaving peers (only a peer with invalid messages
            // on record can score low enough)
            if self.neighbours.any_invalid() {
                #[cfg(test)]
                EVICTION_SCANS.with(|scans| scans.set(scans.get() + 1));
                let evict: Vec<NodeId> = t
                    .mesh
                    .iter()
                    .copied()
                    .filter(|p| self.neighbours.score().should_evict(*p))
                    .collect();
                for peer in evict {
                    topics::remove(&mut t.mesh, peer);
                    ctx.send(peer, Rpc::Prune(t.topic.clone()));
                    self.neighbours.set_in_mesh(peer, false);
                    ctx.count("mesh_evictions", 1);
                }
            }

            // graft up to D when below D_lo
            if t.mesh.len() < self.config.mesh_n_low {
                let need = self.config.mesh_n - t.mesh.len();
                let mut suppressed = 0u64;
                let mut candidates: Vec<NodeId> = t
                    .subscribers
                    .iter()
                    .copied()
                    .filter(|p| !topics::contains(&t.mesh, *p))
                    .filter(|p| !self.neighbours.score().should_evict(*p))
                    .filter(|p| {
                        // a peer that pruned us stays off-limits until
                        // its backoff window expires
                        let held = t.backoff_until(*p).is_some_and(|until| until > now);
                        if held {
                            suppressed += 1;
                        }
                        !held
                    })
                    .collect();
                if suppressed > 0 {
                    ctx.count("graft_suppressed_backoff", suppressed);
                }
                candidates.shuffle(ctx.rng());
                for peer in candidates.into_iter().take(need) {
                    topics::insert(&mut t.mesh, peer);
                    // a subscriber, so already under the liveness floor
                    self.neighbours.set_in_mesh(peer, true);
                    ctx.send(peer, Rpc::Graft(t.topic.clone()));
                }
            }

            // prune down to D when above D_hi
            if t.mesh.len() > self.config.mesh_n_high {
                let mut members = t.mesh.clone();
                // keep the best-scoring peers
                let score = self.neighbours.score();
                members.sort_by(|a, b| score.score(*b).total_cmp(&score.score(*a)));
                for peer in members.into_iter().skip(self.config.mesh_n) {
                    topics::remove(&mut t.mesh, peer);
                    ctx.send(peer, Rpc::Prune(t.topic.clone()));
                    self.neighbours.set_in_mesh(peer, false);
                }
            }

            // lazy gossip: IHAVE to non-mesh peers
            let ids = self.mcache.gossip_ids(&t.topic, self.config.history_gossip);
            if !ids.is_empty() {
                let ids: Rc<[MessageId]> = ids.into();
                let score = self.neighbours.score();
                let mut candidates: Vec<NodeId> = t
                    .subscribers
                    .iter()
                    .copied()
                    .filter(|p| !topics::contains(&t.mesh, *p))
                    .filter(|p| score.accepts_gossip(*p))
                    .collect();
                candidates.shuffle(ctx.rng());
                for peer in candidates.into_iter().take(self.config.gossip_lazy) {
                    ctx.send(
                        peer,
                        Rpc::IHave {
                            topic: t.topic.clone(),
                            ids: ids.clone(),
                        },
                    );
                }
            }
        }

        self.mcache.shift();
        self.mcache.expire_seen(now, self.config.seen_ttl_ms);
        ctx.set_timer(self.config.heartbeat_ms, TIMER_HEARTBEAT);
    }
}

impl<V: Validator> Node for GossipsubNode<V> {
    type Message = Rpc;

    fn on_start(&mut self, ctx: &mut Context<Rpc>) {
        for t in self.topics.iter().filter(|t| t.subscribed) {
            for &peer in &self.known_peers {
                ctx.send(peer, Rpc::Subscribe(t.topic.clone()));
            }
        }
        // desynchronize heartbeats across the network
        let jitter = ctx.rng().gen_range(0..self.config.heartbeat_ms);
        ctx.set_timer(self.config.heartbeat_ms + jitter, TIMER_HEARTBEAT);
        if let Some(interval) = self.validator.flush_interval_ms() {
            ctx.set_timer(interval, TIMER_FLUSH);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<Rpc>, from: NodeId, msg: Rpc) {
        // any frame proves liveness, even one we will refuse to process
        self.neighbours.heard(from, ctx.now());
        if self.peer_score().graylisted(from) {
            ctx.count("rpc_graylisted", 1);
            return;
        }
        match msg {
            Rpc::Subscribe(topic) => {
                let t = self.topics.entry(&topic);
                let newly_learned = topics::insert(&mut t.subscribers, from);
                if newly_learned {
                    self.neighbours.joined(ctx.now());
                }
                // Subscription exchange (as on libp2p connection setup):
                // announce our own interest back to a newly seen peer so
                // late joiners discover established subscribers. The
                // `newly_learned` guard terminates the exchange.
                if newly_learned && t.subscribed {
                    ctx.send(from, Rpc::Subscribe(topic));
                }
            }
            Rpc::Forward(raw) => {
                if self.observer {
                    // wire-level tap: record before dedup/validation —
                    // the adversary sees every arriving frame, not the
                    // protocol's view of it
                    self.observations.push(Observation {
                        id: raw.id(),
                        from,
                        at_ms: ctx.now(),
                    });
                    ctx.count("observations_recorded", 1);
                }
                self.handle_forward(ctx, from, raw);
            }
            Rpc::IHave { topic, ids } => self.handle_ihave(ctx, from, topic, ids),
            Rpc::IWant { ids } => self.handle_iwant(ctx, from, ids),
            Rpc::Graft(topic) => self.handle_graft(ctx, from, topic),
            Rpc::Prune(topic) => {
                self.handle_prune(from, &topic);
                // honour the pruner's capacity decision for a while: the
                // heartbeat graft step skips this peer until the backoff
                // expires, instead of re-grafting every heartbeat into a
                // mesh that just told us it is full
                if self.config.prune_backoff_ms > 0 {
                    self.topics
                        .entry(&topic)
                        .set_backoff(from, ctx.now() + self.config.prune_backoff_ms);
                }
                // graft admission requires the pruner to have heard our
                // Subscribe, but that announcement is one-shot and can
                // be lost on a lossy link — without repair the pair
                // would loop graft → prune every heartbeat forever.
                // Re-announcing here resynchronizes subscription state
                // at one small frame per prune; the `newly_learned`
                // guard on the receiving side keeps it loop-free.
                if self.topics.subscribed(&topic) {
                    ctx.send(from, Rpc::Subscribe(topic));
                }
            }
            Rpc::Ping => ctx.send(from, Rpc::Pong),
            Rpc::Pong => {} // the `last_heard` update above is the point
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<Rpc>, token: u64) {
        if token == TIMER_HEARTBEAT {
            self.heartbeat(ctx);
        } else if token == TIMER_FLUSH {
            self.complete_flush(ctx);
            if let Some(interval) = self.validator.flush_interval_ms() {
                ctx.set_timer(interval, TIMER_FLUSH);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wakurln_netsim::{topology, Network, UniformLatency};

    type Net = Network<GossipsubNode<AcceptAll>>;

    /// Asserts every node's neighbour-table invariants (removed nodes
    /// included: their tables froze when they crashed).
    fn check_invariants<V: Validator>(net: &Network<GossipsubNode<V>>) {
        for i in 0..net.len() {
            net.node(NodeId(i)).check_invariants();
        }
    }

    /// A fixed 10 ms link delay.
    const TEN_MS: UniformLatency = UniformLatency {
        min_ms: 10,
        max_ms: 10,
    };

    fn build_network(n: usize, seed: u64) -> Net {
        let topic = Topic::new("test");
        let adjacency = topology::random_regular(n, 6, seed);
        let mut net: Net = Network::new(
            UniformLatency {
                min_ms: 10,
                max_ms: 50,
            },
            seed,
        );
        for peers in adjacency {
            let mut node = GossipsubNode::new(
                GossipsubConfig::default(),
                ScoringConfig::default(),
                peers,
                AcceptAll,
            );
            node.subscribe(topic.clone());
            net.add_node(node);
        }
        net
    }

    #[test]
    fn meshes_form_within_degree_bounds() {
        let mut net = build_network(30, 1);
        net.run_until(10_000);
        let topic = Topic::new("test");
        let cfg = GossipsubConfig::default();
        for i in 0..30 {
            let mesh = net.node(NodeId(i)).mesh_peers(&topic);
            assert!(
                !mesh.is_empty(),
                "node {i} has an empty mesh after formation"
            );
            assert!(
                mesh.len() <= cfg.mesh_n_high + cfg.mesh_n,
                "node {i} oversized"
            );
        }
        check_invariants(&net);
    }

    #[test]
    fn publish_reaches_all_subscribers() {
        let mut net = build_network(40, 2);
        net.run_until(10_000); // mesh formation
        let topic = Topic::new("test");
        net.invoke(NodeId(0), |node, ctx| {
            node.publish(ctx, Topic::new("test"), b"hello network".to_vec())
        });
        net.run_until(30_000);
        let mut received = 0;
        for i in 1..40 {
            if net
                .node(NodeId(i))
                .delivered()
                .iter()
                .any(|d| *d.topic() == topic && d.data() == b"hello network")
            {
                received += 1;
            }
        }
        assert!(
            received >= 38,
            "only {received}/39 subscribers got the message"
        );
        check_invariants(&net);
    }

    #[test]
    fn gossip_recovers_from_packet_loss() {
        let mut net = build_network(30, 3);
        net.run_until(10_000);
        net.set_loss_probability(0.20);
        net.invoke(NodeId(0), |node, ctx| {
            node.publish(ctx, Topic::new("test"), b"lossy".to_vec())
        });
        // several heartbeats give IHAVE/IWANT time to fill gaps
        net.run_until(40_000);
        let received = (1..30)
            .filter(|i| {
                net.node(NodeId(*i))
                    .delivered()
                    .iter()
                    .any(|d| d.data() == b"lossy")
            })
            .count();
        assert!(received >= 27, "only {received}/29 after gossip recovery");
        check_invariants(&net);
    }

    #[test]
    fn duplicate_suppression_counts() {
        let mut net = build_network(20, 4);
        net.run_until(10_000);
        net.invoke(NodeId(0), |node, ctx| {
            node.publish(ctx, Topic::new("test"), b"dup".to_vec())
        });
        net.run_until(20_000);
        // dense meshes guarantee duplicates; the seen-cache must absorb them
        assert!(net.metrics().counter("duplicates") > 0);
        for i in 0..20 {
            let count = net
                .node(NodeId(i))
                .delivered()
                .iter()
                .filter(|d| d.data() == b"dup")
                .count();
            assert!(count <= 1, "node {i} delivered the message {count} times");
        }
        check_invariants(&net);
    }

    /// A validator that rejects every payload starting with `0xBA`.
    struct RejectBad;
    impl Validator for RejectBad {
        fn validate(&mut self, _: u64, _: &Topic, data: &[u8]) -> ValidationResult {
            if data.first() == Some(&0xBA) {
                ValidationResult::Reject
            } else {
                ValidationResult::Accept
            }
        }
    }

    #[test]
    fn rejected_messages_do_not_propagate_and_sink_scores() {
        let topic = Topic::new("test");
        let adjacency = topology::full_mesh(6);
        let mut net: Network<GossipsubNode<RejectBad>> = Network::new(TEN_MS, 5);
        for peers in adjacency {
            let mut node = GossipsubNode::new(
                GossipsubConfig::default(),
                ScoringConfig::default(),
                peers,
                RejectBad,
            );
            node.subscribe(topic.clone());
            net.add_node(node);
        }
        net.run_until(5_000);
        // node 0 spams invalid payloads
        for k in 0..8u8 {
            net.invoke(NodeId(0), |node, ctx| {
                node.publish(ctx, Topic::new("test"), vec![0xBA, k])
            });
        }
        net.run_until(8_000);
        // nothing delivered anywhere
        for i in 1..6 {
            assert!(net.node(NodeId(i)).delivered().is_empty());
        }
        assert!(net.metrics().counter("rejected") > 0);
        // direct receivers now grade node 0 negatively
        let punished = (1..6)
            .filter(|i| net.node(NodeId(*i)).peer_score().score(NodeId(0)) < 0.0)
            .count();
        assert!(punished >= 1, "no peer punished the spammer");
        check_invariants(&net);
    }

    #[test]
    fn mesh_repairs_itself_after_neighbour_crashes() {
        let mut net = build_network(30, 11);
        net.run_until(10_000); // meshes form
        let topic = Topic::new("test");

        // crash every mesh neighbour of node 0 (worst-case local churn)
        let victims = net.node(NodeId(0)).mesh_peers(&topic);
        assert!(!victims.is_empty());
        for v in &victims {
            net.remove_node(*v);
        }

        // pings go unanswered; after peer_timeout_ms the dead are pruned
        // and the heartbeat grafts live replacements
        let timeout = GossipsubConfig::default().peer_timeout_ms;
        net.run_until(10_000 + 2 * timeout);
        let mesh = net.node(NodeId(0)).mesh_peers(&topic);
        assert!(
            !mesh.is_empty(),
            "mesh never recovered after neighbour crashes"
        );
        for peer in &mesh {
            assert!(
                !victims.contains(peer),
                "dead peer {peer} still in the mesh"
            );
            assert!(net.is_active(*peer), "mesh contains a removed node");
        }
        assert!(net.metrics().counter("peers_presumed_dead") >= victims.len() as u64);

        // and the repaired mesh still routes: a publish reaches survivors
        net.invoke(NodeId(0), |node, ctx| {
            node.publish(ctx, Topic::new("test"), b"after the storm".to_vec())
        });
        net.run_until(10_000 + 2 * timeout + 30_000);
        let survivors: Vec<usize> = (1..30).filter(|i| net.is_active(NodeId(*i))).collect();
        let received = survivors
            .iter()
            .filter(|i| {
                net.node(NodeId(**i))
                    .delivered()
                    .iter()
                    .any(|d| d.data() == b"after the storm")
            })
            .count();
        assert!(
            received * 10 >= survivors.len() * 9,
            "only {received}/{} survivors reached after repair",
            survivors.len()
        );
        check_invariants(&net);
    }

    #[test]
    fn quiet_peers_are_pinged_not_pruned() {
        let mut net = build_network(10, 12);
        let timeout = GossipsubConfig::default().peer_timeout_ms;
        // a long quiet stretch with no crashes: pings keep everyone alive
        net.run_until(4 * timeout);
        assert!(net.metrics().counter("pings_sent") > 0);
        assert_eq!(net.metrics().counter("peers_presumed_dead"), 0);
        let topic = Topic::new("test");
        for i in 0..10 {
            assert!(!net.node(NodeId(i)).mesh_peers(&topic).is_empty());
        }
        check_invariants(&net);
    }

    /// The heartbeat does only the work that is due: in a quiet 10-node
    /// mesh the full liveness sweep runs only at heartbeats where some
    /// tracked peer can have been quiet for half the timeout, and with no
    /// invalid message on record no heartbeat scans its mesh for
    /// evictions. A walk per heartbeat would run both at every one of the
    /// ≥ 1 180 heartbeats, so the pinned counts fail if it comes back.
    #[test]
    fn a_quiet_mesh_sweeps_only_when_a_peer_can_be_due() {
        let count = |counter: &'static std::thread::LocalKey<std::cell::Cell<usize>>| {
            counter.with(std::cell::Cell::get)
        };
        let (sweeps_before, scans_before) = (count(&LIVENESS_SWEEPS), count(&EVICTION_SCANS));
        let mut net = build_network(10, 12);
        let timeout = GossipsubConfig::default().peer_timeout_ms;
        net.run_until(4 * timeout);
        let sweeps = count(&LIVENESS_SWEEPS) - sweeps_before;
        let scans = count(&EVICTION_SCANS) - scans_before;
        // each node's first heartbeat fires within 2 s, then one a second
        let heartbeats = 10 * (4 * timeout / 1_000 - 2);
        assert_eq!(scans, 0, "eviction scans without an invalid message");
        assert_eq!(sweeps, 161, "liveness sweeps in a quiet mesh");
        assert!(sweeps * 4 < heartbeats as usize);
        assert!(net.metrics().counter("pings_sent") > 0);
        assert_eq!(net.metrics().counter("peers_presumed_dead"), 0);
        check_invariants(&net);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut net = build_network(15, seed);
            net.run_until(8_000);
            net.invoke(NodeId(0), |node, ctx| {
                node.publish(ctx, Topic::new("test"), b"det".to_vec())
            });
            net.run_until(20_000);
            check_invariants(&net);
            (1..15)
                .map(|i| {
                    net.node(NodeId(i))
                        .delivered()
                        .iter()
                        .map(|d| d.at_ms)
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }

    /// An isolated node plus one subscribed receiver, with no bootstrap
    /// links: RPCs are driven into node 0 by hand via `invoke`, so the
    /// control-plane handlers are exercised without mesh traffic in the
    /// way. Simulated time stays below the first heartbeat (armed at
    /// 1000–2000 ms), so per-heartbeat budgets are never reset.
    fn two_isolated_nodes(seed: u64) -> Net {
        let topic = Topic::new("test");
        let mut net: Net = Network::new(TEN_MS, seed);
        for _ in 0..2 {
            let mut node = GossipsubNode::new(
                GossipsubConfig::default(),
                ScoringConfig::default(),
                vec![],
                AcceptAll,
            );
            node.subscribe(topic.clone());
            net.add_node(node);
        }
        net
    }

    #[test]
    fn iwant_split_across_many_rpcs_cannot_exceed_the_heartbeat_budget() {
        let mut net = two_isolated_nodes(21);
        let cap = GossipsubConfig::default().max_iwant_per_heartbeat;
        // node 0 caches 200 distinct messages (no mesh: nothing is sent)
        let ids: Vec<MessageId> = (0..200u32)
            .map(|k| {
                net.invoke(NodeId(0), |node, ctx| {
                    node.publish(ctx, Topic::new("test"), k.to_le_bytes().to_vec())
                })
            })
            .collect();
        assert_eq!(net.metrics().counter("messages_sent"), 0);
        // the attacker requests them one id per IWANT frame — 200 RPCs,
        // each individually far below the per-RPC cap
        for id in &ids {
            let id = *id;
            net.invoke(NodeId(0), |node, ctx| {
                node.on_message(ctx, NodeId(1), Rpc::IWant { ids: vec![id] })
            });
        }
        net.run_until(500);
        assert_eq!(
            net.metrics().counter("messages_sent"),
            cap as u64,
            "served payloads must stop at the per-heartbeat budget"
        );
        assert_eq!(net.node(NodeId(1)).delivered().len(), cap);
        assert_eq!(
            net.metrics().counter("iwant_served_capped"),
            (200 - cap) as u64
        );
        check_invariants(&net);
    }

    #[test]
    fn rerequesting_the_same_id_is_bounded_by_the_served_budget() {
        let mut net = two_isolated_nodes(22);
        let cap = GossipsubConfig::default().max_iwant_per_heartbeat;
        let id = net.invoke(NodeId(0), |node, ctx| {
            node.publish(ctx, Topic::new("test"), b"single".to_vec())
        });
        for _ in 0..200 {
            net.invoke(NodeId(0), |node, ctx| {
                node.on_message(ctx, NodeId(1), Rpc::IWant { ids: vec![id] })
            });
        }
        net.run_until(500);
        // every serve of the same id costs a full payload on the wire;
        // the budget (not the requester) bounds the amplification
        assert_eq!(net.metrics().counter("messages_sent"), cap as u64);
        // the receiver deduplicates: one delivery, the rest are dupes
        assert_eq!(net.node(NodeId(1)).delivered().len(), 1);
        check_invariants(&net);
    }

    #[test]
    fn graft_flood_is_capped_at_mesh_n_high() {
        let mut net = two_isolated_nodes(23);
        let cfg = GossipsubConfig::default();
        let topic = Topic::new("test");
        // 30 peers announce the subscription, then all graft at once
        // (between two heartbeats, so no prune step runs in between)
        for p in 10..40 {
            net.invoke(NodeId(0), |node, ctx| {
                node.on_message(ctx, NodeId(p), Rpc::Subscribe(Topic::new("test")));
                node.on_message(ctx, NodeId(p), Rpc::Graft(Topic::new("test")));
            });
        }
        let mesh = net.node(NodeId(0)).mesh_peers(&topic);
        assert_eq!(
            mesh.len(),
            cfg.mesh_n_high,
            "graft flood inflated the mesh past D_hi"
        );
        assert_eq!(
            net.metrics().counter("graft_rejected_mesh_full"),
            (30 - cfg.mesh_n_high) as u64
        );
        check_invariants(&net);
    }

    #[test]
    fn graft_from_peer_that_never_subscribed_is_pruned() {
        let mut net = two_isolated_nodes(24);
        let topic = Topic::new("test");
        net.invoke(NodeId(0), |node, ctx| {
            node.on_message(ctx, NodeId(9), Rpc::Graft(Topic::new("test")))
        });
        assert!(
            !net.node(NodeId(0)).mesh_peers(&topic).contains(&NodeId(9)),
            "unsubscribed peer admitted to the mesh"
        );
        // after announcing the subscription the same peer is admitted
        net.invoke(NodeId(0), |node, ctx| {
            node.on_message(ctx, NodeId(9), Rpc::Subscribe(Topic::new("test")));
            node.on_message(ctx, NodeId(9), Rpc::Graft(Topic::new("test")));
        });
        assert!(net.node(NodeId(0)).mesh_peers(&topic).contains(&NodeId(9)));
        check_invariants(&net);
    }

    /// A (node 0) sits at `D_hi` — its mesh is packed with 12 phantom
    /// peers — so every graft from B (node 1) is rejected with a PRUNE.
    /// B is below `D_lo` and A is its only candidate: without the
    /// backoff, B re-grafts on every heartbeat and the pair exchanges
    /// GRAFT → PRUNE control frames forever (the regression this test
    /// pins down); with it, B retries only after `prune_backoff_ms`.
    fn graft_pingpong_net(prune_backoff_ms: u64) -> Net {
        let topic = Topic::new("test");
        let mut net: Net = Network::new(TEN_MS, 27);
        let config = GossipsubConfig {
            prune_backoff_ms,
            ..Default::default()
        };
        // A knows nobody (never grafts out); B knows only A
        for peers in [vec![], vec![NodeId(0)]] {
            let mut node = GossipsubNode::new(config, ScoringConfig::default(), peers, AcceptAll);
            node.subscribe(topic.clone());
            net.add_node(node);
        }
        // pack A's mesh with phantom subscribers up to D_hi
        for p in 10..(10 + config.mesh_n_high) {
            net.invoke(NodeId(0), |node, ctx| {
                node.on_message(ctx, NodeId(p), Rpc::Subscribe(Topic::new("test")));
                node.on_message(ctx, NodeId(p), Rpc::Graft(Topic::new("test")));
            });
        }
        assert_eq!(
            net.node(NodeId(0)).mesh_peers(&topic).len(),
            config.mesh_n_high
        );
        net
    }

    #[test]
    fn rejected_graft_backs_off_instead_of_retrying_every_heartbeat() {
        let mut net = graft_pingpong_net(GossipsubConfig::default().prune_backoff_ms);
        // stay under peer_timeout_ms so A's phantom mesh is not swept
        net.run_until(20_000);
        let rejected = net.metrics().counter("graft_rejected_mesh_full");
        // 12 phantom admissions aside: B's live rejections are bounded by
        // the backoff — without it there is one per heartbeat (≈ 18)
        assert!(
            rejected <= 2,
            "graft retried {rejected} times inside one backoff window"
        );
        assert!(
            net.metrics().counter("graft_suppressed_backoff") >= 10,
            "backoff never suppressed a retry"
        );
        check_invariants(&net);
    }

    #[test]
    fn backoff_expiry_allows_a_deterministic_retry() {
        let mut net = graft_pingpong_net(4_000);
        net.run_until(20_000);
        let rejected = net.metrics().counter("graft_rejected_mesh_full");
        // one retry per expired 4 s window over 20 s: a handful, not one
        // per heartbeat and not zero (the backoff must expire)
        assert!(
            (3..=8).contains(&rejected),
            "expected periodic post-backoff retries, saw {rejected}"
        );
        check_invariants(&net);
    }

    #[test]
    fn pruned_peer_reannounces_subscription_and_regrafts() {
        // B's one-shot Subscribe to A was lost: A does not know B
        // subscribes, so A prunes B's graft. The prune must make B
        // re-announce, after which the next graft is admitted — without
        // this repair the pair would loop graft → prune forever.
        let mut net = two_isolated_nodes(26);
        let topic = Topic::new("test");
        // A (node 0) receives a graft from B (node 1) it cannot verify
        net.invoke(NodeId(0), |node, ctx| {
            node.on_message(ctx, NodeId(1), Rpc::Graft(Topic::new("test")))
        });
        assert!(!net.node(NodeId(0)).mesh_peers(&topic).contains(&NodeId(1)));
        // A's Prune reaches B; B re-announces Subscribe; A learns B
        net.run_until(100);
        // B's next heartbeat-style graft now succeeds
        net.invoke(NodeId(0), |node, ctx| {
            node.on_message(ctx, NodeId(1), Rpc::Graft(Topic::new("test")))
        });
        assert!(
            net.node(NodeId(0)).mesh_peers(&topic).contains(&NodeId(1)),
            "graft still rejected after the subscription was re-announced"
        );
        check_invariants(&net);
    }

    #[test]
    fn iwant_serving_of_own_messages_is_jittered_too() {
        let topic = Topic::new("test");
        let mut net: Net = Network::new(TEN_MS, 31);
        for _ in 0..2 {
            let mut node = GossipsubNode::new(
                GossipsubConfig {
                    publish_jitter_ms: 400,
                    ..Default::default()
                },
                ScoringConfig::default(),
                vec![],
                AcceptAll,
            );
            node.subscribe(topic.clone());
            net.add_node(node);
        }
        // the publisher caches its message (no mesh: nothing eager-pushed)
        let id = net.invoke(NodeId(0), |node, ctx| {
            node.publish(ctx, Topic::new("test"), b"gossiped-own".to_vec())
        });
        // an observer that heard the IHAVE requests the full payload
        net.invoke(NodeId(0), |node, ctx| {
            node.on_message(ctx, NodeId(1), Rpc::IWant { ids: vec![id] })
        });
        net.run_until(1_000);
        let delivery = net
            .node(NodeId(1))
            .delivered()
            .iter()
            .find(|d| d.id() == id)
            .expect("IWANT must still be served");
        // base latency is 10 ms; an unjittered serve would arrive exactly
        // then, leaking the from=publisher timing (seed chosen so the
        // deterministic hold draw is nonzero)
        assert!(
            delivery.at_ms > 10,
            "own-message IWANT serve was not held back (arrived at {} ms)",
            delivery.at_ms
        );
        check_invariants(&net);
    }

    #[test]
    fn ihave_for_unsubscribed_topic_spends_no_iwant_budget() {
        let mut net = two_isolated_nodes(25);
        let foreign = MessageId::compute(&Topic::new("other"), b"unseen");
        net.invoke(NodeId(0), |node, ctx| {
            node.on_message(
                ctx,
                NodeId(1),
                Rpc::IHave {
                    topic: Topic::new("other"),
                    ids: vec![foreign].into(),
                },
            )
        });
        assert_eq!(net.metrics().counter("ihave_ignored_unsubscribed"), 1);
        assert_eq!(
            net.metrics().counter("iwant_sent"),
            0,
            "IWANT budget spent on an unsubscribed topic"
        );
        // control: the same advertisement on the subscribed topic is acted on
        let local = MessageId::compute(&Topic::new("test"), b"unseen");
        net.invoke(NodeId(0), |node, ctx| {
            node.on_message(
                ctx,
                NodeId(1),
                Rpc::IHave {
                    topic: Topic::new("test"),
                    ids: vec![local].into(),
                },
            )
        });
        assert_eq!(net.metrics().counter("iwant_sent"), 1);
        check_invariants(&net);
    }

    #[test]
    fn observer_tap_records_arrivals_with_previous_hop() {
        let mut net = build_network(12, 13);
        net.node_mut(NodeId(5)).set_observer(true);
        net.run_until(10_000);
        let id = net.invoke(NodeId(0), |node, ctx| {
            node.publish(ctx, Topic::new("test"), b"watched".to_vec())
        });
        net.run_until(30_000);
        let observations = net.node(NodeId(5)).observations();
        assert!(!observations.is_empty(), "observer recorded nothing");
        for obs in observations {
            assert_eq!(obs.id, id);
            assert_ne!(obs.from, NodeId(5), "recorded itself as previous hop");
            assert!(obs.at_ms >= 10_000);
        }
        // the tap is opt-in: everyone else recorded nothing
        for i in 0..12 {
            if i != 5 {
                assert!(net.node(NodeId(i)).observations().is_empty());
            }
        }
        check_invariants(&net);
    }

    #[test]
    fn publish_jitter_spreads_first_hop_arrivals_without_losing_delivery() {
        let topic = Topic::new("test");
        let adjacency = topology::full_mesh(8);
        let mut net: Net = Network::new(TEN_MS, 9);
        for peers in adjacency {
            let mut node = GossipsubNode::new(
                GossipsubConfig {
                    publish_jitter_ms: 400,
                    ..Default::default()
                },
                ScoringConfig::default(),
                peers,
                AcceptAll,
            );
            node.subscribe(topic.clone());
            net.add_node(node);
        }
        net.run_until(8_000);
        net.invoke(NodeId(0), |node, ctx| {
            node.publish(ctx, Topic::new("test"), b"jittered".to_vec())
        });
        net.run_until(30_000);
        let arrivals: Vec<u64> = (1..8)
            .map(|i| {
                net.node(NodeId(i))
                    .delivered()
                    .iter()
                    .find(|d| d.data() == b"jittered")
                    .expect("jitter must not cost delivery")
                    .at_ms
            })
            .collect();
        // constant links would put every first-hop arrival at +10 ms;
        // the per-target holds must spread them out
        let distinct: std::collections::BTreeSet<u64> = arrivals.iter().copied().collect();
        assert!(distinct.len() > 1, "all arrivals identical despite jitter");
        assert!(arrivals.iter().all(|at| *at >= 8_010));
        check_invariants(&net);
    }

    /// Phantom peers that subscribe, graft and advertise once and then go
    /// silent must not keep liveness state: after the timeout they are
    /// presumed dead, their rows keep only the score entry (which the
    /// score table has always kept for dead peers) and the live rows are
    /// exactly the real neighbours.
    #[test]
    fn neighbour_table_drops_silent_phantoms_liveness_and_keeps_their_scores() {
        let mut net = build_network(10, 41);
        net.run_until(5_000);
        let known: Vec<NodeId> = {
            let node = net.node(NodeId(0));
            node.known_peers.clone()
        };
        let phantoms: Vec<NodeId> = (1_000..1_300).map(NodeId).collect();
        for &p in &phantoms {
            net.invoke(NodeId(0), |node, ctx| {
                let topic = Topic::new("test");
                let advertised = MessageId::compute(&topic, &p.index().to_le_bytes());
                node.on_message(ctx, p, Rpc::Subscribe(topic.clone()));
                node.on_message(ctx, p, Rpc::Graft(topic.clone()));
                node.on_message(
                    ctx,
                    p,
                    Rpc::IHave {
                        topic,
                        ids: vec![advertised].into(),
                    },
                );
            });
        }
        let timeout = GossipsubConfig::default().peer_timeout_ms;
        net.run_until(5_000 + 2 * timeout);

        let node = net.node(NodeId(0));
        let rows: Vec<_> = node.neighbours.rows().collect();
        assert!(
            rows.iter().all(|(_, r)| r.is_heard() || r.is_scored()),
            "a row with neither a liveness clock nor a score entry survived"
        );
        for p in &phantoms {
            let (_, row) = rows
                .iter()
                .find(|(peer, _)| peer == p)
                .expect("a presumed-dead peer keeps its score entry");
            assert!(!row.is_heard(), "silent phantom {p} still has a clock");
            assert!(row.is_scored());
        }
        let live: Vec<NodeId> = rows
            .iter()
            .filter(|(_, r)| r.is_heard())
            .map(|(peer, _)| *peer)
            .collect();
        assert!(
            known.iter().all(|k| live.contains(k)),
            "a live neighbour lost its clock"
        );
        assert!(
            live.iter().all(|p| p.index() < 10),
            "only real peers may hold a liveness clock"
        );
        assert_eq!(rows.len(), phantoms.len() + live.len(), "one row per peer");
        assert!(node
            .mesh_peers(&Topic::new("test"))
            .iter()
            .all(|p| p.index() < 10));
        // the separate liveness and score maps this table replaced held 8
        // clocks and 304 score entries after the same run
        assert_eq!(live.len(), 8);
        assert_eq!(node.peer_score().tracked_len(), 304);
        check_invariants(&net);
    }

    #[test]
    fn publish_before_mesh_formation_uses_known_subscribers() {
        let mut net = build_network(10, 6);
        // give Subscribe RPCs (but not heartbeats) time to land
        net.run_until(300);
        net.invoke(NodeId(0), |node, ctx| {
            node.publish(ctx, Topic::new("test"), b"early".to_vec())
        });
        net.run_until(15_000);
        let received = (1..10)
            .filter(|i| {
                net.node(NodeId(*i))
                    .delivered()
                    .iter()
                    .any(|d| d.data() == b"early")
            })
            .count();
        assert!(received >= 8, "early publish reached only {received}/9");
        check_invariants(&net);
    }
}
