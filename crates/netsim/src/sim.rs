//! The discrete-event simulator core.
//!
//! A [`Network`] owns a set of protocol state machines (one per simulated
//! peer), a global event queue ordered by simulated time, a latency/loss
//! model and the run's [`Metrics`]. Execution is fully deterministic for a
//! given seed: events sharing a timestamp are executed as a batch in
//! sequence order (see [`crate::scheduler`]), each node draws randomness
//! from its own seed-derived stream, and a step's [`Context`] applies each
//! send, timer and metric update to the network as it is emitted.

use crate::latency::UniformLatency;
use crate::metrics::Metrics;
use crate::scheduler::{stream_seed, LINK_STREAM};
use crate::wheel::EventWheel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Identifier of a simulated peer (index into the network's node table).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The node-table index this id wraps.
    pub fn index(self) -> usize {
        self.0
    }

    /// The id as an explicit 64-bit integer — the wire-stable form used
    /// by metrics and reports (identical on 32- and 64-bit platforms).
    pub fn as_u64(self) -> u64 {
        self.0 as u64
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "peer{}", self.0)
    }
}

/// Wire-size accounting for protocol messages (drives the bandwidth
/// counters).
pub trait Payload: Clone {
    /// Approximate serialized size in bytes.
    fn size_bytes(&self) -> usize;
}

impl Payload for Vec<u8> {
    fn size_bytes(&self) -> usize {
        self.len()
    }
}

/// A protocol state machine driven by the simulator.
///
/// Callbacks receive an exclusive `&mut self` plus a [`Context`] through
/// which every send, timer and metric update goes straight into the
/// network. Steps run one at a time in event order, so what a callback
/// emits is applied in the order it was emitted.
pub trait Node {
    /// The message type exchanged between peers.
    type Message: Payload;

    /// Called once when the simulation starts (schedule initial timers
    /// here).
    fn on_start(&mut self, ctx: &mut Context<Self::Message>);

    /// Called when a message from `from` is delivered.
    fn on_message(&mut self, ctx: &mut Context<Self::Message>, from: NodeId, msg: Self::Message);

    /// Called when a timer set with [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<Self::Message>, token: u64);
}

#[derive(Clone)]
pub(crate) enum EventKind<M> {
    Deliver { from: NodeId, msg: M },
    Timer { token: u64 },
    Start,
}

#[derive(Clone)]
pub(crate) struct QueuedEvent<M> {
    pub(crate) at: u64,
    pub(crate) seq: u64,
    pub(crate) node: NodeId,
    pub(crate) kind: EventKind<M>,
}

/// The reference pop order of the wheel-vs-heap equivalence tests: a
/// `BinaryHeap` of these is the order the timing wheel must reproduce
/// (max-heap: inverted so the earliest `(at, seq)` pops first).
#[cfg(test)]
mod heap_order {
    use super::QueuedEvent;
    use std::cmp::Ordering;

    impl<M> PartialEq for QueuedEvent<M> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<M> Eq for QueuedEvent<M> {}
    impl<M> PartialOrd for QueuedEvent<M> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<M> Ord for QueuedEvent<M> {
        fn cmp(&self, other: &Self) -> Ordering {
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }
}

/// One node's slot: the protocol machine plus its private RNG stream.
#[derive(Clone)]
pub(crate) struct Slot<N> {
    pub(crate) node: N,
    pub(crate) rng: StdRng,
}

/// The half of a [`Network`] every step writes into: the event queue,
/// liveness, the link model and its RNG stream, the clock, the sequence
/// counter and the metrics. A [`Context`] borrows it for one step.
#[derive(Clone)]
pub(crate) struct Shared<M> {
    /// The global event queue: a hierarchical timing wheel that stores
    /// events inline in chunked slots (see [`crate::wheel`]),
    /// pop-order-identical to the `BinaryHeap` it replaced.
    pub(crate) queue: EventWheel<M>,
    /// Liveness by node index, one flag per node ever added.
    pub(crate) active: Vec<bool>,
    pub(crate) latency: UniformLatency,
    pub(crate) loss_probability: f64,
    /// Partition-group assignment by node index; empty = no partition.
    /// Sends between different groups are dropped *before* any link-stream
    /// draw, so cutting/healing a partition is a pure function of this
    /// table and cannot shift the link RNG relative to an unpartitioned
    /// run's surviving sends — the fault layer's half of the determinism
    /// contract. Nodes beyond the table (late joins) are unrestricted.
    pub(crate) partition: Vec<u32>,
    /// Extra i.i.d. loss applied on top of the base loss model while a
    /// link-degradation burst is active (0.0 = off). Drawn from the link
    /// stream *after* the base loss draw, in event order.
    pub(crate) degraded_extra_loss: f64,
    /// Extra per-hop latency (ms) while a degradation burst is active.
    pub(crate) degraded_extra_latency_ms: u64,
    /// The link stream: latency and loss draws. Consumed only by
    /// [`Shared::send`], in event order, never by node callbacks.
    pub(crate) link_rng: StdRng,
    pub(crate) now: u64,
    pub(crate) seq: u64,
    pub(crate) metrics: Metrics,
}

impl<M: Payload> Shared<M> {
    pub(crate) fn is_active(&self, index: usize) -> bool {
        self.active.get(index).copied().unwrap_or(false)
    }

    /// Queues `kind` for `node` at `at` under the next sequence number.
    pub(crate) fn push(&mut self, at: u64, node: NodeId, kind: EventKind<M>) {
        self.seq += 1;
        self.queue.push(QueuedEvent {
            at,
            seq: self.seq,
            node,
            kind,
        });
    }

    /// The one path every simulated send takes: drops it at an unknown,
    /// dead or cut-off peer, else counts it, samples loss and latency from
    /// the link stream and queues the delivery at `now + hold_ms +
    /// latency`. Called in event order, which keeps the link stream — and
    /// therefore the whole simulation — a function of the seed alone.
    pub(crate) fn send(&mut self, origin: NodeId, to: NodeId, msg: M, hold_ms: u64) {
        if to.index() >= self.active.len() {
            self.metrics.count("messages_to_unknown_peer", 1);
            return;
        }
        if !self.is_active(to.index()) {
            // dead peers take no traffic (connection torn down)
            self.metrics.count("messages_to_removed_peer", 1);
            return;
        }
        // partition cut: decided purely from the group table, before any
        // link-stream draw (see `partition` docs)
        if let (Some(a), Some(b)) = (
            self.partition.get(origin.index()),
            self.partition.get(to.index()),
        ) {
            if a != b {
                self.metrics.count("messages_lost_partition", 1);
                return;
            }
        }
        self.metrics.count("messages_sent", 1);
        let size = msg.size_bytes() as u64;
        self.metrics.count("bytes_sent", size);
        self.metrics.add_node_bytes_sent(origin.as_u64(), size);
        if self.loss_probability > 0.0 && self.link_rng.gen_bool(self.loss_probability) {
            self.metrics.count("messages_lost", 1);
            return;
        }
        if self.degraded_extra_loss > 0.0 && self.link_rng.gen_bool(self.degraded_extra_loss) {
            self.metrics.count("messages_lost_degraded", 1);
            return;
        }
        let latency = self.latency.sample(&mut self.link_rng) + self.degraded_extra_latency_ms;
        self.push(
            self.now + hold_ms + latency,
            to,
            EventKind::Deliver { from: origin, msg },
        );
    }
}

/// The per-callback execution context handed to protocol code.
///
/// A context lends one step its node's RNG stream and the network's
/// shared half: every send, timer and metric update is applied the moment
/// the callback emits it.
pub struct Context<'a, M> {
    node: NodeId,
    rng: &'a mut StdRng,
    net: &'a mut Shared<M>,
}

impl<M: Payload> Context<'_, M> {
    /// Current simulated time in milliseconds.
    pub fn now(&self) -> u64 {
        self.net.now
    }

    /// The node this callback runs on.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Sends `msg` to `to`; it arrives after a sampled link latency
    /// (unless dropped by the loss model).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.net.send(self.node, to, msg, 0);
    }

    /// Sends `msg` to `to` after holding it locally for `hold_ms` before
    /// it enters the link (arrival at `now + hold_ms + latency`). This is
    /// the timing-decorrelation primitive behind publisher-side forward
    /// delays: the hold is part of the *sender's* behaviour, so loss and
    /// latency are still sampled from the link stream in event order and
    /// determinism is unaffected.
    pub fn send_delayed(&mut self, to: NodeId, msg: M, hold_ms: u64) {
        self.net.send(self.node, to, msg, hold_ms);
    }

    /// Schedules [`Node::on_timer`] with `token` after `delay_ms`.
    pub fn set_timer(&mut self, delay_ms: u64, token: u64) {
        let at = self.net.now + delay_ms;
        self.net.push(at, self.node, EventKind::Timer { token });
    }

    /// Deterministic RNG for protocol decisions — this node's private
    /// stream, split from the network seed (see
    /// [`crate::scheduler::stream_seed`]), so draws are independent of
    /// other nodes' activity.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Adds to a global counter.
    pub fn count(&mut self, key: &'static str, n: u64) {
        self.net.metrics.count(key, n);
    }

    /// Charges simulated CPU time (microseconds) to this node — the
    /// resource-restricted-device accounting used by E6/E9.
    pub fn charge_cpu(&mut self, micros: u64) {
        self.net
            .metrics
            .add_node_cpu_micros(self.node.as_u64(), micros);
    }
}

/// Outcome of [`Network::run_to_quiescence`]: either the event queue
/// actually drained, or the hard stop was hit with work still pending —
/// a condition callers must not silently swallow (a scenario that never
/// settles is a finding, not a footnote).
#[must_use = "a HardStop outcome means the simulation did not settle; surface it"]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuiescenceOutcome {
    /// The queue drained completely; `at_ms` is the time of the last
    /// processed event.
    Quiescent {
        /// Simulated time of the final event, milliseconds.
        at_ms: u64,
    },
    /// Events were still queued when the hard stop cut the run off.
    HardStop {
        /// The hard stop that ended the run, milliseconds.
        hard_stop_ms: u64,
        /// Events left in the queue (all scheduled after the hard stop).
        pending_events: u64,
        /// Timestamp of the earliest pending event, milliseconds.
        next_event_at_ms: u64,
    },
}

impl QuiescenceOutcome {
    /// `true` when the queue drained before the hard stop.
    pub fn is_quiescent(&self) -> bool {
        matches!(self, QuiescenceOutcome::Quiescent { .. })
    }

    /// Events still queued when the run ended (0 when quiescent).
    pub fn pending_events(&self) -> u64 {
        match self {
            QuiescenceOutcome::Quiescent { .. } => 0,
            QuiescenceOutcome::HardStop { pending_events, .. } => *pending_events,
        }
    }
}

/// The deterministic discrete-event network.
///
/// # Examples
///
/// ```
/// use wakurln_netsim::{latency::UniformLatency, sim::{Context, Network, Node, NodeId}};
///
/// struct Echo;
/// impl Node for Echo {
///     type Message = Vec<u8>;
///     fn on_start(&mut self, ctx: &mut Context<Vec<u8>>) {
///         if ctx.node_id() == NodeId(0) {
///             ctx.send(NodeId(1), b"ping".to_vec());
///         }
///     }
///     fn on_message(&mut self, ctx: &mut Context<Vec<u8>>, from: NodeId, msg: Vec<u8>) {
///         if msg == b"ping" { ctx.send(from, b"pong".to_vec()); }
///         else { ctx.count("pong", 1); }
///     }
///     fn on_timer(&mut self, _: &mut Context<Vec<u8>>, _: u64) {}
/// }
///
/// let mut net = Network::new(UniformLatency { min_ms: 10, max_ms: 10 }, 42);
/// net.add_node(Echo);
/// net.add_node(Echo);
/// net.run_until(100);
/// assert_eq!(net.metrics().counter("pong"), 1);
/// ```
///
/// `Clone` deep-copies the whole simulation — nodes, queue, RNG streams,
/// metrics — producing an independent network that replays
/// byte-identically from that instant (the soak harness's
/// checkpoint/restore primitive).
#[derive(Clone)]
pub struct Network<N: Node> {
    /// One slot per node ever added, indexed by [`NodeId`].
    pub(crate) nodes: Vec<Slot<N>>,
    pub(crate) shared: Shared<N::Message>,
    pub(crate) seed: u64,
    pub(crate) started: bool,
    pub(crate) dispatched: u64,
}

impl<N: Node> Network<N> {
    /// Creates a network with the given link latency and RNG seed.
    pub fn new(latency: UniformLatency, seed: u64) -> Network<N> {
        Network {
            nodes: Vec::new(),
            shared: Shared {
                queue: EventWheel::new(),
                active: Vec::new(),
                latency,
                loss_probability: 0.0,
                partition: Vec::new(),
                degraded_extra_loss: 0.0,
                degraded_extra_latency_ms: 0,
                link_rng: StdRng::seed_from_u64(stream_seed(seed, LINK_STREAM)),
                now: 0,
                seq: 0,
                metrics: Metrics::new(),
            },
            seed,
            started: false,
            dispatched: 0,
        }
    }

    /// Sets an i.i.d. packet-loss probability applied to every send.
    pub fn set_loss_probability(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.shared.loss_probability = p;
    }

    /// Installs a network partition: `groups[i]` is node `i`'s side of
    /// the cut, and every send whose endpoints sit in different groups is
    /// dropped (counted as `messages_lost_partition`). Nodes past the end
    /// of the table — e.g. peers joining mid-partition — are unrestricted.
    /// The drop decision is made before any link-stream draw, so the cut
    /// never shifts latency/loss sampling for the traffic that survives.
    pub fn set_partition(&mut self, groups: Vec<u32>) {
        self.shared.partition = groups;
    }

    /// Heals any active partition (all links restored).
    pub fn clear_partition(&mut self) {
        self.shared.partition.clear();
    }

    /// Starts a link-degradation burst: every send suffers `extra_loss`
    /// additional i.i.d. loss (drawn after the base loss model, counted
    /// as `messages_lost_degraded`) and `extra_latency_ms` extra delay.
    pub fn set_degradation(&mut self, extra_loss: f64, extra_latency_ms: u64) {
        assert!(
            (0.0..=1.0).contains(&extra_loss),
            "probability out of range"
        );
        self.shared.degraded_extra_loss = extra_loss;
        self.shared.degraded_extra_latency_ms = extra_latency_ms;
    }

    /// Ends a link-degradation burst.
    pub fn clear_degradation(&mut self) {
        self.shared.degraded_extra_loss = 0.0;
        self.shared.degraded_extra_latency_ms = 0;
    }

    /// Adds a node, returning its id. The node receives its own RNG
    /// stream, split deterministically from the network seed by index.
    /// Nodes added after the run started get their `on_start`
    /// immediately (churn support).
    pub fn add_node(&mut self, node: N) -> NodeId {
        let id = NodeId(self.nodes.len());
        let rng = StdRng::seed_from_u64(stream_seed(self.seed, id.as_u64()));
        self.nodes.push(Slot { node, rng });
        self.shared.active.push(true);
        if self.started {
            self.shared.push(self.shared.now, id, EventKind::Start);
        }
        id
    }

    /// Removes a node from the network (simulated crash / leave).
    ///
    /// Deactivation, not deletion: ids stay stable and the node's final
    /// protocol state remains readable through [`Network::node`]. From
    /// this point on
    ///
    /// * messages sent to it are dropped and counted as
    ///   `messages_to_removed_peer`,
    /// * its queued timers are discarded at dispatch (counted as
    ///   `timers_dropped_dead_node`) instead of firing — so periodic
    ///   timers stop re-arming and cannot leak for the rest of the run,
    /// * [`Network::invoke`] on it panics.
    ///
    /// Returns `false` when the node was already removed (idempotent).
    pub fn remove_node(&mut self, id: NodeId) -> bool {
        let was_active = std::mem::replace(&mut self.shared.active[id.index()], false);
        if was_active {
            self.shared.metrics.count("nodes_removed", 1);
        }
        was_active
    }

    /// Restores a previously removed node (simulated crash → restart):
    /// the *same* [`NodeId`] comes back to life with whatever protocol
    /// state its struct still holds, so per-node metrics keyed by
    /// [`NodeId::as_u64`] stay continuous across the outage. The node's
    /// private RNG stream is untouched (it resumes where it left off —
    /// a property of the slot, not of liveness). If the run has started,
    /// `on_start` is rescheduled so the protocol can re-announce itself
    /// (gossipsub re-subscribes, timers re-arm). Callers wanting a
    /// cold-boot rejoin reset the node state via
    /// [`Network::node_mut`] before restoring.
    ///
    /// Returns `false` when the node was already active (idempotent —
    /// no duplicate `on_start` is scheduled).
    pub fn restore_node(&mut self, id: NodeId) -> bool {
        let was_dead = !std::mem::replace(&mut self.shared.active[id.index()], true);
        if was_dead {
            self.shared.metrics.count("nodes_restored", 1);
            if self.started {
                self.shared.push(self.shared.now, id, EventKind::Start);
            }
        }
        was_dead
    }

    /// Whether a node is still live (added and not removed).
    pub fn is_active(&self, id: NodeId) -> bool {
        self.shared.is_active(id.index())
    }

    /// Number of live nodes (added minus removed).
    pub fn active_len(&self) -> usize {
        self.shared.active.iter().filter(|a| **a).count()
    }

    /// Number of nodes ever added (including removed ones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no nodes were added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()].node
    }

    /// Mutable access to a node's protocol state (for external inspection
    /// or reconfiguration between runs — no context is lent here; use
    /// [`Network::invoke`] for actions that send or set timers).
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id.index()].node
    }

    /// Current simulated time in milliseconds.
    pub fn now(&self) -> u64 {
        self.shared.now
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Mutable metrics (experiment harnesses may record their own series).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.shared.metrics
    }

    /// Events dispatched to node callbacks so far (includes events
    /// dropped at dead nodes; drives the `--progress` throughput line).
    pub fn events_dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Events still waiting in the queue.
    pub fn pending_events(&self) -> u64 {
        self.shared.queue.len() as u64
    }

    /// Messages still queued for delivery, with their receivers, in no
    /// particular order (a message to a crashed node stays queued until
    /// its delivery time drops it).
    pub fn queued_messages(&self) -> impl Iterator<Item = (NodeId, &N::Message)> {
        self.shared.queue.iter().filter_map(|ev| match &ev.kind {
            EventKind::Deliver { msg, .. } => Some((ev.node, msg)),
            EventKind::Timer { .. } | EventKind::Start => None,
        })
    }

    /// Runs an external action against one node *now*, with a full
    /// context (e.g. "publish a message at t=5000").
    pub fn invoke<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut N, &mut Context<N::Message>) -> R,
    ) -> R {
        assert!(self.is_active(id), "invoke on removed node {id}");
        self.ensure_started();
        self.step(id, f)
    }

    /// Runs `f` against node `id` with a context lent from its slot and
    /// the shared half — the one way a step, scheduled or external, runs.
    pub(crate) fn step<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut N, &mut Context<N::Message>) -> R,
    ) -> R {
        let slot = &mut self.nodes[id.index()];
        let mut ctx = Context {
            node: id,
            rng: &mut slot.rng,
            net: &mut self.shared,
        };
        f(&mut slot.node, &mut ctx)
    }

    /// Processes events until simulated time `t` (inclusive). Events
    /// scheduled beyond `t` stay queued; the clock ends at `t`.
    pub fn run_until(&mut self, t: u64) {
        self.run_batched(t);
        self.shared.now = self.shared.now.max(t);
    }

    /// Runs until the event queue is empty (or `hard_stop` is reached),
    /// reporting which of the two actually happened — callers decide
    /// whether leftover events are expected (periodic protocol timers
    /// re-arm forever) or a stall worth surfacing.
    pub fn run_to_quiescence(&mut self, hard_stop: u64) -> QuiescenceOutcome {
        self.run_batched(hard_stop);
        match self.shared.queue.next_event_at() {
            None => QuiescenceOutcome::Quiescent {
                at_ms: self.shared.now,
            },
            Some(next_at) => QuiescenceOutcome::HardStop {
                hard_stop_ms: hard_stop,
                pending_events: self.pending_events(),
                next_event_at_ms: next_at,
            },
        }
    }

    pub(crate) fn ensure_started(&mut self) {
        if !self.started {
            self.started = true;
            let now = self.shared.now;
            for i in 0..self.nodes.len() {
                self.shared.push(now, NodeId(i), EventKind::Start);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::UniformLatency;

    /// Counts everything it receives; optionally rebroadcasts once.
    struct Flood {
        neighbors: Vec<NodeId>,
        seen: bool,
        received_at: Option<u64>,
    }

    impl Node for Flood {
        type Message = Vec<u8>;
        fn on_start(&mut self, _ctx: &mut Context<Vec<u8>>) {}
        fn on_message(&mut self, ctx: &mut Context<Vec<u8>>, _from: NodeId, msg: Vec<u8>) {
            if !self.seen {
                self.seen = true;
                self.received_at = Some(ctx.now());
                for n in self.neighbors.clone() {
                    ctx.send(n, msg.clone());
                }
            }
        }
        fn on_timer(&mut self, _: &mut Context<Vec<u8>>, _: u64) {}
    }

    fn ring(n: usize) -> Network<Flood> {
        let mut net = Network::new(
            UniformLatency {
                min_ms: 10,
                max_ms: 10,
            },
            1,
        );
        for i in 0..n {
            net.add_node(Flood {
                neighbors: vec![NodeId((i + 1) % n), NodeId((i + n - 1) % n)],
                seen: false,
                received_at: None,
            });
        }
        net
    }

    #[test]
    fn flood_covers_ring_with_expected_latency() {
        let mut net = ring(10);
        net.invoke(NodeId(0), |node, ctx| {
            node.seen = true;
            node.received_at = Some(0);
            for n in node.neighbors.clone() {
                ctx.send(n, b"m".to_vec());
            }
        });
        net.run_until(1_000);
        for i in 0..10 {
            assert!(net.node(NodeId(i)).seen, "node {i} missed the flood");
        }
        // farthest node in a 10-ring is 5 hops: 50 ms
        assert_eq!(net.node(NodeId(5)).received_at, Some(50));
    }

    #[test]
    fn loss_drops_messages() {
        let mut net = ring(4);
        net.set_loss_probability(1.0);
        net.invoke(NodeId(0), |node, ctx| {
            node.seen = true;
            for n in node.neighbors.clone() {
                ctx.send(n, b"m".to_vec());
            }
        });
        net.run_until(1_000);
        assert_eq!(net.metrics().counter("messages_lost"), 2);
        assert!(!net.node(NodeId(1)).seen);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed| {
            let mut net: Network<Flood> = Network::new(
                UniformLatency {
                    min_ms: 5,
                    max_ms: 50,
                },
                seed,
            );
            for i in 0..8 {
                net.add_node(Flood {
                    neighbors: vec![NodeId((i + 1) % 8)],
                    seen: false,
                    received_at: None,
                });
            }
            net.invoke(NodeId(0), |node, ctx| {
                node.seen = true;
                ctx.send(NodeId(1), b"m".to_vec());
            });
            net.run_until(10_000);
            (0..8)
                .map(|i| net.node(NodeId(i)).received_at)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node for TimerNode {
            type Message = Vec<u8>;
            fn on_start(&mut self, ctx: &mut Context<Vec<u8>>) {
                ctx.set_timer(30, 3);
                ctx.set_timer(10, 1);
                ctx.set_timer(20, 2);
            }
            fn on_message(&mut self, _: &mut Context<Vec<u8>>, _: NodeId, _: Vec<u8>) {}
            fn on_timer(&mut self, ctx: &mut Context<Vec<u8>>, token: u64) {
                assert_eq!(ctx.now() % 10, 0);
                self.fired.push(token);
            }
        }
        let mut net = Network::new(
            UniformLatency {
                min_ms: 1,
                max_ms: 1,
            },
            1,
        );
        let id = net.add_node(TimerNode { fired: vec![] });
        net.run_until(100);
        assert_eq!(net.node(id).fired, vec![1, 2, 3]);
    }

    #[test]
    fn run_until_does_not_overshoot() {
        let mut net = ring(4);
        net.invoke(NodeId(0), |node, ctx| {
            node.seen = true;
            ctx.send(NodeId(1), b"m".to_vec());
        });
        net.run_until(5); // before the 10 ms latency
        assert!(!net.node(NodeId(1)).seen);
        assert_eq!(net.now(), 5);
        net.run_until(10);
        assert!(net.node(NodeId(1)).seen);
    }

    #[test]
    fn send_delayed_holds_back_delivery_by_exactly_the_hold() {
        let mut net = ring(2); // constant 10 ms links
        net.invoke(NodeId(0), |node, ctx| {
            node.seen = true;
            ctx.send_delayed(NodeId(1), b"m".to_vec(), 25);
        });
        net.run_until(34); // hold 25 + latency 10 = arrival at 35
        assert!(!net.node(NodeId(1)).seen);
        net.run_until(35);
        assert!(net.node(NodeId(1)).seen);
        assert_eq!(net.node(NodeId(1)).received_at, Some(35));
    }

    #[test]
    fn send_to_unknown_peer_is_counted_not_fatal() {
        let mut net = ring(2);
        net.invoke(NodeId(0), |_, ctx| ctx.send(NodeId(99), b"m".to_vec()));
        net.run_until(100);
        assert_eq!(net.metrics().counter("messages_to_unknown_peer"), 1);
    }

    #[test]
    fn removed_node_gets_no_messages_and_its_timers_die() {
        struct Beacon {
            heartbeats: u64,
            received: u64,
        }
        impl Node for Beacon {
            type Message = Vec<u8>;
            fn on_start(&mut self, ctx: &mut Context<Vec<u8>>) {
                ctx.set_timer(10, 0);
            }
            fn on_message(&mut self, _: &mut Context<Vec<u8>>, _: NodeId, _: Vec<u8>) {
                self.received += 1;
            }
            fn on_timer(&mut self, ctx: &mut Context<Vec<u8>>, _: u64) {
                self.heartbeats += 1;
                ctx.set_timer(10, 0); // periodic: would leak forever if not dropped
            }
        }
        let mut net = Network::new(
            UniformLatency {
                min_ms: 5,
                max_ms: 5,
            },
            1,
        );
        let a = net.add_node(Beacon {
            heartbeats: 0,
            received: 0,
        });
        let b = net.add_node(Beacon {
            heartbeats: 0,
            received: 0,
        });
        net.run_until(100);
        assert!(net.node(b).heartbeats >= 9);
        net.remove_node(b);
        assert!(!net.is_active(b));
        assert_eq!(net.active_len(), 1);
        assert_eq!(net.len(), 2);
        let heartbeats_at_death = net.node(b).heartbeats;
        let received_at_death = net.node(b).received;

        // a message already in flight plus a new one: neither is delivered
        net.invoke(a, |_, ctx| ctx.send(b, b"to the dead".to_vec()));
        net.run_until(1_000);
        assert_eq!(
            net.node(b).heartbeats,
            heartbeats_at_death,
            "timer fired after removal"
        );
        assert_eq!(
            net.node(b).received,
            received_at_death,
            "message delivered to dead node"
        );
        assert!(net.metrics().counter("messages_to_removed_peer") >= 1);
        // the periodic timer was discarded exactly once, not rescheduled
        assert_eq!(net.metrics().counter("timers_dropped_dead_node"), 1);
        assert_eq!(net.metrics().counter("nodes_removed"), 1);
        // the survivor is unaffected
        assert!(net.node(a).heartbeats >= 90);
    }

    #[test]
    fn remove_node_is_idempotent() {
        let mut net = ring(3);
        assert!(net.remove_node(NodeId(1)));
        assert!(!net.remove_node(NodeId(1)));
        assert_eq!(net.metrics().counter("nodes_removed"), 1);
        assert_eq!(net.active_len(), 2);
    }

    #[test]
    fn restore_node_revives_the_same_slot_and_is_idempotent() {
        let mut net = ring(3);
        net.run_until(10);
        net.remove_node(NodeId(1));
        assert!(!net.is_active(NodeId(1)));
        // restoring an active node is a no-op
        assert!(!net.restore_node(NodeId(0)));
        assert_eq!(net.metrics().counter("nodes_restored"), 0);
        // the dead node comes back under the same id
        assert!(net.restore_node(NodeId(1)));
        assert!(!net.restore_node(NodeId(1)), "second restore must no-op");
        assert_eq!(net.metrics().counter("nodes_restored"), 1);
        assert!(net.is_active(NodeId(1)));
        assert_eq!(net.active_len(), 3);
        // traffic flows to it again and is attributed to the same id
        net.invoke(NodeId(0), |_, ctx| ctx.send(NodeId(1), b"m".to_vec()));
        net.run_until(100);
        assert!(net.node(NodeId(1)).seen);
    }

    #[test]
    fn restore_reschedules_on_start_for_started_runs() {
        struct Beacon {
            starts: u64,
        }
        impl Node for Beacon {
            type Message = Vec<u8>;
            fn on_start(&mut self, _: &mut Context<Vec<u8>>) {
                self.starts += 1;
            }
            fn on_message(&mut self, _: &mut Context<Vec<u8>>, _: NodeId, _: Vec<u8>) {}
            fn on_timer(&mut self, _: &mut Context<Vec<u8>>, _: u64) {}
        }
        let mut net: Network<Beacon> = Network::new(
            UniformLatency {
                min_ms: 5,
                max_ms: 5,
            },
            1,
        );
        let a = net.add_node(Beacon { starts: 0 });
        net.run_until(50);
        assert_eq!(net.node(a).starts, 1);
        net.remove_node(a);
        net.restore_node(a);
        net.run_until(100);
        assert_eq!(net.node(a).starts, 2, "restart must re-run on_start");
    }

    #[test]
    fn partition_cuts_cross_group_traffic_only() {
        let mut net = ring(4);
        net.set_partition(vec![0, 0, 1, 1]);
        // same side: delivered
        net.invoke(NodeId(0), |node, ctx| {
            node.seen = true;
            ctx.send(NodeId(1), b"m".to_vec());
        });
        // across the cut: dropped
        net.invoke(NodeId(1), |_, ctx| ctx.send(NodeId(2), b"m".to_vec()));
        net.run_until(1_000);
        assert!(net.node(NodeId(1)).seen);
        assert!(!net.node(NodeId(2)).seen);
        // the explicit 1→2 send plus node 1's flood rebroadcast to 2
        assert_eq!(net.metrics().counter("messages_lost_partition"), 2);
        // heal: traffic crosses again
        net.clear_partition();
        net.invoke(NodeId(1), |_, ctx| ctx.send(NodeId(2), b"m".to_vec()));
        net.run_until(2_000);
        assert!(net.node(NodeId(2)).seen);
    }

    #[test]
    fn partition_drop_does_not_shift_the_link_stream() {
        // two runs, identical same-side traffic; run B adds cross-cut
        // sends that the partition eats. Surviving arrival times must be
        // identical — the cut consumes no link-stream draws.
        let run = |cross: bool| {
            let mut net: Network<Flood> = Network::new(
                UniformLatency {
                    min_ms: 5,
                    max_ms: 50,
                },
                7,
            );
            for _ in 0..4 {
                net.add_node(Flood {
                    neighbors: vec![],
                    seen: false,
                    received_at: None,
                });
            }
            net.set_partition(vec![0, 0, 1, 1]);
            net.invoke(NodeId(0), |_, ctx| {
                if cross {
                    ctx.send(NodeId(2), b"cut".to_vec());
                }
                ctx.send(NodeId(1), b"a".to_vec());
            });
            net.run_until(1_000);
            net.node(NodeId(1)).received_at
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn degradation_adds_loss_and_latency_then_clears() {
        let mut net = ring(2); // constant 10 ms links
        net.set_degradation(0.0, 25);
        net.invoke(NodeId(0), |node, ctx| {
            node.seen = true;
            ctx.send(NodeId(1), b"m".to_vec());
        });
        net.run_until(1_000);
        assert_eq!(net.node(NodeId(1)).received_at, Some(35)); // 10 + 25
        net.clear_degradation();
        let mut lossy = ring(2);
        lossy.set_degradation(1.0, 0);
        lossy.invoke(NodeId(0), |node, ctx| {
            node.seen = true;
            ctx.send(NodeId(1), b"m".to_vec());
        });
        lossy.run_until(1_000);
        assert!(!lossy.node(NodeId(1)).seen);
        assert_eq!(lossy.metrics().counter("messages_lost_degraded"), 1);
    }

    #[test]
    #[should_panic(expected = "invoke on removed node")]
    fn invoke_on_removed_node_panics() {
        let mut net = ring(3);
        net.remove_node(NodeId(0));
        net.invoke(NodeId(0), |_, _| ());
    }

    #[test]
    fn per_node_bandwidth_is_attributed_to_the_sender() {
        let mut net = ring(4);
        net.invoke(NodeId(0), |node, ctx| {
            node.seen = true;
            for n in node.neighbors.clone() {
                ctx.send(n, vec![0u8; 100]);
            }
        });
        net.run_until(1_000);
        assert!(net.metrics().node_bytes_sent(0) >= 200);
        let total: u64 = (0..4).map(|i| net.metrics().node_bytes_sent(i)).sum();
        assert_eq!(total, net.metrics().counter("bytes_sent"));
    }

    #[test]
    fn late_join_gets_started() {
        let mut net = ring(2);
        net.run_until(50);
        let id = net.add_node(Flood {
            neighbors: vec![NodeId(0)],
            seen: false,
            received_at: None,
        });
        net.run_until(100);
        // reachable: sending to it works
        net.invoke(NodeId(0), |_, ctx| ctx.send(id, b"m".to_vec()));
        net.run_until(200);
        assert!(net.node(id).seen);
    }

    #[test]
    fn quiescence_reports_leftover_events() {
        let mut net = ring(4);
        net.invoke(NodeId(0), |node, ctx| {
            node.seen = true;
            ctx.send(NodeId(1), b"m".to_vec());
        });
        // the flood settles well before 1000 ms: queue drains
        let outcome = net.run_to_quiescence(1_000);
        assert!(outcome.is_quiescent());
        assert_eq!(outcome.pending_events(), 0);
        assert_eq!(net.pending_events(), 0);

        // an in-flight message past the hard stop must be reported
        net.invoke(NodeId(2), |_, ctx| ctx.send(NodeId(3), b"late".to_vec()));
        let now = net.now();
        let outcome = net.run_to_quiescence(now); // delivery is now+10
        match outcome {
            QuiescenceOutcome::HardStop {
                pending_events,
                next_event_at_ms,
                ..
            } => {
                assert_eq!(pending_events, 1);
                assert_eq!(next_event_at_ms, now + 10);
            }
            QuiescenceOutcome::Quiescent { .. } => panic!("should have pending work"),
        }
        let queued: Vec<_> = net.queued_messages().collect();
        assert_eq!(queued, [(NodeId(3), &b"late".to_vec())]);
    }

    #[test]
    fn dispatched_counter_tracks_events() {
        let mut net = ring(4);
        net.invoke(NodeId(0), |node, ctx| {
            node.seen = true;
            ctx.send(NodeId(1), b"m".to_vec());
        });
        net.run_until(1_000);
        // 4 starts + deliveries (flood over the ring)
        assert!(net.events_dispatched() >= 5);
    }
}
