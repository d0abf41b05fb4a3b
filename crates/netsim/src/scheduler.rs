//! The deterministic sharded batch scheduler.
//!
//! [`Network::run_until`](crate::sim::Network::run_until) used to pop one
//! event at a time off the global queue; every callback serialized on the
//! single shared RNG and the shared metrics table. This module replaces
//! that loop with a **batch → shard → merge** pipeline that admits
//! multi-threaded execution without giving up byte-identical determinism:
//!
//! 1. **Batch** — pop *all* events sharing the earliest timestamp, in
//!    sequence order.
//! 2. **Shard** — partition the batch by destination node. Each node owns
//!    a private RNG stream (split from the network seed by node index via
//!    [`stream_seed`]), so a node's execution depends only on its own
//!    state and events — never on which shard or thread it lands on.
//!    Shards execute on scoped worker threads. A round too small to
//!    amortize a fan-out (and every round with `threads = 1`) skips the
//!    sharding: the batch is already in sequence order, so each event
//!    runs and has its output applied in turn — the same outcome with
//!    no grouping, no sort and no allocation per event.
//! 3. **Merge** — each executed event hands back its collected effects
//!    and buffered metric updates; the main thread replays them in
//!    canonical event-sequence order, sampling link latency/loss from a
//!    dedicated link stream and assigning fresh sequence numbers.
//!
//! Because node streams are keyed by node index (not by shard), and the
//! merge order is the canonical `(timestamp, sequence)` order (not the
//! completion order), `threads = 1` and `threads = N` produce the same
//! simulation bit for bit — the property `tests/scheduler_determinism.rs`
//! holds the whole stack to.
//!
//! Workers receive **owned** node slots through channels (the workspace
//! forbids `unsafe`, so no scoped `&mut` aliasing tricks): a round moves
//! each busy node's slot out of the node store, ships it to a worker
//! together with that node's events, and reinstalls it when the results
//! come back. A slot move is a shallow `memcpy` of the node struct —
//! cheap next to proof validation, hashing and mesh maintenance.

use crate::sim::{
    apply_metric_op, Effect, EventKind, MetricOp, Network, Node, NodeId, QueuedEvent,
};
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::sync::mpsc;

/// Stream id of the link RNG (latency + loss draws). Node streams use
/// their node index; no simulation reaches `u64::MAX` nodes.
pub(crate) const LINK_STREAM: u64 = u64::MAX;

/// Fewer live events than this per round execute inline: a cross-thread
/// round costs two channel hops per worker plus wakeup latency, which
/// only pays for itself once a round carries real work.
const MIN_EVENTS_PER_WORKER: usize = 8;

/// Derives the seed of an independent RNG stream from the network seed
/// and a stream id (a node index; the link stream — latency and loss
/// draws — uses the reserved id `u64::MAX`).
///
/// Two SplitMix64 finalizer rounds over `seed ⊕ mix(stream)`: nearby
/// stream ids (node 0, 1, 2, …) land in unrelated generator states, and
/// the derivation depends only on `(seed, stream)` — **not** on shard
/// count, thread count or execution order, which is what keeps per-node
/// randomness stable when the scheduler re-partitions work.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        ^ stream
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x632b_e59b_d9b4_e019);
    for _ in 0..2 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
    }
    z
}

/// A node's events for one round: `(original sequence, event)` pairs in
/// sequence order.
type NodeEvents<M> = Vec<(u64, EventKind<M>)>;

/// One node's mutable simulation state: the protocol machine plus its
/// private RNG stream. Moved out of the store wholesale when a worker
/// thread takes over the node for a round.
#[derive(Clone)]
pub(crate) struct Slot<N> {
    pub(crate) node: N,
    pub(crate) rng: StdRng,
}

/// The shard-partitionable node store: every per-node mutable thing the
/// scheduler must hand to exactly one worker at a time lives in a
/// [`Slot`]; liveness flags stay behind (they are read-only during a
/// round and consulted while merging sends).
#[derive(Clone)]
pub(crate) struct NodeStore<N> {
    slots: Vec<Option<Slot<N>>>,
    active: Vec<bool>,
}

impl<N> NodeStore<N> {
    pub(crate) fn new() -> NodeStore<N> {
        NodeStore {
            slots: Vec::new(),
            active: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, node: N, rng: StdRng) -> usize {
        self.slots.push(Some(Slot { node, rng }));
        self.active.push(true);
        self.slots.len() - 1
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn is_active(&self, index: usize) -> bool {
        self.active.get(index).copied().unwrap_or(false)
    }

    pub(crate) fn active_len(&self) -> usize {
        self.active.iter().filter(|a| **a).count()
    }

    /// Marks a node dead; returns whether it was alive.
    pub(crate) fn deactivate(&mut self, index: usize) -> bool {
        std::mem::replace(&mut self.active[index], false)
    }

    /// Marks a dead node live again (crash → restart on the *same* slot:
    /// the node struct and its RNG stream are untouched); returns whether
    /// it was dead.
    pub(crate) fn reactivate(&mut self, index: usize) -> bool {
        !std::mem::replace(&mut self.active[index], true)
    }

    pub(crate) fn node(&self, index: usize) -> &N {
        // lint:allow(panic-path, reason = "slot discipline: callers hold indices of checked-in slots; a missing slot is a scheduler bug")
        &self.slots[index].as_ref().expect("slot checked out").node
    }

    pub(crate) fn node_mut(&mut self, index: usize) -> &mut N {
        // lint:allow(panic-path, reason = "slot discipline: callers hold indices of checked-in slots; a missing slot is a scheduler bug")
        &mut self.slots[index].as_mut().expect("slot checked out").node
    }

    pub(crate) fn slot_mut(&mut self, index: usize) -> &mut Slot<N> {
        // lint:allow(panic-path, reason = "slot discipline: callers hold indices of checked-in slots; a missing slot is a scheduler bug")
        self.slots[index].as_mut().expect("slot checked out")
    }

    /// Checks a slot out for a worker round.
    fn take(&mut self, index: usize) -> Slot<N> {
        // lint:allow(panic-path, reason = "slot discipline: take() runs exactly once per checked-in slot per batch")
        self.slots[index].take().expect("slot already checked out")
    }

    /// Returns a checked-out slot.
    fn put(&mut self, index: usize, slot: Slot<N>) {
        debug_assert!(self.slots[index].is_none(), "slot not checked out");
        self.slots[index] = Some(slot);
    }
}

/// The output of one executed event, tagged with its canonical sequence
/// number so the merge can restore serial order no matter which thread
/// produced it.
struct Executed<M> {
    seq: u64,
    origin: NodeId,
    effects: Vec<Effect<M>>,
    ops: Vec<MetricOp>,
}

/// One node's work for a round: its checked-out slot plus the events
/// addressed to it, in sequence order.
struct Shard<N: Node> {
    now: u64,
    id: NodeId,
    slot: Slot<N>,
    events: NodeEvents<N::Message>,
}

/// A shard after execution: the slot travels back with the outputs.
struct ShardResult<N: Node> {
    id: NodeId,
    slot: Slot<N>,
    executed: Vec<Executed<N::Message>>,
}

/// Runs one event against its node, collecting the step's output into
/// `effects` and `ops` (both empty on entry; their capacity is reused).
/// Identical code runs inline and on workers — the execution path cannot
/// diverge.
fn execute_event<N: Node>(
    now: u64,
    id: NodeId,
    slot: &mut Slot<N>,
    kind: EventKind<N::Message>,
    effects: &mut Vec<Effect<N::Message>>,
    ops: &mut Vec<MetricOp>,
) {
    let mut ctx = crate::sim::Context::new(
        now,
        id,
        slot.rng.clone(),
        std::mem::take(effects),
        std::mem::take(ops),
    );
    match kind {
        EventKind::Start => slot.node.on_start(&mut ctx),
        EventKind::Deliver { from, msg } => {
            ctx.count("messages_delivered", 1);
            slot.node.on_message(&mut ctx, from, msg);
        }
        EventKind::Timer { token } => slot.node.on_timer(&mut ctx, token),
    }
    (slot.rng, *effects, *ops) = ctx.finish();
}

/// Runs the events of one shard against its node, in order, keeping each
/// event's output for the merge.
fn execute_shard<N: Node>(
    now: u64,
    id: NodeId,
    slot: &mut Slot<N>,
    events: NodeEvents<N::Message>,
) -> Vec<Executed<N::Message>> {
    events
        .into_iter()
        .map(|(seq, kind)| {
            let (mut effects, mut ops) = (Vec::new(), Vec::new());
            execute_event(now, id, slot, kind, &mut effects, &mut ops);
            Executed {
                seq,
                origin: id,
                effects,
                ops,
            }
        })
        .collect()
}

/// The counter an event addressed to a dead node is accounted under: the
/// node died while the event was in flight, and its state is never
/// touched.
fn dropped_at_dead_node<M>(kind: &EventKind<M>) -> Option<&'static str> {
    match kind {
        EventKind::Deliver { .. } => Some("messages_to_removed_peer"),
        EventKind::Timer { .. } => Some("timers_dropped_dead_node"),
        EventKind::Start => None,
    }
}

/// What a worker hands back for one round: the executed shards, or the
/// panic payload of a node callback that blew up. Forwarding the payload
/// (instead of letting the worker die silently) is what keeps a panic a
/// *panic* — without it the main thread would block forever on a result
/// that never comes while the other workers keep the channel open.
type RoundOutcome<N> = Result<Vec<ShardResult<N>>, Box<dyn std::any::Any + Send + 'static>>;

/// A per-run worker pool: scoped threads that receive owned shards and
/// return them executed. Lives for one `run_until`/`run_to_quiescence`
/// call; blocked on `recv` between rounds, shut down by dropping the
/// senders when the run's scope closes.
struct WorkerPool<N: Node> {
    shard_txs: Vec<mpsc::Sender<Vec<Shard<N>>>>,
    result_rx: mpsc::Receiver<RoundOutcome<N>>,
}

impl<N: Node> WorkerPool<N> {
    fn start<'scope, 'env>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        workers: usize,
    ) -> WorkerPool<N>
    where
        N: 'env,
    {
        let (result_tx, result_rx) = mpsc::channel::<RoundOutcome<N>>();
        let mut shard_txs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::channel::<Vec<Shard<N>>>();
            let result_tx = result_tx.clone();
            scope.spawn(move || {
                while let Ok(shards) = rx.recv() {
                    let results = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        shards
                            .into_iter()
                            .map(|mut shard| {
                                let executed = execute_shard(
                                    shard.now,
                                    shard.id,
                                    &mut shard.slot,
                                    std::mem::take(&mut shard.events),
                                );
                                ShardResult {
                                    id: shard.id,
                                    slot: shard.slot,
                                    executed,
                                }
                            })
                            .collect::<Vec<ShardResult<N>>>()
                    }));
                    let died = results.is_err();
                    if result_tx.send(results).is_err() || died {
                        break; // run ended mid-round, or our shards are gone
                    }
                }
            });
            shard_txs.push(tx);
        }
        WorkerPool {
            shard_txs,
            result_rx,
        }
    }
}

impl<N: Node> Network<N> {
    /// The batch → shard → merge loop shared by
    /// [`Network::run_until`](crate::sim::Network::run_until) and
    /// [`Network::run_to_quiescence`](crate::sim::Network::run_to_quiescence):
    /// processes every event with `at ≤ limit`.
    pub(crate) fn run_batched(&mut self, limit: u64) {
        self.ensure_started();
        let workers = self.threads.min(self.nodes.len()).max(1);
        if workers > 1 {
            std::thread::scope(|scope| {
                let pool = WorkerPool::start(scope, workers);
                self.drive(limit, Some(&pool));
                // senders drop here; workers see a closed channel and exit
            });
        } else {
            self.drive(limit, None);
        }
    }

    /// Round loop: one iteration per populated timestamp. Events emitted
    /// *at* the current timestamp (zero-latency sends, zero-delay timers)
    /// carry higher sequence numbers than everything already queued, so
    /// they form the next round at the same `now` — exactly the order the
    /// serial loop produced.
    fn drive(&mut self, limit: u64, pool: Option<&WorkerPool<N>>) {
        let mut batch: Vec<QueuedEvent<N::Message>> = Vec::new();
        // the step-output buffers every inline event collects into
        let (mut effects, mut ops) = (Vec::new(), Vec::new());
        loop {
            // batch: every event at the earliest timestamp ≤ limit, in
            // seq order — one timing-wheel operation
            batch.clear();
            let Some(at) = self.queue.pop_next_batch(limit, &mut batch) else {
                break;
            };
            self.now = at;
            self.dispatched += batch.len() as u64;
            match pool {
                // a fan-out needs MIN_EVENTS_PER_WORKER live events for
                // each of at least two workers
                Some(pool) if batch.len() >= 2 * MIN_EVENTS_PER_WORKER => {
                    self.run_round_sharded(&mut batch, pool)
                }
                _ => self.run_round_inline(&mut batch, &mut effects, &mut ops),
            }
        }
    }

    /// Executes one round on the calling thread: the batch is already in
    /// canonical sequence order, so each event runs and has its output
    /// applied in turn. A node sees its own events in sequence order and
    /// nothing else a step can observe changes within a round (emitted
    /// events queue for a later one), so this is the outcome the sharded
    /// round's group → execute → sort-by-sequence merge produces, without
    /// the grouping and with no allocation per event.
    fn run_round_inline(
        &mut self,
        batch: &mut Vec<QueuedEvent<N::Message>>,
        effects: &mut Vec<Effect<N::Message>>,
        ops: &mut Vec<MetricOp>,
    ) {
        for event in batch.drain(..) {
            let id = event.node;
            if !self.nodes.is_active(id.index()) {
                if let Some(key) = dropped_at_dead_node(&event.kind) {
                    self.metrics.count(key, 1);
                }
                continue;
            }
            let slot = self.nodes.slot_mut(id.index());
            execute_event(self.now, id, slot, event.kind, effects, ops);
            for op in ops.drain(..) {
                apply_metric_op(&mut self.metrics, op);
            }
            self.apply_effects(id, effects);
        }
    }

    /// Executes one round (all events of one timestamp) sharded by
    /// destination node — on the worker pool when the round is wide
    /// enough — and merges the outputs back in canonical order.
    fn run_round_sharded(
        &mut self,
        batch: &mut Vec<QueuedEvent<N::Message>>,
        pool: &WorkerPool<N>,
    ) {
        let mut executed: Vec<Executed<N::Message>> = Vec::with_capacity(batch.len());
        // shard the live events by destination node (dead nodes produce
        // their drop-accounting inline; their state is never touched)
        let mut shard_of: HashMap<usize, usize> = HashMap::new();
        let mut shards: Vec<(NodeId, NodeEvents<N::Message>)> = Vec::new();
        let mut live_events = 0usize;
        for event in batch.drain(..) {
            let id = event.node;
            if !self.nodes.is_active(id.index()) {
                let op = dropped_at_dead_node(&event.kind).map(|key| MetricOp::Count(key, 1));
                executed.push(Executed {
                    seq: event.seq,
                    origin: id,
                    effects: Vec::new(),
                    ops: op.into_iter().collect(),
                });
                continue;
            }
            live_events += 1;
            let slot = *shard_of.entry(id.index()).or_insert_with(|| {
                shards.push((id, Vec::new()));
                shards.len() - 1
            });
            shards[slot].1.push((event.seq, event.kind));
        }

        let workers = pool
            .shard_txs
            .len()
            .min(shards.len())
            .min(live_events / MIN_EVENTS_PER_WORKER);

        match workers {
            0 | 1 => {
                // too narrow after all (one busy node, or dead ones):
                // same execute_shard as the workers run
                for (id, events) in shards {
                    let slot = self.nodes.slot_mut(id.index());
                    executed.extend(execute_shard(self.now, id, slot, events));
                }
            }
            workers => {
                self.parallel_rounds += 1;
                // balance shards over workers by event count (largest
                // first, greedily onto the lightest worker)
                let mut order: Vec<usize> = (0..shards.len()).collect();
                order.sort_by_key(|i| std::cmp::Reverse(shards[*i].1.len()));
                let mut assignment: Vec<Vec<Shard<N>>> = (0..workers).map(|_| Vec::new()).collect();
                let mut load = vec![0usize; workers];
                // drain shards in assignment order without reshuffling the vec
                let mut shards: Vec<Option<(NodeId, NodeEvents<N::Message>)>> =
                    shards.into_iter().map(Some).collect();
                for i in order {
                    // lint:allow(panic-path, reason = "each shard is assigned exactly once; take() runs once per filled shard")
                    let (id, events) = shards[i].take().expect("assigned once");
                    // lint:allow(panic-path, reason = "workers >= 2 in the parallel branch, so min_by_key always sees candidates")
                    let w = (0..workers).min_by_key(|w| load[*w]).expect("workers >= 2");
                    load[w] += events.len();
                    assignment[w].push(Shard {
                        now: self.now,
                        id,
                        slot: self.nodes.take(id.index()),
                        events,
                    });
                }
                let mut rounds_sent = 0;
                for (w, work) in assignment.into_iter().enumerate() {
                    if work.is_empty() {
                        continue;
                    }
                    rounds_sent += 1;
                    // lint:allow(panic-path, reason = "worker threads live for the pool lifetime; a dead worker already panicked and must stop the run")
                    pool.shard_txs[w].send(work).expect("worker alive");
                }
                for _ in 0..rounds_sent {
                    // lint:allow(panic-path, reason = "worker threads live for the pool lifetime; a dead worker already panicked and must stop the run")
                    match pool.result_rx.recv().expect("worker alive") {
                        Ok(results) => {
                            for result in results {
                                self.nodes.put(result.id.index(), result.slot);
                                executed.extend(result.executed);
                            }
                        }
                        // a node callback panicked on a worker: re-raise
                        // on the main thread so the run fails loudly
                        // instead of deadlocking on results that will
                        // never arrive
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
            }
        }

        // merge: canonical event order, regardless of completion order
        executed.sort_unstable_by_key(|e| e.seq);
        for mut ex in executed {
            for op in ex.ops {
                apply_metric_op(&mut self.metrics, op);
            }
            self.apply_effects(ex.origin, &mut ex.effects);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::UniformLatency;
    use crate::sim::Context;
    use rand::Rng;

    /// A node whose behaviour leans on every context facility: RNG
    /// draws, timers, sends, global and per-node counters.
    struct Chatty {
        peers: Vec<NodeId>,
        draws: Vec<u64>,
        received: Vec<(u64, NodeId)>,
    }

    impl Node for Chatty {
        type Message = Vec<u8>;
        fn on_start(&mut self, ctx: &mut Context<Vec<u8>>) {
            let jitter = ctx.rng().gen_range(1..50u64);
            ctx.set_timer(jitter, 0);
        }
        fn on_message(&mut self, ctx: &mut Context<Vec<u8>>, from: NodeId, msg: Vec<u8>) {
            self.received.push((ctx.now(), from));
            ctx.count_self("got", 1);
            if msg.len() < 4 {
                let mut fwd = msg;
                fwd.push(0);
                let peer = self.peers[ctx.rng().gen_range(0..self.peers.len())];
                ctx.send(peer, fwd);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<Vec<u8>>, _t: u64) {
            let draw: u64 = ctx.rng().gen();
            self.draws.push(draw);
            ctx.record("draw", (draw % 1000) as f64);
            for peer in self.peers.clone() {
                ctx.send(peer, vec![1]);
            }
            if self.draws.len() < 20 {
                let delay = ctx.rng().gen_range(1..20u64);
                ctx.set_timer(delay, 0);
            }
        }
    }

    /// (per-node draws, per-node receptions, per-node counter total,
    /// messages_sent) — the observable surface compared across threads.
    type ChattyOutcome = (Vec<Vec<u64>>, Vec<Vec<(u64, NodeId)>>, u64, u64);

    fn run_chatty(threads: usize, seed: u64) -> ChattyOutcome {
        let n = 12;
        let mut net: Network<Chatty> = Network::new(
            UniformLatency {
                min_ms: 0,
                max_ms: 7,
            },
            seed,
        );
        for i in 0..n {
            net.add_node(Chatty {
                peers: (0..n).filter(|j| *j != i).map(NodeId).collect(),
                draws: vec![],
                received: vec![],
            });
        }
        net.set_threads(threads);
        net.set_loss_probability(0.05);
        net.run_until(400);
        let draws = (0..n).map(|i| net.node(NodeId(i)).draws.clone()).collect();
        let received = (0..n)
            .map(|i| net.node(NodeId(i)).received.clone())
            .collect();
        let got: u64 = (0..n as u64)
            .map(|i| net.metrics().node_counter(i, "got"))
            .sum();
        (draws, received, got, net.metrics().counter("messages_sent"))
    }

    #[test]
    fn thread_count_does_not_change_the_simulation() {
        let serial = run_chatty(1, 77);
        for threads in [2, 4, 8] {
            assert_eq!(
                run_chatty(threads, 77),
                serial,
                "threads={threads} diverged from threads=1"
            );
        }
    }

    /// The per-node ("per-shard") RNG streams must be a function of
    /// `(seed, node index)` alone — re-partitioning work over a different
    /// shard/thread count must not shift anyone's stream.
    #[test]
    fn node_streams_are_stable_under_shard_count_changes() {
        let (draws_1, ..) = run_chatty(1, 9);
        let (draws_8, ..) = run_chatty(8, 9);
        assert_eq!(draws_1, draws_8);
        // and the streams are genuinely per-node: two nodes with the same
        // behaviour draw different values
        assert_ne!(draws_1[0], draws_1[1]);
    }

    #[test]
    fn stream_seed_is_pure_and_collision_resistant_for_small_ids() {
        let mut seen = std::collections::HashSet::new();
        for node in 0..10_000u64 {
            assert_eq!(stream_seed(42, node), stream_seed(42, node));
            assert!(seen.insert(stream_seed(42, node)), "stream collision");
        }
        assert_ne!(stream_seed(1, 0), stream_seed(2, 0));
        assert_ne!(stream_seed(1, LINK_STREAM), stream_seed(1, 0));
    }

    /// A star broadcast over constant latency produces rounds of ~64
    /// same-timestamp events: the worker pool must actually engage (no
    /// vacuous pass) and still match the serial execution exactly.
    #[test]
    fn big_rounds_fan_out_and_match_serial() {
        struct Spray {
            peers: Vec<NodeId>,
            forwarded: bool,
            received: u64,
            draw: u64,
        }
        impl Node for Spray {
            type Message = Vec<u8>;
            fn on_start(&mut self, ctx: &mut Context<Vec<u8>>) {
                if ctx.node_id() == NodeId(0) {
                    for p in self.peers.clone() {
                        ctx.send(p, vec![0]);
                    }
                }
            }
            fn on_message(&mut self, ctx: &mut Context<Vec<u8>>, _: NodeId, msg: Vec<u8>) {
                self.received += 1;
                self.draw = self.draw.wrapping_add(ctx.rng().gen());
                ctx.count_self("got", 1);
                if !self.forwarded && msg.len() < 3 {
                    self.forwarded = true;
                    let mut fwd = msg;
                    fwd.push(1);
                    for p in self.peers.clone() {
                        ctx.send(p, fwd.clone());
                    }
                }
            }
            fn on_timer(&mut self, _: &mut Context<Vec<u8>>, _: u64) {}
        }
        let build = |threads: usize| {
            let n = 64;
            let mut net: Network<Spray> = Network::new(crate::latency::ConstantLatency(10), 21);
            for i in 0..n {
                net.add_node(Spray {
                    peers: (0..n).filter(|j| *j != i).map(NodeId).collect(),
                    forwarded: false,
                    received: 0,
                    draw: 0,
                });
            }
            net.set_threads(threads);
            net.run_until(100);
            let state: Vec<(u64, u64)> = (0..n)
                .map(|i| (net.node(NodeId(i)).received, net.node(NodeId(i)).draw))
                .collect();
            (
                state,
                net.metrics().counter("messages_sent"),
                net.parallel_rounds(),
            )
        };
        let (serial_state, serial_sent, serial_rounds) = build(1);
        assert_eq!(serial_rounds, 0, "threads=1 must never fan out");
        let (par_state, par_sent, par_rounds) = build(4);
        assert!(par_rounds > 0, "pool never engaged: the test is vacuous");
        assert_eq!(par_state, serial_state);
        assert_eq!(par_sent, serial_sent);
    }

    /// A node-callback panic on a worker thread must surface as a panic
    /// on the caller (not leave the main thread blocked forever on
    /// results that will never arrive).
    #[test]
    #[should_panic(expected = "boom from a worker")]
    fn worker_panics_propagate_instead_of_deadlocking() {
        struct Grenade {
            peers: Vec<NodeId>,
        }
        impl Node for Grenade {
            type Message = Vec<u8>;
            fn on_start(&mut self, ctx: &mut Context<Vec<u8>>) {
                if ctx.node_id() == NodeId(0) {
                    for p in self.peers.clone() {
                        ctx.send(p, vec![0]);
                    }
                }
            }
            fn on_message(&mut self, ctx: &mut Context<Vec<u8>>, _: NodeId, _: Vec<u8>) {
                if ctx.node_id() == NodeId(13) {
                    panic!("boom from a worker");
                }
            }
            fn on_timer(&mut self, _: &mut Context<Vec<u8>>, _: u64) {}
        }
        let n = 64;
        let mut net: Network<Grenade> = Network::new(crate::latency::ConstantLatency(10), 2);
        for i in 0..n {
            net.add_node(Grenade {
                peers: (0..n).filter(|j| *j != i).map(NodeId).collect(),
            });
        }
        net.set_threads(4);
        net.run_until(100); // the t=10 round has 63 events: pool engages
    }

    #[test]
    fn zero_latency_sends_execute_in_the_same_timestamp() {
        struct Relay {
            next: Option<NodeId>,
            got_at: Option<u64>,
        }
        impl Node for Relay {
            type Message = Vec<u8>;
            fn on_start(&mut self, _: &mut Context<Vec<u8>>) {}
            fn on_message(&mut self, ctx: &mut Context<Vec<u8>>, _: NodeId, msg: Vec<u8>) {
                self.got_at = Some(ctx.now());
                if let Some(next) = self.next {
                    ctx.send(next, msg);
                }
            }
            fn on_timer(&mut self, _: &mut Context<Vec<u8>>, _: u64) {}
        }
        let mut net: Network<Relay> = Network::new(crate::latency::ConstantLatency(0), 5);
        for i in 0..5 {
            let next = (i + 1 < 5).then(|| NodeId(i + 1));
            net.add_node(Relay { next, got_at: None });
        }
        net.invoke(NodeId(0), |_, ctx| ctx.send(NodeId(1), b"m".to_vec()));
        net.run_until(0);
        // the whole chain collapses into rounds at t = 0
        for i in 1..5 {
            assert_eq!(net.node(NodeId(i)).got_at, Some(0), "node {i}");
        }
    }
}
