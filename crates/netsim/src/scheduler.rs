//! The deterministic in-order round scheduler.
//!
//! [`Network::run_until`](crate::sim::Network::run_until) and
//! [`Network::run_to_quiescence`](crate::sim::Network::run_to_quiescence)
//! share one loop, **batch → run in sequence order**:
//!
//! 1. **Batch** — pop *all* events sharing the earliest timestamp, in
//!    sequence order (one timing-wheel operation).
//! 2. **Run** — each event executes against its node, one at a time. Its
//!    [`Context`](crate::sim::Context) applies every send, timer and
//!    metric update as the callback emits it: link latency/loss is
//!    sampled from a dedicated link stream and every emitted event gets a
//!    fresh sequence number.
//!
//! Each node owns a private RNG stream, split from the network seed by
//! node index via [`stream_seed`], so a node's draws depend only on its
//! own history — never on what other nodes did in the same round. That
//! stream layout, the reserved link stream and the batch pop order define
//! the simulated world: same seed ⇒ byte-identical run.

use crate::sim::{EventKind, Network, Node, QueuedEvent};

/// Stream id of the link RNG (latency + loss draws). Node streams use
/// their node index; no simulation reaches `u64::MAX` nodes.
pub(crate) const LINK_STREAM: u64 = u64::MAX;

/// Derives the seed of an independent RNG stream from the network seed
/// and a stream id (a node index; the link stream — latency and loss
/// draws — uses the reserved id `u64::MAX`).
///
/// Two SplitMix64 finalizer rounds over `seed ⊕ mix(stream)`: nearby
/// stream ids (node 0, 1, 2, …) land in unrelated generator states, and
/// the derivation depends only on `(seed, stream)` — **not** on how many
/// nodes exist or on the order events run in, which is what keeps a
/// node's randomness stable when other nodes join, leave or get busier.
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

impl<N: Node> Network<N> {
    /// The round loop shared by
    /// [`Network::run_until`](crate::sim::Network::run_until) and
    /// [`Network::run_to_quiescence`](crate::sim::Network::run_to_quiescence):
    /// processes every event with `at ≤ limit`, one round per populated
    /// timestamp. Events emitted *at* the current timestamp (zero-latency
    /// sends, zero-delay timers) carry higher sequence numbers than
    /// everything already queued, so they form the next round at the same
    /// `now`.
    pub(crate) fn run_batched(&mut self, limit: u64) {
        self.ensure_started();
        let mut batch: Vec<QueuedEvent<N::Message>> = Vec::new();
        while let Some(at) = self.shared.queue.pop_next_batch(limit, &mut batch) {
            self.shared.now = at;
            self.dispatched += batch.len() as u64;
            for event in batch.drain(..) {
                self.run_event(event);
            }
        }
    }

    /// Runs one event against its node, or counts it dropped when the
    /// node died while it was in flight.
    fn run_event(&mut self, event: QueuedEvent<N::Message>) {
        let id = event.node;
        if !self.shared.is_active(id.index()) {
            if let Some(key) = dropped_at_dead_node(&event.kind) {
                self.shared.metrics.count(key, 1);
            }
            return;
        }
        self.step(id, |node, ctx| match event.kind {
            EventKind::Start => node.on_start(ctx),
            EventKind::Deliver { from, msg } => {
                ctx.count("messages_delivered", 1);
                node.on_message(ctx, from, msg);
            }
            EventKind::Timer { token } => node.on_timer(ctx, token),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::UniformLatency;
    use crate::sim::{Context, NodeId};
    use rand::Rng;

    /// A node whose behaviour leans on every context facility: RNG
    /// draws, timers, sends, global counters and CPU charges.
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
            ctx.charge_cpu(1);
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
            ctx.count("draw_residues", draw % 1000);
            for peer in self.peers.clone() {
                ctx.send(peer, vec![1]);
            }
            if self.draws.len() < 20 {
                let delay = ctx.rng().gen_range(1..20u64);
                ctx.set_timer(delay, 0);
            }
        }
    }

    /// (per-node draws, per-node receptions, per-node CPU total,
    /// draw residue total, messages_sent) — the observable surface of one
    /// run.
    type ChattyOutcome = (Vec<Vec<u64>>, Vec<Vec<(u64, NodeId)>>, u64, u64, u64);

    fn run_chatty(seed: u64) -> ChattyOutcome {
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
        net.set_loss_probability(0.05);
        net.run_until(200);
        // one external step that interleaves every kind of effect
        net.invoke(NodeId(3), |_, ctx| {
            ctx.send(NodeId(4), vec![2]);
            ctx.set_timer(5, 1);
            ctx.send_delayed(NodeId(5), vec![3], 11);
            ctx.send(NodeId(6), vec![4, 4]);
        });
        net.run_until(400);
        let draws = (0..n).map(|i| net.node(NodeId(i)).draws.clone()).collect();
        let received = (0..n)
            .map(|i| net.node(NodeId(i)).received.clone())
            .collect();
        let got: u64 = (0..n as u64)
            .map(|i| net.metrics().node_cpu_micros(i))
            .sum();
        let metrics = net.metrics();
        (
            draws,
            received,
            got,
            metrics.counter("draw_residues"),
            metrics.counter("messages_sent"),
        )
    }

    /// The seed is the whole simulated world: the same seed replays
    /// exactly, the next seed does not, and the per-node streams are
    /// genuinely per node (two nodes with the same behaviour draw
    /// different values).
    #[test]
    fn same_seed_replays_and_node_streams_are_per_node() {
        let first = run_chatty(9);
        assert_eq!(run_chatty(9), first, "seed 9 did not replay");
        assert_ne!(run_chatty(10), first, "seed 10 replayed seed 9");
        let draws = &first.0;
        assert_ne!(draws[0], draws[1]);
    }

    /// FNV-1a over the little-endian words of one run's observable
    /// surface, in a fixed order.
    fn digest(outcome: &ChattyOutcome) -> u64 {
        let (draws, received, cpu, residues, sent) = outcome;
        let mut words = vec![];
        for (d, r) in draws.iter().zip(received) {
            words.push(d.len() as u64);
            words.extend(d);
            words.push(r.len() as u64);
            words.extend(r.iter().flat_map(|(at, from)| [*at, from.as_u64()]));
        }
        words.extend([*cpu, *residues, *sent]);
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// Event order across builds: the link-stream draws, sequence
    /// numbers and RNG streams of seed 9 are pinned to the digest this
    /// run produced when it was committed. A change that moves it moves
    /// every scenario report too.
    #[test]
    fn seed_9_event_order_is_pinned() {
        assert_eq!(digest(&run_chatty(9)), 0x5130_8093_b1cf_d011);
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
        let mut net: Network<Relay> = Network::new(
            UniformLatency {
                min_ms: 0,
                max_ms: 0,
            },
            5,
        );
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
