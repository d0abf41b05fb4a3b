//! Per-layer unit-cost probes (traced runs only).
//!
//! Each probe times one public call of one crate, at the workload's tree
//! depth, peer count and frame size, in batches until its time budget is
//! spent, and reports the median over batches. Every probe leaves one
//! `probe.<layer>.<name>` span carrying its operation count.

use crate::corpus::{Corpus, Label};
use crate::metrics::MetricSet;
use crate::relay::{self, Path};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};
use waku_rln_relay::{
    decode_signal, encode_signal, CostModel, PipelineConfig, Testbed, TestbedConfig,
};
use wakurln_crypto::field::Fr;
use wakurln_crypto::merkle::{FullMerkleTree, MemberView};
use wakurln_crypto::poseidon;
use wakurln_crypto::sha256::Sha256;
use wakurln_ethsim::types::{Address, CallData, ETHER};
use wakurln_ethsim::{Chain, ChainConfig};
use wakurln_gossipsub::{
    AcceptAll, GossipsubConfig, GossipsubNode, ScoringConfig, Topic, Validator,
};
use wakurln_model::{Input, State};
use wakurln_netsim::{topology, Context, Network, Node, NodeId, Payload, UniformLatency};
use wakurln_relay::WakuMessage;
use wakurln_rln::{
    analyze_double_signal, build_evidence, create_signal, verify_signal, DoubleSignalOutcome,
    Identity, SharedGroup,
};
use wakurln_zksnark::{RlnCircuit, RlnWitness, SimSnark};

/// The workload shape the probes are sized to.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub depth: usize,
    pub peers: usize,
    pub degree: usize,
    pub latency_ms: (u64, u64),
    /// Publishers per traffic round and simulated gap between rounds.
    pub publishers: usize,
    pub round_interval_ms: u64,
    pub seed: u64,
}

/// Where the probes spend their time and leave their spans.
pub struct Bench<'a> {
    pub tracer: &'a mut Tracer,
    pub parent: SpanId,
    /// Wall budget of one unit-cost probe.
    pub budget: Duration,
    /// Samples of the two proof-generation probes.
    pub proofs: usize,
}

impl Bench<'_> {
    /// Runs `op` in batches of `batch` until the budget is spent (at least
    /// five batches) and returns the median seconds per operation.
    pub fn per_op(&mut self, name: &str, batch: usize, mut op: impl FnMut()) -> f64 {
        let start = Instant::now();
        let mut per_op = Vec::new();
        while per_op.len() < 5 || start.elapsed() < self.budget {
            let t0 = Instant::now();
            for _ in 0..batch {
                op();
            }
            per_op.push(t0.elapsed().as_secs_f64() / batch as f64);
        }
        self.span(name, start, (per_op.len() * batch) as u64);
        stats::median(&per_op)
    }

    fn span(&mut self, name: &str, start: Instant, count: u64) {
        self.tracer.record(
            &format!("probe.{name}"),
            Some(self.parent),
            start,
            Instant::now(),
            count,
        );
    }
}

/// Probes that need signals and frames: `core`, `model`, `relay`, `rln`,
/// `zksnark` and the frame-sized `crypto` hash. Returns detail lines.
pub fn frame_probes(b: &mut Bench, corpus: &Corpus, out: &mut MetricSet) -> Vec<String> {
    let mut detail = Vec::new();
    let topic = Topic::new("relay");
    let signals = &corpus.signals;
    let root = corpus.group.root();
    let full_frame = corpus
        .frames
        .iter()
        .map(|f| &f.bytes)
        .max_by_key(|bytes| bytes.len())
        .expect("a corpus has frames");

    // core: per-frame latency of the serial validator, sampled in a pass of
    // its own so the timed passes carry no clock reads
    let start = Instant::now();
    let mut latencies_us = Vec::new();
    while latencies_us.len() < 1_000 || start.elapsed() < b.budget {
        let mut validator = corpus.validator.clone();
        for frame in &corpus.frames {
            let t0 = Instant::now();
            black_box(validator.validate(frame.at_ms, &topic, black_box(&frame.bytes)));
            latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    b.span("core.validate", start, latencies_us.len() as u64);
    out.set("core.validate_us_p50", stats::median(&latencies_us));
    out.set(
        "core.validate_us_p99",
        stats::percentile(&latencies_us, 0.99),
    );
    detail.push(format!("\"core.validate_us_n\": {}", latencies_us.len()));

    let mut i = 0;
    let codec = b.per_op("core.codec", 256, || {
        let s = &signals[i % signals.len()];
        i += 1;
        let bytes = encode_signal(s.epoch, &s.signal);
        black_box(decode_signal(black_box(&bytes)).expect("round trip"));
    });
    out.set("core.codec_ns", codec * 1e9);

    // core: the pipeline's flush cost per frame (tail over flushes), and its
    // throughput when the verdict cache is too small for the fan-in
    let start = Instant::now();
    let mut flush_us = Vec::new();
    while flush_us.len() < 1_000 && start.elapsed() < 4 * b.budget {
        let pass = relay::pass(corpus, Path::Pipelined(PipelineConfig::default()), true);
        flush_us.extend(pass.flush_us_per_frame);
    }
    b.span("core.pipeline_flush", start, flush_us.len() as u64);
    let tail = stats::highest_supported(flush_us.len())
        .unwrap_or(0.5)
        .min(0.99);
    out.set(
        "core.pipeline_flush_us_per_frame_p99",
        stats::percentile(&flush_us, tail),
    );
    detail.push(format!(
        "\"core.pipeline_flush_n\": {}, \"core.pipeline_flush_percentile\": {tail}",
        flush_us.len()
    ));

    let small_cache = PipelineConfig {
        cache_capacity: 64,
        ..PipelineConfig::default()
    };
    let pass_s = b.per_op("core.pipeline_small_cache", 1, || {
        black_box(relay::pass(corpus, Path::Pipelined(small_cache), false));
    });
    out.set(
        "core.pipeline_small_cache_frames_per_s",
        corpus.frames.len() as f64 / pass_s,
    );

    // model: the decision core alone, on the corpus's own decodable frames
    // in arrival order with their proof verdicts already known
    let cost = CostModel::default();
    let inputs: Vec<Input> = corpus
        .frames
        .iter()
        .filter(|f| f.label != Label::Malformed)
        .map(|f| {
            let envelope = WakuMessage::decode(&f.bytes).expect("a whole frame");
            let wire = decode_signal(&envelope.payload).expect("a whole signal");
            Input {
                now_ms: f.at_ms,
                epoch: wire.epoch,
                signal: wire.signal,
                proof_ok: f.label != Label::InvalidProof,
                verify_cost: cost.verify_proof_micros,
            }
        })
        .collect();
    let fresh = State::new(corpus.scheme, root, cost);
    let apply = b.per_op("model.apply", 1, || {
        let mut state = fresh.clone();
        for input in &inputs {
            black_box(wakurln_model::apply(&mut state, black_box(input)));
        }
    });
    out.set("model.apply_ns", apply / inputs.len() as f64 * 1e9);

    let envelope = b.per_op("relay.envelope_codec", 256, || {
        let message = WakuMessage::decode(black_box(full_frame)).expect("a whole frame");
        black_box(message.encode());
    });
    out.set("relay.envelope_codec_ns", envelope * 1e9);

    // rln + zksnark: proof generation is tens of milliseconds, so each
    // call is one sample
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let member = 0usize;
    let path = corpus
        .group
        .membership_proof(member as u64)
        .expect("registered member");
    let start = Instant::now();
    let create_ms: Vec<f64> = (0..b.proofs)
        .map(|k| {
            let t0 = Instant::now();
            black_box(
                create_signal(
                    &corpus.identities[member],
                    &path,
                    root,
                    &corpus.proving_key,
                    Fr::from_u64(1_000_000 + k as u64),
                    b"probe",
                    &mut rng,
                )
                .expect("an honest witness proves"),
            );
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    b.span("rln.create_signal", start, create_ms.len() as u64);
    out.set("rln.create_signal_ms_p50", stats::median(&create_ms));

    let public = signals[0].signal.public_inputs();
    let witness = RlnWitness::new(corpus.identities[member].secret(), &path);
    let start = Instant::now();
    let prove_ms: Vec<f64> = (0..b.proofs.div_ceil(2))
        .map(|_| {
            let t0 = Instant::now();
            black_box(
                SimSnark::prove(&corpus.proving_key, &public, &witness, &mut rng)
                    .expect("the corpus signal's own witness"),
            );
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    b.span("zksnark.prove", start, prove_ms.len() as u64);
    out.set("zksnark.prove_ms_p50", stats::median(&prove_ms));
    detail.push(format!(
        "\"rln.create_signal_n\": {}, \"zksnark.prove_n\": {}",
        create_ms.len(),
        prove_ms.len()
    ));

    let mut i = 0;
    let verify = b.per_op("rln.verify_signal", 64, || {
        let s = &signals[i % signals.len()].signal;
        i += 1;
        black_box(verify_signal(&corpus.verifying_key, root, black_box(s)));
    });
    out.set("rln.verify_signal_us", verify * 1e6);

    let mut i = 0;
    let snark_verify = b.per_op("zksnark.verify", 64, || {
        let s = &signals[i % signals.len()].signal;
        i += 1;
        black_box(SimSnark::verify(
            &corpus.verifying_key,
            &s.public_inputs(),
            black_box(&s.proof),
        ));
    });
    out.set("zksnark.verify_us", snark_verify * 1e6);

    let depth = corpus.params.depth;
    let setup = b.per_op("zksnark.setup", 1, || {
        black_box(SimSnark::setup(RlnCircuit::new(depth), &mut rng));
    });
    out.set("zksnark.setup_ms", setup * 1e3);

    // rln: secret recovery from the first spammer's first two signals
    let p = corpus.params;
    let first = &signals[p.members * p.epochs].signal;
    let second = &signals[p.members * p.epochs + 1].signal;
    let recover = b.per_op("rln.slash_recover", 16, || {
        match analyze_double_signal(black_box(first), black_box(second)) {
            DoubleSignalOutcome::SecretRecovered(sk) => {
                black_box(build_evidence(sk, second).expect("consistent shares"));
            }
            other => panic!("the spammer's signals must reveal its key, got {other:?}"),
        }
    });
    out.set("rln.slash_recover_us", recover * 1e6);

    let sha = b.per_op("crypto.sha256_frame", 256, || {
        black_box(Sha256::digest(black_box(full_frame)));
    });
    out.set("crypto.sha256_frame_ns", sha * 1e9);
    detail.push(format!("\"frame_bytes\": {}", full_frame.len()));
    detail
}

/// Probes sized by depth and peer count only: membership (`rln`,
/// `crypto`), `ethsim`, and the Poseidon unit cost.
pub fn membership_probes(b: &mut Bench, depth: usize, peers: usize, out: &mut MetricSet) {
    let mut x = Fr::from_u64(7);
    let hash2 = b.per_op("crypto.poseidon_hash2", 256, || {
        x = poseidon::hash2(black_box(x), Fr::from_u64(3));
    });
    black_box(x);
    out.set("crypto.poseidon_hash2_ns", hash2 * 1e9);

    // the whole population registers in one burst, as at testbed set-up
    let leaves: Vec<Fr> = (0..peers as u64)
        .map(|i| Fr::from_u64(0x1000_0000 + i))
        .collect();
    let register = b.per_op("rln.register_batch", 1, || {
        let mut group = SharedGroup::new(depth).expect("supported depth");
        black_box(group.register_batch(&leaves).expect("capacity"));
    });
    out.set(
        "rln.register_batch_us_per_member",
        register / leaves.len() as f64 * 1e6,
    );

    let append = b.per_op("crypto.merkle_append", 1, || {
        let mut tree = FullMerkleTree::new(depth).expect("supported depth");
        black_box(tree.append_batch_with_delta(&leaves).expect("capacity"));
    });
    out.set(
        "crypto.merkle_append_us_per_leaf",
        append / leaves.len() as f64 * 1e6,
    );

    // one burst delta fanned out to every member's light view
    let delta = FullMerkleTree::new(depth)
        .expect("supported depth")
        .append_batch_with_delta(&leaves)
        .expect("capacity");
    let empty = MemberView::new(depth).expect("supported depth");
    let views = peers.min(1_024);
    let apply = b.per_op("crypto.member_view_apply", 1, || {
        for own in 0..views as u64 {
            let mut view = empty.clone();
            view.apply_append(&delta, Some(own)).expect("fresh view");
            black_box(view);
        }
    });
    out.set("crypto.member_view_apply_ns", apply / views as f64 * 1e9);

    // ethsim: fund + register + mine, then slash + mine
    let txs = peers.min(1_024);
    let members: Vec<Identity> = (0..txs as u64)
        .map(|i| Identity::from_secret(Fr::from_u64(0x2000_0000 + i)))
        .collect();
    let config = ChainConfig {
        tree_depth: depth,
        ..ChainConfig::default()
    };
    let registered = |members: &[Identity]| {
        let mut chain = Chain::new(config);
        for (i, id) in members.iter().enumerate() {
            let address = Address::from_label(&format!("probe-{i}"));
            chain.fund(address, 2 * ETHER);
            chain
                .submit(
                    address,
                    ETHER,
                    CallData::Register {
                        commitment: id.commitment(),
                    },
                )
                .expect("funded");
        }
        chain.advance_to(config.block_interval);
        assert_eq!(chain.membership().active_count(), members.len());
        chain
    };
    let register = b.per_op("ethsim.register", 1, || {
        black_box(registered(&members));
    });
    out.set("ethsim.register_us_per_tx", register / txs as f64 * 1e6);

    let slasher = Address::from_label("probe-0");
    let start = Instant::now();
    let mut slash_s = Vec::new();
    while slash_s.len() < 5 || start.elapsed() < b.budget {
        let mut chain = registered(&members);
        let t0 = Instant::now();
        for id in &members {
            chain
                .submit(
                    slasher,
                    0,
                    CallData::Slash {
                        secret: id.secret(),
                    },
                )
                .expect("no value attached");
        }
        chain.advance_to(2 * config.block_interval);
        slash_s.push(t0.elapsed().as_secs_f64() / txs as f64);
        assert_eq!(chain.membership().active_count(), 0);
    }
    b.span("ethsim.slash", start, (slash_s.len() * txs) as u64);
    out.set("ethsim.slash_us", stats::median(&slash_s) * 1e6);
}

/// `Testbed::build` at the workload's size, once. Returns the seconds of
/// membership sync inside it (the set-up share of
/// `core.registration_sync_s`).
pub fn testbed_build_probe(b: &mut Bench, shape: &Shape, out: &mut MetricSet) -> f64 {
    let start = Instant::now();
    let testbed = Testbed::build(TestbedConfig {
        n_peers: shape.peers,
        tree_depth: shape.depth,
        degree: shape.degree,
        seed: shape.seed,
        latency_ms: shape.latency_ms,
        threads: 1,
        ..TestbedConfig::default()
    });
    out.set("core.testbed_build_s", start.elapsed().as_secs_f64());
    b.span("core.testbed_build", start, shape.peers as u64);
    testbed.phase_timings().registration_sync_ns as f64 / 1e9
}

/// The smallest message a network can carry: an id and nothing else.
#[derive(Clone)]
struct Flood(u32);

impl Payload for Flood {
    fn size_bytes(&self) -> usize {
        4
    }
}

/// First-seen flooding: the least a node can do with a message, so a
/// network of these measures the scheduler itself (wheel, context, merge,
/// metric replay).
struct FloodNode {
    peers: Vec<NodeId>,
    seen: HashSet<u32>,
}

impl FloodNode {
    fn spread(&mut self, ctx: &mut Context<Flood>, skip: Option<NodeId>, id: u32) {
        if self.seen.insert(id) {
            for peer in &self.peers {
                if Some(*peer) != skip {
                    ctx.send(*peer, Flood(id));
                }
            }
        }
    }
}

impl Node for FloodNode {
    type Message = Flood;
    fn on_start(&mut self, _ctx: &mut Context<Flood>) {}
    fn on_message(&mut self, ctx: &mut Context<Flood>, from: NodeId, msg: Flood) {
        self.spread(ctx, Some(from), msg.0);
    }
    fn on_timer(&mut self, _ctx: &mut Context<Flood>, _token: u64) {}
}

/// `netsim` floor and `gossipsub` cost per event on the workload's
/// topology, latency, publish schedule and frame size. Both networks run
/// publish rounds until four unit-probe budgets are spent: a round at 10k
/// peers is hundreds of thousands of events.
pub fn network_probes(b: &mut Bench, shape: &Shape, frame_bytes: usize, out: &mut MetricSet) {
    let budget = 4 * b.budget;
    let adjacency = topology::random_regular(shape.peers, shape.degree, shape.seed);
    let latency = UniformLatency {
        min_ms: shape.latency_ms.0,
        max_ms: shape.latency_ms.1,
    };

    let start = Instant::now();
    let mut net: Network<FloodNode> = Network::new(latency, shape.seed);
    for peers in adjacency.iter().cloned() {
        net.add_node(FloodNode {
            peers,
            seen: HashSet::new(),
        });
    }
    let mut busy = Duration::ZERO;
    let mut round = 0u32;
    while round == 0 || busy < budget {
        for p in 0..shape.publishers {
            let id = round * shape.publishers as u32 + p as u32;
            let origin = NodeId((id as usize * 7_919) % shape.peers);
            net.invoke(origin, |node, ctx| node.spread(ctx, None, id));
        }
        let t0 = Instant::now();
        net.run_until(net.now() + shape.round_interval_ms);
        busy += t0.elapsed();
        round += 1;
    }
    let bare_ns = busy.as_secs_f64() * 1e9 / net.events_dispatched() as f64;
    b.span("netsim.bare", start, net.events_dispatched());
    out.set("netsim.bare_ns_per_event", bare_ns);
    drop(net);

    let start = Instant::now();
    let topic = Topic::new("probe");
    let mut net: Network<GossipsubNode<AcceptAll>> = Network::new(latency, shape.seed);
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
    // meshes form during the first ten simulated seconds, as in every
    // scenario; that time is part of the workload and is counted
    let t0 = Instant::now();
    net.run_until(10_000);
    let mut busy = t0.elapsed();
    let payload = vec![0xabu8; frame_bytes];
    let mut round = 0usize;
    while round == 0 || busy < budget {
        for p in 0..shape.publishers {
            let mut data = payload.clone();
            data[..8].copy_from_slice(&((round * shape.publishers + p) as u64).to_le_bytes());
            let origin = NodeId(((round * shape.publishers + p) * 7_919) % shape.peers);
            net.invoke(origin, |node, ctx| {
                node.publish(ctx, topic.clone(), data);
            });
        }
        let t0 = Instant::now();
        net.run_until(net.now() + shape.round_interval_ms);
        busy += t0.elapsed();
        round += 1;
    }
    let per_event_ns = busy.as_secs_f64() * 1e9 / net.events_dispatched() as f64;
    b.span("gossipsub.network", start, net.events_dispatched());
    out.set("gossipsub.ns_per_event", (per_event_ns - bare_ns).max(0.0));
}
