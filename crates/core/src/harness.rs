//! Full-network testbed: WAKU-RLN-RELAY peers over the discrete-event
//! network, synchronized with the simulated membership contract.
//!
//! This stitches together every piece of Figure 1: peers register on the
//! chain (staking), sync the membership tree from contract events, publish
//! rate-limited anonymous messages over gossip, detect double-signaling in
//! their nullifier maps, and slash spammers back on the chain.

use crate::node::{PublishError, RlnRelayNode};
use crate::pipeline::PipelineConfig;
use crate::validator::{CostModel, RlnValidator};
use crate::EpochScheme;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
// lint:allow(host-time, reason = "phase timing only: Instant feeds the host-side phase_timings accumulators, never simulation state")
use std::time::Instant;
use wakurln_crypto::field::Fr;
use wakurln_crypto::merkle::{zero_hashes, AppendDelta, UpdateDelta};
use wakurln_ethsim::types::{Address, CallData, ChainEvent};
use wakurln_ethsim::{Chain, ChainConfig};
use wakurln_gossipsub::{GossipsubConfig, MessageId, Rpc};
use wakurln_netsim::{topology, Network, NodeId, QuiescenceOutcome, UniformLatency};
use wakurln_rln::{Identity, SharedGroup};
use wakurln_zksnark::{ProvingKey, RlnCircuit, SimSnark, VerifyingKey};

/// One entry of the membership log: a processed contract event in the
/// delta form peers apply. The log is the only thing that moves a peer's
/// light view — live peers, late joiners and restarted peers all catch up
/// from their cursor through [`Testbed::catch_up`] — so every peer applies
/// the same deltas in the same order and ends with the same root and
/// accepted-roots window. Registrations are stored one burst per tick
/// (see [`TICK_MS`]), the granularity at which roots enter that window.
#[derive(Clone, Debug)]
enum ReplayEvent {
    RegisteredBurst { delta: AppendDelta },
    Slashed { delta: UpdateDelta },
}

/// The world's clock resolution: the harness ticks (chain, membership
/// sync, resyncs, slashing) at every whole second of simulated time, the
/// resolution of the chain's seconds clock.
pub const TICK_MS: u64 = 1_000;

/// Wall-clock time the harness spent in each phase — **host** time, not
/// simulated time. Diagnostic only: these feed the benchmark reports'
/// per-phase breakdown and are never part of deterministic scenario
/// reports (which must stay byte-identical across hosts and thread
/// counts).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Membership sync: canonical-tree updates and every peer's catch-up
    /// from the membership log (live peers, late joiners, restarts).
    pub registration_sync_ns: u64,
    /// Event dispatch inside the network scheduler.
    pub dispatch_ns: u64,
    /// End-of-run drain and quiescence classification.
    pub drain_ns: u64,
}

/// Testbed configuration.
#[derive(Clone, Copy, Debug)]
pub struct TestbedConfig {
    /// Number of peers.
    pub n_peers: usize,
    /// Membership tree depth (keep ≤16 in tests; benches sweep deeper).
    pub tree_depth: usize,
    /// Epoch scheme (length `T`, delay bound `D`).
    pub epoch: EpochScheme,
    /// Bootstrap topology degree.
    pub degree: usize,
    /// Determinism seed.
    pub seed: u64,
    /// Link latency bounds in milliseconds.
    pub latency_ms: (u64, u64),
    /// Publisher-side first-hop jitter bound, milliseconds (the
    /// source-anonymity countermeasure,
    /// [`GossipsubConfig::publish_jitter_ms`]); every other GossipSub and
    /// peer-scoring parameter is the default.
    pub publish_jitter_ms: u64,
    /// Batched validation pipeline knobs; `None` keeps the serial
    /// per-message validator (byte-identical to pre-pipeline behaviour).
    pub pipeline: Option<PipelineConfig>,
    /// Unused: the network runs every event on the calling thread. Kept
    /// only because the out-of-workspace `benchmark/` package still sets
    /// it; goes once that package stops doing so.
    pub threads: usize,
}

impl Default for TestbedConfig {
    fn default() -> TestbedConfig {
        TestbedConfig {
            n_peers: 20,
            tree_depth: 12,
            epoch: EpochScheme::default(),
            degree: 6,
            seed: 1,
            latency_ms: (10, 80),
            publish_jitter_ms: 0,
            pipeline: None,
            threads: 1,
        }
    }
}

/// The assembled testbed. `Clone` deep-copies the entire simulation
/// (network, chain, mirror group, replay log, RNG) — the checkpoint
/// primitive behind the soak harness's restore-and-replay checks.
#[derive(Clone)]
pub struct Testbed {
    /// The peer network.
    pub net: Network<RlnRelayNode>,
    /// The simulated chain with the membership contract.
    pub chain: Chain,
    config: TestbedConfig,
    /// The **one canonical group tree** of the simulation: every
    /// registration burst is hashed here exactly once, emitting the
    /// deltas all peers' light views apply with pure lookups. Cloning the
    /// testbed (soak checkpoints) snapshots it in O(1) via copy-on-write.
    mirror: SharedGroup,
    event_cursor: usize,
    addresses: Vec<Address>,
    verifying_key: VerifyingKey,
    proving_key: ProvingKey,
    submitted_slashes: HashSet<[u8; 32]>,
    /// The membership log: every processed contract event, in order.
    replay_log: Vec<ReplayEvent>,
    /// Per-peer sync position: how many `replay_log` entries the peer
    /// has applied. Live peers reach the log head at every tick;
    /// a crashed peer's cursor freezes, and a cold-restarted peer's
    /// rewinds to zero.
    replay_cursor: Vec<usize>,
    /// Peers restarted but not yet resynced with the group. They stay
    /// behind the log head and submit no slashes until the resync lands.
    awaiting_resync: Vec<bool>,
    rng: StdRng,
    timings: PhaseTimings,
}

impl Testbed {
    /// Builds the network: trusted setup, chain deployment, peer creation,
    /// funding, registration of every peer and initial event sync.
    ///
    /// After `build` the membership is mined and synced; callers should
    /// still run a few simulated seconds for gossip meshes to form before
    /// measuring propagation.
    pub fn build(config: TestbedConfig) -> Testbed {
        // below degree + 1 peers, "`degree` random peers" is everyone else
        let degree = config.degree.min(config.n_peers.saturating_sub(1));
        let adjacency = topology::random_regular(config.n_peers, degree, config.seed);
        Testbed::build_custom(config, adjacency, |_| CostModel::default())
    }

    /// [`Testbed::build`] with full control over the bootstrap topology
    /// and per-peer device profiles — the entry point the scenario engine
    /// uses for eclipse wiring (a victim whose bootstrap set is entirely
    /// adversarial) and heterogeneous-device mixes.
    ///
    /// `adjacency[i]` is peer `i`'s bootstrap set; `cost_of(i)` its
    /// validation cost model (device class).
    ///
    /// # Panics
    ///
    /// Panics when `adjacency.len() != config.n_peers`, or when
    /// `config.tree_depth` is outside `1..=merkle::MAX_DEPTH`.
    pub fn build_custom(
        config: TestbedConfig,
        adjacency: Vec<Vec<NodeId>>,
        cost_of: impl Fn(usize) -> CostModel,
    ) -> Testbed {
        assert_eq!(
            adjacency.len(),
            config.n_peers,
            "adjacency must cover every peer"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let (proving_key, verifying_key) =
            SimSnark::setup(RlnCircuit::new(config.tree_depth), &mut rng);
        let mut testbed = Testbed {
            net: Network::new(
                UniformLatency {
                    min_ms: config.latency_ms.0,
                    max_ms: config.latency_ms.1,
                },
                config.seed,
            ),
            chain: Chain::new(ChainConfig::default()),
            config,
            // lint:allow(panic-path, reason = "documented under # Panics: a depth outside 1..=merkle::MAX_DEPTH is a caller bug, and ScenarioSpec::validate rejects one before the engine builds a testbed")
            mirror: SharedGroup::new(config.tree_depth).expect("valid depth"),
            event_cursor: 0,
            addresses: Vec::with_capacity(config.n_peers),
            verifying_key,
            proving_key,
            submitted_slashes: HashSet::new(),
            replay_log: Vec::new(),
            replay_cursor: Vec::with_capacity(config.n_peers),
            awaiting_resync: Vec::with_capacity(config.n_peers),
            rng,
            timings: PhaseTimings::default(),
        };
        for (i, known) in adjacency.into_iter().enumerate() {
            testbed.spawn_peer(known, cost_of(i), false);
        }
        // mine the registrations and sync everyone
        let first_block = testbed.chain.config().block_interval;
        testbed.chain.advance_to(first_block);
        testbed.sync_chain_events();
        testbed.attempt_resyncs();
        testbed
    }

    /// The configuration the testbed was built with.
    pub fn config(&self) -> &TestbedConfig {
        &self.config
    }

    /// A peer's chain account.
    pub fn address(&self, peer: usize) -> Address {
        self.addresses[peer]
    }

    /// Creates one peer — the only constructor of an [`RlnRelayNode`] in
    /// the testbed. Draws the peer's identity from the testbed RNG, builds
    /// its validator (batched when configured) and node with an empty
    /// light view at replay cursor zero, then funds its account and
    /// submits its `Register` transaction. A `late` joiner's account label
    /// takes one more RNG draw, after the identity's.
    fn spawn_peer(&mut self, known: Vec<NodeId>, cost: CostModel, late: bool) -> usize {
        let identity = Identity::random(&mut self.rng);
        let empty_root = zero_hashes()[self.config.tree_depth];
        let mut validator = RlnValidator::new(
            self.verifying_key.clone(),
            self.config.epoch,
            empty_root,
            cost,
        );
        if let Some(pipeline) = self.config.pipeline {
            validator.enable_pipeline(pipeline);
        }
        let mut node = RlnRelayNode::new(
            known,
            validator,
            self.proving_key.clone(),
            self.config.tree_depth,
            GossipsubConfig {
                publish_jitter_ms: self.config.publish_jitter_ms,
                ..GossipsubConfig::default()
            },
        );
        node.set_identity(identity);
        let peer = self.net.add_node(node).0;
        self.replay_cursor.push(0);
        self.awaiting_resync.push(false);

        let label = if late {
            format!("peer-{peer}-late-{}", self.rng.gen::<u64>())
        } else {
            format!("peer-{peer}")
        };
        let address = Address::from_label(&label);
        let stake = self.chain.config().stake_amount;
        self.chain.fund(address, 100 * stake);
        self.chain
            .submit(
                address,
                stake,
                CallData::Register {
                    commitment: identity.commitment(),
                },
            )
            // lint:allow(panic-path, reason = "testbed setup: the account was just funded with the required stake")
            .expect("funded");
        self.addresses.push(address);
        peer
    }

    /// Adds a **late-joining peer** while the network is running: creates
    /// a fresh identity and account, replays the full membership history
    /// into the newcomer's light tree (the §III "Group Synchronization"
    /// bootstrap), wires it to `bootstrap` existing peers, and submits its
    /// registration transaction. The registration lands with the next
    /// mined block and syncs to everyone through the normal event flow.
    /// The newcomer validates under the default [`CostModel`].
    ///
    /// Returns the new peer's index.
    pub fn add_peer(&mut self, bootstrap: &[usize]) -> usize {
        let known = bootstrap.iter().map(|i| NodeId(*i)).collect();
        let peer = self.spawn_peer(known, CostModel::default(), true);
        // lint:allow(host-time, reason = "phase timing: wall-clock duration lands in phase_timings (bench diagnostics), not in the simulation")
        let sync_start = Instant::now();
        self.catch_up(peer);
        self.timings.registration_sync_ns += sync_start.elapsed().as_nanos() as u64;
        peer
    }

    /// Number of peers currently in the network (including late joiners
    /// and crashed peers — ids are stable).
    pub fn peer_count(&self) -> usize {
        self.net.len()
    }

    /// Number of peers still running (crashed peers excluded).
    pub fn live_peer_count(&self) -> usize {
        self.net.active_len()
    }

    /// Whether a peer is still running (not crashed).
    pub fn is_live(&self, peer: usize) -> bool {
        self.net.is_active(NodeId(peer))
    }

    /// Crashes a peer: the simulated process dies without any goodbye —
    /// queued messages to it are dropped, its timers never fire again,
    /// and the mesh around it repairs itself through the gossip layer's
    /// liveness sweep. The peer's chain-side membership is untouched (a
    /// crash is not a slash), so [`Testbed::active_members`] does not
    /// change.
    ///
    /// Returns `false` when the peer had already crashed.
    pub fn crash_peer(&mut self, peer: usize) -> bool {
        self.net.remove_node(NodeId(peer))
    }

    /// Restarts a crashed peer — the recovery half of the fault model.
    ///
    /// The simulated process comes back up in the **same slot** (stable
    /// `NodeId`, continuous per-node metrics, same deterministic RNG
    /// stream — see `Network::restore_node`). Its gossip layer re-runs
    /// `on_start`: Subscribe is re-announced to every known peer and the
    /// heartbeat re-arms, so re-grafting into the mesh proceeds through
    /// the normal degree-repair path, bounded by the PRUNE backoff
    /// window when neighbours are full.
    ///
    /// `warm` selects the state model:
    ///
    /// * **warm** — the membership tree, root window and nullifier map
    ///   survived on disk; the peer only replays the contract events it
    ///   missed while down (its replay cursor froze at crash time).
    /// * **cold** — the disk was lost; tree and validator state reset to
    ///   the empty group ([`RlnRelayNode::reset_for_cold_restart`]) and
    ///   the replay cursor rewinds to zero for a full §III group
    ///   resynchronization from genesis.
    ///
    /// Either way the peer is flagged `awaiting_resync`: it stays behind
    /// the log head and submits no slashes until its backlog is replayed
    /// — which is tried immediately, and retried at each tick (see
    /// [`TICK_MS`]) while the registration contract is unreachable
    /// (counted as `resync_retries`).
    ///
    /// Returns `false` (and does nothing) when the peer was not down.
    pub fn restart_peer(&mut self, peer: usize, warm: bool) -> bool {
        if !self.net.restore_node(NodeId(peer)) {
            return false;
        }
        if !warm {
            self.net.node_mut(NodeId(peer)).reset_for_cold_restart();
            self.replay_cursor[peer] = 0;
        }
        self.awaiting_resync[peer] = true;
        self.net.metrics_mut().count("peer_restarts", 1);
        self.attempt_resyncs();
        true
    }

    /// The per-peer half of §III group sync: catches every live peer up
    /// with the membership log. Runs after `build`'s first sync, after
    /// each tick of [`Testbed::advance_to`] and from
    /// [`Testbed::restart_peer`]. A restarted peer still awaiting resync
    /// needs the registration contract as its sync source: while that is
    /// in outage it counts one `resync_retries` and stays flagged (and
    /// behind) for the next tick — the bounded-retry loop the fault
    /// scenarios measure; otherwise it replays its backlog, counts one
    /// `peer_resyncs` and clears the flag.
    fn attempt_resyncs(&mut self) {
        // lint:allow(host-time, reason = "phase timing: wall-clock duration lands in phase_timings (bench diagnostics), not in the simulation")
        let start = Instant::now();
        for peer in 0..self.net.len() {
            if !self.net.is_active(NodeId(peer)) {
                continue;
            }
            if self.awaiting_resync[peer] {
                if self.chain.registration_outage_active() {
                    self.net.metrics_mut().count("resync_retries", 1);
                    continue;
                }
                self.awaiting_resync[peer] = false;
                self.net.metrics_mut().count("peer_resyncs", 1);
            }
            self.catch_up(peer);
        }
        self.timings.registration_sync_ns += start.elapsed().as_nanos() as u64;
    }

    /// Applies `replay_log[replay_cursor[peer]..]` to the peer's light
    /// view and moves its cursor to the log head — the one place a
    /// [`ReplayEvent`] reaches a node. While the node is not yet a member,
    /// its own leaf comes from the canonical group's commitment index: a
    /// burst whose span holds that leaf builds the own path. A member
    /// slashed before a cold restart is no longer indexed and replays as
    /// an observer.
    fn catch_up(&mut self, peer: usize) {
        let node = self.net.node_mut(NodeId(peer));
        for event in &self.replay_log[self.replay_cursor[peer]..] {
            match event {
                ReplayEvent::RegisteredBurst { delta } => {
                    let own = match node.identity() {
                        Some(id) if !node.is_member() => self
                            .mirror
                            .index_of(id.commitment())
                            .and_then(|leaf| leaf.checked_sub(delta.start))
                            .filter(|offset| *offset < delta.count),
                        _ => None,
                    };
                    node.apply_append_delta(delta, own)
                        // lint:allow(panic-path, reason = "replay invariant: the log was produced by this same testbed, so registration deltas apply cleanly")
                        .expect("replayed registration burst");
                }
                ReplayEvent::Slashed { delta } => {
                    // lint:allow(panic-path, reason = "replay invariant: slashing deltas in the log applied successfully when recorded")
                    node.apply_update_delta(delta).expect("replayed slashing");
                }
            }
        }
        self.replay_cursor[peer] = self.replay_log.len();
    }

    /// Number of restarted peers whose group resync has not completed.
    pub fn awaiting_resync_count(&self) -> usize {
        self.awaiting_resync.iter().filter(|f| **f).count()
    }

    /// A peer's current mesh degree on the shared pub/sub topic (the
    /// fault scenarios' time-to-remesh probe). Crashed peers report their
    /// frozen pre-crash mesh.
    pub fn mesh_size(&self, peer: usize) -> usize {
        self.net.node(NodeId(peer)).mesh_size()
    }

    /// Marks a peer as a censorship-eclipse adversary (see
    /// [`RlnRelayNode::set_censor`]).
    pub fn set_censor(&mut self, peer: usize, censor: bool) {
        self.net.node_mut(NodeId(peer)).set_censor(censor);
    }

    /// Advances the whole world by `dt_ms` (see [`Testbed::advance_to`]).
    pub fn run(&mut self, dt_ms: u64) {
        self.advance_to(self.net.now() + dt_ms, &mut |_| {});
    }

    /// Advances the whole world to simulated time `t_ms`. At every
    /// multiple of [`TICK_MS`] in `(now, t_ms]` the network runs there,
    /// the chain advances to that second, the membership log syncs,
    /// restarted peers retry their resync and detected double-signals are
    /// submitted as slashes; `on_tick` then sees the world. After the
    /// last tick the network runs on to `t_ms`, so a run cut at any
    /// instant continues exactly as an uncut one.
    pub fn advance_to(&mut self, t_ms: u64, on_tick: &mut dyn FnMut(&Testbed)) {
        let mut tick = (self.net.now() / TICK_MS + 1) * TICK_MS;
        loop {
            // lint:allow(host-time, reason = "phase timing: wall-clock duration lands in phase_timings (bench diagnostics), not in the simulation")
            let dispatch_start = Instant::now();
            self.net.run_until(tick.min(t_ms));
            self.timings.dispatch_ns += dispatch_start.elapsed().as_nanos() as u64;
            if tick > t_ms {
                return;
            }
            self.chain.advance_to(tick / 1000);
            self.sync_chain_events();
            self.attempt_resyncs();
            self.submit_detected_slashes();
            on_tick(self);
            tick += TICK_MS;
        }
    }

    /// Wall-clock phase accumulators since build (see [`PhaseTimings`]).
    pub fn phase_timings(&self) -> PhaseTimings {
        self.timings
    }

    /// Advances the world to `hard_stop` like [`Testbed::advance_to`],
    /// then reports whether the network actually settled by then — the
    /// scheduler's [`QuiescenceOutcome`] instead of silently swallowing
    /// leftover events. With live gossip nodes the outcome is normally
    /// `HardStop` (heartbeat timers re-arm forever); see
    /// [`Testbed::frames_in_flight`] for telling an idle mesh from one
    /// cut off mid-propagation.
    pub fn run_to_quiescence(&mut self, hard_stop: u64) -> QuiescenceOutcome {
        self.advance_to(hard_stop, &mut |_| {});
        // everything ≤ hard_stop has been processed; this only
        // classifies what is left in the queue
        // lint:allow(host-time, reason = "phase timing: wall-clock duration lands in phase_timings (bench diagnostics), not in the simulation")
        let drain_start = Instant::now();
        let outcome = self.net.run_to_quiescence(hard_stop);
        self.timings.drain_ns += drain_start.elapsed().as_nanos() as u64;
        outcome
    }

    /// Application frames not yet delivered: `Forward`s queued for a live
    /// peer plus frames a live relay holds for a deferred verdict. A
    /// network that has settled holds none; heartbeat timers and control
    /// RPCs (subscriptions, gossip, grafts, liveness pings) never count.
    pub fn frames_in_flight(&self) -> usize {
        let queued = self
            .net
            .queued_messages()
            .filter(|(to, msg)| self.net.is_active(*to) && matches!(msg, Rpc::Forward(_)))
            .count();
        let held: usize = (0..self.net.len())
            .map(NodeId)
            .filter(|id| self.net.is_active(*id))
            .map(|id| self.net.node(id).gossipsub().pending_validation_len())
            .sum();
        queued + held
    }

    /// Publishes through a peer's honest pipeline (rate-limited).
    ///
    /// # Errors
    ///
    /// Propagates [`PublishError`] (e.g. `RateLimited`).
    pub fn publish(&mut self, peer: usize, payload: &[u8]) -> Result<MessageId, PublishError> {
        self.net
            .invoke(NodeId(peer), |node, ctx| node.publish(ctx, payload))
    }

    /// Publishes bypassing the local rate limiter (the double-signaling
    /// attack).
    ///
    /// # Errors
    ///
    /// Propagates [`PublishError`].
    pub fn publish_spam(&mut self, peer: usize, payload: &[u8]) -> Result<MessageId, PublishError> {
        self.net.invoke(NodeId(peer), |node, ctx| {
            node.publish_unchecked(ctx, payload)
        })
    }

    /// Publishes with a forged epoch (`current + offset`) — the E7 replay
    /// attack. Bypasses the local rate limiter.
    ///
    /// # Errors
    ///
    /// Propagates [`PublishError`].
    pub fn publish_with_epoch_offset(
        &mut self,
        peer: usize,
        payload: &[u8],
        offset: i64,
    ) -> Result<MessageId, PublishError> {
        self.net.invoke(NodeId(peer), |node, ctx| {
            node.publish_with_epoch_offset(ctx, payload, offset)
        })
    }

    /// How many peers (other than `exclude`) have received `payload`.
    pub fn delivery_count(&self, payload: &[u8], exclude: usize) -> usize {
        (0..self.net.len())
            .filter(|i| *i != exclude)
            .filter(|i| {
                self.net
                    .node(NodeId(*i))
                    .app_deliveries()
                    .iter()
                    .any(|(data, _)| data == payload)
            })
            .count()
    }

    /// Number of members still active on the contract.
    pub fn active_members(&self) -> usize {
        self.chain.membership().active_count()
    }

    /// Whether a peer is still a provable member locally.
    pub fn is_member(&self, peer: usize) -> bool {
        self.net.node(NodeId(peer)).is_member()
    }

    /// Total double-signals detected across all validators.
    pub fn total_spam_detections(&self) -> u64 {
        (0..self.net.len())
            .map(|i| self.net.node(NodeId(i)).validator().stats().spam_detected)
            .sum()
    }

    /// Logs a burst of consecutive registration events: **one**
    /// `O(n + depth)` tree update at the canonical group, whose captured
    /// delta every peer then applies as `O(depth)` pure lookups — total
    /// hashing per burst is `O(n + depth)` regardless of peer count.
    fn log_registration_burst(&mut self, burst: &mut Vec<Fr>) {
        if burst.is_empty() {
            return;
        }
        let (_, delta) = self
            .mirror
            .register_batch(burst)
            // lint:allow(panic-path, reason = "the burst holds fresh commitments and the spec checked capacity, so the mirror batch registers")
            .expect("mirror batch registration");
        burst.clear();
        self.replay_log.push(ReplayEvent::RegisteredBurst { delta });
    }

    /// Reads the contract's new events into the canonical group and the
    /// membership log; peers apply the log in
    /// [`Testbed::attempt_resyncs`].
    fn sync_chain_events(&mut self) {
        // lint:allow(host-time, reason = "phase timing: wall-clock duration lands in phase_timings (bench diagnostics), not in the simulation")
        let start_time = Instant::now();
        let (events, cursor) = self.chain.events_since(self.event_cursor);
        let events: Vec<ChainEvent> = events.iter().map(|e| e.event.clone()).collect();
        self.event_cursor = cursor;
        let mut burst: Vec<Fr> = Vec::new();
        let mut expected_start: Option<u64> = None;
        for event in events {
            match event {
                ChainEvent::MemberRegistered { index, commitment } => {
                    let start = *expected_start.get_or_insert(self.mirror.next_index());
                    assert_eq!(start + burst.len() as u64, index, "event order mismatch");
                    burst.push(commitment);
                }
                ChainEvent::MemberSlashed {
                    index, commitment, ..
                } => {
                    self.log_registration_burst(&mut burst);
                    expected_start = None;
                    // lint:allow(panic-path, reason = "slash events reference members the mirror registered earlier in the same event stream")
                    let (removed, delta) = self.mirror.remove(index).expect("mirror removal");
                    debug_assert_eq!(removed, commitment, "slash event/commitment mismatch");
                    self.replay_log.push(ReplayEvent::Slashed { delta });
                }
            }
        }
        self.log_registration_burst(&mut burst);
        self.timings.registration_sync_ns += start_time.elapsed().as_nanos() as u64;
    }

    fn submit_detected_slashes(&mut self) {
        for i in 0..self.net.len() {
            if !self.net.is_active(NodeId(i)) || self.awaiting_resync[i] {
                continue; // a dead or still-resyncing peer submits nothing
            }
            let detections = self
                .net
                .node_mut(NodeId(i))
                .validator_mut()
                .take_detections();
            for detection in detections {
                let key = detection.evidence.commitment.to_bytes_le();
                if self.submitted_slashes.insert(key) {
                    self.chain
                        .submit(
                            self.addresses[i],
                            0,
                            CallData::Slash {
                                secret: detection.evidence.revealed_secret,
                            },
                        )
                        // lint:allow(panic-path, reason = "the share pair was recovered from an actual double-signal, so the contract accepts the slash")
                        .expect("slash submission");
                    self.net.metrics_mut().count("slash_submissions", 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wakurln_ethsim::types::ETHER;

    fn small() -> Testbed {
        Testbed::build(TestbedConfig {
            n_peers: 8,
            tree_depth: 10,
            degree: 4,
            ..Default::default()
        })
    }

    #[test]
    fn build_registers_everyone() {
        let tb = small();
        assert_eq!(tb.active_members(), 8);
        for i in 0..8 {
            assert!(tb.is_member(i), "peer {i} not synced");
        }
        // all local roots agree with the mirror
        let root = tb.mirror.root();
        for i in 0..8 {
            assert_eq!(tb.net.node(NodeId(i)).membership_root(), root);
        }
    }

    #[test]
    fn honest_publish_reaches_network() {
        let mut tb = small();
        tb.run(8_000); // mesh formation
        tb.publish(0, b"hello rln").unwrap();
        tb.run(15_000);
        assert!(tb.delivery_count(b"hello rln", 0) >= 6);
    }

    #[test]
    fn local_rate_limiter_blocks_second_message_same_epoch() {
        let mut tb = small();
        tb.run(8_000);
        tb.publish(0, b"one").unwrap();
        let err = tb.publish(0, b"two").unwrap_err();
        assert!(matches!(err, PublishError::RateLimited { .. }));
    }

    #[test]
    fn double_signal_is_detected_and_spammer_slashed_on_chain() {
        let mut tb = small();
        tb.run(8_000);
        let spammer = 3;
        tb.publish_spam(spammer, b"spam-a").unwrap();
        tb.publish_spam(spammer, b"spam-b").unwrap();
        // run long enough for gossip + detection + a chain block + sync
        tb.run(30_000);
        assert!(tb.total_spam_detections() >= 1, "no detection");
        assert_eq!(tb.active_members(), 7, "spammer not slashed");
        assert!(!tb.is_member(spammer), "spammer still has membership");
        // slasher got rewarded: someone's balance grew beyond funding minus stake
        let rewarded = (0..8).any(|i| tb.chain.balance_of(tb.address(i)) > 100 * ETHER - ETHER);
        assert!(rewarded, "no slasher reward paid");
    }

    /// A run cut off the tick grid continues exactly as an uncut one: the
    /// cut dispatches the network only, and the next tick still syncs,
    /// resyncs and submits slashes at the whole second.
    #[test]
    fn a_run_split_off_the_tick_grid_matches_one_run() {
        let [mut whole, mut split] = [small(), small()];
        for tb in [&mut whole, &mut split] {
            tb.run(8_000);
            tb.publish_spam(3, b"split-a").unwrap();
            tb.publish_spam(3, b"split-b").unwrap();
        }
        whole.run(30_000);
        split.run(12_345);
        split.run(30_000 - 12_345);
        assert_eq!(split.net.now(), whole.net.now());
        assert!(!whole.is_member(3), "spammer not slashed");
        assert_eq!(split.chain.height(), whole.chain.height());
        for peer in 0..8 {
            assert_eq!(
                split.net.node(NodeId(peer)).membership_root(),
                whole.net.node(NodeId(peer)).membership_root(),
                "peer {peer} root"
            );
        }
        assert_eq!(
            format!("{:?}", split.net.metrics()),
            format!("{:?}", whole.net.metrics())
        );
    }

    #[test]
    fn honest_peers_unaffected_by_slashing_of_spammer() {
        let mut tb = small();
        tb.run(8_000);
        tb.publish_spam(2, b"s1").unwrap();
        tb.publish_spam(2, b"s2").unwrap();
        tb.run(30_000);
        assert!(!tb.is_member(2));
        // an honest peer can still publish and be heard
        tb.publish(5, b"life goes on").unwrap();
        tb.run(15_000);
        assert!(tb.delivery_count(b"life goes on", 5) >= 6);
    }
}

#[cfg(test)]
mod churn_tests {
    use super::*;

    #[test]
    fn crashed_peer_stays_member_but_stops_receiving() {
        let mut tb = Testbed::build(TestbedConfig {
            n_peers: 8,
            tree_depth: 10,
            degree: 4,
            seed: 41,
            ..Default::default()
        });
        tb.run(8_000);
        assert!(tb.crash_peer(3));
        assert!(!tb.crash_peer(3), "second crash must be a no-op");
        assert!(!tb.is_live(3));
        assert_eq!(tb.live_peer_count(), 7);
        // a crash is not a slash: the contract still holds the stake
        assert_eq!(tb.active_members(), 8);

        tb.publish(0, b"post-crash").unwrap();
        tb.run(40_000);
        // survivors converge (mesh repaired around the hole)...
        assert!(tb.delivery_count(b"post-crash", 0) >= 6);
        // ...and the dead peer took nothing
        let got = tb
            .net
            .node(NodeId(3))
            .app_deliveries()
            .iter()
            .any(|(m, _)| m == b"post-crash");
        assert!(!got, "crashed peer received traffic");
    }

    #[test]
    fn network_survives_crashes_and_still_slashes_spammers() {
        let mut tb = Testbed::build(TestbedConfig {
            n_peers: 10,
            tree_depth: 10,
            degree: 4,
            seed: 42,
            ..Default::default()
        });
        tb.run(8_000);
        tb.crash_peer(1);
        tb.crash_peer(8);
        tb.run(5_000);
        tb.publish_spam(4, b"cs-a").unwrap();
        tb.publish_spam(4, b"cs-b").unwrap();
        tb.run(40_000);
        assert!(!tb.is_member(4), "spammer survived network churn");
        assert_eq!(tb.active_members(), 9);
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;

    fn testbed(seed: u64) -> Testbed {
        Testbed::build(TestbedConfig {
            n_peers: 8,
            tree_depth: 10,
            degree: 4,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn restart_of_a_running_peer_is_a_no_op() {
        let mut tb = testbed(51);
        tb.run(5_000);
        assert!(!tb.restart_peer(2, true));
        assert_eq!(tb.awaiting_resync_count(), 0);
        assert_eq!(tb.net.metrics().counter("peer_restarts"), 0);
    }

    #[test]
    fn warm_restart_replays_only_the_missed_events() {
        let mut tb = testbed(52);
        tb.run(8_000);
        assert!(tb.crash_peer(3));
        // history moves on while 3 is down: a spammer gets slashed and a
        // late joiner registers — both land in the replay log
        tb.publish_spam(5, b"down-a").unwrap();
        tb.publish_spam(5, b"down-b").unwrap();
        tb.run(30_000);
        assert!(!tb.is_member(5), "spammer not slashed while 3 was down");
        let newbie = tb.add_peer(&[0, 1, 2]);
        tb.run(10_000);

        assert!(tb.restart_peer(3, true));
        assert!(!tb.restart_peer(3, true), "double restart must be no-op");
        // no contract outage: the resync lands immediately
        assert_eq!(tb.awaiting_resync_count(), 0);
        assert_eq!(
            tb.net.node(NodeId(3)).membership_root(),
            tb.net.node(NodeId(0)).membership_root(),
            "restarted peer's root disagrees after resync"
        );
        assert!(tb.is_member(3), "warm restart lost own membership");

        // the mesh re-forms and the peer hears new traffic
        tb.run(20_000);
        tb.publish(newbie, b"after the storm").unwrap();
        tb.run(20_000);
        let got = tb
            .net
            .node(NodeId(3))
            .app_deliveries()
            .iter()
            .any(|(m, _)| m == b"after the storm");
        assert!(got, "restarted peer never rejoined the mesh");
        assert_eq!(tb.net.metrics().counter("peer_restarts"), 1);
        assert_eq!(tb.net.metrics().counter("peer_resyncs"), 1);
    }

    #[test]
    fn cold_restart_rebuilds_membership_from_genesis() {
        let mut tb = testbed(53);
        tb.run(8_000);
        assert!(tb.crash_peer(4));
        tb.run(5_000);
        assert!(tb.restart_peer(4, false));
        assert_eq!(tb.awaiting_resync_count(), 0);
        // the wiped tree replayed the full history, including its own
        // registration — membership and root both restored
        assert!(tb.is_member(4), "cold restart did not re-register own leaf");
        assert_eq!(
            tb.net.node(NodeId(4)).membership_root(),
            tb.net.node(NodeId(0)).membership_root()
        );
        // nullifier map was wiped with the disk
        assert_eq!(tb.net.node(NodeId(4)).validator().nullifier_map_bytes(), 0);
        // and the peer can publish again (rate-limiter memory is durable,
        // so wait out the epoch it may have published in)
        tb.run(15_000);
        tb.publish(4, b"back from the dead").unwrap();
        tb.run(20_000);
        assert!(tb.delivery_count(b"back from the dead", 4) >= 6);
    }

    #[test]
    fn cold_restart_drops_the_deferred_verdicts_of_the_lost_batch() {
        let mut tb = Testbed::build(TestbedConfig {
            n_peers: 8,
            tree_depth: 10,
            degree: 4,
            seed: 56,
            pipeline: Some(crate::pipeline::PipelineConfig::default()),
            ..Default::default()
        });
        tb.run(8_000);
        tb.publish(0, b"in the batch").unwrap();
        let pending = |tb: &Testbed, peer: usize| {
            tb.net
                .node(NodeId(peer))
                .gossipsub()
                .pending_validation_len()
        };
        // step until a relay holds the frame in its unflushed batch
        let holder = loop {
            tb.run(5);
            if let Some(peer) = (1..8).find(|&p| pending(&tb, p) > 0) {
                break peer;
            }
            assert!(tb.net.now() < 9_000, "no relay ever deferred the frame");
        };
        assert!(tb.crash_peer(holder));
        assert!(tb.restart_peer(holder, false));
        // the batch went with the disk, so its tickets never resolve
        assert_eq!(pending(&tb, holder), 0);
    }

    #[test]
    fn resync_retries_under_contract_outage_then_completes() {
        let mut tb = testbed(54);
        tb.run(8_000);
        assert!(tb.crash_peer(2));
        // registration contract goes dark until t = 20 s
        tb.chain.set_registration_outage(20);
        assert!(tb.restart_peer(2, false));
        // the immediate attempt and each subsequent tick count retries
        assert_eq!(tb.awaiting_resync_count(), 1);
        tb.run(5_000);
        assert_eq!(tb.awaiting_resync_count(), 1, "resync landed mid-outage");
        let retries = tb.net.metrics().counter("resync_retries");
        assert!(retries >= 2, "expected repeated retries, saw {retries}");
        // outage lifts; the next tick completes the resync
        tb.run(10_000);
        assert_eq!(tb.awaiting_resync_count(), 0);
        assert!(tb.is_member(2));
        assert_eq!(
            tb.net.node(NodeId(2)).membership_root(),
            tb.net.node(NodeId(0)).membership_root()
        );
    }

    #[test]
    fn peer_mid_resync_is_skipped_by_live_fanout_without_losing_events() {
        let mut tb = testbed(55);
        tb.run(8_000);
        assert!(tb.crash_peer(6));
        tb.chain.set_registration_outage(40);
        assert!(tb.restart_peer(6, true));
        // while 6 is pending, new history arrives — a spammer is slashed
        // (slashing is unaffected by the *registration* outage). 6 stays
        // behind the log until the outage lifts, then replays the event
        tb.publish_spam(1, b"mid-a").unwrap();
        tb.publish_spam(1, b"mid-b").unwrap();
        tb.run(20_000);
        assert!(!tb.is_member(1), "spammer not slashed mid-outage");
        assert_eq!(tb.awaiting_resync_count(), 1);
        tb.run(20_000); // outage lifts at t = 40 s
        assert_eq!(tb.awaiting_resync_count(), 0);
        assert_eq!(
            tb.net.node(NodeId(6)).membership_root(),
            tb.net.node(NodeId(0)).membership_root(),
            "replayed backlog diverged from the live peers"
        );
    }

    #[test]
    fn every_sync_path_lands_on_the_same_membership_state() {
        let mut tb = testbed(57);
        tb.run(8_000);
        // 3 is down while a spammer is slashed and a newcomer joins
        assert!(tb.crash_peer(3));
        tb.publish_spam(5, b"paths-a").unwrap();
        tb.publish_spam(5, b"paths-b").unwrap();
        tb.run(30_000);
        assert!(!tb.is_member(5), "spammer not slashed");
        let newbie = tb.add_peer(&[0, 1, 2]);
        tb.run(10_000);
        assert!(tb.is_member(newbie), "newcomer not registered");
        // the slashed spammer loses its disk and replays from genesis
        assert!(tb.crash_peer(5));
        assert!(tb.restart_peer(5, false));
        // 6 comes back cold inside a contract outage; 3 comes back warm
        assert!(tb.crash_peer(6));
        tb.chain.set_registration_outage(tb.net.now() / 1000 + 10);
        assert!(tb.restart_peer(6, false));
        assert!(tb.restart_peer(3, true));
        assert_eq!(tb.awaiting_resync_count(), 2);
        tb.run(20_000);
        assert_eq!(tb.awaiting_resync_count(), 0);

        let accepted = |tb: &Testbed, peer: usize| {
            tb.net
                .node(NodeId(peer))
                .validator()
                .model_state()
                .accepted_roots
                .clone()
        };
        let reference = accepted(&tb, 0);
        for peer in (0..tb.peer_count()).filter(|p| tb.is_live(*p)) {
            let node = tb.net.node(NodeId(peer));
            assert_eq!(node.membership_root(), tb.mirror.root(), "peer {peer} root");
            assert_eq!(accepted(&tb, peer), reference, "peer {peer} window");
            let commitment = node.identity().unwrap().commitment();
            assert_eq!(
                node.is_member(),
                tb.mirror.index_of(commitment).is_some(),
                "peer {peer} membership"
            );
        }
        assert!(tb.is_member(3) && tb.is_member(6) && !tb.is_member(5));
    }
}

#[cfg(test)]
mod late_join_tests {
    use super::*;

    #[test]
    fn late_joiner_syncs_and_participates() {
        let mut tb = Testbed::build(TestbedConfig {
            n_peers: 6,
            tree_depth: 10,
            degree: 3,
            seed: 31,
            ..Default::default()
        });
        tb.run(8_000);

        // a spammer is slashed before the newcomer arrives — history the
        // newcomer must replay correctly
        tb.publish_spam(2, b"pre-a").unwrap();
        tb.publish_spam(2, b"pre-b").unwrap();
        tb.run(30_000);
        assert_eq!(tb.active_members(), 5);

        let newbie = tb.add_peer(&[0, 1, 3]);
        assert_eq!(newbie, 6);
        // registration mines, syncs, meshes form
        tb.run(20_000);
        assert!(tb.is_member(newbie), "late joiner not registered");
        assert_eq!(tb.active_members(), 6);
        // its root agrees with an old peer's
        assert_eq!(
            tb.net.node(NodeId(newbie)).membership_root(),
            tb.net.node(NodeId(0)).membership_root()
        );

        // it can publish and be heard...
        tb.publish(newbie, b"hello from the late joiner").unwrap();
        tb.run(15_000);
        assert!(tb.delivery_count(b"hello from the late joiner", newbie) >= 4);

        // ...and it receives others' messages
        tb.run(11_000); // next epoch for peer 0
        tb.publish(0, b"welcome aboard").unwrap();
        tb.run(15_000);
        let got = tb
            .net
            .node(NodeId(newbie))
            .app_deliveries()
            .iter()
            .any(|(m, _)| m == b"welcome aboard");
        assert!(got, "late joiner did not receive traffic");
    }

    #[test]
    fn late_joining_spammer_is_slashed_too() {
        let mut tb = Testbed::build(TestbedConfig {
            n_peers: 6,
            tree_depth: 10,
            degree: 3,
            seed: 32,
            ..Default::default()
        });
        tb.run(8_000);
        let newbie = tb.add_peer(&[0, 1, 2]);
        tb.run(20_000);
        assert!(tb.is_member(newbie));

        tb.publish_spam(newbie, b"late-spam-1").unwrap();
        tb.publish_spam(newbie, b"late-spam-2").unwrap();
        tb.run(40_000);
        assert!(!tb.is_member(newbie), "late-joining spammer survived");
        assert_eq!(tb.active_members(), 6);
    }
}
