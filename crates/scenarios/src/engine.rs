//! The scenario executor: turns a [`ScenarioSpec`] into a running world
//! and distills the run into a [`ScenarioReport`].
//!
//! Determinism contract: every random choice — topology, link latencies,
//! identity material, publisher draws, crash victims, join bootstraps —
//! derives from `spec.seed`, and simulated time is the only clock. Same
//! spec, same seed ⇒ byte-identical report (the
//! `tests/scenario_determinism.rs` suite holds the engine to this).
//!
//! A run is a value: `ScenarioRun` holds the world and everything the
//! engine remembers about it, advances in as many steps as the caller
//! likes, and finishes on the same report however it was cut. The soak
//! harness drives one for simulated days and checkpoints it by `Clone`.

use crate::attribution::{attribute, PooledObservation};
use crate::report::ScenarioReport;
use crate::spec::{
    ChurnAction, DeviceClassSpec, EclipseSpec, LatencySpec, ScenarioSpec, TopologySpec,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
// lint:allow(host-time, reason = "wall-clock progress/elapsed reporting only; the simulation reads ctx.now() exclusively")
use std::time::Instant;
use waku_rln_relay::{CostModel, Testbed, TestbedConfig, TICK_MS};
use wakurln_gossipsub::{GossipsubConfig, MessageId};
use wakurln_netsim::{topology, NodeId, QuiescenceOutcome};

/// A newly joined peer needs its registration mined, synced, and a mesh
/// formed before it can be expected to receive traffic; publishes earlier
/// than this after its join don't count it as an eligible receiver.
const JOIN_SYNC_GRACE_MS: u64 = 20_000;

/// A traffic round counts as delivery-dipped when its pair delivery rate
/// falls below this threshold (feeds `resilience_delivery_dip_*`).
const DIP_THRESHOLD: f64 = 0.99;

/// What the engine remembers about one honest publish.
#[derive(Clone)]
struct PublishRecord {
    /// Content-derived wire id — the key delivery tapes and observer
    /// tapes are read by.
    id: MessageId,
    publisher: usize,
    at_ms: u64,
    /// Traffic round the publish belongs to (per-round delivery rates
    /// drive the resilience dip metrics).
    round: usize,
}

/// One timeline entry (churn before spam before fault transitions before
/// traffic at equal timestamps — the order adversaries would pick, and
/// faults land before the traffic that measures them).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    Churn(usize),
    Spam,
    FaultCrash(usize),
    FaultRestore(usize),
    PartitionStart(usize),
    PartitionHeal(usize),
    DegradeStart(usize),
    DegradeEnd(usize),
    OutageStart(usize),
    Traffic(usize),
}

/// Samples time-to-remesh after a disruption ends: armed at every
/// restart/heal, it records how long until **every** live peer holds at
/// least `min(2, live - 1)` mesh links on the shared topic — i.e. the
/// whole population is knit back into the relay mesh. (The floor is
/// deliberately below `mesh_n_low`: prune-backoff windows keep
/// individual peers under the heartbeat's target degree for up to a
/// minute even in steady state, and the metric measures reconnection,
/// not full degree repair.) Sampling reads per-node state at ticks
/// only, so it never influences the simulation.
/// Re-arming resets the measurement; the report carries the last
/// completed one.
#[derive(Clone)]
struct RemeshProbe {
    since: Option<u64>,
    recorded: Option<u64>,
    mesh_floor: usize,
}

impl RemeshProbe {
    fn arm(&mut self, now_ms: u64) {
        self.since = Some(now_ms);
        self.recorded = None;
    }

    fn sample(&mut self, tb: &Testbed) {
        let Some(since) = self.since else { return };
        if self.recorded.is_some() {
            return;
        }
        let live: Vec<usize> = (0..tb.peer_count()).filter(|i| tb.is_live(*i)).collect();
        let floor = self.mesh_floor.min(live.len().saturating_sub(1));
        if live.iter().all(|&i| tb.mesh_size(i) >= floor) {
            self.recorded = Some(tb.net.now().saturating_sub(since));
        }
    }
}

/// A progress snapshot emitted while a scenario advances (one per tick,
/// every whole simulated second). Consumers decide the printing cadence;
/// emitting a snapshot never influences the simulation, so
/// progress-observed runs stay byte-identical to silent ones.
#[derive(Clone, Copy, Debug)]
pub struct Progress {
    /// Simulated time reached, milliseconds.
    pub sim_ms: u64,
    /// Total simulated time this run will cover, milliseconds.
    pub total_ms: u64,
    /// Events dispatched to node callbacks so far.
    pub events_dispatched: u64,
    /// Wall-clock time spent so far, milliseconds.
    pub wall_ms: u64,
}

/// Runs a scenario to completion and reports.
///
/// # Panics
///
/// Panics when the spec is internally inconsistent (see
/// [`ScenarioSpec::validate`]).
pub fn run_scenario(spec: &ScenarioSpec) -> ScenarioReport {
    run_scenario_detailed(spec).0
}

/// [`run_scenario`] with a progress observer: `observe` fires once per
/// tick (see [`Progress`]) — the hook behind `simctl run --progress`, so
/// hour-long 10k-node runs are not silent.
pub fn run_scenario_with_progress(
    spec: &ScenarioSpec,
    observe: impl FnMut(&Progress),
) -> ScenarioReport {
    run_scenario_observed(spec, observe).0
}

/// [`run_scenario_with_progress`], additionally handing back the
/// finished [`Testbed`] (`simctl` reads what its drain left in flight).
pub fn run_scenario_observed(
    spec: &ScenarioSpec,
    mut observe: impl FnMut(&Progress),
) -> (ScenarioReport, Testbed) {
    let mut run = ScenarioRun::new(spec);
    let total_ms = run.end_ms;
    // lint:allow(host-time, reason = "wall-clock elapsed printed as console progress; never enters simulation state or reports")
    let started_wall = Instant::now();
    let mut snapshot = |tb: &Testbed| {
        observe(&Progress {
            sim_ms: tb.net.now(),
            total_ms,
            events_dispatched: tb.net.events_dispatched(),
            wall_ms: started_wall.elapsed().as_millis() as u64,
        })
    };
    run.advance_to(total_ms, &mut snapshot);
    // an end off the whole-second grid gets a last snapshot of its own
    if !total_ms.is_multiple_of(TICK_MS) {
        snapshot(run.testbed());
    }
    run.finish()
}

/// [`run_scenario`], additionally handing back the finished [`Testbed`]
/// for assertions the report does not cover (ports of hand-wired tests
/// use this to keep their original fine-grained checks).
pub fn run_scenario_detailed(spec: &ScenarioSpec) -> (ScenarioReport, Testbed) {
    ScenarioRun::new(spec).finish()
}

/// One scenario in progress: the world plus everything the engine
/// remembers about it. `Clone` is the checkpoint — the testbed (network
/// queue, chain, RNG streams), the engine's draw stream, the timeline
/// cursor, the fault bookkeeping and the publish records are all
/// deep-copied, so a clone advanced to the same time holds the same
/// state and finishes on the same report. Host wall-clock time is not
/// part of it: the progress observer reads the clock outside.
#[derive(Clone)]
pub(crate) struct ScenarioRun {
    spec: ScenarioSpec,
    tb: Testbed,
    /// Engine-side randomness, independent of the testbed's RNG stream.
    rng: StdRng,
    /// Every scheduled event in firing order; `timeline[next_event..]`
    /// has not fired yet.
    timeline: Vec<(u64, EventKind)>,
    next_event: usize,
    end_ms: u64,
    /// The surveillance adversary's colluding observers, ascending.
    observers: Vec<usize>,
    members_start: u64,
    publishes: Vec<PublishRecord>,
    /// Every spam message sent: `(spammer, wire id, sent at)`.
    spam_messages: Vec<(usize, MessageId, u64)>,
    honest_publish_failures: u64,
    spam_send_failures: u64,
    peers_crashed: u64,
    /// Join time per peer id; initial peers joined at 0.
    joined_at: Vec<u64>,
    /// Which peers each restart event took down (the matching restore
    /// brings back exactly that set).
    restart_sets: Vec<Vec<usize>>,
    remesh: RemeshProbe,
}

impl ScenarioRun {
    /// Builds the world and the timeline; simulated time is still 0.
    ///
    /// # Panics
    ///
    /// Panics when the spec is internally inconsistent (see
    /// [`ScenarioSpec::validate`]).
    pub(crate) fn new(spec: &ScenarioSpec) -> ScenarioRun {
        spec.validate();
        let honest = spec.honest;
        let spammers = spec.spam.map(|s| s.spammers).unwrap_or(0);
        let attackers = spec.eclipse.map(|e| e.attackers).unwrap_or(0);
        let n_initial = spec.initial_peers();
        let victim: Option<usize> = spec.eclipse.map(|_| 0);

        let (latency_min, latency_max) = match spec.latency {
            LatencySpec::Constant { ms } => (ms, ms),
            LatencySpec::Uniform { min_ms, max_ms } => (min_ms, max_ms),
        };
        let config = TestbedConfig {
            n_peers: n_initial,
            tree_depth: spec.effective_tree_depth(),
            epoch: spec.epoch,
            degree: match spec.topology {
                TopologySpec::RandomRegular { degree } => degree,
                _ => 6,
            },
            seed: spec.seed,
            latency_ms: (latency_min, latency_max),
            // the source-anonymity countermeasure: publishers hold first-hop
            // copies back for per-target jitter drawn from their own RNG stream
            publish_jitter_ms: spec.publish_jitter_ms,
            pipeline: spec.pipeline,
            ..TestbedConfig::default()
        };

        // time-to-remesh after restarts/heals (see RemeshProbe for why the
        // floor is connectivity, not mesh_n_low)
        let remesh = RemeshProbe {
            since: None,
            recorded: None,
            mesh_floor: GossipsubConfig::default().mesh_n_low.min(2),
        };

        let adjacency = build_adjacency(spec, honest + spammers, attackers);
        let costs = assign_costs(&spec.devices, honest, n_initial);
        let mut tb = Testbed::build_custom(config, adjacency, |i| costs[i]);
        if spec.loss > 0.0 {
            tb.net.set_loss_probability(spec.loss);
        }
        for a in 0..attackers {
            tb.set_censor(honest + spammers + a, true);
        }
        let members_start = tb.active_members() as u64;

        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x05ca_1ab1_e0dd_ba11);

        // surveillance: the adversary's colluding observers, drawn
        // deterministically from the initial honest population (minus the
        // eclipse victim — an eclipsed tap sees nothing anyway). Observers
        // stay protocol-honest but are kept out of the publisher pool: the
        // adversary does not publish the traffic it wants to attribute.
        let observers: Vec<usize> = match spec.surveillance {
            None => Vec::new(),
            Some(_) => {
                let mut pool: Vec<usize> = (0..honest).filter(|i| Some(*i) != victim).collect();
                pool.shuffle(&mut rng);
                pool.truncate(spec.observer_count());
                pool.sort_unstable();
                for &peer in &pool {
                    tb.net
                        .node_mut(NodeId(peer))
                        .gossipsub_mut()
                        .set_observer(true);
                }
                pool
            }
        };

        let mut timeline: Vec<(u64, EventKind)> = Vec::new();
        for (i, e) in spec.churn.iter().enumerate() {
            timeline.push((e.at_ms, EventKind::Churn(i)));
        }
        if let Some(s) = spec.spam {
            timeline.push((s.at_ms, EventKind::Spam));
        }
        for r in 0..spec.traffic.rounds {
            timeline.push((
                spec.traffic.start_ms + spec.traffic.interval_ms * r as u64,
                EventKind::Traffic(r),
            ));
        }
        for (i, r) in spec.faults.restarts.iter().enumerate() {
            timeline.push((r.at_ms, EventKind::FaultCrash(i)));
            timeline.push((r.at_ms + r.downtime_ms, EventKind::FaultRestore(i)));
        }
        for (i, p) in spec.faults.partitions.iter().enumerate() {
            timeline.push((p.at_ms, EventKind::PartitionStart(i)));
            timeline.push((p.at_ms + p.heal_after_ms, EventKind::PartitionHeal(i)));
        }
        for (i, d) in spec.faults.degradations.iter().enumerate() {
            timeline.push((d.at_ms, EventKind::DegradeStart(i)));
            timeline.push((d.at_ms + d.duration_ms, EventKind::DegradeEnd(i)));
        }
        for (i, o) in spec.faults.contract_outages.iter().enumerate() {
            timeline.push((o.at_ms, EventKind::OutageStart(i)));
        }
        timeline.sort();

        ScenarioRun {
            end_ms: spec.duration_ms(),
            spec: spec.clone(),
            tb,
            rng,
            timeline,
            next_event: 0,
            observers,
            members_start,
            publishes: Vec::new(),
            spam_messages: Vec::new(),
            honest_publish_failures: 0,
            spam_send_failures: 0,
            peers_crashed: 0,
            joined_at: vec![0; n_initial],
            restart_sets: vec![Vec::new(); spec.faults.restarts.len()],
            remesh,
        }
    }

    /// The world as it stands.
    pub(crate) fn testbed(&self) -> &Testbed {
        &self.tb
    }

    /// Mutable access to the world (the soak harness drains delivery
    /// tapes through it).
    pub(crate) fn testbed_mut(&mut self) -> &mut Testbed {
        &mut self.tb
    }

    /// Honest publishes so far: `(attempted, refused)`.
    pub(crate) fn publish_attempts(&self) -> (u64, u64) {
        let failed = self.honest_publish_failures;
        (self.publishes.len() as u64 + failed, failed)
    }

    /// Advances the world to `to_ms` (clamped to the run's end), firing
    /// every timeline event at or before it at its own time; an event on
    /// a tick fires after that tick's sync. `observe` sees the world at
    /// every tick reached. Where a run is cut into `advance_to` calls
    /// never moves a report byte.
    pub(crate) fn advance_to(&mut self, to_ms: u64, observe: &mut dyn FnMut(&Testbed)) {
        let to_ms = to_ms.min(self.end_ms);
        loop {
            while let Some(&(at_ms, kind)) = self.timeline.get(self.next_event) {
                if at_ms > self.tb.net.now() {
                    break;
                }
                self.next_event += 1;
                self.fire(at_ms, kind);
            }
            if self.tb.net.now() >= to_ms {
                return;
            }
            let stop = self
                .timeline
                .get(self.next_event)
                .map_or(to_ms, |&(at_ms, _)| at_ms.min(to_ms));
            let remesh = &mut self.remesh;
            self.tb.advance_to(stop, &mut |tb| {
                remesh.sample(tb);
                observe(tb);
            });
        }
    }

    /// Live honest peers (initial honest plus joiners), excluding the
    /// eclipse victim — the pool traffic, crash and bootstrap draws come
    /// from. Joiners are exactly the peers with a nonzero `joined_at`.
    /// Sorted ascending, so shuffles are reproducible.
    fn honest_candidates(&self) -> Vec<usize> {
        let victim = self.spec.eclipse.map(|_| 0);
        (0..self.tb.peer_count())
            .filter(|i| *i < self.spec.honest || self.joined_at[*i] > 0)
            .filter(|i| self.tb.is_live(*i) && Some(*i) != victim)
            .collect()
    }

    /// Applies one timeline event at its time `at_ms` (the world stands
    /// at that instant).
    fn fire(&mut self, at_ms: u64, kind: EventKind) {
        let spec = &self.spec;
        match kind {
            EventKind::Churn(i) => match spec.churn[i].action {
                ChurnAction::Crash { peers } => {
                    let mut candidates = self.honest_candidates();
                    candidates.shuffle(&mut self.rng);
                    for p in candidates.into_iter().take(peers) {
                        if self.tb.crash_peer(p) {
                            self.peers_crashed += 1;
                        }
                    }
                }
                ChurnAction::Join { peers } => {
                    for _ in 0..peers {
                        let mut candidates = self.honest_candidates();
                        candidates.shuffle(&mut self.rng);
                        candidates.truncate(3);
                        if candidates.is_empty() {
                            continue;
                        }
                        let id = self.tb.add_peer(&candidates);
                        debug_assert_eq!(id, self.joined_at.len());
                        self.joined_at.push(at_ms);
                    }
                }
            },
            EventKind::Spam => {
                let Some(s) = spec.spam else { return };
                for spammer in spec.honest..spec.honest + s.spammers {
                    for k in 0..s.burst {
                        let payload = format!("spam-{spammer}-{k}").into_bytes();
                        match self.tb.publish_spam(spammer, &payload) {
                            Ok(id) => self.spam_messages.push((spammer, id, at_ms)),
                            Err(_) => self.spam_send_failures += 1,
                        }
                    }
                }
            }
            EventKind::FaultCrash(i) => {
                let mut candidates = self.honest_candidates();
                candidates.shuffle(&mut self.rng);
                candidates.truncate(spec.faults.restarts[i].peers);
                candidates.sort_unstable();
                for &p in &candidates {
                    self.tb.crash_peer(p);
                }
                self.restart_sets[i] = candidates;
            }
            EventKind::FaultRestore(i) => {
                let warm = spec.faults.restarts[i].warm;
                for &p in &self.restart_sets[i] {
                    self.tb.restart_peer(p, warm);
                }
                self.remesh.arm(at_ms);
            }
            EventKind::PartitionStart(i) => {
                // the minority group is drawn from the live population so
                // the split is meaningful even after churn/crashes
                let p = spec.faults.partitions[i];
                let mut live: Vec<usize> = (0..self.tb.peer_count())
                    .filter(|j| self.tb.is_live(*j))
                    .collect();
                live.shuffle(&mut self.rng);
                let minority = ((live.len() as f64) * p.minority_fraction).round() as usize;
                let mut groups = vec![0u32; self.tb.peer_count()];
                for &j in live.iter().take(minority) {
                    groups[j] = 1;
                }
                self.tb.net.set_partition(groups);
            }
            EventKind::PartitionHeal(_) => {
                self.tb.net.clear_partition();
                self.remesh.arm(at_ms);
            }
            EventKind::DegradeStart(i) => {
                let d = spec.faults.degradations[i];
                self.tb
                    .net
                    .set_degradation(d.extra_loss, d.extra_latency_ms);
            }
            EventKind::DegradeEnd(_) => {
                self.tb.net.clear_degradation();
            }
            EventKind::OutageStart(i) => {
                // the chain clock ticks in seconds; round the end up so a
                // sub-second tail still covers its full window
                let o = spec.faults.contract_outages[i];
                self.tb
                    .chain
                    .set_registration_outage((o.at_ms + o.duration_ms).div_ceil(1000));
            }
            EventKind::Traffic(round) => {
                let mut candidates = self.honest_candidates();
                // only synced members can generate proofs, and the
                // surveillance adversary's taps never publish
                candidates
                    .retain(|p| self.tb.is_member(*p) && self.observers.binary_search(p).is_err());
                candidates.shuffle(&mut self.rng);
                for p in candidates.into_iter().take(spec.traffic.publishers) {
                    let payload = format!("r{round}-p{p}").into_bytes();
                    match self.tb.publish(p, &payload) {
                        Ok(id) => self.publishes.push(PublishRecord {
                            id,
                            publisher: p,
                            at_ms,
                            round,
                        }),
                        Err(_) => self.honest_publish_failures += 1,
                    }
                }
            }
        }
    }

    /// Runs the rest of the timeline and the end-of-run drain, then
    /// distills the report. Hands back the finished world too.
    pub(crate) fn finish(mut self) -> (ScenarioReport, Testbed) {
        self.advance_to(self.end_ms, &mut |_| {});
        // classify the drain: did the network actually settle, or did the
        // hard stop cut it off with work still queued? (Live meshes keep
        // heartbeat timers armed forever, so pending > 0 is the norm — the
        // report records it instead of swallowing it.)
        let drain = self.tb.run_to_quiescence(self.end_ms);
        (self.distill(drain), self.tb)
    }

    /// Distills the finished run into its report.
    fn distill(&self, drain: QuiescenceOutcome) -> ScenarioReport {
        let (spec, tb) = (&self.spec, &self.tb);
        let honest = spec.honest;
        let spammers = spec.spam.map(|s| s.spammers).unwrap_or(0);
        let attackers = spec.eclipse.map(|e| e.attackers).unwrap_or(0);
        let n_initial = spec.initial_peers();
        let victim: Option<usize> = spec.eclipse.map(|_| 0);
        let (drain_quiescent, drain_pending_events) = match drain {
            QuiescenceOutcome::Quiescent { .. } => (true, 0),
            QuiescenceOutcome::HardStop { pending_events, .. } => (false, pending_events),
        };

        let n_total = tb.peer_count();
        let is_censor = |i: usize| i >= honest + spammers && i < n_initial;
        // one eligibility rule for every delivery metric (honest and spam):
        // the receiver is alive at the end, isn't the sender or a censor, and
        // had joined (plus sync grace) before the publish
        let eligible_receiver = |i: usize, sender: usize, published_at: u64| {
            i != sender
                && !is_censor(i)
                && tb.is_live(i)
                && (self.joined_at[i] == 0
                    || self.joined_at[i] + JOIN_SYNC_GRACE_MS <= published_at)
        };
        let mut arrivals: HashMap<MessageId, HashMap<usize, u64>> = HashMap::new();
        for i in 0..n_total {
            for d in tb.net.node(NodeId(i)).gossipsub().delivered() {
                arrivals
                    .entry(d.id())
                    .or_default()
                    .entry(i)
                    .or_insert(d.at_ms);
            }
        }

        let mut pairs_total = 0u64;
        let mut pairs_delivered = 0u64;
        let mut victim_pairs = 0u64;
        let mut victim_delivered = 0u64;
        // per-traffic-round pair counts: (publish time, total, delivered)
        let mut rounds: Vec<(u64, u64, u64)> = vec![(0, 0, 0); spec.traffic.rounds];
        let mut samples: Vec<f64> = Vec::new();
        for publish in &self.publishes {
            let delivered_to = arrivals.get(&publish.id);
            rounds[publish.round].0 = publish.at_ms;
            for i in 0..n_total {
                if !eligible_receiver(i, publish.publisher, publish.at_ms) {
                    continue;
                }
                pairs_total += 1;
                rounds[publish.round].1 += 1;
                let arrival = delivered_to.and_then(|m| m.get(&i));
                if let Some(at) = arrival {
                    pairs_delivered += 1;
                    rounds[publish.round].2 += 1;
                    samples.push(at.saturating_sub(publish.at_ms) as f64);
                }
                if Some(i) == victim {
                    victim_pairs += 1;
                    if arrival.is_some() {
                        victim_delivered += 1;
                    }
                }
            }
        }
        samples.sort_by(f64::total_cmp);
        let percentile = |p: f64| -> Option<f64> {
            if samples.is_empty() {
                None
            } else {
                let rank = ((samples.len() - 1) as f64 * p).round() as usize;
                Some(samples[rank])
            }
        };

        let mut spam_delivered_majority = 0u64;
        for (spammer, id, sent_at) in &self.spam_messages {
            let eligible: Vec<usize> = (0..n_total)
                .filter(|i| eligible_receiver(*i, *spammer, *sent_at))
                .collect();
            let got = arrivals
                .get(id)
                .map(|m| eligible.iter().filter(|i| m.contains_key(i)).count())
                .unwrap_or(0);
            if got * 2 >= eligible.len() && !eligible.is_empty() {
                spam_delivered_majority += 1;
            }
        }
        let spammers_slashed = (honest..honest + spammers)
            .filter(|s| !tb.is_member(*s))
            .count() as u64;

        let mut stats_sum = waku_rln_relay::ValidationStats::default();
        let mut nullifier_max = 0u64;
        let mut nullifier_sum = 0u64;
        let mut nullifier_live = 0u64;
        let mut tree_max = 0u64;
        let mut bytes_max = 0u64;
        let mut bytes_sum = 0u64;
        let mut cpu_max = 0u64;
        let mut cpu_sum = 0u64;
        for i in 0..n_total {
            let node = tb.net.node(NodeId(i));
            let s = node.validator().stats();
            stats_sum.valid += s.valid;
            stats_sum.malformed += s.malformed;
            stats_sum.invalid_proof += s.invalid_proof;
            stats_sum.epoch_out_of_window += s.epoch_out_of_window;
            stats_sum.duplicates += s.duplicates;
            stats_sum.spam_detected += s.spam_detected;
            if tb.is_live(i) {
                let nb = node.validator().nullifier_map_bytes() as u64;
                nullifier_max = nullifier_max.max(nb);
                nullifier_sum += nb;
                nullifier_live += 1;
                tree_max = tree_max.max(node.membership_storage_bytes() as u64);
            }
            let b = tb.net.metrics().node_bytes_sent(i as u64);
            bytes_max = bytes_max.max(b);
            bytes_sum += b;
            let c = tb.net.metrics().node_cpu_micros(i as u64);
            cpu_max = cpu_max.max(c);
            cpu_sum += c;
        }

        // the adversary's post-run analysis: pool every observer tape by
        // message id and run the attribution estimators over each honest
        // publish. Pure post-processing over per-node state in fixed order —
        // a function of the seed like everything else in the report.
        let mut anonymity_observers = None;
        let mut anonymity_observations = None;
        let mut anonymity_messages_observed = None;
        let mut anonymity_first_spy_precision_at1 = None;
        let mut anonymity_centrality_precision_at1 = None;
        let mut anonymity_set_mean_size = None;
        let mut anonymity_arrival_entropy_bits = None;
        if spec.surveillance.is_some() {
            let mut pooled: HashMap<MessageId, Vec<PooledObservation>> = HashMap::new();
            let mut observations_total = 0u64;
            for &peer in &self.observers {
                // a crashed observer's tape is still read: a confiscated
                // tap is still evidence
                for obs in tb.net.node(NodeId(peer)).gossipsub().observations() {
                    observations_total += 1;
                    pooled.entry(obs.id).or_default().push(PooledObservation {
                        observer: peer as u64,
                        from: obs.from.as_u64(),
                        at_ms: obs.at_ms,
                    });
                }
            }
            let mut observed = 0u64;
            let mut first_spy_hits = 0u64;
            let mut centrality_hits = 0u64;
            let mut set_size_sum = 0u64;
            let mut entropy_sum = 0.0f64;
            for publish in &self.publishes {
                let Some(verdict) = pooled.get(&publish.id).and_then(|r| attribute(r)) else {
                    continue;
                };
                observed += 1;
                if verdict.first_spy_guess == publish.publisher as u64 {
                    first_spy_hits += 1;
                }
                if verdict.centrality_guess == publish.publisher as u64 {
                    centrality_hits += 1;
                }
                set_size_sum += verdict.anonymity_set_size as u64;
                entropy_sum += verdict.arrival_entropy_bits;
            }
            anonymity_observers = Some(self.observers.len() as u64);
            anonymity_observations = Some(observations_total);
            anonymity_messages_observed = Some(observed);
            if observed > 0 {
                anonymity_first_spy_precision_at1 = Some(first_spy_hits as f64 / observed as f64);
                anonymity_centrality_precision_at1 = Some(centrality_hits as f64 / observed as f64);
                anonymity_set_mean_size = Some(set_size_sum as f64 / observed as f64);
                anonymity_arrival_entropy_bits = Some(entropy_sum / observed as f64);
            }
        }

        let metrics = tb.net.metrics();

        // resilience distillation — populated only when the spec schedules
        // faults, so fault-free reports keep every resilience_* field null
        let mut resilience_faults_injected = None;
        let mut resilience_peers_restarted = None;
        let mut resilience_resync_retries = None;
        let mut resilience_messages_lost_partition = None;
        let mut resilience_time_to_remesh_ms = None;
        let mut resilience_delivery_during_fault = None;
        let mut resilience_delivery_post_heal = None;
        let mut resilience_delivery_dip_depth = None;
        let mut resilience_delivery_dip_duration_ms = None;
        if !spec.faults.is_empty() {
            let windows = spec.faults.windows();
            let last_end = spec.faults.last_end_ms();
            let in_fault = |t: u64| windows.iter().any(|(s, e)| t >= *s && t < *e);
            let mut during = (0u64, 0u64);
            let mut post = (0u64, 0u64);
            let mut min_rate: Option<f64> = None;
            let mut dip_rounds = 0u64;
            for &(at, total, delivered) in &rounds {
                if total == 0 {
                    continue;
                }
                let rate = delivered as f64 / total as f64;
                min_rate = Some(min_rate.map_or(rate, |m: f64| m.min(rate)));
                if rate < DIP_THRESHOLD {
                    dip_rounds += 1;
                }
                if in_fault(at) {
                    during.0 += total;
                    during.1 += delivered;
                }
                if at >= last_end {
                    post.0 += total;
                    post.1 += delivered;
                }
            }
            // every fault window opens with one injected fault
            resilience_faults_injected = Some(windows.len() as u64);
            resilience_peers_restarted = Some(metrics.counter("peer_restarts"));
            resilience_resync_retries = Some(metrics.counter("resync_retries"));
            resilience_messages_lost_partition = Some(metrics.counter("messages_lost_partition"));
            resilience_time_to_remesh_ms = self.remesh.recorded;
            resilience_delivery_during_fault =
                (during.0 > 0).then(|| during.1 as f64 / during.0 as f64);
            resilience_delivery_post_heal = (post.0 > 0).then(|| post.1 as f64 / post.0 as f64);
            resilience_delivery_dip_depth = min_rate.map(|m| 1.0 - m);
            resilience_delivery_dip_duration_ms = Some(dip_rounds * spec.traffic.interval_ms);
        }

        ScenarioReport {
            scenario: spec.name.clone(),
            seed: spec.seed,
            peers_initial: n_initial as u64,
            peers_final_live: tb.live_peer_count() as u64,
            honest: honest as u64,
            spammers: spammers as u64,
            eclipse_attackers: attackers as u64,
            duration_ms: self.end_ms,
            tree_depth: spec.effective_tree_depth() as u64,
            honest_published: self.publishes.len() as u64,
            honest_publish_failures: self.honest_publish_failures,
            delivery_rate: pairs_delivered as f64 / pairs_total as f64,
            propagation_p50_ms: percentile(0.50),
            propagation_p99_ms: percentile(0.99),
            propagation_max_ms: percentile(1.0),
            spam_attempted: self.spam_messages.len() as u64 + self.spam_send_failures,
            spam_send_failures: self.spam_send_failures,
            spam_delivered_majority,
            spam_detections: tb.total_spam_detections(),
            spammers_slashed,
            members_start: self.members_start,
            members_end: tb.active_members() as u64,
            peers_crashed: self.peers_crashed,
            peers_joined: (n_total - n_initial) as u64,
            messages_sent: metrics.counter("messages_sent"),
            messages_delivered: metrics.counter("messages_delivered"),
            messages_to_removed_peer: metrics.counter("messages_to_removed_peer"),
            bytes_sent: metrics.counter("bytes_sent"),
            bytes_sent_mean_per_node: bytes_sum as f64 / n_total as f64,
            bytes_sent_max_node: bytes_max,
            cpu_micros_mean_per_node: cpu_sum as f64 / n_total as f64,
            cpu_micros_max_node: cpu_max,
            valid_total: stats_sum.valid,
            invalid_proof_total: stats_sum.invalid_proof,
            epoch_out_of_window_total: stats_sum.epoch_out_of_window,
            duplicates_total: stats_sum.duplicates,
            malformed_total: stats_sum.malformed,
            nullifier_map_max_bytes: nullifier_max,
            nullifier_map_mean_bytes: nullifier_sum as f64 / nullifier_live.max(1) as f64,
            membership_tree_max_bytes: tree_max,
            drain_quiescent,
            drain_pending_events,
            eclipse_victim_delivery_rate: spec
                .eclipse
                .map(|_| victim_delivered as f64 / victim_pairs.max(1) as f64),
            anonymity_observers,
            anonymity_observations,
            anonymity_messages_observed,
            anonymity_first_spy_precision_at1,
            anonymity_centrality_precision_at1,
            anonymity_set_mean_size,
            anonymity_arrival_entropy_bits,
            resilience_faults_injected,
            resilience_peers_restarted,
            resilience_resync_retries,
            resilience_messages_lost_partition,
            resilience_time_to_remesh_ms,
            resilience_delivery_during_fault,
            resilience_delivery_post_heal,
            resilience_delivery_dip_depth,
            resilience_delivery_dip_duration_ms,
        }
    }
}

/// Builds the bootstrap adjacency for the whole population: the chosen
/// topology over honest + spammer peers, plus the eclipse wiring (victim
/// cut out of the honest graph and ringed by censors) when requested.
fn build_adjacency(spec: &ScenarioSpec, n_hs: usize, attackers: usize) -> Vec<Vec<NodeId>> {
    let mut adjacency: Vec<Vec<NodeId>> = match spec.topology {
        // below degree + 1 peers, "`degree` random peers" is everyone else
        TopologySpec::RandomRegular { degree } => {
            topology::random_regular(n_hs, degree.min(n_hs.saturating_sub(1)), spec.seed)
        }
        TopologySpec::Ring => topology::ring(n_hs),
    };
    if let Some(EclipseSpec { attackers: k }) = spec.eclipse {
        debug_assert_eq!(attackers, k);
        let victim = NodeId(0);
        // no honest peer may know the victim, or it would graft honest
        // links into the victim's mesh and break the eclipse
        for adj in adjacency.iter_mut() {
            adj.retain(|p| *p != victim);
        }
        let attacker_ids: Vec<NodeId> = (n_hs..n_hs + k).map(NodeId).collect();
        // lint:allow(panic-path, reason = "adjacency holds n_hs + k >= 1 rows; row 0 is the supernode under construction")
        adjacency[0] = attacker_ids.clone();
        for (j, _) in attacker_ids.iter().enumerate() {
            // each censor knows the victim and a couple of honest peers,
            // so it blends into the overlay
            let mut known = vec![victim];
            known.push(NodeId(1 + (j % (n_hs - 1))));
            known.push(NodeId(1 + ((j + 1) % (n_hs - 1))));
            adjacency.push(known);
        }
    } else {
        debug_assert_eq!(attackers, 0);
    }
    adjacency
}

/// Device classes assigned weighted round-robin over the honest
/// population; spammers and attackers run the default profile. Some
/// share is nonzero when `devices` is not empty
/// ([`ScenarioSpec::validate`]).
fn assign_costs(devices: &[DeviceClassSpec], honest: usize, n_total: usize) -> Vec<CostModel> {
    let default = CostModel::default();
    let mut costs = vec![default; n_total];
    if devices.is_empty() {
        return costs;
    }
    // expand the shares into a repeating assignment pattern:
    // shares [3, 1] → pattern [c0, c0, c0, c1]
    let pattern: Vec<CostModel> = devices
        .iter()
        .flat_map(|d| {
            std::iter::repeat_n(
                CostModel {
                    verify_proof_micros: d.verify_proof_micros,
                    ..default
                },
                d.share as usize,
            )
        })
        .collect();
    for (i, cost) in costs.iter_mut().take(honest).enumerate() {
        *cost = pattern[i % pattern.len()];
    }
    costs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TrafficSpec;

    fn tiny(seed: u64) -> ScenarioSpec {
        let mut spec = ScenarioSpec::baseline(8, seed);
        spec.traffic = TrafficSpec {
            publishers: 2,
            rounds: 2,
            start_ms: 8_000,
            interval_ms: 12_000,
        };
        spec.drain_ms = 20_000;
        spec
    }

    #[test]
    fn baseline_delivers() {
        let report = run_scenario(&tiny(7));
        assert_eq!(report.peers_initial, 8);
        assert_eq!(report.honest_published, 4);
        assert!(report.delivery_rate > 0.9, "rate {}", report.delivery_rate);
        assert!(report.propagation_p50_ms.is_some());
        assert_eq!(report.spam_attempted, 0);
        assert_eq!(report.members_start, 8);
        assert_eq!(report.members_end, 8);
    }

    #[test]
    fn populations_below_the_bootstrap_degree_run_as_a_full_mesh() {
        for n in [2, 5] {
            let spec = ScenarioSpec::baseline(n, 1);
            let adjacency = build_adjacency(&spec, n, 0);
            assert_eq!(adjacency, topology::full_mesh(n));
            let report = run_scenario(&spec);
            assert_eq!(report.peers_initial, n as u64);
            assert!(report.delivery_rate > 0.9, "rate {}", report.delivery_rate);
        }
    }

    #[test]
    fn engine_is_deterministic() {
        let a = run_scenario(&tiny(9)).to_json();
        let b = run_scenario(&tiny(9)).to_json();
        assert_eq!(a, b);
        let c = run_scenario(&tiny(10)).to_json();
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn eclipse_adjacency_cuts_victim_out_of_honest_graph() {
        let mut spec = ScenarioSpec::baseline(10, 3);
        spec.eclipse = Some(EclipseSpec { attackers: 4 });
        let adjacency = build_adjacency(&spec, 10, 4);
        assert_eq!(adjacency.len(), 14);
        // victim knows exactly the attackers
        assert_eq!(
            adjacency[0],
            vec![NodeId(10), NodeId(11), NodeId(12), NodeId(13)]
        );
        // no honest peer knows the victim
        for adj in &adjacency[1..10] {
            assert!(!adj.contains(&NodeId(0)));
        }
        // every attacker knows the victim
        for adj in &adjacency[10..] {
            assert!(adj.contains(&NodeId(0)));
        }
    }

    /// `publish_jitter_ms` travels spec → `TestbedConfig` → every peer's
    /// `GossipsubConfig`: publishers that hold first-hop copies back for
    /// up to 200 ms produce a different report with a slower median.
    #[test]
    fn publish_jitter_reaches_the_peers() {
        let plain = run_scenario(&tiny(7));
        let mut spec = tiny(7);
        spec.publish_jitter_ms = 200;
        let jittered = run_scenario(&spec);
        assert_ne!(plain.to_json(), jittered.to_json());
        let (p50, jittered_p50) = (plain.propagation_p50_ms, jittered.propagation_p50_ms);
        assert!(
            jittered_p50 > p50,
            "p50 {p50:?} ms at jitter 0, {jittered_p50:?} ms at 200 ms"
        );
    }

    #[test]
    fn fault_free_runs_leave_the_resilience_section_null() {
        let report = run_scenario(&tiny(7));
        assert_eq!(report.resilience_faults_injected, None);
        assert_eq!(report.resilience_time_to_remesh_ms, None);
        assert_eq!(report.resilience_delivery_dip_depth, None);
    }

    #[test]
    fn partition_heal_dips_then_recovers() {
        let report = run_scenario(&crate::library::partition_heal(24, 3));
        assert_eq!(report.resilience_faults_injected, Some(1));
        let during = report
            .resilience_delivery_during_fault
            .expect("rounds land inside the partition window");
        let post = report
            .resilience_delivery_post_heal
            .expect("a round lands after the heal");
        // the acceptance claim: delivery visibly dips while the cut
        // holds and comes back once the partition heals
        assert!(during < 1.0, "during {during}");
        assert!(post >= 0.99, "post {post}");
        assert!(report.resilience_delivery_dip_depth.unwrap() > 0.0);
        assert!(report.resilience_messages_lost_partition.unwrap() > 0);
        assert!(
            report.resilience_time_to_remesh_ms.is_some(),
            "mesh must re-form after the heal"
        );
    }

    #[test]
    fn fault_storm_restarts_and_retries_resync_through_the_outage() {
        let report = run_scenario(&crate::library::fault_storm(16, 2));
        // 2 crash waves + 1 degradation + 1 contract outage
        assert_eq!(report.resilience_faults_injected, Some(4));
        assert_eq!(report.resilience_peers_restarted, Some(2));
        // the cold restore lands mid-outage, so the Merkle resync has to
        // retry until the contract returns
        assert!(report.resilience_resync_retries.unwrap() > 0);
        let post = report.resilience_delivery_post_heal.unwrap();
        assert!(post >= 0.99, "post-recovery delivery {post}");
    }

    #[test]
    fn simulated_hour_soak_keeps_per_node_state_bounded() {
        use crate::soak::{run_soak, SoakBounds, SoakConfig};
        use crate::spec::{ContractOutageEvent, DegradationEvent, PartitionEvent, RestartEvent};
        // an hour of continuous traffic with every fault class in play and
        // the batched pipeline on: the long-horizon leak check for the
        // nullifier window GC, the verdict cache and deferred verdicts
        // across a cold restart, the mcache and the own-message map
        let mut spec = ScenarioSpec::baseline(8, 13);
        spec.name = "hour_soak".to_string();
        spec.pipeline = Some(waku_rln_relay::PipelineConfig::default());
        spec.traffic = TrafficSpec {
            publishers: 2,
            rounds: 30,
            start_ms: 10_000,
            interval_ms: 120_000,
        };
        spec.faults.restarts = vec![
            RestartEvent {
                at_ms: 600_000,
                peers: 1,
                downtime_ms: 10_000,
                warm: true,
            },
            RestartEvent {
                at_ms: 1_800_000,
                peers: 1,
                downtime_ms: 10_000,
                warm: false,
            },
        ];
        spec.faults.partitions = vec![PartitionEvent {
            at_ms: 1_200_000,
            heal_after_ms: 20_000,
            minority_fraction: 0.3,
        }];
        spec.faults.degradations = vec![DegradationEvent {
            at_ms: 2_400_000,
            duration_ms: 30_000,
            extra_loss: 0.1,
            extra_latency_ms: 50,
        }];
        // covers the cold restore at 1_810_000, forcing resync retries
        spec.faults.contract_outages = vec![ContractOutageEvent {
            at_ms: 1_795_000,
            duration_ms: 30_000,
        }];
        spec.drain_ms = 120_000;
        // ten-minute segments; the second checkpoint replays the cold
        // restart through the outage
        let config = SoakConfig {
            spec,
            segment_ms: 600_000,
            checkpoint_every: 3,
        };
        let outcome = run_soak(&config, &SoakBounds::default(), &mut |_| {});
        assert!(outcome.clean(), "violations: {:?}", outcome.violations);
        assert_eq!(outcome.segments, 6);
        assert_eq!(outcome.checkpoints_verified, 2);
        assert!(outcome.resync_retries > 0);
        // every publish should reach the other seven peers
        let rate = outcome.deliveries as f64 / (outcome.published * 7) as f64;
        assert!(rate > 0.9, "rate {rate}");
    }

    /// Cutting a run anywhere moves no report byte: between ticks, on a
    /// tick, and at, just before and just after `epoch_boundary_race`'s
    /// off-grid first round (29.7 s).
    #[test]
    fn a_run_advanced_in_segments_reports_the_same_bytes() {
        for spec in [
            crate::library::fault_storm(12, 5),
            crate::library::high_throughput(12, 5),
            crate::library::epoch_boundary_race(12, 5),
        ] {
            let mut run = ScenarioRun::new(&spec);
            for t in [12_345, 29_699, 29_700, 29_701, 33_000, 33_333, 50_500] {
                run.advance_to(t, &mut |_| {});
                assert_eq!(run.testbed().net.now(), t);
            }
            let segmented = run.finish().0.to_json();
            assert_eq!(segmented, run_scenario(&spec).to_json(), "{}", spec.name);
        }
    }

    /// Checkpoint/restore byte-identity, the hard-stop form: freeze a run
    /// by deep clone inside `fault_storm`'s first restart window, drive the
    /// original to the end, then finish from the clone alone. The replay
    /// crosses a warm restore, a degradation burst, a contract outage and
    /// a cold restart that resyncs through it — a single diverging RNG
    /// draw, queue ordering or un-cloned cache would move the report.
    #[test]
    fn restored_checkpoint_replays_byte_identical_to_uninterrupted_run() {
        let spec = crate::library::fault_storm(12, 99);
        let mut live = ScenarioRun::new(&spec);
        // the warm wave is down from 25 s to 35 s; stop between ticks
        live.advance_to(30_500, &mut |_| {});
        let checkpoint = live.clone();
        let uninterrupted = live.finish().0;
        // hard stop: only the checkpoint survives
        let restored = checkpoint.finish().0;
        assert_eq!(
            restored.to_json(),
            uninterrupted.to_json(),
            "restored checkpoint diverged from the uninterrupted run"
        );
        assert_eq!(restored.resilience_peers_restarted, Some(2));
        assert!(restored.resilience_resync_retries.unwrap() > 0);
    }

    /// A checkpoint keeps every peer's caught marks: the clone of a run
    /// taken after `spam_burst`'s spammers were caught holds the same
    /// validator states, marks included, so neither copy reconstructs a
    /// caught statement again.
    #[test]
    fn caught_marks_survive_a_checkpoint_clone() {
        let spec = crate::library::spam_burst(12, 3);
        let mut run = ScenarioRun::new(&spec);
        let caught = |run: &ScenarioRun| -> usize {
            let tb = run.testbed();
            (0..tb.net.len())
                .map(|i| tb.net.node(NodeId(i)).validator().model_state())
                .map(|state| state.nullifier_map.caught_len())
                .sum()
        };
        let mut t = 0;
        while caught(&run) == 0 {
            assert!(t < run.end_ms, "no peer caught a spammer");
            t += 1_000;
            run.advance_to(t, &mut |_| {});
        }
        let checkpoint = run.clone();
        assert_eq!(caught(&checkpoint), caught(&run));
        for i in 0..run.testbed().net.len() {
            assert_eq!(
                checkpoint
                    .testbed()
                    .net
                    .node(NodeId(i))
                    .validator()
                    .model_state(),
                run.testbed().net.node(NodeId(i)).validator().model_state(),
                "peer {i}"
            );
        }
    }

    #[test]
    fn device_mix_assignment_covers_honest_peers() {
        let devices = [
            DeviceClassSpec {
                name: "phone",
                verify_proof_micros: 30_000,
                share: 3,
            },
            DeviceClassSpec {
                name: "server",
                verify_proof_micros: 1_000,
                share: 1,
            },
        ];
        let default = CostModel::default();
        let costs = assign_costs(&devices, 8, 10);
        let phones = costs[..8]
            .iter()
            .filter(|c| c.verify_proof_micros == 30_000)
            .count();
        let servers = costs[..8]
            .iter()
            .filter(|c| c.verify_proof_micros == 1_000)
            .count();
        assert_eq!(phones + servers, 8);
        assert!(phones > servers);
        // non-honest tail untouched
        assert_eq!(costs[8].verify_proof_micros, default.verify_proof_micros);
        assert_eq!(costs[9].verify_proof_micros, default.verify_proof_micros);
    }
}
