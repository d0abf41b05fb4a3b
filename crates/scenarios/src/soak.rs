//! The simulated-days soak harness: long-horizon leak detection via
//! engine checkpoint/restore and streaming report deltas.
//!
//! Scenario runs measure protocol behaviour over minutes of simulated
//! time; the soak mode instead drives the full testbed for simulated
//! *days* of continuous honest traffic and asserts that every piece of
//! per-node state the paper requires to be windowed actually stays
//! bounded over horizons ≥ 100× longer than any scenario: the RLN
//! nullifier map (§III epoch-window GC), the pipeline's proof-verdict
//! cache, the gossipsub `mcache`, `seen` and `own_published` caches,
//! and the peer-score table.
//!
//! Two design points keep day-scale runs honest:
//!
//! * **Streaming deltas.** The run is cut into segments; after each one
//!   the harness emits a [`SoakDelta`] — per-segment counters plus the
//!   *current* size of every bounded structure — and drains the
//!   delivery tapes, so the harness itself holds O(segment) state, not
//!   O(run). Deltas are checked against [`SoakBounds`] as they stream.
//!
//! * **Checkpoint/restore.** Every `checkpoint_every` segments the
//!   world is checkpointed by deep [`Clone`] (the testbed's whole state:
//!   network, queue, chain, RNG streams), the live world advances one
//!   segment, and the restored checkpoint replays the same segment. The
//!   two must reach byte-identical [fingerprints](SoakWorld::fingerprint)
//!   — the determinism contract that makes long runs resumable and
//!   failures replayable from the nearest checkpoint.
//!
//! The `simctl soak` subcommand drives this from the command line
//! (`--sim-hours`, `--checkpoint-every`); the module tests, the
//! hard-stop replay test in `tests/scenario_determinism.rs` and the CI
//! soak smoke pin the invariants.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt::Write as _;
use waku_rln_relay::{PipelineConfig, Testbed, TestbedConfig};
use wakurln_netsim::NodeId;

/// Configuration for one soak run.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Number of peers in the world.
    pub nodes: usize,
    /// Determinism seed (topology, identities, traffic draws).
    pub seed: u64,
    /// Total simulated time, milliseconds.
    pub total_ms: u64,
    /// Streaming-report segment length, milliseconds. Deltas, bounds
    /// checks and delivery-tape drains happen at segment boundaries.
    pub segment_ms: u64,
    /// Checkpoint/restore cadence in segments (`0` disables the
    /// byte-identity replay check).
    pub checkpoint_every: u64,
    /// Honest publishes attempted per traffic tick.
    pub publishers: usize,
    /// Traffic tick interval, milliseconds.
    pub publish_interval_ms: u64,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            nodes: 8,
            seed: 2022,
            total_ms: 24 * 3_600_000,
            segment_ms: 3_600_000,
            checkpoint_every: 4,
            publishers: 2,
            publish_interval_ms: 120_000,
        }
    }
}

impl SoakConfig {
    /// Number of whole segments the run covers (the tail shorter than a
    /// segment is dropped — bounds are only ever checked at segment
    /// boundaries).
    pub fn segments(&self) -> u64 {
        self.total_ms / self.segment_ms
    }
}

/// Upper bounds the soak holds per-node state to, checked after every
/// segment. Defaults are sized for the default traffic load with ample
/// headroom: a leak grows linearly with simulated time, so any cache
/// missing its GC blows through these within a few simulated hours.
#[derive(Clone, Copy, Debug)]
pub struct SoakBounds {
    /// `RlnValidator` nullifier-map storage per node, bytes.
    pub nullifier_map_bytes: u64,
    /// Pipeline proof-verdict cache entries per node.
    pub verdict_cache: u64,
    /// Gossipsub `mcache` entries per node.
    pub mcache: u64,
    /// Publisher-side `own_published` jitter-hold set entries per node.
    pub own_published: u64,
    /// Gossipsub `seen` first-delivery cache entries per node.
    pub seen: u64,
    /// Peer-score table entries per node (must track the peer set, not
    /// traffic volume).
    pub score_table: u64,
}

impl Default for SoakBounds {
    fn default() -> SoakBounds {
        SoakBounds {
            nullifier_map_bytes: 16_384,
            verdict_cache: 8_192,
            mcache: 200,
            own_published: 200,
            seen: 2_000,
            score_table: 10_000,
        }
    }
}

/// One streaming report entry: what changed during the segment, and how
/// large every bounded structure currently is (maximum over live
/// nodes).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SoakDelta {
    /// Segment index, starting at 0.
    pub segment: u64,
    /// Simulated time at the end of the segment, milliseconds.
    pub sim_ms: u64,
    /// Publishes attempted during the segment.
    pub published: u64,
    /// Publish attempts refused (per-epoch rate limit, not yet synced).
    pub publish_failures: u64,
    /// Application-level deliveries drained from the tapes this segment.
    pub deliveries: u64,
    /// Node-callback events dispatched during the segment.
    pub events: u64,
    /// Max live-node nullifier-map bytes at the boundary.
    pub nullifier_map_max_bytes: u64,
    /// Max live-node verdict-cache entries (0 when the pipeline is off).
    pub verdict_cache_max: u64,
    /// Max live-node `mcache` entries.
    pub mcache_max: u64,
    /// Max live-node `own_published` entries.
    pub own_published_max: u64,
    /// Max live-node `seen` entries.
    pub seen_max: u64,
    /// Max live-node peer-score-table entries.
    pub score_table_max: u64,
    /// Lowest peer score held by any live node about any tracked peer.
    pub score_min: f64,
    /// Highest peer score held by any live node about any tracked peer.
    pub score_max: f64,
    /// Whether this segment's checkpoint replay was verified
    /// byte-identical (false on segments without a checkpoint).
    pub checkpoint_verified: bool,
}

impl SoakDelta {
    /// One JSON object on one line (the streaming wire format `simctl
    /// soak` emits — one line per segment, parseable with any JSONL
    /// reader). Field order is fixed; floats use Rust's shortest
    /// round-trip formatting, so equal runs emit byte-identical lines.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"segment\":{},\"sim_ms\":{},\"published\":{},\"publish_failures\":{},\
             \"deliveries\":{},\"events\":{},\"nullifier_map_max_bytes\":{},\
             \"verdict_cache_max\":{},\"mcache_max\":{},\"own_published_max\":{},\
             \"seen_max\":{},\"score_table_max\":{},\"score_min\":{:?},\
             \"score_max\":{:?},\"checkpoint_verified\":{}}}",
            self.segment,
            self.sim_ms,
            self.published,
            self.publish_failures,
            self.deliveries,
            self.events,
            self.nullifier_map_max_bytes,
            self.verdict_cache_max,
            self.mcache_max,
            self.own_published_max,
            self.seen_max,
            self.score_table_max,
            self.score_min,
            self.score_max,
            self.checkpoint_verified,
        )
    }

    /// Checks the delta against `bounds`, returning every violated
    /// bound as a human-readable string.
    pub fn check(&self, bounds: &SoakBounds) -> Vec<String> {
        let mut violations = Vec::new();
        let mut check = |what: &str, value: u64, bound: u64| {
            if value >= bound {
                violations.push(format!(
                    "segment {}: {what} reached {value} (bound {bound})",
                    self.segment
                ));
            }
        };
        check(
            "nullifier_map_bytes",
            self.nullifier_map_max_bytes,
            bounds.nullifier_map_bytes,
        );
        check(
            "verdict_cache",
            self.verdict_cache_max,
            bounds.verdict_cache,
        );
        check("mcache", self.mcache_max, bounds.mcache);
        check(
            "own_published",
            self.own_published_max,
            bounds.own_published,
        );
        check("seen", self.seen_max, bounds.seen);
        check("score_table", self.score_table_max, bounds.score_table);
        if !self.score_min.is_finite() || !self.score_max.is_finite() {
            violations.push(format!(
                "segment {}: peer score diverged ({} ..= {})",
                self.segment, self.score_min, self.score_max
            ));
        }
        violations
    }
}

/// The final outcome of a soak run.
#[derive(Clone, Debug)]
pub struct SoakOutcome {
    /// Simulated time covered, milliseconds.
    pub sim_ms: u64,
    /// Segments completed.
    pub segments: u64,
    /// Total publishes attempted.
    pub published: u64,
    /// Total application-level deliveries drained.
    pub deliveries: u64,
    /// Checkpoints whose restored replay matched the live run
    /// byte-for-byte.
    pub checkpoints_verified: u64,
    /// Every bound violation observed, in segment order (empty on a
    /// clean run).
    pub violations: Vec<String>,
    /// Fingerprint of the final world state (two runs of the same
    /// config must end on the same string).
    pub final_fingerprint: String,
}

impl SoakOutcome {
    /// True when every bound held and every checkpoint replay matched.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The running world: the full testbed plus the traffic generator's
/// state. `Clone` is the checkpoint operation — everything that
/// influences the future (network queue, chain, RNG streams, traffic
/// cursor) is deep-copied, so a clone replays identically.
#[derive(Clone)]
pub struct SoakWorld {
    tb: Testbed,
    rng: StdRng,
    next_publish_ms: u64,
    publishers: usize,
    publish_interval_ms: u64,
    published: u64,
    publish_failures: u64,
    deliveries_drained: u64,
}

/// Lock-step slice used for soak advancement (coarser than scenario
/// runs — soak measures state bounds, not propagation latency).
const SOAK_SLICE_MS: u64 = 1_000;

impl SoakWorld {
    /// Builds the world: a testbed with the batching pipeline enabled
    /// (so the verdict cache is exercised) and meshes warmed up for 10
    /// simulated seconds.
    pub fn new(config: &SoakConfig) -> SoakWorld {
        assert!(config.nodes >= 2, "soak needs at least two peers");
        assert!(config.segment_ms > 0, "segment must be positive");
        let defaults = TestbedConfig::default();
        let tb_config = TestbedConfig {
            n_peers: config.nodes,
            seed: config.seed,
            pipeline: Some(PipelineConfig::default()),
            degree: defaults.degree.min(config.nodes - 1),
            ..defaults
        };
        let mut world = SoakWorld {
            tb: Testbed::build(tb_config),
            rng: StdRng::seed_from_u64(config.seed ^ SOAK_RNG_TAG),
            next_publish_ms: 10_000,
            publishers: config.publishers,
            publish_interval_ms: config.publish_interval_ms,
            published: 0,
            publish_failures: 0,
            deliveries_drained: 0,
        };
        world.tb.run(10_000, SOAK_SLICE_MS);
        world
    }

    /// Advances the world by `segment_ms` of continuous traffic, then
    /// drains the delivery tapes (streaming: the harness never holds
    /// more than one segment of deliveries).
    pub fn run_segment(&mut self, segment_ms: u64) {
        let end = self.tb.net.now() + segment_ms;
        while self.next_publish_ms < end {
            if self.next_publish_ms > self.tb.net.now() {
                let dt = self.next_publish_ms - self.tb.net.now();
                self.tb.run(dt, SOAK_SLICE_MS);
            }
            let mut candidates: Vec<usize> = (0..self.tb.peer_count())
                .filter(|&i| self.tb.is_live(i) && self.tb.is_member(i))
                .collect();
            candidates.shuffle(&mut self.rng);
            for p in candidates.into_iter().take(self.publishers) {
                self.published += 1;
                let payload = format!("soak-{}-{p}", self.next_publish_ms).into_bytes();
                if self.tb.publish(p, &payload).is_err() {
                    self.publish_failures += 1;
                }
            }
            self.next_publish_ms += self.publish_interval_ms;
        }
        if end > self.tb.net.now() {
            let dt = end - self.tb.net.now();
            self.tb.run(dt, SOAK_SLICE_MS);
        }
        // drain the per-node delivery tapes so day-long runs hold
        // O(segment) harness state; part of run_segment so checkpoint
        // replays drain at the same boundaries
        for i in 0..self.tb.peer_count() {
            let drained = self
                .tb
                .net
                .node_mut(NodeId(i))
                .relay_mut()
                .gossipsub_mut()
                .take_delivered()
                .len();
            self.deliveries_drained += drained as u64;
        }
    }

    /// Measures the current world into a [`SoakDelta`], relative to the
    /// counters captured at the previous boundary.
    fn measure(&self, segment: u64, prev: &SoakCounters, checkpoint_verified: bool) -> SoakDelta {
        let mut delta = SoakDelta {
            segment,
            sim_ms: self.tb.net.now(),
            published: self.published - prev.published,
            publish_failures: self.publish_failures - prev.publish_failures,
            deliveries: self.deliveries_drained - prev.deliveries,
            events: self.tb.net.events_dispatched() - prev.events,
            nullifier_map_max_bytes: 0,
            verdict_cache_max: 0,
            mcache_max: 0,
            own_published_max: 0,
            seen_max: 0,
            score_table_max: 0,
            score_min: 0.0,
            score_max: 0.0,
            checkpoint_verified,
        };
        for i in 0..self.tb.peer_count() {
            if !self.tb.is_live(i) {
                continue;
            }
            let node = self.tb.net.node(NodeId(i));
            let v = node.validator();
            delta.nullifier_map_max_bytes = delta
                .nullifier_map_max_bytes
                .max(v.nullifier_map_bytes() as u64);
            delta.verdict_cache_max = delta
                .verdict_cache_max
                .max(v.verdict_cache_len().unwrap_or(0) as u64);
            let gs = node.relay().gossipsub();
            delta.mcache_max = delta.mcache_max.max(gs.mcache_len() as u64);
            delta.own_published_max = delta.own_published_max.max(gs.own_published_len() as u64);
            delta.seen_max = delta.seen_max.max(gs.seen_len() as u64);
            let score = gs.peer_score();
            delta.score_table_max = delta.score_table_max.max(score.tracked_len() as u64);
            for peer in score.tracked_peers() {
                let s = score.score(peer);
                delta.score_min = delta.score_min.min(s);
                delta.score_max = delta.score_max.max(s);
            }
        }
        delta
    }

    /// A deterministic digest of everything the soak holds bounded plus
    /// the global progress counters. Two worlds that evolved through
    /// the same inputs produce byte-identical fingerprints — the
    /// checkpoint/restore contract is `fingerprint(live) ==
    /// fingerprint(restored)` after replaying the same segment.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        let metrics = self.tb.net.metrics();
        let _ = write!(
            out,
            "now={} events={} pending={} published={} failures={} drained={} \
             sent={} delivered={} bytes={} height={} chain_events={}",
            self.tb.net.now(),
            self.tb.net.events_dispatched(),
            self.tb.net.pending_events(),
            self.published,
            self.publish_failures,
            self.deliveries_drained,
            metrics.counter("messages_sent"),
            metrics.counter("messages_delivered"),
            metrics.counter("bytes_sent"),
            self.tb.chain.height(),
            self.tb.chain.events_since(0).0.len(),
        );
        for i in 0..self.tb.peer_count() {
            if !self.tb.is_live(i) {
                let _ = write!(out, "\n{i}: down");
                continue;
            }
            let node = self.tb.net.node(NodeId(i));
            let v = node.validator();
            let s = v.stats();
            let gs = node.relay().gossipsub();
            let _ = write!(
                out,
                "\n{i}: valid={} dup={} oow={} invalid={} spam={} malformed={} \
                 nmap={} cache={} mcache={} own={} seen={} scores={} mesh={}",
                s.valid,
                s.duplicates,
                s.epoch_out_of_window,
                s.invalid_proof,
                s.spam_detected,
                s.malformed,
                v.nullifier_map_bytes(),
                v.verdict_cache_len().unwrap_or(0),
                gs.mcache_len(),
                gs.own_published_len(),
                gs.seen_len(),
                gs.peer_score().tracked_len(),
                self.tb.mesh_size(i),
            );
        }
        out
    }

    /// Read access to the underlying testbed (assertions in tests).
    pub fn testbed(&self) -> &Testbed {
        &self.tb
    }
}

/// Snapshot of the cumulative counters at a segment boundary.
#[derive(Clone, Copy, Default)]
struct SoakCounters {
    published: u64,
    publish_failures: u64,
    deliveries: u64,
    events: u64,
}

impl SoakCounters {
    fn capture(world: &SoakWorld) -> SoakCounters {
        SoakCounters {
            published: world.published,
            publish_failures: world.publish_failures,
            deliveries: world.deliveries_drained,
            events: world.tb.net.events_dispatched(),
        }
    }
}

/// RNG domain tag for the soak traffic stream (distinct from the
/// testbed's and the scenario engine's streams).
const SOAK_RNG_TAG: u64 = 0x50a6_0a6b_ed00_0001;

/// Runs a soak to completion with default bounds, streaming each delta
/// to `on_delta`. Violated bounds and failed checkpoint replays are
/// collected into the outcome, not panicked on — callers decide
/// (tests assert `clean()`, `simctl soak` exits nonzero).
pub fn run_soak_with(config: &SoakConfig, mut on_delta: impl FnMut(&SoakDelta)) -> SoakOutcome {
    run_soak_bounded(config, &SoakBounds::default(), &mut on_delta)
}

/// [`run_soak_with`] with explicit bounds.
pub fn run_soak_bounded(
    config: &SoakConfig,
    bounds: &SoakBounds,
    on_delta: &mut dyn FnMut(&SoakDelta),
) -> SoakOutcome {
    let mut world = SoakWorld::new(config);
    let mut violations = Vec::new();
    let mut checkpoints_verified = 0u64;
    let segments = config.segments();
    for segment in 0..segments {
        let prev = SoakCounters::capture(&world);
        // checkpoint: deep-clone the world, advance the live copy, then
        // replay the same segment from the restored clone — the two
        // must land on byte-identical fingerprints
        let checkpoint = (config.checkpoint_every > 0 && segment % config.checkpoint_every == 0)
            .then(|| world.clone());
        world.run_segment(config.segment_ms);
        let mut verified = false;
        if let Some(mut restored) = checkpoint {
            restored.run_segment(config.segment_ms);
            let live = world.fingerprint();
            let replayed = restored.fingerprint();
            if live == replayed {
                checkpoints_verified += 1;
                verified = true;
            } else {
                violations.push(format!(
                    "segment {segment}: restored checkpoint diverged from live run"
                ));
            }
        }
        let delta = world.measure(segment, &prev, verified);
        violations.extend(delta.check(bounds));
        on_delta(&delta);
    }
    SoakOutcome {
        sim_ms: world.tb.net.now(),
        segments,
        published: world.published,
        deliveries: world.deliveries_drained,
        checkpoints_verified,
        violations,
        final_fingerprint: world.fingerprint(),
    }
}

/// [`run_soak_with`] without an observer.
pub fn run_soak(config: &SoakConfig) -> SoakOutcome {
    run_soak_with(config, |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SoakConfig {
        SoakConfig {
            nodes: 6,
            seed: 7,
            total_ms: 180_000,
            segment_ms: 60_000,
            checkpoint_every: 1,
            publish_interval_ms: 20_000,
            ..SoakConfig::default()
        }
    }

    /// `quick` without checkpoint replay (half the work) for tests that
    /// don't exercise restore.
    fn quick_unchecked() -> SoakConfig {
        SoakConfig {
            checkpoint_every: 0,
            ..quick()
        }
    }

    #[test]
    fn short_soak_is_clean_and_verifies_every_checkpoint() {
        let mut deltas = Vec::new();
        let outcome = run_soak_with(&quick(), |d| deltas.push(*d));
        assert!(outcome.clean(), "violations: {:?}", outcome.violations);
        assert_eq!(outcome.segments, 3);
        assert_eq!(outcome.checkpoints_verified, 3);
        assert_eq!(deltas.len(), 3);
        assert!(outcome.published > 0);
        assert!(outcome.deliveries > 0, "traffic must actually deliver");
        assert!(deltas.iter().all(|d| d.checkpoint_verified));
    }

    #[test]
    fn soak_runs_are_deterministic() {
        let a = run_soak(&quick_unchecked());
        let b = run_soak(&quick_unchecked());
        assert_eq!(a.final_fingerprint, b.final_fingerprint);
        assert_eq!(a.published, b.published);
        let different = SoakConfig {
            seed: 8,
            ..quick_unchecked()
        };
        let c = run_soak(&different);
        assert_ne!(a.final_fingerprint, c.final_fingerprint);
    }

    #[test]
    fn delta_json_lines_are_stable_and_parse_shaped() {
        let mut lines = Vec::new();
        run_soak_with(&quick_unchecked(), |d| lines.push(d.to_json_line()));
        for line in &lines {
            assert!(line.starts_with("{\"segment\":"));
            assert!(line.ends_with('}'));
            assert!(line.contains("\"nullifier_map_max_bytes\":"));
        }
    }

    #[test]
    fn bounds_check_reports_violations() {
        let tight = SoakBounds {
            seen: 1, // any delivered traffic trips this immediately
            ..SoakBounds::default()
        };
        let outcome = run_soak_bounded(&quick_unchecked(), &tight, &mut |_| {});
        assert!(!outcome.clean());
        assert!(outcome.violations.iter().any(|v| v.contains("seen")));
    }
}
