//! The simulated-days soak harness: long-horizon leak detection via
//! engine checkpoint/restore and streaming report deltas.
//!
//! Scenario runs measure protocol behaviour over minutes of simulated
//! time; a soak instead drives a scenario for simulated *days* and
//! asserts that every piece of per-node state the paper requires to be
//! windowed actually stays bounded over horizons ≥ 100× longer than any
//! scenario: the RLN nullifier map (§III epoch-window GC), the
//! pipeline's proof-verdict cache and deferred verdicts, the gossipsub
//! message table (its `mcache`, `seen` and `own_published` entries), and
//! the peer-score table.
//!
//! The soak owns no world and no traffic: its [`SoakConfig::spec`] runs
//! through the scenario engine, so a soak carries whatever traffic,
//! faults, spam and churn the spec schedules ([`SoakConfig::steady`]
//! builds the plain steady-traffic one). Two design points keep
//! day-scale runs honest:
//!
//! * **Streaming deltas.** The run is cut into segments; after each one
//!   the harness emits a [`SoakDelta`] — per-segment counters plus the
//!   *current* size of every bounded structure — and drains the
//!   delivery tapes, so no per-node tape grows with the run. Deltas are
//!   checked against [`SoakBounds`] as they stream.
//!
//! * **Checkpoint/restore.** Every `checkpoint_every` segments the run
//!   is checkpointed by deep `Clone` (the testbed's whole state plus the
//!   engine's timeline cursor and draw stream), the live run advances one
//!   segment, and the restored checkpoint replays the same segment. The
//!   two must reach byte-identical fingerprints — the determinism
//!   contract that makes long runs resumable and failures replayable
//!   from the nearest checkpoint.
//!
//! The `simctl soak` subcommand drives this from the command line
//! (`--sim-hours`, `--checkpoint-every`); the module tests and the CI
//! soak steps pin the invariants.

use crate::engine::ScenarioRun;
use crate::spec::{ScenarioSpec, TrafficSpec};
use std::fmt::Write as _;
use waku_rln_relay::{PipelineConfig, RlnRelayNode, Testbed};
use wakurln_netsim::NodeId;

/// Configuration for one soak run.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// The scenario to soak. Its timeline drives the run, and its
    /// duration is the horizon (the tail shorter than a segment is
    /// dropped).
    pub spec: ScenarioSpec,
    /// Streaming-report segment length, milliseconds. Deltas, bounds
    /// checks and delivery-tape drains happen at segment boundaries.
    pub segment_ms: u64,
    /// Checkpoint/restore cadence in segments (`0` disables the
    /// byte-identity replay check).
    pub checkpoint_every: u64,
}

impl SoakConfig {
    /// The steady-traffic soak: `nodes` honest peers on the default
    /// latency and bootstrap degree, a depth-12 tree and the batched
    /// validation pipeline on (so the verdict cache is exercised), with
    /// 2 publishers every 120 s from t = 10 s until `total_ms`. One-hour
    /// segments, a checkpoint every 4.
    pub fn steady(nodes: usize, seed: u64, total_ms: u64) -> SoakConfig {
        let mut spec = ScenarioSpec::baseline(nodes, seed);
        spec.name = "soak".to_string();
        spec.tree_depth = 12;
        spec.pipeline = Some(PipelineConfig::default());
        let (start_ms, interval_ms) = (10_000, 120_000);
        let rounds = total_ms.saturating_sub(start_ms).div_ceil(interval_ms);
        spec.traffic = TrafficSpec {
            publishers: 2,
            rounds: rounds as usize,
            start_ms,
            interval_ms,
        };
        // the drain runs the horizon out past the last publish tick
        let last_tick = start_ms + interval_ms * rounds.saturating_sub(1);
        spec.drain_ms = total_ms.saturating_sub(last_tick);
        SoakConfig {
            spec,
            segment_ms: 3_600_000,
            checkpoint_every: 4,
        }
    }

    /// Number of whole segments the run covers (bounds are only ever
    /// checked at segment boundaries).
    pub fn segments(&self) -> u64 {
        self.spec.duration_ms() / self.segment_ms
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
    /// Messages awaiting a deferred pipeline verdict per node.
    pub pending_validation: u64,
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
            pending_validation: 256,
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
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SoakDelta {
    /// Segment index, starting at 0.
    pub segment: u64,
    /// Simulated time at the end of the segment, milliseconds.
    pub sim_ms: u64,
    /// Honest publishes attempted during the segment.
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
    /// Max live-node deferred-verdict entries (0 when the pipeline is
    /// off).
    pub pending_validation_max: u64,
    /// Max live-node `mcache` entries.
    pub mcache_max: u64,
    /// Max live-node `own_published` entries.
    pub own_published_max: u64,
    /// Max live-node `seen` entries.
    pub seen_max: u64,
    /// Max live-node peer-score-table entries.
    pub score_table_max: u64,
    /// Lowest peer score held by any live node about any tracked peer
    /// (0 when no live node tracks a peer).
    pub score_min: f64,
    /// Highest peer score held by any live node about any tracked peer
    /// (0 when no live node tracks a peer).
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
             \"verdict_cache_max\":{},\"pending_validation_max\":{},\"mcache_max\":{},\
             \"own_published_max\":{},\"seen_max\":{},\"score_table_max\":{},\
             \"score_min\":{:?},\"score_max\":{:?},\"checkpoint_verified\":{}}}",
            self.segment,
            self.sim_ms,
            self.published,
            self.publish_failures,
            self.deliveries,
            self.events,
            self.nullifier_map_max_bytes,
            self.verdict_cache_max,
            self.pending_validation_max,
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
        check(
            "pending_validation",
            self.pending_validation_max,
            bounds.pending_validation,
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
    /// Segments completed (each `segment_ms` of simulated time).
    pub segments: u64,
    /// Total honest publishes attempted.
    pub published: u64,
    /// Total application-level deliveries drained.
    pub deliveries: u64,
    /// Merkle resyncs retried because the contract was unreachable.
    pub resync_retries: u64,
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

/// Runs a soak to completion, streaming each delta to `on_delta`.
/// Violated bounds and failed checkpoint replays are collected into the
/// outcome, not panicked on — callers decide (tests assert `clean()`,
/// `simctl soak` exits nonzero).
///
/// # Panics
///
/// Panics when `segment_ms` is zero or the spec is inconsistent (see
/// [`ScenarioSpec::validate`]).
pub fn run_soak(
    config: &SoakConfig,
    bounds: &SoakBounds,
    on_delta: &mut dyn FnMut(&SoakDelta),
) -> SoakOutcome {
    assert!(config.segment_ms > 0, "segment must be positive");
    let mut run = ScenarioRun::new(&config.spec);
    let mut violations = Vec::new();
    let mut checkpoints_verified = 0u64;
    let mut deliveries = 0u64;
    let segments = config.segments();
    for segment in 0..segments {
        let (published, failures) = run.publish_attempts();
        let events = run.testbed().net.events_dispatched();
        // checkpoint: deep-clone the run, advance the live copy, then
        // replay the same segment from the restored clone — the two
        // must land on byte-identical fingerprints
        let checkpoint = (config.checkpoint_every > 0 && segment % config.checkpoint_every == 0)
            .then(|| run.clone());
        let end_ms = (segment + 1) * config.segment_ms;
        let drained = advance_segment(&mut run, end_ms);
        deliveries += drained;
        let mut verified = false;
        if let Some(mut restored) = checkpoint {
            advance_segment(&mut restored, end_ms);
            if fingerprint(run.testbed()) == fingerprint(restored.testbed()) {
                checkpoints_verified += 1;
                verified = true;
            } else {
                violations.push(format!(
                    "segment {segment}: restored checkpoint diverged from live run"
                ));
            }
        }
        let (published_now, failures_now) = run.publish_attempts();
        let delta = SoakDelta {
            published: published_now - published,
            publish_failures: failures_now - failures,
            deliveries: drained,
            events: run.testbed().net.events_dispatched() - events,
            ..measure(run.testbed(), segment, verified)
        };
        violations.extend(delta.check(bounds));
        on_delta(&delta);
    }
    SoakOutcome {
        segments,
        published: run.publish_attempts().0,
        deliveries,
        resync_retries: run.testbed().net.metrics().counter("resync_retries"),
        checkpoints_verified,
        violations,
        final_fingerprint: fingerprint(run.testbed()),
    }
}

/// Advances the run to `end_ms`, then drains the per-node delivery tapes
/// so day-long runs do not accumulate a delivery log. Returns how many
/// deliveries were drained.
fn advance_segment(run: &mut ScenarioRun, end_ms: u64) -> u64 {
    run.advance_to(end_ms, &mut |_| {});
    let tb = run.testbed_mut();
    let mut drained = 0;
    for i in 0..tb.peer_count() {
        let gossipsub = tb.net.node_mut(NodeId(i)).gossipsub_mut();
        drained += gossipsub.take_delivered().len() as u64;
    }
    drained
}

/// The current size of every bounded structure (maximum over live
/// nodes) and the peer-score range, as a delta whose per-segment
/// counters are left at zero.
fn measure(tb: &Testbed, segment: u64, checkpoint_verified: bool) -> SoakDelta {
    let live: Vec<&RlnRelayNode> = (0..tb.peer_count())
        .filter(|i| tb.is_live(*i))
        .map(|i| tb.net.node(NodeId(i)))
        .collect();
    let max =
        |size: fn(&RlnRelayNode) -> usize| live.iter().map(|n| size(n) as u64).max().unwrap_or(0);
    let mut scores = Vec::new();
    for node in &live {
        let score = node.gossipsub().peer_score();
        scores.extend(score.tracked_peers().map(|peer| score.score(peer)));
    }
    // folded from the first tracked score; 0 only when nobody tracks a peer
    let range = |pick: fn(f64, f64) -> f64| scores.iter().copied().reduce(pick).unwrap_or(0.0);
    SoakDelta {
        segment,
        sim_ms: tb.net.now(),
        nullifier_map_max_bytes: max(|n| n.validator().nullifier_map_bytes()),
        verdict_cache_max: max(|n| n.validator().verdict_cache_len().unwrap_or(0)),
        pending_validation_max: max(|n| n.gossipsub().pending_validation_len()),
        mcache_max: max(|n| n.gossipsub().mcache_len()),
        own_published_max: max(|n| n.gossipsub().own_published_len()),
        seen_max: max(|n| n.gossipsub().seen_len()),
        score_table_max: max(|n| n.gossipsub().peer_score().tracked_len()),
        score_min: range(f64::min),
        score_max: range(f64::max),
        checkpoint_verified,
        ..SoakDelta::default()
    }
}

/// A deterministic digest of everything the soak holds bounded, each
/// live peer's membership state (light-view root, membership, validator
/// root) and the global progress counters. Two runs that evolved through the same
/// inputs produce byte-identical fingerprints — the checkpoint/restore
/// contract is `fingerprint(live) == fingerprint(restored)` after
/// replaying the same segment.
fn fingerprint(tb: &Testbed) -> String {
    let mut out = String::new();
    let metrics = tb.net.metrics();
    let _ = write!(
        out,
        "now={} events={} pending={} published={} delivered_app={} \
         sent={} delivered={} bytes={} height={} chain_events={}",
        tb.net.now(),
        tb.net.events_dispatched(),
        tb.net.pending_events(),
        metrics.counter("rln_published"),
        metrics.counter("delivered_app"),
        metrics.counter("messages_sent"),
        metrics.counter("messages_delivered"),
        metrics.counter("bytes_sent"),
        tb.chain.height(),
        tb.chain.events_since(0).0.len(),
    );
    for i in 0..tb.peer_count() {
        if !tb.is_live(i) {
            let _ = write!(out, "\n{i}: down");
            continue;
        }
        let node = tb.net.node(NodeId(i));
        let v = node.validator();
        let gs = node.gossipsub();
        let _ = write!(
            out,
            "\n{i}: {:?} nmap={} cache={} pending={} mcache={} own={} seen={} scores={} mesh={} \
             root={:?} member={} validator_root={:?}",
            v.stats(),
            v.nullifier_map_bytes(),
            v.verdict_cache_len().unwrap_or(0),
            gs.pending_validation_len(),
            gs.mcache_len(),
            gs.own_published_len(),
            gs.seen_len(),
            gs.peer_score().tracked_len(),
            tb.mesh_size(i),
            node.membership_root(),
            node.is_member(),
            v.current_root(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three one-minute segments, a checkpoint at every one, and a
    /// publish tick every 20 s (10 s, 30 s, …, 170 s) so every segment
    /// replays live traffic.
    fn quick() -> SoakConfig {
        let mut config = SoakConfig {
            segment_ms: 60_000,
            checkpoint_every: 1,
            ..SoakConfig::steady(6, 7, 180_000)
        };
        config.spec.traffic.interval_ms = 20_000;
        config.spec.traffic.rounds = 9;
        config.spec.drain_ms = 10_000;
        assert_eq!(config.spec.duration_ms(), 180_000);
        config
    }

    /// `quick` without checkpoint replay (half the work) for tests that
    /// don't exercise restore.
    fn quick_unchecked() -> SoakConfig {
        SoakConfig {
            checkpoint_every: 0,
            ..quick()
        }
    }

    fn collect(config: &SoakConfig) -> (SoakOutcome, Vec<SoakDelta>) {
        let mut deltas = Vec::new();
        let outcome = run_soak(config, &SoakBounds::default(), &mut |d| deltas.push(*d));
        (outcome, deltas)
    }

    #[test]
    fn steady_spec_spans_exactly_the_horizon() {
        let config = SoakConfig::steady(8, 1, 24 * 3_600_000);
        assert_eq!(config.spec.duration_ms(), 24 * 3_600_000);
        assert_eq!(config.segments(), 24);
        // ticks at 10 s, 130 s, …: the last one falls inside the horizon
        let t = config.spec.traffic;
        assert!(t.start_ms + t.interval_ms * (t.rounds as u64 - 1) < 24 * 3_600_000);
        assert!(t.start_ms + t.interval_ms * t.rounds as u64 >= 24 * 3_600_000);
        config.spec.validate();
    }

    #[test]
    fn short_soak_is_clean_and_verifies_every_checkpoint() {
        let (outcome, deltas) = collect(&quick());
        assert!(outcome.clean(), "violations: {:?}", outcome.violations);
        assert_eq!(outcome.segments, 3);
        assert_eq!(outcome.checkpoints_verified, 3);
        assert_eq!(deltas.len(), 3);
        assert!(outcome.published > 0);
        assert!(outcome.deliveries > 0, "traffic must actually deliver");
        assert!(deltas.iter().all(|d| d.checkpoint_verified));
        assert!(deltas.iter().all(|d| d.published > 0));
    }

    #[test]
    fn soak_runs_are_deterministic() {
        let a = collect(&quick_unchecked()).0;
        let b = collect(&quick_unchecked()).0;
        assert_eq!(a.final_fingerprint, b.final_fingerprint);
        assert_eq!(a.published, b.published);
        let mut different = quick_unchecked();
        different.spec.seed = 8;
        let c = collect(&different).0;
        assert_ne!(a.final_fingerprint, c.final_fingerprint);
    }

    #[test]
    fn delta_json_lines_are_stable_and_parse_shaped() {
        let (_, deltas) = collect(&quick_unchecked());
        for line in deltas.iter().map(SoakDelta::to_json_line) {
            assert!(line.starts_with("{\"segment\":"));
            assert!(line.ends_with('}'));
            assert!(line.contains("\"nullifier_map_max_bytes\":"));
            assert!(line.contains("\"pending_validation_max\":"));
        }
    }

    /// Every peer of a six-node mesh sits in every other's mesh from the
    /// first heartbeats on, so every tracked score is positive: the range
    /// is folded from the scores themselves, not from zero.
    #[test]
    fn score_range_is_folded_from_the_tracked_scores() {
        let (_, deltas) = collect(&quick_unchecked());
        for d in &deltas {
            assert!(
                d.score_min > 0.0,
                "segment {}: min {}",
                d.segment,
                d.score_min
            );
            assert!(d.score_min <= d.score_max);
        }
    }

    #[test]
    fn bounds_check_reports_violations() {
        let tight = SoakBounds {
            seen: 1, // any delivered traffic trips this immediately
            ..SoakBounds::default()
        };
        let outcome = run_soak(&quick_unchecked(), &tight, &mut |_| {});
        assert!(!outcome.clean());
        assert!(outcome.violations.iter().any(|v| v.contains("seen")));
    }
}
