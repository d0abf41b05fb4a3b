//! The simulation workloads: a scenario spec built from the seed, run
//! through `wakurln_scenarios` several times, checked, and timed from
//! outside with the public `Progress` observer.

use crate::corpus::{Corpus, CorpusParams};
use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::probes::{self, Shape};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::{bench_for, finish_trace, peak_rss_mb, summary_json, Options, Outcome};
use std::time::{Duration, Instant};
use wakurln_crypto::poseidon;
use wakurln_crypto::sha256::{to_hex, Sha256};
use wakurln_netsim::NodeId;
use wakurln_scenarios::{
    builtin, run_scenario_detailed, run_scenario_with_progress, LatencySpec, ScenarioReport,
    ScenarioSpec, TopologySpec,
};

/// What a simulation workload must deliver to count as correct.
#[derive(Clone, Copy, Debug)]
pub struct Floors {
    /// Lowest acceptable `delivery_rate`.
    pub delivery: f64,
    /// Required `resilience_delivery_post_heal`, for workloads with faults.
    pub post_heal: Option<f64>,
}

/// Builds the scenario of a simulation workload, or `None` for a name
/// that is not one. Every workload runs the scheduler on one thread.
pub fn spec_for(workload: &str, smoke: bool, seed: u64) -> Option<(ScenarioSpec, Floors)> {
    let build = |name: &str, nodes: usize| builtin(name, nodes, seed).expect("a built-in scenario");
    let (mut spec, floors) = match workload {
        "mesh_10k" => (
            build("metropolis", if smoke { 200 } else { 10_000 }),
            Floors {
                delivery: 1.0,
                post_heal: None,
            },
        ),
        "publish_200" => (
            build("high_throughput", if smoke { 40 } else { 200 }),
            Floors {
                delivery: 0.99,
                post_heal: None,
            },
        ),
        "storm_1k" => {
            // the fault storm with the spam burst and the partition of two
            // other built-ins laid over it: every fault class in one run
            let nodes = if smoke { 200 } else { 1_000 };
            let mut spec = build("fault_storm", nodes);
            spec.spam = build("spam_burst", nodes).spam;
            spec.faults.partitions = build("partition_heal", nodes).faults.partitions;
            (
                spec,
                Floors {
                    delivery: 0.85,
                    post_heal: Some(1.0),
                },
            )
        }
        _ => return None,
    };
    spec.threads = 1;
    spec.validate();
    Some((spec, floors))
}

/// One lock-step slice of the timeline as the observer saw it.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    /// Simulated time at the start of the slice, milliseconds.
    pub from_sim_ms: u64,
    pub start: Instant,
    pub end: Instant,
    /// Events dispatched inside the slice.
    pub events: u64,
}

/// One run of the scenario, timed from outside.
pub struct Rep {
    pub started: Instant,
    pub finished: Instant,
    /// Engine call → first instant of the timeline.
    pub setup: Duration,
    pub slices: Vec<Slice>,
    pub events: u64,
    /// Exact Poseidon permutation counts before / after the timeline began.
    pub perms_setup: u64,
    pub perms_run: u64,
    pub report: ScenarioReport,
    pub json: String,
}

impl Rep {
    /// End of set-up → the engine returns (timeline + drain + distillation).
    pub fn run_s(&self) -> f64 {
        (self.finished - self.started - self.setup).as_secs_f64()
    }

    pub fn setup_s(&self) -> f64 {
        self.setup.as_secs_f64()
    }

    /// Last observer tick → the engine returns.
    pub fn distill_s(&self) -> f64 {
        let last = self.slices.last().map_or(self.started, |s| s.end);
        (self.finished - last).as_secs_f64()
    }

    pub fn timeline_s(&self) -> f64 {
        self.run_s() - self.distill_s()
    }

    pub fn report_sha256(&self) -> String {
        to_hex(&Sha256::digest(self.json.as_bytes()))
    }

    /// Proofs the run generated: every successful honest or spam publish.
    pub fn proofs(&self) -> u64 {
        let r = &self.report;
        r.honest_published + r.spam_attempted - r.spam_send_failures
    }

    /// Operations (publishes, honest and spam) the run attempted, and how
    /// many of them failed at the source.
    pub fn operations(&self) -> (u64, u64) {
        let r = &self.report;
        (
            r.honest_published + r.honest_publish_failures + r.spam_attempted,
            r.honest_publish_failures + r.spam_send_failures,
        )
    }

    /// Frames the validators judged, over all peers and classes.
    pub fn validations(&self) -> u64 {
        let r = &self.report;
        r.valid_total
            + r.invalid_proof_total
            + r.epoch_out_of_window_total
            + r.duplicates_total
            + r.malformed_total
            + r.spam_detections
    }
}

/// Runs the scenario once. The first observer tick carries the engine's
/// own wall clock since the timeline began, so set-up ends at that tick's
/// instant minus its `wall_ms`.
pub fn run_once(spec: &ScenarioSpec) -> Rep {
    let perms_before = poseidon::permutation_count();
    let mut perms_first_tick = None;
    let mut setup = None;
    let mut slices: Vec<Slice> = Vec::new();
    let mut events = 0u64;
    let mut sim_ms = 0u64;
    let started = Instant::now();
    let report = run_scenario_with_progress(spec, |p| {
        let now = Instant::now();
        let begin = match slices.last() {
            Some(prev) => prev.end,
            None => {
                perms_first_tick = Some(poseidon::permutation_count());
                let timeline_start = now - Duration::from_millis(p.wall_ms);
                setup = Some(timeline_start - started);
                timeline_start
            }
        };
        slices.push(Slice {
            from_sim_ms: sim_ms,
            start: begin,
            end: now,
            events: p.events_dispatched - events,
        });
        events = p.events_dispatched;
        sim_ms = p.sim_ms;
    });
    let finished = Instant::now();
    let perms_after = poseidon::permutation_count();
    let perms_first_tick = perms_first_tick.expect("a scenario has at least one slice");
    let json = report.to_json();
    Rep {
        started,
        finished,
        setup: setup.expect("a scenario has at least one slice"),
        slices,
        events,
        perms_setup: perms_first_tick - perms_before,
        perms_run: perms_after - perms_first_tick,
        report,
        json,
    }
}

/// Whether the engine published (honest round or spam burst) at simulated
/// time `at_ms`; the proofs of that publish are paid inside the slice that
/// starts there.
pub fn publishes_at(spec: &ScenarioSpec, at_ms: u64) -> bool {
    let t = spec.traffic;
    let round = (0..t.rounds as u64).any(|r| t.start_ms + r * t.interval_ms == at_ms);
    round || spec.spam.is_some_and(|s| s.at_ms == at_ms)
}

/// Records the spans of one repetition under `parent`:
/// `scenarios.setup`, `scenarios.timeline` with one `scenarios.slice` per
/// slice, and `scenarios.distill`.
pub fn record_spans(tracer: &mut Tracer, parent: SpanId, rep: &Rep) {
    let timeline_start = rep.started + rep.setup;
    tracer.record(
        "scenarios.setup",
        Some(parent),
        rep.started,
        timeline_start,
        rep.report.peers_initial,
    );
    let timeline_end = rep.slices.last().map_or(timeline_start, |s| s.end);
    let timeline = tracer.open("scenarios.timeline", Some(parent), timeline_start);
    for slice in &rep.slices {
        tracer.record(
            "scenarios.slice",
            Some(timeline),
            slice.start,
            slice.end,
            slice.events,
        );
    }
    tracer.close(timeline, timeline_end, rep.events);
    tracer.record(
        "scenarios.distill",
        Some(parent),
        timeline_end,
        rep.finished,
        1,
    );
}

/// `simctl`'s steady-state rule for events left queued at the hard stop:
/// every live peer keeps its heartbeat timer (and its flush timer with the
/// pipeline on) armed forever, plus headroom for timers in flight.
pub fn drain_allowance(spec: &ScenarioSpec, report: &ScenarioReport) -> u64 {
    let timers = if spec.pipeline.is_some() { 2 } else { 1 };
    report.peers_final_live * timers + report.peers_final_live / 10 + 16
}

/// The correctness gate on one report. Returns every failed check by name.
pub fn check_report(spec: &ScenarioSpec, floors: &Floors, report: &ScenarioReport) -> Vec<String> {
    let mut failures = Vec::new();
    if report.honest_publish_failures > 0 {
        failures.push(format!(
            "honest_publish_failures = {}",
            report.honest_publish_failures
        ));
    }
    if report.delivery_rate < floors.delivery {
        failures.push(format!(
            "delivery_rate {} below the floor {}",
            report.delivery_rate, floors.delivery
        ));
    }
    if let Some(floor) = floors.post_heal {
        match report.resilience_delivery_post_heal {
            Some(rate) if rate >= floor => {}
            other => failures.push(format!(
                "resilience_delivery_post_heal {other:?} below the floor {floor}"
            )),
        }
    }
    if report.spammers_slashed != report.spammers {
        failures.push(format!(
            "spammers_slashed {} of {}",
            report.spammers_slashed, report.spammers
        ));
    }
    let allowance = drain_allowance(spec, report);
    if !report.drain_quiescent && report.drain_pending_events > allowance {
        failures.push(format!(
            "drain_pending_events {} above the steady-state allowance {allowance}",
            report.drain_pending_events
        ));
    }
    if report.propagation_p99_ms.is_none() {
        failures.push("no honest message was delivered".to_string());
    }
    failures
}

fn shape_of(spec: &ScenarioSpec) -> Shape {
    Shape {
        depth: spec.effective_tree_depth(),
        peers: spec.initial_peers(),
        degree: match spec.topology {
            TopologySpec::RandomRegular { degree } => degree,
            _ => 6,
        },
        latency_ms: match spec.latency {
            LatencySpec::Constant { ms } => (ms, ms),
            LatencySpec::Uniform { min_ms, max_ms } => (min_ms, max_ms),
        },
        publishers: spec.traffic.publishers,
        round_interval_ms: spec.traffic.interval_ms,
        seed: spec.seed,
    }
}

/// The untraced run: repetitions until `--seconds` are spent (at least
/// three), every check, the end-to-end metrics.
pub fn end_to_end(spec: &ScenarioSpec, floors: &Floors, o: &Options) -> Outcome {
    let budget = Duration::from_secs(o.seconds);
    let min_reps = if o.smoke { 1 } else { 3 };
    let clock = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || (!o.smoke && clock.elapsed() < budget) {
        reps.push(run_once(spec));
    }
    let first = &reps[0];
    let r = &first.report;

    let mut failures = check_report(spec, floors, r);
    if let Some(i) = reps.iter().position(|rep| rep.json != first.json) {
        failures.push(format!(
            "repetition {i} produced different report bytes than repetition 0"
        ));
    }
    let (attempted, failed) = first.operations();

    let setup: Vec<f64> = reps.iter().map(Rep::setup_s).collect();
    let run: Vec<f64> = reps.iter().map(Rep::run_s).collect();
    let run_s = stats::fastest(&run);
    let peers_ever = (r.peers_initial + r.peers_joined) as f64;
    let mut m = MetricSet::new(END_TO_END);
    m.set("setup_s", stats::fastest(&setup));
    m.set("run_s", run_s);
    m.set("ops_per_s", first.events as f64 / run_s);
    m.set("peak_rss_mb", peak_rss_mb());
    m.set(
        "wire_bytes_per_delivery",
        r.bytes_sent as f64 / r.valid_total.max(1) as f64,
    );
    m.set(
        "device_frames_per_s",
        first.validations() as f64 * 1e6 / (r.cpu_micros_mean_per_node * peers_ever),
    );
    Outcome {
        attempted: attempted * reps.len() as u64,
        failed: failed * reps.len() as u64,
        failures,
        metrics: m,
        detail: vec![
            format!("\"report_sha256\": \"{}\"", first.report_sha256()),
            format!("\"setup_s\": {}", summary_json(&setup)),
            format!("\"run_s\": {}", summary_json(&run)),
            format!("\"events\": {}", first.events),
            format!("\"proofs\": {}", first.proofs()),
            format!("\"validations\": {}", first.validations()),
            format!("\"delivery_rate\": {}", r.delivery_rate),
            format!(
                "\"prop_p50_sim_ms\": {}, \"prop_p99_sim_ms\": {}",
                r.propagation_p50_ms.unwrap_or(0.0),
                r.propagation_p99_ms.unwrap_or(0.0)
            ),
            format!(
                "\"device_cpu_ms_per_node\": {}",
                r.cpu_micros_mean_per_node / 1e3
            ),
            format!("\"crypto.poseidon_perms_run\": {}", first.perms_run),
        ],
    }
}

/// The traced run: the scenario untraced and traced, the probes at its
/// shape, the per-layer metrics and the span file.
pub fn per_layer(spec: &ScenarioSpec, floors: &Floors, o: &Options) -> Outcome {
    let mut tracer = Tracer::new(format!("{}-{}", o.workload, o.seed));
    let root = tracer.open("workload", None, Instant::now());
    let mut m = MetricSet::new(PER_LAYER);
    let mut detail = Vec::new();

    // the untraced reference: no observer at all, and the finished testbed
    // for the counters the report does not carry
    let t0 = Instant::now();
    let (report, testbed) = run_scenario_detailed(spec);
    let t1 = Instant::now();
    let timings = testbed.phase_timings();
    let counters = testbed.net.metrics();
    let counter = |key: &str| counters.counter(key) as f64;
    let events = testbed.net.events_dispatched();
    let mut proofs_verified = 0u64;
    let mut resolved_without_proof = 0u64;
    let mut submitted = 0u64;
    for i in 0..testbed.peer_count() {
        if let Some(ps) = testbed.net.node(NodeId(i)).validator().pipeline_stats() {
            proofs_verified += ps.proofs_verified;
            resolved_without_proof += ps.cache_hits + ps.batch_dedup_hits + ps.root_window_skips;
            submitted += ps.submitted;
        }
    }
    m.set("core.dispatch_s", timings.dispatch_ns as f64 / 1e9);
    m.set(
        "core.registration_sync_s",
        timings.registration_sync_ns as f64 / 1e9,
    );
    m.set("core.drain_s", timings.drain_ns as f64 / 1e9);
    m.set("core.pipeline_proofs_verified", proofs_verified as f64);
    m.set(
        "core.pipeline_resolved_without_proof_ratio",
        resolved_without_proof as f64 / submitted.max(1) as f64,
    );
    m.set(
        "core.nullifier_map_max_bytes",
        report.nullifier_map_max_bytes as f64,
    );
    m.set("gossipsub.iwant_sent", counter("iwant_sent"));
    m.set("gossipsub.rejected", counter("rejected"));
    m.set(
        "gossipsub.msgs_per_delivery",
        counter("messages_sent") / counter("delivered_app").max(1.0),
    );
    m.set("netsim.events_dispatched", events as f64);
    m.set(
        "netsim.events_per_s",
        events as f64 / (timings.dispatch_ns as f64 / 1e9),
    );
    m.set("netsim.messages_sent", counter("messages_sent"));
    m.set("netsim.bytes_sent", counter("bytes_sent"));
    m.set(
        "netsim.messages_dropped",
        counter("messages_lost")
            + counter("messages_lost_partition")
            + counter("messages_lost_degraded")
            + counter("messages_to_removed_peer"),
    );
    m.set("netsim.pending_at_end", testbed.net.pending_events() as f64);
    let gossip_duplicates = counter("duplicates");
    let dropping = Instant::now();
    drop(testbed);
    let untraced_s = (t1 - t0 + dropping.elapsed()).as_secs_f64();
    tracer.record("scenarios.untraced_run", Some(root), t0, t1, events);

    // the traced run: the same scenario once more, every slice a span
    let rep = run_once(spec);
    record_spans(&mut tracer, root, &rep);
    let traced_s = (rep.finished - rep.started).as_secs_f64();
    let mut failures = check_report(spec, floors, &rep.report);
    if report.to_json() != rep.json {
        failures.push("the traced run produced different report bytes than the untraced".into());
    }
    let validations = rep.validations();
    m.set("trace_overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);
    m.set("scenarios.setup_s", rep.setup_s());
    m.set("scenarios.timeline_s", rep.timeline_s());
    m.set("scenarios.distill_s", rep.distill_s());
    let (publish, idle): (Vec<&Slice>, Vec<&Slice>) = rep
        .slices
        .iter()
        .partition(|s| publishes_at(spec, s.from_sim_ms));
    let wall = |slices: &[&Slice]| -> Vec<f64> {
        slices
            .iter()
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    };
    m.set("scenarios.traffic_slice_s", stats::median(&wall(&publish)));
    m.set("scenarios.idle_slice_s", stats::median(&wall(&idle)));
    let r = &rep.report;
    m.set("scenarios.delivery_rate", r.delivery_rate);
    m.set(
        "scenarios.prop_p50_sim_ms",
        r.propagation_p50_ms.unwrap_or(0.0),
    );
    m.set(
        "scenarios.prop_p99_sim_ms",
        r.propagation_p99_ms.unwrap_or(0.0),
    );
    m.set(
        "scenarios.device_cpu_ms_per_node",
        r.cpu_micros_mean_per_node / 1e3,
    );
    m.set("core.validations", validations as f64);
    m.set(
        "gossipsub.duplicate_ratio",
        gossip_duplicates / (gossip_duplicates + validations as f64),
    );
    m.set("crypto.poseidon_perms_setup", rep.perms_setup as f64);
    m.set("crypto.poseidon_perms_run", rep.perms_run as f64);

    // unit costs at this workload's depth, peer count and frame size
    let shape = shape_of(spec);
    let fixture = Corpus::generate(
        CorpusParams {
            depth: shape.depth,
            members: if o.smoke { 3 } else { 6 },
            epochs: 6,
            spammers: 1,
            spam_signals: 2,
            fan_in: 6,
        },
        o.seed,
    );
    let frame_bytes = fixture.frames.iter().map(|f| f.bytes.len()).max().unwrap();
    let mut bench = bench_for(&mut tracer, root, o);
    detail.extend(probes::frame_probes(&mut bench, &fixture, &mut m));
    probes::membership_probes(&mut bench, shape.depth, shape.peers, &mut m);
    let sync_at_build = probes::testbed_build_probe(&mut bench, &shape, &mut m);
    probes::network_probes(&mut bench, &shape, frame_bytes, &mut m);
    let json = &rep.json;
    let report_json = bench.per_op("scenarios.report_json", 16, || {
        let parsed = ScenarioReport::from_json(std::hint::black_box(json));
        std::hint::black_box(parsed.expect("own output parses").to_json());
    });
    m.set("scenarios.report_json_us", report_json * 1e6);

    // how much of run_s the layer estimates explain
    let sync_in_timeline = (m.get("core.registration_sync_s") - sync_at_build).max(0.0);
    let proving = rep.proofs() as f64 * m.get("rln.create_signal_ms_p50") / 1e3;
    let network = rep.events as f64
        * (m.get("netsim.bare_ns_per_event") + m.get("gossipsub.ns_per_event"))
        / 1e9;
    let validating = validations as f64 * m.get("core.validate_us_p50") / 1e6;
    let attributed = proving + network + validating + sync_in_timeline + rep.distill_s();
    let non_dispatch = rep.timeline_s() - m.get("core.dispatch_s") - sync_in_timeline;
    m.set("core.non_dispatch_s", non_dispatch.max(0.0));
    m.set("scenarios.attributed_share", attributed / rep.run_s());
    detail.extend([
        format!("\"report_sha256\": \"{}\"", rep.report_sha256()),
        format!("\"run_s\": {}", rep.run_s()),
        format!("\"untraced_wall_s\": {}", untraced_s),
        format!("\"traced_wall_s\": {}", traced_s),
        format!("\"estimate_proving_s\": {}", proving),
        format!("\"estimate_network_s\": {}", network),
        format!("\"estimate_validating_s\": {}", validating),
        format!("\"estimate_sync_s\": {}", sync_in_timeline),
        format!("\"proofs\": {}", rep.proofs()),
    ]);

    finish_trace(tracer, root, o, &mut failures);
    let (attempted, failed) = rep.operations();
    Outcome {
        attempted: 2 * attempted,
        failed: 2 * failed,
        failures,
        metrics: m,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_resolve_single_threaded_and_storm_layers_its_faults() {
        for name in ["mesh_10k", "publish_200", "storm_1k"] {
            let (spec, _) = spec_for(name, true, 3).expect("a simulation workload");
            assert_eq!(spec.threads, 1, "{name}");
            assert_eq!(spec.seed, 3);
        }
        assert!(spec_for("relay_serial", true, 3).is_none());
        let (storm, floors) = spec_for("storm_1k", false, 3).unwrap();
        assert_eq!(storm.honest, 1_000);
        assert_eq!(storm.spam.unwrap().spammers, 10);
        assert_eq!(storm.faults.partitions.len(), 1);
        assert_eq!(storm.faults.restarts.len(), 2);
        assert_eq!(floors.post_heal, Some(1.0));
        let (publish, _) = spec_for("publish_200", false, 3).unwrap();
        assert!(publish.pipeline.is_some());
        let (mesh, _) = spec_for("mesh_10k", false, 3).unwrap();
        assert_eq!(mesh.effective_tree_depth(), 15);
    }

    #[test]
    fn a_rep_splits_into_setup_timeline_and_distill() {
        let (spec, floors) = spec_for("mesh_10k", true, 4).unwrap();
        let rep = run_once(&spec);
        assert_eq!(
            check_report(&spec, &floors, &rep.report),
            Vec::<String>::new()
        );
        let total = (rep.finished - rep.started).as_secs_f64();
        let parts = rep.setup_s() + rep.timeline_s() + rep.distill_s();
        assert!((total - parts).abs() < 1e-9);
        assert_eq!(
            rep.slices.len() as u64,
            spec.duration_ms().div_ceil(spec.slice_ms)
        );
        assert_eq!(rep.slices.iter().map(|s| s.events).sum::<u64>(), rep.events);
        assert!(rep.perms_setup > 0 && rep.perms_run > 0);
        assert_eq!(rep.proofs(), 4);
        // the slice that starts at the first traffic round is a publish slice
        assert!(publishes_at(&spec, spec.traffic.start_ms));
        assert!(!publishes_at(&spec, spec.traffic.start_ms + 1_000));

        let mut tracer = Tracer::new("t".to_string());
        let root = tracer.open("workload", None, rep.started);
        record_spans(&mut tracer, root, &rep);
        tracer.close(root, rep.finished, 1);
        let spans = tracer.total_s("scenarios.setup")
            + tracer.total_s("scenarios.timeline")
            + tracer.total_s("scenarios.distill");
        assert!((spans - tracer.total_s("workload")).abs() / total < 0.02);
    }
}
