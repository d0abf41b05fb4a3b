//! Driving one relay's validation layer over a frame corpus.
//!
//! Two paths over the same frames: the serial §III validator
//! (`Validator::validate` per frame) and the batched pipeline (`submit`,
//! then `flush` when the batch is full or the periodic flush timer fires,
//! exactly as the gossipsub node drives it). A pass is a closed loop with
//! one client on one thread: the next frame is handed over when the
//! previous call returns.

use crate::corpus::{Corpus, CorpusParams, Label};
use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats;
use crate::trace::Tracer;
use crate::{bench_for, finish_trace, peak_rss_mb, summary_json, Options, Outcome};
use std::hint::black_box;
use std::time::{Duration, Instant};
use waku_rln_relay::{PipelineConfig, PipelineStats, ValidationStats};
use wakurln_gossipsub::{SubmitOutcome, Topic, ValidationResult, Validator};

/// Which validation path a pass takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    Serial,
    Pipelined(PipelineConfig),
}

/// Everything one pass produced.
pub struct Pass {
    pub elapsed: Duration,
    /// Verdict per frame, in corpus order.
    pub verdicts: Vec<ValidationResult>,
    /// Modelled device CPU per frame, microseconds (the §IV cost model).
    pub cost_micros: Vec<u64>,
    /// Simulated time each verdict was released at, milliseconds.
    pub decided_at_ms: Vec<u64>,
    pub stats: ValidationStats,
    pub pipeline: Option<PipelineStats>,
    pub detections: usize,
    /// Largest nullifier map seen, bytes (inspected passes only).
    pub nullifier_map_max_bytes: usize,
    /// Wall time of each non-empty flush divided by the frames it decided,
    /// microseconds (inspected passes only).
    pub flush_us_per_frame: Vec<f64>,
}

impl Pass {
    /// Total modelled device CPU of the pass, microseconds.
    pub fn cost_total_micros(&self) -> u64 {
        self.cost_micros.iter().sum()
    }

    /// Per frame: simulated milliseconds from arrival to verdict, i.e. the
    /// time the frame waited in the batch plus the modelled CPU of its
    /// decision.
    pub fn verdict_delay_ms(&self, corpus: &Corpus) -> Vec<f64> {
        corpus
            .frames
            .iter()
            .zip(self.decided_at_ms.iter().zip(&self.cost_micros))
            .map(|(f, (at, cost))| (at - f.at_ms) as f64 + *cost as f64 / 1000.0)
            .collect()
    }
}

/// Runs one pass over a fresh clone of the corpus validator. `inspect`
/// additionally samples the nullifier-map size and times each flush; leave
/// it off for passes whose `elapsed` is reported.
pub fn pass(corpus: &Corpus, path: Path, inspect: bool) -> Pass {
    let topic = Topic::new("relay");
    let n = corpus.frames.len();
    let mut validator = corpus.validator.clone();
    let mut out = Pass {
        elapsed: Duration::ZERO,
        verdicts: vec![ValidationResult::Ignore; n],
        cost_micros: vec![0; n],
        decided_at_ms: vec![0; n],
        stats: ValidationStats::default(),
        pipeline: None,
        detections: 0,
        nullifier_map_max_bytes: 0,
        flush_us_per_frame: Vec::new(),
    };
    let start = Instant::now();
    match path {
        Path::Serial => {
            for (i, frame) in corpus.frames.iter().enumerate() {
                out.verdicts[i] = validator.validate(frame.at_ms, &topic, black_box(&frame.bytes));
                out.cost_micros[i] = validator.last_cost_micros();
                out.decided_at_ms[i] = frame.at_ms;
                if inspect {
                    out.nullifier_map_max_bytes = out
                        .nullifier_map_max_bytes
                        .max(validator.nullifier_map_bytes());
                }
            }
        }
        Path::Pipelined(config) => {
            validator.enable_pipeline(config);
            let interval = config.flush_interval_ms;
            // frame index per ticket; tickets count up from zero
            let mut ticket_frame: Vec<usize> = Vec::with_capacity(n);
            let mut pending = 0usize;
            // the periodic flush tick that will release the oldest queued frame
            let mut due_ms = 0u64;
            let flush = |validator: &mut waku_rln_relay::RlnValidator,
                         out: &mut Pass,
                         ticket_frame: &[usize],
                         now_ms: u64| {
                let t0 = inspect.then(Instant::now);
                let decisions = validator.flush(now_ms);
                if let Some(t0) = t0 {
                    if !decisions.is_empty() {
                        out.flush_us_per_frame
                            .push(t0.elapsed().as_secs_f64() * 1e6 / decisions.len() as f64);
                    }
                    out.nullifier_map_max_bytes = out
                        .nullifier_map_max_bytes
                        .max(validator.nullifier_map_bytes());
                }
                for d in decisions {
                    let i = ticket_frame[d.ticket as usize];
                    out.verdicts[i] = d.result;
                    out.cost_micros[i] = d.cost_micros;
                    out.decided_at_ms[i] = now_ms;
                }
            };
            for (i, frame) in corpus.frames.iter().enumerate() {
                if pending > 0 && due_ms <= frame.at_ms {
                    flush(&mut validator, &mut out, &ticket_frame, due_ms);
                    pending = 0;
                }
                match validator.submit(frame.at_ms, &topic, black_box(&frame.bytes)) {
                    SubmitOutcome::Decided(verdict) => {
                        out.verdicts[i] = verdict;
                        out.cost_micros[i] = validator.last_cost_micros();
                        out.decided_at_ms[i] = frame.at_ms;
                    }
                    SubmitOutcome::Deferred(ticket) => {
                        assert_eq!(ticket as usize, ticket_frame.len(), "tickets are dense");
                        ticket_frame.push(i);
                        if pending == 0 {
                            due_ms = (frame.at_ms / interval + 1) * interval;
                        }
                        pending += 1;
                        if validator.flush_due() {
                            flush(&mut validator, &mut out, &ticket_frame, frame.at_ms);
                            pending = 0;
                        }
                    }
                }
            }
            if pending > 0 {
                flush(&mut validator, &mut out, &ticket_frame, due_ms);
            }
        }
    }
    out.elapsed = start.elapsed();
    out.stats = validator.stats();
    out.pipeline = validator.pipeline_stats();
    out.detections = validator.detections().len();
    black_box(&out.verdicts);
    out
}

/// Checks a pass against the generator's labels: every verdict, and the
/// validator's final per-class statistics. Returns the number of frames
/// whose verdict is wrong plus a description of every failed check.
pub fn check_against_labels(corpus: &Corpus, pass: &Pass, name: &str) -> (u64, Vec<String>) {
    let mut failures = Vec::new();
    let wrong = corpus
        .frames
        .iter()
        .zip(&pass.verdicts)
        .filter(|(f, v)| f.label.verdict() != **v)
        .count() as u64;
    if wrong > 0 {
        failures.push(format!(
            "{name}: {wrong} frame verdicts differ from the generator's labels"
        ));
    }
    let s = pass.stats;
    let got = [
        s.valid,
        s.duplicates,
        s.spam_detected,
        s.epoch_out_of_window,
        s.invalid_proof,
        s.malformed,
    ];
    let want = corpus.class_counts();
    if got != want {
        failures.push(format!(
            "{name}: ValidationStats {got:?} differ from the generator's class counts {want:?} (order {:?})",
            Label::ALL
        ));
    }
    (wrong, failures)
}

/// Checks that two paths agree on every per-frame verdict, on the final
/// statistics and on the number of slashing detections.
pub fn check_paths_agree(serial: &Pass, pipelined: &Pass) -> (u64, Vec<String>) {
    let mut failures = Vec::new();
    let differ = serial
        .verdicts
        .iter()
        .zip(&pipelined.verdicts)
        .filter(|(a, b)| a != b)
        .count() as u64;
    if differ > 0 {
        failures.push(format!(
            "serial and pipelined paths disagree on {differ} frame verdicts"
        ));
    }
    if serial.stats != pipelined.stats {
        failures.push(format!(
            "serial and pipelined paths end with different ValidationStats: {:?} vs {:?}",
            serial.stats, pipelined.stats
        ));
    }
    if serial.detections != pipelined.detections {
        failures.push(format!(
            "serial path queued {} slashing detections, pipelined {}",
            serial.detections, pipelined.detections
        ));
    }
    (differ, failures)
}

fn corpus_params(smoke: bool) -> CorpusParams {
    if smoke {
        CorpusParams {
            depth: 12,
            members: 4,
            epochs: 6,
            spammers: 1,
            spam_signals: 3,
            fan_in: 6,
        }
    } else {
        CorpusParams {
            depth: 12,
            members: 12,
            epochs: 8,
            spammers: 2,
            spam_signals: 3,
            fan_in: 6,
        }
    }
}

fn path_of(name: &str) -> Path {
    match name {
        "relay_serial" => Path::Serial,
        _ => Path::Pipelined(PipelineConfig::default()),
    }
}

/// Both paths once, inspected, checked against the labels and each other.
/// Returns the pass of `path`, the wrong verdicts and the failed checks.
fn checked(corpus: &Corpus, path: Path) -> (Pass, u64, Vec<String>) {
    let serial = pass(corpus, Path::Serial, true);
    let piped = pass(corpus, Path::Pipelined(PipelineConfig::default()), true);
    let (wrong_s, mut failures) = check_against_labels(corpus, &serial, "serial");
    let (wrong_p, f) = check_against_labels(corpus, &piped, "pipelined");
    failures.extend(f);
    let (_, f) = check_paths_agree(&serial, &piped);
    failures.extend(f);
    let own = if path == Path::Serial { serial } else { piped };
    (own, wrong_s + wrong_p, failures)
}

/// The untraced run: three set-ups, both paths checked, timed passes of
/// the workload's own path until `--seconds` are spent (at least thirty).
pub fn end_to_end(o: &Options) -> Outcome {
    let params = corpus_params(o.smoke);
    // set-up is the corpus generation with all its proofs; done three times
    // so that one slow spell of the host cannot set the reported time
    let mut setup = Vec::new();
    let mut generations = Vec::new();
    for _ in 0..if o.smoke { 1 } else { 3 } {
        let t0 = Instant::now();
        generations.push(Corpus::generate(params, o.seed));
        setup.push(t0.elapsed().as_secs_f64());
    }
    let corpus = generations.pop().expect("generated at least once");
    let mut failures = Vec::new();
    if generations.iter().any(|g| g.sha256 != corpus.sha256) {
        failures.push("the same seed generated different corpora".to_string());
    }
    drop(generations);

    let path = path_of(&o.workload);
    let (own, wrong, f) = checked(&corpus, path);
    failures.extend(f);

    let budget = Duration::from_secs(o.seconds);
    let min_passes = if o.smoke { 3 } else { 30 };
    let clock = Instant::now();
    let mut pass_s = Vec::new();
    while pass_s.len() < min_passes || (!o.smoke && clock.elapsed() < budget) {
        let timed = pass(&corpus, path, false);
        if timed.verdicts != own.verdicts {
            failures.push(format!("timed pass {} changed its verdicts", pass_s.len()));
        }
        pass_s.push(timed.elapsed.as_secs_f64());
    }
    let run_s = stats::fastest(&pass_s);
    let frames = corpus.frames.len() as f64;
    let accepted = corpus.count(Label::Valid) as f64;
    let cost = own.cost_total_micros() as f64;

    let mut m = MetricSet::new(END_TO_END);
    m.set("setup_s", stats::fastest(&setup));
    m.set("run_s", run_s);
    m.set("ops_per_s", frames / run_s);
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("wire_bytes_per_delivery", corpus.bytes() as f64 / accepted);
    m.set("device_frames_per_s", frames * 1e6 / cost);
    Outcome {
        attempted: 2 * corpus.frames.len() as u64,
        failed: wrong,
        failures,
        metrics: m,
        detail: vec![
            format!(
                "\"corpus_sha256\": \"{}\"",
                wakurln_crypto::sha256::to_hex(&corpus.sha256)
            ),
            format!("\"frames\": {}", corpus.frames.len()),
            format!("\"class_counts\": {:?}", corpus.class_counts()),
            format!("\"proofs_per_setup\": {}", params.proofs()),
            format!("\"setup_s\": {}", summary_json(&setup)),
            format!("\"run_s\": {}", summary_json(&pass_s)),
        ],
    }
}

/// The traced run: one set-up, passes with and without inspection, the
/// probes on the corpus itself, the per-layer metrics and the span file.
pub fn per_layer(o: &Options) -> Outcome {
    let mut tracer = Tracer::new(format!("{}-{}", o.workload, o.seed));
    let root = tracer.open("workload", None, Instant::now());
    let mut m = MetricSet::new(PER_LAYER);
    let params = corpus_params(o.smoke);

    let perms_before = wakurln_crypto::poseidon::permutation_count();
    let t0 = Instant::now();
    let corpus = Corpus::generate(params, o.seed);
    let t1 = Instant::now();
    let perms_setup = wakurln_crypto::poseidon::permutation_count() - perms_before;
    tracer.record(
        "scenarios.setup",
        Some(root),
        t0,
        t1,
        params.proofs() as u64,
    );
    m.set("scenarios.setup_s", (t1 - t0).as_secs_f64());
    m.set("crypto.poseidon_perms_setup", perms_setup as f64);

    let path = path_of(&o.workload);
    let (own, wrong, mut failures) = checked(&corpus, path);

    // untraced passes alternating with traced ones (in-pass inspection on:
    // a clock read per flush, a map-size read per frame or flush; each a
    // span), so that a change of host speed hits both alike
    let passes = if o.smoke { 3 } else { 15 };
    let mut plain = Vec::new();
    let mut inspected = Vec::new();
    let perms_before = wakurln_crypto::poseidon::permutation_count();
    for _ in 0..passes {
        plain.push(pass(&corpus, path, false).elapsed.as_secs_f64());
        let t0 = Instant::now();
        let traced = pass(&corpus, path, true);
        tracer.record(
            "core.pass",
            Some(root),
            t0,
            t0 + traced.elapsed,
            corpus.frames.len() as u64,
        );
        inspected.push(traced.elapsed.as_secs_f64());
    }
    let perms_run =
        (wakurln_crypto::poseidon::permutation_count() - perms_before) / (2 * passes) as u64;
    let run_s = stats::fastest(&plain);
    m.set(
        "trace_overhead_pct",
        (stats::fastest(&inspected) / run_s - 1.0) * 100.0,
    );
    m.set("crypto.poseidon_perms_run", perms_run as f64);
    // arrival → verdict at this one relay, in place of publish → delivery
    let delay = own.verdict_delay_ms(&corpus);
    m.set("scenarios.prop_p50_sim_ms", stats::median(&delay));
    m.set("scenarios.prop_p99_sim_ms", stats::percentile(&delay, 0.99));
    m.set(
        "scenarios.device_cpu_ms_per_node",
        own.cost_total_micros() as f64 / 1e3,
    );
    m.set("core.validations", corpus.frames.len() as f64);
    m.set(
        "core.nullifier_map_max_bytes",
        own.nullifier_map_max_bytes as f64,
    );
    let decodable = (corpus.frames.len() as u64 - corpus.count(Label::Malformed)) as f64;
    let mut verifications = decodable;
    let mut digests = 0.0;
    if let Some(ps) = own.pipeline {
        let resolved = ps.cache_hits + ps.batch_dedup_hits + ps.root_window_skips;
        m.set("core.pipeline_proofs_verified", ps.proofs_verified as f64);
        m.set(
            "core.pipeline_resolved_without_proof_ratio",
            resolved as f64 / ps.submitted.max(1) as f64,
        );
        verifications = ps.proofs_verified as f64;
        digests = ps.submitted as f64;
    }

    let mut bench = bench_for(&mut tracer, root, o);
    let mut detail = probes::frame_probes(&mut bench, &corpus, &mut m);
    probes::membership_probes(
        &mut bench,
        params.depth,
        params.members + params.spammers,
        &mut m,
    );

    // a relay pass is proof verification plus the decision core (plus one
    // statement digest per queued frame on the pipelined path); the rest
    // is decoding, queueing and cache bookkeeping
    let verifying = verifications * m.get("rln.verify_signal_us") / 1e6;
    let deciding = decodable * m.get("model.apply_ns") / 1e9;
    let hashing = digests * m.get("crypto.sha256_frame_ns") / 1e9;
    m.set(
        "scenarios.attributed_share",
        (verifying + deciding + hashing) / run_s,
    );
    detail.extend([
        format!("\"run_s\": {}", summary_json(&plain)),
        format!("\"estimate_verifying_s\": {}", verifying),
        format!("\"estimate_deciding_s\": {}", deciding),
        format!("\"estimate_hashing_s\": {}", hashing),
        format!("\"frames\": {}", corpus.frames.len()),
        format!("\"labels\": \"{:?}\"", Label::ALL),
        format!("\"class_counts\": {:?}", corpus.class_counts()),
    ]);
    // no simulated network, chain or report in this workload
    m.zero_unset();

    finish_trace(tracer, root, o, &mut failures);
    Outcome {
        attempted: 2 * corpus.frames.len() as u64,
        failed: wrong,
        failures,
        metrics: m,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_paths_match_the_labels_and_each_other() {
        let corpus = Corpus::generate(crate::corpus::TINY, 11);
        let serial = pass(&corpus, Path::Serial, true);
        let piped = pass(&corpus, Path::Pipelined(PipelineConfig::default()), true);
        assert_eq!(
            check_against_labels(&corpus, &serial, "serial"),
            (0, vec![])
        );
        assert_eq!(
            check_against_labels(&corpus, &piped, "pipelined"),
            (0, vec![])
        );
        assert_eq!(check_paths_agree(&serial, &piped), (0, vec![]));
        // the pipeline never holds a verdict longer than one flush interval
        let worst = piped
            .decided_at_ms
            .iter()
            .zip(&corpus.frames)
            .map(|(at, f)| at - f.at_ms)
            .max()
            .unwrap();
        assert!(worst <= PipelineConfig::default().flush_interval_ms);
        // duplicates are absorbed before proof work
        let ps = piped.pipeline.unwrap();
        assert!(ps.proofs_verified < corpus.frames.len() as u64 / 2);
        assert!(piped.cost_total_micros() < serial.cost_total_micros());
        assert!(serial.nullifier_map_max_bytes > 0);
    }
}
