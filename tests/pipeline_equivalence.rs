//! Integration: the batched validation pipeline is outcome-equivalent to
//! the serial validator.
//!
//! The pipeline reorders *work* (statement dedup and verdict caching
//! before zkSNARK verification, batch fan-out, deferred commits) but
//! must not reorder *outcomes*: for any message stream and any flush
//! schedule, every message gets the same `ValidationResult`, the
//! aggregate `ValidationStats` are equal, the slashing detections are
//! equal (same spammers, same order), and the nullifier map — including
//! its `Thr`-window GC — ends in the same state. Stronger still: after
//! **every** batch flush (including flushes straddling an epoch
//! boundary) the pipelined validator's entire pure `model::State`
//! snapshot must equal the serial validator's on the same message
//! prefix. The satellite cases the issue calls out are covered by name:
//! duplicates arriving in the same flush window, double-signals split
//! across batches, and flushes that straddle an epoch boundary.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_rln::core::{
    encode_signal, CostModel, EpochScheme, PipelineConfig, RlnValidator, WireSignal,
};
use waku_rln::crypto::field::Fr;
use waku_rln::gossipsub::{SubmitOutcome, Topic, ValidationResult, Validator};
use waku_rln::relay::WakuMessage;
use waku_rln::rln::{create_signal, Identity, SharedGroup};
use waku_rln::zksnark::{ProvingKey, RlnCircuit, SimSnark, VerifyingKey};

const DEPTH: usize = 10;
/// `T = 10 s`, `D = 20 s` ⇒ `Thr = 2`.
fn scheme() -> EpochScheme {
    EpochScheme::new(10, 20_000)
}

/// Shared fixture: a group of members with proving material, plus a pool
/// of helpers to mint (possibly tampered) wire signals.
struct Fixture {
    group: SharedGroup,
    members: Vec<(Identity, u64)>,
    pk: ProvingKey,
    vk: VerifyingKey,
    rng: StdRng,
}

impl Fixture {
    fn new(members: usize, seed: u64) -> Fixture {
        let mut rng = StdRng::seed_from_u64(seed);
        let (pk, vk) = SimSnark::setup(RlnCircuit::new(DEPTH), &mut rng);
        let mut group = SharedGroup::new(DEPTH).unwrap();
        let members = (0..members)
            .map(|_| {
                let id = Identity::random(&mut rng);
                let index = group.register_batch(&[id.commitment()]).unwrap().0.start;
                (id, index)
            })
            .collect();
        Fixture {
            group,
            members,
            pk,
            vk,
            rng,
        }
    }

    /// A valid wire signal from `member` timestamped `now_ms`.
    fn wire(&mut self, member: usize, now_ms: u64, msg: &[u8]) -> WireSignal {
        let (id, index) = &self.members[member];
        let epoch = scheme().epoch_at_ms(now_ms);
        let signal = create_signal(
            id,
            &self.group.membership_proof(*index).unwrap(),
            self.group.root(),
            &self.pk,
            scheme().to_field(epoch),
            msg,
            &mut self.rng,
        )
        .unwrap();
        WireSignal { epoch, signal }
    }

    fn validator(&self) -> RlnValidator {
        RlnValidator::new(
            self.vk.clone(),
            scheme(),
            self.group.root(),
            CostModel::default(),
        )
    }
}

fn frame(wire: &WireSignal) -> Vec<u8> {
    WakuMessage::new(
        "/test/1/chat/proto",
        encode_signal(wire.epoch, &wire.signal),
    )
    .encode()
}

/// Runs `stream` through a serial validator and through a pipelined one
/// flushed after every `batch` messages, then asserts full equivalence.
/// Returns the pipelined validator for stats inspection.
fn assert_equivalent(f: &Fixture, stream: &[(u64, WireSignal)], batch: usize) -> RlnValidator {
    let topic = Topic::new("t");
    let mut serial = f.validator();
    let mut serial_results: Vec<ValidationResult> = Vec::new();

    let mut piped = f.validator();
    piped.enable_pipeline(PipelineConfig {
        max_batch: batch,
        ..PipelineConfig::default()
    });
    let mut piped_results: Vec<(u64, ValidationResult)> = Vec::new();
    let mut immediate = 0u64;
    for (i, (now, wire)) in stream.iter().enumerate() {
        serial_results.push(serial.validate(*now, &topic, &frame(wire)));
        match piped.submit(*now, &topic, &frame(wire)) {
            SubmitOutcome::Decided(result) => {
                // only undecodable frames decide immediately; tickets are
                // dense, so synthesize the position from the queue order
                piped_results.push((i as u64 + 1_000_000 + immediate, result));
                immediate += 1;
            }
            SubmitOutcome::Deferred(ticket) => {
                let _ = ticket;
            }
        }
        if piped.flush_due() {
            for d in piped.flush(*now) {
                piped_results.push((d.ticket, d.result));
            }
            // after every batch flush — including flushes straddling an
            // epoch boundary — the stage-4 commit must have driven the
            // pure model to the exact state the serial validator reached
            // on the same prefix, not merely the same verdicts
            assert_eq!(
                piped.model_state(),
                serial.model_state(),
                "model state diverged after the flush at message {i}"
            );
        }
    }
    let end = stream.last().map(|(now, _)| *now).unwrap_or(0);
    for d in piped.flush(end) {
        piped_results.push((d.ticket, d.result));
    }
    assert_eq!(
        piped.model_state(),
        serial.model_state(),
        "model state diverged after the final flush"
    );

    // all streams in these tests are decodable, so every message got a
    // ticket and ticket order == submission order
    assert_eq!(immediate, 0, "unexpected immediate decision");
    piped_results.sort_by_key(|(ticket, _)| *ticket);
    let piped_ordered: Vec<ValidationResult> = piped_results.iter().map(|(_, r)| *r).collect();

    assert_eq!(piped_ordered, serial_results, "per-message results differ");
    assert_eq!(piped.stats(), serial.stats(), "aggregate stats differ");
    assert_eq!(
        piped.detections(),
        serial.detections(),
        "slashing detections differ"
    );
    assert_eq!(
        piped.nullifier_map_bytes(),
        serial.nullifier_map_bytes(),
        "nullifier-map state differs after GC"
    );
    piped
}

#[test]
fn duplicates_in_same_flush_window_match_serial_and_skip_verification() {
    let mut f = Fixture::new(3, 1);
    let a = f.wire(0, 11_000, b"a");
    let b = f.wire(1, 12_000, b"b");
    // three copies of `a` and two of `b` inside one flush window
    let stream = vec![
        (11_000, a.clone()),
        (11_100, a.clone()),
        (12_000, b.clone()),
        (12_100, a),
        (12_200, b),
    ];
    let piped = assert_equivalent(&f, &stream, 5);
    let stats = piped.stats();
    assert_eq!(stats.valid, 2);
    assert_eq!(stats.duplicates, 3);
    let ps = piped.pipeline_stats().unwrap();
    // the duplicates resolved against the in-flight batch, not the snark
    assert_eq!(ps.proofs_verified, 2);
    assert_eq!(ps.batch_dedup_hits, 3);
}

#[test]
fn duplicates_across_flushes_hit_the_cache() {
    let mut f = Fixture::new(2, 2);
    let a = f.wire(0, 11_000, b"replayed");
    // one copy per flush window: the later copies must hit the LRU
    let stream = vec![(11_000, a.clone()), (11_500, a.clone()), (12_000, a)];
    let piped = assert_equivalent(&f, &stream, 1);
    let ps = piped.pipeline_stats().unwrap();
    assert_eq!(ps.proofs_verified, 1, "re-deliveries paid verification");
    assert_eq!(ps.cache_hits, 2);
    assert_eq!(piped.stats().duplicates, 2);
}

#[test]
fn double_signal_split_across_batches_matches_serial() {
    let mut f = Fixture::new(3, 3);
    let s1 = f.wire(0, 11_000, b"first");
    let s2 = f.wire(0, 12_000, b"second"); // same epoch ⇒ double-signal
    let filler = f.wire(1, 11_500, b"innocent");
    // batch=2: s1+filler flush first, s2 arrives in the next batch
    let stream = vec![(11_000, s1), (11_500, filler), (12_000, s2)];
    let piped = assert_equivalent(&f, &stream, 2);
    assert_eq!(piped.stats().spam_detected, 1);
    assert_eq!(piped.stats().valid, 2);
    // the detection carries the spammer's identity
    assert_eq!(
        piped.detections()[0].evidence.commitment,
        f.members[0].0.commitment()
    );
}

#[test]
fn epoch_boundary_flush_matches_serial_including_gc() {
    let mut f = Fixture::new(4, 4);
    // epochs tick every 10 s; arrivals straddle the 20 s boundary and the
    // flush happens after it, so the pipeline must replay arrival-time
    // epochs (and GC with arrival-time cutoffs), not flush-time ones
    let stream = vec![
        (19_200, f.wire(0, 19_200, b"pre-boundary")),
        (19_900, f.wire(1, 19_900, b"just-in-time")),
        (20_100, f.wire(2, 20_100, b"post-boundary")),
        (20_500, f.wire(3, 20_500, b"settled")),
    ];
    let piped = assert_equivalent(&f, &stream, 4);
    assert_eq!(piped.stats().valid, 4);
    assert_eq!(piped.stats().epoch_out_of_window, 0);
}

#[test]
fn stale_and_future_epochs_match_serial_across_flushes() {
    let mut f = Fixture::new(4, 5);
    let stale = f.wire(0, 1_000, b"stale"); // epoch far behind by 61 s
    let future = f.wire(1, 90_000, b"future"); // epoch far ahead
    let fresh = f.wire(2, 61_000, b"fresh");
    let stream = vec![(61_000, stale), (61_200, future), (61_400, fresh)];
    let piped = assert_equivalent(&f, &stream, 2);
    assert_eq!(piped.stats().epoch_out_of_window, 2);
    assert_eq!(piped.stats().valid, 1);
}

#[test]
fn nullifier_map_gc_is_identical_under_long_streams() {
    let mut f = Fixture::new(2, 6);
    // one message per epoch over 8 epochs: Thr = 2 keeps only a tail of
    // the nullifier map alive; GC must fire identically although the
    // pipeline commits in batches
    let mut stream = Vec::new();
    for e in 0..8u64 {
        let now = 11_000 + e * 10_000;
        stream.push((
            now,
            f.wire((e % 2) as usize, now, format!("m{e}").as_bytes()),
        ));
    }
    for batch in [1, 3, 8] {
        let piped = assert_equivalent(&f, &stream, batch);
        assert!(piped.nullifier_map_bytes() > 0);
    }
}

#[test]
fn tampered_proofs_and_unknown_roots_match_serial() {
    let mut f = Fixture::new(3, 7);
    let good = f.wire(0, 11_000, b"good");
    let mut tampered = f.wire(1, 11_000, b"bad");
    tampered.signal.proof.binding[0] ^= 1;
    let mut foreign_root = f.wire(2, 11_000, b"foreign");
    foreign_root.signal.root = Fr::from_u64(424_242);
    let stream = vec![
        (11_000, good),
        (11_100, tampered),
        (11_200, foreign_root.clone()),
        (11_300, foreign_root), // repeat: still rejected, still no verify
    ];
    let piped = assert_equivalent(&f, &stream, 4);
    assert_eq!(piped.stats().invalid_proof, 3);
    let ps = piped.pipeline_stats().unwrap();
    // the unknown-root copies never reached the verifier
    assert_eq!(ps.root_window_skips, 2);
    assert_eq!(ps.proofs_verified, 2);
}

#[test]
fn mutated_public_inputs_with_original_binding_cannot_reuse_cached_verdict() {
    let mut f = Fixture::new(2, 8);
    let good = f.wire(0, 11_000, b"legit");
    // the replay attack the statement digest must defeat: take a valid
    // signal and rewrite a public input while keeping the original
    // (valid) binding. The binding is only authenticated inside the
    // verifier, so if the digest ignored these fields the forgery would
    // resolve against the honest copy's cached `true` verdict, land in a
    // fresh nullifier slot, and bypass the rate limit — where the serial
    // validator rejects it as an invalid proof.
    let mut forged_nullifier = good.clone();
    forged_nullifier.signal.internal_nullifier = Fr::from_u64(999_999);
    let mut forged_share = good.clone();
    forged_share.signal.share.y = Fr::from_u64(123_456);
    let stream = vec![
        // same flush window as the original: in-batch dedup must miss
        (11_000, good),
        (11_100, forged_nullifier.clone()),
        (11_200, forged_share),
        // later flush: the cross-flush cache must not confuse the forgery
        // with the (now cached) honest statement either
        (12_000, forged_nullifier),
    ];
    let piped = assert_equivalent(&f, &stream, 3);
    assert_eq!(piped.stats().valid, 1, "a forged variant was accepted");
    assert_eq!(piped.stats().invalid_proof, 3);
    assert!(piped.detections().is_empty(), "forgeries polluted slashing");
    let ps = piped.pipeline_stats().unwrap();
    // each distinct forgery pays its own (failing) verification; only the
    // byte-identical re-delivery hits the cache — with a `false` verdict
    assert_eq!(ps.proofs_verified, 3);
    assert_eq!(ps.cache_hits, 1);
    assert_eq!(ps.batch_dedup_hits, 0);
}

#[test]
fn pipelined_testbed_still_delivers_and_slashes() {
    use waku_rln::core::{Testbed, TestbedConfig};

    let mut tb = Testbed::build(TestbedConfig {
        n_peers: 8,
        tree_depth: 10,
        degree: 4,
        seed: 9,
        pipeline: Some(PipelineConfig::default()),
        ..Default::default()
    });
    tb.run(8_000, 1_000);
    tb.publish(0, b"batched hello").unwrap();
    tb.run(15_000, 1_000);
    // forwarding completes through flush timers; everyone still converges
    assert!(tb.delivery_count(b"batched hello", 0) >= 6);

    tb.publish_spam(3, b"spam-a").unwrap();
    tb.publish_spam(3, b"spam-b").unwrap();
    tb.run(30_000, 1_000);
    assert!(
        tb.total_spam_detections() >= 1,
        "no detection under batching"
    );
    assert!(!tb.is_member(3), "spammer not slashed under batching");
    // at least one relay actually amortized proof work
    use waku_rln::netsim::NodeId;
    let amortized = (0..8).any(|i| {
        let ps = tb
            .net
            .node(NodeId(i))
            .validator()
            .pipeline_stats()
            .expect("pipeline enabled");
        ps.submitted > 0 && ps.proofs_verified <= ps.submitted
    });
    assert!(amortized);
}

/// Mutations the property test applies to pool messages.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    /// Deliver as minted.
    Keep,
    /// Flip a proof byte (invalid proof).
    TamperProof,
    /// Re-deliver the previous stream entry verbatim (gossip duplicate).
    DuplicatePrevious,
    /// Re-deliver the previous entry with a rewritten internal nullifier
    /// but its original binding (the forged-replay rate-limit bypass).
    MutatePreviousNullifier,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary interleavings of honest traffic, spam pairs, duplicates
    /// and tampering, under arbitrary batch sizes, decide exactly like
    /// the serial validator.
    #[test]
    fn prop_pipeline_equals_serial(
        seed in 0u64..1_000,
        batch in 1usize..7,
        picks in proptest::collection::vec((0usize..6, 0u64..3, 0u8..4), 3..10),
    ) {
        let mut f = Fixture::new(6, 1_000 + seed);
        let mut stream: Vec<(u64, WireSignal)> = Vec::new();
        for (member, epoch_slot, mutation) in picks {
            let mutation = match mutation {
                0 => Mutation::Keep,
                1 => Mutation::TamperProof,
                2 => Mutation::DuplicatePrevious,
                _ => Mutation::MutatePreviousNullifier,
            };
            let now = 11_000 + epoch_slot * 10_000 + stream.len() as u64 * 97;
            match mutation {
                Mutation::DuplicatePrevious if !stream.is_empty() => {
                    let prev = stream.last().unwrap().1.clone();
                    stream.push((now.max(stream.last().unwrap().0), prev));
                }
                Mutation::MutatePreviousNullifier if !stream.is_empty() => {
                    let mut prev = stream.last().unwrap().1.clone();
                    prev.signal.internal_nullifier = Fr::from_u64(777_000 + now);
                    stream.push((now.max(stream.last().unwrap().0), prev));
                }
                Mutation::DuplicatePrevious | Mutation::MutatePreviousNullifier | Mutation::Keep => {
                    let wire = f.wire(member, now, format!("m-{member}-{now}").as_bytes());
                    stream.push((now, wire));
                }
                Mutation::TamperProof => {
                    let mut wire = f.wire(member, now, format!("t-{member}-{now}").as_bytes());
                    wire.signal.proof.binding[7] ^= 0x40;
                    stream.push((now, wire));
                }
            }
        }
        // arrival times must be non-decreasing for a meaningful replay
        stream.sort_by_key(|(now, _)| *now);
        assert_equivalent(&f, &stream, batch);
    }
}
