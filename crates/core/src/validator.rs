//! The WAKU-RLN-RELAY validation pipeline, plugged into GossipSub.
//!
//! §III "Routing and Slashing", in order:
//!
//! 1. verify the zkSNARK proof (discard on failure),
//! 2. check the message epoch against the local epoch
//!    (`|Δ| ≤ Thr = D/T`),
//! 3. look the internal nullifier up in the nullifier map; a collision
//!    with a distinct share is double-signaling — reconstruct the secret
//!    key and queue slashing evidence, once per `(epoch, φ)` statement.
//!
//! The message is relayed only if all checks pass.
//!
//! Since the model-crate extraction, the order-sensitive stateful core
//! (steps 2–3 plus statistics, slashing enqueue and GC) is the **pure
//! transition function** [`wakurln_model::step`]; [`RlnValidator`] is a
//! thin stateful wrapper holding one [`wakurln_model::State`] plus the
//! things the model deliberately excludes — the verifying key (summarized
//! into the model's `proof_ok` input bit by the stateless stage) and the
//! batching pipeline. The equivalence suite in
//! `tests/model_equivalence.rs` holds the wrapper to the model bit for
//! bit.

use crate::codec::{decode_signal, WireSignal};
use crate::pipeline::{PipelineConfig, PipelineState, PipelineStats};
use crate::EpochScheme;
use wakurln_crypto::field::Fr;
use wakurln_gossipsub::{BatchDecision, SubmitOutcome, Topic, ValidationResult, Validator};
use wakurln_model::{apply_signal, Outcome, State};
use wakurln_relay::WakuMessage;
use wakurln_rln::{verify_signal, SignalValidity};
use wakurln_zksnark::VerifyingKey;

pub use wakurln_model::{CostModel, SpamDetection, ValidationStats};

/// The RLN validator state held by every routing peer: one pure
/// [`model state`](wakurln_model::State) driven through
/// [`wakurln_model::apply`], plus the verifying key for the stateless
/// proof stage and the optional batching pipeline.
#[derive(Clone, Debug)]
pub struct RlnValidator {
    verifying_key: VerifyingKey,
    /// The model-checked protocol state (roots, nullifier map,
    /// detections, statistics).
    state: State,
    last_cost: u64,
    /// Batched-validation state; `None` runs the serial per-message path.
    pipeline: Option<Box<PipelineState>>,
}

impl RlnValidator {
    /// Creates a validator; `initial_root` is the membership root known at
    /// startup (typically the empty tree).
    pub fn new(
        verifying_key: VerifyingKey,
        epoch_scheme: EpochScheme,
        initial_root: Fr,
        cost: CostModel,
    ) -> RlnValidator {
        RlnValidator {
            verifying_key,
            state: State::new(epoch_scheme, initial_root, cost),
            last_cost: 0,
            pipeline: None,
        }
    }

    /// Switches this validator into batched-pipeline mode (see
    /// [`crate::pipeline`]): subsequent [`Validator::submit`] calls defer
    /// decodable messages into an epoch-sharded batch that is drained by
    /// [`Validator::flush`]. Outcomes, statistics and detections are
    /// identical to the serial path; only the simulated CPU cost is
    /// amortized.
    pub fn enable_pipeline(&mut self, config: PipelineConfig) {
        self.pipeline = Some(Box::new(PipelineState::new(config)));
    }

    /// Per-stage pipeline counters (`None` while in serial mode).
    pub fn pipeline_stats(&self) -> Option<PipelineStats> {
        self.pipeline.as_ref().map(|p| p.stats())
    }

    /// Number of entries in the pipeline's proof-verdict cache (`None`
    /// while in serial mode) — a boundedness series for the soak
    /// harness.
    pub fn verdict_cache_len(&self) -> Option<usize> {
        self.pipeline.as_ref().map(|p| p.cache_len())
    }

    /// The pure protocol state this wrapper drives — everything the
    /// §III decision core reads or writes. Equivalence tests compare
    /// these snapshots across implementations.
    pub fn model_state(&self) -> &State {
        &self.state
    }

    /// Registers a new membership root (called on every contract event the
    /// peer syncs). Keeps the last `root_window` roots acceptable.
    pub fn push_root(&mut self, root: Fr) {
        self.state.push_root(root);
    }

    /// The most recent root.
    pub fn current_root(&self) -> Fr {
        self.state.current_root()
    }

    /// Sets how many recent roots remain acceptable (default 8). A window
    /// of 1 accepts only the latest root: proofs generated moments before
    /// any membership change get rejected — the ablation
    /// `tests/ablation_root_window.rs` measures this design choice.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn set_root_window(&mut self, window: usize) {
        self.state.set_root_window(window);
    }

    /// Crash-recovery reset (a **cold** restart): drops every piece of
    /// in-memory validation state — the accepted-roots window collapses
    /// to `initial_root`, the nullifier map is emptied, undelivered
    /// detections and any pipeline backlog are discarded. Cumulative
    /// [`ValidationStats`] survive: they model the operator's metrics
    /// store, and the resilience reports compare pre- and post-crash
    /// counts. The subsequent group resync (event replay) rebuilds the
    /// root window to match the live network's.
    pub fn reset_state(&mut self, initial_root: Fr) {
        self.state.reset(initial_root);
        self.last_cost = 0;
        if let Some(pipeline) = &self.pipeline {
            let config = *pipeline.config();
            self.pipeline = Some(Box::new(PipelineState::new(config)));
        }
    }

    /// Validation statistics so far.
    pub fn stats(&self) -> ValidationStats {
        self.state.stats
    }

    /// Caught spammers not yet drained (the node submits these to the
    /// chain and clears the queue). One entry per caught `(epoch, φ)`
    /// statement, not per frame: repeats of a statement this peer has
    /// already caught are counted in [`ValidationStats::spam_detected`]
    /// but queue nothing, until the epoch leaves the window or a cold
    /// [`reset_state`](RlnValidator::reset_state).
    pub fn detections(&self) -> &[SpamDetection] {
        &self.state.detections
    }

    /// Drains the detection queue (one entry per caught statement, as
    /// in [`RlnValidator::detections`]). Draining does not forget the
    /// caught marks, so a drained statement is not queued again.
    pub fn take_detections(&mut self) -> Vec<SpamDetection> {
        std::mem::take(&mut self.state.detections)
    }

    /// The epoch scheme in use.
    pub fn epoch_scheme(&self) -> EpochScheme {
        self.state.epoch_scheme
    }

    /// Current nullifier-map footprint in bytes (E8).
    pub fn nullifier_map_bytes(&self) -> usize {
        self.state.nullifier_map.memory_bytes()
    }

    /// Validates a decoded wire signal at local time `now_ms`, charging
    /// the full proof-verification cost. Exposed for direct use by tests;
    /// gossipsub goes through the [`Validator`] impl.
    pub fn validate_wire(&mut self, now_ms: u64, wire: &WireSignal) -> ValidationResult {
        let proof_ok = self.check_stateless(wire);
        let verify_cost = self.state.cost.verify_proof_micros;
        self.decide(now_ms, wire, proof_ok, verify_cost)
    }

    /// Stage 1 — stateless checks: the proof root is in the accepted
    /// window and the signal (share binding + zkSNARK proof) verifies.
    fn check_stateless(&self, wire: &WireSignal) -> bool {
        self.state.root_accepted(&wire.signal.root)
            && verify_signal(&self.verifying_key, wire.signal.root, &wire.signal)
                == SignalValidity::Valid
    }

    /// Whether `root` is inside the accepted-roots window right now (the
    /// cheap half of the stateless stage; the pipeline snapshots it at
    /// arrival time, exactly when the serial path would evaluate it).
    pub(crate) fn root_accepted(&self, root: &Fr) -> bool {
        self.state.root_accepted(root)
    }

    /// The shared verifying key (pipeline batch verification).
    pub(crate) fn verifying_key(&self) -> &VerifyingKey {
        &self.verifying_key
    }

    /// The device cost model in effect.
    pub(crate) fn cost_model(&self) -> CostModel {
        self.state.cost
    }

    /// The order-sensitive stateful core shared by the serial path and the
    /// batched pipeline — one transition of the pure model
    /// ([`wakurln_model::apply`]): epoch window, nullifier map,
    /// double-signal analysis, statistics and cost accounting.
    /// `verify_cost` is the simulated CPU the caller actually spent on the
    /// stateless stage for this message (full proof verification serially;
    /// a cache/dedup probe when the pipeline skipped the zkSNARK), so
    /// batched runs report amortized per-device cost while producing
    /// identical outcomes.
    pub fn decide(
        &mut self,
        now_ms: u64,
        wire: &WireSignal,
        proof_ok: bool,
        verify_cost: u64,
    ) -> ValidationResult {
        let verdict = apply_signal(
            &mut self.state,
            now_ms,
            wire.epoch,
            &wire.signal,
            proof_ok,
            verify_cost,
        );
        self.last_cost = verdict.cost_micros;
        match verdict.outcome {
            Outcome::Accept => ValidationResult::Accept,
            Outcome::Ignore => ValidationResult::Ignore,
            Outcome::Reject => ValidationResult::Reject,
        }
    }
}

impl RlnValidator {
    /// Decodes a gossip payload down to the RLN wire signal, counting
    /// malformed frames.
    fn decode_frame(&mut self, data: &[u8]) -> Option<WireSignal> {
        let wire = WakuMessage::decode(data)
            .ok()
            .and_then(|waku| decode_signal(&waku.payload).ok());
        if wire.is_none() {
            self.state.stats.malformed += 1;
            self.last_cost = self.state.cost.epoch_check_micros;
        }
        wire
    }
}

impl Validator for RlnValidator {
    fn validate(&mut self, now_ms: u64, _topic: &Topic, data: &[u8]) -> ValidationResult {
        let Some(wire) = self.decode_frame(data) else {
            return ValidationResult::Reject;
        };
        self.validate_wire(now_ms, &wire)
    }

    fn last_cost_micros(&self) -> u64 {
        self.last_cost
    }

    fn submit(&mut self, now_ms: u64, topic: &Topic, data: &[u8]) -> SubmitOutcome {
        if self.pipeline.is_none() {
            return SubmitOutcome::Decided(self.validate(now_ms, topic, data));
        }
        let Some(wire) = self.decode_frame(data) else {
            return SubmitOutcome::Decided(ValidationResult::Reject);
        };
        // stage 1 — decode (above) + cheap arrival-time snapshots: the
        // root-window membership is evaluated now, exactly when the
        // serial path would have evaluated it
        let root_ok = self.root_accepted(&wire.signal.root);
        // lint:allow(panic-path, reason = "guarded: the enclosing branch runs only when self.pipeline.is_some()")
        let pipeline = self.pipeline.as_mut().expect("checked above");
        SubmitOutcome::Deferred(pipeline.enqueue(now_ms, wire, root_ok))
    }

    fn flush_due(&self) -> bool {
        self.pipeline.as_ref().is_some_and(|p| p.flush_due())
    }

    fn flush(&mut self, now_ms: u64) -> Vec<BatchDecision> {
        let Some(mut pipeline) = self.pipeline.take() else {
            return Vec::new();
        };
        let decisions = pipeline.flush(self, now_ms);
        self.pipeline = Some(pipeline);
        decisions
    }

    fn flush_interval_ms(&self) -> Option<u64> {
        self.pipeline.as_ref().map(|p| p.config().flush_interval_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_signal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wakurln_crypto::work::{self, Unit};
    use wakurln_rln::{create_signal, Identity, SharedGroup};
    use wakurln_zksnark::{ProvingKey, RlnCircuit, SimSnark};

    struct Fixture {
        validator: RlnValidator,
        group: SharedGroup,
        id: Identity,
        index: u64,
        pk: ProvingKey,
        rng: StdRng,
        scheme: EpochScheme,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(41);
        let depth = 10;
        let (pk, vk) = SimSnark::setup(RlnCircuit::new(depth), &mut rng);
        let mut group = SharedGroup::new(depth).unwrap();
        let id = Identity::random(&mut rng);
        let index = group.register_batch(&[id.commitment()]).unwrap().0.start;
        let scheme = EpochScheme::new(10, 20_000); // Thr = 2
        let validator = RlnValidator::new(vk, scheme, group.root(), CostModel::default());
        Fixture {
            validator,
            group,
            id,
            index,
            pk,
            rng,
            scheme,
        }
    }

    fn wire_at(f: &mut Fixture, now_ms: u64, msg: &[u8]) -> WireSignal {
        let epoch = f.scheme.epoch_at_ms(now_ms);
        let signal = create_signal(
            &f.id,
            &f.group.membership_proof(f.index).unwrap(),
            f.group.root(),
            &f.pk,
            f.scheme.to_field(epoch),
            msg,
            &mut f.rng,
        )
        .unwrap();
        WireSignal { epoch, signal }
    }

    #[test]
    fn honest_message_accepted() {
        let mut f = fixture();
        let wire = wire_at(&mut f, 1000, b"hi");
        assert_eq!(
            f.validator.validate_wire(1000, &wire),
            ValidationResult::Accept
        );
        assert_eq!(f.validator.stats().valid, 1);
        // cost charged ≈ verification cost
        assert!(f.validator.last_cost_micros() >= 30_000);
    }

    #[test]
    fn tampered_proof_rejected() {
        let mut f = fixture();
        let mut wire = wire_at(&mut f, 1000, b"hi");
        wire.signal.proof.binding[0] ^= 1;
        assert_eq!(
            f.validator.validate_wire(1000, &wire),
            ValidationResult::Reject
        );
        assert_eq!(f.validator.stats().invalid_proof, 1);
    }

    #[test]
    fn unknown_root_rejected() {
        let mut f = fixture();
        let wire = wire_at(&mut f, 1000, b"hi");
        let fresh_vk_validator = &mut f.validator;
        // simulate a validator that never saw this root
        let mut other = RlnValidator::new(
            fresh_vk_validator.verifying_key.clone(),
            f.scheme,
            Fr::from_u64(12345),
            CostModel::default(),
        );
        assert_eq!(other.validate_wire(1000, &wire), ValidationResult::Reject);
    }

    #[test]
    fn replayed_old_epoch_ignored() {
        let mut f = fixture();
        let wire = wire_at(&mut f, 1000, b"hi"); // epoch at t=1s
                                                 // 50 s later (Thr = 2 epochs = 20 s): out of window
        assert_eq!(
            f.validator.validate_wire(51_000, &wire),
            ValidationResult::Ignore
        );
        assert_eq!(f.validator.stats().epoch_out_of_window, 1);
    }

    #[test]
    fn future_epoch_ignored() {
        let mut f = fixture();
        let wire = wire_at(&mut f, 100_000, b"hi");
        assert_eq!(
            f.validator.validate_wire(1_000, &wire),
            ValidationResult::Ignore
        );
    }

    #[test]
    fn double_signal_detected_and_secret_reconstructed() {
        let mut f = fixture();
        let w1 = wire_at(&mut f, 1000, b"first");
        let w2 = wire_at(&mut f, 1500, b"second"); // same epoch (T = 10 s)
        assert_eq!(
            f.validator.validate_wire(1000, &w1),
            ValidationResult::Accept
        );
        assert_eq!(
            f.validator.validate_wire(1500, &w2),
            ValidationResult::Reject
        );
        assert_eq!(f.validator.stats().spam_detected, 1);
        let detections = f.validator.take_detections();
        assert_eq!(detections.len(), 1);
        assert_eq!(detections[0].evidence.revealed_secret, f.id.secret());
        assert_eq!(detections[0].evidence.commitment, f.id.commitment());
        // queue drained
        assert!(f.validator.detections().is_empty());
    }

    /// One member signals three distinct messages in one epoch and each
    /// reaches the relay six times under fresh envelopes, the fan-in of
    /// the relay benchmark's corpus. All twelve double-signal frames are
    /// rejected and counted, but only the first reconstructs the secret:
    /// the other eleven run no Poseidon permutation at all.
    #[test]
    fn a_caught_statement_is_reconstructed_once_across_rewraps() {
        let mut f = fixture();
        let topic = Topic::new("t");
        let signals: Vec<WireSignal> = [&b"one"[..], b"two", b"three"]
            .into_iter()
            .map(|msg| wire_at(&mut f, 1_000, msg))
            .collect();
        let mut at = 1_000;
        let mut doubles = Vec::new();
        let reconstructions = work::count(Unit::Reconstruction);
        for (i, wire) in signals.iter().enumerate() {
            for copy in 0..6 {
                let mut envelope =
                    WakuMessage::new("/waku/2/test", encode_signal(wire.epoch, &wire.signal));
                envelope.timestamp = Some(at);
                let before = work::count(Unit::PoseidonPermutation);
                let verdict = Validator::validate(&mut f.validator, at, &topic, &envelope.encode());
                let permutations = work::count(Unit::PoseidonPermutation) - before;
                let expected = match (i, copy) {
                    (0, 0) => ValidationResult::Accept,
                    (0, _) => ValidationResult::Ignore,
                    _ => ValidationResult::Reject,
                };
                assert_eq!(verdict, expected, "signal {i}, copy {copy}");
                if i > 0 {
                    doubles.push(permutations);
                }
                at += 10;
            }
        }
        assert_eq!(
            f.validator.stats(),
            ValidationStats {
                valid: 1,
                duplicates: 5,
                spam_detected: 12,
                ..ValidationStats::default()
            }
        );
        assert_eq!(f.validator.detections().len(), 1);
        assert_eq!(
            f.validator.detections()[0].evidence.revealed_secret,
            f.id.secret()
        );
        assert!(doubles[0] > 0, "the first double-signal builds evidence");
        assert_eq!(doubles[1..].iter().sum::<u64>(), 0, "{doubles:?}");
        assert_eq!(work::count(Unit::Reconstruction) - reconstructions, 1);

        // a cold restart forgets the mark: the next violation is caught
        // and queued again
        f.validator.take_detections();
        f.validator.reset_state(f.group.root());
        for wire in &signals[..2] {
            f.validator.validate_wire(at, wire);
        }
        assert_eq!(f.validator.detections().len(), 1);
        assert_eq!(work::count(Unit::Reconstruction) - reconstructions, 2);
    }

    #[test]
    fn identical_message_is_duplicate_not_spam() {
        let mut f = fixture();
        let w1 = wire_at(&mut f, 1000, b"same");
        assert_eq!(
            f.validator.validate_wire(1000, &w1),
            ValidationResult::Accept
        );
        assert_eq!(
            f.validator.validate_wire(1200, &w1),
            ValidationResult::Ignore
        );
        assert_eq!(f.validator.stats().duplicates, 1);
        assert_eq!(f.validator.stats().spam_detected, 0);
    }

    #[test]
    fn messages_in_different_epochs_both_accepted() {
        let mut f = fixture();
        let w1 = wire_at(&mut f, 1_000, b"a");
        let w2 = wire_at(&mut f, 11_000, b"b"); // next epoch
        assert_eq!(
            f.validator.validate_wire(1_000, &w1),
            ValidationResult::Accept
        );
        assert_eq!(
            f.validator.validate_wire(11_000, &w2),
            ValidationResult::Accept
        );
        assert_eq!(f.validator.stats().valid, 2);
    }

    #[test]
    fn root_window_tolerates_recent_membership_change() {
        let mut f = fixture();
        let wire = wire_at(&mut f, 1000, b"pre-change");
        // a new member registers; root advances
        let newcomer = Identity::from_secret(Fr::from_u64(777));
        f.group.register_batch(&[newcomer.commitment()]).unwrap();
        f.validator.push_root(f.group.root());
        // the proof against the *old* root still validates (window)
        assert_eq!(
            f.validator.validate_wire(1000, &wire),
            ValidationResult::Accept
        );
        assert_eq!(f.validator.current_root(), f.group.root());
    }

    #[test]
    fn root_window_is_bounded() {
        let mut f = fixture();
        let original_root = f.group.root();
        for i in 0..20u64 {
            f.validator.push_root(Fr::from_u64(i));
        }
        assert!(!f.validator.model_state().root_accepted(&original_root));
        assert!(f.validator.model_state().accepted_roots.len() <= 8);
    }

    #[test]
    fn malformed_payload_rejected_via_validator_trait() {
        let mut f = fixture();
        let result = Validator::validate(
            &mut f.validator,
            1000,
            &Topic::new("t"),
            b"not a waku message",
        );
        assert_eq!(result, ValidationResult::Reject);
        assert_eq!(f.validator.stats().malformed, 1);
    }
}
