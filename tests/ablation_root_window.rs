//! Ablation: the acceptable-root window.
//!
//! DESIGN.md calls out one implementation choice not pinned by the paper:
//! routers accept proofs against a small window of *recent* membership
//! roots, not only the latest one. The paper's §III ("Group
//! Synchronization") explains why peers must track root changes; this
//! ablation quantifies what happens to honest in-flight messages during
//! registration churn under window sizes 1 vs 8.
//!
//! With window = 1, a message proved against root `R_n` is rejected by
//! every router that has already synced `R_{n+1}` — honest traffic is
//! dropped during every registration. With window = 8 the same message is
//! accepted. Double-signaling detection is unaffected either way (the
//! nullifier map is root-independent).

use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_rln::core::{
    decode_signal, encode_signal, CostModel, EpochScheme, RlnValidator, WireSignal,
};
use waku_rln::crypto::field::Fr;
use waku_rln::gossipsub::ValidationResult;
use waku_rln::rln::{create_signal, Identity, SharedGroup};
use waku_rln::zksnark::{ProvingKey, RlnCircuit, SimSnark, VerifyingKey};

struct Churn {
    group: SharedGroup,
    id: Identity,
    pk: ProvingKey,
    vk: VerifyingKey,
    rng: StdRng,
    scheme: EpochScheme,
}

fn setup() -> Churn {
    let mut rng = StdRng::seed_from_u64(101);
    let depth = 10;
    let (pk, vk) = SimSnark::setup(RlnCircuit::new(depth), &mut rng);
    let mut group = SharedGroup::new(depth).unwrap();
    let id = Identity::random(&mut rng);
    group.register_batch(&[id.commitment()]).unwrap();
    Churn {
        group,
        id,
        pk,
        vk,
        rng,
        scheme: EpochScheme::default(),
    }
}

/// Creates an honest wire signal proved against the *current* root, then
/// applies `churn_registrations` new members (advancing the root).
fn in_flight_message(c: &mut Churn, epoch_ms: u64, churn_registrations: usize) -> WireSignal {
    let epoch = c.scheme.epoch_at_ms(epoch_ms);
    let index = c.group.index_of(c.id.commitment()).unwrap();
    let signal = create_signal(
        &c.id,
        &c.group.membership_proof(index).unwrap(),
        c.group.root(),
        &c.pk,
        c.scheme.to_field(epoch),
        b"in-flight during churn",
        &mut c.rng,
    )
    .unwrap();
    for _ in 0..churn_registrations {
        let newcomer = Identity::random(&mut c.rng);
        c.group.register_batch(&[newcomer.commitment()]).unwrap();
    }
    decode_signal(&encode_signal(epoch, &signal)).unwrap()
}

fn validator_with_window(c: &Churn, window: usize, roots: &[Fr]) -> RlnValidator {
    let mut v = RlnValidator::new(c.vk.clone(), c.scheme, roots[0], CostModel::default());
    v.set_root_window(window);
    for r in &roots[1..] {
        v.push_root(*r);
    }
    v
}

#[test]
fn window_one_drops_honest_in_flight_messages() {
    let mut c = setup();
    let root_before = c.group.root();
    let wire = in_flight_message(&mut c, 1000, 1);
    let root_after = c.group.root();

    let mut narrow = validator_with_window(&c, 1, &[root_before, root_after]);
    assert_eq!(
        narrow.validate_wire(1000, &wire),
        ValidationResult::Reject,
        "window=1 should reject the stale-root proof"
    );
    assert_eq!(narrow.stats().invalid_proof, 1);
}

#[test]
fn window_eight_accepts_honest_in_flight_messages() {
    let mut c = setup();
    let root_before = c.group.root();
    let wire = in_flight_message(&mut c, 1000, 1);
    let root_after = c.group.root();

    let mut wide = validator_with_window(&c, 8, &[root_before, root_after]);
    assert_eq!(
        wide.validate_wire(1000, &wire),
        ValidationResult::Accept,
        "window=8 should accept the recent-root proof"
    );
    assert_eq!(wide.stats().valid, 1);
}

#[test]
fn heavy_churn_exceeding_any_window_still_rejects() {
    // fairness check for the wide window: a proof 20 roots old is stale
    // under window=8 too — the window bounds the exposure, it does not
    // disable synchronization
    let mut c = setup();
    let root_before = c.group.root();
    let wire = in_flight_message(&mut c, 1000, 20);
    // roots: before + 20 churn roots; replay the last 8 into the validator
    let mut roots = vec![root_before];
    roots.push(c.group.root());
    let mut wide = validator_with_window(&c, 8, &roots[1..]);
    assert_eq!(wide.validate_wire(1000, &wire), ValidationResult::Reject);
}

#[test]
fn acceptance_rate_under_churn_quantified() {
    // the ablation series: N honest messages, each proved right before a
    // registration; count acceptance per window size
    for (window, expect_all) in [(1usize, false), (4, true), (8, true)] {
        let mut c = setup();
        let mut accepted = 0;
        let mut total = 0;
        let mut roots = vec![c.group.root()];
        let mut validator = validator_with_window(&c, window, &roots);
        for i in 0..6u64 {
            let t = 1000 + i * 200; // all within one epoch... spread epochs:
            let t = t + i * 11_000; // one message per epoch
            let wire = in_flight_message(&mut c, t, 1);
            roots.push(c.group.root());
            validator.push_root(c.group.root());
            total += 1;
            if validator.validate_wire(t, &wire) == ValidationResult::Accept {
                accepted += 1;
            }
        }
        if expect_all {
            assert_eq!(accepted, total, "window {window} dropped honest traffic");
        } else {
            assert!(
                accepted < total,
                "window {window} unexpectedly accepted everything"
            );
        }
    }
}

#[test]
fn double_signal_detection_independent_of_window() {
    let mut c = setup();
    let epoch = c.scheme.epoch_at_ms(1000);
    let index = c.group.index_of(c.id.commitment()).unwrap();
    let make = |c: &mut Churn, msg: &[u8]| {
        let s = create_signal(
            &c.id,
            &c.group.membership_proof(index).unwrap(),
            c.group.root(),
            &c.pk,
            c.scheme.to_field(epoch),
            msg,
            &mut c.rng,
        )
        .unwrap();
        decode_signal(&encode_signal(epoch, &s)).unwrap()
    };
    let w1 = make(&mut c, b"one");
    let w2 = make(&mut c, b"two");
    for window in [1usize, 8] {
        let mut v = validator_with_window(&c, window, &[c.group.root()]);
        assert_eq!(v.validate_wire(1000, &w1), ValidationResult::Accept);
        assert_eq!(v.validate_wire(1000, &w2), ValidationResult::Reject);
        assert_eq!(v.stats().spam_detected, 1);
        let detections = v.take_detections();
        assert_eq!(detections[0].evidence.revealed_secret, c.id.secret());
    }
}
