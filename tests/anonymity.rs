//! Integration: the privacy properties the paper claims (§IV "Security"):
//! peers "do not disclose any piece of PII in any phase" and "prove their
//! compliance with the messaging rate without leaving any trace to their
//! public keys".

use rand::rngs::StdRng;
use rand::SeedableRng;
use waku_rln::core::{decode_signal, encode_signal};
use waku_rln::crypto::field::Fr;
use waku_rln::crypto::shamir;
use waku_rln::rln::{create_signal, Identity, SharedGroup, Signal};
use waku_rln::zksnark::{ProvingKey, RlnCircuit, SimSnark};

struct World {
    group: SharedGroup,
    ids: Vec<Identity>,
    pk: ProvingKey,
    rng: StdRng,
}

fn world(members: usize) -> World {
    let mut rng = StdRng::seed_from_u64(55);
    let depth = 10;
    let (pk, _vk) = SimSnark::setup(RlnCircuit::new(depth), &mut rng);
    let mut group = SharedGroup::new(depth).unwrap();
    let ids: Vec<Identity> = (0..members)
        .map(|_| {
            let id = Identity::random(&mut rng);
            group.register_batch(&[id.commitment()]).unwrap();
            id
        })
        .collect();
    World {
        group,
        ids,
        pk,
        rng,
    }
}

fn signal_from(w: &mut World, member: usize, epoch: u64, msg: &[u8]) -> Signal {
    let index = w.group.index_of(w.ids[member].commitment()).unwrap();
    create_signal(
        &w.ids[member],
        &w.group.membership_proof(index).unwrap(),
        w.group.root(),
        &w.pk,
        Fr::from_u64(epoch),
        msg,
        &mut w.rng,
    )
    .unwrap()
}

/// The wire bytes of a signal must not contain the sender's commitment,
/// secret key, or leaf index in any recognizable encoding.
#[test]
fn wire_signal_contains_no_identity_material() {
    let mut w = world(5);
    let member = 2;
    let signal = signal_from(&mut w, member, 9, b"anonymity check");
    let wire = encode_signal(9, &signal);

    let commitment = w.ids[member].commitment().to_bytes_le();
    let secret = w.ids[member].secret().to_bytes_le();
    assert!(
        !contains(&wire, &commitment),
        "commitment leaked on the wire"
    );
    assert!(!contains(&wire, &secret), "secret leaked on the wire");
    // even 8-byte prefixes must not appear
    assert!(!contains(&wire, &commitment[..8]));
    assert!(!contains(&wire, &secret[..8]));
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// Signals from different members in the same epoch are unlinkable to
/// their indices: the only member-specific values (nullifier, share) are
/// hash/field outputs, and the proof bytes are fresh randomness.
#[test]
fn signals_do_not_reveal_member_index() {
    let mut w = world(8);
    // two members publish; an observer comparing the two signals learns
    // epoch and message but nothing positionally about the senders:
    let s1 = signal_from(&mut w, 1, 4, b"message one");
    let s2 = signal_from(&mut w, 6, 4, b"message two");
    assert_eq!(s1.root, s2.root);
    assert_eq!(s1.external_nullifier, s2.external_nullifier);
    assert_ne!(s1.internal_nullifier, s2.internal_nullifier);
    // nullifiers are hashes — check they're not trivially index-encoding
    assert_ne!(s1.internal_nullifier, Fr::from_u64(1));
    assert_ne!(s2.internal_nullifier, Fr::from_u64(6));
}

/// One share per epoch reveals nothing: for *any* candidate secret there
/// is a consistent line through the single observed share.
#[test]
fn single_share_is_perfectly_hiding() {
    let mut w = world(3);
    let s = signal_from(&mut w, 0, 7, b"only message this epoch");
    for candidate in [Fr::from_u64(1), Fr::from_u64(999), w.ids[1].secret()] {
        let slope = (s.share.y - candidate) * s.share.x.inverse().unwrap();
        let reconstructed = shamir::share_on_line(candidate, slope, s.share.x);
        assert_eq!(reconstructed, s.share);
    }
}

/// Two shares in *different* epochs are also safe (different lines).
#[test]
fn cross_epoch_shares_do_not_reconstruct() {
    let mut w = world(3);
    let s1 = signal_from(&mut w, 0, 7, b"epoch 7");
    let s2 = signal_from(&mut w, 0, 8, b"epoch 8");
    let wrong = shamir::recover_line_secret(&s1.share, &s2.share).unwrap();
    assert_ne!(wrong, w.ids[0].secret());
}

/// …but two shares in the same epoch reconstruct exactly (the designed
/// privacy/punishment boundary).
#[test]
fn same_epoch_shares_reconstruct_exactly() {
    let mut w = world(3);
    let s1 = signal_from(&mut w, 0, 7, b"first");
    let s2 = signal_from(&mut w, 0, 7, b"second");
    assert_eq!(
        shamir::recover_line_secret(&s1.share, &s2.share),
        Some(w.ids[0].secret())
    );
}

/// Proof bytes are rerandomized: the same statement proved twice yields
/// different proof bytes (no watermarking channel).
#[test]
fn proofs_are_rerandomized_per_publication() {
    let mut w = world(3);
    let s1 = signal_from(&mut w, 0, 7, b"same message");
    let s2 = signal_from(&mut w, 0, 7, b"same message");
    assert_eq!(s1.internal_nullifier, s2.internal_nullifier);
    assert_eq!(s1.share, s2.share); // deterministic share: same (m, sk, ∅)
    assert_ne!(s1.proof.elements, s2.proof.elements); // fresh randomness
}

/// Round-tripping through the wire codec preserves every field (no
/// accidental metadata added by serialization).
#[test]
fn codec_adds_no_metadata() {
    let mut w = world(8);
    let s = signal_from(&mut w, 7, 12, b"roundtrip");
    let decoded = decode_signal(&encode_signal(12, &s)).unwrap();
    assert_eq!(decoded.signal, s);
    assert_eq!(decoded.epoch, 12);
    // encoded size is exactly the fixed overhead + message, nothing more
    let wire = encode_signal(12, &s);
    assert_eq!(wire.len(), 8 + 32 * 4 + 32 * 4 + 32 + 4 + s.message.len());
}
