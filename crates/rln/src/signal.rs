//! RLN signals: creation and stateless verification.
//!
//! A signal is the tuple `(m, ∅, φ, [sk], π)` from the paper's §II: the
//! message, the external nullifier (epoch), the internal nullifier, one
//! Shamir share of the sender's secret key, and the zkSNARK proof that all
//! of it is well-formed with respect to the membership root.

use crate::identity::Identity;
use rand::RngCore;
use wakurln_crypto::field::Fr;
use wakurln_crypto::merkle::MerkleProof;
use wakurln_crypto::poseidon;
use wakurln_crypto::shamir::Share;
use wakurln_zksnark::{
    Proof, ProveError, ProvingKey, RlnCircuit, RlnPublicInputs, RlnWitness, SimSnark, VerifyingKey,
};

/// A complete RLN signal, ready to be wrapped in a routing-layer message.
#[derive(Clone, Debug, PartialEq)]
pub struct Signal {
    /// The application message `m`.
    pub message: Vec<u8>,
    /// The external nullifier `∅` (the epoch, as a field element).
    pub external_nullifier: Fr,
    /// The internal nullifier `φ = H(H(sk, ∅))`.
    pub internal_nullifier: Fr,
    /// The disclosed Shamir share `[sk] = (x, y)`.
    pub share: Share,
    /// The membership root the proof was generated against.
    pub root: Fr,
    /// The zkSNARK proof `π`.
    pub proof: Proof,
}

impl Signal {
    /// Reassembles the public-input vector this signal's proof is bound to.
    pub fn public_inputs(&self) -> RlnPublicInputs {
        RlnPublicInputs {
            root: self.root,
            external_nullifier: self.external_nullifier,
            x: self.share.x,
            y: self.share.y,
            internal_nullifier: self.internal_nullifier,
        }
    }

    /// Serialized wire overhead of the RLN fields on top of the raw
    /// message (nullifiers, share, root, proof) — the per-message cost the
    /// paper's "light computational overhead" claim is about.
    pub fn overhead_bytes(&self) -> usize {
        32  // external nullifier
            + 32 // internal nullifier
            + 64 // share (x, y)
            + 32 // root
            + self.proof.size_bytes()
    }
}

/// Outcome of stateless signal verification (proof + integrity checks);
/// the stateful epoch/nullifier-map checks live in the routing layer
/// (`waku-rln-relay`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignalValidity {
    /// Proof verifies and the share matches the message hash.
    Valid,
    /// The share's evaluation point does not equal `H(m)` — the sender
    /// lied about which message the share covers.
    MessageMismatch,
    /// The zkSNARK proof failed verification.
    InvalidProof,
}

/// Creates a signal for `message` in `epoch` (as field element), proving
/// membership of `identity` under the tree root embedded in
/// `membership_proof`.
///
/// # Errors
///
/// Propagates [`ProveError`] when the witness is inconsistent (wrong
/// depth, stale path, non-member).
pub fn create_signal<R: RngCore + ?Sized>(
    identity: &Identity,
    membership_proof: &MerkleProof,
    root: Fr,
    proving_key: &ProvingKey,
    external_nullifier: Fr,
    message: &[u8],
    rng: &mut R,
) -> Result<Signal, ProveError> {
    let x = poseidon::hash_bytes_to_field(message);
    let (public, _a1) = RlnCircuit::derive_public(identity.secret(), root, external_nullifier, x);
    let witness = RlnWitness::new(identity.secret(), membership_proof);
    let proof = SimSnark::prove(proving_key, &public, &witness, rng)?;
    Ok(Signal {
        message: message.to_vec(),
        external_nullifier,
        internal_nullifier: public.internal_nullifier,
        share: Share {
            x: public.x,
            y: public.y,
        },
        root,
        proof,
    })
}

/// Statelessly verifies a signal against an accepted membership root.
///
/// Checks, in order: the share evaluation point is really `H(m)` (binding
/// the share to the routed message), then the zkSNARK proof. Epoch
/// freshness and double-signaling detection are the routing layer's job.
pub fn verify_signal(
    verifying_key: &VerifyingKey,
    expected_root: Fr,
    signal: &Signal,
) -> SignalValidity {
    if signal.share.x != poseidon::hash_bytes_to_field(&signal.message) {
        return SignalValidity::MessageMismatch;
    }
    if signal.root != expected_root {
        return SignalValidity::InvalidProof;
    }
    if !SimSnark::verify(verifying_key, &signal.public_inputs(), &signal.proof) {
        return SignalValidity::InvalidProof;
    }
    SignalValidity::Valid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::SharedGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        group: SharedGroup,
        id: Identity,
        index: u64,
        pk: ProvingKey,
        vk: VerifyingKey,
        rng: StdRng,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(11);
        let depth = 10;
        let (pk, vk) = SimSnark::setup(RlnCircuit::new(depth), &mut rng);
        let mut group = SharedGroup::new(depth).unwrap();
        let id = Identity::random(&mut rng);
        group
            .register_batch(&[Identity::random(&mut rng).commitment()])
            .unwrap();
        let index = group.register_batch(&[id.commitment()]).unwrap().0.start;
        Fixture {
            group,
            id,
            index,
            pk,
            vk,
            rng,
        }
    }

    fn make_signal(f: &mut Fixture, epoch: u64, msg: &[u8]) -> Signal {
        let proof = f.group.membership_proof(f.index).unwrap();
        create_signal(
            &f.id,
            &proof,
            f.group.root(),
            &f.pk,
            Fr::from_u64(epoch),
            msg,
            &mut f.rng,
        )
        .unwrap()
    }

    #[test]
    fn valid_signal_verifies() {
        let mut f = fixture();
        let sig = make_signal(&mut f, 1, b"hello");
        assert_eq!(
            verify_signal(&f.vk, f.group.root(), &sig),
            SignalValidity::Valid
        );
    }

    #[test]
    fn tampered_message_detected() {
        let mut f = fixture();
        let mut sig = make_signal(&mut f, 1, b"hello");
        sig.message = b"hijacked".to_vec();
        assert_eq!(
            verify_signal(&f.vk, f.group.root(), &sig),
            SignalValidity::MessageMismatch
        );
    }

    #[test]
    fn tampered_nullifier_detected() {
        let mut f = fixture();
        let mut sig = make_signal(&mut f, 1, b"hello");
        sig.internal_nullifier += Fr::ONE;
        assert_eq!(
            verify_signal(&f.vk, f.group.root(), &sig),
            SignalValidity::InvalidProof
        );
    }

    #[test]
    fn tampered_share_detected() {
        let mut f = fixture();
        let mut sig = make_signal(&mut f, 1, b"hello");
        sig.share.y += Fr::ONE;
        assert_eq!(
            verify_signal(&f.vk, f.group.root(), &sig),
            SignalValidity::InvalidProof
        );
    }

    #[test]
    fn wrong_root_detected() {
        let mut f = fixture();
        let sig = make_signal(&mut f, 1, b"hello");
        // group moves on: new member registers
        let newcomer = Identity::random(&mut f.rng);
        f.group.register_batch(&[newcomer.commitment()]).unwrap();
        assert_eq!(
            verify_signal(&f.vk, f.group.root(), &sig),
            SignalValidity::InvalidProof
        );
    }

    #[test]
    fn non_member_cannot_create() {
        let mut f = fixture();
        let outsider = Identity::from_secret(Fr::from_u64(31337));
        let someone_elses_path = f.group.membership_proof(f.index).unwrap();
        let err = create_signal(
            &outsider,
            &someone_elses_path,
            f.group.root(),
            &f.pk,
            Fr::from_u64(1),
            b"spam",
            &mut f.rng,
        )
        .unwrap_err();
        assert!(matches!(err, ProveError::Unsatisfied(_)));
    }

    #[test]
    fn two_messages_same_epoch_share_nullifier_and_reveal_secret() {
        // the end-to-end spam-detection math at the signal level
        let mut f = fixture();
        let s1 = make_signal(&mut f, 7, b"first");
        let s2 = make_signal(&mut f, 7, b"second");
        assert_eq!(s1.internal_nullifier, s2.internal_nullifier);
        let sk = wakurln_crypto::shamir::recover_line_secret(&s1.share, &s2.share).unwrap();
        assert_eq!(sk, f.id.secret());
    }

    #[test]
    fn overhead_is_constant() {
        let mut f = fixture();
        let small = make_signal(&mut f, 1, b"x");
        let large = make_signal(&mut f, 2, &vec![0u8; 4096]);
        assert_eq!(small.overhead_bytes(), large.overhead_bytes());
        // a few hundred bytes, suitable for resource-restricted devices
        assert!(small.overhead_bytes() < 512);
    }
}
