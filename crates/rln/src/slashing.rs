//! Spam detection and secret reconstruction (the slashing math).
//!
//! When a routing peer sees two signals with the same `(∅, φ)` pair but
//! different share points, the member double-signaled: combining the two
//! shares reconstructs `sk`, which can then be submitted to the membership
//! contract to delete the member and claim the reward (§III "Routing and
//! Slashing").

use crate::identity::Identity;
use crate::signal::Signal;
use serde::{Deserialize, Serialize};
use wakurln_crypto::field::Fr;
use wakurln_crypto::shamir::{self, Share};

/// The result of comparing two signals that share an internal nullifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DoubleSignalOutcome {
    /// The signals are byte-identical duplicates (normal gossip behaviour,
    /// not spam).
    Duplicate,
    /// Same evaluation point with a different `y`: inconsistent shares.
    /// This cannot be produced by a proof-carrying signal pair for one
    /// `sk` (the circuit pins `y` to `x`), so it indicates forged input.
    InconsistentShares,
    /// Genuine double-signaling: the reconstructed secret key.
    SecretRecovered(Fr),
}

/// Evidence of a slashing, ready to submit to the membership contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlashingEvidence {
    /// The reconstructed secret key.
    pub revealed_secret: Fr,
    /// The commitment `H(sk)` it corresponds to (what the contract looks
    /// up in its registry).
    pub commitment: Fr,
    /// The epoch in which the double-signaling happened.
    pub external_nullifier: Fr,
}

/// Attempts secret reconstruction from two signals with equal internal
/// nullifiers.
///
/// # Panics
///
/// Panics if the two signals do not share `(external, internal)`
/// nullifiers — callers detect the collision via the nullifier map first.
pub fn analyze_double_signal(a: &Signal, b: &Signal) -> DoubleSignalOutcome {
    assert_eq!(
        (a.external_nullifier, a.internal_nullifier),
        (b.external_nullifier, b.internal_nullifier),
        "signals must collide on both nullifiers"
    );
    analyze_share_pair(&a.share, &b.share)
}

/// [`analyze_double_signal`] on the two shares alone, for a caller that
/// already knows both came with the same `(external, internal)`
/// nullifiers — a nullifier-map hit, which keys on exactly that pair.
pub fn analyze_share_pair(a: &Share, b: &Share) -> DoubleSignalOutcome {
    if a == b {
        return DoubleSignalOutcome::Duplicate;
    }
    match shamir::recover_line_secret(a, b) {
        Some(sk) => DoubleSignalOutcome::SecretRecovered(sk),
        None => DoubleSignalOutcome::InconsistentShares,
    }
}

/// Builds contract-ready evidence from a recovered secret, verifying that
/// the reconstruction is internally consistent: the secret must re-derive
/// the observed internal nullifier for this epoch.
///
/// Returns `None` if the secret does not explain the nullifier (which
/// would mean the colliding signals were forged — impossible for signals
/// whose proofs verified, asserted by tests).
pub fn build_evidence(sk: Fr, reference: &Signal) -> Option<SlashingEvidence> {
    let identity = Identity::from_secret(sk);
    if identity.internal_nullifier_for(reference.external_nullifier) != reference.internal_nullifier
    {
        return None;
    }
    Some(SlashingEvidence {
        revealed_secret: sk,
        commitment: identity.commitment(),
        external_nullifier: reference.external_nullifier,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::RlnGroup;
    use crate::signal::create_signal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wakurln_zksnark::{RlnCircuit, SimSnark};

    fn two_signals(same_message: bool) -> (Signal, Signal, Identity) {
        let mut rng = StdRng::seed_from_u64(17);
        let depth = 10;
        let (pk, _vk) = SimSnark::setup(RlnCircuit::new(depth), &mut rng);
        let mut group = RlnGroup::new(depth).unwrap();
        let id = Identity::random(&mut rng);
        let index = group.register(id.commitment()).unwrap();
        let proof = group.membership_proof(index).unwrap();
        let epoch = Fr::from_u64(55);
        let s1 =
            create_signal(&id, &proof, group.root(), &pk, epoch, b"msg-one", &mut rng).unwrap();
        let m2: &[u8] = if same_message { b"msg-one" } else { b"msg-two" };
        let s2 = create_signal(&id, &proof, group.root(), &pk, epoch, m2, &mut rng).unwrap();
        (s1, s2, id)
    }

    #[test]
    fn double_signal_recovers_secret() {
        let (s1, s2, id) = two_signals(false);
        match analyze_double_signal(&s1, &s2) {
            DoubleSignalOutcome::SecretRecovered(sk) => assert_eq!(sk, id.secret()),
            other => panic!("expected recovery, got {other:?}"),
        }
    }

    #[test]
    fn share_pair_agrees_with_the_signal_pair() {
        let (s1, s2, _) = two_signals(false);
        assert_eq!(
            analyze_share_pair(&s1.share, &s2.share),
            analyze_double_signal(&s1, &s2)
        );
        assert_eq!(
            analyze_share_pair(&s1.share, &s1.share),
            DoubleSignalOutcome::Duplicate
        );
        let off_line = Share {
            x: s1.share.x,
            y: s1.share.y + Fr::ONE,
        };
        assert_eq!(
            analyze_share_pair(&s1.share, &off_line),
            DoubleSignalOutcome::InconsistentShares
        );
    }

    #[test]
    fn identical_message_is_duplicate_not_spam() {
        let (s1, s2, _) = two_signals(true);
        assert_eq!(
            analyze_double_signal(&s1, &s2),
            DoubleSignalOutcome::Duplicate
        );
    }

    #[test]
    fn evidence_is_contract_ready() {
        let (s1, s2, id) = two_signals(false);
        let sk = match analyze_double_signal(&s1, &s2) {
            DoubleSignalOutcome::SecretRecovered(sk) => sk,
            other => panic!("expected recovery, got {other:?}"),
        };
        let ev = build_evidence(sk, &s1).unwrap();
        assert_eq!(ev.commitment, id.commitment());
        assert_eq!(ev.revealed_secret, id.secret());
        assert_eq!(ev.external_nullifier, s1.external_nullifier);
    }

    #[test]
    fn evidence_rejects_wrong_secret() {
        let (s1, _, id) = two_signals(false);
        assert!(build_evidence(id.secret() + Fr::ONE, &s1).is_none());
    }

    #[test]
    #[should_panic(expected = "signals must collide")]
    fn analyze_requires_nullifier_collision() {
        let mut rng = StdRng::seed_from_u64(19);
        let depth = 10;
        let (pk, _vk) = SimSnark::setup(RlnCircuit::new(depth), &mut rng);
        let mut group = RlnGroup::new(depth).unwrap();
        let id = Identity::random(&mut rng);
        let index = group.register(id.commitment()).unwrap();
        let proof = group.membership_proof(index).unwrap();
        let s1 = create_signal(
            &id,
            &proof,
            group.root(),
            &pk,
            Fr::from_u64(1),
            b"a",
            &mut rng,
        )
        .unwrap();
        let s2 = create_signal(
            &id,
            &proof,
            group.root(),
            &pk,
            Fr::from_u64(2),
            b"b",
            &mut rng,
        )
        .unwrap();
        let _ = analyze_double_signal(&s1, &s2);
    }

    #[test]
    fn honest_single_message_per_epoch_leaks_nothing_reconstructible() {
        // one signal per epoch: shares across different epochs lie on
        // different lines, so combining them does NOT yield the secret
        let mut rng = StdRng::seed_from_u64(23);
        let depth = 10;
        let (pk, _vk) = SimSnark::setup(RlnCircuit::new(depth), &mut rng);
        let mut group = RlnGroup::new(depth).unwrap();
        let id = Identity::random(&mut rng);
        let index = group.register(id.commitment()).unwrap();
        let proof = group.membership_proof(index).unwrap();
        let s1 = create_signal(
            &id,
            &proof,
            group.root(),
            &pk,
            Fr::from_u64(1),
            b"a",
            &mut rng,
        )
        .unwrap();
        let s2 = create_signal(
            &id,
            &proof,
            group.root(),
            &pk,
            Fr::from_u64(2),
            b"b",
            &mut rng,
        )
        .unwrap();
        let wrong = shamir::recover_line_secret(&s1.share, &s2.share).unwrap();
        assert_ne!(wrong, id.secret());
    }
}
