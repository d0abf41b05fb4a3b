//! Spam detection and secret reconstruction (the slashing math).
//!
//! When a routing peer sees two signals with the same `(∅, φ)` pair but
//! different share points, the member double-signaled: combining the two
//! shares reconstructs `sk`, which can then be submitted to the membership
//! contract to delete the member and claim the reward (§III "Routing and
//! Slashing").

use crate::identity::Identity;
use crate::signal::Signal;
use std::cell::Cell;
use wakurln_crypto::field::Fr;
use wakurln_crypto::shamir::{self, Share};
use wakurln_crypto::work::{self, Unit};

/// Sets in [`DERIVATIONS`] (`1 << DERIVATION_SET_BITS`), of two
/// entries each.
const DERIVATION_SET_BITS: u32 = 7;

/// The Poseidon outputs [`build_evidence`] derives from `(sk, ε)`.
#[derive(Clone, Copy)]
struct Derivation {
    secret: Fr,
    external_nullifier: Fr,
    /// `H(sk)`.
    commitment: Fr,
    /// `φ = H(H(sk, ε))`.
    internal_nullifier: Fr,
}

thread_local! {
    /// Memo of [`build_evidence`]'s derivations on this thread. Every
    /// routing peer that catches one double signal recovers the same `sk`
    /// for the same `ε`; the first pays the three Poseidon permutations
    /// and the others read them here. A hit compares the full `sk` and
    /// `ε`. Each set keeps the two pairs that mapped to it last, newest
    /// first: two spammers caught in one epoch whose pairs share a set
    /// then do not evict each other on every call, as they would in one
    /// slot.
    static DERIVATIONS: [[Cell<Option<Derivation>>; 2]; 1 << DERIVATION_SET_BITS] =
        const { [const { [const { Cell::new(None) }; 2] }; 1 << DERIVATION_SET_BITS] };
}

/// The [`DERIVATIONS`] set of `(sk, ε)`: the low limbs of both, mixed by
/// one multiply, top bits taken.
fn derivation_set(sk: Fr, external_nullifier: Fr) -> usize {
    let [s, ..] = sk.to_repr();
    let [e, ..] = external_nullifier.to_repr();
    ((s ^ e.rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - DERIVATION_SET_BITS))
        as usize
}

/// `(H(sk), H(H(sk, ε)))`, from [`DERIVATIONS`] or derived and stored
/// there as the set's newest entry.
fn derive(sk: Fr, external_nullifier: Fr) -> Derivation {
    let set = derivation_set(sk, external_nullifier);
    DERIVATIONS.with(|memo| {
        let [newest, older] = &memo[set];
        for entry in [newest, older] {
            if let Some(hit) = entry.get() {
                if hit.secret == sk && hit.external_nullifier == external_nullifier {
                    return hit;
                }
            }
        }
        let identity = Identity::from_secret(sk);
        let derived = Derivation {
            secret: sk,
            external_nullifier,
            commitment: identity.commitment(),
            internal_nullifier: identity.internal_nullifier_for(external_nullifier),
        };
        older.set(newest.replace(Some(derived)));
        derived
    })
}

/// The result of comparing two signals that share an internal nullifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
///
/// Each [`DoubleSignalOutcome::SecretRecovered`] counts one
/// [`Unit::Reconstruction`]:
///
/// ```
/// use wakurln_crypto::field::Fr;
/// use wakurln_crypto::shamir::Share;
/// use wakurln_crypto::work::{self, Unit};
/// use wakurln_rln::analyze_share_pair;
///
/// let share = |x: u64, y: u64| Share { x: Fr::from_u64(x), y: Fr::from_u64(y) };
/// let before = work::count(Unit::Reconstruction);
/// analyze_share_pair(&share(1, 5), &share(1, 5)); // a duplicate
/// analyze_share_pair(&share(1, 5), &share(2, 7)); // a double signal
/// assert_eq!(work::count(Unit::Reconstruction) - before, 1);
/// ```
pub fn analyze_share_pair(a: &Share, b: &Share) -> DoubleSignalOutcome {
    if a == b {
        return DoubleSignalOutcome::Duplicate;
    }
    match shamir::recover_line_secret(a, b) {
        Some(sk) => {
            work::add(Unit::Reconstruction, 1);
            DoubleSignalOutcome::SecretRecovered(sk)
        }
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
///
/// The derivation (three Poseidon permutations) runs once per thread per
/// `(sk, ε)` while it stays in a small per-thread memo; the nullifier
/// check runs on every call.
pub fn build_evidence(sk: Fr, reference: &Signal) -> Option<SlashingEvidence> {
    let derived = derive(sk, reference.external_nullifier);
    if derived.internal_nullifier != reference.internal_nullifier {
        return None;
    }
    Some(SlashingEvidence {
        revealed_secret: sk,
        commitment: derived.commitment,
        external_nullifier: reference.external_nullifier,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::SharedGroup;
    use crate::signal::create_signal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wakurln_zksnark::{RlnCircuit, SimSnark};

    fn two_signals(same_message: bool) -> (Signal, Signal, Identity) {
        let mut rng = StdRng::seed_from_u64(17);
        let depth = 10;
        let (pk, _vk) = SimSnark::setup(RlnCircuit::new(depth), &mut rng);
        let mut group = SharedGroup::new(depth).unwrap();
        let id = Identity::random(&mut rng);
        let index = group.register_batch(&[id.commitment()]).unwrap().0.start;
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

    /// `reference` with its nullifiers replaced by `(ε, φ)`: all that
    /// [`build_evidence`] reads of a signal.
    fn with_nullifiers(reference: &Signal, external: Fr, internal: Fr) -> Signal {
        let mut signal = reference.clone();
        signal.external_nullifier = external;
        signal.internal_nullifier = internal;
        signal
    }

    /// Evidence for `(sk, ε)` derived without the memo.
    fn uncached_evidence(sk: Fr, external: Fr) -> SlashingEvidence {
        let identity = Identity::from_secret(sk);
        SlashingEvidence {
            revealed_secret: sk,
            commitment: identity.commitment(),
            external_nullifier: external,
        }
    }

    #[test]
    fn memo_matches_uncached_derivation_across_collisions() {
        // two secrets each under more epochs than the memo has entries,
        // then as many fresh secrets under one epoch: by pigeonhole, two
        // keys that share a secret, and two that share an epoch, share a
        // set, whatever the set function
        let span = (2u64 << DERIVATION_SET_BITS) + 4;
        let (s1, _, _) = two_signals(false);
        let mut rng = StdRng::seed_from_u64(29);
        let mut keys = Vec::new();
        for _ in 0..2 {
            let sk = Fr::random(&mut rng);
            keys.extend((0..span).map(|e| (sk, Fr::from_u64(900 + e))));
        }
        keys.extend((0..span).map(|_| (Fr::random(&mut rng), Fr::from_u64(900))));
        let pairs: Vec<(Fr, Signal, SlashingEvidence)> = keys
            .into_iter()
            .map(|(sk, external)| {
                let phi = Identity::from_secret(sk).internal_nullifier_for(external);
                let signal = with_nullifiers(&s1, external, phi);
                (sk, signal, uncached_evidence(sk, external))
            })
            .collect();
        let n = pairs.len();
        // in order first, so a set that two keys of one run share holds
        // the earlier when the later is asked; then interleaved, by a
        // stride coprime to the count, each pair asked twice in a row and
        // once beside a far neighbour
        let in_order = 0..n;
        let interleaved = (0..n).flat_map(|step| {
            let i = step * 97 % n;
            [i, i, (i + n / 2) % n]
        });
        for k in in_order.chain(interleaved) {
            let (sk, signal, expected) = &pairs[k];
            assert_eq!(build_evidence(*sk, signal), Some(*expected));
        }
    }

    #[test]
    fn memo_keeps_one_secret_apart_across_epochs() {
        let (s1, _, id) = two_signals(false);
        let sk = id.secret();
        let (e1, e2) = (Fr::from_u64(71), Fr::from_u64(72));
        let (phi1, phi2) = (id.internal_nullifier_for(e1), id.internal_nullifier_for(e2));
        assert_ne!(phi1, phi2);
        for _ in 0..2 {
            for (external, phi) in [(e1, phi1), (e2, phi2)] {
                let signal = with_nullifiers(&s1, external, phi);
                assert_eq!(
                    build_evidence(sk, &signal),
                    Some(uncached_evidence(sk, external))
                );
            }
        }
        // each epoch's φ explains only its own epoch
        assert!(build_evidence(sk, &with_nullifiers(&s1, e2, phi1)).is_none());
        assert!(build_evidence(sk, &with_nullifiers(&s1, e1, phi2)).is_none());
    }

    #[test]
    fn memo_hit_still_checks_the_nullifier() {
        let (s1, _, id) = two_signals(false);
        assert!(build_evidence(id.secret(), &s1).is_some());
        let forged = with_nullifiers(&s1, s1.external_nullifier, s1.internal_nullifier + Fr::ONE);
        assert!(build_evidence(id.secret(), &forged).is_none());
        assert!(build_evidence(id.secret(), &s1).is_some());
    }

    #[test]
    fn memo_keeps_two_pairs_that_share_a_set() {
        // two spammers caught in one epoch, their pairs in one set, each
        // asked in turn by peer after peer: after the first two misses
        // every call hits
        let (s1, _, _) = two_signals(false);
        let external = Fr::from_u64(5);
        let first = Fr::from_u64(0x5e75_0001);
        let second = (0x5e75_0002..)
            .map(Fr::from_u64)
            .find(|&sk| derivation_set(sk, external) == derivation_set(first, external))
            .unwrap();
        let cases = [first, second].map(|sk| {
            let phi = Identity::from_secret(sk).internal_nullifier_for(external);
            let signal = with_nullifiers(&s1, external, phi);
            (sk, signal, uncached_evidence(sk, external))
        });
        let before = work::count(Unit::PoseidonPermutation);
        for _ in 0..3 {
            for (sk, signal, expected) in &cases {
                assert_eq!(build_evidence(*sk, signal), Some(*expected));
            }
        }
        assert_eq!(work::count(Unit::PoseidonPermutation) - before, 2 * 3);
    }

    #[test]
    fn memo_hit_runs_no_permutation() {
        let (s1, _, _) = two_signals(false);
        // a secret no other test derives, so this thread's memo misses it
        let sk = Fr::from_u64(0x5eed_f00d);
        let external = Fr::from_u64(3);
        let phi = Identity::from_secret(sk).internal_nullifier_for(external);
        let signal = with_nullifiers(&s1, external, phi);
        let before = work::count(Unit::PoseidonPermutation);
        assert!(build_evidence(sk, &signal).is_some());
        let cold = work::count(Unit::PoseidonPermutation) - before;
        assert!(build_evidence(sk, &signal).is_some());
        let warm = work::count(Unit::PoseidonPermutation) - before - cold;
        assert_eq!((cold, warm), (3, 0));
    }

    #[test]
    #[should_panic(expected = "signals must collide")]
    fn analyze_requires_nullifier_collision() {
        let mut rng = StdRng::seed_from_u64(19);
        let depth = 10;
        let (pk, _vk) = SimSnark::setup(RlnCircuit::new(depth), &mut rng);
        let mut group = SharedGroup::new(depth).unwrap();
        let id = Identity::random(&mut rng);
        let index = group.register_batch(&[id.commitment()]).unwrap().0.start;
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
        let mut group = SharedGroup::new(depth).unwrap();
        let id = Identity::random(&mut rng);
        let index = group.register_batch(&[id.commitment()]).unwrap().0.start;
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
