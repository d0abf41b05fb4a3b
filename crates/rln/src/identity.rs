//! RLN member identities.

use rand::RngCore;
use wakurln_crypto::field::Fr;
use wakurln_crypto::poseidon;

/// An RLN identity: the secret key `sk` and its derived public key
/// (identity commitment) `pk = H(sk)`.
///
/// The paper (§II): "The group of authorized users is represented by a
/// Merkle tree called membership tree whose leaves are members public keys
/// pk. […] pks are cryptographic hash of sks."
///
/// # Examples
///
/// ```
/// use wakurln_rln::Identity;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let id = Identity::random(&mut rng);
/// assert_eq!(id.commitment(), Identity::from_secret(id.secret()).commitment());
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Identity {
    sk: Fr,
    pk: Fr,
}

impl Identity {
    /// Samples a fresh identity.
    pub fn random<R: RngCore + ?Sized>(rng: &mut R) -> Identity {
        Identity::from_secret(Fr::random(rng))
    }

    /// Rebuilds an identity from a known secret key.
    pub fn from_secret(sk: Fr) -> Identity {
        Identity {
            sk,
            pk: poseidon::hash1(sk),
        }
    }

    /// The secret key. Handle with care: revealing it (or double-signaling,
    /// which leaks it) makes the member slashable.
    pub fn secret(&self) -> Fr {
        self.sk
    }

    /// The public identity commitment `pk = H(sk)` — the membership-tree
    /// leaf and the value registered on the contract.
    pub fn commitment(&self) -> Fr {
        self.pk
    }

    /// The epoch-bound Shamir slope `a1 = H(sk, external_nullifier)`.
    pub fn slope_for(&self, external_nullifier: Fr) -> Fr {
        poseidon::hash2(self.sk, external_nullifier)
    }

    /// The internal nullifier `φ = H(H(sk, ∅))` for an external nullifier.
    pub fn internal_nullifier_for(&self, external_nullifier: Fr) -> Fr {
        poseidon::hash1(self.slope_for(external_nullifier))
    }

    /// Serialized secret-key size in bytes (the paper's §IV: "Each peer
    /// persists a 32B public and secret keys").
    pub const SECRET_BYTES: usize = 32;
    /// Serialized public-key size in bytes.
    pub const PUBLIC_BYTES: usize = 32;
}

impl std::fmt::Debug for Identity {
    /// Deliberately omits the secret key.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Identity")
            .field("pk", &self.pk)
            .field("sk", &"<redacted>")
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn commitment_is_poseidon_of_secret() {
        let id = Identity::from_secret(Fr::from_u64(5));
        assert_eq!(id.commitment(), poseidon::hash1(Fr::from_u64(5)));
    }

    #[test]
    fn random_identities_are_distinct() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Identity::random(&mut rng);
        let b = Identity::random(&mut rng);
        assert_ne!(a.commitment(), b.commitment());
        assert_ne!(a.secret(), b.secret());
    }

    #[test]
    fn nullifier_changes_per_epoch_but_not_per_message() {
        let id = Identity::from_secret(Fr::from_u64(7));
        let n1 = id.internal_nullifier_for(Fr::from_u64(100));
        let n2 = id.internal_nullifier_for(Fr::from_u64(100));
        let n3 = id.internal_nullifier_for(Fr::from_u64(101));
        assert_eq!(n1, n2);
        assert_ne!(n1, n3);
    }

    #[test]
    fn nullifier_differs_between_identities() {
        let a = Identity::from_secret(Fr::from_u64(1));
        let b = Identity::from_secret(Fr::from_u64(2));
        assert_ne!(
            a.internal_nullifier_for(Fr::from_u64(5)),
            b.internal_nullifier_for(Fr::from_u64(5))
        );
    }

    #[test]
    fn debug_redacts_secret() {
        let id = Identity::from_secret(Fr::from_u64(5));
        let s = format!("{id:?}");
        assert!(s.contains("<redacted>"));
        assert!(!s.contains(&format!("{}", Fr::from_u64(5))));
    }

    #[test]
    fn key_sizes_match_paper() {
        let id = Identity::from_secret(Fr::from_u64(5));
        assert_eq!(id.secret().to_bytes_le().len(), Identity::SECRET_BYTES);
        assert_eq!(id.commitment().to_bytes_le().len(), Identity::PUBLIC_BYTES);
    }
}
