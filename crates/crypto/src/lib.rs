//! # wakurln-crypto
//!
//! Cryptographic substrate for the WAKU-RLN-RELAY reproduction
//! (*Privacy-Preserving Spam-Protected Gossip-Based Routing*, ICDCS 2022).
//!
//! Everything here is implemented from scratch on top of `core`/`std`:
//!
//! * [`field`] — the BN254 scalar field `Fr` (Montgomery arithmetic),
//! * [`poseidon`] — the Poseidon hash used for all in-circuit hashing,
//! * [`sha256`] — SHA-256 for message ids, the simulated SNARK binding,
//!   `x = H(m)`, `ethsim` and the PoW baseline (on SHA-NI where present),
//! * [`digest_hash`] — the table hasher for keys that are SHA-256 digests,
//! * [`shamir`] — Shamir secret sharing (the RLN slashing mechanism),
//! * [`merkle`] — membership Merkle trees: full, append-only frontier, and
//!   the reference-\[9\] light-member tree with O(depth) storage,
//! * [`work`] — exact per-thread counts of the work above.
//!
//! # Quick tour
//!
//! ```
//! use wakurln_crypto::{field::Fr, poseidon, shamir, merkle::FullMerkleTree};
//!
//! // an RLN identity
//! let sk = Fr::from_u64(42);
//! let pk = poseidon::hash1(sk);
//!
//! // membership
//! let mut tree = FullMerkleTree::new(20)?;
//! let index = tree.append(pk)?;
//! let proof = tree.proof(index)?;
//! assert!(proof.verify(tree.root(), pk));
//!
//! // the rate-limiting secret share
//! let epoch = Fr::from_u64(1_654_041_600);
//! let a1 = poseidon::hash2(sk, epoch);
//! let share = shamir::share_on_line(sk, a1, poseidon::hash_bytes_to_field(b"hello"));
//! let share2 = shamir::share_on_line(sk, a1, poseidon::hash_bytes_to_field(b"world"));
//! // double-signaling reveals the secret:
//! assert_eq!(shamir::recover_line_secret(&share, &share2), Some(sk));
//! # Ok::<(), wakurln_crypto::merkle::MerkleError>(())
//! ```

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod digest_hash;
pub mod field;
pub mod merkle;
pub mod poseidon;
pub mod sha256;
pub mod shamir;
pub mod work;

pub use field::Fr;
