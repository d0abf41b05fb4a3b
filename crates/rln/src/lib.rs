//! # wakurln-rln
//!
//! The Rate-Limiting Nullifier framework (the paper's §II preliminaries),
//! assembled from the crypto and zkSNARK substrates:
//!
//! * [`identity`] — member secrets and identity commitments,
//! * [`shared`] — the canonical off-chain membership group, shared
//!   copy-on-write, and the deltas it broadcasts to light members,
//! * [`signal`] — signal creation (`(m, ∅, φ, [sk], π)`) and verification,
//! * [`slashing`] — double-signal analysis and secret reconstruction.
//!
//! The routing integration (epochs, nullifier maps, gossip validation) is
//! the `waku-rln-relay` crate.
//!
//! # Example: one membership proof, one message, one epoch
//!
//! ```
//! use wakurln_rln::{Identity, SharedGroup, create_signal, verify_signal, SignalValidity};
//! use wakurln_zksnark::{RlnCircuit, SimSnark};
//! use wakurln_crypto::field::Fr;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let depth = 16;
//! let (pk, vk) = SimSnark::setup(RlnCircuit::new(depth), &mut rng);
//!
//! let mut group = SharedGroup::new(depth)?;
//! let id = Identity::random(&mut rng);
//! let (members, _delta) = group.register_batch(&[id.commitment()])?;
//! let index = members.start;
//!
//! let signal = create_signal(
//!     &id,
//!     &group.membership_proof(index)?,
//!     group.root(),
//!     &pk,
//!     Fr::from_u64(1_654_041_600), // the epoch
//!     b"hello anonymous world",
//!     &mut rng,
//! ).unwrap();
//!
//! assert_eq!(verify_signal(&vk, group.root(), &signal), SignalValidity::Valid);
//! # Ok::<(), wakurln_rln::GroupError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod identity;
pub mod shared;
pub mod signal;
pub mod slashing;

pub use identity::Identity;
pub use shared::{GroupError, SharedGroup};
pub use signal::{create_signal, verify_signal, Signal, SignalValidity};
pub use slashing::{
    analyze_double_signal, analyze_share_pair, build_evidence, DoubleSignalOutcome,
    SlashingEvidence,
};
