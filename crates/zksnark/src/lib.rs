//! # wakurln-zksnark
//!
//! The zero-knowledge layer of the WAKU-RLN-RELAY reproduction: a real
//! R1CS constraint system and the actual RLN circuit (Poseidon hashing,
//! Merkle membership, Shamir-share correctness), proved and verified by a
//! simulated Groth16-shaped backend ([`snark::SimSnark`]).
//!
//! * [`r1cs`] — linear combinations, the constraint system gadgets write
//!   to, and the compact constraint matrices it compiles to,
//! * [`gadgets`] — Poseidon / Merkle / boolean circuit gadgets (the
//!   compiler's front-end),
//! * [`circuit`] — the RLN statement from the paper's §II, compiled once
//!   per tree depth,
//! * [`snark`] — setup / prove / verify with constant-size proofs.
//!
//! See the [`snark`] module docs for exactly which SNARK properties are
//! real versus simulated, and `docs/ARCHITECTURE.md` for where the crate
//! sits in the stack.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod circuit;
pub mod gadgets;
pub mod r1cs;
pub mod snark;

pub use circuit::{RlnCircuit, RlnPublicInputs, RlnWitness};
pub use snark::{Proof, ProveError, ProvingKey, SimSnark, VerifyingKey};
