//! # waku-rln — workspace facade
//!
//! Umbrella crate for the reproduction of *Privacy-Preserving
//! Spam-Protected Gossip-Based Routing* (ICDCS 2022): re-exports every
//! layer under one roof so examples and downstream users can depend on a
//! single crate.
//!
//! * [`crypto`] — field, Poseidon, SHA-256, Shamir, Merkle trees
//! * [`zksnark`] — R1CS, the RLN circuit, the simulated SNARK backend
//! * [`rln`] — identities, groups, signals, slashing math
//! * [`model`] — the pure model-checked protocol core (`step`, trace
//!   fuzzer, corpus format)
//! * [`ethsim`] — the simulated chain and membership contract
//! * [`netsim`] — the deterministic discrete-event network simulator
//! * [`gossipsub`] — GossipSub v1.1 with peer scoring
//! * [`relay`] — WAKU-RELAY (anonymous pub/sub)
//! * [`core`] — WAKU-RLN-RELAY itself (the paper's contribution)
//! * [`baselines`] — PoW and peer-scoring comparators, Sybil cost table
//! * [`scenarios`] — the declarative scenario engine (thousand-node
//!   adversarial simulations, `simctl`)
//!
//! # Example
//!
//! ```
//! use waku_rln::core::{Testbed, TestbedConfig};
//!
//! let mut testbed = Testbed::build(TestbedConfig {
//!     n_peers: 5,
//!     tree_depth: 10,
//!     degree: 3,
//!     ..Default::default()
//! });
//! testbed.run(8_000);
//! testbed.publish(0, b"hi").unwrap();
//! testbed.run(15_000);
//! assert!(testbed.delivery_count(b"hi", 0) >= 3);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use waku_rln_relay as core;
pub use wakurln_baselines as baselines;
pub use wakurln_crypto as crypto;
pub use wakurln_ethsim as ethsim;
pub use wakurln_gossipsub as gossipsub;
pub use wakurln_model as model;
pub use wakurln_netsim as netsim;
pub use wakurln_relay as relay;
pub use wakurln_rln as rln;
pub use wakurln_scenarios as scenarios;
pub use wakurln_zksnark as zksnark;

// Full-stack checks of §III's attacks and of E6's RLN row.
mod attacks;
mod comparison;

// ---------------------------------------------------------------------------
// Documentation smoke: every fenced Rust block in the workspace-level
// markdown runs under `cargo test --doc`, so the prose cannot drift from
// the API (the CI docs job builds these alongside `rustdoc -D warnings`,
// which already fails on broken intra-doc links).
// ---------------------------------------------------------------------------

/// Compiled copy of `README.md` (doctest-only).
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// Compiled copy of `docs/ARCHITECTURE.md` (doctest-only).
#[cfg(doctest)]
#[doc = include_str!("../docs/ARCHITECTURE.md")]
pub struct ArchitectureDoctests;

/// Compiled copy of `docs/SCENARIOS.md` (doctest-only).
#[cfg(doctest)]
#[doc = include_str!("../docs/SCENARIOS.md")]
pub struct ScenariosDoctests;

/// Compiled copy of `docs/MODEL.md` (doctest-only).
#[cfg(doctest)]
#[doc = include_str!("../docs/MODEL.md")]
pub struct ModelDoctests;
