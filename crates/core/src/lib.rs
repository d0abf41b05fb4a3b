//! # waku-rln-relay
//!
//! The paper's primary contribution: **WAKU-RLN-RELAY**, an anonymous
//! peer-to-peer gossip-based routing protocol with privacy-preserving,
//! cryptoeconomically enforced spam protection
//! (*Privacy-Preserving Spam-Protected Gossip-Based Routing*, ICDCS 2022).
//!
//! Layered on the workspace substrates (the epoch arithmetic and the
//! nullifier map are the model crate's, re-exported as [`EpochScheme`]
//! and [`NullifierMap`]; the WAKU envelope is the relay crate's,
//! re-exported as [`WakuMessage`] and [`DEFAULT_PUBSUB_TOPIC`]):
//!
//! * [`codec`] — the RLN-signal wire format inside WAKU messages,
//! * [`validator`] — the §III routing validation pipeline (proof → epoch →
//!   nullifier map), pluggable into GossipSub,
//! * [`pipeline`] — the staged, epoch-sharded batch pipeline that
//!   amortizes proof verification (dedup and verdict caching before
//!   zkSNARK work) while preserving the serial validator's outcomes,
//! * [`node`] — the full peer: a GossipSub node carrying WAKU envelopes,
//!   light membership tree, rate-limited publishing (§III "Publishing"),
//!   slashing-event application, and the censorship-eclipse adversary
//!   mode used by the scenario library,
//! * [`harness`] — a whole-network testbed wiring peers to the simulated
//!   membership contract (§III registration, group sync, slashing
//!   round-trip) with churn support (crashes, late joins). Scenario
//!   composition on top of the testbed — topology, node mixes, churn
//!   schedules, attack timing — lives in the `wakurln-scenarios` crate;
//!   tests and `simctl` drive the harness through that engine.
//!
//! # End-to-end example
//!
//! ```
//! use waku_rln_relay::harness::{Testbed, TestbedConfig};
//!
//! let mut testbed = Testbed::build(TestbedConfig {
//!     n_peers: 6,
//!     tree_depth: 10,
//!     degree: 3,
//!     ..Default::default()
//! });
//! testbed.run(8_000); // let gossip meshes form
//! testbed.publish(0, b"anonymous hello").unwrap();
//! testbed.run(15_000);
//! assert!(testbed.delivery_count(b"anonymous hello", 0) >= 4);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod codec;
pub mod harness;
pub mod node;
pub mod pipeline;
pub mod validator;

pub use codec::{decode_signal, encode_signal, SignalCodecError, WireSignal};
pub use harness::{PhaseTimings, Testbed, TestbedConfig, TICK_MS};
pub use node::{PublishError, RlnRelayNode};
pub use pipeline::{PipelineConfig, PipelineStats};
pub use validator::{CostModel, RlnValidator, SpamDetection, ValidationStats};
pub use wakurln_crypto::merkle::MAX_DEPTH as MAX_TREE_DEPTH;
pub use wakurln_model::{EpochScheme, NullifierMap, NullifierOutcome};
pub use wakurln_relay::{WakuMessage, DEFAULT_PUBSUB_TOPIC};
