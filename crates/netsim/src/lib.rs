//! # wakurln-netsim
//!
//! A deterministic discrete-event network simulator: the substrate on
//! which the reproduction's GossipSub / WAKU-RELAY / WAKU-RLN-RELAY
//! protocols run, replacing the authors' live libp2p deployment with a
//! reproducible environment (DESIGN.md §2).
//!
//! * [`sim`] — event queue, nodes, contexts, deterministic execution,
//!   churn support (late joins via [`sim::Network::add_node`], crashes
//!   via [`sim::Network::remove_node`], crash→restart via
//!   [`sim::Network::restore_node`]) and fault injection (partitions via
//!   [`sim::Network::set_partition`], link-degradation bursts via
//!   [`sim::Network::set_degradation`]),
//! * [`scheduler`] — the deterministic round loop: events sharing a
//!   timestamp are popped as one batch and run in sequence order, each
//!   node drawing from its own seed-derived RNG stream,
//! * [`bytes`] — `Arc`-backed shared payload bytes (clone-free gossip
//!   forwarding with `O(1)` wire-size accounting),
//! * [`latency`] — the uniform one-way link delay every send samples
//!   (loss and degradation live on [`sim::Network`]),
//! * [`topology`] — bootstrap peer-set generators,
//! * [`metrics`] — global counters and per-node CPU and wire-byte rows.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bytes;
pub mod latency;
pub mod metrics;
pub mod scheduler;
pub mod sim;
pub mod topology;
mod wheel;

pub use bytes::Bytes;
pub use latency::UniformLatency;
pub use metrics::Metrics;
pub use scheduler::stream_seed;
pub use sim::{Context, Network, Node, NodeId, Payload, QuiescenceOutcome};
