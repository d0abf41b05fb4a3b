//! # wakurln-relay
//!
//! WAKU-RELAY's envelope: the anonymous gossip-based pub/sub protocol that
//! WAKU-RLN-RELAY extends (paper §I) is GossipSub plus this PII-free
//! [`WakuMessage`] — no signatures, no sender ids, no sequence numbers.
//! Receiver anonymity comes from the gossip routing itself; sender
//! anonymity from the envelope. A relay peer is a
//! `wakurln_gossipsub::GossipsubNode` subscribed to
//! [`DEFAULT_PUBSUB_TOPIC`] whose payloads are encoded `WakuMessage`s.
//!
//! * [`message`] — the anonymized envelope and its canonical wire codec.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod message;

pub use message::{CodecError, WakuMessage};

/// The default WAKU pub/sub topic (all peers of one network share it; the
/// paper's Figure 1 groups RLN membership per pub/sub topic).
pub const DEFAULT_PUBSUB_TOPIC: &str = "/waku/2/default-waku/proto";
