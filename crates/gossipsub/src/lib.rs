//! # wakurln-gossipsub
//!
//! GossipSub v1.1 over the deterministic network simulator: mesh overlay
//! maintenance, eager push + lazy IHAVE/IWANT gossip, a sliding-window
//! message cache and v1.1 peer scoring.
//!
//! This is both the routing substrate of WAKU-RELAY / WAKU-RLN-RELAY and —
//! with scoring as the *only* defence — the baseline spam-protection
//! scheme the paper's §I critiques (experiment E6).
//!
//! * [`config`] — protocol and scoring parameters (including the
//!   liveness timeout behind churn repair),
//! * [`types`] — topics, message ids, RPC frames (incl. ping/pong
//!   keepalives), the message cache,
//! * [`score`] — the peer-score counters and [`PeerScore`], a read view
//!   of them in the node's neighbour table (one sorted row per peer),
//! * [`node`] — the protocol state machine with the [`Validator`] hook
//!   that WAKU-RLN-RELAY attaches its proof/epoch/nullifier checks to,
//!   plus mesh repair under churn (quiet peers are pinged, dead ones
//!   pruned and replaced at the next heartbeat).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
mod neighbours;
pub mod node;
pub mod score;
mod topics;
pub mod types;

pub use config::{GossipsubConfig, ScoringConfig};
pub use node::{
    AcceptAll, BatchDecision, Delivery, GossipsubNode, Observation, SubmitOutcome,
    ValidationResult, Validator,
};
pub use score::PeerScore;
pub use types::{MessageCache, MessageId, RawMessage, Rpc, Topic};
