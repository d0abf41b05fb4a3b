//! # wakurln-baselines
//!
//! The comparator schemes from the paper's §I:
//!
//! * [`pow`] — Proof-of-Work spam protection (Whisper / EIP-627 style),
//!   with device profiles that expose its resource-discrimination problem,
//! * [`comparison`] — the relay-only rows of E6: one spam scenario under
//!   peer scoring and under PoW, comparable outcome rows, and the Sybil
//!   cost table.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod comparison;
pub mod pow;

pub use comparison::{
    run_peer_scoring, run_pow, sybil_cost, PowScenario, Scenario, SchemeOutcome, SybilCost,
};
pub use pow::{seal, verify, DeviceProfile, PowEnvelope, PowValidator, DEVICES};
