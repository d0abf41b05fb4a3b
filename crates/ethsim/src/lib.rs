//! # wakurln-ethsim
//!
//! A simulated Ethereum-like blockchain for the WAKU-RLN-RELAY
//! reproduction. The paper uses the real chain for exactly two things —
//! a **staked membership registry with slashing** and a **gas-cost
//! yardstick** — so this crate models block production, balances, an
//! EVM-style gas schedule, contract execution and an event log, and
//! nothing else (see DESIGN.md §2).
//!
//! * [`gas`] — gas schedule and metering,
//! * [`types`] — addresses, transactions, receipts, events,
//! * [`contracts`] — the membership registry (paper design) and the
//!   on-chain tree (original-RLN baseline),
//! * [`chain`] — block production, execution, event subscriptions.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chain;
pub mod contracts;
pub mod gas;
pub mod types;

pub use chain::{Chain, ChainConfig, ChainError};
pub use contracts::{MembershipContract, OnChainTreeContract};
