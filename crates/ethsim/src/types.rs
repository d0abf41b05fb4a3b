//! Chain primitives: addresses, transactions, receipts, events.

use std::fmt;
use wakurln_crypto::field::Fr;
use wakurln_crypto::sha256::{to_hex, Sha256};

/// A 20-byte account address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// Deterministically derives an address from a label (test/simulation
    /// convenience — real accounts come from ECDSA keys, which the
    /// simulation does not need).
    pub fn from_label(label: &str) -> Address {
        let digest = Sha256::digest(label.as_bytes());
        let mut out = [0u8; 20];
        out.copy_from_slice(&digest[..20]);
        Address(out)
    }

    /// The all-zero "burn" address: value sent here is destroyed, which is
    /// how the contract burns a portion of a slashed member's stake.
    pub const BURN: Address = Address([0u8; 20]);
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", to_hex(&self.0))
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", to_hex(&self.0))
    }
}

/// Amount of simulated ether, in wei.
pub type Wei = u128;

/// One ether in wei.
pub const ETHER: Wei = 1_000_000_000_000_000_000;

/// Contract entry points callable by transactions.
#[derive(Clone, Debug, PartialEq)]
pub enum CallData {
    /// `MembershipContract::register(commitment)` — the paper's design:
    /// the contract stores only the ordered list of commitments.
    Register {
        /// The identity commitment `pk = H(sk)`.
        commitment: Fr,
    },
    /// `MembershipContract::slash(secret)` — delete a member by revealing
    /// their secret key; part of the stake is burnt, part rewarded.
    Slash {
        /// The revealed secret key.
        secret: Fr,
    },
}

/// A transaction waiting in the pool or included in a block.
#[derive(Clone, Debug, PartialEq)]
pub struct Transaction {
    /// Sender account.
    pub from: Address,
    /// Ether attached (stake for registrations).
    pub value: Wei,
    /// The contract call.
    pub call: CallData,
    /// Pool-assigned sequence number (set by the chain on submission).
    pub nonce: u64,
}

/// Execution status of a mined transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxStatus {
    /// Executed successfully.
    Success,
    /// Reverted with a reason; attached value was refunded.
    Reverted(String),
}

/// A mined transaction's receipt.
#[derive(Clone, Debug, PartialEq)]
pub struct Receipt {
    /// The transaction's pool nonce.
    pub nonce: u64,
    /// Block that included the transaction.
    pub block_number: u64,
    /// Gas consumed by execution.
    pub gas_used: u64,
    /// Success or revert.
    pub status: TxStatus,
}

/// Events emitted by the contracts into the chain's log.
#[derive(Clone, Debug, PartialEq)]
pub enum ChainEvent {
    /// A member registered on the membership (registry) contract.
    MemberRegistered {
        /// Position in the ordered commitment list == Merkle leaf index.
        index: u64,
        /// The registered commitment.
        commitment: Fr,
    },
    /// A member was slashed on the membership contract.
    MemberSlashed {
        /// The removed member's index.
        index: u64,
        /// The removed commitment.
        commitment: Fr,
        /// Who submitted the slashing transaction (receives the reward).
        slasher: Address,
        /// Wei burnt.
        burned: Wei,
        /// Wei rewarded to the slasher.
        rewarded: Wei,
    },
}

/// A log entry: an event plus where it happened.
#[derive(Clone, Debug, PartialEq)]
pub struct LoggedEvent {
    /// Block number of the enclosing block.
    pub block_number: u64,
    /// Block timestamp (simulated seconds).
    pub timestamp: u64,
    /// The event payload.
    pub event: ChainEvent,
}

/// A mined block.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// Height.
    pub number: u64,
    /// Simulated UNIX timestamp.
    pub timestamp: u64,
    /// Receipts of the included transactions, in execution order.
    pub receipts: Vec<Receipt>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_from_label_is_deterministic_and_distinct() {
        assert_eq!(Address::from_label("alice"), Address::from_label("alice"));
        assert_ne!(Address::from_label("alice"), Address::from_label("bob"));
    }

    #[test]
    fn address_display_is_hex() {
        let s = format!("{}", Address::BURN);
        assert_eq!(s, format!("0x{}", "00".repeat(20)));
    }
}
