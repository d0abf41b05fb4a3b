//! The simulated blockchain: block production, transaction execution,
//! balances and the event log peers subscribe to.

use crate::contracts::{BalanceEnv, MembershipContract};
use crate::gas::{self, GasMeter};
use crate::types::{Address, Block, CallData, LoggedEvent, Receipt, Transaction, TxStatus, Wei};
use std::collections::HashMap;

/// Chain configuration.
#[derive(Clone, Copy, Debug)]
pub struct ChainConfig {
    /// Seconds between blocks (Ethereum mainnet ≈ 12 s on the paper's
    /// timeline).
    pub block_interval: u64,
    /// Stake required by the membership contract, in wei.
    pub stake_amount: Wei,
    /// Percentage of a slashed stake that is burnt (rest rewards the
    /// slasher).
    pub burn_percent: u8,
    /// Unused: the chain deploys only the membership registry and reads
    /// nothing from this. Kept only because the out-of-workspace
    /// `benchmark/` package still sets it; goes once that package stops
    /// doing so.
    pub tree_depth: usize,
}

impl Default for ChainConfig {
    fn default() -> ChainConfig {
        ChainConfig {
            block_interval: 12,
            stake_amount: crate::types::ETHER,
            burn_percent: 50,
            tree_depth: 20,
        }
    }
}

/// Errors from chain interactions (distinct from in-EVM reverts, which are
/// reported through receipts).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChainError {
    /// The sender's balance cannot cover the attached value.
    InsufficientBalance {
        /// Sender account.
        from: Address,
        /// Balance the sender holds.
        balance: Wei,
        /// Value the transaction tried to attach.
        needed: Wei,
    },
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::InsufficientBalance {
                from,
                balance,
                needed,
            } => write!(f, "{from} holds {balance} wei but tried to attach {needed}"),
        }
    }
}

impl std::error::Error for ChainError {}

#[derive(Clone)]
struct Balances {
    accounts: HashMap<Address, Wei>,
}

impl BalanceEnv for Balances {
    fn credit(&mut self, to: Address, amount: Wei) {
        *self.accounts.entry(to).or_default() += amount;
    }
}

/// The simulated chain.
///
/// Time is externally driven (the discrete-event network simulator owns
/// the clock): callers move time forward with [`Chain::advance_to`], which
/// mines pending transactions at each block boundary.
///
/// # Examples
///
/// ```
/// use wakurln_ethsim::{Chain, ChainConfig, types::{Address, CallData}};
/// use wakurln_crypto::{field::Fr, poseidon};
///
/// let mut chain = Chain::new(ChainConfig::default());
/// let alice = Address::from_label("alice");
/// chain.fund(alice, 10 * wakurln_ethsim::types::ETHER);
///
/// let sk = Fr::from_u64(7);
/// chain.submit(alice, chain.config().stake_amount, CallData::Register {
///     commitment: poseidon::hash1(sk),
/// }).unwrap();
///
/// chain.advance_to(12); // one block interval later…
/// assert_eq!(chain.membership().active_count(), 1);
/// ```
#[derive(Clone)]
pub struct Chain {
    config: ChainConfig,
    time: u64,
    next_block_time: u64,
    next_nonce: u64,
    pending: Vec<Transaction>,
    blocks: Vec<Block>,
    balances: Balances,
    membership: MembershipContract,
    events: Vec<LoggedEvent>,
    /// Fault injection: until this timestamp (seconds), `Register` calls
    /// revert at mining time — modelling a registration-service outage
    /// (RPC endpoint down, contract paused). 0 = no outage.
    registration_closed_until: u64,
}

impl Chain {
    /// Creates a chain at time 0 with the membership contract deployed.
    ///
    /// # Panics
    ///
    /// Panics if `block_interval` is 0.
    pub fn new(config: ChainConfig) -> Chain {
        assert!(config.block_interval > 0, "block interval must be positive");
        Chain {
            config,
            time: 0,
            next_block_time: config.block_interval,
            next_nonce: 0,
            pending: Vec::new(),
            blocks: Vec::new(),
            balances: Balances {
                accounts: HashMap::new(),
            },
            membership: MembershipContract::new(config.stake_amount, config.burn_percent),
            events: Vec::new(),
            registration_closed_until: 0,
        }
    }

    /// Opens a registration-contract outage window: every `Register`
    /// transaction mined strictly before `until` (seconds) reverts (and
    /// refunds its escrowed stake through the normal revert path).
    /// Resync/recovery layers observe the outage through
    /// [`Chain::registration_outage_active`] and retry after it lifts.
    pub fn set_registration_outage(&mut self, until: u64) {
        self.registration_closed_until = until;
    }

    /// Whether the registration contract is currently inside an injected
    /// outage window.
    pub fn registration_outage_active(&self) -> bool {
        self.time < self.registration_closed_until
    }

    /// The configuration this chain runs with.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> u64 {
        self.time
    }

    /// Number of mined blocks.
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Credits an account (genesis funding).
    pub fn fund(&mut self, account: Address, amount: Wei) {
        self.balances.credit(account, amount);
    }

    /// An account's balance.
    pub fn balance_of(&self, account: Address) -> Wei {
        self.balances.accounts.get(&account).copied().unwrap_or(0)
    }

    /// Read access to the membership registry contract.
    pub fn membership(&self) -> &MembershipContract {
        &self.membership
    }

    /// Submits a transaction to the pool; it executes when the next block
    /// is mined. Returns the pool nonce for matching the receipt.
    ///
    /// # Errors
    ///
    /// [`ChainError::InsufficientBalance`] if `value` exceeds the sender's
    /// balance (checked at submission; the value is escrowed).
    pub fn submit(&mut self, from: Address, value: Wei, call: CallData) -> Result<u64, ChainError> {
        let balance = self.balance_of(from);
        if balance < value {
            return Err(ChainError::InsufficientBalance {
                from,
                balance,
                needed: value,
            });
        }
        *self.balances.accounts.entry(from).or_default() -= value;
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        self.pending.push(Transaction {
            from,
            value,
            call,
            nonce,
        });
        Ok(nonce)
    }

    /// Advances simulated time, mining a block at every block-interval
    /// boundary crossed. Returns receipts of all transactions mined.
    pub fn advance_to(&mut self, time: u64) -> Vec<Receipt> {
        let mut receipts = Vec::new();
        while self.next_block_time <= time {
            let block_time = self.next_block_time;
            receipts.extend(self.mine_block(block_time));
            self.next_block_time += self.config.block_interval;
        }
        self.time = self.time.max(time);
        receipts
    }

    /// Timestamp at which the next block will be mined.
    pub fn next_block_time(&self) -> u64 {
        self.next_block_time
    }

    /// Events with log index `>= cursor`; returns the new cursor. This is
    /// the subscription mechanism peers use for group synchronization
    /// (§III: "Upon member update, the membership contract emits update
    /// events by listening to which peers can update their local trees").
    pub fn events_since(&self, cursor: usize) -> (&[LoggedEvent], usize) {
        (
            &self.events[cursor.min(self.events.len())..],
            self.events.len(),
        )
    }

    /// All receipts ever produced (flattened).
    pub fn receipts(&self) -> impl Iterator<Item = &Receipt> {
        self.blocks.iter().flat_map(|b| b.receipts.iter())
    }

    fn mine_block(&mut self, timestamp: u64) -> Vec<Receipt> {
        let number = self.blocks.len() as u64 + 1;
        let txs = std::mem::take(&mut self.pending);
        let mut receipts = Vec::with_capacity(txs.len());
        for tx in txs {
            let mut meter = GasMeter::new();
            meter.charge(gas::TX_BASE);
            let mut events = Vec::new();
            let outcome: Result<(), String> = match tx.call {
                CallData::Register { .. } if timestamp < self.registration_closed_until => {
                    Err("registration contract outage".to_string())
                }
                CallData::Register { commitment } => self
                    .membership
                    .register(tx.from, tx.value, commitment, &mut meter, &mut events)
                    .map(|_| ()),
                CallData::Slash { secret } => self
                    .membership
                    .slash(tx.from, secret, &mut meter, &mut events, &mut self.balances)
                    .map(|_| ()),
            };
            let status = match outcome {
                Ok(()) => {
                    for event in events {
                        self.events.push(LoggedEvent {
                            block_number: number,
                            timestamp,
                            event,
                        });
                    }
                    TxStatus::Success
                }
                Err(reason) => {
                    // refund the escrowed value on revert
                    self.balances.credit(tx.from, tx.value);
                    TxStatus::Reverted(reason)
                }
            };
            receipts.push(Receipt {
                nonce: tx.nonce,
                block_number: number,
                gas_used: meter.used(),
                status,
            });
        }
        self.blocks.push(Block {
            number,
            timestamp,
            receipts: receipts.clone(),
        });
        receipts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ChainEvent, ETHER};
    use wakurln_crypto::field::Fr;
    use wakurln_crypto::poseidon;

    fn funded_chain() -> (Chain, Address) {
        let mut chain = Chain::new(ChainConfig::default());
        let user = Address::from_label("user");
        chain.fund(user, 100 * ETHER);
        (chain, user)
    }

    #[test]
    fn registration_flows_through_a_block() {
        let (mut chain, user) = funded_chain();
        let sk = Fr::from_u64(5);
        chain
            .submit(
                user,
                ETHER,
                CallData::Register {
                    commitment: poseidon::hash1(sk),
                },
            )
            .unwrap();
        // not yet mined
        assert_eq!(chain.membership().active_count(), 0);
        let receipts = chain.advance_to(12);
        assert_eq!(receipts.len(), 1);
        assert_eq!(receipts[0].status, TxStatus::Success);
        assert_eq!(chain.membership().active_count(), 1);
        let (events, _) = chain.events_since(0);
        assert!(matches!(
            events[0].event,
            ChainEvent::MemberRegistered { index: 0, .. }
        ));
    }

    #[test]
    fn value_escrow_and_revert_refund() {
        let (mut chain, user) = funded_chain();
        let before = chain.balance_of(user);
        // wrong stake → revert → refund
        chain
            .submit(
                user,
                ETHER / 2,
                CallData::Register {
                    commitment: Fr::from_u64(1),
                },
            )
            .unwrap();
        assert_eq!(chain.balance_of(user), before - ETHER / 2);
        let receipts = chain.advance_to(12);
        assert!(matches!(receipts[0].status, TxStatus::Reverted(_)));
        assert_eq!(chain.balance_of(user), before);
    }

    #[test]
    fn insufficient_balance_rejected_at_submission() {
        let mut chain = Chain::new(ChainConfig::default());
        let poor = Address::from_label("poor");
        let err = chain
            .submit(
                poor,
                ETHER,
                CallData::Register {
                    commitment: Fr::from_u64(1),
                },
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::InsufficientBalance { .. }));
    }

    #[test]
    fn slashing_moves_stake() {
        let (mut chain, member) = funded_chain();
        let slasher = Address::from_label("slasher");
        chain.fund(slasher, ETHER);
        let sk = Fr::from_u64(42);
        chain
            .submit(
                member,
                ETHER,
                CallData::Register {
                    commitment: poseidon::hash1(sk),
                },
            )
            .unwrap();
        chain.advance_to(12);
        let slasher_before = chain.balance_of(slasher);
        chain
            .submit(slasher, 0, CallData::Slash { secret: sk })
            .unwrap();
        chain.advance_to(24);
        assert_eq!(chain.membership().active_count(), 0);
        assert_eq!(chain.balance_of(slasher), slasher_before + ETHER / 2);
        assert_eq!(chain.balance_of(Address::BURN), ETHER / 2);
    }

    #[test]
    fn registration_outage_reverts_and_refunds_until_it_lifts() {
        let (mut chain, user) = funded_chain();
        chain.set_registration_outage(30);
        assert!(chain.registration_outage_active());
        let before = chain.balance_of(user);
        chain
            .submit(
                user,
                ETHER,
                CallData::Register {
                    commitment: poseidon::hash1(Fr::from_u64(9)),
                },
            )
            .unwrap();
        // block at t=12: inside the outage — reverted, stake refunded
        let receipts = chain.advance_to(12);
        assert!(matches!(receipts[0].status, TxStatus::Reverted(_)));
        assert_eq!(chain.membership().active_count(), 0);
        assert_eq!(chain.balance_of(user), before);
        // retry after the window lifts (block at t=36 ≥ 30): succeeds
        chain.advance_to(30);
        assert!(!chain.registration_outage_active());
        chain
            .submit(
                user,
                ETHER,
                CallData::Register {
                    commitment: poseidon::hash1(Fr::from_u64(9)),
                },
            )
            .unwrap();
        let receipts = chain.advance_to(36);
        assert_eq!(receipts[0].status, TxStatus::Success);
        assert_eq!(chain.membership().active_count(), 1);
        // slashing is unaffected by a *registration* outage
        chain.set_registration_outage(10_000);
        let sk = Fr::from_u64(9);
        chain
            .submit(user, 0, CallData::Slash { secret: sk })
            .unwrap();
        let receipts = chain.advance_to(48);
        assert_eq!(receipts[0].status, TxStatus::Success);
    }

    #[test]
    fn blocks_are_mined_on_interval_boundaries() {
        let (mut chain, _) = funded_chain();
        chain.advance_to(11);
        assert_eq!(chain.height(), 0);
        chain.advance_to(12);
        assert_eq!(chain.height(), 1);
        chain.advance_to(100);
        assert_eq!(chain.height(), 8); // blocks at 12,24,…,96
        assert_eq!(chain.next_block_time(), 108);
    }

    #[test]
    fn event_cursor_pagination() {
        let (mut chain, user) = funded_chain();
        for i in 0..3u64 {
            chain
                .submit(
                    user,
                    ETHER,
                    CallData::Register {
                        commitment: Fr::from_u64(100 + i),
                    },
                )
                .unwrap();
        }
        chain.advance_to(12);
        let (batch1, cursor) = chain.events_since(0);
        assert_eq!(batch1.len(), 3);
        let (batch2, _) = chain.events_since(cursor);
        assert!(batch2.is_empty());
    }

    #[test]
    fn gas_comparison_registry_vs_tree() {
        let (mut chain, user) = funded_chain();
        chain
            .submit(
                user,
                ETHER,
                CallData::Register {
                    commitment: Fr::from_u64(1),
                },
            )
            .unwrap();
        let registry_gas = chain.advance_to(12)[0].gas_used;
        // the baseline design: the same registration against a contract
        // that keeps the tree in storage, at the config's depth
        let config = ChainConfig::default();
        let mut tree =
            crate::contracts::OnChainTreeContract::new(config.stake_amount, config.tree_depth)
                .unwrap();
        let mut meter = GasMeter::new();
        meter.charge(gas::TX_BASE);
        tree.register(
            user,
            config.stake_amount,
            Fr::from_u64(1),
            &mut meter,
            &mut Vec::new(),
        )
        .unwrap();
        let tree_gas = meter.used();
        assert!(
            tree_gas as f64 / registry_gas as f64 >= 10.0,
            "registry {registry_gas} vs tree {tree_gas}"
        );
    }
}
