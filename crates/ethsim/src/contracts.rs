//! The two contracts of the evaluation:
//!
//! * [`MembershipContract`] — the paper's design (§III): an ordered list
//!   of commitments plus staking and slashing; O(1) gas per operation.
//! * [`OnChainTreeContract`] — the original RLN proposal's design: the
//!   Merkle tree maintained in contract storage; O(depth) gas per update.

use crate::gas::GasMeter;
use crate::types::{Address, ChainEvent, Wei};
use std::collections::HashMap;
use wakurln_crypto::field::Fr;
use wakurln_crypto::merkle::{IncrementalMerkleTree, MerkleError};
use wakurln_crypto::poseidon;

/// Balance operations the chain exposes to executing contracts.
pub trait BalanceEnv {
    /// Moves `amount` wei from the contract's escrow to `to`.
    fn credit(&mut self, to: Address, amount: Wei);
}

/// One registered member slot on the registry.
#[derive(Clone, Debug, PartialEq)]
pub struct MemberSlot {
    /// The registered commitment.
    pub commitment: Fr,
    /// Staked wei held in escrow.
    pub stake: Wei,
    /// `false` after slashing.
    pub active: bool,
}

/// The membership registry contract (the paper's §III design).
///
/// Stores **only the ordered list** of identity commitments — the Merkle
/// tree lives off-chain with the peers. Registration appends one storage
/// slot; slashing flips one slot and moves stake. Both are O(1) in gas,
/// independent of group size.
#[derive(Clone, Debug)]
pub struct MembershipContract {
    /// Required stake per registration (the paper's `v` Eth).
    pub stake_amount: Wei,
    /// Fraction of the stake burnt on slashing, in percent.
    pub burn_percent: u8,
    members: Vec<MemberSlot>,
    /// Active-commitment → slot index, mirroring the contract's
    /// `mapping(uint256 => uint256)`: both the duplicate check in
    /// `register` and the lookup in `slash` are O(1) like the real
    /// storage mapping, not a scan over the member list (which at
    /// 100k members would make registration O(n²) overall).
    index_of: HashMap<[u8; 32], u64>,
}

impl MembershipContract {
    /// Deploys with the given stake requirement and burn percentage.
    pub fn new(stake_amount: Wei, burn_percent: u8) -> MembershipContract {
        assert!(burn_percent <= 100, "burn percentage over 100");
        MembershipContract {
            stake_amount,
            burn_percent,
            members: Vec::new(),
            index_of: HashMap::new(),
        }
    }

    /// Number of slots ever registered (including slashed).
    pub fn slot_count(&self) -> u64 {
        self.members.len() as u64
    }

    /// Number of active members.
    pub fn active_count(&self) -> usize {
        self.members.iter().filter(|m| m.active).count()
    }

    /// Read a slot (free, used by tests and sync bootstrap).
    pub fn slot(&self, index: u64) -> Option<&MemberSlot> {
        self.members.get(index as usize)
    }

    /// `register(commitment)` — appends the commitment to the list.
    ///
    /// # Errors
    ///
    /// Reverts when the stake is wrong or the commitment already active.
    pub fn register(
        &mut self,
        _from: Address,
        value: Wei,
        commitment: Fr,
        meter: &mut GasMeter,
        events: &mut Vec<ChainEvent>,
    ) -> Result<u64, String> {
        meter.calldata(32);
        meter.sload(); // stake parameter
        if value != self.stake_amount {
            return Err(format!(
                "register: stake must be exactly {} wei, got {value}",
                self.stake_amount
            ));
        }
        // duplicate check against a commitment→index mapping slot
        meter.sload();
        if self.index_of.contains_key(&commitment.to_bytes_le()) {
            return Err("register: commitment already registered".into());
        }
        // O(1): one append (one storage slot for the commitment, one for
        // the stake bookkeeping is packed into the same word here), plus
        // the event. No tree maintenance on-chain.
        meter.sstore_set();
        meter.log(2, 40);
        let index = self.members.len() as u64;
        self.members.push(MemberSlot {
            commitment,
            stake: value,
            active: true,
        });
        self.index_of.insert(commitment.to_bytes_le(), index);
        events.push(ChainEvent::MemberRegistered { index, commitment });
        Ok(index)
    }

    /// `slash(secret)` — deletes the member whose commitment is `H(secret)`,
    /// burning `burn_percent` of the stake and paying the rest to the
    /// caller (§III "Routing and Slashing"; §II: "a portion of the staked
    /// fund of the deleted member is burnt and a portion is given to
    /// whoever does deletion").
    ///
    /// # Errors
    ///
    /// Reverts when `H(secret)` is not an active member.
    pub fn slash<E: BalanceEnv>(
        &mut self,
        from: Address,
        secret: Fr,
        meter: &mut GasMeter,
        events: &mut Vec<ChainEvent>,
        env: &mut E,
    ) -> Result<u64, String> {
        meter.calldata(32);
        // the contract recomputes pk = H(sk) once — one in-EVM Poseidon
        meter.poseidon();
        let commitment = poseidon::hash1(secret);
        meter.sload(); // commitment → index lookup
        let index = self
            .index_of
            .remove(&commitment.to_bytes_le())
            .ok_or_else(|| "slash: unknown or already-slashed member".to_string())?
            as usize;
        // O(1): flip the slot, move stake
        meter.sstore_update();
        let slot = &mut self.members[index];
        slot.active = false;
        let burned = slot.stake * self.burn_percent as Wei / 100;
        let rewarded = slot.stake - burned;
        slot.stake = 0;
        env.credit(Address::BURN, burned);
        env.credit(from, rewarded);
        meter.log(3, 72);
        events.push(ChainEvent::MemberSlashed {
            index: index as u64,
            commitment,
            slasher: from,
            burned,
            rewarded,
        });
        Ok(index as u64)
    }
}

/// The baseline contract that keeps the membership **tree** in storage —
/// the design the paper replaces. Every update walks the depth of the
/// tree: O(depth) storage reads+writes *and* O(depth) in-EVM Poseidon
/// permutations.
#[derive(Clone, Debug)]
pub struct OnChainTreeContract {
    stake_amount: Wei,
    depth: usize,
    tree: IncrementalMerkleTree,
}

impl OnChainTreeContract {
    /// Deploys with a tree of the given depth.
    ///
    /// # Errors
    ///
    /// Propagates [`MerkleError::UnsupportedDepth`].
    pub fn new(stake_amount: Wei, depth: usize) -> Result<OnChainTreeContract, MerkleError> {
        Ok(OnChainTreeContract {
            stake_amount,
            depth,
            tree: IncrementalMerkleTree::new(depth)?,
        })
    }

    /// Current on-chain root.
    pub fn root(&self) -> Fr {
        self.tree.root()
    }

    /// Number of registered leaves.
    pub fn leaf_count(&self) -> u64 {
        self.tree.len()
    }

    /// `register(commitment)` with on-chain tree maintenance.
    ///
    /// # Errors
    ///
    /// Reverts on wrong stake or full tree.
    pub fn register(
        &mut self,
        _from: Address,
        value: Wei,
        commitment: Fr,
        meter: &mut GasMeter,
        events: &mut Vec<ChainEvent>,
    ) -> Result<u64, String> {
        meter.calldata(32);
        meter.sload();
        if value != self.stake_amount {
            return Err(format!(
                "tree-register: stake must be exactly {} wei, got {value}",
                self.stake_amount
            ));
        }
        // O(depth): at every level, read the cached sibling/zero hash,
        // evaluate Poseidon in the EVM and write the updated node.
        for _ in 0..self.depth {
            meter.sload();
            meter.poseidon();
            meter.sstore_update();
        }
        meter.sstore_set(); // the leaf itself
        meter.log(2, 72);
        let index = self
            .tree
            .append(commitment)
            .map_err(|e| format!("tree-register: {e}"))?;
        events.push(ChainEvent::MemberRegistered { index, commitment });
        events.push(ChainEvent::TreeRootUpdated {
            root: self.tree.root(),
        });
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gas;
    use std::collections::HashMap;

    #[derive(Default)]
    struct MockEnv {
        credits: HashMap<Address, Wei>,
    }

    impl BalanceEnv for MockEnv {
        fn credit(&mut self, to: Address, amount: Wei) {
            *self.credits.entry(to).or_default() += amount;
        }
    }

    fn fr(v: u64) -> Fr {
        Fr::from_u64(v)
    }

    #[test]
    fn register_gas_is_constant_in_group_size() {
        let mut c = MembershipContract::new(10, 50);
        let mut gas_costs = Vec::new();
        for i in 0..200u64 {
            let mut meter = GasMeter::new();
            let mut events = Vec::new();
            c.register(
                Address::from_label("a"),
                10,
                fr(i + 1),
                &mut meter,
                &mut events,
            )
            .unwrap();
            gas_costs.push(meter.used());
        }
        assert!(gas_costs.windows(2).all(|w| w[0] == w[1]), "O(1) gas");
    }

    #[test]
    fn tree_register_gas_scales_with_depth() {
        let mut shallow = OnChainTreeContract::new(10, 10).unwrap();
        let mut deep = OnChainTreeContract::new(10, 20).unwrap();
        let (mut m1, mut m2) = (GasMeter::new(), GasMeter::new());
        let mut ev = Vec::new();
        shallow
            .register(Address::BURN, 10, fr(1), &mut m1, &mut ev)
            .unwrap();
        deep.register(Address::BURN, 10, fr(1), &mut m2, &mut ev)
            .unwrap();
        assert!(m2.used() > m1.used());
        // exactly depth × (SLOAD + POSEIDON + SSTORE_UPDATE) apart
        let per_level = gas::SLOAD + gas::POSEIDON_HASH + gas::SSTORE_UPDATE;
        assert_eq!(m2.used() - m1.used(), 10 * per_level);
    }

    #[test]
    fn registry_beats_tree_by_an_order_of_magnitude_at_depth_20() {
        let mut registry = MembershipContract::new(10, 50);
        let mut tree = OnChainTreeContract::new(10, 20).unwrap();
        let mut ev = Vec::new();
        let (mut m1, mut m2) = (GasMeter::new(), GasMeter::new());
        m1.charge(gas::TX_BASE);
        m2.charge(gas::TX_BASE);
        registry
            .register(Address::BURN, 10, fr(1), &mut m1, &mut ev)
            .unwrap();
        tree.register(Address::BURN, 10, fr(1), &mut m2, &mut ev)
            .unwrap();
        let factor = m2.used() as f64 / m1.used() as f64;
        assert!(factor >= 10.0, "expected ≥10×, got {factor:.1}×");
    }

    #[test]
    fn wrong_stake_reverts() {
        let mut c = MembershipContract::new(100, 50);
        let mut meter = GasMeter::new();
        let mut events = Vec::new();
        let err = c
            .register(Address::BURN, 99, fr(1), &mut meter, &mut events)
            .unwrap_err();
        assert!(err.contains("stake"));
        assert!(events.is_empty());
    }

    #[test]
    fn duplicate_registration_reverts() {
        let mut c = MembershipContract::new(10, 50);
        let mut meter = GasMeter::new();
        let mut events = Vec::new();
        c.register(Address::BURN, 10, fr(1), &mut meter, &mut events)
            .unwrap();
        assert!(c
            .register(Address::BURN, 10, fr(1), &mut meter, &mut events)
            .is_err());
    }

    #[test]
    fn slash_burns_and_rewards() {
        let mut c = MembershipContract::new(100, 50);
        let mut env = MockEnv::default();
        let mut meter = GasMeter::new();
        let mut events = Vec::new();
        let sk = fr(42);
        let commitment = poseidon::hash1(sk);
        c.register(
            Address::from_label("member"),
            100,
            commitment,
            &mut meter,
            &mut events,
        )
        .unwrap();
        let slasher = Address::from_label("slasher");
        let idx = c
            .slash(slasher, sk, &mut meter, &mut events, &mut env)
            .unwrap();
        assert_eq!(idx, 0);
        assert_eq!(env.credits[&Address::BURN], 50);
        assert_eq!(env.credits[&slasher], 50);
        assert_eq!(c.active_count(), 0);
        assert!(matches!(
            events.last(),
            Some(ChainEvent::MemberSlashed {
                burned: 50,
                rewarded: 50,
                ..
            })
        ));
    }

    #[test]
    fn slash_unknown_secret_reverts() {
        let mut c = MembershipContract::new(100, 50);
        let mut env = MockEnv::default();
        let mut meter = GasMeter::new();
        let mut events = Vec::new();
        assert!(c
            .slash(Address::BURN, fr(7), &mut meter, &mut events, &mut env)
            .is_err());
    }

    #[test]
    fn double_slash_reverts() {
        let mut c = MembershipContract::new(100, 50);
        let mut env = MockEnv::default();
        let mut meter = GasMeter::new();
        let mut events = Vec::new();
        let sk = fr(42);
        c.register(
            Address::BURN,
            100,
            poseidon::hash1(sk),
            &mut meter,
            &mut events,
        )
        .unwrap();
        c.slash(Address::BURN, sk, &mut meter, &mut events, &mut env)
            .unwrap();
        assert!(c
            .slash(Address::BURN, sk, &mut meter, &mut events, &mut env)
            .is_err());
    }
}
