//! Why the paper keeps the Merkle tree off-chain: gas.
//!
//! Registers members through both contract designs and prints the
//! per-transaction gas — the registry (paper design) is O(1) while the
//! on-chain tree (original RLN proposal) pays O(depth) storage writes and
//! in-EVM Poseidon permutations per update (§III: "optimizing gas
//! consumption by an order of magnitude"). Each call runs on its own
//! `GasMeter` charged the transaction base fee first, which is what a
//! mined transaction's receipt reports.
//!
//! Run with: `cargo run --example gas_comparison`

use wakurln_crypto::field::Fr;
use wakurln_ethsim::gas::{self, GasMeter};
use wakurln_ethsim::types::{Address, ETHER};
use wakurln_ethsim::{ChainConfig, MembershipContract, OnChainTreeContract};

/// Depth of the on-chain tree.
const DEPTH: usize = 20;

/// Gas of one transaction: the base fee plus what `call` meters.
fn tx_gas(call: impl FnOnce(&mut GasMeter)) -> u64 {
    let mut meter = GasMeter::new();
    meter.charge(gas::TX_BASE);
    call(&mut meter);
    meter.used()
}

fn main() {
    println!("== registration gas: registry (off-chain tree) vs on-chain tree ==");
    let config = ChainConfig::default();
    let mut registry = MembershipContract::new(config.stake_amount, config.burn_percent);
    let mut tree = OnChainTreeContract::new(config.stake_amount, DEPTH).expect("valid depth");
    let user = Address::from_label("gas-example");
    let mut events = Vec::new();

    println!(
        "{:>8} {:>18} {:>18} {:>8}",
        "member", "registry gas", "tree gas", "ratio"
    );
    for i in 0..8u64 {
        let commitment = Fr::from_u64(100 + i);
        let registry_gas = tx_gas(|meter| {
            registry
                .register(user, ETHER, commitment, meter, &mut events)
                .expect("registry registers");
        });
        let tree_gas = tx_gas(|meter| {
            tree.register(user, ETHER, commitment, meter, &mut events)
                .expect("tree registers");
        });
        println!(
            "{:>8} {:>18} {:>18} {:>7.1}x",
            i,
            registry_gas,
            tree_gas,
            tree_gas as f64 / registry_gas as f64
        );
    }

    println!();
    println!(
        "registry slots used: {}, on-chain tree leaves: {}",
        registry.slot_count(),
        tree.leaf_count()
    );
    println!(
        "note: the tree design also pays {} in-EVM Poseidon permutations per update",
        DEPTH
    );
}
