//! The safety net of the compile/prove split: the prover
//! ([`CompiledCircuit::solve`], one pass over the compiled matrices, no
//! gadget) against the gadget path on real values
//! ([`RlnCircuit::synthesize`] + [`ConstraintSystem::is_satisfied`]).
//!
//! For random statements the two must produce the same assignment element
//! for element and the same verdict; for every way of corrupting a
//! statement both must refuse at the **same row** with the **same label**.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use wakurln_crypto::field::Fr;
use wakurln_crypto::merkle::node_hash;
use wakurln_crypto::poseidon;
use wakurln_zksnark::r1cs::{ConstraintSystem, UnsatisfiedConstraint};
use wakurln_zksnark::{RlnCircuit, RlnPublicInputs, RlnWitness};

/// A random member statement at `depth`: random `sk`, leaf index and
/// siblings (the root is whatever they hash to), random epoch and message.
fn random_statement(depth: usize, seed: u64) -> (RlnPublicInputs, RlnWitness) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sk = Fr::random(&mut rng);
    let leaf_index = rng.next_u64() & ((1u64 << depth) - 1);
    let path_siblings: Vec<Fr> = (0..depth).map(|_| Fr::random(&mut rng)).collect();
    let mut root = poseidon::hash1(sk);
    for (level, sibling) in path_siblings.iter().enumerate() {
        root = if (leaf_index >> level) & 1 == 1 {
            node_hash(*sibling, root)
        } else {
            node_hash(root, *sibling)
        };
    }
    let epoch = Fr::random(&mut rng);
    let message_hash = Fr::random(&mut rng);
    let (public, _) = RlnCircuit::derive_public(sk, root, epoch, message_hash);
    let witness = RlnWitness {
        sk,
        leaf_index,
        path_siblings,
    };
    (public, witness)
}

/// Runs both paths on one statement, asserts they agree, returns the
/// shared verdict.
fn both_paths(
    depth: usize,
    public: &RlnPublicInputs,
    witness: &RlnWitness,
) -> Result<(), UnsatisfiedConstraint> {
    let circuit = RlnCircuit::new(depth);
    let mut cs = ConstraintSystem::new();
    circuit.synthesize(&mut cs, public, witness);
    let reference = cs.is_satisfied();
    match circuit.compile().solve(public, witness) {
        Ok(z) => {
            let (one_and_instance, solved_witness) = z.split_at(1 + cs.num_instance());
            assert_eq!(one_and_instance.first(), Some(&Fr::ONE));
            assert_eq!(one_and_instance.get(1..), Some(cs.instance_values()));
            assert_eq!(solved_witness, cs.witness_values());
            assert_eq!(reference, Ok(()));
        }
        // same label *and* same row index
        Err(violated) => assert_eq!(reference, Err(violated)),
    }
    reference
}

/// Corrupts one part of a statement (the `usize` picks the tree level).
type Mutation = fn(&mut RlnPublicInputs, &mut RlnWitness, usize);

/// The honest statement satisfies both paths; each single corruption is
/// refused by both at the same row, under the label the circuit gives
/// that part of the statement.
fn assert_equivalent(depth: usize, seed: u64) {
    let (public, witness) = random_statement(depth, seed);
    assert_eq!(both_paths(depth, &public, &witness), Ok(()));

    let level = seed as usize % depth;
    let mutations: [(&str, Mutation, &str); 7] = [
        ("root", |p, _, _| p.root += Fr::ONE, "rln/root"),
        ("y", |p, _, _| p.y += Fr::ONE, "rln/share"),
        (
            "phi",
            |p, _, _| p.internal_nullifier += Fr::ONE,
            "rln/nullifier",
        ),
        ("x", |p, _, _| p.x += Fr::ONE, "rln/share"),
        ("sk", |_, w, _| w.sk += Fr::ONE, "rln/root"),
        (
            "sibling",
            |_, w, l| w.path_siblings[l] += Fr::ONE,
            "rln/root",
        ),
        ("index bit", |_, w, l| w.leaf_index ^= 1 << l, "rln/root"),
    ];
    for (what, mutate, label) in mutations {
        let (mut public, mut witness) = (public, witness.clone());
        mutate(&mut public, &mut witness, level);
        let violated = both_paths(depth, &public, &witness).unwrap_err();
        assert_eq!(
            violated.label, label,
            "depth {depth}: corrupted {what} (level {level})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prover_equals_gadget_path(depth in 1usize..13, seed in any::<u64>()) {
        assert_equivalent(depth, seed);
    }
}

// The deep end of what the workloads and the paper's figures use. A case
// is eight gadget syntheses, seconds each in the debug profile at these
// depths, so two statements per depth.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn prover_equals_gadget_path_at_depth_20(seed in any::<u64>()) {
        assert_equivalent(20, seed);
    }

    #[test]
    fn prover_equals_gadget_path_at_depth_32(seed in any::<u64>()) {
        assert_equivalent(32, seed);
    }
}
