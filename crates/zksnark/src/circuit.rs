//! The RLN circuit.
//!
//! Public inputs (the order is part of the proof binding):
//!
//! 1. `root` — membership tree root,
//! 2. `external_nullifier` — the epoch `∅`,
//! 3. `x` — Shamir evaluation point, `x = H(m)`,
//! 4. `y` — Shamir share value, `y = sk + a1·x`,
//! 5. `internal_nullifier` — `φ = H(a1)` with `a1 = H(sk, ∅)`.
//!
//! Witness: the member secret `sk`, the leaf index, and the Merkle
//! authentication path of `pk = H(sk)`.
//!
//! The circuit enforces exactly the statement from the paper's §II: the
//! signer's key is in the membership tree, and the disclosed share and
//! internal nullifier are honestly derived — so a rate violation *must*
//! leak a usable secret share.

use crate::gadgets::{merkle_root, poseidon_hash1, poseidon_hash2, Boolean, Num};
use crate::r1cs::{ConstraintMatrix, ConstraintSystem, UnsatisfiedConstraint};
use std::sync::{Arc, OnceLock};
use wakurln_crypto::field::Fr;
use wakurln_crypto::merkle::{MerkleProof, MAX_DEPTH};
use wakurln_crypto::poseidon;

/// The public inputs of an RLN proof, in canonical order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RlnPublicInputs {
    /// Membership tree root the prover claims membership under.
    pub root: Fr,
    /// External nullifier (the epoch).
    pub external_nullifier: Fr,
    /// Shamir evaluation point `x = H(m)`.
    pub x: Fr,
    /// Shamir share value `y = sk + H(sk, ∅)·x`.
    pub y: Fr,
    /// Internal nullifier `φ = H(H(sk, ∅))`.
    pub internal_nullifier: Fr,
}

impl RlnPublicInputs {
    /// Flattens to the canonical field-element order (binding order).
    pub fn to_array(&self) -> [Fr; 5] {
        [
            self.root,
            self.external_nullifier,
            self.x,
            self.y,
            self.internal_nullifier,
        ]
    }
}

/// The private witness of an RLN proof.
#[derive(Clone, Debug)]
pub struct RlnWitness {
    /// The member's secret key.
    pub sk: Fr,
    /// Index of `pk = H(sk)` in the membership tree.
    pub leaf_index: u64,
    /// Sibling hashes of the authentication path (leaf level first).
    pub path_siblings: Vec<Fr>,
}

impl RlnWitness {
    /// Builds a witness from a secret key and a Merkle proof for `H(sk)`.
    pub fn new(sk: Fr, proof: &MerkleProof) -> RlnWitness {
        RlnWitness {
            sk,
            leaf_index: proof.index,
            path_siblings: proof.siblings.clone(),
        }
    }

    /// `leaf_index` without its low `level` bits — 0 once `level` passes
    /// the 64 bits of the index, where a plain `>>` would overflow.
    pub(crate) fn index_above(&self, level: usize) -> u64 {
        u32::try_from(level)
            .ok()
            .and_then(|l| self.leaf_index.checked_shr(l))
            .unwrap_or(0)
    }
}

/// The RLN circuit for a fixed membership-tree depth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RlnCircuit {
    depth: usize,
}

impl RlnCircuit {
    /// Circuit for trees of the given depth.
    pub fn new(depth: usize) -> RlnCircuit {
        RlnCircuit { depth }
    }

    /// The tree depth this circuit proves membership for.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Computes the honest public inputs for a message: the native
    /// (out-of-circuit) counterpart of synthesis, used by signal builders.
    ///
    /// Returns `(public_inputs, a1)` where `a1 = H(sk, ∅)` is the
    /// epoch-bound Shamir slope.
    pub fn derive_public(
        sk: Fr,
        root: Fr,
        external_nullifier: Fr,
        message_hash: Fr,
    ) -> (RlnPublicInputs, Fr) {
        let a1 = poseidon::hash2(sk, external_nullifier);
        let y = sk + a1 * message_hash;
        let internal_nullifier = poseidon::hash1(a1);
        (
            RlnPublicInputs {
                root,
                external_nullifier,
                x: message_hash,
                y,
                internal_nullifier,
            },
            a1,
        )
    }

    /// Allocates the circuit's inputs, in the order that fixes their
    /// columns in `z`: the public inputs (canonical order), then `sk`, the
    /// index bits (leaf level first) and the siblings. Emits no constraint,
    /// so the prover places its inputs with this very code.
    fn alloc_inputs(
        &self,
        cs: &mut ConstraintSystem,
        public: &RlnPublicInputs,
        witness: &RlnWitness,
    ) -> Inputs {
        let public = public.to_array().map(|v| Num::alloc_instance(cs, v));
        let sk = Num::alloc_witness(cs, witness.sk);
        let bits = (0..self.depth)
            .map(|l| Num::alloc_witness(cs, Fr::from(witness.index_above(l) & 1 == 1)))
            .collect();
        let siblings = witness
            .path_siblings
            .iter()
            .map(|s| Num::alloc_witness(cs, *s))
            .collect();
        Inputs {
            public,
            sk,
            bits,
            siblings,
        }
    }

    /// Synthesizes the circuit into `cs` under the given assignment: the
    /// compiler front-end (run once per depth by [`RlnCircuit::compile`])
    /// and, on real values, the reference the prover is tested against.
    ///
    /// The constraints are emitted unconditionally; whether the assignment
    /// satisfies them is for [`ConstraintSystem::is_satisfied`] to say.
    pub fn synthesize(
        &self,
        cs: &mut ConstraintSystem,
        public: &RlnPublicInputs,
        witness: &RlnWitness,
    ) {
        let Inputs {
            public: [root, external_nullifier, x, y, internal_nullifier],
            sk,
            bits,
            siblings,
        } = self.alloc_inputs(cs, public, witness);
        let bits: Vec<Boolean> = bits
            .into_iter()
            .map(|bit| Boolean::from_num(cs, bit))
            .collect();

        // membership: pk = H(sk) is in the tree under `root`
        let pk = poseidon_hash1(cs, &sk);
        let computed_root = merkle_root(cs, &pk, &bits, &siblings);
        computed_root.enforce_equal(cs, &root, "rln/root");

        // share correctness: a1 = H(sk, ∅); y = sk + a1·x
        let a1 = poseidon_hash2(cs, &sk, &external_nullifier);
        let a1x = a1.mul(cs, &x, "rln/a1x");
        let expected_y = sk.add(&a1x);
        expected_y.enforce_equal(cs, &y, "rln/share");

        // nullifier correctness: φ = H(a1)
        let phi = poseidon_hash1(cs, &a1);
        phi.enforce_equal(cs, &internal_nullifier, "rln/nullifier");
    }

    /// Compiles the circuit to its constraint matrices: one gadget
    /// synthesis on an all-zero assignment (the constraints do not depend
    /// on the values), kept for the life of the process. Like
    /// `poseidon::params(t)` this is a pure function of its argument, so
    /// every call at one depth — every `setup`, every peer — shares one
    /// matrix; depths above [`MAX_DEPTH`] (no membership tree is that
    /// deep) compile afresh instead of growing the table.
    pub fn compile(&self) -> Arc<CompiledCircuit> {
        static COMPILED: [OnceLock<Arc<CompiledCircuit>>; MAX_DEPTH + 1] =
            [const { OnceLock::new() }; MAX_DEPTH + 1];
        let fresh = || {
            let zero = RlnPublicInputs {
                root: Fr::ZERO,
                external_nullifier: Fr::ZERO,
                x: Fr::ZERO,
                y: Fr::ZERO,
                internal_nullifier: Fr::ZERO,
            };
            let witness = RlnWitness {
                sk: Fr::ZERO,
                leaf_index: 0,
                path_siblings: vec![Fr::ZERO; self.depth],
            };
            let mut cs = ConstraintSystem::new();
            self.synthesize(&mut cs, &zero, &witness);
            Arc::new(CompiledCircuit {
                circuit: *self,
                matrix: cs.into_matrix(),
            })
        };
        match COMPILED.get(self.depth) {
            Some(slot) => Arc::clone(slot.get_or_init(fresh)),
            None => fresh(),
        }
    }

    /// Number of constraints this circuit emits (independent of the
    /// assignment).
    pub fn constraint_count(&self) -> usize {
        self.compile().matrix.num_constraints()
    }
}

/// The input variables of the circuit, as [`RlnCircuit::alloc_inputs`]
/// allocated them.
struct Inputs {
    /// In [`RlnPublicInputs::to_array`] order.
    public: [Num; 5],
    sk: Num,
    bits: Vec<Num>,
    siblings: Vec<Num>,
}

/// An [`RlnCircuit`] compiled to its constraint matrices — what a proving
/// key shares between all its clones (see [`RlnCircuit::compile`]).
#[derive(Debug)]
pub struct CompiledCircuit {
    circuit: RlnCircuit,
    matrix: ConstraintMatrix,
}

impl CompiledCircuit {
    /// The circuit these matrices were compiled from.
    pub fn circuit(&self) -> RlnCircuit {
        self.circuit
    }

    /// The constraint matrices.
    pub fn matrix(&self) -> &ConstraintMatrix {
        &self.matrix
    }

    /// The prover's work: places the inputs exactly as
    /// [`RlnCircuit::synthesize`] allocates them, then derives every other
    /// witness and checks every constraint in one pass over the matrices
    /// ([`ConstraintMatrix::solve`]). No gadget runs. Returns the full
    /// assignment `z = (1, instance…, witness…)`.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index constraint the inputs violate.
    ///
    /// # Panics
    ///
    /// Panics if the witness path length is not the circuit depth.
    pub fn solve(
        &self,
        public: &RlnPublicInputs,
        witness: &RlnWitness,
    ) -> Result<Vec<Fr>, UnsatisfiedConstraint> {
        assert_eq!(
            witness.path_siblings.len(),
            self.circuit.depth,
            "path length mismatch"
        );
        let mut cs = ConstraintSystem::new();
        self.circuit.alloc_inputs(&mut cs, public, witness);
        let mut z = cs.into_assignment();
        z.resize(self.matrix.num_vars(), Fr::ZERO);
        self.matrix.solve(&mut z)?;
        Ok(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wakurln_crypto::merkle::FullMerkleTree;

    fn setup(depth: usize) -> (Fr, FullMerkleTree, u64) {
        let sk = Fr::from_u64(123_456);
        let pk = poseidon::hash1(sk);
        let mut tree = FullMerkleTree::new(depth).unwrap();
        tree.append(Fr::from_u64(7777)).unwrap(); // someone else
        let index = tree.append(pk).unwrap();
        tree.append(Fr::from_u64(8888)).unwrap();
        (sk, tree, index)
    }

    #[test]
    fn honest_witness_satisfies() {
        let depth = 10;
        let (sk, tree, index) = setup(depth);
        let epoch = Fr::from_u64(1_654_041_600);
        let msg_hash = poseidon::hash_bytes_to_field(b"hello waku");
        let (public, _a1) = RlnCircuit::derive_public(sk, tree.root(), epoch, msg_hash);
        let witness = RlnWitness::new(sk, &tree.proof(index).unwrap());

        let mut cs = ConstraintSystem::new();
        RlnCircuit::new(depth).synthesize(&mut cs, &public, &witness);
        assert!(cs.is_satisfied().is_ok());
        assert_eq!(cs.num_instance(), 5);
    }

    #[test]
    fn wrong_secret_fails_root_constraint() {
        let depth = 8;
        let (sk, tree, index) = setup(depth);
        let epoch = Fr::from_u64(99);
        let msg_hash = Fr::from_u64(555);
        // derive public inputs for the wrong key: all hashes self-consistent
        // except membership
        let intruder_sk = sk + Fr::ONE;
        let (public, _) = RlnCircuit::derive_public(intruder_sk, tree.root(), epoch, msg_hash);
        let witness = RlnWitness::new(intruder_sk, &tree.proof(index).unwrap());

        let mut cs = ConstraintSystem::new();
        RlnCircuit::new(depth).synthesize(&mut cs, &public, &witness);
        let err = cs.is_satisfied().unwrap_err();
        assert_eq!(err.label, "rln/root");
    }

    #[test]
    fn tampered_share_fails_share_constraint() {
        let depth = 8;
        let (sk, tree, index) = setup(depth);
        let epoch = Fr::from_u64(99);
        let msg_hash = Fr::from_u64(555);
        let (mut public, _) = RlnCircuit::derive_public(sk, tree.root(), epoch, msg_hash);
        public.y += Fr::ONE; // lie about the share
        let witness = RlnWitness::new(sk, &tree.proof(index).unwrap());

        let mut cs = ConstraintSystem::new();
        RlnCircuit::new(depth).synthesize(&mut cs, &public, &witness);
        let err = cs.is_satisfied().unwrap_err();
        assert_eq!(err.label, "rln/share");
    }

    #[test]
    fn tampered_nullifier_fails_nullifier_constraint() {
        let depth = 8;
        let (sk, tree, index) = setup(depth);
        let epoch = Fr::from_u64(99);
        let msg_hash = Fr::from_u64(555);
        let (mut public, _) = RlnCircuit::derive_public(sk, tree.root(), epoch, msg_hash);
        public.internal_nullifier += Fr::ONE;
        let witness = RlnWitness::new(sk, &tree.proof(index).unwrap());

        let mut cs = ConstraintSystem::new();
        RlnCircuit::new(depth).synthesize(&mut cs, &public, &witness);
        let err = cs.is_satisfied().unwrap_err();
        assert_eq!(err.label, "rln/nullifier");
    }

    #[test]
    fn index_bits_stop_at_64() {
        let witness = RlnWitness {
            sk: Fr::ZERO,
            leaf_index: u64::MAX,
            path_siblings: Vec::new(),
        };
        assert_eq!(witness.index_above(0), u64::MAX);
        assert_eq!(witness.index_above(63), 1);
        assert_eq!(witness.index_above(64), 0);
        assert_eq!(witness.index_above(usize::MAX), 0);
    }

    #[test]
    fn constraint_count_grows_linearly_with_depth() {
        let c10 = RlnCircuit::new(10).constraint_count();
        let c20 = RlnCircuit::new(20).constraint_count();
        let c30 = RlnCircuit::new(30).constraint_count();
        assert!(c20 > c10 && c30 > c20);
        // linear: equal increments per 10 levels
        assert_eq!(c20 - c10, c30 - c20);
    }

    #[test]
    fn public_inputs_to_array_order() {
        let p = RlnPublicInputs {
            root: Fr::from_u64(1),
            external_nullifier: Fr::from_u64(2),
            x: Fr::from_u64(3),
            y: Fr::from_u64(4),
            internal_nullifier: Fr::from_u64(5),
        };
        assert_eq!(p.to_array(), [1, 2, 3, 4, 5].map(Fr::from_u64));
    }

    #[test]
    fn same_epoch_same_nullifier_different_messages() {
        // the core anti-spam property at the circuit level
        let depth = 8;
        let (sk, tree, _) = setup(depth);
        let epoch = Fr::from_u64(42);
        let (p1, _) = RlnCircuit::derive_public(sk, tree.root(), epoch, Fr::from_u64(1));
        let (p2, _) = RlnCircuit::derive_public(sk, tree.root(), epoch, Fr::from_u64(2));
        assert_eq!(p1.internal_nullifier, p2.internal_nullifier);
        // different epochs → different nullifiers
        let (p3, _) = RlnCircuit::derive_public(sk, tree.root(), epoch + Fr::ONE, Fr::from_u64(1));
        assert_ne!(p1.internal_nullifier, p3.internal_nullifier);
    }
}
