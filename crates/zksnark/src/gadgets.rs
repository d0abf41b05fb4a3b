//! Circuit gadgets: reusable constraint-generating building blocks.
//!
//! Each gadget computes values and emits the constraints that pin those
//! values down. The gadgets are the circuit *compiler's* front-end: they
//! run once per tree depth (on a dummy assignment) to produce the
//! [`crate::r1cs::ConstraintMatrix`] a proving key holds, and the prover
//! then derives every witness from that matrix alone — it never runs a
//! gadget. Run on real values they remain the reference the tests compare
//! the prover against. The Poseidon gadget shares its parameters with the
//! native implementation in [`wakurln_crypto::poseidon`], so in-circuit and
//! out-of-circuit hashes agree by construction — a property the tests
//! assert.
//!
//! Every multiplication goes through [`Num::mul`], which marks its row as
//! the one that *defines* the product witness; that mark is what lets the
//! prover read the matrix as a witness program.

use crate::r1cs::{ConstraintSystem, LinearCombination, Variable};
use wakurln_crypto::field::Fr;
use wakurln_crypto::poseidon::{self, PoseidonParams, FULL_ROUNDS};

/// A value in the circuit: a linear combination plus its current assignment.
///
/// Keeping values as linear combinations lets additions and
/// constant-multiplications stay constraint-free; only genuine
/// multiplications (and the Poseidon S-box) allocate.
#[derive(Clone, Debug)]
pub struct Num {
    /// Symbolic form.
    pub lc: LinearCombination,
    /// Assigned value.
    pub value: Fr,
}

impl Num {
    /// Allocates a fresh witness variable.
    pub fn alloc_witness(cs: &mut ConstraintSystem, value: Fr) -> Num {
        let var = cs.alloc_witness(value);
        Num {
            lc: LinearCombination::from_var(var),
            value,
        }
    }

    /// Allocates a fresh public-input variable.
    pub fn alloc_instance(cs: &mut ConstraintSystem, value: Fr) -> Num {
        let var = cs.alloc_instance(value);
        Num {
            lc: LinearCombination::from_var(var),
            value,
        }
    }

    /// The constant `c` (no allocation).
    pub fn constant(c: Fr) -> Num {
        Num {
            lc: LinearCombination::constant(c),
            value: c,
        }
    }

    /// Constraint-free addition.
    pub fn add(&self, other: &Num) -> Num {
        Num {
            lc: self.lc.clone().add_scaled(&other.lc, Fr::ONE),
            value: self.value + other.value,
        }
    }

    /// Constraint-free addition of a constant.
    pub fn add_constant(&self, c: Fr) -> Num {
        Num {
            lc: self.lc.clone().add_term(Variable::One, c),
            value: self.value + c,
        }
    }

    /// Constraint-free multiplication by a constant.
    pub fn scale(&self, c: Fr) -> Num {
        Num {
            lc: LinearCombination::zero().add_scaled(&self.lc, c),
            value: self.value * c,
        }
    }

    /// Multiplication: allocates the product and the one constraint that
    /// defines it (see [`ConstraintSystem`]'s product rows).
    pub fn mul(&self, cs: &mut ConstraintSystem, other: &Num, label: &'static str) -> Num {
        let value = self.value * other.value;
        let var = cs.alloc_product(label, &self.lc, &other.lc, value);
        Num {
            lc: LinearCombination::from_var(var),
            value,
        }
    }

    /// Enforces equality with another `Num` (one constraint).
    pub fn enforce_equal(&self, cs: &mut ConstraintSystem, other: &Num, label: &'static str) {
        cs.enforce_equal(label, &self.lc, &other.lc);
    }
}

/// A wire constrained to 0 or 1.
#[derive(Clone, Debug)]
pub struct Boolean {
    /// The underlying number (value is 0 or 1).
    pub num: Num,
}

impl Boolean {
    /// Allocates a witness bit and enforces `b · (1 − b) = 0`.
    pub fn alloc_witness(cs: &mut ConstraintSystem, bit: bool) -> Boolean {
        let num = Num::alloc_witness(cs, Fr::from(bit));
        Boolean::from_num(cs, num)
    }

    /// Constrains an existing value to a bit: `b · (1 − b) = 0`.
    pub fn from_num(cs: &mut ConstraintSystem, num: Num) -> Boolean {
        let one_minus = LinearCombination::constant(Fr::ONE).add_scaled(&num.lc, -Fr::ONE);
        cs.enforce("boolean", &num.lc, &one_minus, &LinearCombination::zero());
        Boolean { num }
    }

    /// The assigned bit.
    pub fn value(&self) -> bool {
        self.num.value.is_one()
    }
}

/// Conditionally swaps `(a, b) → (b, a)` when `bit` is 1.
///
/// Used for Merkle-path ordering: the path element is hashed on the left or
/// right depending on the leaf-index bit. Costs 2 constraints.
pub fn conditional_swap(cs: &mut ConstraintSystem, a: &Num, b: &Num, bit: &Boolean) -> (Num, Num) {
    // left  = a + bit·(b − a)
    // right = b + bit·(a − b)
    let b_minus_a = Num {
        lc: b.lc.clone().add_scaled(&a.lc, -Fr::ONE),
        value: b.value - a.value,
    };
    let delta = bit.num.mul(cs, &b_minus_a, "swap/delta");
    let left = a.add(&delta);
    let right = Num {
        lc: b.lc.clone().add_scaled(&delta.lc, -Fr::ONE),
        value: b.value - delta.value,
    };
    (left, right)
}

/// The Poseidon x⁵ S-box on a `Num`: 3 constraints.
fn sbox(cs: &mut ConstraintSystem, x: &Num) -> Num {
    let x2 = x.mul(cs, x, "poseidon/x2");
    let x4 = x2.mul(cs, &x2, "poseidon/x4");
    x4.mul(cs, x, "poseidon/x5")
}

/// In-circuit Poseidon permutation, mirroring
/// [`wakurln_crypto::poseidon::permute_with`] term for term.
pub fn poseidon_permutation(
    cs: &mut ConstraintSystem,
    params: &PoseidonParams,
    state: &[Num],
) -> Vec<Num> {
    assert_eq!(state.len(), params.t, "state width mismatch");
    let t = params.t;
    let half_full = FULL_ROUNDS / 2;
    let total = params.total_rounds();
    let mut state: Vec<Num> = state.to_vec();
    for round in 0..total {
        // AddRoundKey (free)
        for (i, s) in state.iter_mut().enumerate() {
            *s = s.add_constant(params.round_constants[round * t + i]);
        }
        // S-box
        let is_full = round < half_full || round >= half_full + params.rounds_p;
        if is_full {
            for s in state.iter_mut() {
                *s = sbox(cs, s);
            }
        } else {
            state[0] = sbox(cs, &state[0]);
        }
        // MDS (free: linear). Reduce each output combination so that
        // un-sboxed lanes in partial rounds don't grow exponentially.
        let mut next = Vec::with_capacity(t);
        for row in params.mds.iter() {
            let mut acc = Num::constant(Fr::ZERO);
            for (j, s) in state.iter().enumerate() {
                acc = acc.add(&s.scale(row[j]));
            }
            acc.lc = acc.lc.reduce();
            next.push(acc);
        }
        state = next;
    }
    state
}

/// In-circuit `H(a)` (width-2 Poseidon compression), matching
/// [`wakurln_crypto::poseidon::hash1`].
pub fn poseidon_hash1(cs: &mut ConstraintSystem, a: &Num) -> Num {
    let params = poseidon::params(2);
    let state = vec![Num::constant(Fr::ZERO), a.clone()];
    let out = poseidon_permutation(cs, params, &state);
    // lint:allow(panic-path, reason = "poseidon_permutation returns the full width-2 state; the first element exists")
    out.into_iter().next().expect("width-2 output")
}

/// In-circuit `H(a, b)` (width-3 Poseidon compression), matching
/// [`wakurln_crypto::poseidon::hash2`].
pub fn poseidon_hash2(cs: &mut ConstraintSystem, a: &Num, b: &Num) -> Num {
    let params = poseidon::params(3);
    let state = vec![Num::constant(Fr::ZERO), a.clone(), b.clone()];
    let out = poseidon_permutation(cs, params, &state);
    // lint:allow(panic-path, reason = "poseidon_permutation returns the full width-3 state; the first element exists")
    out.into_iter().next().expect("width-3 output")
}

/// In-circuit Merkle root computation from a leaf, index bits and siblings.
///
/// Returns the root `Num`. Costs `depth · (2 + |hash2|)` constraints plus
/// one boolean constraint per level.
pub fn merkle_root(
    cs: &mut ConstraintSystem,
    leaf: &Num,
    index_bits: &[Boolean],
    siblings: &[Num],
) -> Num {
    assert_eq!(index_bits.len(), siblings.len(), "path length mismatch");
    let mut cur = leaf.clone();
    for (bit, sibling) in index_bits.iter().zip(siblings.iter()) {
        let (left, right) = conditional_swap(cs, &cur, sibling, bit);
        cur = poseidon_hash2(cs, &left, &right);
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use wakurln_crypto::merkle::FullMerkleTree;

    #[test]
    fn num_linear_ops_are_constraint_free() {
        let mut cs = ConstraintSystem::new();
        let a = Num::alloc_witness(&mut cs, Fr::from_u64(3));
        let b = Num::alloc_witness(&mut cs, Fr::from_u64(4));
        let c = a.add(&b).scale(Fr::from_u64(2)).add_constant(Fr::ONE);
        assert_eq!(c.value, Fr::from_u64(15));
        assert_eq!(cs.num_constraints(), 0);
        assert_eq!(cs.eval(&c.lc), Fr::from_u64(15));
    }

    #[test]
    fn mul_allocates_one_constraint() {
        let mut cs = ConstraintSystem::new();
        let a = Num::alloc_witness(&mut cs, Fr::from_u64(6));
        let b = Num::alloc_witness(&mut cs, Fr::from_u64(7));
        let p = a.mul(&mut cs, &b, "p");
        assert_eq!(p.value, Fr::from_u64(42));
        assert_eq!(cs.num_constraints(), 1);
        assert!(cs.is_satisfied().is_ok());
    }

    #[test]
    fn boolean_constraint_rejects_non_bits() {
        let mut cs = ConstraintSystem::new();
        let _ = Boolean::alloc_witness(&mut cs, true);
        assert!(cs.is_satisfied().is_ok());
        // forge a non-bit by hand
        let mut cs2 = ConstraintSystem::new();
        let var = cs2.alloc_witness(Fr::from_u64(2));
        let lc = LinearCombination::from_var(var);
        let one_minus = LinearCombination::constant(Fr::ONE).add_term(var, -Fr::ONE);
        cs2.enforce("boolean", &lc, &one_minus, &LinearCombination::zero());
        assert!(cs2.is_satisfied().is_err());
    }

    #[test]
    fn conditional_swap_both_directions() {
        for bit in [false, true] {
            let mut cs = ConstraintSystem::new();
            let a = Num::alloc_witness(&mut cs, Fr::from_u64(10));
            let b = Num::alloc_witness(&mut cs, Fr::from_u64(20));
            let bool_bit = Boolean::alloc_witness(&mut cs, bit);
            let (l, r) = conditional_swap(&mut cs, &a, &b, &bool_bit);
            if bit {
                assert_eq!((l.value, r.value), (Fr::from_u64(20), Fr::from_u64(10)));
            } else {
                assert_eq!((l.value, r.value), (Fr::from_u64(10), Fr::from_u64(20)));
            }
            assert!(cs.is_satisfied().is_ok());
            assert_eq!(cs.eval(&l.lc), l.value);
            assert_eq!(cs.eval(&r.lc), r.value);
        }
    }

    #[test]
    fn poseidon_gadget_matches_native_hash1() {
        let mut cs = ConstraintSystem::new();
        let a = Num::alloc_witness(&mut cs, Fr::from_u64(42));
        let h = poseidon_hash1(&mut cs, &a);
        assert_eq!(h.value, poseidon::hash1(Fr::from_u64(42)));
        assert!(cs.is_satisfied().is_ok());
        assert_eq!(cs.eval(&h.lc), h.value);
    }

    #[test]
    fn poseidon_gadget_matches_native_hash2() {
        let mut cs = ConstraintSystem::new();
        let a = Num::alloc_witness(&mut cs, Fr::from_u64(1));
        let b = Num::alloc_witness(&mut cs, Fr::from_u64(2));
        let h = poseidon_hash2(&mut cs, &a, &b);
        assert_eq!(h.value, poseidon::hash2(Fr::from_u64(1), Fr::from_u64(2)));
        assert!(cs.is_satisfied().is_ok());
    }

    #[test]
    fn poseidon_constraint_count_is_as_designed() {
        // width 3: 8 full rounds × 3 lanes + 57 partial rounds, 3 constraints
        // per S-box
        let mut cs = ConstraintSystem::new();
        let a = Num::alloc_witness(&mut cs, Fr::ONE);
        let b = Num::alloc_witness(&mut cs, Fr::ONE);
        let _ = poseidon_hash2(&mut cs, &a, &b);
        let expected = (8 * 3 + 57) * 3;
        assert_eq!(cs.num_constraints(), expected);
    }

    #[test]
    fn merkle_gadget_matches_native_tree() {
        let depth = 8;
        let mut tree = FullMerkleTree::new(depth).unwrap();
        for i in 0..10u64 {
            tree.append(Fr::from_u64(1000 + i)).unwrap();
        }
        let index = 6u64;
        let leaf_val = tree.leaf(index).unwrap();
        let proof = tree.proof(index).unwrap();

        let mut cs = ConstraintSystem::new();
        let leaf = Num::alloc_witness(&mut cs, leaf_val);
        let bits: Vec<Boolean> = (0..depth)
            .map(|l| Boolean::alloc_witness(&mut cs, (index >> l) & 1 == 1))
            .collect();
        let siblings: Vec<Num> = proof
            .siblings
            .iter()
            .map(|s| Num::alloc_witness(&mut cs, *s))
            .collect();
        let root = merkle_root(&mut cs, &leaf, &bits, &siblings);
        assert_eq!(root.value, tree.root());
        assert!(cs.is_satisfied().is_ok());
        assert_eq!(cs.eval(&root.lc), tree.root());
    }

    #[test]
    fn merkle_gadget_detects_wrong_sibling() {
        let depth = 4;
        let mut tree = FullMerkleTree::new(depth).unwrap();
        tree.append(Fr::from_u64(5)).unwrap();
        let proof = tree.proof(0).unwrap();

        let mut cs = ConstraintSystem::new();
        let leaf = Num::alloc_witness(&mut cs, Fr::from_u64(5));
        let bits: Vec<Boolean> = (0..depth)
            .map(|_| Boolean::alloc_witness(&mut cs, false))
            .collect();
        let mut siblings: Vec<Num> = proof
            .siblings
            .iter()
            .map(|s| Num::alloc_witness(&mut cs, *s))
            .collect();
        siblings[1] = Num::alloc_witness(&mut cs, Fr::from_u64(666));
        let root = merkle_root(&mut cs, &leaf, &bits, &siblings);
        // constraints are satisfied (the witness is self-consistent)…
        assert!(cs.is_satisfied().is_ok());
        // …but the computed root no longer matches the tree
        assert_ne!(root.value, tree.root());
    }
}
