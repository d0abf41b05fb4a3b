//! Merkle trees over Poseidon-hashed [`Fr`] leaves.
//!
//! The RLN membership group is a fixed-depth binary Merkle tree whose leaves
//! are member public keys (`pk = H(sk)`), with empty slots holding the zero
//! leaf. The paper's §III stores only an *ordered list* of keys on-chain and
//! lets every peer maintain the tree locally; §IV cites reference \[9\] for a
//! storage optimization that shrinks a depth-20 tree from ~67 MB to a few
//! hundred bytes for peers that only need *their own* membership proof.
//!
//! Two trees and one light view, one semantics:
//!
//! * [`FullMerkleTree`] — every node materialized; O(2^depth) memory,
//!   supports arbitrary updates and proofs for any leaf. This is what a
//!   full relay node or a slasher runs, and the canonical tree whose
//!   changes are broadcast as deltas.
//! * [`IncrementalMerkleTree`] — append-only frontier; O(depth) memory,
//!   computes the running root only. This is what the *contract-side* root
//!   tracking of the original RLN design would cost.
//! * [`MemberView`] — the reference \[9\] optimization: a light member
//!   stores only the root and its own authentication path (O(depth)
//!   memory) and keeps the path current by applying the canonical tree's
//!   [`AppendDelta`] / [`UpdateDelta`] broadcasts, without hashing.
//!
//! Property tests hold the incremental root, and every view's root, own
//! proof and revocation, equal to the full tree's under arbitrary event
//! streams.

mod delta;
mod full;
mod incremental;

pub use delta::{AppendDelta, MemberView, UpdateDelta};
pub use full::FullMerkleTree;
pub use incremental::IncrementalMerkleTree;

use crate::field::Fr;
use crate::poseidon;
use std::sync::OnceLock;

/// Maximum supported tree depth. Depth 32 covers the paper's 2³² group size.
pub const MAX_DEPTH: usize = 32;

/// Errors returned by Merkle tree operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MerkleError {
    /// The leaf index is outside the tree's capacity.
    IndexOutOfRange {
        /// The offending index.
        index: u64,
        /// The tree capacity (2^depth).
        capacity: u64,
    },
    /// The tree is full (append-only variants).
    TreeFull,
    /// A supplied witness path does not match the current root.
    StaleWitness,
    /// The requested depth is not in `1..=MAX_DEPTH`.
    UnsupportedDepth(usize),
}

impl std::fmt::Display for MerkleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MerkleError::IndexOutOfRange { index, capacity } => {
                write!(f, "leaf index {index} out of range for capacity {capacity}")
            }
            MerkleError::TreeFull => write!(f, "merkle tree is full"),
            MerkleError::StaleWitness => {
                write!(f, "witness path does not match the current root")
            }
            MerkleError::UnsupportedDepth(d) => {
                write!(f, "unsupported merkle depth {d} (max {MAX_DEPTH})")
            }
        }
    }
}

impl std::error::Error for MerkleError {}

/// The leaf value representing an empty slot (also the value written on
/// member deletion/slashing).
pub const EMPTY_LEAF: Fr = Fr::ZERO;

/// Precomputed roots of all-empty subtrees: `zero(0) = EMPTY_LEAF`,
/// `zero(l+1) = H(zero(l), zero(l))`.
pub fn zero_hashes() -> &'static [Fr; MAX_DEPTH + 1] {
    static ZEROS: OnceLock<[Fr; MAX_DEPTH + 1]> = OnceLock::new();
    ZEROS.get_or_init(|| {
        let mut z = [EMPTY_LEAF; MAX_DEPTH + 1];
        for l in 1..=MAX_DEPTH {
            z[l] = poseidon::hash2(z[l - 1], z[l - 1]);
        }
        z
    })
}

/// Hash of two child nodes.
#[inline]
pub fn node_hash(left: Fr, right: Fr) -> Fr {
    poseidon::hash2(left, right)
}

/// An authentication path for one leaf.
///
/// `siblings[l]` is the sibling node at level `l` (level 0 = leaves);
/// `index` encodes the left/right directions (bit `l` of `index` is 1 when
/// the path node at level `l` is a right child).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Leaf index the proof authenticates.
    pub index: u64,
    /// Sibling hashes from the leaf level upward, `depth` entries.
    pub siblings: Vec<Fr>,
}

impl MerkleProof {
    /// Tree depth this proof corresponds to.
    pub fn depth(&self) -> usize {
        self.siblings.len()
    }

    /// Recomputes the root implied by `leaf` under this path.
    pub fn compute_root(&self, leaf: Fr) -> Fr {
        let mut node = leaf;
        let mut idx = self.index;
        for sibling in &self.siblings {
            node = if idx & 1 == 0 {
                node_hash(node, *sibling)
            } else {
                node_hash(*sibling, node)
            };
            idx >>= 1;
        }
        node
    }

    /// Verifies that `leaf` at this proof's index is included under `root`.
    ///
    /// ```
    /// use wakurln_crypto::{field::Fr, merkle::FullMerkleTree};
    ///
    /// let mut tree = FullMerkleTree::new(8).unwrap();
    /// tree.set(3, Fr::from_u64(77)).unwrap();
    /// let proof = tree.proof(3).unwrap();
    /// assert!(proof.verify(tree.root(), Fr::from_u64(77)));
    /// assert!(!proof.verify(tree.root(), Fr::from_u64(78)));
    /// ```
    pub fn verify(&self, root: Fr, leaf: Fr) -> bool {
        self.compute_root(leaf) == root
    }
}

/// Checks a depth argument and returns the capacity, shared by all
/// implementations.
pub(crate) fn validate_depth(depth: usize) -> Result<u64, MerkleError> {
    if depth == 0 || depth > MAX_DEPTH {
        return Err(MerkleError::UnsupportedDepth(depth));
    }
    Ok(1u64 << depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_hash_chain_is_consistent() {
        let z = zero_hashes();
        assert_eq!(z[0], EMPTY_LEAF);
        for l in 1..=MAX_DEPTH {
            assert_eq!(z[l], node_hash(z[l - 1], z[l - 1]));
        }
    }

    #[test]
    fn empty_trees_of_all_impls_share_roots() {
        for depth in [1usize, 2, 4, 10, 20] {
            let full = FullMerkleTree::new(depth).unwrap();
            let inc = IncrementalMerkleTree::new(depth).unwrap();
            assert_eq!(full.root(), zero_hashes()[depth]);
            assert_eq!(inc.root(), zero_hashes()[depth]);
        }
    }

    #[test]
    fn depth_validation() {
        assert!(matches!(
            FullMerkleTree::new(0),
            Err(MerkleError::UnsupportedDepth(0))
        ));
        assert!(matches!(
            FullMerkleTree::new(MAX_DEPTH + 1),
            Err(MerkleError::UnsupportedDepth(_))
        ));
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            MerkleError::IndexOutOfRange {
                index: 9,
                capacity: 8,
            },
            MerkleError::TreeFull,
            MerkleError::StaleWitness,
            MerkleError::UnsupportedDepth(99),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn batched_append_uses_at_least_5x_fewer_hashes_at_1024() {
        // the tentpole accounting claim: at batch size 1024 on a depth-20
        // tree, append_batch needs ≥ 5× fewer Poseidon invocations than
        // leaf-at-a-time appends (measured: ~20×)
        let leaves: Vec<Fr> = (0..1024u64).map(Fr::from_u64).collect();

        let mut sequential = FullMerkleTree::new(20).unwrap();
        let before = crate::poseidon::permutation_count();
        for leaf in &leaves {
            sequential.append(*leaf).unwrap();
        }
        let sequential_hashes = crate::poseidon::permutation_count() - before;

        let mut batched = FullMerkleTree::new(20).unwrap();
        let before = crate::poseidon::permutation_count();
        batched.append_batch(&leaves).unwrap();
        let batched_hashes = crate::poseidon::permutation_count() - before;

        assert_eq!(batched.root(), sequential.root());
        assert!(
            sequential_hashes >= 5 * batched_hashes,
            "sequential {sequential_hashes} vs batched {batched_hashes}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The batch equivalence property: one
        /// [`FullMerkleTree::append_batch`] produces the same root, next
        /// index and proofs as leaf-at-a-time appends to the full and the
        /// incremental tree, from any prefix state.
        #[test]
        fn prop_append_batch_equals_sequential_appends(
            prefix in proptest::collection::vec(any::<u64>(), 0..12),
            batch in proptest::collection::vec(any::<u64>(), 0..48)
        ) {
            let depth = 6;
            let prefix: Vec<Fr> = prefix.into_iter().map(Fr::from_u64).collect();
            let batch: Vec<Fr> = batch.into_iter().map(Fr::from_u64).collect();

            let mut seq_full = FullMerkleTree::new(depth).unwrap();
            let mut seq_inc = IncrementalMerkleTree::new(depth).unwrap();
            let mut bat_full = FullMerkleTree::new(depth).unwrap();
            for leaf in &prefix {
                seq_full.append(*leaf).unwrap();
                seq_inc.append(*leaf).unwrap();
                bat_full.append(*leaf).unwrap();
            }

            for leaf in &batch {
                seq_full.append(*leaf).unwrap();
                seq_inc.append(*leaf).unwrap();
            }
            let start = bat_full.append_batch(&batch).unwrap();
            prop_assert_eq!(start, prefix.len() as u64);

            prop_assert_eq!(bat_full.root(), seq_full.root());
            prop_assert_eq!(bat_full.root(), seq_inc.root());
            prop_assert_eq!(bat_full.next_index(), seq_full.next_index());
            prop_assert_eq!(bat_full.next_index(), seq_inc.len());

            // proofs agree for every populated leaf
            for index in 0..seq_full.next_index() {
                prop_assert_eq!(
                    bat_full.proof(index).unwrap(),
                    seq_full.proof(index).unwrap()
                );
            }
        }

        /// Batches that straddle frontier boundaries keep future appends
        /// correct (the frontier-invariant regression shape).
        #[test]
        fn prop_appends_after_batch_stay_consistent(
            batch_len in 1usize..20,
            tail in proptest::collection::vec(any::<u64>(), 1..12)
        ) {
            let depth = 5;
            let batch: Vec<Fr> = (0..batch_len as u64).map(|v| Fr::from_u64(v + 100)).collect();
            let mut full = FullMerkleTree::new(depth).unwrap();
            let mut inc = IncrementalMerkleTree::new(depth).unwrap();
            full.append_batch(&batch).unwrap();
            for leaf in &batch {
                inc.append(*leaf).unwrap();
            }
            prop_assert_eq!(full.root(), inc.root());
            for v in tail {
                if full.next_index() == full.capacity() { break; }
                full.append(Fr::from_u64(v)).unwrap();
                inc.append(Fr::from_u64(v)).unwrap();
                prop_assert_eq!(full.root(), inc.root());
            }
        }

        #[test]
        fn prop_full_and_incremental_agree_on_appends(
            leaves in proptest::collection::vec(any::<u64>(), 0..20)
        ) {
            let depth = 6;
            let mut full = FullMerkleTree::new(depth).unwrap();
            let mut inc = IncrementalMerkleTree::new(depth).unwrap();
            for (i, v) in leaves.iter().enumerate() {
                full.set(i as u64, Fr::from_u64(*v)).unwrap();
                inc.append(Fr::from_u64(*v)).unwrap();
                prop_assert_eq!(full.root(), inc.root());
            }
        }

        #[test]
        fn prop_proofs_verify_and_tampered_proofs_fail(
            assignments in proptest::collection::vec((0u64..16, any::<u64>()), 1..24),
            probe in 0u64..16
        ) {
            let mut tree = FullMerkleTree::new(4).unwrap();
            for (idx, v) in &assignments {
                tree.set(*idx, Fr::from_u64(*v)).unwrap();
            }
            let leaf = tree.leaf(probe).unwrap();
            let proof = tree.proof(probe).unwrap();
            prop_assert!(proof.verify(tree.root(), leaf));
            // tampering with the leaf breaks verification
            prop_assert!(!proof.verify(tree.root(), leaf + Fr::ONE));
            // tampering with a sibling breaks verification
            let mut bad = proof.clone();
            bad.siblings[0] += Fr::ONE;
            prop_assert!(!bad.verify(tree.root(), leaf));
        }
    }
}
