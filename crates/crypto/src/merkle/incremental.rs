//! Append-only frontier Merkle tree (O(depth) memory).

use super::{node_hash, validate_depth, zero_hashes, MerkleError};
use crate::field::Fr;

/// An append-only Merkle tree storing only the "frontier" — the roots of
/// the completed left subtrees — in `O(depth)` memory.
///
/// This matches the data a smart contract must persist when the membership
/// tree is kept *on-chain* (the original RLN proposal the paper optimizes
/// away), and is the core of the reference \[9\] storage optimization: the
/// running root of an append-only tree needs only `depth` stored hashes.
///
/// # Examples
///
/// ```
/// use wakurln_crypto::{field::Fr, merkle::{FullMerkleTree, IncrementalMerkleTree}};
///
/// let mut inc = IncrementalMerkleTree::new(8)?;
/// let mut full = FullMerkleTree::new(8)?;
/// for v in 0..10u64 {
///     inc.append(Fr::from_u64(v))?;
///     full.append(Fr::from_u64(v))?;
/// }
/// assert_eq!(inc.root(), full.root());
/// # Ok::<(), wakurln_crypto::merkle::MerkleError>(())
/// ```
#[derive(Clone, Debug)]
pub struct IncrementalMerkleTree {
    depth: usize,
    /// `frontier[l]` is the left sibling at level `l` that is still waiting
    /// for its right sibling; meaningful only where the corresponding bit
    /// pattern of `next_index` indicates a pending left node.
    frontier: Vec<Fr>,
    next_index: u64,
    root: Fr,
}

impl IncrementalMerkleTree {
    /// Creates an empty append-only tree of the given depth.
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::UnsupportedDepth`] for invalid depths.
    pub fn new(depth: usize) -> Result<IncrementalMerkleTree, MerkleError> {
        validate_depth(depth)?;
        Ok(IncrementalMerkleTree {
            depth,
            frontier: vec![Fr::ZERO; depth],
            next_index: 0,
            root: zero_hashes()[depth],
        })
    }

    /// The tree depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The number of leaves appended so far.
    pub fn len(&self) -> u64 {
        self.next_index
    }

    /// `true` if no leaves have been appended.
    pub fn is_empty(&self) -> bool {
        self.next_index == 0
    }

    /// Leaf capacity (`2^depth`).
    pub fn capacity(&self) -> u64 {
        1u64 << self.depth
    }

    /// The current root.
    pub fn root(&self) -> Fr {
        self.root
    }

    /// Appends a leaf, returning its index.
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::TreeFull`] when the tree is at capacity.
    #[allow(clippy::needless_range_loop)]
    pub fn append(&mut self, leaf: Fr) -> Result<u64, MerkleError> {
        if self.next_index >= self.capacity() {
            return Err(MerkleError::TreeFull);
        }
        let index = self.next_index;
        let zeros = zero_hashes();
        let mut node = leaf;
        let mut idx = index;
        for l in 0..self.depth {
            if idx & 1 == 0 {
                // `node` is a left child: remember it, complete the level
                // with the empty subtree to keep computing the running root.
                self.frontier[l] = node;
                node = node_hash(node, zeros[l]);
            } else {
                node = node_hash(self.frontier[l], node);
            }
            idx >>= 1;
        }
        self.root = node;
        self.next_index = index + 1;
        Ok(index)
    }

    /// Number of persistent hashes (frontier + root), for the E3/E4
    /// storage and gas experiments.
    pub fn stored_nodes(&self) -> usize {
        self.depth + 1
    }

    /// Estimated resident bytes of the hash storage.
    pub fn storage_bytes(&self) -> usize {
        self.stored_nodes() * 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merkle::FullMerkleTree;
    use proptest::prelude::*;

    #[test]
    fn matches_full_tree_over_full_capacity() {
        let depth = 4;
        let mut inc = IncrementalMerkleTree::new(depth).unwrap();
        let mut full = FullMerkleTree::new(depth).unwrap();
        for v in 0..16u64 {
            inc.append(Fr::from_u64(v + 100)).unwrap();
            full.append(Fr::from_u64(v + 100)).unwrap();
            assert_eq!(inc.root(), full.root(), "after {v} appends");
        }
        assert_eq!(inc.append(Fr::ONE), Err(MerkleError::TreeFull));
    }

    #[test]
    fn len_and_empty() {
        let mut t = IncrementalMerkleTree::new(3).unwrap();
        assert!(t.is_empty());
        t.append(Fr::ONE).unwrap();
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn storage_is_linear_in_depth() {
        let t = IncrementalMerkleTree::new(20).unwrap();
        assert_eq!(t.stored_nodes(), 21);
        assert!(
            t.storage_bytes() < 1024,
            "O(depth) storage stays under 1 KB"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_matches_full_tree(leaves in proptest::collection::vec(any::<u64>(), 0..32)) {
            let depth = 5;
            let mut inc = IncrementalMerkleTree::new(depth).unwrap();
            let mut full = FullMerkleTree::new(depth).unwrap();
            for v in leaves {
                inc.append(Fr::from_u64(v)).unwrap();
                full.append(Fr::from_u64(v)).unwrap();
            }
            prop_assert_eq!(inc.root(), full.root());
        }
    }
}
