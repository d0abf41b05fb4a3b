//! Fully materialized Merkle tree.

use super::{node_hash, validate_depth, zero_hashes, MerkleError, MerkleProof};
use crate::field::Fr;

/// A fixed-depth Merkle tree with every node materialized.
///
/// Memory is `O(2^depth)` — this is the representation whose cost the paper
/// quotes as "a membership tree with depth 20 requires 67 MB storage", and
/// what a full relay node or slasher (which must produce membership proofs
/// for arbitrary members) keeps.
///
/// Levels are stored densely: `levels[0]` is the leaf layer
/// (`2^depth` entries), `levels[depth]` is the single root.
///
/// # Examples
///
/// ```
/// use wakurln_crypto::{field::Fr, merkle::FullMerkleTree};
///
/// let mut tree = FullMerkleTree::new(10)?;
/// tree.set(0, Fr::from_u64(11))?;
/// tree.set(5, Fr::from_u64(22))?;
/// let proof = tree.proof(5)?;
/// assert!(proof.verify(tree.root(), Fr::from_u64(22)));
/// # Ok::<(), wakurln_crypto::merkle::MerkleError>(())
/// ```
#[derive(Clone, Debug)]
pub struct FullMerkleTree {
    depth: usize,
    levels: Vec<Vec<Fr>>,
    /// Number of leaves ever assigned via [`FullMerkleTree::append`].
    next_index: u64,
}

impl FullMerkleTree {
    /// Creates an empty tree of the given depth.
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::UnsupportedDepth`] if `depth` is 0 or exceeds
    /// [`super::MAX_DEPTH`].
    #[allow(clippy::needless_range_loop)]
    pub fn new(depth: usize) -> Result<FullMerkleTree, MerkleError> {
        validate_depth(depth)?;
        let zeros = zero_hashes();
        let mut levels = Vec::with_capacity(depth + 1);
        for l in 0..=depth {
            levels.push(vec![zeros[l]; 1usize << (depth - l)]);
        }
        Ok(FullMerkleTree {
            depth,
            levels,
            next_index: 0,
        })
    }

    /// The tree depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The number of leaf slots.
    pub fn capacity(&self) -> u64 {
        1u64 << self.depth
    }

    /// Index that the next [`FullMerkleTree::append`] will use.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// The current root.
    pub fn root(&self) -> Fr {
        // lint:allow(panic-path, reason = "levels holds depth+1 non-empty rows; the root row holds exactly one node")
        self.levels[self.depth][0]
    }

    /// Returns the leaf at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::IndexOutOfRange`] for indices beyond capacity.
    pub fn leaf(&self, index: u64) -> Result<Fr, MerkleError> {
        self.check_index(index)?;
        // lint:allow(panic-path, reason = "check_index ran the line above; levels[0] holds 2^depth leaves")
        Ok(self.levels[0][index as usize])
    }

    /// Sets the leaf at `index`, updating all ancestors.
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::IndexOutOfRange`] for indices beyond capacity.
    pub fn set(&mut self, index: u64, leaf: Fr) -> Result<(), MerkleError> {
        self.check_index(index)?;
        // lint:allow(panic-path, reason = "check_index ran the line above; levels[0] holds 2^depth leaves")
        self.levels[0][index as usize] = leaf;
        let mut idx = index as usize;
        for l in 0..self.depth {
            let parent = idx >> 1;
            let left = self.levels[l][parent << 1];
            let right = self.levels[l][(parent << 1) | 1];
            self.levels[l + 1][parent] = node_hash(left, right);
            idx = parent;
        }
        if index >= self.next_index {
            self.next_index = index + 1;
        }
        Ok(())
    }

    /// Appends a leaf at the next free index, returning that index.
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::TreeFull`] when all slots are used.
    pub fn append(&mut self, leaf: Fr) -> Result<u64, MerkleError> {
        if self.next_index >= self.capacity() {
            return Err(MerkleError::TreeFull);
        }
        let index = self.next_index;
        self.set(index, leaf)?;
        Ok(index)
    }

    /// Appends a batch of leaves starting at the next free index,
    /// recomputing each ancestor level **once per batch** instead of once
    /// per leaf — `O(n + depth)` node hashes versus `O(n · depth)` for
    /// repeated [`FullMerkleTree::append`]. Returns the index of the first
    /// appended leaf (the current `next_index` for an empty batch).
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::TreeFull`] (without modifying the tree) when
    /// the batch does not fit in the remaining capacity.
    ///
    /// # Examples
    ///
    /// ```
    /// use wakurln_crypto::{field::Fr, merkle::FullMerkleTree};
    ///
    /// let leaves: Vec<Fr> = (0..100u64).map(Fr::from_u64).collect();
    /// let mut batched = FullMerkleTree::new(10)?;
    /// let mut sequential = FullMerkleTree::new(10)?;
    /// batched.append_batch(&leaves)?;
    /// for leaf in &leaves {
    ///     sequential.append(*leaf)?;
    /// }
    /// assert_eq!(batched.root(), sequential.root());
    /// # Ok::<(), wakurln_crypto::merkle::MerkleError>(())
    /// ```
    pub fn append_batch(&mut self, leaves: &[Fr]) -> Result<u64, MerkleError> {
        let start = self.next_index;
        if leaves.is_empty() {
            return Ok(start);
        }
        if leaves.len() as u64 > self.capacity() - start {
            return Err(MerkleError::TreeFull);
        }
        let s = start as usize;
        // lint:allow(panic-path, reason = "the caller validated start + leaves.len() <= capacity before entering this hot loop")
        self.levels[0][s..s + leaves.len()].copy_from_slice(leaves);
        // recompute each level once over the span the batch dirtied
        let mut lo = s;
        let mut hi = s + leaves.len() - 1;
        for l in 0..self.depth {
            lo >>= 1;
            hi >>= 1;
            for parent in lo..=hi {
                let left = self.levels[l][parent << 1];
                let right = self.levels[l][(parent << 1) | 1];
                self.levels[l + 1][parent] = node_hash(left, right);
            }
        }
        self.next_index = start + leaves.len() as u64;
        Ok(start)
    }

    /// Produces the authentication path for `index`.
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::IndexOutOfRange`] for indices beyond capacity.
    pub fn proof(&self, index: u64) -> Result<MerkleProof, MerkleError> {
        self.check_index(index)?;
        let mut siblings = Vec::with_capacity(self.depth);
        let mut idx = index as usize;
        for l in 0..self.depth {
            siblings.push(self.levels[l][idx ^ 1]);
            idx >>= 1;
        }
        Ok(MerkleProof { index, siblings })
    }

    /// Node value at `pos` within `level` (level 0 = leaves). Used by
    /// the delta capture to read recomputed spans and frontiers.
    pub(crate) fn node(&self, level: usize, pos: u64) -> Fr {
        self.levels[level][pos as usize]
    }

    /// Total number of stored node hashes (used by the E3 storage
    /// experiment; each node is one 32-byte field element).
    pub fn stored_nodes(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Estimated resident bytes of the hash storage.
    pub fn storage_bytes(&self) -> usize {
        self.stored_nodes() * 32
    }

    fn check_index(&self, index: u64) -> Result<(), MerkleError> {
        if index >= self.capacity() {
            Err(MerkleError::IndexOutOfRange {
                index,
                capacity: self.capacity(),
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merkle::{zero_hashes, EMPTY_LEAF};

    #[test]
    fn set_and_get_roundtrip() {
        let mut t = FullMerkleTree::new(4).unwrap();
        t.set(7, Fr::from_u64(123)).unwrap();
        assert_eq!(t.leaf(7).unwrap(), Fr::from_u64(123));
        assert_eq!(t.leaf(6).unwrap(), EMPTY_LEAF);
    }

    #[test]
    fn root_changes_on_set_and_restores_on_remove() {
        let mut t = FullMerkleTree::new(5).unwrap();
        let empty_root = t.root();
        t.set(3, Fr::from_u64(9)).unwrap();
        assert_ne!(t.root(), empty_root);
        t.set(3, EMPTY_LEAF).unwrap();
        assert_eq!(t.root(), empty_root);
    }

    #[test]
    fn append_assigns_sequential_indices() {
        let mut t = FullMerkleTree::new(3).unwrap();
        for i in 0..8 {
            assert_eq!(t.append(Fr::from_u64(i)).unwrap(), i);
        }
        assert_eq!(t.append(Fr::ONE), Err(MerkleError::TreeFull));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut t = FullMerkleTree::new(3).unwrap();
        assert!(matches!(
            t.set(8, Fr::ONE),
            Err(MerkleError::IndexOutOfRange {
                index: 8,
                capacity: 8
            })
        ));
        assert!(t.proof(100).is_err());
        assert!(t.leaf(100).is_err());
    }

    #[test]
    fn proof_depth_matches_tree() {
        let t = FullMerkleTree::new(6).unwrap();
        assert_eq!(t.proof(0).unwrap().depth(), 6);
    }

    #[test]
    fn manual_depth2_root() {
        // depth 2: leaves a,b,c,d; root = H(H(a,b), H(c,d))
        let mut t = FullMerkleTree::new(2).unwrap();
        let vals = [1u64, 2, 3, 4].map(Fr::from_u64);
        for (i, v) in vals.iter().enumerate() {
            t.set(i as u64, *v).unwrap();
        }
        let expect = node_hash(node_hash(vals[0], vals[1]), node_hash(vals[2], vals[3]));
        assert_eq!(t.root(), expect);
    }

    #[test]
    fn storage_accounting_depth_20_matches_paper_order() {
        // The paper: depth-20 full tree ≈ 67 MB. 2^21 - 1 nodes ≈ 2M × 32 B ≈ 64 MiB.
        let t = FullMerkleTree::new(20).unwrap();
        let mb = t.storage_bytes() as f64 / (1024.0 * 1024.0);
        assert!(mb > 60.0 && mb < 70.0, "got {mb} MB");
    }

    #[test]
    fn empty_root_is_zero_hash() {
        let t = FullMerkleTree::new(8).unwrap();
        assert_eq!(t.root(), zero_hashes()[8]);
    }
}
