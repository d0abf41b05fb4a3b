//! Full Merkle tree stored up to its frontier.

use super::{node_hash, validate_depth, zero_hashes, MerkleError, MerkleProof};
use crate::field::Fr;

/// A fixed-depth Merkle tree that proves any leaf, storing every node at
/// or left of the frontier and nothing to its right.
///
/// This is what a full relay node or slasher (which must produce
/// membership proofs for arbitrary members) keeps. Level `l` stores
/// ⌈`next_index` / 2^l⌉ nodes, so memory is `O(members + depth)`
/// whatever the depth: every node past the frontier is the root of an
/// empty subtree, read as [`zero_hashes`]`()[l]`. The paper's "a
/// membership tree with depth 20 requires 67 MB storage" is the cost of
/// storing all 2^(depth+1) − 1 nodes instead.
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
    /// `levels[l]` holds the level-`l` nodes at or left of the frontier
    /// (level 0 = leaves, `levels[depth]` = the root once non-empty).
    levels: Vec<Vec<Fr>>,
    /// One past the highest leaf index ever written.
    next_index: u64,
}

impl FullMerkleTree {
    /// Creates an empty tree of the given depth.
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::UnsupportedDepth`] if `depth` is 0 or exceeds
    /// [`super::MAX_DEPTH`].
    pub fn new(depth: usize) -> Result<FullMerkleTree, MerkleError> {
        validate_depth(depth)?;
        Ok(FullMerkleTree {
            depth,
            levels: vec![Vec::new(); depth + 1],
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
        self.node(self.depth, 0)
    }

    /// Returns the leaf at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::IndexOutOfRange`] for indices beyond capacity.
    pub fn leaf(&self, index: u64) -> Result<Fr, MerkleError> {
        self.check_index(index)?;
        Ok(self.node(0, index))
    }

    /// Sets the leaf at `index`, updating all ancestors. An index past
    /// the frontier moves the frontier to it.
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::IndexOutOfRange`] for indices beyond capacity.
    pub fn set(&mut self, index: u64, leaf: Fr) -> Result<(), MerkleError> {
        self.check_index(index)?;
        self.write(index, &[leaf]);
        Ok(())
    }

    /// Appends a leaf at the next free index, returning that index.
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::TreeFull`] when all slots are used.
    pub fn append(&mut self, leaf: Fr) -> Result<u64, MerkleError> {
        self.append_batch(&[leaf])
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
        if leaves.len() as u64 > self.capacity() - start {
            return Err(MerkleError::TreeFull);
        }
        self.write(start, leaves);
        Ok(start)
    }

    /// Produces the authentication path for `index`.
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::IndexOutOfRange`] for indices beyond capacity.
    pub fn proof(&self, index: u64) -> Result<MerkleProof, MerkleError> {
        self.check_index(index)?;
        let siblings = (0..self.depth)
            .map(|level| self.node(level, (index >> level) ^ 1))
            .collect();
        Ok(MerkleProof { index, siblings })
    }

    /// Node value at `pos` within `level` (level 0 = leaves): the stored
    /// node, or the empty-subtree hash past the frontier.
    pub(crate) fn node(&self, level: usize, pos: u64) -> Fr {
        self.levels
            .get(level)
            .and_then(|row| row.get(pos as usize))
            .copied()
            .unwrap_or(zero_hashes()[level])
    }

    /// Estimated resident bytes of the hash storage: one 32-byte field
    /// element per stored node, `O(members + depth)`.
    pub fn storage_bytes(&self) -> usize {
        self.levels.iter().map(Vec::len).sum::<usize>() * 32
    }

    /// Writes `leaves` from index `start` on (in capacity, checked by the
    /// caller), grows every level to the new frontier, and rehashes each
    /// level once over the span the write dirtied.
    fn write(&mut self, start: u64, leaves: &[Fr]) {
        let Some(last) = (leaves.len() as u64).checked_sub(1) else {
            return;
        };
        let end = start + last;
        self.next_index = self.next_index.max(end + 1);
        let zeros = zero_hashes();
        for (level, row) in self.levels.iter_mut().enumerate() {
            // nodes that become stored here lie wholly right of the old
            // frontier, so each is still the empty subtree of its level
            row.resize(((self.next_index - 1) >> level) as usize + 1, zeros[level]);
        }
        if let Some(row) = self.levels.first_mut() {
            row[start as usize..=end as usize].copy_from_slice(leaves);
        }
        let (mut lo, mut hi) = (start, end);
        for level in 0..self.depth {
            lo >>= 1;
            hi >>= 1;
            for parent in lo..=hi {
                let hash = node_hash(
                    self.node(level, parent << 1),
                    self.node(level, (parent << 1) | 1),
                );
                self.levels[level + 1][parent as usize] = hash;
            }
        }
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
    use proptest::prelude::*;

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
    fn storage_is_bounded_by_members_not_depth() {
        // the paper's depth-20 figure (67 MB) stores all 2^21 - 1 nodes;
        // this tree stores Σ_l ⌈n / 2^l⌉ ≤ 2n + depth + 1 of them
        let mut t = FullMerkleTree::new(20).unwrap();
        assert_eq!(t.storage_bytes(), 0);
        for members in [1u64, 2, 3, 1000, 1001] {
            let burst: Vec<Fr> = (t.next_index()..members).map(Fr::from_u64).collect();
            t.append_batch(&burst).unwrap();
            let bound = (2 * members as usize + 20 + 1) * 32;
            assert!(
                t.storage_bytes() <= bound,
                "{} > {bound}",
                t.storage_bytes()
            );
        }
    }

    #[test]
    fn empty_root_is_zero_hash() {
        let t = FullMerkleTree::new(8).unwrap();
        assert_eq!(t.root(), zero_hashes()[8]);
    }

    /// Every level of the tree over a complete `2^depth` leaf vector,
    /// hashed node by node: the dense reference the prefix tree must
    /// match.
    fn dense_levels(leaves: &[Fr]) -> Vec<Vec<Fr>> {
        let mut levels = vec![leaves.to_vec()];
        while let Some(below) = levels.last().filter(|row| row.len() > 1) {
            let above = below.chunks(2).map(|p| node_hash(p[0], p[1])).collect();
            levels.push(above);
        }
        levels
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random interleavings of `append`, `append_batch` and `set`
        /// (inside and past the frontier, removals included) keep the
        /// root, `next_index`, every leaf and every proof equal to a
        /// dense tree's at depths 1–6.
        #[test]
        fn prop_matches_dense_reference(
            depth in 1usize..7,
            ops in proptest::collection::vec((0u8..4, any::<u64>(), 1usize..6), 1..24)
        ) {
            let capacity = 1u64 << depth;
            let mut tree = FullMerkleTree::new(depth).unwrap();
            let mut leaves = vec![EMPTY_LEAF; capacity as usize];
            let mut next_index = 0u64;
            for (step, (kind, draw, len)) in ops.into_iter().enumerate() {
                let value = Fr::from_u64(step as u64 + 1);
                let room = capacity - next_index;
                match kind {
                    0 if room > 0 => {
                        prop_assert_eq!(tree.append(value).unwrap(), next_index);
                        leaves[next_index as usize] = value;
                        next_index += 1;
                    }
                    1 if room > 0 => {
                        let batch: Vec<Fr> = (0..(len as u64).min(room))
                            .map(|i| Fr::from_u64(draw.wrapping_add(i)))
                            .collect();
                        prop_assert_eq!(tree.append_batch(&batch).unwrap(), next_index);
                        let start = next_index as usize;
                        leaves[start..start + batch.len()].copy_from_slice(&batch);
                        next_index += batch.len() as u64;
                    }
                    _ => {
                        // a removal (kind 2) or a write, anywhere in capacity
                        let index = draw % capacity;
                        let leaf = if kind == 2 { EMPTY_LEAF } else { value };
                        tree.set(index, leaf).unwrap();
                        leaves[index as usize] = leaf;
                        next_index = next_index.max(index + 1);
                    }
                }
                let dense = dense_levels(&leaves);
                prop_assert_eq!(tree.root(), dense[depth][0]);
                prop_assert_eq!(tree.next_index(), next_index);
                for index in 0..capacity {
                    prop_assert_eq!(tree.leaf(index).unwrap(), leaves[index as usize]);
                    let proof = tree.proof(index).unwrap();
                    for (level, sibling) in proof.siblings.iter().enumerate() {
                        prop_assert_eq!(*sibling, dense[level][((index >> level) ^ 1) as usize]);
                    }
                }
            }
        }
    }
}
