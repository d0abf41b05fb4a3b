//! Local (off-chain) view of the RLN membership group.

use crate::identity::Identity;
use std::collections::{HashMap, HashSet};
use wakurln_crypto::field::Fr;
use wakurln_crypto::merkle::{
    AppendDelta, FullMerkleTree, MerkleError, MerkleProof, UpdateDelta, EMPTY_LEAF,
};

/// Errors from group bookkeeping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GroupError {
    /// Underlying tree error.
    Merkle(MerkleError),
    /// The commitment is already registered.
    AlreadyRegistered(Fr),
    /// No member at the given index.
    NoSuchMember(u64),
}

impl std::fmt::Display for GroupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupError::Merkle(e) => write!(f, "merkle error: {e}"),
            GroupError::AlreadyRegistered(pk) => write!(f, "commitment {pk} already registered"),
            GroupError::NoSuchMember(i) => write!(f, "no member at index {i}"),
        }
    }
}

impl std::error::Error for GroupError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GroupError::Merkle(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MerkleError> for GroupError {
    fn from(e: MerkleError) -> GroupError {
        GroupError::Merkle(e)
    }
}

/// A full-node view of the membership group: the complete Merkle tree plus
/// a commitment→index map.
///
/// Per §III the on-chain contract stores only the *ordered list* of
/// commitments; each peer replays registration/deletion events into a
/// structure like this one. (Light peers keep a
/// [`wakurln_crypto::merkle::MemberView`] instead, fed by this group's
/// deltas.)
///
/// # Examples
///
/// ```
/// use wakurln_rln::{Identity, RlnGroup};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let mut group = RlnGroup::new(20)?;
/// let id = Identity::random(&mut rng);
/// let index = group.register(id.commitment())?;
/// let proof = group.membership_proof(index)?;
/// assert!(proof.verify(group.root(), id.commitment()));
/// # Ok::<(), wakurln_rln::GroupError>(())
/// ```
#[derive(Clone, Debug)]
pub struct RlnGroup {
    tree: FullMerkleTree,
    index_of: HashMap<[u8; 32], u64>,
}

impl RlnGroup {
    /// Creates an empty group over a tree of the given depth.
    ///
    /// # Errors
    ///
    /// Propagates [`MerkleError::UnsupportedDepth`].
    pub fn new(depth: usize) -> Result<RlnGroup, GroupError> {
        Ok(RlnGroup {
            tree: FullMerkleTree::new(depth)?,
            index_of: HashMap::new(),
        })
    }

    /// Tree depth.
    pub fn depth(&self) -> usize {
        self.tree.depth()
    }

    /// Current membership root.
    pub fn root(&self) -> Fr {
        self.tree.root()
    }

    /// Number of registered (non-deleted) members.
    pub fn member_count(&self) -> usize {
        self.index_of.len()
    }

    /// Registers a commitment at the next free index.
    ///
    /// # Errors
    ///
    /// * [`GroupError::AlreadyRegistered`] for duplicate commitments —
    ///   mirroring the contract, which rejects double registration.
    /// * [`GroupError::Merkle`] when the tree is full.
    pub fn register(&mut self, commitment: Fr) -> Result<u64, GroupError> {
        let key = commitment.to_bytes_le();
        if self.index_of.contains_key(&key) {
            return Err(GroupError::AlreadyRegistered(commitment));
        }
        let index = self.tree.append(commitment)?;
        self.index_of.insert(key, index);
        Ok(index)
    }

    /// Registers a burst of commitments in one batched tree update
    /// (`O(n + depth)` hashes via
    /// [`FullMerkleTree::append_batch`] instead of `O(n · depth)` for
    /// per-member [`RlnGroup::register`]). Returns the index range
    /// assigned to the batch.
    ///
    /// The whole batch is validated up front and applied atomically:
    /// duplicates (against the group *or* within the batch) and
    /// over-capacity batches leave the group untouched.
    ///
    /// # Errors
    ///
    /// * [`GroupError::AlreadyRegistered`] for the first duplicate found.
    /// * [`GroupError::Merkle`] when the batch exceeds capacity.
    pub fn register_batch(
        &mut self,
        commitments: &[Fr],
    ) -> Result<std::ops::Range<u64>, GroupError> {
        self.check_batch(commitments)?;
        let start = self.tree.append_batch(commitments)?;
        for (offset, commitment) in commitments.iter().enumerate() {
            self.index_of
                .insert(commitment.to_bytes_le(), start + offset as u64);
        }
        Ok(start..start + commitments.len() as u64)
    }

    /// [`RlnGroup::register_batch`], additionally capturing the
    /// [`AppendDelta`] light members apply without re-hashing (see
    /// [`wakurln_crypto::merkle::MemberView`]). Same atomicity.
    ///
    /// # Errors
    ///
    /// As [`RlnGroup::register_batch`].
    pub fn register_batch_with_delta(
        &mut self,
        commitments: &[Fr],
    ) -> Result<(std::ops::Range<u64>, AppendDelta), GroupError> {
        self.check_batch(commitments)?;
        let delta = self.tree.append_batch_with_delta(commitments)?;
        let start = delta.start;
        for (offset, commitment) in commitments.iter().enumerate() {
            self.index_of
                .insert(commitment.to_bytes_le(), start + offset as u64);
        }
        Ok((start..start + commitments.len() as u64, delta))
    }

    fn check_batch(&self, commitments: &[Fr]) -> Result<(), GroupError> {
        let mut seen = HashSet::with_capacity(commitments.len());
        let mut first_repeat = None;
        for commitment in commitments {
            let key = commitment.to_bytes_le();
            if self.index_of.contains_key(&key) {
                return Err(GroupError::AlreadyRegistered(*commitment));
            }
            if !seen.insert(key) && first_repeat.is_none() {
                first_repeat = Some(*commitment);
            }
        }
        match first_repeat {
            Some(dup) => Err(GroupError::AlreadyRegistered(dup)),
            None => Ok(()),
        }
    }

    /// [`RlnGroup::remove`], additionally capturing the [`UpdateDelta`]
    /// light members apply to follow the deletion.
    ///
    /// # Errors
    ///
    /// As [`RlnGroup::remove`].
    pub fn remove_with_delta(&mut self, index: u64) -> Result<(Fr, UpdateDelta), GroupError> {
        let leaf = self.tree.leaf(index)?;
        if leaf == EMPTY_LEAF {
            return Err(GroupError::NoSuchMember(index));
        }
        let delta = self.tree.set_with_delta(index, EMPTY_LEAF)?;
        self.index_of.remove(&leaf.to_bytes_le());
        Ok((leaf, delta))
    }

    /// Removes the member at `index` (slashing), zeroing its leaf.
    ///
    /// Returns the removed commitment.
    ///
    /// # Errors
    ///
    /// [`GroupError::NoSuchMember`] if the slot is empty or out of range.
    pub fn remove(&mut self, index: u64) -> Result<Fr, GroupError> {
        let leaf = self.tree.leaf(index)?;
        if leaf == EMPTY_LEAF {
            return Err(GroupError::NoSuchMember(index));
        }
        self.tree.remove(index)?;
        self.index_of.remove(&leaf.to_bytes_le());
        Ok(leaf)
    }

    /// Removes a member identified by its *secret key* — the slashing
    /// entry point: anyone who learns `sk` (via double-signaling) can
    /// delete the member.
    ///
    /// Returns the index of the removed member.
    ///
    /// # Errors
    ///
    /// [`GroupError::NoSuchMember`] if `H(sk)` is not registered.
    pub fn remove_by_secret(&mut self, sk: Fr) -> Result<u64, GroupError> {
        let commitment = Identity::from_secret(sk).commitment();
        let index = self
            .index_of
            .get(&commitment.to_bytes_le())
            .copied()
            .ok_or(GroupError::NoSuchMember(u64::MAX))?;
        self.remove(index)?;
        Ok(index)
    }

    /// Index of a commitment, if registered.
    pub fn index_of(&self, commitment: Fr) -> Option<u64> {
        self.index_of.get(&commitment.to_bytes_le()).copied()
    }

    /// Whether a commitment is currently registered.
    pub fn contains(&self, commitment: Fr) -> bool {
        self.index_of.contains_key(&commitment.to_bytes_le())
    }

    /// Authentication path for the member at `index`.
    ///
    /// # Errors
    ///
    /// [`GroupError::Merkle`] for out-of-range indices.
    pub fn membership_proof(&self, index: u64) -> Result<MerkleProof, GroupError> {
        Ok(self.tree.proof(index)?)
    }

    /// The leaf value at `index`.
    ///
    /// # Errors
    ///
    /// [`GroupError::Merkle`] for out-of-range indices.
    pub fn leaf(&self, index: u64) -> Result<Fr, GroupError> {
        Ok(self.tree.leaf(index)?)
    }

    /// Read access to the underlying tree (e.g. for storage accounting).
    pub fn tree(&self) -> &FullMerkleTree {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn register_and_prove() {
        let mut g = RlnGroup::new(8).unwrap();
        let id = Identity::from_secret(Fr::from_u64(9));
        let idx = g.register(id.commitment()).unwrap();
        assert_eq!(idx, 0);
        assert!(g.contains(id.commitment()));
        assert_eq!(g.index_of(id.commitment()), Some(0));
        let proof = g.membership_proof(idx).unwrap();
        assert!(proof.verify(g.root(), id.commitment()));
    }

    #[test]
    fn register_batch_matches_sequential_and_is_atomic() {
        let mut rng = StdRng::seed_from_u64(9);
        let ids: Vec<Identity> = (0..17).map(|_| Identity::random(&mut rng)).collect();
        let commitments: Vec<Fr> = ids.iter().map(Identity::commitment).collect();

        let mut sequential = RlnGroup::new(8).unwrap();
        for c in &commitments {
            sequential.register(*c).unwrap();
        }
        let mut batched = RlnGroup::new(8).unwrap();
        let range = batched.register_batch(&commitments).unwrap();
        assert_eq!(range, 0..17);
        assert_eq!(batched.root(), sequential.root());
        assert_eq!(batched.member_count(), 17);
        for (i, c) in commitments.iter().enumerate() {
            assert_eq!(batched.index_of(*c), Some(i as u64));
        }

        // a batch containing an already-registered commitment is rejected
        // without mutating the group
        let root_before = batched.root();
        let fresh = Identity::random(&mut rng).commitment();
        let err = batched
            .register_batch(&[fresh, commitments[0]])
            .unwrap_err();
        assert!(matches!(err, GroupError::AlreadyRegistered(_)));
        assert_eq!(batched.root(), root_before);
        assert!(!batched.contains(fresh));

        // as is a batch with an internal duplicate
        let twin = Identity::random(&mut rng).commitment();
        let err = batched.register_batch(&[twin, twin]).unwrap_err();
        assert_eq!(err, GroupError::AlreadyRegistered(twin));
        assert!(!batched.contains(twin));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut g = RlnGroup::new(8).unwrap();
        let id = Identity::from_secret(Fr::from_u64(9));
        g.register(id.commitment()).unwrap();
        assert!(matches!(
            g.register(id.commitment()),
            Err(GroupError::AlreadyRegistered(_))
        ));
    }

    #[test]
    fn remove_by_secret_slashes_the_right_member() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = RlnGroup::new(8).unwrap();
        let ids: Vec<Identity> = (0..5).map(|_| Identity::random(&mut rng)).collect();
        for id in &ids {
            g.register(id.commitment()).unwrap();
        }
        let removed = g.remove_by_secret(ids[2].secret()).unwrap();
        assert_eq!(removed, 2);
        assert!(!g.contains(ids[2].commitment()));
        assert_eq!(g.member_count(), 4);
        // other members unaffected
        let proof = g.membership_proof(3).unwrap();
        assert!(proof.verify(g.root(), ids[3].commitment()));
    }

    #[test]
    fn remove_unknown_secret_fails() {
        let mut g = RlnGroup::new(8).unwrap();
        assert!(matches!(
            g.remove_by_secret(Fr::from_u64(1)),
            Err(GroupError::NoSuchMember(_))
        ));
    }

    #[test]
    fn double_remove_fails() {
        let mut g = RlnGroup::new(8).unwrap();
        let id = Identity::from_secret(Fr::from_u64(9));
        let idx = g.register(id.commitment()).unwrap();
        g.remove(idx).unwrap();
        assert_eq!(g.remove(idx), Err(GroupError::NoSuchMember(idx)));
    }
}
