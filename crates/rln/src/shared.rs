//! The canonical membership group, shared copy-on-write.
//!
//! Per §III the on-chain contract stores only the *ordered list* of
//! commitments; a simulation replays registration and deletion events into
//! **one** canonical tree, no matter how many relays run in it. Each
//! registration burst is hashed exactly once here, yielding the broadcast
//! [`AppendDelta`] / [`UpdateDelta`] that per-node
//! [`MemberView`](wakurln_crypto::merkle::MemberView)s apply with pure
//! lookups. That replaces per-node tree replay (`n` members × `O(n)`
//! hashes) with `O(n + depth)` hashes total — the `n²·depth → n·depth`
//! reduction that makes 100k-node scenarios tractable.
//!
//! [`SharedGroup`] is the handle: [`Clone`] is an `Arc` bump — an `O(1)`
//! immutable snapshot (what soak checkpoints and harness clones take) —
//! while a write goes through `Arc::make_mut`, copying the tree only when
//! a snapshot is actually outstanding and the write is valid.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;
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

/// The complete tree plus the commitment→index map: what one
/// [`SharedGroup`] snapshot holds.
#[derive(Clone, Debug)]
struct Members {
    tree: FullMerkleTree,
    index_of: HashMap<[u8; 32], u64>,
}

/// Copy-on-write handle to the one canonical membership tree of a
/// simulation: a full-node view (every leaf, so it proves any member)
/// whose writes capture the delta light members replay. Cloning
/// snapshots the group in `O(1)`; the first valid write after a snapshot
/// pays one tree copy.
///
/// # Examples
///
/// ```
/// use wakurln_rln::{Identity, SharedGroup};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut group = SharedGroup::new(12)?;
/// let ids: Vec<Identity> = (0..4).map(|_| Identity::random(&mut rng)).collect();
/// let commitments: Vec<_> = ids.iter().map(Identity::commitment).collect();
///
/// let snapshot = group.clone(); // O(1)
/// let (range, delta) = group.register_batch(&commitments)?;
/// assert_eq!(range, 0..4);
/// assert_eq!(delta.leaves(), &commitments[..]);
/// assert_eq!(snapshot.member_count(), 0); // unaffected
/// let proof = group.membership_proof(2)?;
/// assert!(proof.verify(group.root(), commitments[2]));
/// # Ok::<(), wakurln_rln::GroupError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SharedGroup {
    inner: Arc<Members>,
}

impl SharedGroup {
    /// Creates an empty group over a tree of the given depth.
    ///
    /// # Errors
    ///
    /// Propagates [`MerkleError::UnsupportedDepth`].
    pub fn new(depth: usize) -> Result<SharedGroup, GroupError> {
        Ok(SharedGroup {
            inner: Arc::new(Members {
                tree: FullMerkleTree::new(depth)?,
                index_of: HashMap::new(),
            }),
        })
    }

    /// Current membership root.
    pub fn root(&self) -> Fr {
        self.inner.tree.root()
    }

    /// Number of registered (non-deleted) members.
    pub fn member_count(&self) -> usize {
        self.inner.index_of.len()
    }

    /// Index of a commitment, if registered.
    pub fn index_of(&self, commitment: Fr) -> Option<u64> {
        self.inner.index_of.get(&commitment.to_bytes_le()).copied()
    }

    /// Whether a commitment is currently registered.
    pub fn contains(&self, commitment: Fr) -> bool {
        self.inner.index_of.contains_key(&commitment.to_bytes_le())
    }

    /// Index the next registration will be assigned.
    pub fn next_index(&self) -> u64 {
        self.inner.tree.next_index()
    }

    /// Authentication path for the member at `index`.
    ///
    /// # Errors
    ///
    /// [`GroupError::Merkle`] for out-of-range indices.
    pub fn membership_proof(&self, index: u64) -> Result<MerkleProof, GroupError> {
        Ok(self.inner.tree.proof(index)?)
    }

    /// Whether two handles share the same underlying allocation (i.e.
    /// no copy-on-write has happened between them).
    pub fn ptr_eq(&self, other: &SharedGroup) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Registers a burst of commitments in one `O(n + depth)` tree
    /// update, returning the assigned index range and the broadcast
    /// [`AppendDelta`].
    ///
    /// The whole batch is validated before anything is written (or
    /// copied): duplicates (against the group *or* within the batch) and
    /// over-capacity batches leave the group untouched.
    ///
    /// # Errors
    ///
    /// * [`GroupError::AlreadyRegistered`] for the first duplicate found —
    ///   mirroring the contract, which rejects double registration.
    /// * [`GroupError::Merkle`] when the batch exceeds capacity.
    pub fn register_batch(
        &mut self,
        commitments: &[Fr],
    ) -> Result<(Range<u64>, AppendDelta), GroupError> {
        self.check_batch(commitments)?;
        let members = Arc::make_mut(&mut self.inner);
        let delta = members.tree.append_batch_with_delta(commitments)?;
        let start = delta.start;
        for (offset, commitment) in commitments.iter().enumerate() {
            members
                .index_of
                .insert(commitment.to_bytes_le(), start + offset as u64);
        }
        Ok((start..start + commitments.len() as u64, delta))
    }

    fn check_batch(&self, commitments: &[Fr]) -> Result<(), GroupError> {
        let mut seen = HashSet::with_capacity(commitments.len());
        let mut first_repeat = None;
        for commitment in commitments {
            let key = commitment.to_bytes_le();
            if self.inner.index_of.contains_key(&key) {
                return Err(GroupError::AlreadyRegistered(*commitment));
            }
            if !seen.insert(key) && first_repeat.is_none() {
                first_repeat = Some(*commitment);
            }
        }
        if let Some(dup) = first_repeat {
            return Err(GroupError::AlreadyRegistered(dup));
        }
        let tree = &self.inner.tree;
        if commitments.len() as u64 > tree.capacity() - tree.next_index() {
            return Err(MerkleError::TreeFull.into());
        }
        Ok(())
    }

    /// Removes the member at `index` (slashing), zeroing its leaf, and
    /// returns the removed commitment and the broadcast [`UpdateDelta`].
    ///
    /// # Errors
    ///
    /// * [`GroupError::NoSuchMember`] if the slot is empty.
    /// * [`GroupError::Merkle`] for out-of-range indices.
    pub fn remove(&mut self, index: u64) -> Result<(Fr, UpdateDelta), GroupError> {
        let leaf = self.inner.tree.leaf(index)?;
        if leaf == EMPTY_LEAF {
            return Err(GroupError::NoSuchMember(index));
        }
        let members = Arc::make_mut(&mut self.inner);
        let delta = members.tree.set_with_delta(index, EMPTY_LEAF)?;
        members.index_of.remove(&leaf.to_bytes_le());
        Ok((leaf, delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::Identity;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wakurln_crypto::merkle::MemberView;

    fn commitments(n: usize, seed: u64) -> Vec<Fr> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Identity::random(&mut rng).commitment())
            .collect()
    }

    #[test]
    fn register_and_prove() {
        let mut g = SharedGroup::new(8).unwrap();
        let id = Identity::from_secret(Fr::from_u64(9));
        let (range, _) = g.register_batch(&[id.commitment()]).unwrap();
        assert_eq!(range, 0..1);
        assert!(g.contains(id.commitment()));
        assert_eq!(g.index_of(id.commitment()), Some(0));
        let proof = g.membership_proof(range.start).unwrap();
        assert!(proof.verify(g.root(), id.commitment()));
    }

    #[test]
    fn register_batch_matches_sequential_and_is_atomic() {
        let mut rng = StdRng::seed_from_u64(9);
        let ids: Vec<Identity> = (0..17).map(|_| Identity::random(&mut rng)).collect();
        let commitments: Vec<Fr> = ids.iter().map(Identity::commitment).collect();

        let mut sequential = SharedGroup::new(8).unwrap();
        for c in &commitments {
            sequential.register_batch(&[*c]).unwrap();
        }
        let mut batched = SharedGroup::new(8).unwrap();
        let (range, _) = batched.register_batch(&commitments).unwrap();
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
        let mut g = SharedGroup::new(8).unwrap();
        let id = Identity::from_secret(Fr::from_u64(9));
        g.register_batch(&[id.commitment()]).unwrap();
        assert!(matches!(
            g.register_batch(&[id.commitment()]),
            Err(GroupError::AlreadyRegistered(_))
        ));
    }

    #[test]
    fn double_remove_fails() {
        let mut g = SharedGroup::new(8).unwrap();
        let id = Identity::from_secret(Fr::from_u64(9));
        let (range, _) = g.register_batch(&[id.commitment()]).unwrap();
        g.remove(range.start).unwrap();
        assert_eq!(
            g.remove(range.start).unwrap_err(),
            GroupError::NoSuchMember(range.start)
        );
    }

    #[test]
    fn snapshot_is_o1_and_isolated_from_later_writes() {
        let mut g = SharedGroup::new(10).unwrap();
        let cs = commitments(6, 1);
        g.register_batch(&cs[..3]).unwrap();
        let snapshot = g.clone();
        assert!(g.ptr_eq(&snapshot), "clone must share the allocation");
        let root_before = snapshot.root();

        g.register_batch(&cs[3..]).unwrap();
        assert!(!g.ptr_eq(&snapshot), "write must have copied");
        assert_eq!(snapshot.root(), root_before);
        assert_eq!(snapshot.member_count(), 3);
        assert_eq!(g.member_count(), 6);
    }

    #[test]
    fn sole_handle_mutates_in_place() {
        let mut g = SharedGroup::new(10).unwrap();
        let probe = g.clone();
        drop(probe);
        let before = Arc::as_ptr(&g.inner);
        g.register_batch(&commitments(2, 2)).unwrap();
        assert_eq!(
            Arc::as_ptr(&g.inner),
            before,
            "no outstanding snapshot ⇒ no copy"
        );
    }

    #[test]
    fn deltas_feed_member_views_to_the_canonical_root() {
        let mut g = SharedGroup::new(10).unwrap();
        let cs = commitments(9, 3);
        let (range, d1) = g.register_batch(&cs[..4]).unwrap();
        assert_eq!(range, 0..4);

        let mut view = MemberView::new(10).unwrap();
        view.apply_append(&d1, Some(2)).unwrap();
        assert_eq!(view.root(), g.root());

        let (_, d2) = g.register_batch(&cs[4..]).unwrap();
        view.apply_append(&d2, None).unwrap();
        let proof = view.own_proof().unwrap();
        assert!(proof.verify(g.root(), cs[2]));

        // slash member 2: the view revokes itself
        let (removed, d3) = g.remove(2).unwrap();
        assert_eq!(removed, cs[2]);
        view.apply_update(&d3).unwrap();
        assert!(view.own_proof().is_none());
        assert_eq!(view.root(), g.root());
        assert!(!g.contains(cs[2]));
    }

    #[test]
    fn failed_batch_leaves_group_and_snapshots_untouched() {
        let mut g = SharedGroup::new(10).unwrap();
        let cs = commitments(3, 4);
        g.register_batch(&cs).unwrap();
        let snapshot = g.clone();
        let err = g.register_batch(&[cs[1]]).unwrap_err();
        assert!(matches!(err, GroupError::AlreadyRegistered(_)));
        assert_eq!(g.remove(7).unwrap_err(), GroupError::NoSuchMember(7));
        assert_eq!(g.root(), snapshot.root());
        assert_eq!(g.member_count(), 3);
        assert!(g.ptr_eq(&snapshot), "a rejected write must not copy");
    }
}
