//! Broadcast membership deltas and the light member view they drive.
//!
//! The paper's root-window design (§IV) observes that a relay only
//! needs (a) a window of recent membership roots and (b) its **own**
//! authentication path — not the whole tree. This module is the sync
//! protocol built on that observation:
//!
//! * One canonical tree per simulation (e.g.
//!   [`FullMerkleTree`] behind a copy-on-write handle) ingests every
//!   registration burst **once**, capturing an [`AppendDelta`] — the
//!   recomputed node span of every level plus the pre-batch frontier —
//!   in `O(n + depth)` hashes for `n` appends.
//! * Every member applies the delta to its [`MemberView`] with **pure
//!   table lookups, zero hashes**: each own-path sibling either lies
//!   inside the broadcast span (take it), left of it (unchanged, or the
//!   pre-batch frontier when the member itself registers in the burst),
//!   or right of it (still the zero subtree).
//!
//! Against the previous per-node replay (`n` members × `O(n + depth)`
//! hashes each, i.e. `n²`-ish Poseidon work per simulation), group sync
//! now costs `O(n + depth)` hashes at the canonical tree plus
//! `O(depth)` lookups per member — the `n²·depth → n·depth` reduction
//! the 100k-node scenarios require.
//!
//! Deletion (slashing) broadcasts an [`UpdateDelta`] — the rewritten
//! root-ward branch of one index — applied the same way.
//!
//! This module's equivalence property holds every delta-fed
//! [`MemberView`] (root, own proof, slashing revocation) bit-identical
//! to the canonical [`FullMerkleTree`] across random register/slash
//! interleavings with late joins.

use super::{validate_depth, zero_hashes, FullMerkleTree, MerkleError, MerkleProof};
use crate::field::Fr;

/// Everything a registration burst changed in the canonical tree, in
/// broadcastable form: `O(n + depth)` field elements for `n` appends.
#[derive(Clone, Debug, PartialEq)]
pub struct AppendDelta {
    /// Index of the first appended leaf.
    pub start: u64,
    /// Number of appended leaves.
    pub count: u64,
    /// Tree root after the batch.
    pub root: Fr,
    /// For each level below the root: the node immediately left of the
    /// batch span, when that node is a right-pairing left sibling
    /// (`Some` exactly when `start >> level` is odd). A member whose own
    /// leaf sits in the burst takes these as its left-edge siblings.
    pub pre_frontier: Vec<Option<Fr>>,
    /// For each level below the root: the recomputed node values over
    /// the span the batch dirtied — `spans[level]` starts at tree
    /// position `start >> level`. `spans[0]` is the appended leaves.
    pub spans: Vec<Vec<Fr>>,
}

impl AppendDelta {
    /// The appended leaves (level-0 span).
    pub fn leaves(&self) -> &[Fr] {
        // lint:allow(panic-path, reason = "spans always holds depth+1 levels; level 0 (the appended leaves) exists for any valid delta")
        &self.spans[0]
    }

    /// Total field elements carried (bandwidth accounting).
    pub fn node_count(&self) -> usize {
        self.spans.iter().map(Vec::len).sum::<usize>()
            + self.pre_frontier.iter().flatten().count()
            + 1
    }
}

/// Everything a single-leaf update (member deletion) changed in the
/// canonical tree: the rewritten branch from the leaf to the root.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateDelta {
    /// The updated leaf index.
    pub index: u64,
    /// The new leaf value ([`super::EMPTY_LEAF`] for deletion).
    pub leaf: Fr,
    /// Tree root after the update.
    pub root: Fr,
    /// `branch[level]` is the new node value at tree position
    /// `index >> level` — the rewritten root-ward path (levels below
    /// the root; `branch[0]` equals `leaf`).
    pub branch: Vec<Fr>,
}

impl FullMerkleTree {
    /// [`FullMerkleTree::append_batch`], additionally capturing the
    /// [`AppendDelta`] that lets light members follow the change
    /// without re-hashing. Same atomicity: on error the tree is
    /// untouched.
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::TreeFull`] when the batch does not fit.
    pub fn append_batch_with_delta(&mut self, leaves: &[Fr]) -> Result<AppendDelta, MerkleError> {
        let depth = self.depth();
        let start = self.next_index();
        if leaves.is_empty() {
            return Ok(AppendDelta {
                start,
                count: 0,
                root: self.root(),
                pre_frontier: vec![None; depth],
                spans: vec![Vec::new(); depth],
            });
        }
        // the pre-batch frontier must be read before the append rewrites
        // the spans (the nodes themselves are untouched — they sit left
        // of the dirty span — but reading first keeps this obviously so)
        let mut pre_frontier = Vec::with_capacity(depth);
        for level in 0..depth {
            let pos = start >> level;
            pre_frontier.push(if pos & 1 == 1 {
                Some(self.node(level, pos - 1))
            } else {
                None
            });
        }
        self.append_batch(leaves)?;
        let end = start + leaves.len() as u64 - 1;
        let mut spans = Vec::with_capacity(depth);
        for level in 0..depth {
            let lo = start >> level;
            let hi = end >> level;
            spans.push(
                (lo..=hi)
                    .map(|pos| self.node(level, pos))
                    .collect::<Vec<Fr>>(),
            );
        }
        Ok(AppendDelta {
            start,
            count: leaves.len() as u64,
            root: self.root(),
            pre_frontier,
            spans,
        })
    }

    /// [`FullMerkleTree::set`], additionally capturing the
    /// [`UpdateDelta`] (rewritten branch) for light members.
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::IndexOutOfRange`] for indices beyond
    /// capacity.
    pub fn set_with_delta(&mut self, index: u64, leaf: Fr) -> Result<UpdateDelta, MerkleError> {
        self.set(index, leaf)?;
        let branch = (0..self.depth())
            .map(|level| self.node(level, index >> level))
            .collect();
        Ok(UpdateDelta {
            index,
            leaf,
            root: self.root(),
            branch,
        })
    }
}

/// A member's own standing in the group: leaf index, leaf value and
/// authentication path.
#[derive(Clone, Debug, PartialEq)]
struct OwnPath {
    index: u64,
    leaf: Fr,
    siblings: Vec<Fr>,
}

/// The light membership view a relay keeps (§IV): the current root and
/// its own authentication path — `O(depth)` storage, `O(depth)` lookup
/// work per delta, **zero** local hashing.
///
/// Each own-path sibling a delta changes is read straight out of the
/// delta instead of being re-hashed from the other members' leaves; the
/// equivalence property holds the path equal to
/// [`FullMerkleTree::proof`] under the same event stream.
///
/// # Examples
///
/// ```
/// use wakurln_crypto::{field::Fr, merkle::{FullMerkleTree, MemberView}};
///
/// let mut canonical = FullMerkleTree::new(10)?;
/// let mut view = MemberView::new(10)?;
/// let burst: Vec<Fr> = (1..=5u64).map(Fr::from_u64).collect();
/// let delta = canonical.append_batch_with_delta(&burst)?;
/// view.apply_append(&delta, Some(2))?; // this member is burst[2]
/// let proof = view.own_proof().expect("registered");
/// assert!(proof.verify(canonical.root(), Fr::from_u64(3)));
/// # Ok::<(), wakurln_crypto::merkle::MerkleError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MemberView {
    depth: usize,
    /// Leaves the canonical tree holds after the last applied delta.
    next_index: u64,
    root: Fr,
    own: Option<OwnPath>,
}

impl MemberView {
    /// An empty-group view of the given depth.
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::UnsupportedDepth`] like the trees.
    pub fn new(depth: usize) -> Result<MemberView, MerkleError> {
        validate_depth(depth)?;
        Ok(MemberView {
            depth,
            next_index: 0,
            root: zero_hashes()[depth],
            own: None,
        })
    }

    /// The tree depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Leaves assigned in the canonical tree, as of the last delta.
    pub fn len(&self) -> u64 {
        self.next_index
    }

    /// `true` before any delta was applied.
    pub fn is_empty(&self) -> bool {
        self.next_index == 0
    }

    /// The current membership root.
    pub fn root(&self) -> Fr {
        self.root
    }

    /// This member's leaf index, when registered and not deleted.
    pub fn own_index(&self) -> Option<u64> {
        self.own.as_ref().map(|o| o.index)
    }

    /// This member's authentication path, when registered (kept current
    /// against [`MemberView::root`] by delta application).
    pub fn own_proof(&self) -> Option<MerkleProof> {
        self.own.as_ref().map(|o| MerkleProof {
            index: o.index,
            siblings: o.siblings.clone(),
        })
    }

    /// Resident bytes of this view: the root plus the own path — the
    /// per-member storage the §IV light design quotes, independent of
    /// group size.
    pub fn storage_bytes(&self) -> usize {
        let own = match &self.own {
            Some(o) => (o.siblings.len() + 1) * 32,
            None => 0,
        };
        32 + own
    }

    /// Applies a registration-burst delta. `own_offset` marks this
    /// member's position within the burst (`Some(i)` ⇒ leaf
    /// `delta.start + i` is ours): the own path is built right out of
    /// the delta. Otherwise any existing own path is refreshed where
    /// the burst's span crosses its siblings. No hashing either way.
    ///
    /// # Errors
    ///
    /// * [`MerkleError::StaleWitness`] when the delta does not continue
    ///   this view's leaf count (a missed or replayed burst).
    /// * [`MerkleError::IndexOutOfRange`] for an `own_offset` outside
    ///   the burst.
    pub fn apply_append(
        &mut self,
        delta: &AppendDelta,
        own_offset: Option<u64>,
    ) -> Result<(), MerkleError> {
        if delta.start != self.next_index {
            return Err(MerkleError::StaleWitness);
        }
        if delta.count == 0 {
            return Ok(());
        }
        let span_end = delta.start + delta.count - 1;
        if let Some(offset) = own_offset {
            if offset >= delta.count {
                return Err(MerkleError::IndexOutOfRange {
                    index: offset,
                    capacity: delta.count,
                });
            }
            let index = delta.start + offset;
            let zeros = zero_hashes();
            let mut siblings = Vec::with_capacity(self.depth);
            for (level, zero) in zeros.iter().enumerate().take(self.depth) {
                let sib = (index >> level) ^ 1;
                let lo = delta.start >> level;
                let hi = span_end >> level;
                siblings.push(if (lo..=hi).contains(&sib) {
                    delta.spans[level][(sib - lo) as usize]
                } else if sib < lo {
                    // left of the span ⇒ exactly the pre-batch frontier
                    // node at this level (see the module invariants)
                    delta.pre_frontier[level]
                        // lint:allow(panic-path, reason = "pre_frontier is Some exactly when start >> level is odd, which is the case in this branch")
                        .expect("own sibling left of the span must be the frontier")
                } else {
                    // right of the span ⇒ still an empty subtree
                    *zero
                });
            }
            self.own = Some(OwnPath {
                index,
                // lint:allow(panic-path, reason = "spans[0] is the leaf span and offset < count is established by the enclosing loop")
                leaf: delta.spans[0][offset as usize],
                siblings,
            });
        } else if let Some(own) = &mut self.own {
            for level in 0..self.depth {
                let sib = (own.index >> level) ^ 1;
                let lo = delta.start >> level;
                let hi = span_end >> level;
                if (lo..=hi).contains(&sib) {
                    own.siblings[level] = delta.spans[level][(sib - lo) as usize];
                }
                // sib < lo: untouched by an append. sib > hi: still zero.
            }
        }
        self.root = delta.root;
        self.next_index = delta.start + delta.count;
        Ok(())
    }

    /// Applies a single-leaf update delta (member deletion / slashing).
    /// Deleting **this** member drops the own path — the member is out
    /// of the group. No hashing.
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::IndexOutOfRange`] when the updated index
    /// was never part of this view's group.
    pub fn apply_update(&mut self, delta: &UpdateDelta) -> Result<(), MerkleError> {
        if delta.index >= self.next_index {
            return Err(MerkleError::IndexOutOfRange {
                index: delta.index,
                capacity: self.next_index,
            });
        }
        match &mut self.own {
            Some(own) if own.index == delta.index => {
                // our own leaf was rewritten (slashed): membership gone
                self.own = None;
            }
            Some(own) => {
                for level in 0..self.depth {
                    if (own.index >> level) ^ 1 == delta.index >> level {
                        own.siblings[level] = delta.branch[level];
                    }
                }
            }
            None => {}
        }
        self.root = delta.root;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::EMPTY_LEAF;
    use super::*;

    fn fr(v: u64) -> Fr {
        Fr::from_u64(v)
    }

    #[test]
    fn delta_fed_view_tracks_canonical_root_and_proof() {
        let mut canonical = FullMerkleTree::new(8).unwrap();
        let mut view = MemberView::new(8).unwrap();
        // burst 1: not ours
        let d1 = canonical
            .append_batch_with_delta(&[fr(1), fr(2), fr(3)])
            .unwrap();
        view.apply_append(&d1, None).unwrap();
        assert_eq!(view.root(), canonical.root());
        assert!(view.own_proof().is_none());
        // burst 2: we are the middle leaf
        let d2 = canonical
            .append_batch_with_delta(&[fr(4), fr(5), fr(6)])
            .unwrap();
        view.apply_append(&d2, Some(1)).unwrap();
        assert_eq!(view.own_index(), Some(4));
        let proof = view.own_proof().unwrap();
        assert!(proof.verify(canonical.root(), fr(5)));
        // burst 3: later members refresh our path
        let d3 = canonical
            .append_batch_with_delta(&(7..40).map(fr).collect::<Vec<_>>())
            .unwrap();
        view.apply_append(&d3, None).unwrap();
        let proof = view.own_proof().unwrap();
        assert!(proof.verify(canonical.root(), fr(5)));
        assert_eq!(view.len(), canonical.next_index());
    }

    #[test]
    fn stale_or_replayed_delta_rejected() {
        let mut canonical = FullMerkleTree::new(6).unwrap();
        let mut view = MemberView::new(6).unwrap();
        let d1 = canonical.append_batch_with_delta(&[fr(1)]).unwrap();
        view.apply_append(&d1, None).unwrap();
        assert_eq!(view.apply_append(&d1, None), Err(MerkleError::StaleWitness));
        let d2 = canonical.append_batch_with_delta(&[fr(2)]).unwrap();
        let mut behind = MemberView::new(6).unwrap();
        assert_eq!(
            behind.apply_append(&d2, None),
            Err(MerkleError::StaleWitness)
        );
    }

    #[test]
    fn update_delta_refreshes_or_revokes() {
        let mut canonical = FullMerkleTree::new(6).unwrap();
        let mut us = MemberView::new(6).unwrap();
        let mut them = MemberView::new(6).unwrap();
        let burst: Vec<Fr> = (1..=6u64).map(fr).collect();
        let d = canonical.append_batch_with_delta(&burst).unwrap();
        us.apply_append(&d, Some(2)).unwrap();
        them.apply_append(&d, Some(5)).unwrap();
        // slash member 5: our path refreshes, theirs is revoked
        let slash = canonical.set_with_delta(5, EMPTY_LEAF).unwrap();
        us.apply_update(&slash).unwrap();
        them.apply_update(&slash).unwrap();
        assert!(them.own_proof().is_none());
        let proof = us.own_proof().unwrap();
        assert!(proof.verify(canonical.root(), fr(3)));
        assert_eq!(us.root(), canonical.root());
    }

    #[test]
    fn own_offset_out_of_burst_rejected() {
        let mut canonical = FullMerkleTree::new(6).unwrap();
        let mut view = MemberView::new(6).unwrap();
        let d = canonical.append_batch_with_delta(&[fr(1), fr(2)]).unwrap();
        assert!(matches!(
            view.apply_append(&d, Some(2)),
            Err(MerkleError::IndexOutOfRange { .. })
        ));
        // the failed application must not have advanced the view
        view.apply_append(&d, Some(1)).unwrap();
        assert_eq!(view.own_index(), Some(1));
    }

    #[test]
    fn empty_burst_is_a_no_op() {
        let mut canonical = FullMerkleTree::new(6).unwrap();
        let mut view = MemberView::new(6).unwrap();
        let d = canonical.append_batch_with_delta(&[]).unwrap();
        assert_eq!(d.count, 0);
        view.apply_append(&d, None).unwrap();
        assert_eq!(view.root(), canonical.root());
        assert_eq!(view.len(), 0);
    }

    #[test]
    fn storage_is_depth_bound_not_group_bound() {
        let mut canonical = FullMerkleTree::new(12).unwrap();
        let mut view = MemberView::new(12).unwrap();
        let d = canonical
            .append_batch_with_delta(&(0..2000u64).map(fr).collect::<Vec<_>>())
            .unwrap();
        view.apply_append(&d, Some(1000)).unwrap();
        // root + (siblings + leaf) — nothing proportional to 2000
        assert_eq!(view.storage_bytes(), 32 + (12 + 1) * 32);
    }

    #[test]
    fn delta_size_is_linear_in_burst_plus_depth() {
        let mut canonical = FullMerkleTree::new(16).unwrap();
        let burst: Vec<Fr> = (0..500u64).map(fr).collect();
        let d = canonical.append_batch_with_delta(&burst).unwrap();
        // Σ_l ⌈n/2^l⌉ ≤ 2n + depth, plus frontier and root
        assert!(
            d.node_count() <= 2 * burst.len() + 3 * 16 + 1,
            "delta carries {} nodes",
            d.node_count()
        );
    }

    // ── equivalence: delta-fed MemberView ≡ the canonical FullMerkleTree ──

    use proptest::prelude::*;

    const DEPTH: usize = 8;

    /// One group event in broadcast form: what a late joiner replays.
    enum Hist {
        Burst(AppendDelta),
        Slash(UpdateDelta),
    }

    /// Builds the view of a member registering at `own_offset` of the
    /// final (burst) event, replaying prior history.
    fn spawn_member(history: &[Hist], own_offset: u64) -> MemberView {
        let mut view = MemberView::new(DEPTH).unwrap();
        let last = history.len() - 1;
        for (i, ev) in history.iter().enumerate() {
            match ev {
                Hist::Burst(delta) => view
                    .apply_append(delta, (i == last).then_some(own_offset))
                    .unwrap(),
                Hist::Slash(delta) => view.apply_update(delta).unwrap(),
            }
        }
        view
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every member's delta-fed [`MemberView`] stays bit-identical
        /// (root, own proof, slashing revocation) to the canonical tree
        /// across random register/slash interleavings with late joins.
        #[test]
        fn prop_member_view_matches_full_tree(
            ops in proptest::collection::vec(
                (any::<bool>(), any::<u64>(), 1u64..5), 1..16),
        ) {
            let mut canonical = FullMerkleTree::new(DEPTH).unwrap();
            let mut history: Vec<Hist> = Vec::new();
            // (view, index): every registered member, incl. slashed
            let mut members: Vec<(MemberView, u64)> = Vec::new();
            let mut leaves_by_index: Vec<Fr> = Vec::new();
            let mut next_val = 1u64;
            for (slash, pick, burst_len) in ops {
                let live: Vec<u64> = (0..leaves_by_index.len() as u64)
                    .filter(|&i| leaves_by_index[i as usize] != EMPTY_LEAF)
                    .collect();
                if slash && !live.is_empty() {
                    let index = live[(pick % live.len() as u64) as usize];
                    let delta = canonical.set_with_delta(index, EMPTY_LEAF).unwrap();
                    leaves_by_index[index as usize] = EMPTY_LEAF;
                    for (view, _) in members.iter_mut() {
                        view.apply_update(&delta).unwrap();
                    }
                    history.push(Hist::Slash(delta));
                } else {
                    let burst_len = burst_len.min(canonical.capacity() - canonical.next_index());
                    if burst_len == 0 {
                        continue;
                    }
                    let start = canonical.next_index();
                    let burst: Vec<Fr> = (0..burst_len)
                        .map(|_| {
                            let v = fr(next_val);
                            next_val += 1;
                            v
                        })
                        .collect();
                    let delta = canonical.append_batch_with_delta(&burst).unwrap();
                    for (view, _) in members.iter_mut() {
                        view.apply_append(&delta, None).unwrap();
                    }
                    leaves_by_index.extend_from_slice(&burst);
                    history.push(Hist::Burst(delta));
                    for o in 0..burst.len() as u64 {
                        members.push((spawn_member(&history, o), start + o));
                    }
                }
                for (view, index) in &members {
                    prop_assert_eq!(view.root(), canonical.root());
                    let slashed = leaves_by_index[*index as usize] == EMPTY_LEAF;
                    prop_assert_eq!(view.own_proof().is_none(), slashed);
                    if let Some(p) = view.own_proof() {
                        prop_assert_eq!(p, canonical.proof(*index).unwrap());
                    }
                }
            }
        }
    }
}
