//! The nullifier map: windowed double-signaling detection state.
//!
//! §III: "each routing peer locally keeps a record of the secret key share
//! `[sk]` and the internal nullifier `φ` of all of its incoming messages
//! for the past `Thr` epochs. This list is called a nullifier map. The
//! routing peer checks every new message against this list to spot spam
//! messages i.e., messages with identical internal nullifiers. Note that
//! the nullifier map suffices to hold messages that belong to the last
//! `Thr` epochs because older messages are considered invalid by default."

use std::cmp::Ordering;
use wakurln_crypto::field::{Fr, MODULUS_BITS};
use wakurln_crypto::shamir::Share;

/// What inserting a signal's nullifier revealed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NullifierOutcome {
    /// First signal seen for this `(epoch, φ)` — the member's one allowed
    /// message.
    Fresh,
    /// Same nullifier with the *identical* share — a gossip duplicate of
    /// the same message, not a rate violation.
    DuplicateMessage,
    /// Same nullifier, different share point: double-signaling. Carries
    /// the previously recorded share, ready for secret reconstruction.
    DoubleSignal {
        /// The share recorded when the nullifier was first seen.
        prior_share: Share,
    },
}

/// One tracked epoch: its number and the `(φ bytes, first-seen share)`
/// entries recorded for it, sorted by φ.
type Epoch = (u64, Vec<([u8; 32], Share)>);

/// The caught flag, kept in the top bit of a stored φ's last
/// little-endian byte. φ is a canonical field element, below
/// `2^MODULUS_BITS`, so that bit of a real φ is always clear.
const CAUGHT: u8 = 0x80;
const _: () = assert!(MODULUS_BITS <= 255, "the caught flag needs φ's top bit");

/// Whether a stored φ carries the caught flag.
fn is_flagged(stored: &[u8; 32]) -> bool {
    stored[31] & CAUGHT != 0
}

/// Orders a stored φ against a probe φ, ignoring the caught flag.
fn cmp_phi(stored: &[u8; 32], probe: &[u8; 32]) -> Ordering {
    stored[..31]
        .cmp(&probe[..31])
        .then((stored[31] & !CAUGHT).cmp(&probe[31]))
}

/// Makes room for one more element, growing a full vector to exactly
/// twice its length (1 → 2 → 4 …) rather than std's first jump to four
/// slots: an epoch of a small network holds one or two entries.
///
/// `wakurln-gossipsub` keeps an identical copy in `types.rs`: no crate
/// that both it and this crate depend on owns `Vec` helpers, and one
/// line of Cargo edge per helper is not worth it before the crate graph
/// is collapsed.
fn reserve_doubling<T>(v: &mut Vec<T>) {
    if v.len() == v.capacity() {
        v.reserve_exact(v.len().max(1));
    }
}

/// The windowed `(epoch, φ) → [sk]` record.
///
/// Stored densely: the tracked epochs in ascending order, each holding
/// its entries sorted by φ. A window holds `Thr + 1` epochs of a few
/// entries each, so binary search over two short vectors beats hashing,
/// and the whole map is the epoch list plus one allocation per epoch.
/// No tracked epoch is ever empty (an epoch is created by the insert
/// that fills it), so equal contents mean equal vectors and `PartialEq`
/// is derived.
///
/// An entry also records whether its statement is *caught*: whether
/// this peer has already turned its double-signal into slashing
/// evidence ([`NullifierMap::mark_caught`]), so that a repeat need not
/// reconstruct the secret again. The mark is a bit of the stored φ that
/// no field element sets, so it costs no memory and lives exactly as
/// long as its entry: [`gc`](NullifierMap::gc) drops it with its epoch,
/// and a fresh map (a cold restart) has none.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NullifierMap {
    epochs: Vec<Epoch>,
}

impl NullifierMap {
    /// Creates an empty map.
    pub fn new() -> NullifierMap {
        NullifierMap::default()
    }

    fn epoch(&self, epoch: u64) -> Option<&Epoch> {
        self.epochs
            .binary_search_by_key(&epoch, |(e, _)| *e)
            .ok()
            .map(|at| &self.epochs[at])
    }

    /// Where the `(epoch, φ)` entry is stored: the index of its epoch
    /// and its index within that epoch.
    fn position(&self, epoch: u64, nullifier: Fr) -> Option<(usize, usize)> {
        let key = nullifier.to_bytes_le();
        let at = self.epochs.binary_search_by_key(&epoch, |(e, _)| *e).ok()?;
        let entries = &self.epochs[at].1;
        let slot = entries
            .binary_search_by(|(phi, _)| cmp_phi(phi, &key))
            .ok()?;
        Some((at, slot))
    }

    /// Records a signal's `(epoch, φ, [sk])`, reporting whether it is
    /// fresh, a duplicate, or a double-signal.
    pub fn insert(&mut self, epoch: u64, nullifier: Fr, share: Share) -> NullifierOutcome {
        let key = nullifier.to_bytes_le();
        let slot = match self.epochs.binary_search_by_key(&epoch, |(e, _)| *e) {
            Ok(at) => &mut self.epochs[at].1,
            Err(at) => {
                reserve_doubling(&mut self.epochs);
                self.epochs.insert(at, (epoch, Vec::new()));
                &mut self.epochs[at].1
            }
        };
        match slot.binary_search_by(|(phi, _)| cmp_phi(phi, &key)) {
            Err(at) => {
                reserve_doubling(slot);
                slot.insert(at, (key, share));
                NullifierOutcome::Fresh
            }
            Ok(at) if slot[at].1 == share => NullifierOutcome::DuplicateMessage,
            Ok(at) => NullifierOutcome::DoubleSignal {
                prior_share: slot[at].1,
            },
        }
    }

    /// Whether the `(epoch, φ)` statement is marked caught: its
    /// double-signal has already produced slashing evidence here.
    pub fn is_caught(&self, epoch: u64, nullifier: Fr) -> bool {
        self.position(epoch, nullifier)
            .is_some_and(|(at, slot)| is_flagged(&self.epochs[at].1[slot].0))
    }

    /// Marks the `(epoch, φ)` statement caught. Does nothing when the
    /// map holds no entry for it.
    pub fn mark_caught(&mut self, epoch: u64, nullifier: Fr) {
        if let Some((at, slot)) = self.position(epoch, nullifier) {
            self.epochs[at].1[slot].0[31] |= CAUGHT;
        }
    }

    /// Number of tracked statements marked caught.
    pub fn caught_len(&self) -> usize {
        self.epochs
            .iter()
            .flat_map(|(_, entries)| entries)
            .filter(|(phi, _)| is_flagged(phi))
            .count()
    }

    /// Drops every epoch older than `current_epoch − thr` (the paper's
    /// bounded-state property: older messages are epoch-invalid anyway).
    ///
    /// Runs on every validated message; the common nothing-to-drop case
    /// is one binary search and touches no allocation.
    pub fn gc(&mut self, current_epoch: u64, thr: u64) {
        let cutoff = current_epoch.saturating_sub(thr);
        let stale = self.epochs.partition_point(|(e, _)| *e < cutoff);
        if stale > 0 {
            self.epochs.drain(..stale);
        }
    }

    /// Number of epochs currently tracked.
    pub fn tracked_epochs(&self) -> usize {
        self.epochs.len()
    }

    /// The tracked epoch numbers in ascending order (the trace harness's
    /// boundedness and GC invariants quantify over these).
    pub fn epoch_numbers(&self) -> impl Iterator<Item = u64> + '_ {
        self.epochs.iter().map(|(e, _)| *e)
    }

    /// Number of `(epoch, φ)` entries recorded for one epoch (0 when the
    /// epoch is not tracked).
    pub fn entries_at(&self, epoch: u64) -> usize {
        self.epoch(epoch).map_or(0, |(_, entries)| entries.len())
    }

    /// Number of `(epoch, φ)` entries currently stored.
    pub fn len(&self) -> usize {
        self.epochs.iter().map(|(_, entries)| entries.len()).sum()
    }

    /// `true` when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// Approximate resident bytes (epoch key + nullifier + share per
    /// entry) — the E8 memory series.
    pub fn memory_bytes(&self) -> usize {
        self.epochs.len() * 8 + self.len() * (32 + 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    fn share(x: u64, y: u64) -> Share {
        Share {
            x: Fr::from_u64(x),
            y: Fr::from_u64(y),
        }
    }

    /// A φ whose little-endian bytes are zero but for the last one: φs
    /// that differ only where the caught flag lives.
    fn high_phi(top: u8) -> Fr {
        let mut bytes = [0u8; 32];
        bytes[31] = top;
        Fr::from_bytes_le(&bytes).expect("below the modulus")
    }

    /// The previous nested-map layout, kept as the differential oracle:
    /// epoch → (nullifier bytes → first-seen share), plus the caught
    /// `(epoch, nullifier bytes)` statements.
    #[derive(Default)]
    struct Reference {
        epochs: BTreeMap<u64, HashMap<[u8; 32], Share>>,
        caught: BTreeSet<(u64, [u8; 32])>,
    }

    impl Reference {
        fn insert(&mut self, epoch: u64, nullifier: Fr, share: Share) -> NullifierOutcome {
            let slot = self.epochs.entry(epoch).or_default();
            match slot.get(&nullifier.to_bytes_le()) {
                None => {
                    slot.insert(nullifier.to_bytes_le(), share);
                    NullifierOutcome::Fresh
                }
                Some(prior) if *prior == share => NullifierOutcome::DuplicateMessage,
                Some(prior) => NullifierOutcome::DoubleSignal {
                    prior_share: *prior,
                },
            }
        }

        fn mark_caught(&mut self, epoch: u64, nullifier: Fr) {
            let key = nullifier.to_bytes_le();
            if self
                .epochs
                .get(&epoch)
                .is_some_and(|m| m.contains_key(&key))
            {
                self.caught.insert((epoch, key));
            }
        }

        fn gc(&mut self, current_epoch: u64, thr: u64) {
            let cutoff = current_epoch.saturating_sub(thr);
            self.epochs = self.epochs.split_off(&cutoff);
            self.caught = self.caught.split_off(&(cutoff, [0; 32]));
        }

        fn len(&self) -> usize {
            self.epochs.values().map(HashMap::len).sum()
        }

        fn memory_bytes(&self) -> usize {
            self.epochs.len() * 8 + self.len() * (32 + 64)
        }
    }

    /// The φ universe of the differential test: two that differ in the
    /// first byte and two more that differ from the first only in the
    /// byte that holds the caught flag.
    fn phi_of(n: u64) -> Fr {
        match n {
            0 | 1 => Fr::from_u64(n),
            _ => high_phi(n as u8 - 1),
        }
    }

    /// Spreads a raw draw over the epoch shapes the validator can meet:
    /// a dense window of small epochs, far-future epochs and the top of
    /// the `u64` range.
    fn epoch_of(raw: u64) -> u64 {
        match raw % 16 {
            0 => u64::MAX - (raw >> 8) % 3,
            1 => (1 << 40) + (raw >> 8) % 3,
            _ => (raw >> 8) % 12,
        }
    }

    /// Asserts every read-side observation of `map` equals the oracle's.
    fn assert_matches(map: &NullifierMap, oracle: &Reference) {
        assert_eq!(map.len(), oracle.len());
        assert_eq!(map.is_empty(), oracle.len() == 0);
        assert_eq!(map.memory_bytes(), oracle.memory_bytes());
        assert_eq!(map.tracked_epochs(), oracle.epochs.len());
        assert_eq!(
            map.epoch_numbers().collect::<Vec<_>>(),
            oracle.epochs.keys().copied().collect::<Vec<_>>()
        );
        for (epoch, entries) in &oracle.epochs {
            assert_eq!(map.entries_at(*epoch), entries.len());
        }
        for probe in [0, 5, 11, 1 << 40, u64::MAX] {
            assert_eq!(
                map.entries_at(probe),
                oracle.epochs.get(&probe).map_or(0, HashMap::len)
            );
            for phi in (0..4).map(phi_of) {
                assert_eq!(
                    map.is_caught(probe, phi),
                    oracle.caught.contains(&(probe, phi.to_bytes_le()))
                );
            }
        }
        assert_eq!(map.caught_len(), oracle.caught.len());
        for (epoch, key) in &oracle.caught {
            let phi = Fr::from_bytes_le(key).expect("a stored φ");
            assert!(map.is_caught(*epoch, phi));
        }
    }

    #[test]
    fn fresh_then_duplicate_then_double() {
        let mut map = NullifierMap::new();
        let phi = Fr::from_u64(99);
        assert_eq!(map.insert(1, phi, share(1, 2)), NullifierOutcome::Fresh);
        assert_eq!(
            map.insert(1, phi, share(1, 2)),
            NullifierOutcome::DuplicateMessage
        );
        assert_eq!(
            map.insert(1, phi, share(3, 4)),
            NullifierOutcome::DoubleSignal {
                prior_share: share(1, 2)
            }
        );
    }

    #[test]
    fn same_nullifier_different_epochs_is_fresh() {
        let mut map = NullifierMap::new();
        let phi = Fr::from_u64(99);
        assert_eq!(map.insert(1, phi, share(1, 2)), NullifierOutcome::Fresh);
        assert_eq!(map.insert(2, phi, share(1, 2)), NullifierOutcome::Fresh);
    }

    #[test]
    fn different_members_same_epoch_coexist() {
        let mut map = NullifierMap::new();
        assert_eq!(
            map.insert(1, Fr::from_u64(10), share(1, 2)),
            NullifierOutcome::Fresh
        );
        assert_eq!(
            map.insert(1, Fr::from_u64(11), share(3, 4)),
            NullifierOutcome::Fresh
        );
        assert_eq!(map.len(), 2);
        // right-sized: two entries hold two slots, not std's first four
        assert_eq!((map.epochs.capacity(), map.epochs[0].1.capacity()), (1, 2));
    }

    #[test]
    fn gc_bounds_state_to_thr_epochs() {
        let mut map = NullifierMap::new();
        for epoch in 0..100 {
            map.insert(epoch, Fr::from_u64(epoch), share(epoch, 1));
        }
        map.gc(99, 2);
        assert_eq!(map.tracked_epochs(), 3); // epochs 97, 98, 99
        assert!(map.memory_bytes() < 100 * (32 + 64));
    }

    /// Pins the exact window boundary: the cutoff is
    /// `current_epoch - thr`, and an epoch **equal** to the cutoff
    /// SURVIVES — `gc` drops strictly-older epochs only. §III counts
    /// "the past `Thr` epochs" inclusive of the boundary: a message
    /// `thr` epochs old is still epoch-valid (`within_window` accepts
    /// `|local - epoch| <= thr`), so its double-signal record must
    /// still be around to catch a conflicting share. The corpus trace
    /// `tests/corpus/gc_boundary.trace` pins the same edge end-to-end.
    #[test]
    fn gc_keeps_the_epoch_at_the_exact_cutoff_and_drops_the_one_below() {
        let mut map = NullifierMap::new();
        for epoch in [97u64, 98, 99, 100] {
            map.insert(epoch, Fr::from_u64(epoch), share(epoch, 1));
        }
        // current = 100, thr = 2 ⇒ cutoff = 98
        map.gc(100, 2);
        assert_eq!(map.entries_at(97), 0, "below-cutoff epoch must be dropped");
        assert_eq!(map.entries_at(98), 1, "epoch == cutoff must survive");
        assert_eq!(map.entries_at(99), 1);
        assert_eq!(map.entries_at(100), 1);
        assert_eq!(map.epoch_numbers().collect::<Vec<_>>(), vec![98, 99, 100]);

        // the surviving boundary entry still detects a double-signal
        assert_eq!(
            map.insert(98, Fr::from_u64(98), share(98, 2)),
            NullifierOutcome::DoubleSignal {
                prior_share: share(98, 1)
            }
        );

        // gc is idempotent at the same clock: nothing further drops
        map.gc(100, 2);
        assert_eq!(map.epoch_numbers().collect::<Vec<_>>(), vec![98, 99, 100]);

        // one epoch later the boundary advances by exactly one
        map.gc(101, 2);
        assert_eq!(map.epoch_numbers().collect::<Vec<_>>(), vec![99, 100]);
    }

    #[test]
    fn gc_with_huge_thr_keeps_everything() {
        let mut map = NullifierMap::new();
        for epoch in 0..10 {
            map.insert(epoch, Fr::from_u64(epoch), share(epoch, 1));
        }
        map.gc(9, 1000);
        assert_eq!(map.tracked_epochs(), 10);
    }

    /// A caught mark lives and dies with its entry: it changes no
    /// lookup or byte count, leaves with its epoch at the same cutoff,
    /// and a fresh map (a cold restart) starts with none.
    #[test]
    fn caught_mark_follows_its_entry() {
        let mut map = NullifierMap::new();
        // φs that differ only in the byte holding the flag
        let (phi, next) = (high_phi(1), high_phi(2));
        for epoch in [97u64, 98] {
            map.insert(epoch, phi, share(1, 1));
            map.insert(epoch, next, share(2, 2));
            map.mark_caught(epoch, Fr::from_u64(5)); // no entry: no mark
            assert_eq!(map.caught_len(), if epoch == 97 { 0 } else { 1 });
            let bytes = map.memory_bytes();
            map.mark_caught(epoch, phi);
            map.mark_caught(epoch, phi);
            assert!(map.is_caught(epoch, phi));
            assert!(!map.is_caught(epoch, next), "marks are per φ");
            assert_eq!(map.memory_bytes(), bytes, "a mark costs no bytes");
        }
        assert_eq!(map.caught_len(), 2);
        // the marked entry still answers both lookups, and its neighbour
        // is still found
        assert_eq!(
            map.insert(98, phi, share(1, 1)),
            NullifierOutcome::DuplicateMessage
        );
        assert_eq!(
            map.insert(98, phi, share(3, 3)),
            NullifierOutcome::DoubleSignal {
                prior_share: share(1, 1)
            }
        );
        assert_eq!(
            map.insert(98, next, share(2, 2)),
            NullifierOutcome::DuplicateMessage
        );
        assert_eq!(map.entries_at(98), 2);
        // current = 100, thr = 2 ⇒ cutoff = 98: 97 goes, 98 stays
        map.gc(100, 2);
        assert!(!map.is_caught(97, phi));
        assert!(map.is_caught(98, phi), "mark at the cutoff epoch survives");
        assert_eq!(map.caught_len(), 1);
        map.gc(101, 2);
        assert_eq!((map.caught_len(), map.tracked_epochs()), (0, 0));

        let mut map = NullifierMap::new();
        map.insert(5, phi, share(1, 1));
        map.mark_caught(5, phi);
        assert!(map.clone().is_caught(5, phi), "a clone keeps the mark");
        map = NullifierMap::new();
        assert!(!map.is_caught(5, phi), "a cold reset forgets the mark");
        map.insert(5, phi, share(1, 1));
        assert_eq!(
            map.insert(5, phi, share(2, 2)),
            NullifierOutcome::DoubleSignal {
                prior_share: share(1, 1)
            }
        );
        assert!(!map.is_caught(5, phi), "detected again, not yet marked");
    }

    #[test]
    fn memory_grows_linearly_with_entries() {
        let mut map = NullifierMap::new();
        map.insert(1, Fr::from_u64(1), share(1, 1));
        let one = map.memory_bytes();
        map.insert(1, Fr::from_u64(2), share(2, 2));
        let two = map.memory_bytes();
        assert_eq!(two - one, 96);
    }

    proptest! {
        /// After gc at any point, no tracked epoch is outside the window.
        #[test]
        fn prop_window_invariant(
            inserts in proptest::collection::vec((0u64..50, any::<u64>()), 1..100),
            current in 0u64..60,
            thr in 0u64..5
        ) {
            let mut map = NullifierMap::new();
            for (epoch, nul) in inserts {
                map.insert(epoch, Fr::from_u64(nul), share(nul, 1));
            }
            map.gc(current, thr);
            for epoch in map.epoch_numbers() {
                prop_assert!(epoch >= current.saturating_sub(thr));
            }
        }

        /// The dense layout is observably the nested-map oracle: random
        /// insert / mark / gc / reset sequences — the same φ in several
        /// epochs, φs that differ only where the caught flag lives, gossip
        /// duplicates, double-signals, marks on caught or absent
        /// statements, far-future epochs, `thr` = 0, a cold reset — give
        /// equal outcomes and equal reads after every step, and
        /// `PartialEq` ignores insertion order.
        #[test]
        fn prop_matches_nested_map_oracle(
            ops in proptest::collection::vec(
                (any::<u8>(), any::<u64>(), 0u64..4, 0u64..3),
                1..120,
            )
        ) {
            let mut map = NullifierMap::new();
            let mut oracle = Reference::default();
            let mut fresh = Vec::new();
            for (kind, raw, phi, pick) in ops {
                if kind % 4 == 0 {
                    let current = if raw % 8 == 0 { u64::MAX } else { raw % 20 };
                    let thr = pick + phi % 2;
                    map.gc(current, thr);
                    oracle.gc(current, thr);
                    fresh.retain(|(epoch, _, _)| *epoch >= current.saturating_sub(thr));
                } else if kind % 32 == 1 {
                    map = NullifierMap::new();
                    oracle = Reference::default();
                    fresh.clear();
                } else if kind % 4 == 1 {
                    let epoch = epoch_of(raw);
                    map.mark_caught(epoch, phi_of(phi));
                    oracle.mark_caught(epoch, phi_of(phi));
                } else {
                    let epoch = epoch_of(raw);
                    // two shares per φ: repeats are duplicates or
                    // double-signals depending on the draw
                    let s = share(phi, pick % 2);
                    let outcome = map.insert(epoch, phi_of(phi), s);
                    prop_assert_eq!(outcome, oracle.insert(epoch, phi_of(phi), s));
                    if outcome == NullifierOutcome::Fresh {
                        fresh.push((epoch, phi, s));
                    }
                }
                assert_matches(&map, &oracle);
            }
            // the surviving entries, inserted newest first, then the marks
            let mut rebuilt = NullifierMap::new();
            for (epoch, phi, s) in fresh.into_iter().rev() {
                rebuilt.insert(epoch, phi_of(phi), s);
            }
            for (epoch, key) in &oracle.caught {
                rebuilt.mark_caught(*epoch, Fr::from_bytes_le(key).expect("a stored φ"));
            }
            prop_assert_eq!(rebuilt, map);
        }

        /// Detection is order-independent for a pair of conflicting shares.
        #[test]
        fn prop_double_signal_detected_regardless_of_order(a in 1u64..1000, b in 1001u64..2000) {
            let phi = Fr::from_u64(7);
            let mut m1 = NullifierMap::new();
            m1.insert(1, phi, share(a, a));
            let r1 = m1.insert(1, phi, share(b, b));
            let mut m2 = NullifierMap::new();
            m2.insert(1, phi, share(b, b));
            let r2 = m2.insert(1, phi, share(a, a));
            let d1 = matches!(r1, NullifierOutcome::DoubleSignal { .. });
            let d2 = matches!(r2, NullifierOutcome::DoubleSignal { .. });
            prop_assert!(d1);
            prop_assert!(d2);
        }
    }
}
