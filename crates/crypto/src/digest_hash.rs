//! A table hasher for keys that are SHA-256 digests.
//!
//! Message ids and the validation pipeline's statement digests are
//! SHA-256 outputs: every byte of them is already uniformly distributed.
//! `std`'s default `RandomState` still runs SipHash over all 32 bytes of
//! such a key on every lookup. [`DigestState`] instead takes the first
//! 8-byte word of the key and mixes it with a per-table key — one xor
//! and one multiply.
//!
//! # Precondition: keys are digests
//!
//! The hasher is only as good as its keys are uniform. Keys must be
//! digests (or wrappers that hash exactly one, such as a gossip
//! `MessageId`); anything else may land every key in one bucket. It is
//! **not** a defence against an adversary who grinds ids so that their
//! first words collide — SipHash is. No simulated adversary does that.
//! The two users insert only digests computed from content (a message's
//! id, a statement's digest); ids an IHAVE advertises are only looked up.
//!
//! # Per-table keys
//!
//! Each [`DigestState::default`] draws the next key of a deterministic
//! sequence (per thread, never host entropy), so two tables place the
//! same ids in different slots: with one fixed key, the tables of the
//! 10 000 peers of a simulation, which all see the same ids, would share
//! one layout and fill, tombstone and resize in lockstep. A clone keeps
//! its original's key.
//!
//! ```
//! use std::collections::HashMap;
//! use wakurln_crypto::digest_hash::DigestState;
//! use wakurln_crypto::sha256::Sha256;
//!
//! let mut verdicts: HashMap<[u8; 32], bool, DigestState> = HashMap::default();
//! verdicts.insert(Sha256::digest(b"statement"), true);
//! assert_eq!(verdicts.get(&Sha256::digest(b"statement")), Some(&true));
//! ```

use std::cell::Cell;
use std::hash::{BuildHasher, Hasher};

thread_local! {
    /// Index of the next per-table key on this thread.
    static NEXT_TABLE: Cell<u64> = const { Cell::new(0) };
}

/// The SplitMix64 finaliser: a bijection on `u64`, so distinct table
/// indices give distinct keys.
fn splitmix64(index: u64) -> u64 {
    let mut z = index.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// [`BuildHasher`] for tables keyed by SHA-256 digests; see the
/// [module docs](self) for the precondition and the per-table keys.
#[derive(Clone, Debug)]
pub struct DigestState {
    key: u64,
}

impl Default for DigestState {
    /// A state with the next key of this thread's sequence.
    fn default() -> DigestState {
        let index = NEXT_TABLE.with(|next| {
            let index = next.get();
            next.set(index.wrapping_add(1));
            index
        });
        DigestState {
            key: splitmix64(index),
        }
    }
}

impl BuildHasher for DigestState {
    type Hasher = DigestHasher;

    #[inline]
    fn build_hasher(&self) -> DigestHasher {
        DigestHasher { word: self.key }
    }
}

/// The [`Hasher`] a [`DigestState`] builds: starting from the table's
/// key, it xors in the first 8 bytes of each write (a `[u8; 32]` key
/// writes its length, then its bytes) and mixes the word on
/// [`finish`](Hasher::finish).
#[derive(Clone, Debug)]
pub struct DigestHasher {
    word: u64,
}

impl Hasher for DigestHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut word = [0u8; 8];
        let n = bytes.len().min(8);
        word[..n].copy_from_slice(&bytes[..n]);
        self.word ^= u64::from_le_bytes(word);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // an odd multiplier is a bijection: the low bits (the bucket)
        // stay as uniform as the digest's, and the high bits (the
        // control byte) depend on the whole word
        self.word.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::Sha256;
    use std::collections::HashMap;

    /// The shape of a gossip message id: a newtype over one digest.
    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    struct MessageId([u8; 32]);

    #[test]
    fn two_default_states_get_different_keys() {
        let (a, b) = (DigestState::default(), DigestState::default());
        assert_ne!(a.key, b.key);
        let digest = Sha256::digest(b"id");
        assert_ne!(a.hash_one(digest), b.hash_one(digest));
    }

    #[test]
    fn a_clone_hashes_the_same_as_its_original() {
        let state = DigestState::default();
        let clone = state.clone();
        for i in 0u32..64 {
            let digest = Sha256::digest(&i.to_le_bytes());
            assert_eq!(state.hash_one(digest), clone.hash_one(digest));
        }
    }

    #[test]
    fn an_array_and_a_message_id_over_the_same_bytes_hash_alike() {
        let state = DigestState::default();
        for i in 0u32..64 {
            let digest = Sha256::digest(&i.to_le_bytes());
            assert_eq!(state.hash_one(digest), state.hash_one(MessageId(digest)));
        }
    }

    #[test]
    fn a_map_of_ten_thousand_digests_round_trips() {
        let mut map: HashMap<[u8; 32], u32, DigestState> = HashMap::default();
        for i in 0u32..10_000 {
            assert!(map.insert(Sha256::digest(&i.to_le_bytes()), i).is_none());
        }
        assert_eq!(map.len(), 10_000);
        for i in 0u32..10_000 {
            assert_eq!(map.get(&Sha256::digest(&i.to_le_bytes())), Some(&i));
        }
        for i in (0u32..10_000).step_by(2) {
            assert_eq!(map.remove(&Sha256::digest(&i.to_le_bytes())), Some(i));
        }
        assert_eq!(map.len(), 5_000);
        assert!(map.contains_key(&Sha256::digest(&1u32.to_le_bytes())));
        assert!(!map.contains_key(&Sha256::digest(&0u32.to_le_bytes())));
    }
}
