//! Exact, host-independent counts of the work done on this thread: one
//! [`Unit`] per counted cost, added where the work is done and read by
//! diffing two [`profile`]s around a workload.
//!
//! ```
//! use wakurln_crypto::sha256::Sha256;
//! use wakurln_crypto::work::{self, Unit};
//!
//! // padding adds 9 bytes, so a 55-byte input fits one block and a
//! // 56-byte input needs two
//! let start = work::profile();
//! Sha256::digest(&[0u8; 55]);
//! let short = work::profile() - start;
//! Sha256::digest(&[0u8; 56]);
//! let long = work::profile() - start - short;
//! assert_eq!((short.get(Unit::Sha256Block), long.get(Unit::Sha256Block)), (1, 2));
//! assert!(long.to_string().contains("sha256_blocks=2"));
//! ```
//!
//! A profile is a pure function of the workload when it is taken on a
//! fresh thread, after one warm-up run. The fresh thread keeps the
//! per-thread caches out: the slashing derivation memo and
//! `DigestState`'s key sequence outlive a run. The warm-up run keeps the
//! process-wide ones out: the Poseidon round constants, the Merkle zero
//! hashes and the compiled circuits are `OnceLock`s that charge their
//! one-time work to the first thread that touches them.
//!
//! Counts are host-side: none enters a simulation report.

use std::cell::Cell;
use std::fmt;
use std::ops::Sub;

/// A unit of work, counted per thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Poseidon permutations.
    PoseidonPermutation,
    /// SHA-256 64-byte block compressions.
    Sha256Block,
    /// Secrets recovered from the two shares of a double signal.
    Reconstruction,
    /// Sweeps of a gossipsub message table for expired seen entries.
    SeenSweep,
    /// Gossipsub heartbeat walks over every tracked peer's liveness.
    LivenessSweep,
    /// Gossipsub heartbeat scans of a mesh for peers to evict.
    EvictionScan,
}

/// Each [`Unit`]'s name in a [`Profile`]'s display, in declaration order.
const NAMES: [&str; 6] = [
    "poseidon_perms",
    "sha256_blocks",
    "reconstructions",
    "seen_sweeps",
    "liveness_sweeps",
    "eviction_scans",
];

thread_local! {
    static COUNTS: [Cell<u64>; NAMES.len()] = const { [const { Cell::new(0) }; NAMES.len()] };
}

/// Counts `n` units of work on this thread.
#[inline]
pub fn add(unit: Unit, n: u64) {
    COUNTS.with(|counts| {
        let count = &counts[unit as usize];
        count.set(count.get() + n);
    });
}

/// Units of work done on this thread since it started.
pub fn count(unit: Unit) -> u64 {
    COUNTS.with(|counts| counts[unit as usize].get())
}

/// Every unit's [`count`] at once; `later - earlier` is the work done in
/// between, displayed as `name=count` pairs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Profile([u64; NAMES.len()]);

/// This thread's counts now.
pub fn profile() -> Profile {
    Profile(COUNTS.with(|counts| counts.each_ref().map(Cell::get)))
}

impl Profile {
    /// The count of one unit.
    pub fn get(&self, unit: Unit) -> u64 {
        self.0[unit as usize]
    }
}

impl Sub for Profile {
    type Output = Profile;

    fn sub(self, earlier: Profile) -> Profile {
        Profile(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pairs: Vec<String> = NAMES
            .iter()
            .zip(self.0)
            .map(|(name, n)| format!("{name}={n}"))
            .collect();
        f.write_str(&pairs.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_count_under_their_own_names() {
        let before = profile();
        add(Unit::SeenSweep, 2);
        add(Unit::EvictionScan, 1);
        assert_eq!(
            (profile() - before).to_string(),
            "poseidon_perms=0 sha256_blocks=0 reconstructions=0 \
             seen_sweeps=2 liveness_sweeps=0 eviction_scans=1"
        );
    }

    #[test]
    fn a_fresh_thread_starts_at_zero() {
        add(Unit::Reconstruction, 5);
        let fresh = std::thread::scope(|s| s.spawn(profile).join().unwrap());
        assert_eq!(fresh, Profile::default());
    }
}
