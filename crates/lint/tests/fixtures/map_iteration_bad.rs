// Fixture: HashMap/HashSet iteration in deterministic code must fire.
// Tilde-comments mark the line each finding is expected on.
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

pub struct State {
    peers: HashMap<u64, u32>,
    seen: HashSet<u64>,
    // an explicit hasher leaves the order as unspecified as `RandomState`
    digests: HashMap<[u8; 32], u32, BuildHasherDefault<DefaultHasher>>,
}

impl State {
    pub fn sum(&self) -> u32 {
        let mut total = 0;
        for (_, v) in self.peers.iter() { //~ map-iteration
            total += v;
        }
        total
    }

    pub fn first_key(&self) -> Option<u64> {
        self.peers.keys().next().copied() //~ map-iteration
    }

    pub fn prune(&mut self) {
        self.seen.retain(|x| *x > 10); //~ map-iteration
    }

    pub fn walk(&self) -> u64 {
        let mut acc = 0;
        for id in &self.seen { //~ map-iteration
            acc ^= id;
        }
        acc
    }

    pub fn flush(&mut self) -> Vec<u64> {
        self.seen.drain().collect() //~ map-iteration
    }

    pub fn digest_total(&self) -> u32 {
        self.digests.values().sum() //~ map-iteration
    }
}
