// Fixture: a `#[cfg(test)]` struct field or struct-literal field is
// test-only up to its own `,`; the code after it is still checked.
// Tilde-comments mark the line each finding is expected on.
use std::collections::HashMap;

pub struct State {
    peers: HashMap<u64, u32>,
    #[cfg(test)]
    sweeps: u32,
}

impl State {
    pub fn sum(&self) -> u32 {
        self.peers.values().sum() //~ map-iteration
    }
}

pub fn build() -> State {
    State {
        peers: HashMap::new(),
        #[cfg(test)]
        sweeps: 0,
    }
}

pub fn first(state: &State) -> Option<u64> {
    state.peers.keys().next().copied() //~ map-iteration
}

// test-only items stay unchecked, commas in their headers included
#[cfg(test)]
fn count<K, V>(map: &HashMap<K, V>) -> usize {
    map.keys().count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums() {
        let state = build();
        assert_eq!(state.peers.values().count(), count(&state.peers));
    }
}
