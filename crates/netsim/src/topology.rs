//! Topology generators: initial peer sets for overlay protocols.
//!
//! GossipSub discovers and manages its mesh itself, but every peer needs a
//! bootstrap set of known peers. These helpers build the usual shapes used
//! in p2p evaluations (the GossipSub paper evaluates on random regular-ish
//! graphs).

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::sim::NodeId;

/// Every peer knows every other peer (small networks / tests).
pub fn full_mesh(n: usize) -> Vec<Vec<NodeId>> {
    (0..n)
        .map(|i| (0..n).filter(|j| *j != i).map(NodeId).collect())
        .collect()
}

/// A ring: each peer knows its two neighbours (worst-case diameter).
pub fn ring(n: usize) -> Vec<Vec<NodeId>> {
    assert!(n >= 2, "ring needs at least 2 nodes");
    (0..n)
        .map(|i| vec![NodeId((i + 1) % n), NodeId((i + n - 1) % n)])
        .collect()
}

/// A symmetrized random graph of minimum degree `degree` (not a regular
/// one, despite the name): every peer picks `degree` distinct other peers
/// uniformly at random, and a pick puts each end in the other's row, so a
/// row holds the peer's own picks plus everyone who picked it — `degree`
/// to `n − 1` entries, about `2 · degree` on average. Rows are strictly
/// ascending and hold no self-loop; `degree = n − 1` is the full mesh.
///
/// Costs `O(n · degree)`: at most `n · (degree + 1)` RNG draws (a partial
/// Fisher–Yates of `degree` picks per peer over one shared pool, never a
/// shuffle of all `n − 1` candidates) and one sort per row.
///
/// # Panics
///
/// Panics if `degree >= n`.
pub fn random_regular(n: usize, degree: usize, seed: u64) -> Vec<Vec<NodeId>> {
    let mut rows: Vec<Vec<NodeId>> = (0..n).map(|_| Vec::with_capacity(2 * degree)).collect();
    draw_picks(n, degree, &mut StdRng::seed_from_u64(seed), |i, j| {
        rows[i].push(NodeId(j));
        rows[j].push(NodeId(i));
    });
    for row in &mut rows {
        row.sort_unstable();
        row.dedup();
    }
    rows
}

/// Calls `pick(i, j)` for each of peer `i`'s `degree` picks, peers in
/// ascending order.
///
/// One `pool` holds a permutation of `0..n` for the whole call and each
/// peer runs a partial Fisher–Yates over its front: a draw is uniform
/// over the entries not yet drawn for this peer, whatever order earlier
/// peers left the pool in, so no per-peer candidate list is built or
/// reset. The one draw that can land on `i` itself is skipped, which
/// leaves the others uniform over the remaining peers — `degree` or
/// `degree + 1` draws per peer.
fn draw_picks<R: RngCore>(
    n: usize,
    degree: usize,
    rng: &mut R,
    mut pick: impl FnMut(usize, usize),
) {
    assert!(degree < n, "degree must be below node count");
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..n {
        let mut picked = 0;
        // at most one of the `pos` entries drawn so far is `i`, so
        // `pos <= picked + 1 <= degree < n` whenever a draw is made
        let mut pos = 0;
        while picked < degree {
            let j = rng.gen_range(pos..n);
            pool.swap(pos, j);
            let peer = pool[pos];
            pos += 1;
            if peer != i {
                pick(i, peer);
                picked += 1;
            }
        }
    }
}

/// Checks whether the (symmetric) adjacency is a connected graph — used by
/// tests and experiment setup assertions.
pub fn is_connected(adjacency: &[Vec<NodeId>]) -> bool {
    if adjacency.is_empty() {
        return true;
    }
    let mut seen = vec![false; adjacency.len()];
    // a node is marked when popped, so node 0 needs no special case
    let mut stack = vec![0usize];
    let mut visited = 0;
    while let Some(i) = stack.pop() {
        if std::mem::replace(&mut seen[i], true) {
            continue;
        }
        visited += 1;
        stack.extend(adjacency[i].iter().map(|p| p.0));
    }
    visited == adjacency.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn full_mesh_degrees() {
        let t = full_mesh(5);
        assert!(t.iter().all(|peers| peers.len() == 4));
        assert!(is_connected(&t));
    }

    #[test]
    fn ring_is_connected() {
        let t = ring(10);
        assert!(t.iter().all(|peers| peers.len() == 2));
        assert!(is_connected(&t));
    }

    #[test]
    fn random_regular_has_at_least_degree() {
        let t = random_regular(50, 6, 7);
        assert!(t.iter().all(|peers| peers.len() >= 6));
        assert!(is_connected(&t));
    }

    #[test]
    fn random_regular_is_symmetric() {
        let t = random_regular(30, 4, 9);
        for (i, peers) in t.iter().enumerate() {
            for p in peers {
                assert!(t[p.0].contains(&NodeId(i)), "edge {i}<->{p} not symmetric");
            }
        }
    }

    #[test]
    fn deterministic_by_seed() {
        assert_eq!(random_regular(20, 4, 1), random_regular(20, 4, 1));
        assert_ne!(random_regular(20, 4, 1), random_regular(20, 4, 2));
    }

    #[test]
    #[should_panic(expected = "degree must be below")]
    fn degree_too_large_panics() {
        let _ = random_regular(4, 4, 1);
    }

    /// Counts the `u64`s drawn from the wrapped generator.
    struct CountingRng {
        inner: StdRng,
        draws: u64,
    }

    impl RngCore for CountingRng {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
    }

    /// The work bound, as a count: host-independent, and `n · (n − 2)`
    /// for a generator that shuffles every peer's candidates.
    #[test]
    fn draws_are_linear_in_the_population() {
        let (n, degree) = (50_000, 6);
        let mut rng = CountingRng {
            inner: StdRng::seed_from_u64(1),
            draws: 0,
        };
        let mut picks = 0u64;
        draw_picks(n, degree, &mut rng, |_, _| picks += 1);
        assert_eq!(picks, (n * degree) as u64);
        assert!(rng.draws >= picks);
        assert!(
            rng.draws <= (n * (degree + 1)) as u64,
            "{} draws for {n} peers of degree {degree}",
            rng.draws
        );
    }

    /// Every other peer is equally likely to be picked: over 2 000 graphs
    /// peer 0 picks each of the 19 others 2 000 · 4 / 19 ≈ 421 times, with
    /// a standard deviation of ≈ 18 — the ± 20 % band is > 4 σ wide.
    #[test]
    fn picks_are_uniform_over_the_other_peers() {
        let (n, degree, seeds) = (20, 4, 2_000u64);
        let mut hits = vec![0u64; n];
        for seed in 0..seeds {
            draw_picks(n, degree, &mut StdRng::seed_from_u64(seed), |i, j| {
                if i == 0 {
                    hits[j] += 1;
                }
            });
        }
        assert_eq!(hits[0], 0);
        let expected = (seeds * degree as u64) as f64 / (n - 1) as f64;
        for (peer, &count) in hits.iter().enumerate().skip(1) {
            let ratio = count as f64 / expected;
            assert!(
                (0.8..=1.2).contains(&ratio),
                "peer {peer} picked {count} times, expected about {expected:.0}"
            );
        }
    }

    proptest! {
        /// The row format every caller relies on.
        #[test]
        fn rows_are_symmetric_ascending_and_at_least_degree_long(
            n in 1usize..=300, d in any::<usize>(), seed in any::<u64>()
        ) {
            let degree = d % n;
            let t = random_regular(n, degree, seed);
            prop_assert_eq!(t.len(), n);
            for (i, row) in t.iter().enumerate() {
                prop_assert!(row.len() >= degree, "row {} has {} < {}", i, row.len(), degree);
                prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row {} not ascending", i);
                prop_assert!(!row.contains(&NodeId(i)), "self-loop at {}", i);
                for p in row {
                    prop_assert!(t[p.0].binary_search(&NodeId(i)).is_ok(), "{}<->{} one-way", i, p);
                }
            }
            prop_assert_eq!(&t, &random_regular(n, degree, seed));
            if degree == n - 1 {
                prop_assert_eq!(&t, &full_mesh(n));
            }
        }

        /// Before symmetrization: each peer makes exactly `degree` picks,
        /// all distinct and none of them itself.
        #[test]
        fn each_peer_picks_degree_distinct_others(
            n in 1usize..=300, d in any::<usize>(), seed in any::<u64>()
        ) {
            let degree = d % n;
            let mut picks: Vec<Vec<usize>> = vec![Vec::new(); n];
            draw_picks(n, degree, &mut StdRng::seed_from_u64(seed), |i, j| picks[i].push(j));
            for (i, mut row) in picks.into_iter().enumerate() {
                prop_assert_eq!(row.len(), degree);
                prop_assert!(row.iter().all(|j| *j != i && *j < n));
                row.sort_unstable();
                row.dedup();
                prop_assert_eq!(row.len(), degree, "peer {} picked a peer twice", i);
            }
        }

        /// The seed is the only input: the next one draws another graph
        /// (sizes where two equal samples are out of the question).
        #[test]
        fn the_next_seed_draws_a_different_graph(
            n in 20usize..=300, d in any::<usize>(), seed in 0u64..u64::MAX
        ) {
            let degree = 1 + d % (n / 2);
            prop_assert_ne!(random_regular(n, degree, seed), random_regular(n, degree, seed + 1));
        }
    }
}
