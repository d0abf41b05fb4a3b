//! Simulation metrics: global counters and per-node accounting.

use std::collections::BTreeMap;

/// Aggregated measurements collected during a simulation run.
///
/// Protocols write into this through
/// [`Context`](crate::sim::Context) helpers; experiment harnesses read the
/// totals after [`Network::run_until`](crate::sim::Network::run_until).
/// Per-node keys are explicit `u64` (not `usize`): report fields derived
/// from them are wire-stable across 32- and 64-bit platforms.
///
/// Writing allocates nothing once a key has been seen: keys are
/// `&'static str` (every caller passes a literal) and are stored as such,
/// so the several updates replayed per simulated event are a map lookup
/// and an add. Per-node counters are one dense row per key, indexed by
/// node id, which grows to the highest id written; nodes never written
/// read 0. Names are compared only by content, so the read API takes any
/// `&str`.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    /// One dense row per key: `per_node[key][node]`.
    per_node: BTreeMap<&'static str, Vec<u64>>,
    /// Bytes put on the wire by each node. Kept out of `per_node` because
    /// it is bumped on every send — a bare `Vec` skips the key lookup.
    bytes_sent_per_node: Vec<u64>,
}

/// `row[node] += n`, growing the row with zeros up to `node`.
fn add_at(row: &mut Vec<u64>, node: u64, n: u64) {
    let node = node as usize;
    if row.len() <= node {
        row.resize(node + 1, 0);
    }
    row[node] += n;
}

impl Metrics {
    /// Fresh, empty metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `n` to the global counter `key`.
    pub fn count(&mut self, key: &'static str, n: u64) {
        *self.counters.entry(key).or_default() += n;
    }

    /// Adds `n` to a per-node counter.
    pub fn count_node(&mut self, node: u64, key: &'static str, n: u64) {
        add_at(self.per_node.entry(key).or_default(), node, n);
    }

    /// Adds `n` bytes to `node`'s wire-output tally (hot path: called on
    /// every simulated send).
    pub fn add_node_bytes_sent(&mut self, node: u64, n: u64) {
        add_at(&mut self.bytes_sent_per_node, node, n);
    }

    /// Bytes `node` put on the wire so far (0 when it never sent).
    pub fn node_bytes_sent(&self, node: u64) -> u64 {
        self.bytes_sent_per_node
            .get(node as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Reads a global counter (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Reads a per-node counter (0 when absent).
    pub fn node_counter(&self, node: u64, key: &str) -> u64 {
        self.per_node
            .get(key)
            .and_then(|row| row.get(node as usize))
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.count("delivered", 3);
        m.count("delivered", 2);
        assert_eq!(m.counter("delivered"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn per_node_counters_are_separate() {
        let mut m = Metrics::new();
        m.count_node(0, "cpu", 10);
        m.count_node(1, "cpu", 20);
        assert_eq!(m.node_counter(0, "cpu"), 10);
        assert_eq!(m.node_counter(1, "cpu"), 20);
    }

    #[test]
    fn sparse_node_id_grows_the_row_and_unseen_nodes_read_zero() {
        let mut m = Metrics::new();
        m.count_node(7, "cpu", 5);
        assert_eq!(m.node_counter(7, "cpu"), 5);
        for unseen in [0, 6, 8, 1_000_000] {
            assert_eq!(m.node_counter(unseen, "cpu"), 0);
        }
        // a lower id later lands in the same row; a higher one extends it
        m.count_node(2, "cpu", 1);
        m.count_node(40, "cpu", 3);
        m.count_node(7, "cpu", 5);
        assert_eq!(m.node_counter(7, "cpu"), 10);
        assert_eq!(m.node_counter(2, "cpu"), 1);
        assert_eq!(m.node_counter(40, "cpu"), 3);
        // rows are per key: another key's row is untouched
        assert_eq!(m.node_counter(7, "other"), 0);
    }

    #[test]
    fn key_first_seen_late_joins_in_sorted_order() {
        let mut m = Metrics::new();
        m.count("zeta", 1);
        m.count("mid", 1);
        m.count_node(3, "mid", 2);
        for _ in 0..100 {
            m.count("zeta", 1);
        }
        // first written long after the others, and built at run time: the
        // read API matches names by content, not by address
        m.count("alpha", 9);
        m.count_node(0, "alpha", 4);
        let late = String::from("al") + "pha";
        assert_eq!(m.counter(&late), 9);
        assert_eq!(m.node_counter(0, &late), 4);
        assert_eq!(m.counter("zeta"), 101);
        assert_eq!(m.counter("mid"), 1);
        assert_eq!(m.node_counter(3, "mid"), 2);
    }

    #[test]
    fn node_bytes_sent_is_dense_and_sparse_safe() {
        let mut m = Metrics::new();
        m.add_node_bytes_sent(3, 100);
        m.add_node_bytes_sent(3, 50);
        m.add_node_bytes_sent(0, 7);
        assert_eq!(m.node_bytes_sent(3), 150);
        assert_eq!(m.node_bytes_sent(0), 7);
        assert_eq!(m.node_bytes_sent(1), 0);
        assert_eq!(m.node_bytes_sent(99), 0);
    }
}
