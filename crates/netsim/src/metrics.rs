//! Simulation metrics: global counters and per-node accounting.

use std::collections::BTreeMap;

/// Aggregated measurements collected during a simulation run.
///
/// Protocols write into this through
/// [`Context`](crate::sim::Context) helpers; experiment harnesses read the
/// totals after [`Network::run_until`](crate::sim::Network::run_until).
/// Per-node accounting is keyed by explicit `u64` node ids (not `usize`):
/// report fields derived from it are wire-stable across 32- and 64-bit
/// platforms.
///
/// Writing allocates nothing once a key has been seen: global counter
/// keys are `&'static str` (every caller passes a literal) and are stored
/// as such, so each of the several updates a simulated event makes is a
/// map lookup and an add. Names are compared only by content, so the read API
/// takes any `&str`.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Global counters by name.
    counters: BTreeMap<&'static str, u64>,
    /// Simulated CPU microseconds charged to each node
    /// ([`Context::charge_cpu`](crate::sim::Context::charge_cpu)), indexed
    /// by node id; grows to the highest id charged.
    cpu_micros_per_node: Vec<u64>,
    /// Bytes put on the wire by each node, indexed by node id; grows to
    /// the highest id that sent (bumped on every simulated send).
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

/// `row[node]`, or 0 past the end of the row.
fn read_at(row: &[u64], node: u64) -> u64 {
    row.get(node as usize).copied().unwrap_or(0)
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

    /// Charges `micros` of simulated CPU time to `node`.
    pub fn add_node_cpu_micros(&mut self, node: u64, micros: u64) {
        add_at(&mut self.cpu_micros_per_node, node, micros);
    }

    /// Adds `n` bytes to `node`'s wire-output tally (hot path: called on
    /// every simulated send).
    pub fn add_node_bytes_sent(&mut self, node: u64, n: u64) {
        add_at(&mut self.bytes_sent_per_node, node, n);
    }

    /// Simulated CPU microseconds charged to `node` so far (0 when it was
    /// never charged).
    pub fn node_cpu_micros(&self, node: u64) -> u64 {
        read_at(&self.cpu_micros_per_node, node)
    }

    /// Bytes `node` put on the wire so far (0 when it never sent).
    pub fn node_bytes_sent(&self, node: u64) -> u64 {
        read_at(&self.bytes_sent_per_node, node)
    }

    /// Reads a global counter (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
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
        m.add_node_cpu_micros(0, 10);
        m.add_node_cpu_micros(1, 20);
        m.add_node_bytes_sent(1, 7);
        assert_eq!(m.node_cpu_micros(0), 10);
        assert_eq!(m.node_cpu_micros(1), 20);
        // the CPU and byte rows are independent
        assert_eq!(m.node_bytes_sent(0), 0);
        assert_eq!(m.node_bytes_sent(1), 7);
    }

    #[test]
    fn sparse_node_id_grows_the_row_and_unseen_nodes_read_zero() {
        let mut m = Metrics::new();
        m.add_node_cpu_micros(7, 5);
        assert_eq!(m.node_cpu_micros(7), 5);
        for unseen in [0, 6, 8, 1_000_000] {
            assert_eq!(m.node_cpu_micros(unseen), 0);
        }
        // a lower id later lands in the same row; a higher one extends it
        m.add_node_cpu_micros(2, 1);
        m.add_node_cpu_micros(40, 3);
        m.add_node_cpu_micros(7, 5);
        assert_eq!(m.node_cpu_micros(7), 10);
        assert_eq!(m.node_cpu_micros(2), 1);
        assert_eq!(m.node_cpu_micros(40), 3);
    }

    #[test]
    fn key_first_seen_late_joins_in_sorted_order() {
        let mut m = Metrics::new();
        m.count("zeta", 1);
        m.count("mid", 1);
        for _ in 0..100 {
            m.count("zeta", 1);
        }
        // first written long after the others, and built at run time: the
        // read API matches names by content, not by address
        m.count("alpha", 9);
        let late = String::from("al") + "pha";
        assert_eq!(m.counter(&late), 9);
        assert_eq!(m.counter("zeta"), 101);
        assert_eq!(m.counter("mid"), 1);
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
