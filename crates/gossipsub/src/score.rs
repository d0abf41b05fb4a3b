//! GossipSub v1.1 peer scoring.
//!
//! The paper (§I) argues this mechanism — the state of the art adopted by
//! libp2p — "is prone to censorship and inexpensive attacks where millions
//! of bots can be deployed to send bulk messages": scores are *local*
//! knowledge, a spammer slashed by one peer is unknown to the rest of the
//! network, and fresh Sybil identities start with a clean slate. The
//! implementation here is both part of the routing substrate and the
//! baseline that E6 compares WAKU-RLN-RELAY against.
//!
//! The counters live in the node's neighbour table, one group per row.
//! Their heartbeat accrual and decay are applied to a row when it is next
//! touched (and to a copy when a score is only read), with the same
//! floating-point steps a per-heartbeat walk would take.

use crate::config::ScoringConfig;
use crate::neighbours::Neighbours;
use wakurln_netsim::NodeId;

/// Per-peer scoring counters (one column group of the node's neighbour
/// table, beside the row's `in_mesh` flag).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PeerCounters {
    /// Heartbeats spent in any of our meshes (P1 input).
    heartbeats_in_mesh: f64,
    /// First deliveries of valid messages (P2 input).
    pub(crate) first_deliveries: f64,
    /// Invalid (validation-rejected) messages (P4 input).
    pub(crate) invalid_messages: f64,
}

impl PeerCounters {
    pub(crate) fn score(&self, config: &ScoringConfig) -> f64 {
        let p1 = self
            .heartbeats_in_mesh
            .min(config.time_in_mesh_cap / config.time_in_mesh_weight.max(f64::MIN_POSITIVE))
            * config.time_in_mesh_weight;
        let p1 = p1.min(config.time_in_mesh_cap);
        let p2 =
            self.first_deliveries.min(config.first_delivery_cap) * config.first_delivery_weight;
        let p4 = self.invalid_messages * self.invalid_messages * config.invalid_weight;
        p1 + p2 + p4
    }

    /// Heartbeat maintenance: time-in-mesh accrual (while the peer sits
    /// `in_mesh`) and counter decay.
    pub(crate) fn heartbeat(&mut self, in_mesh: bool, config: &ScoringConfig) {
        if in_mesh {
            self.heartbeats_in_mesh += 1.0;
        }
        self.first_deliveries *= config.decay;
        self.invalid_messages *= config.decay;
        if self.first_deliveries < 0.01 {
            self.first_deliveries = 0.0;
        }
        if self.invalid_messages < 0.01 {
            self.invalid_messages = 0.0;
        }
    }

    /// `n` heartbeats at once, bit for bit [`PeerCounters::heartbeat`]
    /// run `n` times: the steps run one by one while a decaying counter
    /// is non-zero (a zero counter stays zero under decay and the snap),
    /// and the rest only accrue time in mesh, whose whole-number sum one
    /// addition reaches exactly (it stays far below 2^53).
    pub(crate) fn heartbeats(&mut self, n: u32, in_mesh: bool, config: &ScoringConfig) {
        let mut left = n;
        while left > 0 && (self.first_deliveries != 0.0 || self.invalid_messages != 0.0) {
            self.heartbeat(in_mesh, config);
            left -= 1;
        }
        if in_mesh {
            self.heartbeats_in_mesh += f64::from(left);
        }
    }
}

/// The local peer-score table: a read-only view of the score entries in
/// a node's neighbour table.
#[derive(Clone, Copy, Debug)]
pub struct PeerScore<'a> {
    table: &'a Neighbours,
}

impl<'a> PeerScore<'a> {
    pub(crate) fn new(table: &'a Neighbours) -> PeerScore<'a> {
        PeerScore { table }
    }

    /// The scoring parameters in use.
    pub fn config(&self) -> &'a ScoringConfig {
        self.table.scoring()
    }

    /// Number of peers with score-tracking state. The table must track
    /// the peer set, not message volume — the soak harness holds it to
    /// that bound over simulated days.
    pub fn tracked_len(&self) -> usize {
        self.table.scored_peers().count()
    }

    /// The tracked peers in ascending id order (diagnostics: score
    /// extremes, table-boundedness checks).
    pub fn tracked_peers(&self) -> impl Iterator<Item = NodeId> + 'a {
        self.table.scored_peers()
    }

    /// Computes a peer's current score.
    pub fn score(&self, peer: NodeId) -> f64 {
        self.table
            .counters(peer)
            .map_or(0.0, |counters| counters.score(self.config()))
    }

    /// Whether we accept gossip (IHAVE/IWANT) from this peer.
    pub fn accepts_gossip(&self, peer: NodeId) -> bool {
        !self.may_be_negative() || self.score(peer) >= self.config().gossip_threshold
    }

    /// Whether we forward/publish to this peer.
    pub fn accepts_publish(&self, peer: NodeId) -> bool {
        !self.may_be_negative() || self.score(peer) >= self.config().publish_threshold
    }

    /// Whether the peer is graylisted (all RPC ignored).
    pub fn graylisted(&self, peer: NodeId) -> bool {
        self.may_be_negative() && self.score(peer) < self.config().graylist_threshold
    }

    /// Whether the peer should be evicted from meshes.
    pub fn should_evict(&self, peer: NodeId) -> bool {
        self.may_be_negative() && self.score(peer) < self.config().mesh_eviction_threshold
    }

    /// Whether any score can be negative. Every threshold is at most
    /// zero and only a peer with invalid messages on record can score
    /// below zero ([`ScoringConfig::assert_valid`]), so while no row
    /// holds one every threshold check passes without computing a score.
    fn may_be_negative(&self) -> bool {
        self.table.any_invalid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbours::Neighbours;

    fn table() -> Neighbours {
        Neighbours::new(ScoringConfig::default(), 0)
    }

    #[test]
    fn fresh_peer_scores_zero() {
        let s = table();
        assert_eq!(s.score().score(NodeId(1)), 0.0);
        assert!(!s.score().graylisted(NodeId(1)));
        assert!(s.score().accepts_publish(NodeId(1)));
    }

    #[test]
    fn deliveries_raise_score() {
        let mut s = table();
        for _ in 0..5 {
            s.record_first_delivery(NodeId(1));
        }
        assert!(s.score().score(NodeId(1)) > 0.0);
    }

    #[test]
    fn invalid_messages_sink_score_quadratically() {
        let mut s = table();
        s.record_invalid(NodeId(1));
        let one = s.score().score(NodeId(1));
        s.record_invalid(NodeId(1));
        let two = s.score().score(NodeId(1));
        assert!(one < 0.0);
        assert!(two < 4.0 * one + 1e-9, "quadratic: {two} vs {one}");
    }

    #[test]
    fn spammer_gets_graylisted_eventually() {
        let mut s = table();
        for _ in 0..10 {
            s.record_invalid(NodeId(1));
        }
        assert!(s.score().graylisted(NodeId(1)));
        assert!(s.score().should_evict(NodeId(1)));
        assert!(!s.score().accepts_gossip(NodeId(1)));
    }

    #[test]
    fn decay_forgives_over_time() {
        let mut s = table();
        for _ in 0..10 {
            s.record_invalid(NodeId(1));
        }
        assert!(s.score().graylisted(NodeId(1)));
        for _ in 0..200 {
            s.heartbeat();
        }
        // the Sybil weakness: time launders the bad score
        assert!(!s.score().graylisted(NodeId(1)));
    }

    #[test]
    fn time_in_mesh_is_capped() {
        let mut s = table();
        s.set_in_mesh(NodeId(1), true);
        for _ in 0..10_000 {
            s.heartbeat();
        }
        assert!(s.score().score(NodeId(1)) <= s.score().config().time_in_mesh_cap + 1e-9);
    }

    #[test]
    fn sybil_identity_resets_score() {
        // the paper's core criticism, demonstrated at unit level: a
        // graylisted attacker reappears as a new NodeId with score 0
        let mut s = table();
        for _ in 0..10 {
            s.record_invalid(NodeId(1));
        }
        assert!(s.score().graylisted(NodeId(1)));
        assert_eq!(s.score().score(NodeId(2)), 0.0);
        assert!(!s.score().graylisted(NodeId(2)));
    }
}
