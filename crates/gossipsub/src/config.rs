//! GossipSub protocol parameters (v1.1 defaults).

/// Mesh and gossip parameters, following the libp2p GossipSub v1.1
/// specification's defaults (the protocol the paper's §I cites as the
/// routing layer and whose peer-scoring it critiques as a spam defence).
#[derive(Clone, Copy, Debug)]
pub struct GossipsubConfig {
    /// Target mesh degree (`D`).
    pub mesh_n: usize,
    /// Lower bound on mesh degree (`D_lo`); grafts below it.
    pub mesh_n_low: usize,
    /// Upper bound on mesh degree (`D_hi`); prunes above it.
    pub mesh_n_high: usize,
    /// Number of peers IHAVE gossip is emitted to each heartbeat
    /// (`D_lazy`).
    pub gossip_lazy: usize,
    /// Milliseconds between heartbeats.
    pub heartbeat_ms: u64,
    /// Message-cache history windows kept (`mcache_len`).
    pub history_length: usize,
    /// Number of most recent windows gossiped (`mcache_gossip`).
    pub history_gossip: usize,
    /// Seen-cache time-to-live, milliseconds. At least the mcache's span
    /// (`history_length × heartbeat_ms`): a node must not cache and
    /// gossip an id it no longer remembers seeing, or an IHAVE → IWANT
    /// round trip hands the message to the application a second time.
    pub seen_ttl_ms: u64,
    /// Maximum IHAVE ids answered with IWANT per heartbeat per peer
    /// (bounds the IWANT-flood attack surface). The same budget bounds
    /// the *serving* side: full payloads handed out of the mcache to one
    /// peer per heartbeat, no matter how many IWANT frames the ids are
    /// split across.
    pub max_iwant_per_heartbeat: usize,
    /// Source-anonymity countermeasure: every wire copy of an **own**
    /// published message — each first-hop eager push, and IWANT replies
    /// serving it from the mcache — is held back for an independent
    /// uniform delay in `[0, publish_jitter_ms]` drawn from the node's
    /// deterministic RNG stream. Decorrelates first-arrival timing from
    /// mesh adjacency, which is what first-spy / earliest-arrival
    /// attribution estimators key on (see the gossip-privacy analyses
    /// cited in `PAPERS.md`); covering the IWANT path too matters
    /// because the publisher's own IHAVE gossip would otherwise hand an
    /// observer an unjittered `from = publisher` forward on request.
    /// Relaying *others'* messages is never jittered. `0` disables the
    /// countermeasure.
    pub publish_jitter_ms: u64,
    /// Backoff window after a PRUNE, milliseconds: a peer that pruned us
    /// (typically because its mesh sits at `D_hi`) is not re-grafted
    /// until the window expires, instead of on every heartbeat — the
    /// v1.1 `PruneBackoff`. Without it two nodes whose meshes disagree
    /// about capacity ping-pong GRAFT → PRUNE control frames once per
    /// heartbeat forever. `0` disables the backoff (the pre-v1.1
    /// behaviour the regression test pins down).
    pub prune_backoff_ms: u64,
    /// Liveness timeout: a mesh peer not heard from for this long is
    /// presumed crashed and pruned from the mesh and the peer-topic
    /// tables (the simulator has no connection teardown notifications, so
    /// churn repair relies on keepalives — see `Rpc::Ping`). Quiet peers
    /// are pinged at half this timeout. `0` disables liveness tracking.
    pub peer_timeout_ms: u64,
}

impl Default for GossipsubConfig {
    fn default() -> GossipsubConfig {
        GossipsubConfig {
            mesh_n: 6,
            mesh_n_low: 4,
            mesh_n_high: 12,
            gossip_lazy: 6,
            heartbeat_ms: 1_000,
            history_length: 5,
            history_gossip: 3,
            seen_ttl_ms: 120_000,
            max_iwant_per_heartbeat: 64,
            publish_jitter_ms: 0,
            prune_backoff_ms: 60_000,
            peer_timeout_ms: 30_000,
        }
    }
}

impl GossipsubConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics when the degree bounds are inconsistent
    /// (`D_lo ≤ D ≤ D_hi`), history windows are inconsistent, or the
    /// seen-cache forgets ids before the mcache drops them.
    pub fn assert_valid(&self) {
        assert!(self.mesh_n_low <= self.mesh_n, "D_lo must be <= D");
        assert!(self.mesh_n <= self.mesh_n_high, "D must be <= D_hi");
        assert!(
            self.history_gossip <= self.history_length,
            "gossip windows must fit in history"
        );
        assert!(self.heartbeat_ms > 0, "heartbeat must be positive");
        assert!(
            self.seen_ttl_ms >= (self.history_length as u64).saturating_mul(self.heartbeat_ms),
            "seen TTL must cover the mcache (history_length × heartbeat_ms)"
        );
    }
}

/// Peer-scoring parameters (a pragmatic subset of the v1.1 score function:
/// P1 time-in-mesh, P2 first deliveries, P4 invalid messages, plus decay
/// and the standard acceptance thresholds).
#[derive(Clone, Copy, Debug)]
pub struct ScoringConfig {
    /// Weight of time-in-mesh (per heartbeat in mesh), capped (P1).
    pub time_in_mesh_weight: f64,
    /// Cap on the time-in-mesh contribution.
    pub time_in_mesh_cap: f64,
    /// Weight of first message deliveries (P2).
    pub first_delivery_weight: f64,
    /// Cap on counted first deliveries.
    pub first_delivery_cap: f64,
    /// Weight of invalid messages; applied to the squared counter (P4,
    /// negative contribution).
    pub invalid_weight: f64,
    /// Multiplicative decay applied to counters every heartbeat.
    pub decay: f64,
    /// Below this score a peer's gossip (IHAVE) is ignored.
    pub gossip_threshold: f64,
    /// Below this score we do not publish/forward to the peer.
    pub publish_threshold: f64,
    /// Below this score every RPC from the peer is ignored (graylist).
    pub graylist_threshold: f64,
    /// Peers with negative score are evicted from meshes at heartbeat.
    pub mesh_eviction_threshold: f64,
}

impl Default for ScoringConfig {
    fn default() -> ScoringConfig {
        ScoringConfig {
            time_in_mesh_weight: 0.01,
            time_in_mesh_cap: 3.0,
            first_delivery_weight: 1.0,
            first_delivery_cap: 100.0,
            invalid_weight: -10.0,
            decay: 0.9,
            gossip_threshold: -10.0,
            publish_threshold: -50.0,
            graylist_threshold: -80.0,
            mesh_eviction_threshold: 0.0,
        }
    }
}

impl ScoringConfig {
    /// Validates the v1.1 sign rules: positive behaviour (time in mesh,
    /// first deliveries) never lowers a score, invalid messages never
    /// raise it, and the thresholds sit at or below zero in the order
    /// graylist ≤ publish ≤ gossip. A node relies on these: only a peer
    /// with invalid messages on record can score below zero, so while no
    /// peer has one the node skips its eviction scan and every threshold
    /// check. The weights must be finite, or a zero counter times an
    /// infinite weight would make a score NaN.
    ///
    /// # Panics
    ///
    /// Panics when a P1/P2 weight or cap is negative, a weight is not
    /// finite, `invalid_weight` or `mesh_eviction_threshold` is
    /// positive, the thresholds are out of order or positive, or `decay`
    /// is outside (0, 1].
    pub fn assert_valid(&self) {
        assert!(
            self.time_in_mesh_weight >= 0.0 && self.time_in_mesh_cap >= 0.0,
            "time-in-mesh weight and cap must be >= 0"
        );
        assert!(
            self.first_delivery_weight >= 0.0 && self.first_delivery_cap >= 0.0,
            "first-delivery weight and cap must be >= 0"
        );
        assert!(self.invalid_weight <= 0.0, "invalid_weight must be <= 0");
        assert!(
            self.time_in_mesh_weight.is_finite()
                && self.first_delivery_weight.is_finite()
                && self.invalid_weight.is_finite(),
            "score weights must be finite"
        );
        assert!(
            self.mesh_eviction_threshold <= 0.0,
            "mesh eviction threshold must be <= 0"
        );
        assert!(
            self.graylist_threshold <= self.publish_threshold
                && self.publish_threshold <= self.gossip_threshold
                && self.gossip_threshold <= 0.0,
            "thresholds must satisfy graylist <= publish <= gossip <= 0"
        );
        assert!(
            self.decay > 0.0 && self.decay <= 1.0,
            "decay must lie in (0, 1]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        GossipsubConfig::default().assert_valid();
    }

    #[test]
    #[should_panic(expected = "D_lo must be <= D")]
    fn inconsistent_degrees_panic() {
        GossipsubConfig {
            mesh_n_low: 10,
            mesh_n: 6,
            ..Default::default()
        }
        .assert_valid();
    }

    #[test]
    #[should_panic(expected = "seen TTL must cover the mcache")]
    fn a_seen_ttl_of_zero_panics() {
        GossipsubConfig {
            seen_ttl_ms: 0,
            ..Default::default()
        }
        .assert_valid();
    }

    #[test]
    #[should_panic(expected = "seen TTL must cover the mcache")]
    fn a_seen_ttl_shorter_than_the_mcache_panics() {
        // 5 windows × 1 s: the id would stay cached (and gossiped) for a
        // millisecond after the node forgot seeing it
        GossipsubConfig {
            seen_ttl_ms: 4_999,
            ..Default::default()
        }
        .assert_valid();
    }

    #[test]
    fn seen_ttls_of_deployed_shapes_are_valid() {
        // the mcache's span itself, and two deployed configurations:
        // ream (12 windows × 700 ms heartbeats, a 2-epoch = 768 s
        // duplicate cache) and ursa (5 × 1 s, 60 s)
        for (history_length, heartbeat_ms, seen_ttl_ms) in
            [(5, 1_000, 5_000), (12, 700, 768_000), (5, 1_000, 60_000)]
        {
            GossipsubConfig {
                history_length,
                heartbeat_ms,
                seen_ttl_ms,
                ..Default::default()
            }
            .assert_valid();
        }
    }

    #[test]
    fn default_scoring_is_valid() {
        ScoringConfig::default().assert_valid();
    }

    #[test]
    #[should_panic(expected = "mesh eviction threshold must be <= 0")]
    fn a_positive_eviction_threshold_panics() {
        // every fresh peer (score 0) would be evicted from every mesh
        ScoringConfig {
            mesh_eviction_threshold: 1.0,
            ..Default::default()
        }
        .assert_valid();
    }

    #[test]
    #[should_panic(expected = "invalid_weight must be <= 0")]
    fn a_positive_invalid_weight_panics() {
        // invalid messages would raise the sender's score
        ScoringConfig {
            invalid_weight: 10.0,
            ..Default::default()
        }
        .assert_valid();
    }

    #[test]
    fn default_thresholds_are_ordered() {
        let s = ScoringConfig::default();
        assert!(s.graylist_threshold < s.publish_threshold);
        assert!(s.publish_threshold < s.gossip_threshold);
        assert!(s.gossip_threshold < s.mesh_eviction_threshold);
    }
}
