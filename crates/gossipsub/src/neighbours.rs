//! The neighbour table: everything a node keeps per remote peer, as a
//! sorted column of peer keys beside a `Vec` of rows in the same order.
//!
//! A peer talks to about a dozen neighbours, so a binary search over a
//! dense key column finds a peer faster than hashing — a dozen 4-byte
//! keys share one cache line — and stores each peer in one 48-byte row
//! instead of an entry in four maps (liveness clock, two IWANT budgets,
//! score counters).
//!
//! The table does only the work that is due. A heartbeat increments one
//! counter; each row carries the count it was last brought up to, and a
//! row applies the heartbeats it missed (a fresh IWANT budget, score
//! accrual and decay) the next time it is touched — bit for bit what a
//! walk over every row at every heartbeat would have left there. Read-only
//! queries catch up a copy. The table also keeps what lets the node skip
//! its per-heartbeat scans: how many rows hold an invalid-message count
//! (only those can score below the eviction threshold) and a floor under
//! the liveness clocks of the peers the node tracks (no peer is due for
//! a ping or a timeout before half the timeout has passed since it).

use crate::config::ScoringConfig;
use crate::score::{PeerCounters, PeerScore};
use wakurln_netsim::NodeId;

/// `Neighbour::last_heard` of a peer without a liveness clock.
const NO_CLOCK: u64 = u64::MAX;

/// One neighbour's row (its key lives in the table's key column).
#[derive(Clone, Debug)]
pub(crate) struct Neighbour {
    /// The table's heartbeat count this row was last brought up to
    /// (counted modulo 2^32: a row would have to miss 2^32 heartbeats,
    /// 136 years at the default 1 s, for its catch-up to read wrong).
    stamp: u32,
    /// IWANT ids requested from this peer this heartbeat.
    iwant_spent: u32,
    /// Full payloads served to this peer from the mcache this heartbeat
    /// (the serving-side mirror of `iwant_spent`).
    iwant_served: u32,
    /// Whether the row holds a score entry: set by the first scoring
    /// event and kept for good (a presumed-dead peer keeps its score).
    /// `counters` stay zero until then.
    scored: bool,
    /// Whether the peer currently sits in at least one of our meshes
    /// (drives P1 accrual).
    in_mesh: bool,
    /// Last time (ms) any RPC arrived from the peer — the liveness signal
    /// behind churn repair. [`NO_CLOCK`] once the peer is presumed dead.
    last_heard: u64,
    counters: PeerCounters,
}

const _: () = assert!(std::mem::size_of::<Neighbour>() <= 48);

impl Neighbour {
    /// A fresh row, current as of heartbeat `stamp`.
    fn new(stamp: u32) -> Neighbour {
        Neighbour {
            stamp,
            iwant_spent: 0,
            iwant_served: 0,
            scored: false,
            in_mesh: false,
            last_heard: NO_CLOCK,
            counters: PeerCounters::default(),
        }
    }

    /// Heartbeats this row has not seen yet.
    fn missed(&self, heartbeats: u32) -> u32 {
        heartbeats.wrapping_sub(self.stamp)
    }

    /// Applies the heartbeats the row missed: a fresh IWANT budget and,
    /// for a scored row, score accrual and decay. Returns whether this
    /// took the invalid-message counter from non-zero to zero.
    fn catch_up(&mut self, heartbeats: u32, scoring: &ScoringConfig) -> bool {
        let missed = self.missed(heartbeats);
        if missed == 0 {
            return false;
        }
        self.stamp = heartbeats;
        self.iwant_spent = 0;
        self.iwant_served = 0;
        if !self.scored {
            return false;
        }
        let invalid = self.counters.invalid_messages != 0.0;
        self.counters.heartbeats(missed, self.in_mesh, scoring);
        invalid && self.counters.invalid_messages == 0.0
    }

    /// The row's counters as of heartbeat `heartbeats`, caught up on a
    /// copy.
    fn counters_at(&self, heartbeats: u32, scoring: &ScoringConfig) -> PeerCounters {
        let mut counters = self.counters;
        counters.heartbeats(self.missed(heartbeats), self.in_mesh, scoring);
        counters
    }
}

/// The row key of `peer`: node ids index the simulator's node table, so
/// 32 bits hold every one.
fn key(peer: NodeId) -> u32 {
    // lint:allow(panic-path, reason = "a node table of 2^32 peers does not fit in memory, so every real node id fits in 32 bits")
    u32::try_from(peer.index()).expect("node ids fit in 32 bits")
}

/// The table: a sorted key column and the rows in the same order.
///
/// A row exists while its peer has a liveness clock or a score entry.
/// Every row is created by one of the two, and presuming a peer dead
/// clears its clock but always leaves a score entry (it leaves every
/// mesh), so rows are never dropped: the table holds every peer this
/// node has heard from or scored.
#[derive(Clone, Debug)]
pub(crate) struct Neighbours {
    scoring: ScoringConfig,
    /// Heartbeats run so far (modulo 2^32, see `Neighbour::stamp`).
    heartbeats: u32,
    /// Rows whose stored invalid-message counter is non-zero. A row's
    /// counter decays only when the row is caught up, so this bounds the
    /// rows that can score below zero from above.
    invalid_rows: u32,
    /// A lower bound on the liveness clocks of the peers the node tracks
    /// (its mesh members and known topic subscribers); `u64::MAX` while
    /// it tracks nobody. Set by each full liveness sweep and lowered to
    /// `now` whenever a peer the node has just heard from joins a mesh or
    /// a subscriber set.
    heard_floor: u64,
    /// Peer keys, strictly ascending; `keys[i]` is the peer of `rows[i]`.
    keys: Vec<u32>,
    rows: Vec<Neighbour>,
}

impl Neighbours {
    /// An empty table with room for `capacity` rows (the bootstrap set).
    pub(crate) fn new(scoring: ScoringConfig, capacity: usize) -> Neighbours {
        Neighbours {
            scoring,
            heartbeats: 0,
            invalid_rows: 0,
            heard_floor: u64::MAX,
            keys: Vec::with_capacity(capacity),
            rows: Vec::with_capacity(capacity),
        }
    }

    /// The read-only score view over the rows.
    pub(crate) fn score(&self) -> PeerScore<'_> {
        PeerScore::new(self)
    }

    /// The scoring parameters in use.
    pub(crate) fn scoring(&self) -> &ScoringConfig {
        &self.scoring
    }

    /// The row of `peer`, as stored (possibly behind on heartbeats).
    fn find(&self, peer: NodeId) -> Option<&Neighbour> {
        self.keys
            .binary_search(&key(peer))
            .ok()
            .map(|at| &self.rows[at])
    }

    /// The peer's score counters as of the latest heartbeat, if it has a
    /// score entry.
    pub(crate) fn counters(&self, peer: NodeId) -> Option<PeerCounters> {
        self.find(peer)
            .filter(|row| row.scored)
            .map(|row| row.counters_at(self.heartbeats, &self.scoring))
    }

    /// The peers with a score entry, in ascending id order.
    pub(crate) fn scored_peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.keys
            .iter()
            .zip(&self.rows)
            .filter(|(_, row)| row.scored)
            .map(|(key, _)| NodeId(*key as usize))
    }

    /// The peer's row, brought up to the latest heartbeat, and created
    /// empty if absent.
    fn row(&mut self, peer: NodeId) -> &mut Neighbour {
        let key = key(peer);
        match self.keys.binary_search(&key) {
            Ok(at) => {
                let row = &mut self.rows[at];
                if row.catch_up(self.heartbeats, &self.scoring) {
                    self.invalid_rows -= 1;
                }
                row
            }
            Err(at) => {
                self.keys.insert(at, key);
                self.rows.insert(at, Neighbour::new(self.heartbeats));
                &mut self.rows[at]
            }
        }
    }

    /// Records that an RPC from `peer` arrived at `now`.
    pub(crate) fn heard(&mut self, peer: NodeId, now: u64) {
        self.row(peer).last_heard = now;
    }

    /// The peer's liveness clock; a peer never heard from starts its
    /// clock at `now` (first sight).
    pub(crate) fn clock(&mut self, peer: NodeId, now: u64) -> u64 {
        let row = self.row(peer);
        if row.last_heard == NO_CLOCK {
            row.last_heard = now;
        }
        row.last_heard
    }

    /// Presumes `peer` dead: its clock stops and it leaves every mesh.
    pub(crate) fn presume_dead(&mut self, peer: NodeId) {
        self.row(peer).last_heard = NO_CLOCK;
        self.set_in_mesh(peer, false);
    }

    /// Records that a peer the node heard from at `now` joined a mesh or
    /// a subscriber set: its clock reads `now`, so the floor drops to it.
    /// (A subscriber the node grafts itself is tracked already.)
    pub(crate) fn joined(&mut self, now: u64) {
        self.heard_floor = self.heard_floor.min(now);
    }

    /// Whether a liveness sweep at `now` can find a tracked peer that has
    /// been quiet for `half_timeout` or longer (and so is due for a ping
    /// or a timeout).
    pub(crate) fn liveness_due(&self, now: u64, half_timeout: u64) -> bool {
        now >= self.heard_floor.saturating_add(half_timeout)
    }

    /// Sets the floor after a full liveness sweep: the earliest clock
    /// among the peers still tracked (`u64::MAX` for none).
    pub(crate) fn set_heard_floor(&mut self, floor: u64) {
        self.heard_floor = floor;
    }

    /// IWANT ids already requested from `peer` this heartbeat.
    pub(crate) fn iwant_spent(&self, peer: NodeId) -> usize {
        self.find(peer)
            .filter(|row| row.missed(self.heartbeats) == 0)
            .map_or(0, |row| row.iwant_spent as usize)
    }

    /// Adds `n` ids to the IWANT budget spent on `peer`.
    pub(crate) fn spend_iwant(&mut self, peer: NodeId, n: usize) {
        let row = self.row(peer);
        row.iwant_spent = saturating_add(row.iwant_spent, n);
    }

    /// Payloads already served to `peer` this heartbeat.
    pub(crate) fn iwant_served(&self, peer: NodeId) -> usize {
        self.find(peer)
            .filter(|row| row.missed(self.heartbeats) == 0)
            .map_or(0, |row| row.iwant_served as usize)
    }

    /// Adds `n` payloads to those served to `peer`.
    pub(crate) fn serve_iwant(&mut self, peer: NodeId, n: usize) {
        let row = self.row(peer);
        row.iwant_served = saturating_add(row.iwant_served, n);
    }

    /// The peer's row, with its score entry created if absent.
    fn scored_row(&mut self, peer: NodeId) -> &mut Neighbour {
        let row = self.row(peer);
        row.scored = true;
        row
    }

    /// Marks a peer as (not) being in one of our meshes.
    pub(crate) fn set_in_mesh(&mut self, peer: NodeId, in_mesh: bool) {
        self.scored_row(peer).in_mesh = in_mesh;
    }

    /// Records a first delivery of a valid message.
    pub(crate) fn record_first_delivery(&mut self, peer: NodeId) {
        self.scored_row(peer).counters.first_deliveries += 1.0;
    }

    /// Records an invalid message (validation rejected it).
    pub(crate) fn record_invalid(&mut self, peer: NodeId) {
        let counters = &mut self.scored_row(peer).counters;
        let first = counters.invalid_messages == 0.0;
        counters.invalid_messages += 1.0;
        if first {
            self.invalid_rows += 1;
        }
    }

    /// Whether some row holds invalid messages — the only way a peer's
    /// score can drop below zero (the P1 and P2 terms are never negative:
    /// [`ScoringConfig::assert_valid`]).
    pub(crate) fn any_invalid(&self) -> bool {
        self.invalid_rows > 0
    }

    /// Heartbeat maintenance: score accrual and decay, and a fresh IWANT
    /// budget for every peer — applied to each row when it is next
    /// touched.
    pub(crate) fn heartbeat(&mut self) {
        self.heartbeats = self.heartbeats.wrapping_add(1);
    }

    /// The rows in peer order (tests check the table's bounds).
    #[cfg(test)]
    pub(crate) fn rows(&self) -> impl Iterator<Item = (NodeId, &Neighbour)> {
        self.keys
            .iter()
            .map(|key| NodeId(*key as usize))
            .zip(&self.rows)
    }

    /// Asserts the table's invariants, given the peers the node tracks:
    /// one strictly ascending key per row, no row stamped ahead of the
    /// table, an invalid-row count that matches the stored counters (and
    /// so bounds the caught-up ones), and a liveness floor at or below
    /// the clock of every tracked peer — each of which has a clock, so no
    /// sweep the floor skips could have started one (first sight).
    #[cfg(test)]
    pub(crate) fn check_invariants(&self, tracked: impl IntoIterator<Item = NodeId>) {
        assert_eq!(self.keys.len(), self.rows.len(), "one key per row");
        assert!(
            self.keys.windows(2).all(|w| w[0] < w[1]),
            "keys not strictly ascending"
        );
        assert!(
            self.rows.iter().all(|row| row.stamp <= self.heartbeats),
            "a row is stamped ahead of the table"
        );
        let stored = self
            .rows
            .iter()
            .filter(|row| row.counters.invalid_messages != 0.0)
            .count();
        assert_eq!(self.invalid_rows as usize, stored, "invalid-row count");
        let live = self
            .rows
            .iter()
            .filter(|row| {
                row.counters_at(self.heartbeats, &self.scoring)
                    .invalid_messages
                    != 0.0
            })
            .count();
        assert!(stored >= live, "invalid-row count below the true count");
        for peer in tracked {
            let row = self.find(peer).expect("a tracked peer has a row");
            assert_ne!(row.last_heard, NO_CLOCK, "tracked peer {peer} has no clock");
            assert!(
                self.heard_floor <= row.last_heard,
                "liveness floor {} above the clock {} of {peer}",
                self.heard_floor,
                row.last_heard
            );
        }
    }
}

impl Neighbour {
    /// Whether the peer currently has a liveness clock.
    #[cfg(test)]
    pub(crate) fn is_heard(&self) -> bool {
        self.last_heard != NO_CLOCK
    }

    /// Whether the row holds a score entry.
    #[cfg(test)]
    pub(crate) fn is_scored(&self) -> bool {
        self.scored
    }
}

/// `counter + n`, pinned at `u32::MAX` (a budget counter never exceeds
/// `max_iwant_per_heartbeat` within one heartbeat).
fn saturating_add(counter: u32, n: usize) -> u32 {
    counter.saturating_add(u32::try_from(n).unwrap_or(u32::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// One row of the reference table.
    #[derive(Clone, Debug, Default)]
    struct EagerRow {
        iwant_spent: u32,
        iwant_served: u32,
        scored: bool,
        in_mesh: bool,
        last_heard: Option<u64>,
        counters: PeerCounters,
    }

    /// The reference model: the table as it was before heartbeat upkeep
    /// was applied lazily — every heartbeat walks every row, resets both
    /// IWANT budgets and runs the score counters' heartbeat on every
    /// scored row.
    struct Eager {
        scoring: ScoringConfig,
        rows: Vec<(u32, EagerRow)>,
    }

    impl Eager {
        fn row(&mut self, peer: NodeId) -> &mut EagerRow {
            let key = key(peer);
            let at = match self.rows.binary_search_by_key(&key, |(k, _)| *k) {
                Ok(at) => at,
                Err(at) => {
                    self.rows.insert(at, (key, EagerRow::default()));
                    at
                }
            };
            &mut self.rows[at].1
        }

        fn find(&self, peer: NodeId) -> Option<&EagerRow> {
            let at = self.rows.binary_search_by_key(&key(peer), |(k, _)| *k);
            at.ok().map(|at| &self.rows[at].1)
        }

        fn scored_row(&mut self, peer: NodeId) -> &mut EagerRow {
            let row = self.row(peer);
            row.scored = true;
            row
        }

        fn clock(&mut self, peer: NodeId, now: u64) -> u64 {
            *self.row(peer).last_heard.get_or_insert(now)
        }

        fn presume_dead(&mut self, peer: NodeId) {
            let row = self.scored_row(peer);
            row.last_heard = None;
            row.in_mesh = false;
        }

        fn heartbeat(&mut self) {
            for (_, row) in &mut self.rows {
                row.iwant_spent = 0;
                row.iwant_served = 0;
                if row.scored {
                    row.counters.heartbeat(row.in_mesh, &self.scoring);
                }
            }
        }

        fn score(&self, peer: NodeId) -> f64 {
            self.find(peer)
                .filter(|row| row.scored)
                .map_or(0.0, |row| row.counters.score(&self.scoring))
        }
    }

    /// Peer ids with gaps between them, so rows are inserted in the
    /// middle of the table as well as at its ends.
    fn pool(pick: u8) -> NodeId {
        NodeId(usize::from(pick % 8) * 3 + 1)
    }

    /// Timeout of the liveness sweeps the test runs.
    const TIMEOUT: u64 = 10;

    proptest! {
        /// The lazy table is observably the eager one: random sequences
        /// of every table operation — rows created between heartbeats,
        /// runs of heartbeats long enough for the counters to decay to
        /// zero, liveness sweeps that set the floor — leave every score
        /// (to the bit), both IWANT budgets, the scored peer list, the
        /// clocks and the graylist/eviction verdicts equal after every
        /// step, and the table's invariants hold throughout.
        #[test]
        fn prop_lazy_table_matches_the_eager_walk(
            decay_pick in 0u8..3,
            ops in proptest::collection::vec((0u8..15, any::<u8>(), any::<u8>(), 0u64..4), 1..250),
        ) {
            let scoring = ScoringConfig {
                decay: [0.9, 0.5, 1.0][usize::from(decay_pick)],
                ..ScoringConfig::default()
            };
            let mut lazy = Neighbours::new(scoring, 2);
            let mut eager = Eager { scoring, rows: Vec::new() };
            let mut tracked: BTreeSet<NodeId> = BTreeSet::new();
            let mut now = 0;
            for (kind, pick, arg, step) in ops {
                now += step;
                let peer = pool(pick);
                match kind {
                    0 => {
                        lazy.heard(peer, now);
                        eager.row(peer).last_heard = Some(now);
                    }
                    1 => prop_assert_eq!(lazy.clock(peer, now), eager.clock(peer, now)),
                    2 => {
                        lazy.presume_dead(peer);
                        eager.presume_dead(peer);
                        tracked.remove(&peer);
                    }
                    3 => {
                        lazy.record_first_delivery(peer);
                        eager.scored_row(peer).counters.first_deliveries += 1.0;
                    }
                    4 => {
                        lazy.record_invalid(peer);
                        eager.scored_row(peer).counters.invalid_messages += 1.0;
                    }
                    5 => {
                        lazy.set_in_mesh(peer, arg % 2 == 0);
                        eager.scored_row(peer).in_mesh = arg % 2 == 0;
                    }
                    6 => {
                        let n = usize::from(arg % 5);
                        lazy.spend_iwant(peer, n);
                        let row = eager.row(peer);
                        row.iwant_spent = saturating_add(row.iwant_spent, n);
                    }
                    7 => {
                        let n = usize::from(arg % 5);
                        lazy.serve_iwant(peer, n);
                        let row = eager.row(peer);
                        row.iwant_served = saturating_add(row.iwant_served, n);
                    }
                    8 | 9 => {
                        lazy.heartbeat();
                        eager.heartbeat();
                    }
                    10 => {
                        // a long quiet stretch
                        for _ in 0..(arg % 64) {
                            lazy.heartbeat();
                            eager.heartbeat();
                        }
                    }
                    11 | 12 => {
                        // the node hears a peer before it tracks it
                        lazy.heard(peer, now);
                        eager.row(peer).last_heard = Some(now);
                        lazy.joined(now);
                        tracked.insert(peer);
                    }
                    _ => {
                        // a liveness sweep: the floor may skip it only
                        // while no tracked peer is due
                        let due = tracked.iter().any(|p| {
                            eager.find(*p).and_then(|r| r.last_heard).is_some_and(|last| {
                                now - last >= TIMEOUT / 2
                            })
                        });
                        prop_assert!(lazy.liveness_due(now, TIMEOUT / 2) || !due);
                        let mut floor = u64::MAX;
                        for p in tracked.clone() {
                            let last = lazy.clock(p, now);
                            prop_assert_eq!(last, eager.clock(p, now));
                            if now - last >= TIMEOUT {
                                lazy.presume_dead(p);
                                eager.presume_dead(p);
                                tracked.remove(&p);
                            } else {
                                floor = floor.min(last);
                            }
                        }
                        lazy.set_heard_floor(floor);
                    }
                }

                lazy.check_invariants(tracked.iter().copied());
                let score = lazy.score();
                for p in (0..8).map(pool).chain([NodeId(0), NodeId(100)]) {
                    prop_assert_eq!(score.score(p).to_bits(), eager.score(p).to_bits());
                    let row = eager.find(p);
                    prop_assert_eq!(lazy.iwant_spent(p), row.map_or(0, |r| r.iwant_spent as usize));
                    prop_assert_eq!(lazy.iwant_served(p), row.map_or(0, |r| r.iwant_served as usize));
                    let reference = eager.score(p);
                    prop_assert_eq!(score.graylisted(p), reference < scoring.graylist_threshold);
                    prop_assert_eq!(score.accepts_gossip(p), reference >= scoring.gossip_threshold);
                    prop_assert_eq!(score.accepts_publish(p), reference >= scoring.publish_threshold);
                    let evict = reference < scoring.mesh_eviction_threshold;
                    prop_assert_eq!(score.should_evict(p), evict);
                    prop_assert!(lazy.any_invalid() || reference >= 0.0);
                }
                let scored: Vec<NodeId> = eager
                    .rows
                    .iter()
                    .filter(|(_, r)| r.scored)
                    .map(|(k, _)| NodeId(*k as usize))
                    .collect();
                prop_assert_eq!(score.tracked_peers().collect::<Vec<_>>(), scored);
                let rows: Vec<(NodeId, bool, bool)> = lazy
                    .rows()
                    .map(|(p, r)| (p, r.is_heard(), r.is_scored()))
                    .collect();
                let reference: Vec<(NodeId, bool, bool)> = eager
                    .rows
                    .iter()
                    .map(|(k, r)| (NodeId(*k as usize), r.last_heard.is_some(), r.scored))
                    .collect();
                prop_assert_eq!(rows, reference);
            }
        }
    }
}
