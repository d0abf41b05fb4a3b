//! The neighbour table: everything a node keeps per remote peer, in one
//! `Vec` of rows sorted by [`NodeId`].
//!
//! A peer talks to about a dozen neighbours, so a binary search over a
//! dense row vector finds a peer faster than hashing and stores each one
//! in a single 48-byte row instead of an entry in four maps (liveness
//! clock, two IWANT budgets, score counters).

use crate::config::ScoringConfig;
use crate::score::{PeerCounters, PeerScore};
use wakurln_netsim::NodeId;

/// `Neighbour::last_heard` of a peer without a liveness clock.
const NO_CLOCK: u64 = u64::MAX;

/// One neighbour's row.
#[derive(Clone, Debug)]
pub(crate) struct Neighbour {
    /// The peer's node index (see [`key`]).
    key: u32,
    /// IWANT ids requested from this peer this heartbeat.
    iwant_spent: u32,
    /// Full payloads served to this peer from the mcache this heartbeat
    /// (the serving-side mirror of `iwant_spent`).
    iwant_served: u32,
    /// Whether the row holds a score entry: set by the first scoring
    /// event and kept for good (a presumed-dead peer keeps its score).
    /// `counters` stay zero until then.
    pub(crate) scored: bool,
    /// Whether the peer currently sits in at least one of our meshes
    /// (drives P1 accrual).
    pub(crate) in_mesh: bool,
    /// Last time (ms) any RPC arrived from the peer — the liveness signal
    /// behind churn repair. [`NO_CLOCK`] once the peer is presumed dead.
    last_heard: u64,
    pub(crate) counters: PeerCounters,
}

const _: () = assert!(std::mem::size_of::<Neighbour>() <= 48);

/// The row key of `peer`: node ids index the simulator's node table, so
/// 32 bits hold every one.
fn key(peer: NodeId) -> u32 {
    // lint:allow(panic-path, reason = "a node table of 2^32 peers does not fit in memory, so every real node id fits in 32 bits")
    u32::try_from(peer.index()).expect("node ids fit in 32 bits")
}

/// The row of `peer` in `rows` (sorted by key).
pub(crate) fn find(rows: &[Neighbour], peer: NodeId) -> Option<&Neighbour> {
    rows.binary_search_by_key(&key(peer), |r| r.key)
        .ok()
        .map(|at| &rows[at])
}

/// The rows, sorted by peer id.
///
/// A row exists while its peer has a liveness clock or a score entry.
/// Every row is created by one of the two, and presuming a peer dead
/// clears its clock but always leaves a score entry (it leaves every
/// mesh), so rows are never dropped: the table holds every peer this
/// node has heard from or scored.
#[derive(Clone, Debug)]
pub(crate) struct Neighbours {
    scoring: ScoringConfig,
    rows: Vec<Neighbour>,
}

impl Neighbours {
    /// An empty table with room for `capacity` rows (the bootstrap set).
    pub(crate) fn new(scoring: ScoringConfig, capacity: usize) -> Neighbours {
        Neighbours {
            scoring,
            rows: Vec::with_capacity(capacity),
        }
    }

    /// The read-only score view over the rows.
    pub(crate) fn score(&self) -> PeerScore<'_> {
        PeerScore::new(&self.scoring, &self.rows)
    }

    /// The peer's row, created empty if absent.
    fn row(&mut self, peer: NodeId) -> &mut Neighbour {
        let key = key(peer);
        let at = match self.rows.binary_search_by_key(&key, |r| r.key) {
            Ok(at) => at,
            Err(at) => {
                let row = Neighbour {
                    key,
                    iwant_spent: 0,
                    iwant_served: 0,
                    scored: false,
                    in_mesh: false,
                    last_heard: NO_CLOCK,
                    counters: PeerCounters::default(),
                };
                self.rows.insert(at, row);
                at
            }
        };
        &mut self.rows[at]
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

    /// IWANT ids already requested from `peer` this heartbeat.
    pub(crate) fn iwant_spent(&self, peer: NodeId) -> usize {
        find(&self.rows, peer).map_or(0, |r| r.iwant_spent as usize)
    }

    /// Adds `n` ids to the IWANT budget spent on `peer`.
    pub(crate) fn spend_iwant(&mut self, peer: NodeId, n: usize) {
        let row = self.row(peer);
        row.iwant_spent = saturating_add(row.iwant_spent, n);
    }

    /// Payloads already served to `peer` this heartbeat.
    pub(crate) fn iwant_served(&self, peer: NodeId) -> usize {
        find(&self.rows, peer).map_or(0, |r| r.iwant_served as usize)
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
        self.scored_row(peer).counters.invalid_messages += 1.0;
    }

    /// Heartbeat maintenance: score accrual and decay, and a fresh IWANT
    /// budget for every peer.
    pub(crate) fn heartbeat(&mut self) {
        for row in &mut self.rows {
            row.iwant_spent = 0;
            row.iwant_served = 0;
            if row.scored {
                row.counters.heartbeat(row.in_mesh, &self.scoring);
            }
        }
    }

    /// The rows in peer order (tests check the table's bounds).
    #[cfg(test)]
    pub(crate) fn rows(&self) -> &[Neighbour] {
        &self.rows
    }
}

impl Neighbour {
    /// The peer this row describes.
    pub(crate) fn peer(&self) -> NodeId {
        NodeId(self.key as usize)
    }

    /// Whether the peer currently has a liveness clock.
    #[cfg(test)]
    pub(crate) fn is_heard(&self) -> bool {
        self.last_heard != NO_CLOCK
    }
}

/// `counter + n`, pinned at `u32::MAX` (a budget counter never exceeds
/// `max_iwant_per_heartbeat` within one heartbeat).
fn saturating_add(counter: u32, n: usize) -> u32 {
    counter.saturating_add(u32::try_from(n).unwrap_or(u32::MAX))
}
