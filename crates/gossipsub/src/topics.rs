//! The per-topic table: one small `Vec` sorted by [`Topic`], each entry
//! holding our subscription flag, our mesh, the peers known to subscribe
//! and the graft backoffs, all as sorted peer vectors.
//!
//! A node sees one or a few topics and a dozen peers per topic, so sorted
//! vectors hold the same sets as nested hash and tree maps in a fraction
//! of the bytes, and every walk over them is in ascending peer order —
//! the order the protocol's RNG draws and sends are defined in.

use crate::types::{reserve_doubling, Topic};
use wakurln_netsim::NodeId;

/// Everything this node tracks about one topic.
#[derive(Clone, Debug)]
pub(crate) struct TopicState {
    pub(crate) topic: Topic,
    /// Whether we subscribe to the topic.
    pub(crate) subscribed: bool,
    /// Our mesh for the topic, sorted (empty unless `subscribed`).
    pub(crate) mesh: Vec<NodeId>,
    /// Peers that announced a subscription to the topic, sorted.
    pub(crate) subscribers: Vec<NodeId>,
    /// Peers that pruned us, with the time (ms) until which the heartbeat
    /// graft step must not retry them (`config.prune_backoff_ms` — the
    /// v1.1 `PruneBackoff`), sorted by peer.
    pub(crate) backoff: Vec<(NodeId, u64)>,
}

impl TopicState {
    /// When `peer`'s graft backoff expires, if it has one.
    pub(crate) fn backoff_until(&self, peer: NodeId) -> Option<u64> {
        self.backoff
            .binary_search_by_key(&peer, |(p, _)| *p)
            .ok()
            .map(|at| self.backoff[at].1)
    }

    /// Holds `peer` off the graft step until `until`.
    pub(crate) fn set_backoff(&mut self, peer: NodeId, until: u64) {
        match self.backoff.binary_search_by_key(&peer, |(p, _)| *p) {
            Ok(at) => self.backoff[at].1 = until,
            Err(at) => self.backoff.insert(at, (peer, until)),
        }
    }

    /// Whether the entry carries no information: a topic we neither
    /// subscribe to nor know a subscriber or a backoff for.
    fn is_idle(&self) -> bool {
        !self.subscribed && self.subscribers.is_empty() && self.backoff.is_empty()
    }
}

/// The topic entries, sorted by topic.
#[derive(Clone, Debug, Default)]
pub(crate) struct Topics(Vec<TopicState>);

impl Topics {
    pub(crate) fn get(&self, topic: &Topic) -> Option<&TopicState> {
        self.0
            .binary_search_by(|t| t.topic.cmp(topic))
            .ok()
            .map(|at| &self.0[at])
    }

    pub(crate) fn get_mut(&mut self, topic: &Topic) -> Option<&mut TopicState> {
        self.0
            .binary_search_by(|t| t.topic.cmp(topic))
            .ok()
            .map(|at| &mut self.0[at])
    }

    /// The topic's entry, created empty if absent.
    pub(crate) fn entry(&mut self, topic: &Topic) -> &mut TopicState {
        let at = match self.0.binary_search_by(|t| t.topic.cmp(topic)) {
            Ok(at) => at,
            Err(at) => {
                // nearly every node lives on one topic
                reserve_doubling(&mut self.0);
                let state = TopicState {
                    topic: topic.clone(),
                    subscribed: false,
                    mesh: Vec::new(),
                    subscribers: Vec::new(),
                    backoff: Vec::new(),
                };
                self.0.insert(at, state);
                at
            }
        };
        &mut self.0[at]
    }

    /// Whether we subscribe to `topic`.
    pub(crate) fn subscribed(&self, topic: &Topic) -> bool {
        self.get(topic).is_some_and(|t| t.subscribed)
    }

    /// All entries, in ascending topic order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &TopicState> {
        self.0.iter()
    }

    /// All entries, in ascending topic order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut TopicState> {
        self.0.iter_mut()
    }

    /// Sweeps backoffs that expired by `now`, then drops entries left
    /// idle, so the table is bounded by our subscriptions, the topics
    /// live peers announce and the backoffs still running.
    pub(crate) fn sweep_backoffs(&mut self, now: u64) {
        self.0.retain_mut(|t| {
            t.backoff.retain(|(_, until)| *until > now);
            !t.is_idle()
        });
    }
}

/// Whether the sorted `set` holds `peer`.
pub(crate) fn contains(set: &[NodeId], peer: NodeId) -> bool {
    set.binary_search(&peer).is_ok()
}

/// Adds `peer` to the sorted `set`; `false` if it was already there.
pub(crate) fn insert(set: &mut Vec<NodeId>, peer: NodeId) -> bool {
    match set.binary_search(&peer) {
        Ok(_) => false,
        Err(at) => {
            set.insert(at, peer);
            true
        }
    }
}

/// Removes `peer` from the sorted `set`, if present.
pub(crate) fn remove(set: &mut Vec<NodeId>, peer: NodeId) {
    if let Ok(at) = set.binary_search(&peer) {
        set.remove(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expired_backoff_drops_a_foreign_topic_but_not_a_subscription() {
        let mut topics = Topics::default();
        topics.entry(&Topic::new("ours")).subscribed = true;
        // a prune for a topic we never joined leaves only a backoff
        topics
            .entry(&Topic::new("foreign"))
            .set_backoff(NodeId(7), 100);
        topics.sweep_backoffs(100);
        assert!(topics.get(&Topic::new("foreign")).is_none());
        assert!(topics.subscribed(&Topic::new("ours")));

        // a known subscriber keeps a foreign topic's entry alive
        let theirs = topics.entry(&Topic::new("theirs"));
        assert!(insert(&mut theirs.subscribers, NodeId(3)));
        assert!(!insert(&mut theirs.subscribers, NodeId(3)));
        theirs.set_backoff(NodeId(3), 50);
        topics.sweep_backoffs(200);
        let theirs = topics.get(&Topic::new("theirs")).expect("still announced");
        assert_eq!(theirs.backoff_until(NodeId(3)), None);
        assert_eq!(
            topics.iter().map(|t| t.topic.as_str()).collect::<Vec<_>>(),
            ["ours", "theirs"]
        );
    }
}
