//! The WAKU-RLN-RELAY peer.

use crate::codec::encode_signal;
use crate::validator::RlnValidator;
use crate::EpochScheme;
use wakurln_crypto::field::Fr;
use wakurln_crypto::merkle::{zero_hashes, AppendDelta, MemberView, MerkleError, UpdateDelta};
use wakurln_gossipsub::{GossipsubConfig, GossipsubNode, MessageId, Rpc, ScoringConfig, Topic};
use wakurln_netsim::{Context, Node, NodeId};
use wakurln_relay::{WakuMessage, DEFAULT_PUBSUB_TOPIC};
use wakurln_rln::{create_signal, Identity};
use wakurln_zksnark::{ProveError, ProvingKey};

/// The content topic every RLN signal is published under.
const CONTENT_TOPIC: &str = "/waku/rln/1/chat/proto";

/// Errors from publishing through the RLN pipeline.
#[derive(Debug)]
pub enum PublishError {
    /// This peer holds no registered identity (not a group member yet).
    NotRegistered,
    /// The local rate limiter refused: one message per epoch (§III).
    RateLimited {
        /// The epoch in which this peer already published.
        epoch: u64,
    },
    /// Proof generation failed (stale membership state).
    Prove(ProveError),
    /// The local tree has no own-path (membership was slashed remotely).
    MembershipLost,
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::NotRegistered => write!(f, "peer holds no registered RLN identity"),
            PublishError::RateLimited { epoch } => {
                write!(f, "already published in epoch {epoch} (limit: 1 per epoch)")
            }
            PublishError::Prove(e) => write!(f, "proof generation failed: {e}"),
            PublishError::MembershipLost => write!(f, "membership was removed from the tree"),
        }
    }
}

impl std::error::Error for PublishError {}

impl From<ProveError> for PublishError {
    fn from(e: ProveError) -> PublishError {
        PublishError::Prove(e)
    }
}

/// A full WAKU-RLN-RELAY peer: GossipSub routing on the default pub/sub
/// topic carrying [`WakuMessage`] envelopes (WAKU-RELAY) + the RLN
/// validator + a light membership view + the publishing pipeline.
///
/// Peers keep the membership tree **off-chain** (§III): this node holds
/// only the O(depth) [`MemberView`] — current root plus its own
/// authentication path — updated from the broadcast deltas the canonical
/// group tree emits, so a depth-20 group costs ~1.3 KB instead of 67 MB
/// (E3) and syncing a burst costs `O(depth)` lookups with **zero** local
/// hashing.
#[derive(Clone)]
pub struct RlnRelayNode {
    gossipsub: GossipsubNode<RlnValidator>,
    /// The pub/sub topic every envelope is published on.
    topic: Topic,
    view: MemberView,
    identity: Option<Identity>,
    proving_key: ProvingKey,
    epoch_scheme: EpochScheme,
    last_published_epoch: Option<u64>,
    /// Count of publishes refused by the local rate limiter.
    pub rate_limited_count: u64,
    /// Censorship-eclipse behaviour: when set, incoming `Forward` frames
    /// are silently dropped while all control traffic (subscriptions,
    /// grafts, pings) is answered normally — the peer looks healthy to
    /// its mesh neighbours but starves them of messages.
    censor: bool,
}

impl RlnRelayNode {
    /// Creates a peer. `proving_key`/validator must come from the same
    /// trusted setup across the network. Peer scoring runs at
    /// [`ScoringConfig::default`].
    ///
    /// # Panics
    ///
    /// Panics when `tree_depth` is outside `1..=merkle::MAX_DEPTH`.
    pub fn new(
        known_peers: Vec<NodeId>,
        validator: RlnValidator,
        proving_key: ProvingKey,
        tree_depth: usize,
        gossip: GossipsubConfig,
    ) -> RlnRelayNode {
        let epoch_scheme = validator.epoch_scheme();
        let topic = Topic::new(DEFAULT_PUBSUB_TOPIC);
        let mut gossipsub =
            GossipsubNode::new(gossip, ScoringConfig::default(), known_peers, validator);
        gossipsub.subscribe(topic.clone());
        RlnRelayNode {
            gossipsub,
            topic,
            // lint:allow(panic-path, reason = "documented under # Panics; the testbed passes the depth its Chain::new already checked against 1..=merkle::MAX_DEPTH")
            view: MemberView::new(tree_depth).expect("valid depth"),
            identity: None,
            proving_key,
            epoch_scheme,
            last_published_epoch: None,
            rate_limited_count: 0,
            censor: false,
        }
    }

    /// Switches censorship-eclipse behaviour on or off (the targeted
    /// eclipse adversary of the scenario library): a censoring peer
    /// participates in every control exchange but drops all message
    /// forwards, so a victim whose whole bootstrap set censors is
    /// isolated from honest traffic without noticing a failure.
    pub fn set_censor(&mut self, censor: bool) {
        self.censor = censor;
    }

    /// Whether this peer is currently censoring (see
    /// [`RlnRelayNode::set_censor`]).
    pub fn is_censor(&self) -> bool {
        self.censor
    }

    /// Assigns the identity this peer will register with.
    pub fn set_identity(&mut self, identity: Identity) {
        self.identity = Some(identity);
    }

    /// This peer's identity, if any.
    pub fn identity(&self) -> Option<&Identity> {
        self.identity.as_ref()
    }

    /// Whether this peer currently holds a provable membership.
    pub fn is_member(&self) -> bool {
        self.view.own_index().is_some()
    }

    /// The local view of the membership root.
    pub fn membership_root(&self) -> Fr {
        self.view.root()
    }

    /// Applies a registration-burst delta broadcast from the canonical
    /// group tree. `own_offset` marks this peer's position within the
    /// burst (the harness resolves it from the canonical group's
    /// commitment index while the peer is not yet a member); it is ignored
    /// when the peer already holds a membership. Costs `O(depth)` lookups
    /// — no hashing.
    ///
    /// The accepted-roots window advances **once per burst** (only the
    /// post-burst root enters the window). This is sound as long as all
    /// peers sync registration bursts at the same granularity — here, per
    /// mined block — since proofs are only ever generated against roots
    /// some peer's view exposed after a sync.
    ///
    /// # Errors
    ///
    /// Propagates [`MemberView::apply_append`] errors **without touching
    /// the view or the root window** (a stale delta cannot leave the view
    /// advanced but the window stale).
    pub fn apply_append_delta(
        &mut self,
        delta: &AppendDelta,
        own_offset: Option<u64>,
    ) -> Result<(), MerkleError> {
        let own_offset = match self.view.own_index() {
            Some(_) => None,
            None => own_offset,
        };
        self.view.apply_append(delta, own_offset)?;
        self.gossipsub.validator_mut().push_root(self.view.root());
        Ok(())
    }

    /// Applies a single-leaf update delta (a `MemberSlashed` event). When
    /// the slashed leaf is this peer's own, the membership is revoked.
    ///
    /// # Errors
    ///
    /// Propagates [`MemberView::apply_update`] errors.
    pub fn apply_update_delta(&mut self, delta: &UpdateDelta) -> Result<(), MerkleError> {
        self.view.apply_update(delta)?;
        self.gossipsub.validator_mut().push_root(self.view.root());
        Ok(())
    }

    /// Publishes an application payload through the full RLN pipeline:
    /// local rate-limit check, signal creation (proof generation), WAKU
    /// encoding, gossip publish.
    ///
    /// # Errors
    ///
    /// See [`PublishError`]; in particular the local limiter refuses a
    /// second message in one epoch — honest peers never double-signal.
    pub fn publish(
        &mut self,
        ctx: &mut Context<Rpc>,
        payload: &[u8],
    ) -> Result<MessageId, PublishError> {
        let epoch = self.epoch_scheme.epoch_at_ms(ctx.now());
        if self.last_published_epoch == Some(epoch) {
            self.rate_limited_count += 1;
            return Err(PublishError::RateLimited { epoch });
        }
        let id = self.publish_unchecked(ctx, payload)?;
        self.last_published_epoch = Some(epoch);
        Ok(id)
    }

    /// Publishes **bypassing the local rate limiter** — the double-signal
    /// attack primitive used by the spam experiments. The network-side
    /// defenses (nullifier maps on every router) must catch this.
    ///
    /// # Errors
    ///
    /// See [`PublishError`] (all but `RateLimited` still apply).
    pub fn publish_unchecked(
        &mut self,
        ctx: &mut Context<Rpc>,
        payload: &[u8],
    ) -> Result<MessageId, PublishError> {
        self.publish_with_epoch_offset(ctx, payload, 0)
    }

    /// Publishes with a forged epoch `current + offset` — the replay /
    /// future-dating attack primitive of experiment E7. The proof itself
    /// is valid for the forged epoch (a newly registered spammer *can*
    /// prove past epochs); only the routers' `Thr` window stops it.
    ///
    /// # Errors
    ///
    /// See [`PublishError`].
    pub fn publish_with_epoch_offset(
        &mut self,
        ctx: &mut Context<Rpc>,
        payload: &[u8],
        epoch_offset: i64,
    ) -> Result<MessageId, PublishError> {
        let identity = self.identity.ok_or(PublishError::NotRegistered)?;
        let proof = self.view.own_proof().ok_or(PublishError::MembershipLost)?;
        let epoch = self
            .epoch_scheme
            .epoch_at_ms(ctx.now())
            .saturating_add_signed(epoch_offset);
        let signal = create_signal(
            &identity,
            &proof,
            self.view.root(),
            &self.proving_key,
            self.epoch_scheme.to_field(epoch),
            payload,
            ctx.rng(),
        )?;
        let waku = WakuMessage::new(CONTENT_TOPIC, encode_signal(epoch, &signal));
        ctx.count("rln_published", 1);
        Ok(self
            .gossipsub
            .publish(ctx, self.topic.clone(), waku.encode()))
    }

    /// Injects a raw WAKU message **without any RLN fields** — the
    /// junk-injection attack primitive (a peer spraying malformed frames).
    /// Honest relayers reject these at validation and penalize the
    /// forwarding peer's score.
    pub fn inject_raw(&mut self, ctx: &mut Context<Rpc>, waku: &WakuMessage) -> MessageId {
        self.gossipsub
            .publish(ctx, self.topic.clone(), waku.encode())
    }

    /// Application deliveries: decoded `(payload, arrival_ms)` pairs of
    /// accepted RLN messages. Undecodable envelopes and signals are
    /// skipped (validation already counted them).
    pub fn app_deliveries(&self) -> Vec<(Vec<u8>, u64)> {
        self.gossipsub
            .delivered()
            .iter()
            .filter_map(|d| {
                let waku = WakuMessage::decode(d.data()).ok()?;
                let wire = crate::codec::decode_signal(&waku.payload).ok()?;
                Some((wire.signal.message, d.at_ms))
            })
            .collect()
    }

    /// The RLN validator (stats, detections, nullifier map).
    pub fn validator(&self) -> &RlnValidator {
        self.gossipsub.validator()
    }

    /// Mutable validator access (the harness drains detections).
    pub fn validator_mut(&mut self) -> &mut RlnValidator {
        self.gossipsub.validator_mut()
    }

    /// The GossipSub layer: mesh and score diagnostics, and the passive
    /// observer tap of the surveillance scenarios.
    pub fn gossipsub(&self) -> &GossipsubNode<RlnValidator> {
        &self.gossipsub
    }

    /// Mutable access to the GossipSub layer (the soak harness drains the
    /// delivery tape through this so day-long runs don't accumulate an
    /// unbounded delivery log; the scenario engine switches observer
    /// taps on).
    pub fn gossipsub_mut(&mut self) -> &mut GossipsubNode<RlnValidator> {
        &mut self.gossipsub
    }

    /// Light-view storage footprint in bytes (E3): the root plus the own
    /// authentication path, independent of group size.
    pub fn membership_storage_bytes(&self) -> usize {
        self.view.storage_bytes()
    }

    /// Current mesh degree on the shared pub/sub topic — the recovery
    /// metric the fault scenarios sample to measure time-to-remesh after
    /// a restart or partition heal.
    pub fn mesh_size(&self) -> usize {
        self.gossipsub.mesh_peers(&self.topic).len()
    }

    /// **Cold-restart** reset: the simulated process came back with its
    /// disk wiped — the membership view collapses to the empty group, the
    /// validator forgets its root window, nullifier map and pipeline
    /// backlog (see [`RlnValidator::reset_state`]), and gossipsub forgets
    /// the deferred verdicts it awaited from that backlog. The identity
    /// keypair and the rate-limiter memory (`last_published_epoch`)
    /// survive: both model durable secrets an honest operator never
    /// risks — losing the limiter state could make an honest restart
    /// double-signal and burn its own stake. The harness follows this
    /// with a full group resync — the same catch-up from the membership
    /// log every peer takes, here from genesis — which restores the
    /// membership through the own-offset path unless the peer was
    /// slashed.
    pub fn reset_for_cold_restart(&mut self) {
        let depth = self.view.depth();
        // lint:allow(panic-path, reason = "reset reuses the depth the existing view was built with, which was valid at construction")
        self.view = MemberView::new(depth).expect("valid depth");
        self.gossipsub
            .validator_mut()
            .reset_state(zero_hashes()[depth]);
        self.gossipsub.clear_pending_validation();
    }
}

impl Node for RlnRelayNode {
    type Message = Rpc;

    fn on_start(&mut self, ctx: &mut Context<Rpc>) {
        self.gossipsub.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<Rpc>, from: NodeId, msg: Rpc) {
        if self.censor && matches!(msg, Rpc::Forward(_)) {
            ctx.count("censored_forwards", 1);
            return;
        }
        self.gossipsub.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<Rpc>, token: u64) {
        self.gossipsub.on_timer(ctx, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::CostModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wakurln_crypto::merkle::zero_hashes;
    use wakurln_gossipsub::GossipsubConfig;
    use wakurln_zksnark::{RlnCircuit, SimSnark};

    fn node(depth: usize) -> RlnRelayNode {
        let mut rng = StdRng::seed_from_u64(5);
        let (pk, vk) = SimSnark::setup(RlnCircuit::new(depth), &mut rng);
        let validator = RlnValidator::new(
            vk,
            EpochScheme::default(),
            zero_hashes()[depth],
            CostModel::default(),
        );
        RlnRelayNode::new(vec![], validator, pk, depth, GossipsubConfig::default())
    }

    #[test]
    fn append_delta_tracks_canonical_tree_and_snapshots_own_path() {
        let mut canonical = wakurln_crypto::merkle::FullMerkleTree::new(4).unwrap();
        let id = Identity::from_secret(Fr::from_u64(9));
        let mut n = node(4);
        n.set_identity(id);

        let mut burst: Vec<Fr> = (0..3u64).map(|v| Fr::from_u64(v + 1000)).collect();
        burst.insert(1, id.commitment());
        let delta = canonical.append_batch_with_delta(&burst).unwrap();
        n.apply_append_delta(&delta, Some(1)).unwrap();
        assert_eq!(n.membership_root(), canonical.root());
        assert!(n.is_member(), "own registration did not land");
        assert_eq!(n.validator().current_root(), canonical.root());

        // a later foreign burst refreshes the own path, root window follows
        let delta = canonical
            .append_batch_with_delta(&[Fr::from_u64(7), Fr::from_u64(8)])
            .unwrap();
        n.apply_append_delta(&delta, None).unwrap();
        assert_eq!(n.membership_root(), canonical.root());
        assert!(n.is_member());
    }

    #[test]
    fn stale_delta_is_rejected_atomically() {
        // a delta that does not continue the view's leaf count must fail
        // without touching the view or the validator's root window
        let mut canonical = wakurln_crypto::merkle::FullMerkleTree::new(4).unwrap();
        let d1 = canonical
            .append_batch_with_delta(&[Fr::from_u64(1)])
            .unwrap();
        let d2 = canonical
            .append_batch_with_delta(&[Fr::from_u64(2)])
            .unwrap();
        let mut n = node(4);
        let root_before = n.membership_root();
        let window_root_before = n.validator().current_root();
        assert_eq!(
            n.apply_append_delta(&d2, None),
            Err(wakurln_crypto::merkle::MerkleError::StaleWitness)
        );
        assert_eq!(n.membership_root(), root_before);
        assert_eq!(n.validator().current_root(), window_root_before);
        // the view is still usable afterwards, in order
        n.apply_append_delta(&d1, None).unwrap();
        n.apply_append_delta(&d2, None).unwrap();
        assert_eq!(n.membership_root(), canonical.root());
    }

    #[test]
    fn update_delta_revokes_own_membership() {
        let mut canonical = wakurln_crypto::merkle::FullMerkleTree::new(4).unwrap();
        let id = Identity::from_secret(Fr::from_u64(11));
        let mut n = node(4);
        n.set_identity(id);
        let delta = canonical
            .append_batch_with_delta(&[id.commitment(), Fr::from_u64(5)])
            .unwrap();
        n.apply_append_delta(&delta, Some(0)).unwrap();
        assert!(n.is_member());

        let slash = canonical
            .set_with_delta(0, wakurln_crypto::merkle::EMPTY_LEAF)
            .unwrap();
        n.apply_update_delta(&slash).unwrap();
        assert!(!n.is_member(), "slashed peer still claims membership");
        assert_eq!(n.membership_root(), canonical.root());
    }
}
