//! The staged, epoch-sharded batch validation pipeline.
//!
//! The paper's §III routing loop verifies each message's zkSNARK proof
//! serially (≈30 ms per proof on an iPhone 8 per §IV), which caps relay
//! throughput at tens of messages per second per device. This module
//! restructures [`RlnValidator`] into an amortized batch pipeline while
//! producing **bit-for-bit the same outcomes** as the serial path — the
//! same [`ValidationResult`](wakurln_gossipsub::ValidationResult) per
//! message, the same
//! [`ValidationStats`](crate::validator::ValidationStats), the same
//! slashing detections in the same order (property-tested in
//! `tests/pipeline_equivalence.rs`).
//!
//! # Stages
//!
//! 1. **Decode + arrival snapshot** (at [`Validator::submit`] time):
//!    malformed frames are rejected immediately; decodable signals are
//!    queued together with their arrival time and an arrival-time
//!    snapshot of the accepted-roots window — the two inputs the serial
//!    path would have evaluated on the spot.
//! 2. **Dedup / double-signal routing before proof work** (at flush):
//!    every queued candidate is keyed by a collision-resistant statement
//!    digest. Candidates whose digest already has a cached verdict — a
//!    gossip re-delivery, a replay-wrapped copy of a signal this peer
//!    already judged, or a duplicate inside the same flush window —
//!    resolve without touching the zkSNARK verifier.
//! 3. **Batch verification**: the surviving unique statements drain into
//!    one run of [`verify_signal`] calls, and their verdicts enter the
//!    epoch-sharded LRU cache.
//! 4. **Stateful commit**: candidates are replayed in arrival order
//!    through the exact serial decision core
//!    ([`RlnValidator::decide`](crate::validator::RlnValidator)) — epoch
//!    window, nullifier map, double-signal analysis, GC — emitting one
//!    relay/slash decision per message plus per-stage [`PipelineStats`].
//!
//! # Why double-signal *candidates* still verify once
//!
//! A colliding-nullifier message with a **different** share is only
//! slashable spam if its proof verifies: skipping verification would let
//! an adversary fabricate share pairs that reconstruct garbage secrets
//! and pollute the slashing queue, and would diverge from the serial
//! validator (which rejects the forgery as an invalid proof, not as
//! spam). Each distinct spam message therefore pays for exactly one
//! verification — every re-delivery of it afterwards is absorbed by the
//! digest cache, so a replayed spam flood costs one hash per copy
//! instead of one proof verification per copy.
//!
//! # Epoch sharding
//!
//! The proof-verdict cache is sharded by message epoch and garbage
//! collected to the same symmetric `Thr` window as the §III epoch check:
//! shards behind the window can never produce a hit again, and shards
//! ahead of it carry attacker-chosen envelope epochs (which would
//! otherwise pin the cache forever), so both are dropped wholesale.
//! Capacity pressure is applied only *after* that GC, and evicts from
//! the oldest epoch first — the entries closest to aging out anyway —
//! so a batch of forged out-of-window epochs can never displace honest
//! in-window entries.
//!
//! [`RlnValidator`]: crate::validator::RlnValidator
//! [`Validator::submit`]: wakurln_gossipsub::Validator::submit
//! [`verify_signal`]: wakurln_rln::verify_signal

use crate::codec::WireSignal;
use crate::validator::RlnValidator;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use wakurln_crypto::digest_hash::DigestState;
use wakurln_crypto::sha256::Sha256;
use wakurln_gossipsub::{BatchDecision, Validator as _};
use wakurln_rln::{verify_signal, SignalValidity};

/// Knobs of the batched validation pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Flush as soon as this many messages are queued.
    pub max_batch: usize,
    /// Bounded staleness: the relay flushes at least this often even if
    /// the batch is not full, so a quiet mesh still forwards promptly.
    pub flush_interval_ms: u64,
    /// Total capacity of the epoch-sharded proof-verdict cache, in
    /// entries (one entry ≈ 40 bytes).
    pub cache_capacity: usize,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            max_batch: 64,
            flush_interval_ms: 200,
            cache_capacity: 4096,
        }
    }
}

/// Per-stage counters of the batched pipeline (cumulative).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Messages enqueued by stage 1.
    pub submitted: u64,
    /// Non-empty flushes performed.
    pub flushes: u64,
    /// zkSNARK verifications actually executed (stage 3).
    pub proofs_verified: u64,
    /// Candidates resolved from the cross-flush verdict cache (stage 2).
    pub cache_hits: u64,
    /// Candidates resolved against an identical statement earlier in the
    /// *same* flush window (stage 2).
    pub batch_dedup_hits: u64,
    /// Candidates whose root was outside the accepted window at arrival
    /// — rejected without proof work, as the serial short-circuit does.
    pub root_window_skips: u64,
    /// Largest batch drained by a single flush.
    pub max_batch_observed: u64,
}

/// One queued message awaiting a flush.
#[derive(Clone, Debug)]
struct Candidate {
    ticket: u64,
    /// Arrival time — the stateful commit replays at this timestamp, so
    /// epoch windows and GC behave exactly as they would have serially.
    now_ms: u64,
    wire: WireSignal,
    /// Arrival-time snapshot of the accepted-roots window check.
    root_ok: bool,
    digest: [u8; 32],
}

/// Collision-resistant digest of the complete verification statement:
/// the hash of the signal's canonical wire encoding
/// ([`encode_signal`](crate::codec::encode_signal) — epoch, root,
/// internal nullifier, both share coordinates, proof elements, binding,
/// message).
///
/// The digest must cover **every** input [`verify_signal`] depends on,
/// not a sub-hash like `proof.binding`: the binding is attacker-supplied
/// bytes that are only *authenticated inside the verifier*, which
/// cache/dedup hits deliberately skip. A digest of
/// `(epoch, binding, message)` alone would let an adversary replay a
/// valid signal with a rewritten `internal_nullifier` or share — same
/// digest, so stage 2 would resolve the forgery against the honest
/// copy's cached `true` verdict, landing each mutation in a fresh
/// nullifier slot (unbounded rate-limit bypass) where the serial
/// validator rejects it as an invalid proof. Hashing the full encoding
/// makes equal digests imply byte-identical statements, which trivially
/// verify identically.
fn statement_digest(wire: &WireSignal) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"wakurln-stmt-v2");
    h.update(&crate::codec::encode_signal(wire.epoch, &wire.signal));
    h.finalize()
}

/// One epoch's slice of the verdict cache, with FIFO insertion order for
/// capacity eviction. Keyed by statement digests, so it hashes one word
/// of the digest ([`DigestState`]).
#[derive(Clone, Debug, Default)]
struct CacheShard {
    verdicts: HashMap<[u8; 32], bool, DigestState>,
    order: VecDeque<[u8; 32]>,
}

/// The epoch-sharded proof-verdict cache (stage 2/3 state).
#[derive(Clone, Debug)]
struct ProofCache {
    capacity: usize,
    shards: BTreeMap<u64, CacheShard>,
    len: usize,
}

impl ProofCache {
    fn new(capacity: usize) -> ProofCache {
        ProofCache {
            capacity: capacity.max(1),
            shards: BTreeMap::new(),
            len: 0,
        }
    }

    fn get(&self, epoch: u64, digest: &[u8; 32]) -> Option<bool> {
        self.shards
            .get(&epoch)
            .and_then(|s| s.verdicts.get(digest).copied())
    }

    fn insert(&mut self, epoch: u64, digest: [u8; 32], verdict: bool) {
        let shard = self.shards.entry(epoch).or_default();
        if shard.verdicts.insert(digest, verdict).is_none() {
            shard.order.push_back(digest);
            self.len += 1;
        }
    }

    /// Evicts down to capacity, oldest epoch first (deferred to the end
    /// of a flush so a single oversized batch cannot evict its own
    /// entries mid-resolution).
    fn enforce_capacity(&mut self) {
        while self.len > self.capacity {
            let Some((&epoch, _)) = self.shards.iter().next() else {
                return;
            };
            // lint:allow(panic-path, reason = "the entry was inserted by the match arm above when this epoch was first observed")
            let shard = self.shards.get_mut(&epoch).expect("just observed");
            if let Some(old) = shard.order.pop_front() {
                shard.verdicts.remove(&old);
                self.len -= 1;
            }
            if shard.order.is_empty() {
                self.shards.remove(&epoch);
            }
        }
    }

    /// Drops every epoch shard outside the symmetric acceptance window
    /// `[current − thr, current + thr]` (the `within_window` rule of
    /// §III). Past epochs can never hit again; far-future epochs are
    /// attacker-chosen (a forged envelope epoch survives decoding), and
    /// keeping them would let a flood of `u64::MAX`-epoch statements pin
    /// the cache forever while capacity eviction — oldest epoch first —
    /// displaces every honest entry.
    fn gc(&mut self, current_epoch: u64, thr: u64) {
        let cutoff = current_epoch.saturating_sub(thr);
        let keep = self.shards.split_off(&cutoff);
        for (_, shard) in std::mem::replace(&mut self.shards, keep) {
            self.len -= shard.order.len();
        }
        let beyond = self
            .shards
            .split_off(&current_epoch.saturating_add(thr).saturating_add(1));
        for (_, shard) in beyond {
            self.len -= shard.order.len();
        }
    }
}

/// The batching state carried by a pipeline-enabled
/// [`RlnValidator`](crate::validator::RlnValidator).
#[derive(Clone, Debug)]
pub(crate) struct PipelineState {
    config: PipelineConfig,
    queue: Vec<Candidate>,
    cache: ProofCache,
    stats: PipelineStats,
    next_ticket: u64,
}

impl PipelineState {
    pub(crate) fn new(config: PipelineConfig) -> PipelineState {
        assert!(config.max_batch >= 1, "batch must hold at least a message");
        PipelineState {
            queue: Vec::with_capacity(config.max_batch),
            cache: ProofCache::new(config.cache_capacity),
            stats: PipelineStats::default(),
            next_ticket: 0,
            config,
        }
    }

    pub(crate) fn config(&self) -> &PipelineConfig {
        &self.config
    }

    pub(crate) fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Entries currently held in the proof-verdict cache across all epoch
    /// shards (a boundedness series for the soak harness).
    pub(crate) fn cache_len(&self) -> usize {
        self.cache.len
    }

    pub(crate) fn flush_due(&self) -> bool {
        self.queue.len() >= self.config.max_batch
    }

    /// Stage 1: queue a decoded signal with its arrival snapshots.
    pub(crate) fn enqueue(&mut self, now_ms: u64, wire: WireSignal, root_ok: bool) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.stats.submitted += 1;
        let digest = statement_digest(&wire);
        self.queue.push(Candidate {
            ticket,
            now_ms,
            wire,
            root_ok,
            digest,
        });
        ticket
    }

    /// Stages 2–4: resolve every queued candidate and emit its decision.
    pub(crate) fn flush(
        &mut self,
        validator: &mut RlnValidator,
        now_ms: u64,
    ) -> Vec<BatchDecision> {
        let candidates = std::mem::take(&mut self.queue);
        if candidates.is_empty() {
            return Vec::new();
        }
        self.stats.flushes += 1;
        self.stats.max_batch_observed = self.stats.max_batch_observed.max(candidates.len() as u64);

        // stage 2 — dedup/double-signal routing before proof work: route
        // every candidate whose statement verdict is already known (cache
        // or an identical statement earlier in this batch) around the
        // verifier
        let mut to_verify: Vec<usize> = Vec::new();
        let mut in_batch: HashSet<[u8; 32], DigestState> = HashSet::default();
        for (i, c) in candidates.iter().enumerate() {
            if !c.root_ok {
                self.stats.root_window_skips += 1;
            } else if self.cache.get(c.wire.epoch, &c.digest).is_some() {
                self.stats.cache_hits += 1;
            } else if !in_batch.insert(c.digest) {
                self.stats.batch_dedup_hits += 1;
            } else {
                to_verify.push(i);
            }
        }

        // stage 3 — batch verification of the surviving unique statements,
        // verdicts entering the epoch-sharded cache
        let vk = validator.verifying_key();
        let mut verified_now = vec![false; candidates.len()];
        for &i in &to_verify {
            let c = &candidates[i];
            let verdict =
                verify_signal(vk, c.wire.signal.root, &c.wire.signal) == SignalValidity::Valid;
            self.cache.insert(c.wire.epoch, c.digest, verdict);
            verified_now[i] = true;
        }
        self.stats.proofs_verified += to_verify.len() as u64;

        // stage 4 — stateful commit, replayed in arrival order through
        // the exact serial decision core
        let cost = validator.cost_model();
        let mut decisions = Vec::with_capacity(candidates.len());
        for (i, c) in candidates.iter().enumerate() {
            let proof_ok = c.root_ok && self.cache.get(c.wire.epoch, &c.digest) == Some(true);
            // messages that actually hit the verifier are charged the full
            // modeled verification; everything else paid one digest probe
            let verify_cost = if verified_now[i] {
                cost.verify_proof_micros
            } else {
                cost.nullifier_check_micros
            };
            let result = validator.decide(c.now_ms, &c.wire, proof_ok, verify_cost);
            decisions.push(BatchDecision {
                ticket: c.ticket,
                result,
                cost_micros: validator.last_cost_micros(),
            });
        }

        // gc before capacity enforcement: out-of-window shards (stale or
        // forged far-future epochs) are dropped first, so oldest-first
        // capacity eviction only ever lands on in-window entries — a
        // batch of forged-epoch statements cannot displace honest ones
        let scheme = validator.epoch_scheme();
        self.cache
            .gc(scheme.epoch_at_ms(now_ms), scheme.threshold());
        self.cache.enforce_capacity();
        decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_caps_and_evicts_oldest_epoch_first() {
        let mut cache = ProofCache::new(4);
        for (epoch, tag) in [(1u64, 0u8), (1, 1), (2, 2), (2, 3), (3, 4), (3, 5)] {
            cache.insert(epoch, [tag; 32], true);
        }
        cache.enforce_capacity();
        assert_eq!(cache.len, 4);
        // the oldest epoch's entries went first
        assert_eq!(cache.get(1, &[0; 32]), None);
        assert_eq!(cache.get(1, &[1; 32]), None);
        assert_eq!(cache.get(3, &[5; 32]), Some(true));
    }

    #[test]
    fn cache_gc_follows_thr_window() {
        let mut cache = ProofCache::new(64);
        for epoch in 0..10u64 {
            cache.insert(epoch, [epoch as u8; 32], true);
        }
        cache.gc(9, 2);
        assert_eq!(cache.len, 3); // epochs 7, 8, 9
        assert_eq!(cache.get(6, &[6; 32]), None);
        assert_eq!(cache.get(7, &[7; 32]), Some(true));
    }

    #[test]
    fn cache_gc_drops_forged_future_epochs() {
        // an adversary-chosen far-future envelope epoch must not pin the
        // cache (oldest-first capacity eviction would otherwise displace
        // every honest entry before touching it)
        let mut cache = ProofCache::new(64);
        cache.insert(100, [1; 32], true); // in-window
        cache.insert(102, [2; 32], true); // in-window future (≤ thr ahead)
        cache.insert(u64::MAX, [3; 32], true); // forged
        cache.gc(100, 2);
        assert_eq!(cache.len, 2);
        assert_eq!(cache.get(102, &[2; 32]), Some(true));
        assert_eq!(cache.get(u64::MAX, &[3; 32]), None);
    }

    #[test]
    fn gc_before_capacity_protects_honest_entries_from_forged_epochs() {
        // flush order is gc-then-enforce: out-of-window shards must be
        // gone before capacity pressure (oldest epoch first) can touch
        // any honest in-window entry
        let mut cache = ProofCache::new(4);
        for tag in 0..4u8 {
            cache.insert(100 + u64::from(tag % 2), [tag; 32], true);
        }
        for tag in 10..14u8 {
            cache.insert(u64::MAX, [tag; 32], true); // forged far-future
        }
        cache.gc(100, 2);
        cache.enforce_capacity();
        assert_eq!(cache.len, 4);
        for tag in 0..4u8 {
            assert_eq!(
                cache.get(100 + u64::from(tag % 2), &[tag; 32]),
                Some(true),
                "honest entry {tag} was displaced by forged epochs"
            );
        }
    }

    #[test]
    fn statement_digest_covers_every_verifier_input() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use wakurln_crypto::field::Fr;
        use wakurln_rln::{create_signal, Identity, SharedGroup};
        use wakurln_zksnark::{RlnCircuit, SimSnark};

        let mut rng = StdRng::seed_from_u64(51);
        let depth = 10;
        let (pk, _) = SimSnark::setup(RlnCircuit::new(depth), &mut rng);
        let mut group = SharedGroup::new(depth).unwrap();
        let id = Identity::random(&mut rng);
        let index = group.register_batch(&[id.commitment()]).unwrap().0.start;
        let signal = create_signal(
            &id,
            &group.membership_proof(index).unwrap(),
            group.root(),
            &pk,
            Fr::from_u64(7),
            b"digest me",
            &mut rng,
        )
        .unwrap();
        let wire = WireSignal { epoch: 7, signal };
        let base = statement_digest(&wire);

        // every field verify_signal depends on must perturb the digest —
        // in particular the attacker-writable ones the proof binding
        // authenticates only inside the (skipped-on-cache-hit) verifier
        let mutations: Vec<(&str, WireSignal)> = vec![
            ("epoch", {
                let mut w = wire.clone();
                w.epoch += 1;
                w
            }),
            ("root", {
                let mut w = wire.clone();
                w.signal.root = Fr::from_u64(1234);
                w
            }),
            ("internal_nullifier", {
                let mut w = wire.clone();
                w.signal.internal_nullifier = Fr::from_u64(5678);
                w
            }),
            ("share.x", {
                let mut w = wire.clone();
                w.signal.share.x = Fr::from_u64(91011);
                w
            }),
            ("share.y", {
                let mut w = wire.clone();
                w.signal.share.y = Fr::from_u64(121314);
                w
            }),
            ("proof.elements", {
                let mut w = wire.clone();
                w.signal.proof.elements[0][0] ^= 1;
                w
            }),
            ("proof.binding", {
                let mut w = wire.clone();
                w.signal.proof.binding[0] ^= 1;
                w
            }),
            ("message", {
                let mut w = wire.clone();
                w.signal.message[0] ^= 1;
                w
            }),
        ];
        for (field, mutated) in mutations {
            assert_ne!(
                statement_digest(&mutated),
                base,
                "digest ignores {field}: a mutated statement would reuse \
                 the honest copy's cached verdict"
            );
        }
    }

    #[test]
    fn cache_insert_is_idempotent() {
        let mut cache = ProofCache::new(8);
        cache.insert(5, [9; 32], true);
        cache.insert(5, [9; 32], true);
        assert_eq!(cache.len, 1);
    }

    #[test]
    fn default_config_is_sane() {
        let config = PipelineConfig::default();
        assert!(config.max_batch >= 1);
        assert!(config.flush_interval_ms >= 1);
        assert!(config.cache_capacity >= config.max_batch);
    }
}
