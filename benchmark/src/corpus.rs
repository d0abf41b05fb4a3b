//! The relay frame corpus: what one routing peer's validation layer sees.
//!
//! No network is involved. A group of `members` honest publishers sends one
//! signal per epoch for `epochs` epochs (T = 10 s, Thr = 2, so the
//! nullifier-map and verdict-cache GC both fire), `spammers` members
//! double-signal inside one epoch, and every signal reaches the relay
//! `fan_in` times — the mesh fan-in a relay faces when envelopes are
//! re-wrapped (fresh timestamp, fresh message id, same signal). On top ride
//! ~5 % replays from beyond the Thr window, ~5 % copies with a flipped
//! proof bit and ~2 % truncated frames. Frames are kept in arrival order
//! with the class the generator expects the validator to put them in, so
//! the runner can check every verdict against a label it did not get from
//! the program under test.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use waku_rln_relay::{encode_signal, CostModel, EpochScheme, RlnValidator, WireSignal};
use wakurln_crypto::sha256::Sha256;
use wakurln_gossipsub::ValidationResult;
use wakurln_relay::WakuMessage;
use wakurln_rln::{create_signal, Identity, SharedGroup};
use wakurln_zksnark::{ProvingKey, RlnCircuit, SimSnark, VerifyingKey};

/// Content topic on every generated envelope.
const CONTENT_TOPIC: &str = "/benchmark/1/relay/proto";

/// Size of one corpus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CorpusParams {
    /// Membership tree depth.
    pub depth: usize,
    /// Honest publishers, one signal each per epoch.
    pub members: usize,
    /// Epochs of honest traffic.
    pub epochs: usize,
    /// Double-signalling members.
    pub spammers: usize,
    /// Distinct signals each spammer sends inside one epoch.
    pub spam_signals: usize,
    /// Copies of every signal that reach the relay.
    pub fan_in: usize,
}

impl CorpusParams {
    /// Number of proofs one generation pays for.
    pub fn proofs(&self) -> usize {
        self.members * self.epochs + self.spammers * self.spam_signals
    }
}

/// The validator class a frame is expected to land in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Label {
    Valid,
    Duplicate,
    DoubleSignal,
    OutOfWindow,
    InvalidProof,
    Malformed,
}

impl Label {
    pub const ALL: [Label; 6] = [
        Label::Valid,
        Label::Duplicate,
        Label::DoubleSignal,
        Label::OutOfWindow,
        Label::InvalidProof,
        Label::Malformed,
    ];

    /// The routing verdict §III prescribes for the class.
    pub fn verdict(self) -> ValidationResult {
        match self {
            Label::Valid => ValidationResult::Accept,
            Label::Duplicate | Label::OutOfWindow => ValidationResult::Ignore,
            Label::DoubleSignal | Label::InvalidProof | Label::Malformed => {
                ValidationResult::Reject
            }
        }
    }
}

/// One frame as it arrives at the relay.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Arrival time at the relay, simulated milliseconds.
    pub at_ms: u64,
    /// The encoded `WakuMessage`.
    pub bytes: Vec<u8>,
    /// The class the generator expects.
    pub label: Label,
}

/// A generated corpus plus the key material it was made with (the probes
/// reuse it instead of paying for a second trusted setup).
pub struct Corpus {
    pub params: CorpusParams,
    pub scheme: EpochScheme,
    pub frames: Vec<Frame>,
    /// Distinct signals behind the frames, in publish order.
    pub signals: Vec<WireSignal>,
    /// A validator that knows the group root and nothing else; every pass
    /// starts from a clone of it.
    pub validator: RlnValidator,
    pub proving_key: ProvingKey,
    pub verifying_key: VerifyingKey,
    pub group: SharedGroup,
    /// Honest publishers first, spammers after.
    pub identities: Vec<Identity>,
    /// SHA-256 over every frame's arrival time, length and bytes.
    pub sha256: [u8; 32],
}

/// How a frame was derived from its signal.
enum Shape {
    Copy,
    FlippedProof,
    Truncated,
}

struct Draft {
    at_ms: u64,
    signal: usize,
    shape: Shape,
}

impl Corpus {
    /// Generates the corpus for `seed`. Same seed, same bytes.
    pub fn generate(params: CorpusParams, seed: u64) -> Corpus {
        let scheme = EpochScheme::new(10, 20_000);
        let epoch_ms = scheme.epoch_secs * 1000;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e1a_7f2a_3e5c_0de5);
        let (proving_key, verifying_key) = SimSnark::setup(RlnCircuit::new(params.depth), &mut rng);
        let mut group = SharedGroup::new(params.depth).expect("supported depth");
        let identities: Vec<Identity> = (0..params.members + params.spammers)
            .map(|_| Identity::random(&mut rng))
            .collect();
        let commitments: Vec<_> = identities.iter().map(Identity::commitment).collect();
        group
            .register_batch(&commitments)
            .expect("the group holds every corpus member");
        let root = group.root();

        // (publish time, sender, signal)
        let mut published: Vec<(u64, usize, WireSignal)> = Vec::new();
        let mut sign = |sender: usize, at_ms: u64, message: String, rng: &mut StdRng| {
            let epoch = scheme.epoch_at_ms(at_ms);
            let signal = create_signal(
                &identities[sender],
                &group
                    .membership_proof(sender as u64)
                    .expect("registered member"),
                root,
                &proving_key,
                scheme.to_field(epoch),
                message.as_bytes(),
                rng,
            )
            .expect("an honest witness proves");
            published.push((at_ms, sender, WireSignal { epoch, signal }));
        };
        for e in 0..params.epochs {
            for m in 0..params.members {
                let at_ms = (e as u64 + 1) * epoch_ms + 1_000 + rng.gen_range(0..2_000u64);
                sign(m, at_ms, format!("e{e}-m{m}"), &mut rng);
            }
        }
        // every spammer double-signals inside the second epoch
        for s in 0..params.spammers {
            for k in 0..params.spam_signals {
                let at_ms = 2 * epoch_ms + 4_000 + rng.gen_range(0..2_000u64);
                sign(params.members + s, at_ms, format!("spam-{s}-{k}"), &mut rng);
            }
        }

        let mut drafts: Vec<Draft> = Vec::new();
        for (i, (at_ms, _, _)) in published.iter().enumerate() {
            for copy in 0..params.fan_in {
                drafts.push(Draft {
                    at_ms: at_ms + copy as u64 * 37 + rng.gen_range(0..20u64),
                    signal: i,
                    shape: Shape::Copy,
                });
            }
        }
        let copies = drafts.len();
        let beyond_window = (scheme.threshold() + 2) * epoch_ms;
        for _ in 0..copies / 20 {
            let i = rng.gen_range(0..published.len());
            drafts.push(Draft {
                at_ms: published[i].0 + beyond_window + rng.gen_range(0..epoch_ms),
                signal: i,
                shape: Shape::Copy,
            });
        }
        for _ in 0..copies / 20 {
            let i = rng.gen_range(0..published.len());
            drafts.push(Draft {
                at_ms: published[i].0 + rng.gen_range(0..500u64),
                signal: i,
                shape: Shape::FlippedProof,
            });
        }
        for _ in 0..copies / 50 {
            let i = rng.gen_range(0..published.len());
            drafts.push(Draft {
                at_ms: published[i].0 + rng.gen_range(0..500u64),
                signal: i,
                shape: Shape::Truncated,
            });
        }
        // seeded interleave of equal timestamps, then arrival order
        drafts.shuffle(&mut rng);
        drafts.sort_by_key(|d| d.at_ms);

        // the generator's own reference for the stateful classes: the first
        // in-window signal of a (sender, epoch) is valid, the same signal
        // again is a duplicate, a different one is a double-signal
        let mut first_signal: HashMap<(usize, u64), usize> = HashMap::new();
        let mut hasher = Sha256::new();
        let mut frames = Vec::with_capacity(drafts.len());
        for draft in drafts {
            let (_, sender, wire) = &published[draft.signal];
            let mut signal = wire.signal.clone();
            if matches!(draft.shape, Shape::FlippedProof) {
                signal.proof.binding[0] ^= 1;
            }
            let mut envelope = WakuMessage::new(CONTENT_TOPIC, encode_signal(wire.epoch, &signal));
            envelope.timestamp = Some(draft.at_ms);
            let mut bytes = envelope.encode();
            let label = match draft.shape {
                Shape::Truncated => {
                    bytes.truncate(rng.gen_range(0..bytes.len()));
                    Label::Malformed
                }
                Shape::FlippedProof => Label::InvalidProof,
                Shape::Copy => {
                    let local = scheme.epoch_at_ms(draft.at_ms);
                    if !scheme.within_window(local, wire.epoch) {
                        Label::OutOfWindow
                    } else {
                        match first_signal.get(&(*sender, wire.epoch)) {
                            None => {
                                first_signal.insert((*sender, wire.epoch), draft.signal);
                                Label::Valid
                            }
                            Some(first) if *first == draft.signal => Label::Duplicate,
                            Some(_) => Label::DoubleSignal,
                        }
                    }
                }
            };
            hasher.update(&draft.at_ms.to_le_bytes());
            hasher.update(&(bytes.len() as u64).to_le_bytes());
            hasher.update(&bytes);
            frames.push(Frame {
                at_ms: draft.at_ms,
                bytes,
                label,
            });
        }

        Corpus {
            params,
            scheme,
            frames,
            signals: published.into_iter().map(|(_, _, w)| w).collect(),
            validator: RlnValidator::new(verifying_key.clone(), scheme, root, CostModel::default()),
            proving_key,
            verifying_key,
            group,
            identities,
            sha256: hasher.finalize(),
        }
    }

    /// Frames per expected class, in [`Label::ALL`] (declaration) order.
    pub fn class_counts(&self) -> [u64; 6] {
        let mut counts = [0u64; 6];
        for f in &self.frames {
            counts[f.label as usize] += 1;
        }
        counts
    }

    /// Frames the generator expects in class `label`.
    pub fn count(&self, label: Label) -> u64 {
        self.class_counts()[label as usize]
    }

    /// Total bytes of all frames.
    pub fn bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.bytes.len() as u64).sum()
    }
}

/// The smallest corpus that still holds every class (unit tests).
#[cfg(test)]
pub const TINY: CorpusParams = CorpusParams {
    depth: 10,
    members: 3,
    epochs: 6,
    spammers: 1,
    spam_signals: 2,
    fan_in: 4,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_corpus_other_seed_other_corpus() {
        let a = Corpus::generate(TINY, 5);
        let b = Corpus::generate(TINY, 5);
        assert_eq!(a.sha256, b.sha256);
        assert_eq!(a.class_counts(), b.class_counts());
        assert_eq!(a.frames.len(), b.frames.len());
        let c = Corpus::generate(TINY, 6);
        assert_ne!(a.sha256, c.sha256);
    }

    #[test]
    fn every_class_is_present_and_arrival_ordered() {
        let c = Corpus::generate(TINY, 5);
        assert_eq!(c.signals.len(), TINY.proofs());
        let counts = c.class_counts();
        for (label, n) in Label::ALL.iter().zip(counts) {
            assert!(n > 0, "no {label:?} frame in the corpus");
        }
        // one valid frame per honest signal plus one per spammer
        assert_eq!(
            c.count(Label::Valid),
            (TINY.members * TINY.epochs + TINY.spammers) as u64
        );
        assert!(c.frames.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        assert_eq!(counts.iter().sum::<u64>(), c.frames.len() as u64);
    }
}
