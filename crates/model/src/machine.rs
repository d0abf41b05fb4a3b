//! The pure §III decision core: `step : (State, Input) → (State, Verdict)`.
//!
//! This is the exact decision logic every routing peer applies to a
//! decoded, proof-checked signal — epoch window, nullifier lookup,
//! double-signal share pairing, slashing-evidence construction and the
//! `Thr`-window GC — with every stateful effect confined to [`State`]
//! and every external fact (local clock reading, proof-verification
//! outcome, simulated verification cost) confined to [`Input`]. The
//! production `RlnValidator` delegates its stateful core to [`apply`];
//! the trace fuzzer in [`crate::trace`] drives the same function with
//! adversarial schedules.

use crate::epoch::EpochScheme;
use crate::nullifier_map::{NullifierMap, NullifierOutcome};
use std::collections::VecDeque;
use wakurln_crypto::field::Fr;
use wakurln_rln::SlashingEvidence;
use wakurln_rln::{analyze_double_signal, build_evidence, DoubleSignalOutcome, Signal};

/// Modeled per-check CPU costs in microseconds, used for the
/// resource-restricted-device accounting (E6/E9). Defaults follow the
/// paper's §IV numbers ("Proof verification run time is constant and takes
/// ≈ 30ms" on an iPhone 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// One zkSNARK proof verification.
    pub verify_proof_micros: u64,
    /// One epoch comparison.
    pub epoch_check_micros: u64,
    /// One nullifier-map lookup + insert.
    pub nullifier_check_micros: u64,
    /// One secret reconstruction (two Shamir shares).
    pub reconstruct_micros: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            verify_proof_micros: 30_000,
            epoch_check_micros: 1,
            nullifier_check_micros: 5,
            reconstruct_micros: 100,
        }
    }
}

/// Why a message was dropped (or accepted) — per-counter statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ValidationStats {
    /// Accepted and relayed.
    pub valid: u64,
    /// Undecodable payloads.
    pub malformed: u64,
    /// zkSNARK verification failures (incl. unknown roots).
    pub invalid_proof: u64,
    /// Epoch outside the `Thr` window.
    pub epoch_out_of_window: u64,
    /// Exact duplicates (same nullifier, same share).
    pub duplicates: u64,
    /// Double-signaling caught.
    pub spam_detected: u64,
}

/// A caught spammer, ready for on-chain slashing.
#[derive(Clone, Debug, PartialEq)]
pub struct SpamDetection {
    /// Contract-ready evidence (revealed secret + commitment).
    pub evidence: SlashingEvidence,
    /// Epoch number of the violation.
    pub epoch: u64,
}

/// The complete validation state of one routing peer, as the model sees
/// it. Everything the decision core reads or writes lives here; the
/// production validator holds exactly one of these (plus the verifying
/// key and batching machinery, which stay outside the model because
/// they never influence a verdict beyond the `proof_ok` input bit).
#[derive(Clone, Debug, PartialEq)]
pub struct State {
    /// The epoch scheme in force (`T`, `D`, therefore `Thr = ⌈D/T⌉`).
    pub epoch_scheme: EpochScheme,
    /// Modeled per-check CPU costs (pure accounting; never branches).
    pub cost: CostModel,
    /// Roots this peer currently accepts. A small window of recent roots
    /// (not just the latest) tolerates proofs generated moments before a
    /// membership change — the group-synchronization reality of §III.
    pub accepted_roots: VecDeque<Fr>,
    /// How many recent roots remain acceptable.
    pub root_window: usize,
    /// The windowed `(epoch, φ) → [sk]` double-signaling record.
    pub nullifier_map: NullifierMap,
    /// Caught spammers not yet drained by the host.
    pub detections: Vec<SpamDetection>,
    /// Cumulative per-verdict counters.
    pub stats: ValidationStats,
}

impl State {
    /// A fresh validator state; `initial_root` is the membership root
    /// known at startup (typically the empty tree).
    pub fn new(epoch_scheme: EpochScheme, initial_root: Fr, cost: CostModel) -> State {
        let mut accepted_roots = VecDeque::new();
        accepted_roots.push_back(initial_root);
        State {
            epoch_scheme,
            cost,
            accepted_roots,
            root_window: 8,
            nullifier_map: NullifierMap::new(),
            detections: Vec::new(),
            stats: ValidationStats::default(),
        }
    }

    /// Registers a new membership root (one per synced contract event).
    /// Keeps the last `root_window` roots acceptable; a repeat of the
    /// current root is a no-op. The oldest root leaves before the new one
    /// enters, so the window never grows past `root_window` slots.
    pub fn push_root(&mut self, root: Fr) {
        if self.accepted_roots.back() == Some(&root) {
            return;
        }
        while self.accepted_roots.len() >= self.root_window {
            self.accepted_roots.pop_front();
        }
        self.accepted_roots.push_back(root);
    }

    /// The most recent root.
    ///
    /// # Panics
    ///
    /// Never panics: the window always holds at least one root.
    pub fn current_root(&self) -> Fr {
        // lint:allow(panic-path, reason = "the window is seeded with the genesis root and pruning stops at one entry")
        *self.accepted_roots.back().expect("never empty")
    }

    /// Whether `root` is inside the accepted-roots window right now.
    pub fn root_accepted(&self, root: &Fr) -> bool {
        self.accepted_roots.contains(root)
    }

    /// Sets how many recent roots remain acceptable (default 8).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn set_root_window(&mut self, window: usize) {
        assert!(window >= 1, "window must hold at least the current root");
        self.root_window = window;
        while self.accepted_roots.len() > window {
            self.accepted_roots.pop_front();
        }
    }

    /// Crash-recovery reset (a **cold** restart): the accepted-roots
    /// window collapses to `initial_root`, the nullifier map is emptied
    /// and undelivered detections are discarded. Cumulative
    /// [`ValidationStats`] survive — they model the operator's metrics
    /// store, which outlives the process.
    pub fn reset(&mut self, initial_root: Fr) {
        self.accepted_roots.clear();
        self.accepted_roots.push_back(initial_root);
        self.nullifier_map = NullifierMap::new();
        self.detections.clear();
    }
}

/// One input to the decision core: a decoded signal plus the external
/// facts the stateless stage established about it.
#[derive(Clone, Debug, PartialEq)]
pub struct Input {
    /// The peer's local clock reading, simulated milliseconds.
    pub now_ms: u64,
    /// The epoch number claimed by the sender (the raw external
    /// nullifier from the envelope).
    pub epoch: u64,
    /// The decoded signal (`external_nullifier = Fr::from_u64(epoch)`).
    pub signal: Signal,
    /// Whether the stateless stage passed: the proof root is in the
    /// accepted window and the zkSNARK proof + share binding verify.
    pub proof_ok: bool,
    /// Simulated CPU the caller actually spent on the stateless stage
    /// for this message (full proof verification serially; a cache probe
    /// when a batching pipeline skipped the zkSNARK).
    pub verify_cost: u64,
}

/// How the peer treats the message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Valid — relay to mesh peers.
    Accept,
    /// Drop silently, no scoring penalty (stale epoch, exact duplicate).
    Ignore,
    /// Drop and penalize the sender (invalid proof, double-signal).
    Reject,
}

/// The verdict on one input: the routing outcome plus the simulated CPU
/// the decision charged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// The routing outcome.
    pub outcome: Outcome,
    /// Total simulated CPU charged for this message, microseconds.
    pub cost_micros: u64,
}

/// [`apply`] over a borrowed signal — the allocation-free entry point
/// the production validator uses on its hot path. Behavior is identical
/// to building an [`Input`] with a cloned signal and calling [`apply`].
pub fn apply_signal(
    state: &mut State,
    now_ms: u64,
    epoch: u64,
    signal: &Signal,
    proof_ok: bool,
    verify_cost: u64,
) -> Verdict {
    let mut cost = 0;

    // 1. proof verification (root must be one the peer accepts)
    cost += verify_cost;
    if !proof_ok {
        state.stats.invalid_proof += 1;
        return Verdict {
            outcome: Outcome::Reject,
            cost_micros: cost,
        };
    }

    // 2. epoch window
    cost += state.cost.epoch_check_micros;
    let local_epoch = state.epoch_scheme.epoch_at_ms(now_ms);
    if !state.epoch_scheme.within_window(local_epoch, epoch) {
        state.stats.epoch_out_of_window += 1;
        // an honest-but-late relay is indistinguishable from a replay
        // attacker here; drop without scoring penalty
        return Verdict {
            outcome: Outcome::Ignore,
            cost_micros: cost,
        };
    }

    // 3. nullifier map
    cost += state.cost.nullifier_check_micros;
    let insert_outcome = state
        .nullifier_map
        .insert(epoch, signal.internal_nullifier, signal.share);
    state
        .nullifier_map
        .gc(local_epoch, state.epoch_scheme.threshold());
    let outcome = match insert_outcome {
        NullifierOutcome::Fresh => {
            state.stats.valid += 1;
            Outcome::Accept
        }
        NullifierOutcome::DuplicateMessage => {
            state.stats.duplicates += 1;
            Outcome::Ignore
        }
        NullifierOutcome::DoubleSignal { prior_share } => {
            cost += state.cost.reconstruct_micros;
            state.stats.spam_detected += 1;
            // rebuild the prior signal's share pair for reconstruction
            let mut prior = signal.clone();
            prior.share = prior_share;
            match analyze_double_signal(&prior, signal) {
                DoubleSignalOutcome::SecretRecovered(sk) => {
                    if let Some(evidence) = build_evidence(sk, signal) {
                        state.detections.push(SpamDetection { evidence, epoch });
                    }
                }
                DoubleSignalOutcome::Duplicate | DoubleSignalOutcome::InconsistentShares => {
                    // cannot happen for proof-verified signals: the
                    // circuit pins y to x, and distinct shares imply
                    // distinct x
                }
            }
            Outcome::Reject
        }
    };
    Verdict {
        outcome,
        cost_micros: cost,
    }
}

/// Applies one input to the state in place and returns the verdict —
/// the imperative form of [`step`]. `step(s, i)` and
/// `{ let mut s = s; let v = apply(&mut s, &i); (s, v) }` are the same
/// function.
pub fn apply(state: &mut State, input: &Input) -> Verdict {
    apply_signal(
        state,
        input.now_ms,
        input.epoch,
        &input.signal,
        input.proof_ok,
        input.verify_cost,
    )
}

/// The pure transition function: consumes a state and an input, returns
/// the successor state and the verdict. No RNG, no clocks, no I/O —
/// time is whatever [`Input::now_ms`] says it is.
pub fn step(mut state: State, input: Input) -> (State, Verdict) {
    let verdict = apply(&mut state, &input);
    (state, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{fabricate_input, TraceParams, TraceStep};

    fn params() -> TraceParams {
        TraceParams {
            epoch_secs: 10,
            max_delay_ms: 20_000, // Thr = 2
            members: 3,
        }
    }

    fn fresh_state(p: &TraceParams) -> State {
        State::new(p.scheme(), Fr::from_u64(1), CostModel::default())
    }

    fn input(p: &TraceParams, now_ms: u64, member: usize, epoch: u64, msg: u64) -> Input {
        fabricate_input(
            p,
            &TraceStep {
                now_ms,
                member,
                epoch,
                msg,
                proof_ok: true,
            },
        )
    }

    #[test]
    fn step_and_apply_agree() {
        let p = params();
        let local = p.scheme().epoch_at_ms(1_000);
        let mut applied = fresh_state(&p);
        let i = input(&p, 1_000, 0, local, 0);
        let v1 = apply(&mut applied, &i);
        let (stepped, v2) = step(fresh_state(&p), i);
        assert_eq!(v1, v2);
        assert_eq!(applied, stepped);
    }

    #[test]
    fn fresh_then_duplicate_then_double() {
        let p = params();
        let mut state = fresh_state(&p);
        let local = p.scheme().epoch_at_ms(1_000);
        let first = input(&p, 1_000, 0, local, 0);
        assert_eq!(apply(&mut state, &first).outcome, Outcome::Accept);
        assert_eq!(apply(&mut state, &first).outcome, Outcome::Ignore);
        assert_eq!(state.stats.duplicates, 1);
        let second = input(&p, 1_500, 0, local, 1);
        assert_eq!(apply(&mut state, &second).outcome, Outcome::Reject);
        assert_eq!(state.stats.spam_detected, 1);
        // the recovered secret is the member's actual secret
        assert_eq!(state.detections.len(), 1);
        assert_eq!(
            state.detections[0].evidence.revealed_secret,
            p.member_identity(0).secret()
        );
    }

    #[test]
    fn invalid_proof_rejected_without_state_change() {
        let p = params();
        let mut state = fresh_state(&p);
        let local = p.scheme().epoch_at_ms(1_000);
        let mut i = input(&p, 1_000, 0, local, 0);
        i.proof_ok = false;
        assert_eq!(apply(&mut state, &i).outcome, Outcome::Reject);
        assert_eq!(state.stats.invalid_proof, 1);
        assert!(state.nullifier_map.is_empty());
    }

    #[test]
    fn out_of_window_epoch_ignored_and_not_recorded() {
        let p = params();
        let mut state = fresh_state(&p);
        let local = p.scheme().epoch_at_ms(1_000);
        let i = input(&p, 1_000, 0, local + 5, 0);
        assert_eq!(apply(&mut state, &i).outcome, Outcome::Ignore);
        assert_eq!(state.stats.epoch_out_of_window, 1);
        assert!(state.nullifier_map.is_empty());
    }

    #[test]
    fn verdict_costs_follow_the_cost_model() {
        let p = params();
        let cost = CostModel::default();
        let mut state = fresh_state(&p);
        let local = p.scheme().epoch_at_ms(1_000);
        let accept = apply(&mut state, &input(&p, 1_000, 0, local, 0));
        assert_eq!(
            accept.cost_micros,
            cost.verify_proof_micros + cost.epoch_check_micros + cost.nullifier_check_micros
        );
        let double = apply(&mut state, &input(&p, 1_200, 0, local, 1));
        assert_eq!(
            double.cost_micros,
            cost.verify_proof_micros
                + cost.epoch_check_micros
                + cost.nullifier_check_micros
                + cost.reconstruct_micros
        );
    }

    #[test]
    fn root_window_is_bounded_and_resettable() {
        let p = params();
        let mut state = fresh_state(&p);
        for i in 0..20u64 {
            state.push_root(Fr::from_u64(100 + i));
        }
        assert_eq!(state.accepted_roots.len(), 8);
        // the oldest root leaves before the ninth enters: no 16-slot growth
        assert!(state.accepted_roots.capacity() <= 8);
        assert!(state.root_accepted(&Fr::from_u64(119)));
        assert!(!state.root_accepted(&Fr::from_u64(100)));
        state.set_root_window(2);
        assert_eq!(state.accepted_roots.len(), 2);
        state.stats.valid = 7;
        state.reset(Fr::from_u64(1));
        assert_eq!(state.current_root(), Fr::from_u64(1));
        assert_eq!(state.accepted_roots.len(), 1);
        assert_eq!(state.stats.valid, 7, "stats survive a cold restart");
    }

    #[test]
    #[should_panic(expected = "window must hold at least the current root")]
    fn zero_root_window_rejected() {
        fresh_state(&params()).set_root_window(0);
    }
}
