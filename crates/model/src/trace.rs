//! Adversarial trace harness: schedule generator, invariant checker,
//! delta-debugging shrinker and the line-based corpus format.
//!
//! A **trace** is a list of [`TraceStep`]s — abstract protocol inputs
//! (who signals, at what claimed epoch, which message, with a valid or
//! mutated proof, at what local time) that [`fabricate_input`] lowers
//! into concrete [`Input`]s using the real RLN share algebra
//! (`y = sk + a₁·x`, `φ = H(a₁)`), so double-signal reconstruction in
//! the model recovers real secrets. [`replay`] runs a trace through
//! [`crate::apply`] while checking five machine-readable invariants
//! after every step:
//!
//! 1. **Boundedness** — the nullifier map tracks only epochs within
//!    `Thr` of the newest locally observed insertion epoch (at most
//!    `2·Thr + 1` epochs), so per-peer state cannot leak (§III's
//!    bounded nullifier map).
//! 2. **At-most-one-verdict** — at most one `Accept` per
//!    `(member, epoch)` statement, ever (the rate limit itself).
//! 3. **Slashing soundness** — every detection corresponds to a
//!    ground-truth double-signal: the trace really contains two
//!    distinct proof-valid messages for that `(member, epoch)`, and
//!    the evidence re-derives the member's commitment.
//! 4. **GC safety** — garbage collection never drops an entry whose
//!    epoch is still inside the acceptance window of the current local
//!    epoch.
//! 5. **One detection per caught statement** — while its epoch is
//!    tracked, a `(member, epoch)` statement yields at most one
//!    detection however many double-signal frames arrive
//!    (uniqueness), and a proof-valid, in-window double-signal always
//!    leaves one (completeness).
//!
//! [`generate_trace`] produces seeded adversarial schedules (epoch
//! skews, replays, mutated proofs, bursts and clock jumps);
//! [`shrink_trace`] delta-debugs a failing trace to a locally minimal
//! one; [`format_trace`]/[`parse_trace`] round-trip traces through the
//! plain-text corpus format replayed from `tests/corpus/` in CI.

use crate::machine::{apply, CostModel, Input, Outcome, State};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap, HashSet};
use wakurln_crypto::field::Fr;
use wakurln_crypto::poseidon;
use wakurln_crypto::shamir::share_on_line;
use wakurln_rln::{Identity, Signal};
use wakurln_zksnark::Proof;

use crate::epoch::EpochScheme;

/// The root every fabricated signal claims. The model never checks
/// roots itself (that is the stateless stage, summarized by
/// [`Input::proof_ok`]); states built by the harness use this root so
/// snapshots stay comparable.
pub const TRACE_ROOT: u64 = 1;

/// Static parameters of a trace: the epoch scheme and the membership
/// universe. Members are indexed `0..members`; each index maps to a
/// deterministic RLN identity, so traces are self-contained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceParams {
    /// Epoch length `T`, seconds.
    pub epoch_secs: u64,
    /// Maximum accepted clock skew + delay `D`, milliseconds
    /// (`Thr = ⌈D/T⌉`).
    pub max_delay_ms: u64,
    /// Number of distinct member identities the trace may use.
    pub members: usize,
}

impl TraceParams {
    /// The epoch scheme these parameters induce.
    pub fn scheme(&self) -> EpochScheme {
        EpochScheme::new(self.epoch_secs, self.max_delay_ms)
    }

    /// The deterministic identity of member `index` (derived by hashing
    /// a fixed tag with the index, so every replay of a trace sees the
    /// same secrets).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.members`.
    pub fn member_identity(&self, index: usize) -> Identity {
        assert!(index < self.members, "member index out of range");
        let sk = poseidon::hash2(Fr::from_u64(0x7261_6365), Fr::from_u64(index as u64));
        Identity::from_secret(sk)
    }

    /// A fresh model state matching these parameters (root
    /// [`TRACE_ROOT`], default cost model).
    pub fn initial_state(&self) -> State {
        State::new(
            self.scheme(),
            Fr::from_u64(TRACE_ROOT),
            CostModel::default(),
        )
    }
}

/// One abstract protocol input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceStep {
    /// The receiving peer's local clock, milliseconds.
    pub now_ms: u64,
    /// Which member signals (index into the trace's identity universe).
    pub member: usize,
    /// The epoch number the sender claims (may be skewed off the local
    /// epoch, or a replay of a long-gone one).
    pub epoch: u64,
    /// Message selector: same `(member, epoch, msg)` is the same wire
    /// message (a gossip duplicate); same `(member, epoch)` with a
    /// different `msg` is a rate violation.
    pub msg: u64,
    /// Whether the stateless proof check passes. `false` models a
    /// mutated share / forged proof that verification catches.
    pub proof_ok: bool,
}

/// Lowers an abstract step into a concrete [`Input`] carrying a real
/// RLN signal: the member's true share on the line `y = sk + a₁·x` when
/// `proof_ok`, or a mutated share (which proof verification would
/// reject) when not.
pub fn fabricate_input(params: &TraceParams, step: &TraceStep) -> Input {
    let id = params.member_identity(step.member);
    let external = Fr::from_u64(step.epoch);
    let message = format!("m{}-e{}-{}", step.member, step.epoch, step.msg).into_bytes();
    let x = poseidon::hash_bytes_to_field(&message);
    let slope = id.slope_for(external);
    let mut share = share_on_line(id.secret(), slope, x);
    if !step.proof_ok {
        // a mutated share: off the member's line, so the zkSNARK check
        // the `proof_ok` bit summarizes would fail
        share.y += Fr::from_u64(1);
    }
    Input {
        now_ms: step.now_ms,
        epoch: step.epoch,
        signal: Signal {
            message,
            external_nullifier: external,
            internal_nullifier: id.internal_nullifier_for(external),
            share,
            root: Fr::from_u64(TRACE_ROOT),
            proof: Proof {
                elements: [[0u8; 32]; 4],
                binding: [0u8; 32],
            },
        },
        proof_ok: step.proof_ok,
        verify_cost: CostModel::default().verify_proof_micros,
    }
}

/// A broken invariant found while replaying a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Index of the step after which the invariant failed.
    pub step_index: usize,
    /// Human-readable description of the violated invariant.
    pub description: String,
}

/// Replays `steps` from a fresh state, checking the module-level
/// invariants after every step. Returns the final state, or the first
/// violation.
pub fn replay(params: &TraceParams, steps: &[TraceStep]) -> Result<State, InvariantViolation> {
    let mut state = params.initial_state();
    let thr = state.epoch_scheme.threshold();
    // ground truth: distinct proof-valid messages sent per statement
    let mut sent: HashMap<(usize, u64), HashSet<u64>> = HashMap::new();
    let mut accepted: HashSet<(usize, u64)> = HashSet::new();
    // statements detected since their epoch was last tracked
    let mut detected: BTreeSet<(usize, u64)> = BTreeSet::new();
    // newest local epoch at which an insertion actually happened
    let mut last_insert_epoch: Option<u64> = None;

    for (i, step) in steps.iter().enumerate() {
        let fail = |description: String| InvariantViolation {
            step_index: i,
            description,
        };
        let pre_counts: Vec<(u64, usize)> = state
            .nullifier_map
            .epoch_numbers()
            .map(|e| (e, state.nullifier_map.entries_at(e)))
            .collect();
        let detections_before = state.detections.len();
        let spam_before = state.stats.spam_detected;

        let input = fabricate_input(params, step);
        let verdict = apply(&mut state, &input);

        let local = state.epoch_scheme.epoch_at_ms(step.now_ms);
        let inserted = step.proof_ok && state.epoch_scheme.within_window(local, step.epoch);
        if step.proof_ok {
            sent.entry((step.member, step.epoch))
                .or_default()
                .insert(step.msg);
        }
        if inserted {
            last_insert_epoch = Some(local);
        }

        // invariant 2: at most one Accept per (member, epoch)
        if verdict.outcome == Outcome::Accept && !accepted.insert((step.member, step.epoch)) {
            return Err(fail(format!(
                "second Accept for member {} epoch {}",
                step.member, step.epoch
            )));
        }

        // invariant 1: nullifier-map boundedness around the newest
        // insertion's local epoch
        if let Some(anchor) = last_insert_epoch {
            for e in state.nullifier_map.epoch_numbers() {
                if e.abs_diff(anchor) > thr {
                    return Err(fail(format!(
                        "tracked epoch {e} outside window [{}, {}]",
                        anchor.saturating_sub(thr),
                        anchor + thr
                    )));
                }
            }
        }
        let tracked = state.nullifier_map.tracked_epochs();
        if tracked as u64 > 2 * thr + 1 {
            return Err(fail(format!(
                "{tracked} epochs tracked, bound is {}",
                2 * thr + 1
            )));
        }

        // invariant 4: GC never drops an in-window entry. Insertion can
        // only grow a slot, so any shrink below the pre-step count for a
        // still-in-window epoch is a wrongful collection.
        for (e, count) in &pre_counts {
            if *e >= local.saturating_sub(thr) && state.nullifier_map.entries_at(*e) < *count {
                return Err(fail(format!(
                    "GC dropped entries for in-window epoch {e} (local {local}, thr {thr})"
                )));
            }
        }

        // invariant 5, uniqueness: one detection per step at most, and
        // none for a statement already detected while its epoch is tracked
        let new_detections = state.detections.len() - detections_before;
        if new_detections > 1
            || (new_detections == 1 && !detected.insert((step.member, step.epoch)))
        {
            return Err(fail(format!(
                "second detection for member {} epoch {} while the epoch is tracked",
                step.member, step.epoch
            )));
        }
        // invariant 5, completeness: a double-signal that reached the
        // nullifier map leaves a detection for its statement
        if inserted
            && state.stats.spam_detected > spam_before
            && !detected.contains(&(step.member, step.epoch))
        {
            return Err(fail(format!(
                "double-signal by member {} in epoch {} left no detection",
                step.member, step.epoch
            )));
        }
        detected.retain(|(_, e)| state.nullifier_map.entries_at(*e) > 0);

        // invariant 3: slashing soundness
        if new_detections == 1 {
            // lint:allow(panic-path, reason = "guarded: this branch runs only when detections grew, so last() is the new entry")
            let detection = state.detections.last().expect("just pushed");
            let truth = sent.get(&(step.member, step.epoch));
            if truth.map_or(0, HashSet::len) < 2 {
                return Err(fail(format!(
                    "detection without a ground-truth double-signal for member {} epoch {}",
                    step.member, step.epoch
                )));
            }
            let id = params.member_identity(step.member);
            if detection.evidence.commitment != id.commitment() {
                return Err(fail(format!(
                    "evidence commitment does not re-derive member {}'s commitment",
                    step.member
                )));
            }
            if detection.evidence.revealed_secret != id.secret() {
                return Err(fail(format!(
                    "recovered secret is not member {}'s secret",
                    step.member
                )));
            }
        }
    }
    Ok(state)
}

/// Generates a seeded adversarial schedule of `len` steps: mostly
/// honest traffic with epoch skews up to `Thr + 2`, ~10% mutated
/// proofs, small message ranges (forcing duplicates and rate
/// violations), occasional multi-epoch clock jumps and occasional
/// replays of earlier steps at the current time.
pub fn generate_trace(params: &TraceParams, seed: u64, len: usize) -> Vec<TraceStep> {
    let scheme = params.scheme();
    let thr = scheme.threshold();
    let epoch_ms = params.epoch_secs * 1000;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0bad_5eed_7ace_0005_u64);
    let mut now_ms: u64 = 1_000;
    let mut steps: Vec<TraceStep> = Vec::with_capacity(len);
    for _ in 0..len {
        // clock: usually a small advance, sometimes a multi-epoch jump
        now_ms += if rng.gen_bool(0.05) {
            rng.gen_range(epoch_ms..=epoch_ms * (thr + 3))
        } else {
            rng.gen_range(0..=epoch_ms / 2)
        };
        if rng.gen_bool(0.1) {
            if let Some(prior) = steps.get(rng.gen_range(0..steps.len().max(1))).copied() {
                // replay an earlier wire message at the current time
                steps.push(TraceStep { now_ms, ..prior });
                continue;
            }
        }
        let local = scheme.epoch_at_ms(now_ms);
        let skew = rng.gen_range(0..=thr + 2);
        let epoch = if rng.gen_bool(0.5) {
            local + skew
        } else {
            local.saturating_sub(skew)
        };
        steps.push(TraceStep {
            now_ms,
            member: rng.gen_range(0..params.members),
            epoch,
            msg: rng.gen_range(0..4),
            proof_ok: rng.gen_bool(0.9),
        });
    }
    steps
}

/// Delta-debugging shrinker: given a trace for which `still_fails`
/// holds, returns a locally minimal sub-trace that still fails. Tries
/// removing exponentially shrinking chunks, then single steps, until a
/// fixed point.
pub fn shrink_trace(
    steps: &[TraceStep],
    mut still_fails: impl FnMut(&[TraceStep]) -> bool,
) -> Vec<TraceStep> {
    let mut current = steps.to_vec();
    debug_assert!(still_fails(&current));
    let mut chunk = current.len().div_ceil(2).max(1);
    loop {
        let mut shrunk = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if !candidate.is_empty() && still_fails(&candidate) {
                current = candidate;
                shrunk = true;
                // retry the same window against the shorter trace
            } else {
                start = end;
            }
        }
        if !shrunk {
            if chunk == 1 {
                return current;
            }
            chunk = chunk.div_ceil(2).max(1);
        }
    }
}

/// Serializes a trace in the corpus format: a header of
/// `epoch_secs` / `max_delay_ms` / `members` lines followed by one
/// `step <now_ms> <member> <epoch> <msg> <0|1>` line per step. Lines
/// starting with `#` and blank lines are comments.
pub fn format_trace(params: &TraceParams, steps: &[TraceStep]) -> String {
    let mut out = String::new();
    out.push_str(&format!("epoch_secs {}\n", params.epoch_secs));
    out.push_str(&format!("max_delay_ms {}\n", params.max_delay_ms));
    out.push_str(&format!("members {}\n", params.members));
    for s in steps {
        out.push_str(&format!(
            "step {} {} {} {} {}\n",
            s.now_ms,
            s.member,
            s.epoch,
            s.msg,
            u8::from(s.proof_ok)
        ));
    }
    out
}

/// Parses the corpus format written by [`format_trace`].
pub fn parse_trace(text: &str) -> Result<(TraceParams, Vec<TraceStep>), String> {
    let mut epoch_secs = None;
    let mut max_delay_ms = None;
    let mut members = None;
    let mut steps = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.split_whitespace();
        // lint:allow(panic-path, reason = "guarded: blank lines are skipped above, so a first token exists")
        let key = words.next().expect("non-empty line has a first word");
        let mut next_u64 = |name: &str| -> Result<u64, String> {
            words
                .next()
                .ok_or_else(|| format!("line {}: missing {name}", lineno + 1))?
                .parse::<u64>()
                .map_err(|e| format!("line {}: bad {name}: {e}", lineno + 1))
        };
        match key {
            "epoch_secs" => epoch_secs = Some(next_u64("epoch_secs")?),
            "max_delay_ms" => max_delay_ms = Some(next_u64("max_delay_ms")?),
            "members" => members = Some(next_u64("members")?),
            "step" => {
                let now_ms = next_u64("now_ms")?;
                let member = next_u64("member")? as usize;
                let epoch = next_u64("epoch")?;
                let msg = next_u64("msg")?;
                let proof_ok = match next_u64("proof_ok")? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(format!(
                            "line {}: proof_ok must be 0/1, got {other}",
                            lineno + 1
                        ))
                    }
                };
                steps.push(TraceStep {
                    now_ms,
                    member,
                    epoch,
                    msg,
                    proof_ok,
                });
            }
            other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
        }
        if words.next().is_some() {
            return Err(format!("line {}: trailing tokens", lineno + 1));
        }
    }
    let params = TraceParams {
        epoch_secs: epoch_secs.ok_or("missing epoch_secs header")?,
        max_delay_ms: max_delay_ms.ok_or("missing max_delay_ms header")?,
        members: members.ok_or("missing members header")? as usize,
    };
    if params.epoch_secs == 0 {
        return Err("epoch_secs must be nonzero".into());
    }
    if params.members == 0 {
        return Err("members must be nonzero".into());
    }
    for (i, s) in steps.iter().enumerate() {
        if s.member >= params.members {
            return Err(format!("step {i}: member {} out of range", s.member));
        }
    }
    Ok((params, steps))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> TraceParams {
        TraceParams {
            epoch_secs: 10,
            max_delay_ms: 20_000, // Thr = 2
            members: 4,
        }
    }

    #[test]
    fn fabricated_double_signal_recovers_the_secret() {
        let p = params();
        let local = p.scheme().epoch_at_ms(5_000);
        let steps = [
            TraceStep {
                now_ms: 5_000,
                member: 1,
                epoch: local,
                msg: 0,
                proof_ok: true,
            },
            TraceStep {
                now_ms: 5_500,
                member: 1,
                epoch: local,
                msg: 1,
                proof_ok: true,
            },
        ];
        let state = replay(&p, &steps).expect("no invariant violated");
        assert_eq!(state.detections.len(), 1);
        assert_eq!(
            state.detections[0].evidence.revealed_secret,
            p.member_identity(1).secret()
        );
    }

    #[test]
    fn generated_traces_uphold_all_invariants() {
        let p = params();
        for seed in 0..20 {
            let steps = generate_trace(&p, seed, 400);
            assert_eq!(steps.len(), 400);
            replay(&p, &steps).unwrap_or_else(|v| {
                panic!("seed {seed}: step {}: {}", v.step_index, v.description)
            });
        }
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let p = params();
        assert_eq!(generate_trace(&p, 7, 100), generate_trace(&p, 7, 100));
        assert_ne!(generate_trace(&p, 7, 100), generate_trace(&p, 8, 100));
    }

    #[test]
    fn corpus_format_round_trips() {
        let p = params();
        let steps = generate_trace(&p, 3, 50);
        let text = format_trace(&p, &steps);
        let (p2, steps2) = parse_trace(&text).expect("parses");
        assert_eq!(p, p2);
        assert_eq!(steps, steps2);
    }

    #[test]
    fn parse_rejects_malformed_corpora() {
        assert!(parse_trace("step 1 0 0 0 1\n").is_err(), "missing header");
        let header = "epoch_secs 10\nmax_delay_ms 20000\nmembers 2\n";
        assert!(
            parse_trace(&format!("{header}step 1 5 0 0 1\n")).is_err(),
            "member range"
        );
        assert!(
            parse_trace(&format!("{header}step 1 0 0 0 2\n")).is_err(),
            "proof_ok"
        );
        assert!(
            parse_trace(&format!("{header}step 1 0 0 0\n")).is_err(),
            "arity"
        );
        assert!(
            parse_trace(&format!("{header}step 1 0 0 0 1 9\n")).is_err(),
            "trailing"
        );
        assert!(
            parse_trace(&format!("{header}bogus 3\n")).is_err(),
            "unknown key"
        );
        assert!(parse_trace("# only comments\n\n").is_err(), "empty");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# a comment\nepoch_secs 10\n\nmax_delay_ms 20000\nmembers 1\n# trailer\n";
        let (p, steps) = parse_trace(text).expect("parses");
        assert_eq!(p.members, 1);
        assert!(steps.is_empty());
    }

    #[test]
    fn shrinker_reaches_a_local_minimum() {
        let p = params();
        let local = p.scheme().epoch_at_ms(5_000);
        // plant a double-signal inside honest noise, then shrink against
        // "replay ends with a detection"
        let mut steps = generate_trace(&p, 11, 60);
        steps.retain(|s| !s.proof_ok || s.msg == 0); // remove organic doubles
        steps.push(TraceStep {
            now_ms: 600_000,
            member: 0,
            epoch: local + 60_000 / 10_000,
            msg: 1,
            proof_ok: true,
        });
        let fails = |t: &[TraceStep]| {
            replay(&p, t)
                .map(|s| !s.detections.is_empty())
                .unwrap_or(true)
        };
        // ensure the predicate actually holds before shrinking
        let steps = if fails(&steps) {
            steps
        } else {
            vec![
                TraceStep {
                    now_ms: 5_000,
                    member: 0,
                    epoch: local,
                    msg: 0,
                    proof_ok: true,
                },
                TraceStep {
                    now_ms: 5_100,
                    member: 0,
                    epoch: local,
                    msg: 1,
                    proof_ok: true,
                },
            ]
        };
        let shrunk = shrink_trace(&steps, fails);
        assert!(fails(&shrunk));
        assert!(shrunk.len() <= steps.len());
        // removing any single remaining step must break the predicate
        for i in 0..shrunk.len() {
            let mut cand = shrunk.clone();
            cand.remove(i);
            if !cand.is_empty() {
                assert!(!fails(&cand), "shrunk trace not 1-minimal at {i}");
            }
        }
    }

    #[test]
    fn member_identity_is_stable_and_bounded() {
        let p = params();
        assert_eq!(p.member_identity(0), p.member_identity(0));
        assert_ne!(p.member_identity(0), p.member_identity(1));
    }

    #[test]
    #[should_panic(expected = "member index out of range")]
    fn member_identity_out_of_range_panics() {
        params().member_identity(4);
    }
}
