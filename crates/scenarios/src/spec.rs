//! The declarative scenario description.
//!
//! A [`ScenarioSpec`] is a complete, self-contained description of one
//! simulated world: how many peers of which kinds, how they are wired,
//! what the links look like, who publishes when, who attacks how, and
//! which peers crash or join at which simulated timestamps. Given the
//! same spec and seed, the engine replays the exact same run — the
//! resulting [`ScenarioReport`](crate::report::ScenarioReport) is
//! byte-identical.

use waku_rln_relay::{EpochScheme, PipelineConfig, MAX_TREE_DEPTH};

/// Bootstrap-topology family (the shapes used in p2p evaluations; the
/// GossipSub paper evaluates on random regular-ish graphs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TopologySpec {
    /// Random graph, each peer bootstrapped with `degree` random peers
    /// (edges symmetrized).
    RandomRegular {
        /// Bootstrap degree per peer.
        degree: usize,
    },
    /// A ring — worst-case diameter, used for propagation stress.
    Ring,
}

/// Link latency family (mirrors `wakurln_netsim::latency`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LatencySpec {
    /// Fixed latency on every link.
    Constant {
        /// One-way delay, milliseconds.
        ms: u64,
    },
    /// Uniformly random latency in `[min_ms, max_ms]`.
    Uniform {
        /// Lower bound (inclusive), milliseconds.
        min_ms: u64,
        /// Upper bound (inclusive), milliseconds.
        max_ms: u64,
    },
}

/// Honest traffic: recurring publish rounds.
///
/// Each round, `publishers` distinct live honest members publish one
/// unique payload each through the full RLN pipeline (proof generation,
/// epoch nullifier, rate limit).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrafficSpec {
    /// Publishers per round.
    pub publishers: usize,
    /// Number of rounds.
    pub rounds: usize,
    /// Simulated time of the first round, milliseconds (leave room for
    /// mesh formation).
    pub start_ms: u64,
    /// Gap between rounds, milliseconds. Keep it above the epoch length
    /// if the same peer may be drawn twice, or the local rate limiter
    /// refuses the second publish.
    pub interval_ms: u64,
}

/// The double-signaling spam attack: `spammers` adversarial members each
/// publish `burst` distinct messages inside one epoch at `at_ms`,
/// bypassing their local rate limiters (§III — only the network-side
/// nullifier maps can catch this).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpamSpec {
    /// Number of spamming members.
    pub spammers: usize,
    /// Distinct messages per spammer inside the epoch.
    pub burst: usize,
    /// When the burst fires, milliseconds.
    pub at_ms: u64,
}

/// What happens at one churn timestamp.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChurnAction {
    /// `peers` live honest peers crash (process death: no goodbye, no
    /// slash — their stake stays on the contract).
    Crash {
        /// How many peers die.
        peers: usize,
    },
    /// `peers` fresh peers join: new identity, registration transaction,
    /// full §III group-synchronization bootstrap from the replay log.
    Join {
        /// How many peers join.
        peers: usize,
    },
}

/// One entry of the churn schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnEvent {
    /// Simulated time the event fires, milliseconds.
    pub at_ms: u64,
    /// What happens.
    pub action: ChurnAction,
}

/// A timed crash→restart fault: `peers` live honest peers crash at
/// `at_ms` and restart `downtime_ms` later. Restarted peers come back in
/// their original slot (stable id, continuous per-node metrics), re-run
/// gossip startup (re-subscribe, re-graft bounded by the PRUNE backoff)
/// and resynchronize the group via the harness replay log — immediately
/// when the registration contract is reachable, with counted retries
/// when a [`ContractOutageEvent`] overlaps the restart.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RestartEvent {
    /// Crash time, milliseconds.
    pub at_ms: u64,
    /// How many live honest peers crash.
    pub peers: usize,
    /// Downtime before the restart, milliseconds.
    pub downtime_ms: u64,
    /// `true` = warm rejoin (tree/validator state survived on disk; only
    /// the missed events replay). `false` = cold rejoin (state wiped;
    /// full group resynchronization from genesis).
    pub warm: bool,
}

/// A network partition: at `at_ms` the live population splits into a
/// majority and a minority group; every cross-group send is dropped until
/// the partition heals `heal_after_ms` later. Keep `heal_after_ms` plus
/// the time to the next keepalive below the gossip `peer_timeout_ms`
/// (default 30 s), or the liveness sweep prunes cross-partition mesh
/// links permanently and the halves never re-merge on their own.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionEvent {
    /// Partition start, milliseconds.
    pub at_ms: u64,
    /// Time until the partition heals, milliseconds.
    pub heal_after_ms: u64,
    /// Fraction of live peers cut off into the minority group, in
    /// `(0, 0.5]`.
    pub minority_fraction: f64,
}

/// A link-degradation burst: for `duration_ms` every send additionally
/// loses with probability `extra_loss` (independent of the base loss) and
/// every delivered message takes `extra_latency_ms` longer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradationEvent {
    /// Burst start, milliseconds.
    pub at_ms: u64,
    /// Burst length, milliseconds.
    pub duration_ms: u64,
    /// Additional i.i.d. loss probability in `[0, 1]`.
    pub extra_loss: f64,
    /// Additional per-message latency, milliseconds.
    pub extra_latency_ms: u64,
}

/// A registration-contract outage: from `at_ms` for `duration_ms`, every
/// `Register` transaction reverts (stake refunded) and restarted peers
/// cannot complete their group resync — each retries once per lock-step
/// slice (counted as `resync_retries`) until the outage lifts. Slashing
/// is unaffected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContractOutageEvent {
    /// Outage start, milliseconds.
    pub at_ms: u64,
    /// Outage length, milliseconds.
    pub duration_ms: u64,
}

/// The deterministic fault-injection plan: timed crash→restart cycles,
/// network partitions, link-degradation bursts and registration-contract
/// outages. Empty by default — and with an empty plan every
/// `resilience_*` report field is `null`, byte-identical to pre-fault
/// reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Crash→restart cycles.
    pub restarts: Vec<RestartEvent>,
    /// Partition/heal windows.
    pub partitions: Vec<PartitionEvent>,
    /// Link-degradation bursts.
    pub degradations: Vec<DegradationEvent>,
    /// Registration-contract outages.
    pub contract_outages: Vec<ContractOutageEvent>,
}

impl FaultPlan {
    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.restarts.is_empty()
            && self.partitions.is_empty()
            && self.degradations.is_empty()
            && self.contract_outages.is_empty()
    }

    /// Every fault window as `(start_ms, end_ms)` — restart downtimes,
    /// partition spans, degradation bursts and contract outages. The
    /// engine classifies traffic rounds as in-fault or post-heal against
    /// these.
    pub fn windows(&self) -> Vec<(u64, u64)> {
        let mut windows: Vec<(u64, u64)> = Vec::new();
        for r in &self.restarts {
            windows.push((r.at_ms, r.at_ms + r.downtime_ms));
        }
        for p in &self.partitions {
            windows.push((p.at_ms, p.at_ms + p.heal_after_ms));
        }
        for d in &self.degradations {
            windows.push((d.at_ms, d.at_ms + d.duration_ms));
        }
        for o in &self.contract_outages {
            windows.push((o.at_ms, o.at_ms + o.duration_ms));
        }
        windows
    }

    /// End of the last fault window (0 for an empty plan).
    pub fn last_end_ms(&self) -> u64 {
        self.windows()
            .iter()
            .map(|(_, end)| *end)
            .max()
            .unwrap_or(0)
    }

    /// Checks internal consistency (each schedule sorted by start time,
    /// all parameters in range).
    ///
    /// # Panics
    ///
    /// Panics on an impossible plan.
    pub fn validate(&self) {
        assert!(
            self.restarts.is_sorted_by_key(|r| r.at_ms),
            "restart schedule must be sorted by time"
        );
        assert!(
            self.partitions.is_sorted_by_key(|p| p.at_ms),
            "partition schedule must be sorted by time"
        );
        assert!(
            self.degradations.is_sorted_by_key(|d| d.at_ms),
            "degradation schedule must be sorted by time"
        );
        assert!(
            self.contract_outages.is_sorted_by_key(|o| o.at_ms),
            "contract-outage schedule must be sorted by time"
        );
        for r in &self.restarts {
            assert!(r.peers >= 1, "a restart event needs at least one peer");
            assert!(r.downtime_ms >= 1, "downtime must be positive");
        }
        for p in &self.partitions {
            assert!(p.heal_after_ms >= 1, "partition must last some time");
            assert!(
                p.minority_fraction > 0.0 && p.minority_fraction <= 0.5,
                "minority fraction must be in (0, 0.5]"
            );
        }
        for d in &self.degradations {
            assert!(d.duration_ms >= 1, "degradation must last some time");
            assert!(
                (0.0..=1.0).contains(&d.extra_loss),
                "extra loss out of range"
            );
        }
        for o in &self.contract_outages {
            assert!(o.duration_ms >= 1, "outage must last some time");
        }
    }
}

/// The targeted censorship-eclipse attack: peer 0 (the victim) is
/// bootstrapped **exclusively** to `attackers` adversarial peers, and no
/// honest peer knows the victim. The attackers answer all control
/// traffic (subscriptions, grafts, pings) but silently drop every
/// message forward — the victim sees a healthy-looking mesh that never
/// delivers anything.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EclipseSpec {
    /// Size of the censoring bootstrap ring around the victim.
    pub attackers: usize,
}

/// The colluding passive-surveillance adversary: a fraction of the
/// honest relay population is secretly controlled by one adversary who
/// records, at each controlled node, every incoming message forward as
/// `(message_id, arrival_ms, previous_hop)`. After the run, attribution
/// estimators (first-spy / earliest-arrival, neighbour-weighted
/// centrality) pool those tapes and guess each message's publisher —
/// the deanonymization attack surface analysed in "Who started this
/// rumor?" (Bellet et al.) and "On the Inherent Anonymity of Gossiping"
/// (Guerraoui et al.), see `PAPERS.md`.
///
/// Observers stay protocol-honest (they relay, graft and gossip
/// normally) but are excluded from the honest publisher pool — the
/// adversary does not publish the traffic it is trying to attribute.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SurveillanceSpec {
    /// Fraction of the initial honest population the adversary controls,
    /// in `(0, 1]`. The observer count is `round(fraction · honest)`,
    /// clamped to leave at least two honest non-observers.
    pub observer_fraction: f64,
}

/// A device class for heterogeneous-network scenarios: a name, a proof
/// verification cost (the dominant validation cost, §IV: ≈30 ms on an
/// iPhone 8) and a relative share of the honest population.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceClassSpec {
    /// Class label (reporting only).
    pub name: &'static str,
    /// Simulated zkSNARK verification cost, microseconds.
    pub verify_proof_micros: u64,
    /// Relative weight when assigning classes round-robin.
    pub share: u32,
}

/// The full declarative scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (report label; built-ins use their library name).
    pub name: String,
    /// Honest peers at start (includes the eclipse victim, when any).
    pub honest: usize,
    /// Determinism seed: topology, latencies, identity material, traffic
    /// draws and churn draws all derive from it.
    pub seed: u64,
    /// Membership tree depth; `0` = auto-size from the peer count. At
    /// most [`MAX_TREE_DEPTH`].
    pub tree_depth: usize,
    /// Bootstrap topology for the honest population.
    pub topology: TopologySpec,
    /// Link latency model.
    pub latency: LatencySpec,
    /// I.i.d. packet-loss probability applied to every send.
    pub loss: f64,
    /// Epoch scheme (length `T` and delay bound `D` → `Thr = ⌈D/T⌉`).
    pub epoch: EpochScheme,
    /// Honest traffic schedule.
    pub traffic: TrafficSpec,
    /// Spam attack, if any.
    pub spam: Option<SpamSpec>,
    /// Churn schedule (must be sorted by `at_ms`; the engine asserts).
    pub churn: Vec<ChurnEvent>,
    /// Deterministic fault-injection plan (crash→restart cycles,
    /// partitions, link-degradation bursts, contract outages). Empty
    /// disables fault injection and leaves every `resilience_*` report
    /// field `null`.
    pub faults: FaultPlan,
    /// Targeted eclipse attack, if any.
    pub eclipse: Option<EclipseSpec>,
    /// Colluding passive-surveillance adversary, if any. Enables the
    /// `anonymity_*` section of the report.
    pub surveillance: Option<SurveillanceSpec>,
    /// Source-anonymity countermeasure: publishers hold each first-hop
    /// copy of their own messages back for an independent uniform delay
    /// in `[0, publish_jitter_ms]`, drawn from the node's deterministic
    /// RNG stream (so the determinism contract is untouched). `0`
    /// disables the countermeasure. Costs propagation latency, buys
    /// attribution resistance — the trade-off curve the gossip-privacy
    /// papers predict.
    pub publish_jitter_ms: u64,
    /// Device mix; empty = every peer uses the default cost model.
    pub devices: Vec<DeviceClassSpec>,
    /// Batched-validation pipeline knobs for every relay (`max_batch`,
    /// `flush_interval_ms`, `cache_capacity`); `None` runs the serial
    /// per-message validator — the pre-pipeline behaviour, byte-identical
    /// reports included.
    pub pipeline: Option<PipelineConfig>,
    /// Unused: the scheduler runs every event on the calling thread.
    /// Kept only because the out-of-workspace `benchmark/` package still
    /// sets and asserts it; goes once that package stops doing so.
    pub threads: usize,
    /// Cool-down after the last scheduled event, milliseconds — time for
    /// gossip recovery, detection, slashing and sync to play out.
    pub drain_ms: u64,
    /// Lock-step slice for world advancement, milliseconds (network ↔
    /// chain synchronization granularity).
    pub slice_ms: u64,
}

impl ScenarioSpec {
    /// A quiet, attack-free starting point: `honest` peers on a random
    /// regular graph with internet-ish uniform latency, default epochs,
    /// and a small recurring traffic schedule. Library scenarios start
    /// from this and layer adversities on top.
    pub fn baseline(honest: usize, seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            name: "baseline".to_string(),
            honest,
            seed,
            tree_depth: 0,
            topology: TopologySpec::RandomRegular { degree: 6 },
            latency: LatencySpec::Uniform {
                min_ms: 10,
                max_ms: 80,
            },
            loss: 0.0,
            epoch: EpochScheme::default(),
            traffic: TrafficSpec {
                publishers: (honest / 8).clamp(2, 24),
                rounds: 3,
                start_ms: 10_000,
                interval_ms: 12_000,
            },
            spam: None,
            churn: Vec::new(),
            faults: FaultPlan::default(),
            eclipse: None,
            surveillance: None,
            publish_jitter_ms: 0,
            devices: Vec::new(),
            pipeline: None,
            threads: 1,
            drain_ms: 40_000,
            slice_ms: 1_000,
        }
    }

    /// Total peers at simulation start (honest + spammers + eclipse
    /// attackers).
    pub fn initial_peers(&self) -> usize {
        self.honest
            + self.spam.map(|s| s.spammers).unwrap_or(0)
            + self.eclipse.map(|e| e.attackers).unwrap_or(0)
    }

    /// Peers that register over the whole run: the initial population
    /// plus every scheduled join. The membership tree must hold them all.
    fn registered_peers(&self) -> usize {
        let joins: usize = self
            .churn
            .iter()
            .map(|e| match e.action {
                ChurnAction::Join { peers } => peers,
                ChurnAction::Crash { .. } => 0,
            })
            .sum();
        self.initial_peers() + joins
    }

    /// The tree depth actually used: explicit, or auto-sized to hold the
    /// initial population plus scheduled joins with headroom, clamped to
    /// `[10, MAX_TREE_DEPTH]`.
    pub fn effective_tree_depth(&self) -> usize {
        if self.tree_depth != 0 {
            return self.tree_depth;
        }
        let capacity_needed = self.registered_peers() * 2;
        let mut depth = 10;
        while depth < MAX_TREE_DEPTH && (1usize << depth) < capacity_needed {
            depth += 1;
        }
        depth
    }

    /// Number of colluding observers the surveillance adversary controls:
    /// `round(observer_fraction · honest)`, at least 1, leaving at least
    /// two honest non-observers to publish. 0 without surveillance.
    pub fn observer_count(&self) -> usize {
        match self.surveillance {
            None => 0,
            Some(s) => {
                let wanted = (self.honest as f64 * s.observer_fraction).round() as usize;
                wanted.clamp(1, self.honest.saturating_sub(2))
            }
        }
    }

    /// Simulated end time: last scheduled event plus the drain window.
    pub fn duration_ms(&self) -> u64 {
        let last_traffic = self.traffic.start_ms
            + self.traffic.interval_ms * self.traffic.rounds.saturating_sub(1) as u64;
        let last_spam = self.spam.map(|s| s.at_ms).unwrap_or(0);
        let last_churn = self.churn.last().map(|e| e.at_ms).unwrap_or(0);
        let last_fault = self.faults.last_end_ms();
        last_traffic.max(last_spam).max(last_churn).max(last_fault) + self.drain_ms
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on an impossible spec (no peers, unsorted churn, loss out
    /// of range, zero slice, eclipse without enough honest peers, a tree
    /// deeper than [`MAX_TREE_DEPTH`] or too shallow for the initial peers
    /// plus scheduled joins).
    pub fn validate(&self) {
        assert!(self.honest >= 2, "need at least two honest peers");
        assert!((0.0..=1.0).contains(&self.loss), "loss out of range");
        assert!(self.slice_ms > 0, "slice must be positive");
        assert!(
            self.churn.is_sorted_by_key(|e| e.at_ms),
            "churn schedule must be sorted by time"
        );
        self.faults.validate();
        if let Some(e) = self.eclipse {
            assert!(e.attackers >= 1, "eclipse needs at least one attacker");
            assert!(
                self.honest >= 3,
                "eclipse needs a victim plus honest bystanders"
            );
        }
        if let Some(s) = self.spam {
            assert!(s.spammers >= 1 && s.burst >= 2, "spam needs a real burst");
        }
        if let Some(s) = self.surveillance {
            assert!(
                s.observer_fraction > 0.0 && s.observer_fraction <= 1.0,
                "observer fraction out of range"
            );
            assert!(
                self.honest >= 4,
                "surveillance needs observers plus honest publishers"
            );
        }
        if let Some(p) = self.pipeline {
            assert!(p.max_batch >= 1, "pipeline batch must hold a message");
            assert!(
                p.flush_interval_ms >= 1,
                "pipeline flush interval must be positive"
            );
        }
        let depth = self.effective_tree_depth();
        assert!(
            depth <= MAX_TREE_DEPTH,
            "tree depth {depth} is above the supported maximum {MAX_TREE_DEPTH}"
        );
        let registered = self.registered_peers();
        assert!(
            (1usize << depth) >= registered,
            "tree depth {depth} cannot hold {registered} peers (initial plus scheduled joins)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_valid_at_many_sizes() {
        for n in [2, 8, 100, 1000, 2000] {
            ScenarioSpec::baseline(n, 1).validate();
        }
    }

    #[test]
    fn auto_depth_scales_with_population() {
        let small = ScenarioSpec::baseline(8, 1);
        assert_eq!(small.effective_tree_depth(), 10); // floor
        let big = ScenarioSpec::baseline(2000, 1);
        assert!((1 << big.effective_tree_depth()) >= 4000);
        let mut with_joins = ScenarioSpec::baseline(500, 1);
        with_joins.churn.push(ChurnEvent {
            at_ms: 1000,
            action: ChurnAction::Join { peers: 600 },
        });
        assert!((1 << with_joins.effective_tree_depth()) >= 2200);
    }

    #[test]
    fn auto_depth_grows_past_20_for_large_populations() {
        let spec = ScenarioSpec::baseline(600_000, 1);
        spec.validate();
        assert_eq!(spec.effective_tree_depth(), 21);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn joins_beyond_tree_capacity_rejected() {
        // 12 initial peers fit a depth-4 tree (16 leaves); 8 joins do not
        let mut spec = ScenarioSpec::baseline(12, 3);
        spec.tree_depth = 4;
        spec.churn.push(ChurnEvent {
            at_ms: 12_000,
            action: ChurnAction::Join { peers: 8 },
        });
        spec.drain_ms = 60_000;
        spec.validate();
    }

    #[test]
    fn depths_above_the_merkle_maximum_rejected() {
        // 33 is one past merkle::MAX_DEPTH; 64 would overflow the
        // capacity check's `1usize << depth` were it to run first
        for depth in [33, 64] {
            let mut spec = ScenarioSpec::baseline(8, 1);
            spec.tree_depth = depth;
            let err = std::panic::catch_unwind(|| spec.validate())
                .expect_err("an unsupported depth must not validate");
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(
                msg.contains("above the supported maximum"),
                "depth {depth}: {msg}"
            );
        }
    }

    #[test]
    fn duration_covers_last_event_plus_drain() {
        let mut spec = ScenarioSpec::baseline(8, 1);
        spec.traffic = TrafficSpec {
            publishers: 2,
            rounds: 2,
            start_ms: 10_000,
            interval_ms: 12_000,
        };
        spec.drain_ms = 5_000;
        assert_eq!(spec.duration_ms(), 27_000);
        spec.churn.push(ChurnEvent {
            at_ms: 60_000,
            action: ChurnAction::Crash { peers: 1 },
        });
        assert_eq!(spec.duration_ms(), 65_000);
    }

    #[test]
    fn observer_count_scales_and_leaves_publishers() {
        let mut spec = ScenarioSpec::baseline(100, 1);
        assert_eq!(spec.observer_count(), 0);
        spec.surveillance = Some(SurveillanceSpec {
            observer_fraction: 0.10,
        });
        assert_eq!(spec.observer_count(), 10);
        spec.validate();
        // even full collusion leaves two honest publishers
        spec.surveillance = Some(SurveillanceSpec {
            observer_fraction: 1.0,
        });
        assert_eq!(spec.observer_count(), 98);
        // a tiny fraction still fields at least one observer
        spec.surveillance = Some(SurveillanceSpec {
            observer_fraction: 0.001,
        });
        assert_eq!(spec.observer_count(), 1);
    }

    #[test]
    #[should_panic(expected = "observer fraction out of range")]
    fn zero_observer_fraction_rejected() {
        let mut spec = ScenarioSpec::baseline(10, 1);
        spec.surveillance = Some(SurveillanceSpec {
            observer_fraction: 0.0,
        });
        spec.validate();
    }

    fn small_fault_plan() -> FaultPlan {
        FaultPlan {
            restarts: vec![RestartEvent {
                at_ms: 20_000,
                peers: 2,
                downtime_ms: 10_000,
                warm: true,
            }],
            partitions: vec![PartitionEvent {
                at_ms: 40_000,
                heal_after_ms: 20_000,
                minority_fraction: 0.3,
            }],
            degradations: vec![DegradationEvent {
                at_ms: 70_000,
                duration_ms: 10_000,
                extra_loss: 0.1,
                extra_latency_ms: 50,
            }],
            contract_outages: vec![ContractOutageEvent {
                at_ms: 75_000,
                duration_ms: 25_000,
            }],
        }
    }

    #[test]
    fn fault_plan_windows_and_duration_fold_into_the_spec() {
        let plan = small_fault_plan();
        plan.validate();
        assert!(!plan.is_empty());
        assert_eq!(plan.windows().len(), 4);
        assert_eq!(plan.last_end_ms(), 100_000);
        let mut spec = ScenarioSpec::baseline(8, 1);
        let quiet_duration = spec.duration_ms();
        spec.faults = plan;
        spec.validate();
        assert_eq!(spec.duration_ms(), 100_000 + spec.drain_ms);
        assert!(spec.duration_ms() > quiet_duration);
        // an empty plan keeps the quiet duration — schema-stable reports
        spec.faults = FaultPlan::default();
        assert!(spec.faults.is_empty());
        assert_eq!(spec.faults.last_end_ms(), 0);
        assert_eq!(spec.duration_ms(), quiet_duration);
    }

    #[test]
    #[should_panic(expected = "minority fraction must be in (0, 0.5]")]
    fn majority_partition_rejected() {
        let mut plan = small_fault_plan();
        plan.partitions[0].minority_fraction = 0.6;
        plan.validate();
    }

    #[test]
    #[should_panic(expected = "restart schedule must be sorted")]
    fn unsorted_restarts_rejected() {
        let mut plan = small_fault_plan();
        plan.restarts.push(RestartEvent {
            at_ms: 1_000,
            peers: 1,
            downtime_ms: 1_000,
            warm: false,
        });
        plan.validate();
    }

    #[test]
    #[should_panic(expected = "extra loss out of range")]
    fn degradation_loss_out_of_range_rejected() {
        let mut plan = small_fault_plan();
        plan.degradations[0].extra_loss = 1.5;
        plan.validate();
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn unsorted_churn_rejected() {
        let mut spec = ScenarioSpec::baseline(8, 1);
        spec.churn = vec![
            ChurnEvent {
                at_ms: 2000,
                action: ChurnAction::Crash { peers: 1 },
            },
            ChurnEvent {
                at_ms: 1000,
                action: ChurnAction::Crash { peers: 1 },
            },
        ];
        spec.validate();
    }
}
