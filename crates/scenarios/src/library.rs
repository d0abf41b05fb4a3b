//! The built-in scenario library.
//!
//! Thirteen canonical workloads, each parameterized by network size and
//! seed so the same scenario runs at 8 peers in a unit test and at
//! 1000–10000 peers under `simctl`. Attack intensity and traffic volume
//! scale with the population. See `docs/SCENARIOS.md` for what each
//! scenario stresses and which paper claim it exercises.

use crate::spec::{
    ChurnAction, ChurnEvent, ContractOutageEvent, DegradationEvent, DeviceClassSpec, EclipseSpec,
    PartitionEvent, RestartEvent, ScenarioSpec, SpamSpec, SurveillanceSpec, TrafficSpec,
};
use waku_rln_relay::{EpochScheme, PipelineConfig};

/// Names of all built-in scenarios, in canonical order.
pub const BUILTIN_NAMES: [&str; 13] = [
    "baseline",
    "spam_burst",
    "targeted_eclipse",
    "heterogeneous_devices",
    "mass_churn",
    "epoch_boundary_race",
    "high_throughput",
    "massive_population",
    "metropolis",
    "passive_surveillance",
    "deanonymization_sweep",
    "partition_heal",
    "fault_storm",
];

/// Builds a built-in scenario by name, sized to `nodes` honest peers.
/// Returns `None` for an unknown name (see [`BUILTIN_NAMES`]).
pub fn builtin(name: &str, nodes: usize, seed: u64) -> Option<ScenarioSpec> {
    let spec = match name {
        "baseline" => baseline(nodes, seed),
        "spam_burst" => spam_burst(nodes, seed),
        "targeted_eclipse" => targeted_eclipse(nodes, seed),
        "heterogeneous_devices" => heterogeneous_devices(nodes, seed),
        "mass_churn" => mass_churn(nodes, seed),
        "epoch_boundary_race" => epoch_boundary_race(nodes, seed),
        "high_throughput" => high_throughput(nodes, seed),
        "massive_population" => massive_population(nodes, seed),
        "metropolis" => metropolis(nodes, seed),
        "passive_surveillance" => passive_surveillance(nodes, seed),
        "deanonymization_sweep" => deanonymization_sweep(nodes, seed),
        "partition_heal" => partition_heal(nodes, seed),
        "fault_storm" => fault_storm(nodes, seed),
        _ => return None,
    };
    Some(spec)
}

/// Honest relays only: the paper's steady-state. Measures delivery rate,
/// propagation percentiles and per-node bandwidth with no adversary.
pub fn baseline(nodes: usize, seed: u64) -> ScenarioSpec {
    ScenarioSpec::baseline(nodes, seed)
}

/// The double-signaling flood (§III): ~1% of members spam `burst`
/// distinct messages inside one epoch. The claim under test: spam is
/// contained (≤ 1 majority delivery per spammer) and every spammer is
/// slashed, while honest traffic keeps flowing.
pub fn spam_burst(nodes: usize, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::baseline(nodes, seed);
    spec.name = "spam_burst".to_string();
    spec.spam = Some(SpamSpec {
        spammers: (nodes / 100).max(1),
        burst: 6,
        at_ms: 15_000,
    });
    // spam lands between honest rounds so containment and delivery are
    // measured on the same run
    spec.drain_ms = 60_000;
    spec
}

/// The targeted censorship eclipse: peer 0 bootstraps exclusively to
/// censoring adversaries who answer control traffic but drop all
/// forwards. The claim under test: gossip delivers network-wide while
/// the victim starves — quantifying what a bootstrap-level eclipse buys
/// an adversary (cf. the gossip-privacy literature's adversary models).
pub fn targeted_eclipse(nodes: usize, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::baseline(nodes, seed);
    spec.name = "targeted_eclipse".to_string();
    spec.eclipse = Some(EclipseSpec {
        attackers: 8.min(nodes / 2).max(1),
    });
    spec
}

/// Heterogeneous devices (§I "resource-restricted devices"): a mix of
/// iot-sensor / phone / laptop / server validation profiles. The claim
/// under test: RLN's validation cost stays feasible for weak devices
/// (cpu per node scales with the profile, delivery unaffected).
pub fn heterogeneous_devices(nodes: usize, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::baseline(nodes, seed);
    spec.name = "heterogeneous_devices".to_string();
    spec.devices = vec![
        DeviceClassSpec {
            name: "iot-sensor",
            verify_proof_micros: 300_000,
            share: 1,
        },
        DeviceClassSpec {
            name: "phone",
            verify_proof_micros: 30_000,
            share: 4,
        },
        DeviceClassSpec {
            name: "laptop",
            verify_proof_micros: 5_000,
            share: 4,
        },
        DeviceClassSpec {
            name: "server",
            verify_proof_micros: 1_000,
            share: 1,
        },
    ];
    spec
}

/// Mass churn: 10% of the network crashes mid-run, more peers join, and
/// another 10% crashes — with honest rounds before, between and after.
/// The claim under test: meshes repair around the holes (liveness
/// sweep, then re-graft) and late joiners bootstrap via §III group
/// sync, keeping delivery high for the survivors.
pub fn mass_churn(nodes: usize, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::baseline(nodes, seed);
    spec.name = "mass_churn".to_string();
    let tenth = (nodes / 10).max(1);
    spec.traffic = TrafficSpec {
        publishers: (nodes / 8).clamp(2, 24),
        rounds: 4,
        start_ms: 10_000,
        interval_ms: 45_000,
    };
    spec.churn = vec![
        ChurnEvent {
            at_ms: 20_000,
            action: ChurnAction::Crash { peers: tenth },
        },
        ChurnEvent {
            at_ms: 60_000,
            action: ChurnAction::Join {
                peers: (tenth / 2).max(1),
            },
        },
        ChurnEvent {
            at_ms: 110_000,
            action: ChurnAction::Crash { peers: tenth },
        },
    ];
    spec.drain_ms = 60_000;
    spec
}

/// The epoch-boundary race: high-latency links (up to the full delay
/// bound `D`) with publish rounds timed moments before each epoch
/// boundary, so messages are in flight when their epoch expires. The
/// claim under test: the `Thr = ⌈D/T⌉` window (§III) accepts honest
/// cross-boundary traffic — deliveries stay high and almost nothing is
/// dropped as out-of-window.
pub fn epoch_boundary_race(nodes: usize, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::baseline(nodes, seed);
    spec.name = "epoch_boundary_race".to_string();
    let epoch = EpochScheme::new(10, 20_000); // Thr = 2
    spec.epoch = epoch;
    spec.latency = crate::spec::LatencySpec::Uniform {
        min_ms: 200,
        max_ms: 4_000,
    };
    let period = epoch.epoch_secs * 1000;
    // rounds fire 300 ms before successive epoch boundaries; the mesh has
    // had two epochs to form
    spec.traffic = TrafficSpec {
        publishers: (nodes / 8).clamp(2, 24),
        rounds: 4,
        start_ms: 3 * period - 300,
        interval_ms: period,
    };
    spec.drain_ms = 45_000;
    spec
}

/// Heavy traffic through the batched validation pipeline: half the
/// honest population publishes every round while a spam burst lands
/// mid-run, so every relay's validator drains real batches. The claim
/// under test: batched validation (statement dedup + verdict caching
/// before zkSNARK work, bounded flush staleness) changes **no**
/// validation outcome — delivery, containment and slashing match the
/// serial validator — while decision latency stays bounded by
/// `flush_interval_ms`. The wall-clock amortization itself is measured
/// off-simulation by the benchmark's `relay_pipeline` workload.
pub fn high_throughput(nodes: usize, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::baseline(nodes, seed);
    spec.name = "high_throughput".to_string();
    spec.traffic = TrafficSpec {
        publishers: (nodes / 2).clamp(2, 400),
        rounds: 3,
        start_ms: 10_000,
        interval_ms: 12_000,
    };
    spec.spam = Some(SpamSpec {
        spammers: (nodes / 50).max(1),
        burst: 4,
        at_ms: 16_000,
    });
    spec.pipeline = Some(PipelineConfig::default());
    spec.drain_ms = 60_000;
    spec
}

/// The scale workload: an order of magnitude beyond the other built-ins
/// (run it at 10,000+ nodes: `simctl run massive_population --nodes
/// 10000`). Both gossip-privacy papers in `PAPERS.md` state their
/// guarantees as asymptotics in network size, so empirical
/// delivery/containment numbers only start meaning something here.
/// Traffic is sized per capita (publisher pool grows with the
/// population, per-node load stays flat).
pub fn massive_population(nodes: usize, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::baseline(nodes, seed);
    spec.name = "massive_population".to_string();
    spec.traffic = TrafficSpec {
        publishers: (nodes / 200).clamp(2, 100),
        rounds: 2,
        start_ms: 10_000,
        interval_ms: 12_000,
    };
    spec.drain_ms = 30_000;
    spec
}

/// The 100k-node workload — an order of magnitude past
/// [`massive_population`], sized to finish on **one core** (run it at
/// 100,000 nodes: `simctl run metropolis --nodes 100000`). Feasible
/// because membership sync hashes each registration burst once at the
/// canonical shared tree (peers apply `O(depth)` delta lookups, no
/// local hashing) and the scheduler's timing wheel pops event batches
/// in `O(1)` instead of `O(log n)` heap churn. The publisher pool is
/// kept small and absolute (not per capita): the point is group-sync
/// and event-floor scalability at census scale, not traffic volume —
/// per-node load must stay far below saturation or the run measures
/// queueing, not the protocol.
pub fn metropolis(nodes: usize, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::baseline(nodes, seed);
    spec.name = "metropolis".to_string();
    spec.traffic = TrafficSpec {
        publishers: (nodes / 10_000).clamp(2, 12),
        rounds: 2,
        start_ms: 10_000,
        interval_ms: 12_000,
    };
    spec.drain_ms = 8_000;
    spec
}

/// Passive surveillance (the gossip-privacy adversary model of both
/// PAPERS.md privacy works): 10% of the honest relays are colluding
/// observers recording `(message_id, arrival_ms, previous_hop)` on
/// every forward; the rest publish as usual. The claim under test: with
/// no countermeasure, first-spy / earliest-arrival attribution names
/// the true publisher for a substantial fraction of messages — WAKU's
/// PII-free envelope alone does **not** hide the source from a
/// network-level adversary (the `anonymity_*` report section
/// quantifies by how much).
pub fn passive_surveillance(nodes: usize, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::baseline(nodes, seed);
    spec.name = "passive_surveillance".to_string();
    spec.surveillance = Some(SurveillanceSpec {
        observer_fraction: 0.10,
    });
    // extra rounds stabilize the precision estimate
    spec.traffic.rounds = 4;
    spec
}

/// The deanonymization trade-off workload: a stronger colluding
/// adversary (25% of honest relays) against publishers whose first-hop
/// forward delay is the `publish_jitter_ms` countermeasure knob
/// (default off — sweep it, or the adversary fraction, from `simctl`
/// via `--publish-jitter` / `--adversary-fraction`). The claim under
/// test, from the related gossip-privacy analyses: attribution
/// precision falls as forward-delay jitter rises, while delivery stays
/// intact — privacy is bought with propagation latency, not loss.
pub fn deanonymization_sweep(nodes: usize, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::baseline(nodes, seed);
    spec.name = "deanonymization_sweep".to_string();
    spec.surveillance = Some(SurveillanceSpec {
        observer_fraction: 0.25,
    });
    spec.traffic.rounds = 4;
    spec
}

/// The partition-and-heal drill: 30% of the live network splits away
/// for 22 seconds — long enough to starve deliveries across the cut,
/// short enough that the 30-second gossipsub liveness sweep never prunes
/// the silent mesh links — with traffic rounds before, during and after.
/// The claim under test: delivery dips below 1.0 while the partition
/// holds and recovers to ≥ 0.99 after the heal, with the time-to-remesh
/// and the cross-cut message loss reported deterministically
/// (`resilience_*` section).
pub fn partition_heal(nodes: usize, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::baseline(nodes, seed);
    spec.name = "partition_heal".to_string();
    spec.traffic = TrafficSpec {
        publishers: (nodes / 8).clamp(2, 24),
        rounds: 4,
        start_ms: 10_000,
        interval_ms: 15_000,
    };
    // rounds at 10/25/40/55 s; the partition covers the 25 s and 40 s
    // rounds and heals at 42 s, so the 55 s round measures recovery
    spec.faults.partitions = vec![PartitionEvent {
        at_ms: 20_000,
        heal_after_ms: 22_000,
        minority_fraction: 0.3,
    }];
    spec.drain_ms = 45_000;
    spec
}

/// The combined fault storm: a warm restart wave (5% of the network down
/// for 10 s), a link-degradation burst, a registration-contract outage,
/// and a cold restart whose recovery lands **inside** the outage — so
/// the Merkle resync path has to retry until the contract returns. The
/// claim under test: every recovery path (re-subscribe/re-graft, warm
/// delta replay, cold genesis rebuild, bounded resync retry) composes
/// under overlapping faults, and the run replays byte-identically from
/// its seed.
pub fn fault_storm(nodes: usize, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::baseline(nodes, seed);
    spec.name = "fault_storm".to_string();
    spec.traffic = TrafficSpec {
        publishers: (nodes / 8).clamp(2, 24),
        rounds: 5,
        start_ms: 10_000,
        interval_ms: 20_000,
    };
    spec.faults.restarts = vec![
        RestartEvent {
            at_ms: 25_000,
            peers: (nodes / 20).max(1),
            downtime_ms: 10_000,
            warm: true,
        },
        // restores at 65 s, mid-outage: resync must retry until 85 s
        RestartEvent {
            at_ms: 60_000,
            peers: 1,
            downtime_ms: 5_000,
            warm: false,
        },
    ];
    spec.faults.degradations = vec![DegradationEvent {
        at_ms: 45_000,
        duration_ms: 10_000,
        extra_loss: 0.10,
        extra_latency_ms: 50,
    }];
    spec.faults.contract_outages = vec![ContractOutageEvent {
        at_ms: 55_000,
        duration_ms: 30_000,
    }];
    spec.drain_ms = 60_000;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_resolves_and_validates() {
        for name in BUILTIN_NAMES {
            for nodes in [8, 100, 1000] {
                let spec = builtin(name, nodes, 1).expect("known name");
                assert_eq!(spec.name, name);
                spec.validate();
            }
        }
    }

    #[test]
    fn massive_population_scales_publishers_per_capita() {
        assert_eq!(massive_population(10_000, 1).traffic.publishers, 50);
        assert_eq!(massive_population(100, 1).traffic.publishers, 2);
    }

    #[test]
    fn metropolis_is_single_core_with_a_bounded_publisher_pool() {
        let spec = metropolis(100_000, 1);
        assert_eq!(spec.traffic.publishers, 10);
        // publisher pool is absolute, not per capita: load per node must
        // not grow with the census
        assert_eq!(metropolis(1_000_000, 1).traffic.publishers, 12);
        assert_eq!(metropolis(1_000, 1).traffic.publishers, 2);
        // a 100k census auto-sizes the tree within the depth cap
        assert_eq!(spec.effective_tree_depth(), 18);
        spec.validate();
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(builtin("not-a-scenario", 10, 1).is_none());
    }

    #[test]
    fn surveillance_builtins_field_observers() {
        let spec = passive_surveillance(100, 1);
        assert_eq!(spec.observer_count(), 10);
        assert_eq!(spec.publish_jitter_ms, 0);
        let sweep = deanonymization_sweep(100, 1);
        assert_eq!(sweep.observer_count(), 25);
        assert_eq!(sweep.traffic.rounds, 4);
    }

    #[test]
    fn spam_burst_scales_attackers_with_population() {
        assert_eq!(spam_burst(100, 1).spam.unwrap().spammers, 1);
        assert_eq!(spam_burst(1000, 1).spam.unwrap().spammers, 10);
    }

    #[test]
    fn partition_heal_beats_the_liveness_sweep() {
        // the partition must heal before peer_timeout_ms (30 s) of mesh
        // silence, or the sweep prunes the cut links and the scenario
        // would measure mesh death instead of recovery
        let spec = partition_heal(200, 1);
        let p = spec.faults.partitions[0];
        assert!(p.heal_after_ms < 30_000);
        // at least one traffic round lands inside the window and at
        // least one after the heal
        let during = (0..spec.traffic.rounds)
            .map(|r| spec.traffic.start_ms + spec.traffic.interval_ms * r as u64)
            .filter(|t| *t >= p.at_ms && *t < p.at_ms + p.heal_after_ms)
            .count();
        let after = (0..spec.traffic.rounds)
            .map(|r| spec.traffic.start_ms + spec.traffic.interval_ms * r as u64)
            .filter(|t| *t >= spec.faults.last_end_ms())
            .count();
        assert!(during >= 1 && after >= 1);
    }

    #[test]
    fn fault_storm_cold_restore_lands_inside_the_outage() {
        let spec = fault_storm(200, 1);
        let cold = spec.faults.restarts[1];
        assert!(!cold.warm);
        let outage = spec.faults.contract_outages[0];
        let restore = cold.at_ms + cold.downtime_ms;
        assert!(restore >= outage.at_ms && restore < outage.at_ms + outage.duration_ms);
        // scaled restart wave: 10 peers at 200 nodes, never zero
        assert_eq!(spec.faults.restarts[0].peers, 10);
        assert_eq!(fault_storm(8, 1).faults.restarts[0].peers, 1);
    }

    #[test]
    fn boundary_race_rounds_straddle_epochs() {
        let spec = epoch_boundary_race(50, 1);
        let period = spec.epoch.epoch_secs * 1000;
        assert_eq!(spec.traffic.interval_ms, period);
        assert_eq!((spec.traffic.start_ms + 300) % period, 0);
    }
}
