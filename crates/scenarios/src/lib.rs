//! # wakurln-scenarios
//!
//! The declarative scenario engine: thousand-node adversarial
//! simulations of WAKU-RLN-RELAY (*Privacy-Preserving Spam-Protected
//! Gossip-Based Routing*, ICDCS 2022), described as data and replayed
//! deterministically from a seed.
//!
//! A [`ScenarioSpec`] composes, on top of the full testbed
//! ([`waku_rln_relay::Testbed`] — peers, gossip meshes, simulated chain):
//!
//! * a **topology** and **latency/loss model** (`wakurln_netsim`),
//! * a **node mix** — honest relays, double-signaling spammers (§III),
//!   censorship-eclipse adversaries, heterogeneous device profiles (§I),
//! * a **churn schedule** — crashes and §III group-sync joins at
//!   simulated timestamps,
//! * a **fault plan** — timed crash→restart waves (warm or cold
//!   rejoin), network partitions with heal, link-degradation bursts and
//!   registration-contract outages, distilled into the report's
//!   `resilience_*` section,
//! * **epoch/RLN parameters** — `T`, `D`, and therefore `Thr = ⌈D/T⌉`,
//! * an honest **traffic schedule**.
//!
//! [`run_scenario`] executes the spec and emits a [`ScenarioReport`]:
//! delivery rate, propagation percentiles, spam containment and
//! slashing, bandwidth and CPU per node, nullifier-map growth — as
//! schema-stable JSON (byte-identical for the same spec + seed).
//!
//! The [`library`] module ships the canonical workloads
//! ([`BUILTIN_NAMES`]), including the source-anonymity adversary
//! scenarios (`passive_surveillance`, `deanonymization_sweep`) whose
//! colluding observer taps feed the [`attribution`] estimators; the
//! `simctl` binary (`src/bin/simctl.rs`) runs them from the command
//! line, including parameter sweeps over network size, seed and
//! adversary fraction. See `docs/SCENARIOS.md` for the full schema
//! reference.
//!
//! # Example
//!
//! ```
//! use wakurln_scenarios::{library, run_scenario};
//!
//! let mut spec = library::spam_burst(12, 42);
//! spec.traffic.publishers = 2; // keep the doctest quick
//! let report = run_scenario(&spec);
//! assert!(report.spammers_slashed >= 1);
//! assert!(report.delivery_rate > 0.8);
//! println!("{}", report.to_json());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod attribution;
pub mod engine;
pub mod library;
pub mod report;
pub mod soak;
pub mod spec;

pub use attribution::{attribute, MessageAttribution, PooledObservation};
pub use engine::{run_scenario, run_scenario_detailed, run_scenario_with_progress, Progress};
pub use library::{builtin, BUILTIN_NAMES};
pub use report::ScenarioReport;
pub use soak::{run_soak, SoakBounds, SoakConfig, SoakDelta, SoakOutcome};
pub use spec::{
    ChurnAction, ChurnEvent, ContractOutageEvent, DegradationEvent, DeviceClassSpec, EclipseSpec,
    FaultPlan, LatencySpec, PartitionEvent, RestartEvent, ScenarioSpec, SpamSpec, SurveillanceSpec,
    TopologySpec, TrafficSpec,
};
