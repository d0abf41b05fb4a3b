//! Integration: the source-anonymity adversary subsystem.
//!
//! The crypto layer already guarantees signals carry no PII
//! (`tests/anonymity.rs`); these tests cover the *network*-level attack
//! surface instead — a colluding fraction of passive observers
//! recording `(message_id, arrival_ms, previous_hop)` and running
//! first-spy / centrality source attribution after the run, per the
//! adversary models of "Who started this rumor?" (Bellet et al.) and
//! "On the Inherent Anonymity of Gossiping" (Guerraoui et al.). Two
//! contracts:
//!
//! 1. the first-hop forward-delay countermeasure degrades attribution
//!    precision without costing delivery,
//! 2. a larger colluding fraction buys the adversary more precision.
//!
//! The section's byte-identity on re-run (jitter on, so the
//! `send_delayed` hold path included) is pinned with every other
//! report in `tests/scenario_determinism.rs`.

use waku_rln::scenarios::{builtin, run_scenario, ScenarioSpec};

fn sweep_spec(nodes: usize, seed: u64, jitter_ms: u64) -> ScenarioSpec {
    let mut spec = builtin("deanonymization_sweep", nodes, seed).expect("builtin");
    spec.publish_jitter_ms = jitter_ms;
    spec
}

#[test]
fn scenarios_without_surveillance_emit_a_null_anonymity_section() {
    let mut spec = builtin("baseline", 16, 3).expect("builtin");
    spec.traffic.publishers = 2;
    spec.traffic.rounds = 2;
    let report = run_scenario(&spec);
    assert_eq!(report.anonymity_observers, None);
    assert_eq!(report.anonymity_first_spy_precision_at1, None);
    let json = report.to_json();
    assert!(json.contains("\"anonymity_observers\": null"));
}

#[test]
fn forward_delay_jitter_degrades_attribution_but_not_delivery() {
    // jitter points chosen off the measured precision curve: 0 (no
    // countermeasure), a moderate hold, and one past the point of
    // diminishing returns — precision must fall strictly at each step.
    // One 60-node run observes 28 messages, so its precision moves in
    // steps of 1/28 and two points can tie on an unlucky graph; the
    // first-spy hits of four seeds are pooled per point instead.
    let mut points = Vec::new();
    for jitter in [0, 200, 1500] {
        let (mut hits, mut observed, mut p50_ms) = (0.0, 0.0, 0.0);
        for seed in 1..=4 {
            let report = run_scenario(&sweep_spec(60, seed, jitter));
            assert!(
                report.delivery_rate >= 0.99,
                "jitter {jitter} ms cost delivery on seed {seed}: {}",
                report.delivery_rate
            );
            let messages = report.anonymity_messages_observed.unwrap() as f64;
            hits += report.anonymity_first_spy_precision_at1.unwrap() * messages;
            observed += messages;
            p50_ms += report.propagation_p50_ms.unwrap();
        }
        points.push((jitter, hits / observed, p50_ms));
    }
    for pair in points.windows(2) {
        let (j0, p0, _) = pair[0];
        let (j1, p1, _) = pair[1];
        assert!(
            p1 < p0,
            "precision did not fall: jitter {j0} ms -> {p0}, jitter {j1} ms -> {p1}"
        );
    }
    // the privacy is paid for in propagation latency, as predicted
    assert!(
        points.last().unwrap().2 > points.first().unwrap().2,
        "jitter should show up in p50 propagation"
    );
}

#[test]
fn larger_colluding_fraction_buys_more_precision() {
    let run = |fraction: f64| {
        let mut spec = sweep_spec(60, 2, 0);
        spec.surveillance = Some(waku_rln::scenarios::SurveillanceSpec {
            observer_fraction: fraction,
        });
        run_scenario(&spec)
    };
    let weak = run(0.05);
    let strong = run(0.25);
    assert!(
        strong.anonymity_first_spy_precision_at1.unwrap()
            > weak.anonymity_first_spy_precision_at1.unwrap(),
        "25% of relays colluding should attribute more than 5%: {:?} vs {:?}",
        strong.anonymity_first_spy_precision_at1,
        weak.anonymity_first_spy_precision_at1
    );
    // more taps also shrink what the observers cannot separate
    assert!(strong.anonymity_observations.unwrap() > weak.anonymity_observations.unwrap());
}
