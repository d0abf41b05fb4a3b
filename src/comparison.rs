//! E6's RLN row on the scenario engine, in the world the relay-only rows
//! of `baselines::comparison` run.

#[cfg(test)]
mod tests {
    use crate::ethsim::types::Address;
    use crate::scenarios::{run_scenario_detailed, ScenarioSpec, SpamSpec, TopologySpec};

    #[test]
    fn rln_stops_spam_and_slashes() {
        // 12 peers on a 4-regular graph, 11 honest publishes in one
        // round, and one member flooding 8 distinct messages inside one
        // epoch
        let mut spec = ScenarioSpec::baseline(11, 7);
        spec.name = "e6_rln".to_string();
        spec.tree_depth = 10;
        spec.topology = TopologySpec::RandomRegular { degree: 4 };
        spec.traffic.publishers = 11;
        spec.traffic.rounds = 1;
        spec.traffic.start_ms = 8_000;
        spec.spam = Some(SpamSpec {
            spammers: 1,
            burst: 8,
            at_ms: 8_000,
        });
        spec.drain_ms = 40_000;
        let (report, tb) = run_scenario_detailed(&spec);
        assert!(report.delivery_rate >= 0.8, "{}", report.to_json());
        // at most the first spam message of the epoch goes through
        assert!(report.spam_delivered_majority <= 1, "{}", report.to_json());
        assert!(report.spam_detections >= 1, "{}", report.to_json());
        assert_eq!(report.spammers_slashed, 1, "attacker kept membership");
        // the attacker's escrowed stake was (partly) burnt on slashing
        assert!(tb.chain.balance_of(Address::BURN) > 0, "attacker not fined");
    }
}
