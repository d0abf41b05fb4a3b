//! The metric registry: every name the runner may print, with its unit.
//!
//! `BENCHMARK.json` declares the same names; a test holds the two lists
//! equal in both directions. Workload code can only set a registered
//! name, and the runner refuses to print a set with a hole in it.

use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees; printed with `--trace 0`. Defined on
/// every workload (see README.md for the per-workload definitions).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("run_s", "s"),
    m("ops_per_s", "1/s"),
    m("peak_rss_mb", "MB"),
    m("wire_bytes_per_delivery", "bytes"),
    m("device_frames_per_s", "model_1/s"),
];

/// Single-layer measurements; printed with `--trace 1`. A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("trace_overhead_pct", "%"),
    m("scenarios.setup_s", "s"),
    m("scenarios.timeline_s", "s"),
    m("scenarios.distill_s", "s"),
    m("scenarios.traffic_slice_s", "s"),
    m("scenarios.idle_slice_s", "s"),
    m("scenarios.report_json_us", "us"),
    m("scenarios.attributed_share", "ratio"),
    m("scenarios.delivery_rate", "ratio"),
    m("scenarios.prop_p50_sim_ms", "sim_ms"),
    m("scenarios.prop_p99_sim_ms", "sim_ms"),
    m("scenarios.device_cpu_ms_per_node", "model_ms"),
    m("core.dispatch_s", "s"),
    m("core.registration_sync_s", "s"),
    m("core.drain_s", "s"),
    m("core.non_dispatch_s", "s"),
    m("core.testbed_build_s", "s"),
    m("core.validations", "count"),
    m("core.validate_us_p50", "us"),
    m("core.validate_us_p99", "us"),
    m("core.codec_ns", "ns"),
    m("core.pipeline_proofs_verified", "count"),
    m("core.pipeline_resolved_without_proof_ratio", "ratio"),
    m("core.pipeline_flush_us_per_frame_p99", "us"),
    m("core.pipeline_small_cache_frames_per_s", "1/s"),
    m("core.nullifier_map_max_bytes", "bytes"),
    m("model.apply_ns", "ns"),
    m("relay.envelope_codec_ns", "ns"),
    m("rln.create_signal_ms_p50", "ms"),
    m("rln.verify_signal_us", "us"),
    m("rln.register_batch_us_per_member", "us"),
    m("rln.slash_recover_us", "us"),
    m("zksnark.prove_ms_p50", "ms"),
    m("zksnark.verify_us", "us"),
    m("zksnark.setup_ms", "ms"),
    m("crypto.poseidon_perms_setup", "count"),
    m("crypto.poseidon_perms_run", "count"),
    m("crypto.poseidon_hash2_ns", "ns"),
    m("crypto.sha256_frame_ns", "ns"),
    m("crypto.merkle_append_us_per_leaf", "us"),
    m("crypto.member_view_apply_ns", "ns"),
    m("gossipsub.ns_per_event", "ns"),
    m("gossipsub.duplicate_ratio", "ratio"),
    m("gossipsub.msgs_per_delivery", "ratio"),
    m("gossipsub.iwant_sent", "count"),
    m("gossipsub.rejected", "count"),
    m("netsim.bare_ns_per_event", "ns"),
    m("netsim.events_dispatched", "count"),
    m("netsim.events_per_s", "1/s"),
    m("netsim.messages_sent", "count"),
    m("netsim.bytes_sent", "bytes"),
    m("netsim.messages_dropped", "count"),
    m("netsim.pending_at_end", "count"),
    m("ethsim.register_us_per_tx", "us"),
    m("ethsim.slash_us", "us"),
];

/// The values of one run, keyed by registered name.
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    pub fn new(defs: &'static [MetricDef]) -> MetricSet {
        MetricSet {
            defs,
            values: BTreeMap::new(),
        }
    }

    /// Sets a metric. Panics on a name the registry does not list: a
    /// misspelt metric must not silently read 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.defs.iter().any(|d| d.name == name),
            "metric {name} is not registered"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// A metric set earlier in the same run. Panics when it was not: an
    /// estimate must not be built on a number nobody measured.
    pub fn get(&self, name: &str) -> f64 {
        *self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} is read before it is set"))
    }

    /// Marks every metric not set so far as 0 — "this workload does not
    /// exercise the layer".
    pub fn zero_unset(&mut self) {
        for d in self.defs {
            self.values.entry(d.name).or_insert(0.0);
        }
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` in registry order, every
    /// value with all its digits (`{}` on an `f64` prints the shortest
    /// text that reads back to the same number). Panics when a registered
    /// metric was never set.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .defs
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    self.get(d.name),
                    d.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name": "…"` strings inside the array called `key`.
    fn declared(json: &str, key: &str) -> Vec<String> {
        let at = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let open = at + json[at..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        json[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("value opens") + 1..];
                rest[..rest.find('"').expect("value closes")].to_string()
            })
            .collect()
    }

    fn benchmark_json() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root")
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !d.name.is_empty()
                    && d.name.len() <= 64
                    && d.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                    && d.name.chars().next().unwrap().is_ascii_alphanumeric(),
                "bad metric name {}",
                d.name
            );
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {} on {}",
                d.unit,
                d.name
            );
            assert!(seen.insert(d.name), "{} is registered twice", d.name);
        }
    }

    #[test]
    fn registry_and_benchmark_json_declare_the_same_metrics() {
        let json = benchmark_json();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = declared(&json, key);
            let registered: Vec<&str> = defs.iter().map(|d| d.name).collect();
            for name in &declared {
                assert!(
                    registered.contains(&name.as_str()),
                    "BENCHMARK.json declares {name} under {key}; the runner never prints it"
                );
            }
            for name in &registered {
                assert!(
                    declared.iter().any(|d| d == name),
                    "the runner prints {name}; BENCHMARK.json does not declare it under {key}"
                );
            }
            assert_eq!(declared.len(), registered.len(), "duplicate under {key}");
            // and the units agree
            for d in defs {
                let needle = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
                assert!(json.contains(&needle), "BENCHMARK.json lacks {needle}");
            }
        }
    }

    #[test]
    fn workloads_in_benchmark_json_are_the_runner_s() {
        let declared = declared(&benchmark_json(), "workloads");
        assert_eq!(declared, crate::WORKLOADS);
    }

    #[test]
    fn a_set_prints_every_registered_metric_or_panics() {
        let mut set = MetricSet::new(END_TO_END);
        for d in END_TO_END {
            set.set(d.name, 1.5);
        }
        let json = set.to_json();
        for d in END_TO_END {
            assert!(json.contains(&format!("\"{}\": {{\"value\": 1.5", d.name)));
        }
        let hole = MetricSet::new(END_TO_END);
        assert!(std::panic::catch_unwind(|| hole.to_json()).is_err());
    }
}
