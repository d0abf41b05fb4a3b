//! The structured outcome of one scenario run.
//!
//! Schema stability is a feature: CI, the sweep driver and downstream
//! dashboards parse this JSON, so every field is always present (absent
//! measurements are `null`), field order is fixed, and float formatting
//! is deterministic. Two runs of the same [`ScenarioSpec`] + seed emit
//! byte-identical reports.
//!
//! [`ScenarioSpec`]: crate::spec::ScenarioSpec

use std::fmt::Write as _;

/// Aggregated measurements of one scenario run. See `docs/SCENARIOS.md`
/// for the field-by-field description of the emitted JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name (from the spec).
    pub scenario: String,
    /// Determinism seed the run used.
    pub seed: u64,
    /// Peers at start (honest + spammers + eclipse attackers).
    pub peers_initial: u64,
    /// Live peers at the end (crashes subtracted, joins added).
    pub peers_final_live: u64,
    /// Honest peers at start.
    pub honest: u64,
    /// Spamming members at start.
    pub spammers: u64,
    /// Censoring eclipse attackers at start.
    pub eclipse_attackers: u64,
    /// Simulated run length, milliseconds.
    pub duration_ms: u64,
    /// Membership tree depth used.
    pub tree_depth: u64,

    /// Honest messages successfully handed to the RLN pipeline.
    pub honest_published: u64,
    /// Honest publish attempts refused (rate limit hit, member not yet
    /// synced, …).
    pub honest_publish_failures: u64,
    /// Fraction of (message, eligible receiver) pairs that were
    /// delivered; eligible receivers are peers alive at the end that had
    /// joined (plus sync grace) before the publish, minus the publisher
    /// and the censors.
    pub delivery_rate: f64,
    /// Median honest propagation latency, milliseconds (`null` when no
    /// honest message was delivered).
    pub propagation_p50_ms: Option<f64>,
    /// 99th-percentile honest propagation latency, milliseconds.
    pub propagation_p99_ms: Option<f64>,
    /// Worst observed honest propagation latency, milliseconds.
    pub propagation_max_ms: Option<f64>,

    /// Spam messages the attackers handed to the network.
    pub spam_attempted: u64,
    /// Spam attempts that failed at the source (membership already
    /// slashed mid-burst).
    pub spam_send_failures: u64,
    /// Distinct spam payloads that reached a majority of eligible
    /// receivers (the paper's containment metric: should stay ≤ 1 per
    /// spammer).
    pub spam_delivered_majority: u64,
    /// Double-signal detections summed over all validators.
    pub spam_detections: u64,
    /// Spammers whose membership was slashed on chain by the end.
    pub spammers_slashed: u64,

    /// Contract members after initial registration.
    pub members_start: u64,
    /// Contract members at the end (slashing subtracts, joins add).
    pub members_end: u64,
    /// Peers crashed by the churn schedule.
    pub peers_crashed: u64,
    /// Peers joined by the churn schedule.
    pub peers_joined: u64,

    /// Wire messages sent (post loss/removal filtering).
    pub messages_sent: u64,
    /// Wire messages delivered.
    pub messages_delivered: u64,
    /// Wire messages dropped because the destination had crashed.
    pub messages_to_removed_peer: u64,
    /// Total bytes on the wire.
    pub bytes_sent: u64,
    /// Mean bytes sent per peer (over every peer that ever lived).
    pub bytes_sent_mean_per_node: f64,
    /// Bytes sent by the busiest peer.
    pub bytes_sent_max_node: u64,
    /// Mean simulated validation CPU per peer, microseconds.
    pub cpu_micros_mean_per_node: f64,
    /// Simulated validation CPU of the busiest peer, microseconds.
    pub cpu_micros_max_node: u64,

    /// Accepted messages summed over all validators.
    pub valid_total: u64,
    /// Proof rejections summed over all validators.
    pub invalid_proof_total: u64,
    /// Epoch-window rejections summed over all validators (the §III
    /// `Thr` filter; nonzero under replay attacks or boundary races).
    pub epoch_out_of_window_total: u64,
    /// Exact duplicates summed over all validators.
    pub duplicates_total: u64,
    /// Undecodable frames summed over all validators.
    pub malformed_total: u64,

    /// Largest nullifier map across live peers at the end, bytes (E8:
    /// must stay bounded by the `Thr` window GC).
    pub nullifier_map_max_bytes: u64,
    /// Mean nullifier map across live peers at the end, bytes.
    pub nullifier_map_mean_bytes: f64,
    /// Largest light membership view (root + own path) across live
    /// peers, bytes (E3).
    pub membership_tree_max_bytes: u64,

    /// Whether the event queue actually drained by the end of the run
    /// (`false` is the norm for live meshes: heartbeat timers re-arm
    /// forever — see `drain_pending_events` for how much was left).
    pub drain_quiescent: bool,
    /// Events still queued when the run's hard stop cut it off (0 when
    /// `drain_quiescent`).
    pub drain_pending_events: u64,

    /// Delivery rate seen by the eclipse victim alone (`null` when the
    /// scenario has no eclipse attack).
    pub eclipse_victim_delivery_rate: Option<f64>,

    /// **Anonymity section** (all `null` without a surveillance
    /// adversary): colluding observers the adversary controlled.
    pub anonymity_observers: Option<u64>,
    /// Wire-level records pooled across all observer tapes.
    pub anonymity_observations: Option<u64>,
    /// Honest messages the adversary saw at least once (the denominator
    /// of both precision figures).
    pub anonymity_messages_observed: Option<u64>,
    /// Fraction of observed honest messages whose publisher the
    /// first-spy (earliest arrival) estimator named correctly.
    pub anonymity_first_spy_precision_at1: Option<f64>,
    /// Fraction of observed honest messages whose publisher the
    /// neighbour-weighted centrality estimator named correctly.
    pub anonymity_centrality_precision_at1: Option<f64>,
    /// Mean anonymity-set size over observed messages (distinct
    /// suspects the observers' first sightings cannot separate).
    pub anonymity_set_mean_size: Option<f64>,
    /// Mean Shannon entropy of the pooled arrival-vote distribution,
    /// bits per observed message (0 = certain attribution).
    pub anonymity_arrival_entropy_bits: Option<f64>,

    /// **Resilience section** (all `null` unless the spec schedules a
    /// [`FaultPlan`]): fault transitions actually injected (each
    /// crash-set, partition, degradation burst and contract outage counts
    /// once).
    ///
    /// [`FaultPlan`]: crate::spec::FaultPlan
    pub resilience_faults_injected: Option<u64>,
    /// Peers brought back by the restart schedule.
    pub resilience_peers_restarted: Option<u64>,
    /// Resync attempts deferred because the registration contract was
    /// unreachable (each restarted peer retries once per harness tick
    /// until the outage lifts).
    pub resilience_resync_retries: Option<u64>,
    /// Wire messages dropped on links crossing an active partition.
    pub resilience_messages_lost_partition: Option<u64>,
    /// Time from the last restart/heal until every live peer held at
    /// least `min(2, live - 1)` mesh links again — the whole population
    /// re-knit into the relay mesh — in milliseconds (`null` if that
    /// never happened before the run ended).
    pub resilience_time_to_remesh_ms: Option<u64>,
    /// Pair delivery rate over traffic rounds published inside a fault
    /// window (`null` when no round landed inside one).
    pub resilience_delivery_during_fault: Option<f64>,
    /// Pair delivery rate over traffic rounds published at or after the
    /// end of the last fault window (`null` when no round landed there).
    pub resilience_delivery_post_heal: Option<f64>,
    /// Deepest per-round delivery dip: `1 - min(round delivery rate)`.
    pub resilience_delivery_dip_depth: Option<f64>,
    /// Rounds below the 0.99 delivery threshold × traffic interval — how
    /// long delivery stayed visibly degraded, milliseconds.
    pub resilience_delivery_dip_duration_ms: Option<u64>,
}

/// One parsed value of the flat report schema.
#[derive(Clone, Debug, PartialEq)]
enum JsonValue {
    String(String),
    /// Kept as the raw token so integers round-trip exactly (no float
    /// detour for u64 fields).
    Number(String),
    Bool(bool),
    Null,
}

/// Parses a single flat JSON object (`{"key": scalar, ...}`) — exactly
/// the shape [`ScenarioReport::to_json`] emits. Nested containers are
/// rejected.
fn parse_flat_object(json: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut chars = json.chars().peekable();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::Chars>| {
        while matches!(chars.peek(), Some(c) if c.is_ascii_whitespace()) {
            chars.next();
        }
    };
    let parse_string =
        |chars: &mut std::iter::Peekable<std::str::Chars>| -> Result<String, String> {
            if chars.next() != Some('"') {
                return Err("expected opening quote".to_string());
            }
            let mut out = String::new();
            loop {
                match chars.next() {
                    None => return Err("unterminated string".to_string()),
                    Some('"') => return Ok(out),
                    Some('\\') => match chars.next() {
                        Some('"') => out.push('"'),
                        Some('\\') => out.push('\\'),
                        Some('n') => out.push('\n'),
                        Some('r') => out.push('\r'),
                        Some('t') => out.push('\t'),
                        Some('u') => {
                            let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                            let code = u32::from_str_radix(&hex, 16)
                                .map_err(|_| format!("bad \\u escape: {hex}"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad code point {code}"))?,
                            );
                        }
                        other => return Err(format!("bad escape: {other:?}")),
                    },
                    Some(c) => out.push(c),
                }
            }
        };

    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("expected '{'".to_string());
    }
    let mut fields = Vec::new();
    skip_ws(&mut chars);
    let mut open = chars.peek() != Some(&'}');
    if !open {
        chars.next(); // empty object
    }
    while open {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key {key}"));
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => JsonValue::String(parse_string(&mut chars)?),
            Some('t') | Some('f') | Some('n') => {
                let word: String = std::iter::from_fn(|| {
                    matches!(chars.peek(), Some(c) if c.is_ascii_alphabetic())
                        .then(|| chars.next())
                        .flatten()
                })
                .collect();
                match word.as_str() {
                    "true" => JsonValue::Bool(true),
                    "false" => JsonValue::Bool(false),
                    "null" => JsonValue::Null,
                    other => return Err(format!("unexpected token: {other}")),
                }
            }
            Some(c) if c.is_ascii_digit() || *c == '-' => {
                let raw: String = std::iter::from_fn(|| {
                    matches!(chars.peek(), Some(c) if c.is_ascii_digit()
                        || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
                    .then(|| chars.next())
                    .flatten()
                })
                .collect();
                JsonValue::Number(raw)
            }
            other => return Err(format!("unexpected value start: {other:?}")),
        };
        fields.push((key, value));
        // strict separators: exactly one ',' between fields, '}' to
        // close — a missing comma, a trailing comma or anything else is
        // a malformed report, not something to paper over
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => {}
            Some('}') => open = false,
            other => return Err(format!("expected ',' or '}}' after a field, got {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if let Some(c) = chars.next() {
        return Err(format!("trailing content after the closing brace: {c:?}"));
    }
    Ok(fields)
}

/// One value kind of the flat report schema: how a field of that Rust
/// type is written to the wire and read back from it.
trait WireValue: Sized {
    /// Appends the JSON encoding of `self` to `out`.
    fn write(&self, out: &mut String);
    /// Decodes one parsed value, describing a kind mismatch on failure.
    fn read(value: &JsonValue) -> Result<Self, String>;
}

impl WireValue for u64 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read(value: &JsonValue) -> Result<u64, String> {
        match value {
            JsonValue::Number(raw) => raw.parse().map_err(|_| format!("expected u64, got {raw}")),
            other => Err(format!("expected u64, got {other:?}")),
        }
    }
}

/// Fixed-point with six decimals; a non-finite value is written as `null`
/// and `null` reads back as NaN (a 0/0 ratio such as a delivery rate with
/// no eligible pair), so every report `to_json` writes parses.
impl WireValue for f64 {
    fn write(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self:.6}");
        } else {
            out.push_str("null");
        }
    }

    fn read(value: &JsonValue) -> Result<f64, String> {
        match value {
            JsonValue::Number(raw) => raw.parse().map_err(|_| format!("expected f64, got {raw}")),
            JsonValue::Null => Ok(f64::NAN),
            other => Err(format!("expected f64, got {other:?}")),
        }
    }
}

impl WireValue for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn read(value: &JsonValue) -> Result<bool, String> {
        match value {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {other:?}")),
        }
    }
}

/// Escaped: scenario names are caller-chosen, so quotes, backslashes and
/// control characters must not corrupt the output.
impl WireValue for String {
    fn write(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn read(value: &JsonValue) -> Result<String, String> {
        match value {
            JsonValue::String(s) => Ok(s.clone()),
            other => Err(format!("expected string, got {other:?}")),
        }
    }
}

/// An absent measurement is `null`.
impl<T: WireValue> WireValue for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }

    fn read(value: &JsonValue) -> Result<Option<T>, String> {
        match value {
            JsonValue::Null => Ok(None),
            other => T::read(other).map(Some),
        }
    }
}

/// The wire schema, stated once: every key in emission order. A key is
/// its field's name, and the field's type picks the value kind
/// ([`WireValue`]), so a new report field is added to the struct and to
/// this list and nowhere else.
macro_rules! wire_schema {
    ($first:ident $(, $rest:ident)* $(,)?) => {
        impl ScenarioReport {
            /// Serializes as a flat JSON object (hand-rolled; the workspace
            /// has no serde data formats). Field order and float formatting
            /// are fixed, so identical runs produce identical bytes.
            pub fn to_json(&self) -> String {
                let mut out = String::from(concat!("{\n  \"", stringify!($first), "\": "));
                self.$first.write(&mut out);
                $(
                    out.push_str(concat!(",\n  \"", stringify!($rest), "\": "));
                    self.$rest.write(&mut out);
                )*
                out.push_str("\n}\n");
                out
            }

            /// Parses a report back from the JSON emitted by
            /// [`ScenarioReport::to_json`] — the inverse direction CI
            /// diffing and sweep tooling use. Only the flat schema this
            /// crate emits is supported (string / integer / float / bool /
            /// `null` values).
            ///
            /// # Errors
            ///
            /// Returns a description of the first malformed construct or
            /// missing field.
            pub fn from_json(json: &str) -> Result<ScenarioReport, String> {
                let fields = parse_flat_object(json)?;
                let read = |key: &str| -> Result<&JsonValue, String> {
                    fields
                        .iter()
                        .find(|(k, _)| k == key)
                        .map(|(_, v)| v)
                        .ok_or_else(|| format!("missing field: {key}"))
                };
                Ok(ScenarioReport {
                    $first: WireValue::read(read(stringify!($first))?)
                        .map_err(|e| format!("field {}: {e}", stringify!($first)))?,
                    $($rest: WireValue::read(read(stringify!($rest))?)
                        .map_err(|e| format!("field {}: {e}", stringify!($rest)))?,)*
                })
            }
        }
    };
}

wire_schema! {
    scenario, seed, peers_initial, peers_final_live, honest, spammers,
    eclipse_attackers, duration_ms, tree_depth,
    honest_published, honest_publish_failures, delivery_rate,
    propagation_p50_ms, propagation_p99_ms, propagation_max_ms,
    spam_attempted, spam_send_failures, spam_delivered_majority,
    spam_detections, spammers_slashed,
    members_start, members_end, peers_crashed, peers_joined,
    messages_sent, messages_delivered, messages_to_removed_peer, bytes_sent,
    bytes_sent_mean_per_node, bytes_sent_max_node, cpu_micros_mean_per_node,
    cpu_micros_max_node,
    valid_total, invalid_proof_total, epoch_out_of_window_total,
    duplicates_total, malformed_total,
    nullifier_map_max_bytes, nullifier_map_mean_bytes, membership_tree_max_bytes,
    drain_quiescent, drain_pending_events,
    eclipse_victim_delivery_rate,
    anonymity_observers, anonymity_observations, anonymity_messages_observed,
    anonymity_first_spy_precision_at1, anonymity_centrality_precision_at1,
    anonymity_set_mean_size, anonymity_arrival_entropy_bits,
    resilience_faults_injected, resilience_peers_restarted,
    resilience_resync_retries, resilience_messages_lost_partition,
    resilience_time_to_remesh_ms, resilience_delivery_during_fault,
    resilience_delivery_post_heal, resilience_delivery_dip_depth,
    resilience_delivery_dip_duration_ms,
}

impl ScenarioReport {
    /// One human line for progress output (stderr; the JSON goes to
    /// stdout/files).
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "{}: {} peers, delivery {:.3}, p50 {} ms, spam {}/{} contained, {} slashed, {} crashed/{} joined",
            self.scenario,
            self.peers_initial,
            self.delivery_rate,
            self.propagation_p50_ms
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "-".to_string()),
            self.spam_attempted - self.spam_delivered_majority,
            self.spam_attempted,
            self.spammers_slashed,
            self.peers_crashed,
            self.peers_joined,
        );
        if let (Some(observers), Some(precision)) = (
            self.anonymity_observers,
            self.anonymity_first_spy_precision_at1,
        ) {
            line.push_str(&format!(
                ", {observers} observers first-spy p@1 {precision:.3}"
            ));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> ScenarioReport {
        ScenarioReport {
            scenario: "t".to_string(),
            seed: 1,
            peers_initial: 10,
            peers_final_live: 9,
            honest: 10,
            spammers: 0,
            eclipse_attackers: 0,
            duration_ms: 1000,
            tree_depth: 10,
            honest_published: 5,
            honest_publish_failures: 0,
            delivery_rate: 0.987654321,
            propagation_p50_ms: Some(123.0),
            propagation_p99_ms: Some(456.0),
            propagation_max_ms: None,
            spam_attempted: 0,
            spam_send_failures: 0,
            spam_delivered_majority: 0,
            spam_detections: 0,
            spammers_slashed: 0,
            members_start: 10,
            members_end: 10,
            peers_crashed: 1,
            peers_joined: 0,
            messages_sent: 100,
            messages_delivered: 90,
            messages_to_removed_peer: 3,
            bytes_sent: 9999,
            bytes_sent_mean_per_node: 999.9,
            bytes_sent_max_node: 2000,
            cpu_micros_mean_per_node: 1.5,
            cpu_micros_max_node: 3,
            valid_total: 45,
            invalid_proof_total: 0,
            epoch_out_of_window_total: 0,
            duplicates_total: 2,
            malformed_total: 0,
            nullifier_map_max_bytes: 640,
            nullifier_map_mean_bytes: 320.0,
            membership_tree_max_bytes: 1300,
            drain_quiescent: false,
            drain_pending_events: 42,
            eclipse_victim_delivery_rate: None,
            anonymity_observers: None,
            anonymity_observations: None,
            anonymity_messages_observed: None,
            anonymity_first_spy_precision_at1: None,
            anonymity_centrality_precision_at1: None,
            anonymity_set_mean_size: None,
            anonymity_arrival_entropy_bits: None,
            resilience_faults_injected: None,
            resilience_peers_restarted: None,
            resilience_resync_retries: None,
            resilience_messages_lost_partition: None,
            resilience_time_to_remesh_ms: None,
            resilience_delivery_during_fault: None,
            resilience_delivery_post_heal: None,
            resilience_delivery_dip_depth: None,
            resilience_delivery_dip_duration_ms: None,
        }
    }

    #[test]
    fn json_has_fixed_schema_and_null_for_absent() {
        let json = dummy().to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"scenario\": \"t\""));
        assert!(json.contains("\"delivery_rate\": 0.987654"));
        assert!(json.contains("\"propagation_max_ms\": null"));
        assert!(json.contains("\"eclipse_victim_delivery_rate\": null"));
        // the anonymity section is always present, null without a
        // surveillance adversary
        assert!(json.contains("\"anonymity_observers\": null"));
        assert!(json.contains("\"anonymity_first_spy_precision_at1\": null"));
        assert!(json.contains("\"anonymity_arrival_entropy_bits\": null"));
        // the resilience section is always present, null without a
        // fault plan
        assert!(json.contains("\"resilience_faults_injected\": null"));
        assert!(json.contains("\"resilience_time_to_remesh_ms\": null"));
        assert!(json.contains("\"resilience_delivery_dip_depth\": null"));
        // no trailing comma before the closing brace
        assert!(!json.contains(",\n}"));
    }

    #[test]
    fn identical_reports_serialize_identically() {
        assert_eq!(dummy().to_json(), dummy().to_json());
    }

    #[test]
    fn scenario_names_are_json_escaped() {
        let mut report = dummy();
        report.scenario = "my\"run\\with\nweird chars".to_string();
        let json = report.to_json();
        assert!(json.contains("\"scenario\": \"my\\\"run\\\\with\\nweird chars\""));
    }

    #[test]
    fn json_round_trips_through_from_json() {
        let report = dummy();
        let json = report.to_json();
        let parsed = ScenarioReport::from_json(&json).expect("parses");
        // byte-identical re-serialization is the contract CI diffing
        // relies on (float formatting is fixed-point, so struct equality
        // would be weaker than this)
        assert_eq!(parsed.to_json(), json);
        assert_eq!(parsed.scenario, "t");
        assert_eq!(parsed.drain_pending_events, 42);
        assert!(!parsed.drain_quiescent);
        assert_eq!(parsed.propagation_max_ms, None);

        let mut weird = dummy();
        weird.scenario = "we\"ird\nname".to_string();
        weird.propagation_p50_ms = None;
        weird.eclipse_victim_delivery_rate = Some(0.25);
        let json = weird.to_json();
        let parsed = ScenarioReport::from_json(&json).expect("parses escaped");
        assert_eq!(parsed.to_json(), json);
        assert_eq!(parsed.scenario, weird.scenario);
    }

    /// Table-driven round-trip over the optional report sections: the
    /// `anonymity_*` and `resilience_*` blocks each re-serialize
    /// byte-identically both when absent (all-null) and when populated,
    /// and a parse of one shape never bleeds values into the other
    /// section. One table, four rows — the shape matrix CI report
    /// diffing depends on.
    #[test]
    fn optional_sections_round_trip_null_and_populated() {
        fn with_anonymity(mut r: ScenarioReport) -> ScenarioReport {
            r.anonymity_observers = Some(25);
            r.anonymity_observations = Some(12_345);
            r.anonymity_messages_observed = Some(40);
            r.anonymity_first_spy_precision_at1 = Some(0.675);
            r.anonymity_centrality_precision_at1 = Some(0.725);
            r.anonymity_set_mean_size = Some(3.4);
            r.anonymity_arrival_entropy_bits = Some(1.58496);
            r
        }
        fn with_resilience(mut r: ScenarioReport) -> ScenarioReport {
            r.resilience_faults_injected = Some(4);
            r.resilience_peers_restarted = Some(11);
            r.resilience_resync_retries = Some(7);
            r.resilience_messages_lost_partition = Some(1234);
            r.resilience_time_to_remesh_ms = Some(3000);
            r.resilience_delivery_during_fault = Some(0.6125);
            r.resilience_delivery_post_heal = Some(0.9975);
            r.resilience_delivery_dip_depth = Some(0.3875);
            r.resilience_delivery_dip_duration_ms = Some(30_000);
            r
        }
        // (name, report, expected JSON fragments)
        let table: Vec<(&str, ScenarioReport, Vec<&str>)> = vec![
            (
                "both-null",
                dummy(),
                vec![
                    "\"anonymity_observers\": null",
                    "\"anonymity_arrival_entropy_bits\": null",
                    "\"resilience_faults_injected\": null",
                    "\"resilience_delivery_dip_duration_ms\": null",
                ],
            ),
            (
                "anonymity-only",
                with_anonymity(dummy()),
                vec![
                    "\"anonymity_observers\": 25",
                    "\"anonymity_first_spy_precision_at1\": 0.675000",
                    "\"resilience_faults_injected\": null",
                ],
            ),
            (
                "resilience-only",
                with_resilience(dummy()),
                vec![
                    "\"resilience_faults_injected\": 4",
                    "\"resilience_delivery_during_fault\": 0.612500",
                    "\"resilience_delivery_dip_duration_ms\": 30000",
                    "\"anonymity_observers\": null",
                ],
            ),
            (
                "both-populated",
                with_resilience(with_anonymity(dummy())),
                vec![
                    "\"anonymity_set_mean_size\": 3.400000",
                    "\"resilience_time_to_remesh_ms\": 3000",
                ],
            ),
        ];
        for (name, report, fragments) in table {
            let json = report.to_json();
            for fragment in fragments {
                assert!(json.contains(fragment), "{name}: missing {fragment}");
            }
            let parsed = ScenarioReport::from_json(&json)
                .unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
            assert_eq!(parsed.to_json(), json, "{name}: re-serialization drifted");
            // struct equality on the optional sections (the mandatory
            // floats round to 6 decimals on the wire, so whole-struct
            // equality would be wrong by design; the section values in
            // the table are chosen exactly representable)
            let anonymity = |r: &ScenarioReport| {
                (
                    r.anonymity_observers,
                    r.anonymity_observations,
                    r.anonymity_messages_observed,
                    r.anonymity_first_spy_precision_at1,
                    r.anonymity_centrality_precision_at1,
                    r.anonymity_set_mean_size,
                    r.anonymity_arrival_entropy_bits,
                )
            };
            let resilience = |r: &ScenarioReport| {
                (
                    r.resilience_faults_injected,
                    r.resilience_peers_restarted,
                    r.resilience_resync_retries,
                    r.resilience_messages_lost_partition,
                    r.resilience_time_to_remesh_ms,
                    r.resilience_delivery_during_fault,
                    r.resilience_delivery_post_heal,
                    r.resilience_delivery_dip_depth,
                    r.resilience_delivery_dip_duration_ms,
                )
            };
            assert_eq!(
                anonymity(&parsed),
                anonymity(&report),
                "{name}: anonymity section diverged"
            );
            assert_eq!(
                resilience(&parsed),
                resilience(&report),
                "{name}: resilience section diverged"
            );
        }
    }

    #[test]
    fn a_run_without_traffic_round_trips_its_nan_delivery_rate() {
        // no publish, so no eligible delivery pair: the rate is 0/0
        let mut spec = crate::spec::ScenarioSpec::baseline(6, 3);
        spec.traffic.rounds = 0;
        spec.drain_ms = 5_000;
        let report = crate::run_scenario(&spec);
        assert!(report.delivery_rate.is_nan());
        let json = report.to_json();
        assert!(json.contains("\"delivery_rate\": null"));
        let parsed = ScenarioReport::from_json(&json).expect("a written report parses");
        assert!(parsed.delivery_rate.is_nan());
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn from_json_reports_missing_and_malformed_fields() {
        assert!(ScenarioReport::from_json("{}")
            .unwrap_err()
            .contains("missing field"));
        assert!(ScenarioReport::from_json("not json").is_err());
        let truncated = dummy().to_json().replace("\"seed\": 1", "\"seed\": true");
        assert!(ScenarioReport::from_json(&truncated)
            .unwrap_err()
            .contains("seed"));
    }

    #[test]
    fn from_json_rejects_sloppy_separators_and_trailing_garbage() {
        // missing comma between fields
        assert!(ScenarioReport::from_json("{\"a\": 1 \"b\": 2}")
            .unwrap_err()
            .contains("expected ','"));
        // trailing comma before the closing brace
        assert!(ScenarioReport::from_json("{\"a\": 1,}").is_err());
        // trailing garbage after a full, otherwise-valid report
        let mut json = dummy().to_json();
        json.push_str("garbage");
        assert!(ScenarioReport::from_json(&json)
            .unwrap_err()
            .contains("trailing content"));
        // whitespace after the brace stays fine
        let json = dummy().to_json();
        assert!(ScenarioReport::from_json(&format!("{json}\n  \n")).is_ok());
    }

    #[test]
    fn u64_fields_round_trip_at_full_width() {
        // wire stability: counters near u64::MAX survive the JSON detour
        // without a float detour truncating them
        let mut report = dummy();
        report.bytes_sent = u64::MAX - 1;
        report.messages_sent = u64::MAX;
        let parsed = ScenarioReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(parsed.bytes_sent, u64::MAX - 1);
        assert_eq!(parsed.messages_sent, u64::MAX);
    }

    #[test]
    fn summary_line_mentions_scenario() {
        assert!(dummy().summary_line().starts_with("t: 10 peers"));
    }
}
