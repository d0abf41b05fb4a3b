//! `simctl` — run scenario simulations from the command line.
//!
//! ```text
//! simctl list
//! simctl run <scenario> [--nodes N] [--seed S] [--progress]
//!                       [--spam-rate PCT] [--churn-rate PCT]
//!                       [--adversary-fraction PCT] [--publish-jitter MS]
//!                       [--out PATH]
//! simctl sweep <scenario> --nodes N1,N2,.. [--seeds S1,S2,..]
//!                         [--spam-rate PCT] [--churn-rate PCT]
//!                         [--adversary-fraction PCT1,PCT2,..]
//!                         [--publish-jitter MS] [--out PATH]
//! simctl soak [--sim-hours H] [--checkpoint-every N] [--nodes N]
//!             [--seed S] [--out PATH]
//! ```
//!
//! `run` executes one built-in scenario (default 1000 nodes, seed 2022)
//! and prints its `ScenarioReport` JSON to stdout; `sweep` runs the
//! cartesian product of node counts, seeds and (when given) adversary
//! fractions, and prints a JSON array. `--adversary-fraction` sets the
//! colluding passive-observer share of the honest population (percent;
//! 0 disables surveillance) and `--publish-jitter` the publisher-side
//! first-hop forward-delay countermeasure — together they trace the
//! privacy/latency trade-off curve of the `anonymity_*` report section.
//! `--progress` prints per-simulated-second throughput to stderr so long
//! 10k-node runs are not silent. See `docs/SCENARIOS.md`.
//!
//! `soak` runs the simulated-days leak harness
//! (`wakurln_scenarios::soak`) over the steady-traffic soak spec
//! ([`SoakConfig::steady`](wakurln_scenarios::SoakConfig::steady)): the
//! scenario engine drives `--sim-hours` simulated hours of traffic in
//! one-hour segments, streaming one JSONL
//! [`SoakDelta`](wakurln_scenarios::SoakDelta) line per segment and
//! checkpointing the whole run by deep clone every `--checkpoint-every`
//! segments (each restored checkpoint must replay byte-identical to the
//! live run). Exits nonzero when a boundedness invariant or a checkpoint
//! replay fails.
//!
//! When a run's drain hard-stops with application frames still in
//! flight (see `Testbed::frames_in_flight`), `simctl` prints a warning
//! and exits nonzero (after emitting the report): the network did not
//! settle, so downstream consumers should not trust the tail metrics.
//! Heartbeat timers and control traffic left queued do not count.

use waku_rln_relay::Testbed;
use wakurln_scenarios::{
    builtin, run_scenario_observed, run_soak, ChurnAction, ChurnEvent, Progress, ScenarioReport,
    ScenarioSpec, SoakBounds, SoakConfig, SpamSpec, SurveillanceSpec, BUILTIN_NAMES,
};

fn usage() -> ! {
    eprintln!("usage: simctl list");
    eprintln!("       simctl run <scenario> [--nodes N] [--seed S] [--progress]");
    eprintln!("                             [--spam-rate PCT] [--churn-rate PCT]");
    eprintln!("                             [--adversary-fraction PCT] [--publish-jitter MS]");
    eprintln!("                             [--out PATH]");
    eprintln!("       simctl sweep <scenario> --nodes N1,N2,.. [--seeds S1,S2,..]");
    eprintln!("                               [--spam-rate PCT] [--churn-rate PCT]");
    eprintln!("                               [--adversary-fraction PCT1,PCT2,..]");
    eprintln!("                               [--publish-jitter MS] [--out PATH]");
    eprintln!("       simctl soak [--sim-hours H] [--checkpoint-every N] [--nodes N]");
    eprintln!("                   [--seed S] [--out PATH]");
    eprintln!("scenarios: {}", BUILTIN_NAMES.join(", "));
    std::process::exit(2)
}

/// CLI overrides applied on top of a built-in spec.
#[derive(Default)]
struct Overrides {
    /// Percentage of honest peers that double-signal (replaces the
    /// scenario's own spam block when set).
    spam_rate_pct: Option<f64>,
    /// Percentage of honest peers that crash mid-run (replaces the
    /// scenario's own churn schedule when set).
    churn_rate_pct: Option<f64>,
    /// Publisher-side first-hop forward-delay countermeasure,
    /// milliseconds (0 disables).
    publish_jitter_ms: Option<u64>,
}

fn apply_overrides(spec: &mut ScenarioSpec, overrides: &Overrides) {
    if let Some(jitter) = overrides.publish_jitter_ms {
        spec.publish_jitter_ms = jitter;
    }
    // rate 0 means "no attack" — the control row of a sweep — not "one
    // attacker"; only positive rates round up to at least one
    if let Some(pct) = overrides.spam_rate_pct {
        if pct <= 0.0 {
            spec.spam = None;
        } else {
            let spammers = ((spec.honest as f64 * pct / 100.0).round() as usize).max(1);
            spec.spam = Some(SpamSpec {
                spammers,
                burst: spec.spam.map(|s| s.burst).unwrap_or(6),
                at_ms: spec.spam.map(|s| s.at_ms).unwrap_or(15_000),
            });
            spec.drain_ms = spec.drain_ms.max(60_000);
        }
    }
    if let Some(pct) = overrides.churn_rate_pct {
        if pct <= 0.0 {
            spec.churn = Vec::new();
        } else {
            let peers = ((spec.honest as f64 * pct / 100.0).round() as usize).max(1);
            spec.churn = vec![ChurnEvent {
                at_ms: 20_000,
                action: ChurnAction::Crash { peers },
            }];
            spec.drain_ms = spec.drain_ms.max(60_000);
        }
    }
}

fn build_spec(
    name: &str,
    nodes: usize,
    seed: u64,
    adversary_fraction_pct: Option<f64>,
    overrides: &Overrides,
) -> ScenarioSpec {
    let Some(mut spec) = builtin(name, nodes, seed) else {
        eprintln!("unknown scenario: {name}");
        eprintln!("scenarios: {}", BUILTIN_NAMES.join(", "));
        std::process::exit(2);
    };
    apply_overrides(&mut spec, overrides);
    // swept axis: the colluding passive-observer share (percent). 0 is
    // the no-surveillance control row, mirroring --spam-rate semantics.
    if let Some(pct) = adversary_fraction_pct {
        if pct <= 0.0 {
            spec.surveillance = None;
        } else {
            spec.surveillance = Some(SurveillanceSpec {
                observer_fraction: pct / 100.0,
            });
        }
    }
    // an impossible flag combination (e.g. --nodes 1) is a usage error
    if let Err(reason) = spec.check() {
        eprintln!("invalid parameters for {name}: {reason}");
        std::process::exit(2);
    }
    spec
}

fn parse_list(value: &str, what: &str) -> Vec<u64> {
    let parsed: Option<Vec<u64>> = value.split(',').map(|v| v.trim().parse().ok()).collect();
    match parsed {
        Some(v) if !v.is_empty() => v,
        _ => {
            eprintln!("{what} needs a comma-separated integer list, got: {value}");
            std::process::exit(2);
        }
    }
}

fn parse_f64_list(value: &str, what: &str) -> Vec<f64> {
    let parsed: Option<Vec<f64>> = value.split(',').map(|v| v.trim().parse().ok()).collect();
    match parsed {
        Some(v) if !v.is_empty() => v,
        _ => {
            eprintln!("{what} needs a comma-separated number list, got: {value}");
            std::process::exit(2);
        }
    }
}

fn emit(json: &str, out_path: Option<&str>) {
    print!("{json}");
    if let Some(path) = out_path {
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}");
    }
}

/// Warns on stderr when the drain's hard stop cut the network off with
/// application frames still undelivered. Returns whether it did.
fn warn_on_hard_stop(report: &ScenarioReport, tb: &Testbed) -> bool {
    let frames = tb.frames_in_flight();
    if frames == 0 {
        return false;
    }
    eprintln!(
        "warning: {} drain hard-stopped with {frames} application frames still in flight \
         ({} events queued) — the network did not settle",
        report.scenario, report.drain_pending_events,
    );
    true
}

/// Runs one spec, optionally streaming a per-simulated-second progress
/// line to stderr (throttled to roughly one line per wall-second).
fn execute(spec: &ScenarioSpec, progress: bool) -> (ScenarioReport, Testbed) {
    let mut last_print_wall = 0u64;
    let mut last = (0u64, 0u64); // (sim_ms, events) at the last line
    run_scenario_observed(spec, |p: &Progress| {
        let due = p.wall_ms.saturating_sub(last_print_wall) >= 1_000 || p.sim_ms >= p.total_ms;
        if !progress || !due {
            return;
        }
        let dsim = p.sim_ms - last.0;
        let devents = p.events_dispatched - last.1;
        let events_per_sim_s = if dsim > 0 {
            devents as f64 * 1000.0 / dsim as f64
        } else {
            0.0
        };
        let wall_rate = if p.wall_ms > 0 {
            p.sim_ms as f64 / p.wall_ms as f64
        } else {
            0.0
        };
        eprintln!(
            "  progress: {:>6.1}s / {:.1}s sim | {} events | {:.0} events/sim-s | {:.2} sim-ms/wall-ms",
            p.sim_ms as f64 / 1000.0,
            p.total_ms as f64 / 1000.0,
            p.events_dispatched,
            events_per_sim_s,
            wall_rate,
        );
        last_print_wall = p.wall_ms;
        last = (p.sim_ms, p.events_dispatched);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        usage()
    };
    if command == "list" {
        for name in BUILTIN_NAMES {
            println!("{name}");
        }
        return;
    }
    if command == "soak" {
        run_soak_command(&args[1..]);
        return;
    }
    if command != "run" && command != "sweep" {
        usage();
    }
    let Some(scenario) = args.get(1).map(String::as_str) else {
        usage()
    };

    let mut nodes: Vec<u64> = vec![1000];
    let mut seeds: Vec<u64> = vec![2022];
    // None = keep the scenario's own surveillance block
    let mut adversary_fractions: Vec<Option<f64>> = vec![None];
    let mut overrides = Overrides::default();
    let mut out_path: Option<String> = None;
    let mut progress = false;
    let mut rest = args[2..].iter();
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| -> String {
            rest.next().cloned().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--nodes" => nodes = parse_list(&value("--nodes"), "--nodes"),
            "--seed" | "--seeds" => seeds = parse_list(&value("--seeds"), "--seeds"),
            "--spam-rate" => {
                overrides.spam_rate_pct = Some(value("--spam-rate").parse().unwrap_or_else(|_| {
                    eprintln!("--spam-rate needs a number (percent)");
                    std::process::exit(2);
                }))
            }
            "--churn-rate" => {
                overrides.churn_rate_pct =
                    Some(value("--churn-rate").parse().unwrap_or_else(|_| {
                        eprintln!("--churn-rate needs a number (percent)");
                        std::process::exit(2);
                    }))
            }
            "--adversary-fraction" => {
                adversary_fractions = parse_f64_list(
                    &value("--adversary-fraction"),
                    "--adversary-fraction (percent)",
                )
                .into_iter()
                .map(Some)
                .collect();
            }
            "--publish-jitter" => {
                overrides.publish_jitter_ms =
                    Some(value("--publish-jitter").parse().unwrap_or_else(|_| {
                        eprintln!("--publish-jitter needs an integer (milliseconds)");
                        std::process::exit(2);
                    }))
            }
            "--progress" => progress = true,
            "--out" => out_path = Some(value("--out")),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    if command == "run" {
        if nodes.len() != 1 || seeds.len() != 1 || adversary_fractions.len() != 1 {
            eprintln!(
                "`run` takes a single node count, seed and adversary fraction; \
                 use `sweep` for lists"
            );
            std::process::exit(2);
        }
        let spec = build_spec(
            scenario,
            nodes[0] as usize,
            seeds[0],
            adversary_fractions[0],
            &overrides,
        );
        eprintln!(
            "running {scenario}: {} peers, seed {}, {} ms simulated...",
            spec.initial_peers(),
            spec.seed,
            spec.duration_ms()
        );
        let (report, tb) = execute(&spec, progress);
        eprintln!("{}", report.summary_line());
        emit(&report.to_json(), out_path.as_deref());
        if warn_on_hard_stop(&report, &tb) {
            std::process::exit(1);
        }
        return;
    }

    // sweep: cartesian product of node counts, seeds and adversary
    // fractions (the last axis is a single no-op entry unless
    // --adversary-fraction was given)
    let total = nodes.len() * seeds.len() * adversary_fractions.len();
    let mut reports = Vec::with_capacity(total);
    let mut hard_stopped = false;
    for n in &nodes {
        for s in &seeds {
            for f in &adversary_fractions {
                let spec = build_spec(scenario, *n as usize, *s, *f, &overrides);
                let observers = match spec.surveillance {
                    Some(_) => format!(", {} observers", spec.observer_count()),
                    None => String::new(),
                };
                eprintln!(
                    "[{}/{}] {scenario}: {} peers, seed {s}{observers}...",
                    reports.len() + 1,
                    total,
                    spec.initial_peers(),
                );
                let (report, tb) = execute(&spec, progress);
                eprintln!("  {}", report.summary_line());
                hard_stopped |= warn_on_hard_stop(&report, &tb);
                reports.push(report);
            }
        }
    }
    let mut json = String::from("[\n");
    for (i, report) in reports.iter().enumerate() {
        // indent each object two spaces to keep the array readable
        let object = report.to_json();
        let object = object.trim_end();
        for line in object.lines() {
            json.push_str("  ");
            json.push_str(line);
            json.push('\n');
        }
        if i + 1 < reports.len() {
            json.truncate(json.trim_end().len());
            json.push_str(",\n");
        }
    }
    json.push_str("]\n");
    emit(&json, out_path.as_deref());
    if hard_stopped {
        std::process::exit(1);
    }
}

/// The `soak` subcommand: simulated-days leak harness with streaming
/// JSONL deltas and checkpoint/restore byte-identity verification.
fn run_soak_command(args: &[String]) {
    let (mut hours, mut nodes, mut seed) = (24u64, 8usize, 2022u64);
    let mut checkpoint_every = 4u64;
    let mut out_path: Option<String> = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| -> String {
            rest.next().cloned().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(2);
            })
        };
        let parse_u64 = |raw: String, what: &str| -> u64 {
            raw.parse().unwrap_or_else(|_| {
                eprintln!("{what} needs an integer, got: {raw}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--sim-hours" => hours = parse_u64(value("--sim-hours"), "--sim-hours"),
            "--checkpoint-every" => {
                checkpoint_every = parse_u64(value("--checkpoint-every"), "--checkpoint-every")
            }
            "--nodes" => nodes = parse_u64(value("--nodes"), "--nodes") as usize,
            "--seed" => seed = parse_u64(value("--seed"), "--seed"),
            "--out" => out_path = Some(value("--out")),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    let Some(total_ms) = hours.checked_mul(3_600_000) else {
        eprintln!("--sim-hours is too large");
        usage()
    };
    if nodes < 2 || hours == 0 {
        eprintln!("soak needs at least 2 nodes and 1 simulated hour");
        std::process::exit(2);
    }
    let config = SoakConfig {
        checkpoint_every,
        ..SoakConfig::steady(nodes, seed, total_ms)
    };
    eprintln!(
        "soaking {nodes} peers for {hours} simulated hours (checkpoint every {checkpoint_every} \
         segments), seed {seed}...",
    );
    let started = std::time::Instant::now();
    let mut lines = String::new();
    let outcome = run_soak(&config, &SoakBounds::default(), &mut |delta| {
        let line = delta.to_json_line();
        println!("{line}");
        lines.push_str(&line);
        lines.push('\n');
        eprintln!(
            "  segment {}/{}: {} published, {} delivered, nullifier max {} B{}",
            delta.segment + 1,
            config.segments(),
            delta.published,
            delta.deliveries,
            delta.nullifier_map_max_bytes,
            if delta.checkpoint_verified {
                " [checkpoint verified]"
            } else {
                ""
            },
        );
    });
    if let Some(path) = &out_path {
        std::fs::write(path, &lines).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}");
    }
    eprintln!(
        "soak done: {} one-hour segments, {} checkpoints verified, \
         {} published, {} delivered, wall {:.1}s",
        outcome.segments,
        outcome.checkpoints_verified,
        outcome.published,
        outcome.deliveries,
        started.elapsed().as_secs_f64(),
    );
    if !outcome.clean() {
        for v in &outcome.violations {
            eprintln!("violation: {v}");
        }
        std::process::exit(1);
    }
}
