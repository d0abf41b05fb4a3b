//! The repository's benchmark: one command, five workloads.
//!
//! `benchmark --workload NAME --seed S --seconds N --trace 0|1 [--smoke]`
//! generates the workload from the seed, drives it through the workspace's
//! public API, checks the outputs, and prints every metric by name with
//! its unit as one JSON object on the last line of standard output —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1` (which also writes `benchmark/out/<workload>.trace.json`).
//! It exits non-zero, naming the check, when an output is wrong. See
//! README.md for what each workload and metric is for.

mod corpus;
mod metrics;
mod probes;
mod relay;
mod sim;
mod stats;
mod trace;

use metrics::MetricSet;
use probes::Bench;
use stats::Summary;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them (which also
/// records why each exists).
pub const WORKLOADS: [&str; 5] = [
    "mesh_10k",
    "publish_200",
    "relay_serial",
    "relay_pipeline",
    "storm_1k",
];

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
}

/// What one invocation found.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every failed check, by name; empty means correct.
    pub failures: Vec<String>,
    pub metrics: MetricSet,
    /// `"key": value` pairs for the detail line.
    pub detail: Vec<String>,
}

/// Where span files go: `out/` next to this package's manifest, wherever
/// the checkout it was built in lives.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

const USAGE: &str =
    "usage: benchmark --workload NAME --seed S [--seconds N] [--trace 0|1] [--smoke]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => options.workload = value()?.clone(),
            "--seed" => {
                options.seed = value()?
                    .parse()
                    .map_err(|e| format!("--seed: {e}\n{USAGE}"))?
            }
            "--seconds" => {
                options.seconds = value()?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}\n{USAGE}"))?
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}\n{USAGE}")),
                }
            }
            "--smoke" => options.smoke = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&options.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}\n{USAGE}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(options)
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// n, min, median and max of a timing series, plus the series itself in
/// measuring order while it is short enough to read.
pub fn summary_json(values: &[f64]) -> String {
    let s = Summary::of(values);
    let mut out = format!(
        "{{\"n\": {}, \"min\": {}, \"median\": {}, \"max\": {}",
        s.n, s.min, s.median, s.max
    );
    if values.len() <= 16 {
        out.push_str(&format!(", \"series\": {values:?}"));
    }
    out.push('}');
    out
}

pub fn bench_for<'a>(tracer: &'a mut Tracer, parent: trace::SpanId, o: &Options) -> Bench<'a> {
    Bench {
        tracer,
        parent,
        // ~45 probes share the run's measuring time
        budget: if o.smoke {
            Duration::from_millis(10)
        } else {
            Duration::from_secs(o.seconds) / 60
        },
        proofs: if o.smoke { 6 } else { 100 },
    }
}

/// Where the span file of a traced run goes (a smoke run gets a name of
/// its own, so the tests never overwrite a real trace).
fn trace_path(o: &Options) -> std::path::PathBuf {
    let smoke = if o.smoke { ".smoke" } else { "" };
    std::path::Path::new(OUT_DIR).join(format!("{}{smoke}.trace.json", o.workload))
}

/// Closes the root span and writes the span file.
pub fn finish_trace(
    mut tracer: Tracer,
    root: trace::SpanId,
    o: &Options,
    failures: &mut Vec<String>,
) {
    tracer.close(root, Instant::now(), 1);
    let path = trace_path(o);
    if let Err(e) = tracer.write(&path) {
        failures.push(format!("cannot write {}: {e}", path.display()));
    }
}

fn run(o: &Options) -> Outcome {
    match sim::spec_for(&o.workload, o.smoke, o.seed) {
        Some((spec, floors)) if o.trace => sim::per_layer(&spec, &floors, o),
        Some((spec, floors)) => sim::end_to_end(&spec, &floors, o),
        None if o.trace => relay::per_layer(o),
        None => relay::end_to_end(o),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&options);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"smoke\": {}, \"host_parallelism\": {threads}, {}}}",
        options.workload,
        options.seed,
        options.trace,
        options.smoke,
        outcome.detail.join(", ")
    );
    for failure in &outcome.failures {
        eprintln!("FAILED CHECK [{}]: {failure}", options.workload);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()
    );
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{END_TO_END, PER_LAYER};

    fn smoke(workload: &str, trace: bool) -> Options {
        Options {
            workload: workload.to_string(),
            seed: 7,
            seconds: 1,
            trace,
            smoke: true,
        }
    }

    /// Every workload at smoke size, untraced, with every check on.
    #[test]
    fn smoke_end_to_end_prints_exactly_the_declared_metrics() {
        for w in WORKLOADS {
            let outcome = run(&smoke(w, false));
            assert_eq!(outcome.failures, Vec::<String>::new(), "{w}");
            assert!(outcome.attempted >= 1 && outcome.failed == 0, "{w}");
            let json = outcome.metrics.to_json();
            for d in END_TO_END {
                let v = outcome.metrics.get(d.name);
                assert!(v > 0.0, "{} is {v} on {w}", d.name);
                assert!(json.contains(&format!("\"{}\": {{", d.name)));
            }
            assert_eq!(json.matches("\"unit\"").count(), END_TO_END.len());
        }
    }

    /// Every workload at smoke size, traced: all per-layer metrics print
    /// and the span file is written.
    #[test]
    fn smoke_traced_prints_every_per_layer_metric() {
        for w in WORKLOADS {
            let options = smoke(w, true);
            let outcome = run(&options);
            assert_eq!(outcome.failures, Vec::<String>::new(), "{w}");
            let json = outcome.metrics.to_json();
            assert_eq!(json.matches("\"unit\"").count(), PER_LAYER.len());
            assert!(outcome.metrics.get("scenarios.attributed_share") > 0.0);
            let file = trace_path(&options);
            let spans = std::fs::read_to_string(&file).expect("span file written");
            assert!(spans.contains("\"name\": \"workload\""));
            assert!(spans.contains("probe.rln.create_signal"));
            std::fs::remove_file(&file).unwrap();
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args("--workload storm_1k --seed 9 --seconds 5 --trace 1")).unwrap();
        assert!(o.trace && o.seed == 9 && o.seconds == 5 && !o.smoke);
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload mesh_10k --trace 2")).is_err());
        assert!(parse_args(&args("--workload mesh_10k --seed")).is_err());
        assert!(parse_args(&args("--wat")).is_err());
    }
}
