//! The RUMOR benchmark: one command that runs a named workload from a
//! seed, checks every result against a reference computed by a different
//! code path, and prints end-to-end metrics (untraced) or per-layer
//! metrics (traced) as the last line of standard output.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_mix|tenant_fanout|live_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds all inputs from the seed before timing, then
//! runs *rounds* (one pass over the same input; timestamps shifted where
//! a session outlives the round). Rounds in the first two seconds warm
//! up and are not measured; measured rounds follow until `--seconds`
//! have passed. Per-round figures are reported as the mean of the middle
//! 60% of rounds. A traced run alternates traced and untraced rounds, so
//! tracing overhead is measured in the same process.
//! Spans and the per-layer summary go to `.perfbench_out/`.
//!
//! `--describe` prints `perfbench/metrics.json`, `--emit-benchmark-json`
//! prints `BENCHMARK.json`; both are rendered from [`registry`].
//!
//! The load generator is this one process: at most two threads of its
//! own (`std::thread::available_parallelism` is printed) and at most two
//! connections.

mod check;
mod live_churn;
mod measure;
mod paper_mix;
mod registry;
mod rounds;
mod tenant_fanout;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

/// How `BENCHMARK.json` runs this program.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 25;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Raw samples behind a percentile or median, when there are any.
    pub samples: Option<u64>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples: None,
        }
    }

    pub fn with_samples(mut self, n: u64) -> Metric {
        self.samples = Some(n);
        self
    }
}

/// What a workload run hands back.
pub struct Report {
    /// Calls attempted plus results expected.
    pub attempted: u64,
    /// Calls failed plus results missing or wrong.
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    pub tracer: Tracer,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if registry::workload(&workload).is_none() {
        return Err(format!(
            "unknown workload {workload}; one of {:?}",
            registry::ALL
        ));
    }
    let seconds: u64 = seconds.unwrap_or(RUN_SECONDS);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Writes the kept spans and the per-layer summary.
fn write_trace(args: &Args, tracer: &Tracer, metrics: &[Metric]) -> std::io::Result<()> {
    let dir = std::path::Path::new(".perfbench_out");
    std::fs::create_dir_all(dir)?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    std::fs::write(
        dir.join(format!("{stem}.spans.jsonl")),
        tracer.spans_jsonl(),
    )?;
    let layer_metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let summary = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"metrics\": [{}], \"trace\": {}}}\n",
        args.workload,
        args.seed,
        layer_metrics.join(", "),
        tracer.summary_json(registry::span_layer).trim_end()
    );
    std::fs::write(dir.join(format!("{stem}.summary.json")), summary)
}

fn run(args: &Args) -> Result<Report, String> {
    let origin = Instant::now();
    let result = match args.workload.as_str() {
        "paper_mix" => paper_mix::run(args, origin),
        "tenant_fanout" => tenant_fanout::run(args, origin),
        "live_churn" => live_churn::run(args, origin),
        other => unreachable!("workload {other} passed validation"),
    };
    result.map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("--describe") => {
            print!("{}", registry::describe_json());
            return ExitCode::SUCCESS;
        }
        Some("--emit-benchmark-json") => {
            print!("{}", registry::benchmark_json(RUN_SECONDS));
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &report.metrics {
        let layer = registry::metric(m.name).map_or("?", |d| d.layer);
        match m.samples {
            Some(n) => println!(
                "  {:<34} {:>16.4} {:<9} n={n:<9} [{layer}]",
                m.name, m.value, m.unit
            ),
            None => println!(
                "  {:<34} {:>16.4} {:<9} {:<11} [{layer}]",
                m.name, m.value, m.unit, ""
            ),
        }
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "  {:<34} {:>16.4} {:<9} ({} failed of {} attempted)",
        "failed_frac", failed_frac, "ratio", report.failed, report.attempted
    );
    for p in report.problems.iter().take(5) {
        println!("  PROBLEM: {p}");
    }
    if report.problems.len() > 5 {
        println!("  ... and {} more problems", report.problems.len() - 5);
    }
    if args.trace {
        if let Err(e) = write_trace(&args, &report.tracer, &report.metrics) {
            eprintln!("perfbench: cannot write the trace: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "  spans and summary written to .perfbench_out/{}-seed{}.*",
            args.workload, args.seed
        );
    }

    // The last line: exactly the metrics BENCHMARK.json lists for this
    // kind of run, by name and unit.
    let wanted = |d: &registry::MetricDef| match d.gate {
        registry::Gate::EndToEnd(_) => !args.trace,
        registry::Gate::PerLayer => args.trace,
        registry::Gate::Unlisted => false,
    };
    let listed: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| registry::metric(m.name).is_some_and(wanted))
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = report.problems.is_empty() && report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        listed.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload live_churn --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("live_churn", 7, 3, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload paper_mix").is_err());
        assert!(args("--workload paper_mix --seed 1 --trace 2").is_err());
        assert!(args("--workload paper_mix --seed 1 --seconds").is_err());
        assert!(args("--workload paper_mix --seed x").is_err());
    }
}
