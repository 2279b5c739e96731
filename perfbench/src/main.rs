//! The repository benchmark binary. One process runs one workload for a
//! fixed time, checks every output, and prints one JSON result line last:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate traced run with `--trace 1`.
//!
//! ```text
//! pando-perfbench --workload tcp_echo --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `perfbench/run.py` builds this binary and wraps it; see
//! `perfbench/README.md` for the workloads, metrics and comparison mode.

mod fleet;
mod measure;
mod probe;
mod tcp;
mod trace;

use measure::Metrics;

/// Where a traced run writes its span file, relative to the working
/// directory.
pub const OUT_DIR: &str = ".bench_out";

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes, for the self-test.
    pub smoke: bool,
    /// Corrupt one result before the output check, to show the check fails.
    pub corrupt: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Metrics,
    /// Tail percentiles printed with the end-to-end metrics but not part of
    /// the result line: on a shared 2-vCPU host their run-to-run spread is
    /// far wider than any bound a gate could use (untraced runs only).
    pub ungated: Metrics,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--smoke" => args.smoke = true,
            "--corrupt" => args.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be within (0, 120]".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("pando-perfbench: {err}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "tcp_echo" => tcp::run(tcp::Kind::Echo, &args),
        "tcp_raytrace" => tcp::run(tcp::Kind::Raytrace, &args),
        "tcp_churn" => tcp::run(tcp::Kind::Churn, &args),
        "fleet_sim" => fleet::run(&args),
        other => {
            eprintln!("pando-perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    for error in &outcome.errors {
        println!("error: {error}");
    }
    let failed_ratio = measure::ratio(outcome.failed as f64, outcome.attempted as f64);
    println!(
        "check: {} attempted, {} failed (failed_ratio {failed_ratio})",
        outcome.attempted, outcome.failed
    );
    for (name, value, unit) in outcome.metrics.0.iter().chain(&outcome.ungated.0) {
        println!("metric {name} = {value} {unit}");
    }
    if !args.trace {
        println!("ungated {}", outcome.ungated.to_json());
    }
    let correct = outcome.failed == 0 && outcome.errors.is_empty() && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json()
    );
}
