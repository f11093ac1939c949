//! The repository's serving benchmark.
//!
//! ```text
//! perfbench --workload cold_static|hot_churn|fleet_churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload (see [`drive`]) for `S` seconds against the public
//! API of the service, fleet, store and walk/trie layers, checks a
//! seeded sample of its answers, and prints one metric per line followed
//! by a JSON result line. `--trace 1` adds the per-layer metrics and
//! writes the run's spans under `.perfbench_out/`; end-to-end figures
//! are taken from untraced runs. `perfbench/run.py` builds this binary
//! and runs each workload in a fresh process.
//!
//! The exit code is 0 only when no operation failed and every checked
//! answer was within bounds.

mod check;
mod drive;
mod report;
mod trace;

use std::process::ExitCode;

use drive::{Args, Workload};

const USAGE: &str =
    "usage: perfbench --workload cold_static|hot_churn|fleet_churn --seed N --seconds S --trace 0|1";

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("cannot parse {flag} {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("error: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match drive::run(&args) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("error: {error}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    print!("{}", outcome.report.table());
    println!(
        "  {:<26} {:>14} {:<6}\n  {:<26} {:>14} {:<6}",
        "ops_attempted", outcome.attempted, "count", "ops_failed", outcome.failed, "count"
    );
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        args.workload.name(),
        args.seed,
        args.trace,
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        outcome.report.json()
    );
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
