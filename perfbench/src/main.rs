//! `perfbench` — the repository's wall-clock benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the inputs of one workload from the seed, measures for the given
//! number of seconds, checks the outputs, and prints every metric by name
//! and unit followed, as the last line, by one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics (untraced devices, program
//! defaults); `--trace 1` reports the per-layer metrics from a separate
//! traced run. Exits 1 when a correctness gate fails, 2 on bad arguments.

mod decode;
mod encoder;
mod gate;
mod inputs;
mod layers;
mod report;
mod serve;
mod setup;
mod stats;

use report::Run;

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["encoder_long_varlen", "serve_short_openloop", "decode_paged_batch"];

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| **w == value.as_str());
                workload = Some(*w.ok_or_else(|| format!("unknown workload {value}; expected one of {WORKLOADS:?}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
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

fn execute(a: &Args) -> Run {
    match (a.workload, a.trace) {
        ("encoder_long_varlen", false) => encoder::run(a.seed, a.seconds),
        ("encoder_long_varlen", true) => encoder::run_traced(a.seed, a.seconds),
        ("serve_short_openloop", false) => serve::run(a.seed, a.seconds),
        ("serve_short_openloop", true) => serve::run_traced(a.seed, a.seconds),
        ("decode_paged_batch", false) => decode::run(a.seed, a.seconds),
        ("decode_paged_batch", true) => decode::run_traced(a.seed, a.seconds),
        _ => unreachable!("parse admits only listed workloads"),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let generator_threads = usize::from(args.workload == "serve_short_openloop");
    println!(
        "provenance {}",
        report::provenance(args.workload, args.seed, args.trace, generator_threads)
    );
    let run = execute(&args);
    for note in &run.notes {
        println!("note {note}");
    }
    for line in run.table(args.trace) {
        println!("metric {line}");
    }
    for e in &run.errors {
        println!("GATE FAILED {e}");
        eprintln!("perfbench: gate failed: {e}");
    }
    println!("{}", run.result_json(args.trace));
    if !run.errors.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&argv("--workload decode_paged_batch --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "decode_paged_batch",
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload decode_paged_batch --seconds 1",
            "--workload decode_paged_batch --seed x --seconds 1",
            "--workload decode_paged_batch --seed 1 --seconds 0",
            "--workload decode_paged_batch --seed 1 --seconds 1 --trace 2",
            "--workload decode_paged_batch --seed 1 --seconds",
            "--bogus 1",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
