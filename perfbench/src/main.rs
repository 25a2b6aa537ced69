//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the repository root and prints a metric table
//! followed, as the last line, by one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when an output check
//! fails and 2 when the benchmark cannot run (bad arguments, missing
//! designs, library errors).
//!
//! `--tiny` shrinks the inputs to one short pass, for the benchmark's own
//! tests. The golden designs are read from `examples/`; spans and
//! temporary stores go to `.perfbench/`.

use mtk_perfbench::{report_lines, result_line, run, Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <screen_size|hybrid_verify|serve_store> \
--seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut tiny = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected seconds"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tiny,
        examples: PathBuf::from("examples"),
        out_dir: PathBuf::from(".perfbench"),
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in report_lines(&cfg, &outcome) {
        println!("{line}");
    }
    println!("{}", result_line(cfg.trace, &outcome));
    if outcome.check_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
