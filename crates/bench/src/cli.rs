//! Shared command-line plumbing for the experiment binaries: flag
//! parsing, the failure-policy knob, and the `--trace-json` export.
//!
//! Every `ext_*` binary used to hand-roll these (and the copies had
//! started to drift); they now live here so flags and telemetry behave
//! identically across tools.

use mtk_core::health::FailurePolicy;
use mtk_trace::{TraceConfig, TraceReport};

/// Value of `--<name> N`, or `default` when the flag is absent. A
/// present flag with a missing or unparsable value is a usage error:
/// `error: --<name>: invalid value '<v>'` and exit 2.
pub fn flag(name: &str, default: usize) -> usize {
    parsed_flag(name, default)
}

/// The value after `name` parsed as `T`; see [`flag`].
fn parsed_flag<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    let Some(i) = args.iter().position(|a| a == name) else {
        return default;
    };
    let value = args.get(i + 1).map_or("", String::as_str);
    value.parse().unwrap_or_else(|_| {
        eprintln!("error: {name}: invalid value '{value}'");
        std::process::exit(2)
    })
}

/// True when `--<name>` is present.
pub fn bool_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Value of `--<name> X` as a float, or `default` when the flag is
/// absent; a bad value exits 2 as in [`flag`].
pub fn f64_flag(name: &str, default: f64) -> f64 {
    parsed_flag(name, default)
}

/// Value of `--<name> <string>`, when present.
pub fn str_flag(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The failure policy shared by every sweep-running binary:
/// quarantine-with-a-cap by default (`--max-failures N`, default 32),
/// `--fail-fast` to abort on the first failure.
pub fn failure_policy() -> FailurePolicy {
    if bool_flag("--fail-fast") {
        FailurePolicy::FailFast
    } else {
        FailurePolicy::quarantine(flag("--max-failures", 32))
    }
}

/// Renders `threads` the way the binaries report it (`0` = all cores).
pub fn threads_label(threads: usize) -> String {
    if threads == 0 {
        "all".to_string()
    } else {
        threads.to_string()
    }
}

/// The flag-driven trace configuration shared by every binary: full
/// tracing by default, `--trace-deterministic` to drop the
/// schedule-dependent `timing` section (and span recording with it) so
/// the written JSON is byte-identical at any thread count.
pub fn trace_config() -> TraceConfig {
    if bool_flag("--trace-deterministic") {
        TraceConfig::deterministic()
    } else {
        TraceConfig::full()
    }
}

/// Prints the shared telemetry footer and, when `--trace-json <path>`
/// was given, writes the versioned JSON trace there (the `BENCH_*.json`
/// artifact of a run) under the mode from [`trace_config`].
pub fn emit_trace(report: &TraceReport) {
    print!("\n{}", report.render_text());
    if let Some(path) = str_flag("--trace-json") {
        let json = report.to_json(trace_config().mode);
        match std::fs::write(&path, &json) {
            Ok(()) => println!("trace written to {path}"),
            Err(e) => {
                eprintln!("error: could not write trace to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
