//! End-to-end and per-layer benchmark of the MTCMOS sizing tool.
//!
//! Three seeded workloads drive the library through its public entry
//! points and check the outputs:
//!
//! * [`screen_size`] — the paper's own flow: switch-level screening of a
//!   wide netlist in parallel plus a serial, cache-heavy W/L bisection.
//! * [`hybrid_verify`] — screen → SPICE verification of the top-k.
//! * [`serve_store`] — a closed-loop client against an in-process
//!   `mtk serve` with a fresh persistent store: cold requests simulate
//!   and write records, warm ones replay them.
//!
//! An untraced run reports the end-to-end metrics; a traced run wraps
//! every call into a layer in a [`spans::Tracer`] span (recorded here,
//! never inside the program) and reports the per-layer metrics. See
//! `WHERE_THE_TIME_GOES.md` beside this crate.

pub mod checks;
pub mod hybrid_verify;
pub mod inputs;
pub mod screen_size;
pub mod serve_store;
pub mod spans;
pub mod stats;

use mtk_trace::json::JsonValue;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Worker threads any workload may start (the benchmark host has 2 CPUs).
pub const THREADS: usize = 2;

/// Set-ups timed before each measured pass of an untraced run;
/// `setup_s` is the median of all of them. A set-up lasts milliseconds,
/// and back-to-back set-ups all land in one phase of the host's speed,
/// whose level moved by half from one run to the next; spread over the
/// run, they sample many phases.
pub const SETUPS_PER_PASS: usize = 4;

/// The end-to-end metrics every workload reports from its untraced run,
/// with their units. `BENCHMARK.json` lists exactly these.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("screen_transitions_per_s", "1/s"),
];

/// Further end-to-end figures, printed (with units) in the untraced run's
/// table but not gated. Most exist on one workload only; `failed_ratio`
/// is the result line's `failed / attempted`; `peak_rss_mb` spread by a
/// quarter between runs of `serve_store` (its connection threads fill
/// allocator arenas at different moments). A workload that does not have
/// one prints 0.
pub const WORKLOAD_FIGURES: &[(&str, &str)] = &[
    ("peak_rss_mb", "MB"),
    ("size_s", "s"),
    ("verify_s", "s"),
    ("warm_p50_ms", "ms"),
    ("warm_p95_ms", "ms"),
    ("cold_p50_ms", "ms"),
    ("cold_p75_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("failed_ratio", "ratio"),
];

/// The per-layer metrics every traced run reports, with their units.
/// `BENCHMARK.json` lists exactly these. A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fe.parse_s", "s"),
    ("fe.to_mtk_s", "s"),
    ("trace.json_parse_s", "s"),
    ("trace.json_request_kb", "KB"),
    ("trace.overhead_s", "s"),
    ("netlist.expand_s", "s"),
    ("vbsim.engine_build_s", "s"),
    ("vbsim.run_s", "s"),
    ("vbsim.breakpoints", "count"),
    ("vbsim.ns_per_breakpoint", "ns"),
    ("vbsim.glitch_reversals", "count"),
    ("vbsim.vx_fallbacks", "count"),
    ("sizing.screen_s", "s"),
    ("sizing.bisect_s", "s"),
    ("sizing.cache_hits", "count"),
    ("sizing.cache_misses", "count"),
    ("sizing.cache_hit_ratio", "ratio"),
    ("par.busy_s", "s"),
    ("par.utilization", "ratio"),
    ("hybrid.screen_s", "s"),
    ("hybrid.verify_s", "s"),
    ("spice.transition_s", "s"),
    ("spice.dc_op_s", "s"),
    ("spice.tran_s", "s"),
    ("spice.newton_iterations", "count"),
    ("spice.steps", "count"),
    ("spice.lu_pattern_reuses", "count"),
    ("spice.dt_halvings", "count"),
    ("spice.gmin_stages", "count"),
    ("spice.us_per_step", "us"),
    ("store.open_s", "s"),
    ("store.log_bytes", "bytes"),
    ("store.puts", "count"),
    ("store.put_us_p50", "us"),
    ("store.put_us_p99", "us"),
    ("store.gets", "count"),
    ("store.get_us_p50", "us"),
    ("store.hit_ratio", "ratio"),
    ("serve.overhead_ms", "ms"),
    ("serve.store_hits", "count"),
    ("serve.store_misses", "count"),
    ("serve.requests_rejected", "count"),
    ("serve.conn_timeouts", "count"),
];

/// The workloads, by their `--workload` name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Parallel screening of `adder64` plus the cached `adder3` bisection.
    ScreenSize,
    /// `run_hybrid` on `adder3` and `alu4`: mostly SPICE.
    HybridVerify,
    /// Store-backed `mtk serve`, cold and warm requests.
    ServeStore,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ScreenSize,
        Workload::HybridVerify,
        Workload::ServeStore,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScreenSize => "screen_size",
            Workload::HybridVerify => "hybrid_verify",
            Workload::ServeStore => "serve_store",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long to keep measuring passes, seconds.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics instead.
    pub trace: bool,
    /// Shrunken inputs and a single pass, for the benchmark's own tests.
    pub tiny: bool,
    /// Directory holding the golden `.mtk` designs.
    pub examples: PathBuf,
    /// Directory for spans and temporary stores (created on demand).
    pub out_dir: PathBuf,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric by name (end-to-end, workload figures and per-layer).
    pub values: BTreeMap<&'static str, f64>,
    /// Operations attempted (screened items, bisections, requests, …).
    pub attempted: u64,
    /// Attempted operations that failed: quarantined items plus error or
    /// busy responses.
    pub failed: u64,
    /// Output checks that failed, one reason each.
    pub check_failures: Vec<String>,
    /// Extra human-readable lines (self-time shares, span file).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records the result of an output check.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.check_failures.push(e);
        }
    }

    /// Adds the self-time share of each span name under the `pass` root
    /// spans (the measured passes) and under the `replay` root spans as
    /// note lines.
    pub fn note_self_time_shares(&mut self, tracer: &spans::Tracer) {
        for root in ["pass", "replay"] {
            let by_name = tracer.self_times_under(root);
            let total: f64 = by_name.values().sum();
            for (name, secs) in by_name {
                self.notes.push(format!(
                    "self-time under {root:<6} {name:<20} {:>6.2} %  ({secs:.4} s)",
                    100.0 * stats::ratio(secs, total)
                ));
            }
        }
    }
}

/// Runs `pass` repeatedly until `seconds` have elapsed (at least
/// `min_passes` times), returning each pass's result.
fn repeat_for<T>(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        out.push(pass(out.len())?);
    }
    Ok(out)
}

/// The measured passes of one run.
pub struct Measured<T> {
    /// Each pass's result.
    pub passes: Vec<T>,
    /// Each pass's wall time, seconds.
    pub walls: Vec<f64>,
    /// Each pass's peak resident set, MiB.
    pub peak_rss: Vec<f64>,
    /// Walls of the untraced passes a traced run interleaves, seconds.
    pub baseline: Vec<f64>,
    /// Set-up times of an untraced run, seconds.
    pub setups: Vec<f64>,
}

impl<T> Measured<T> {
    /// Records `wall_s`, `peak_rss_mb`, `setup_s` for an untraced run
    /// and `trace.overhead_s` for a traced one, plus a note listing the
    /// pass walls.
    pub fn record(&self, out: &mut Outcome) {
        out.set("wall_s", stats::median(&self.walls));
        if !self.setups.is_empty() {
            out.set("setup_s", stats::median(&self.setups));
        }
        out.set("peak_rss_mb", stats::median(&self.peak_rss));
        if !self.baseline.is_empty() {
            out.set(
                "trace.overhead_s",
                stats::median(&self.walls) - stats::median(&self.baseline),
            );
        }
        let walls: Vec<String> = self.walls.iter().map(|w| format!("{w:.3}")).collect();
        out.notes
            .push(format!("pass walls (s): {}", walls.join(" ")));
    }
}

/// Runs a workload's measured passes for `cfg.seconds` (at least
/// `min_passes`; a tiny run makes exactly one). An untraced run calls
/// `set_up`, which returns one set-up's time, [`SETUPS_PER_PASS`] times
/// before each pass. A traced run first makes one discarded warm-up
/// pass, then precedes each traced pass with an untraced one, the
/// baseline of `trace.overhead_s`. The process's peak resident set is
/// reset before each measured pass and read after it. `pass` gets the
/// recorder to use and the pass index; `wall` reads a pass's wall time.
///
/// # Errors
///
/// The first failing pass's error.
pub fn measure<T>(
    cfg: &Config,
    min_passes: usize,
    tracer: &mut spans::Tracer,
    mut set_up: impl FnMut() -> Result<f64, String>,
    mut pass: impl FnMut(&mut spans::Tracer, usize) -> Result<T, String>,
    wall: impl Fn(&T) -> f64,
) -> Result<Measured<T>, String> {
    let (seconds, min_passes) = if cfg.tiny {
        (0.0, 1)
    } else {
        (cfg.seconds, min_passes)
    };
    let mut untraced = spans::Tracer::new(false);
    let mut baseline = Vec::new();
    let mut peak_rss = Vec::new();
    let mut setups = Vec::new();
    if cfg.trace && !cfg.tiny {
        pass(&mut untraced, usize::MAX)?;
    }
    let passes = repeat_for(seconds, min_passes, |i| {
        if cfg.trace {
            baseline.push(wall(&pass(&mut untraced, i)?));
        } else {
            for _ in 0..SETUPS_PER_PASS {
                setups.push(set_up()?);
            }
        }
        tracer.set_id(i as u64);
        reset_peak_rss()?;
        let p = pass(tracer, i)?;
        peak_rss.push(peak_rss_mb()?);
        Ok(p)
    })?;
    Ok(Measured {
        walls: passes.iter().map(&wall).collect(),
        peak_rss,
        passes,
        baseline,
        setups,
    })
}

/// Resets the process's peak resident set (`VmHWM`) to its current
/// resident set.
///
/// # Errors
///
/// When `/proc/self/clear_refs` cannot be written.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS through /proc/self/clear_refs: {e}"))
}

/// The process's peak resident set (`VmHWM`) since the last reset, MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Runs the configured workload.
///
/// # Errors
///
/// Set-up failures and library errors (a workload is chosen so that no
/// operation fails; an error means the benchmark cannot run).
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))?;
    let mut outcome = match cfg.workload {
        Workload::ScreenSize => screen_size::run(cfg)?,
        Workload::HybridVerify => hybrid_verify::run(cfg)?,
        Workload::ServeStore => serve_store::run(cfg)?,
    };
    outcome.set(
        "failed_ratio",
        stats::ratio(outcome.failed as f64, outcome.attempted as f64),
    );
    Ok(outcome)
}

/// Writes the spans of a traced run to `<out_dir>/spans-<workload>-<seed>.jsonl`.
///
/// # Errors
///
/// I/O errors.
pub fn write_spans(
    cfg: &Config,
    tracer: &spans::Tracer,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let path = cfg
        .out_dir
        .join(format!("spans-{}-{}.jsonl", cfg.workload.name(), cfg.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    outcome.notes.push(format!(
        "spans: {} written to {}",
        tracer.spans().len(),
        path.display()
    ));
    Ok(())
}

/// The metrics the final line reports for this mode, with units.
pub fn reported_metrics(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The human-readable report: every metric of the mode by name with its
/// unit (plus the workload figures in an untraced run), notes and
/// check results.
pub fn report_lines(cfg: &Config, outcome: &Outcome) -> Vec<String> {
    let mut lines = vec![format!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    )];
    let mut table: Vec<(&str, &str)> = reported_metrics(cfg.trace).to_vec();
    if !cfg.trace {
        table.extend_from_slice(WORKLOAD_FIGURES);
    }
    for (name, unit) in table {
        let v = outcome.values.get(name).copied().unwrap_or(0.0);
        lines.push(format!("{name:<26} {v:>16.6} {unit}"));
    }
    lines.extend(outcome.notes.iter().cloned());
    lines.push(format!(
        "attempted {} failed {}",
        outcome.attempted, outcome.failed
    ));
    if outcome.check_failures.is_empty() {
        lines.push("checks: all passed".into());
    }
    for f in &outcome.check_failures {
        lines.push(format!("CHECK FAILED: {f}"));
    }
    lines
}

/// The final JSON line: `correct`, `attempted`, `failed` and the mode's
/// metrics with their units. Non-finite values (never expected) are
/// reported as 0 and make the result incorrect.
pub fn result_line(trace: bool, outcome: &Outcome) -> String {
    let mut finite = true;
    let metrics = reported_metrics(trace)
        .iter()
        .map(|&(name, unit)| {
            let mut v = outcome.values.get(name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                finite = false;
                v = 0.0;
            }
            (
                name.to_string(),
                JsonValue::Object(vec![
                    ("value".into(), JsonValue::Number(v)),
                    ("unit".into(), JsonValue::String(unit.into())),
                ]),
            )
        })
        .collect();
    JsonValue::Object(vec![
        (
            "correct".into(),
            JsonValue::Bool(finite && outcome.check_failures.is_empty()),
        ),
        (
            "attempted".into(),
            JsonValue::Number(outcome.attempted as f64),
        ),
        ("failed".into(), JsonValue::Number(outcome.failed as f64)),
        ("metrics".into(), JsonValue::Object(metrics)),
    ])
    .to_compact()
}
