//! [`TraceReport`]: the merged telemetry of one tool invocation, its
//! versioned JSON export, and the shared human-readable footer renderer.
//!
//! Every experiment binary builds one `TraceReport` (one [`PhaseTrace`]
//! per pipeline phase), prints [`TraceReport::render_text`] as its
//! footer, and optionally writes [`TraceReport::to_json`] to the path
//! given by `--trace-json`. Binaries must not hand-roll footer
//! formatting — the renderer living here is what keeps the footer
//! schema identical across tools (pinned by a test).

use crate::json::JsonValue;
use crate::metric::{CounterId, CounterSet, Histogram};
use crate::span::Span;
use crate::TraceMode;
use std::fmt::Write as _;

/// Schema identifier embedded in every JSON export.
pub const SCHEMA_NAME: &str = "mtk-trace";

/// Schema version embedded in every JSON export.
///
/// Bump this whenever the set of keys, their order, or their meaning
/// changes — the golden-schema test fails on any key change that is not
/// accompanied by a bump, and external consumers key off it.
///
/// History: v2 added the `lu_pattern_reuses` counter. v3 added the
/// persistence/serving counters `store_hits`, `store_misses`,
/// `store_corrupt_records`, `conn_timeouts`, `requests_rejected`.
/// v4 added the Monte Carlo counters `mc_trials`, `mc_passed`,
/// `mc_p50_degr_bp`, `mc_p95_degr_bp`, `mc_p99_degr_bp`,
/// `mc_p99_bounce_uv` and named extra histograms in the per-phase
/// `histograms` object (the MC engine emits `mc_degradation_bp` and
/// `mc_bounce_mv`). v5 added the cluster-sizing counters `clusters`,
/// `cluster_conflicts`, `cluster_folds`, `cluster_fallbacks` (the
/// cluster engine also emits a `cluster_w_over_l` extra histogram).
/// v6 added the standard-format interop counters `import_cards`,
/// `import_subckts_flattened`, `import_gates_recognized`,
/// `import_fallbacks`, `wave_raw_points`, `wave_vcd_changes`.
pub const SCHEMA_VERSION: u64 = 6;

/// Per-worker sink totals of one phase — real execution costs, therefore
/// schedule-dependent; exported only in the `timing` section.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerTrace {
    /// Worker index, `0..threads`.
    pub worker: u64,
    /// Work items this worker executed.
    pub items: u64,
    /// Switch-level breakpoints this worker solved.
    pub breakpoints: u64,
    /// Seconds this worker spent busy.
    pub busy_s: f64,
}

/// The telemetry of one pipeline phase (a screening sweep, a SPICE
/// verification tier, a sizing bisection, …).
///
/// Counters, the histogram, and the quarantine list are merged
/// index-ordered by the sweep machinery and are bit-identical at any
/// thread count; `wall_s`/`workers` are wall-clock facts that are not.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseTrace {
    /// Phase name (taxonomy in DESIGN.md §10).
    pub name: String,
    /// Merged counter registry values for this phase.
    pub counters: CounterSet,
    /// Distribution of breakpoints per completed work item.
    pub breakpoints_per_item: Histogram,
    /// Additional named histograms, emitted after `breakpoints_per_item`
    /// in the `histograms` object in this order (names must be unique
    /// and stable — they are part of the schema a consumer sees). The
    /// MC engine uses this for its per-trial distributions.
    pub extra_histograms: Vec<(String, Histogram)>,
    /// Indices of quarantined items, in index order.
    pub quarantined: Vec<usize>,
    /// End-to-end wall time of the phase, seconds.
    pub wall_s: Option<f64>,
    /// Per-worker sinks, in worker index order.
    pub workers: Vec<WorkerTrace>,
}

impl PhaseTrace {
    /// An empty phase with a name.
    pub fn new(name: &str) -> Self {
        PhaseTrace {
            name: name.to_string(),
            ..PhaseTrace::default()
        }
    }

    /// Attaches the phase wall time (builder style).
    pub fn with_wall(mut self, wall_s: f64) -> Self {
        self.wall_s = Some(wall_s);
        self
    }

    /// The one-line health summary of this phase — the single source of
    /// the footer format every binary (and `SweepHealth::summary`) uses.
    pub fn health_line(&self) -> String {
        let c = &self.counters;
        let mut s = format!(
            "{}/{} items ok, {} quarantined",
            c.get(CounterId::Completed),
            c.get(CounterId::Items),
            self.quarantined.len()
        );
        if !self.quarantined.is_empty() {
            let _ = write!(s, " {:?}", self.quarantined);
        }
        let _ = write!(
            s,
            ", {} retries ({} recovered), {} panics recovered; {} breakpoints, {} glitch reversals, {} vx fallbacks",
            c.get(CounterId::Retries),
            c.get(CounterId::RetrySuccesses),
            c.get(CounterId::PanicsRecovered),
            c.get(CounterId::Breakpoints),
            c.get(CounterId::GlitchReversals),
            c.get(CounterId::VxFallbacks),
        );
        if c.get(CounterId::CacheHits) > 0 || c.get(CounterId::CacheMisses) > 0 {
            let _ = write!(
                s,
                "; cache {} hits / {} misses",
                c.get(CounterId::CacheHits),
                c.get(CounterId::CacheMisses),
            );
        }
        s
    }

    /// The SPICE solver-stress line, when any SPICE counter fired.
    pub fn spice_line(&self) -> Option<String> {
        let c = &self.counters;
        let (gmin, dt, newton, steps, lu) = (
            c.get(CounterId::GminFallbackStages),
            c.get(CounterId::DtHalvings),
            c.get(CounterId::NewtonIterations),
            c.get(CounterId::SpiceSteps),
            c.get(CounterId::LuPatternReuses),
        );
        if gmin == 0 && dt == 0 && newton == 0 && steps == 0 && lu == 0 {
            return None;
        }
        Some(format!(
            "spice: {gmin} gmin fallback stages, {dt} dt halvings, {newton} newton iterations, {steps} steps, {lu} lu pattern reuses"
        ))
    }

    /// The Monte Carlo distribution line, when any trial ran.
    pub fn mc_line(&self) -> Option<String> {
        let c = &self.counters;
        let trials = c.get(CounterId::McTrials);
        if trials == 0 {
            return None;
        }
        Some(format!(
            "mc: {trials} trials, {} passed; degradation p50/p95/p99 = {}/{}/{} bp, bounce p99 = {} uV",
            c.get(CounterId::McPassed),
            c.get(CounterId::McP50DegrBp),
            c.get(CounterId::McP95DegrBp),
            c.get(CounterId::McP99DegrBp),
            c.get(CounterId::McP99BounceUv),
        ))
    }

    /// The wall-time / per-worker line, when timing was recorded.
    pub fn timing_line(&self) -> Option<String> {
        if self.wall_s.is_none() && self.workers.is_empty() {
            return None;
        }
        let mut s = format!("wall {:.3} s", self.wall_s.unwrap_or(0.0));
        if !self.workers.is_empty() {
            s.push_str("; workers (id: items/breakpoints/busy s):");
            for w in &self.workers {
                let _ = write!(
                    s,
                    "  {}: {}/{}/{:.3}",
                    w.worker, w.items, w.breakpoints, w.busy_s
                );
            }
        }
        Some(s)
    }

    fn deterministic_json(&self) -> JsonValue {
        let mut histograms = vec![(
            "breakpoints_per_item".to_string(),
            histogram_json(&self.breakpoints_per_item),
        )];
        for (name, h) in &self.extra_histograms {
            histograms.push((name.clone(), histogram_json(h)));
        }
        JsonValue::Object(vec![
            ("name".into(), JsonValue::String(self.name.clone())),
            ("counters".into(), counters_json(&self.counters)),
            ("histograms".into(), JsonValue::Object(histograms)),
            (
                "quarantined".into(),
                JsonValue::Array(
                    self.quarantined
                        .iter()
                        .map(|&i| JsonValue::Number(i as f64))
                        .collect(),
                ),
            ),
        ])
    }

    fn timing_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("name".into(), JsonValue::String(self.name.clone())),
            (
                "wall_s".into(),
                JsonValue::Number(self.wall_s.unwrap_or(0.0)),
            ),
            (
                "workers".into(),
                JsonValue::Array(
                    self.workers
                        .iter()
                        .map(|w| {
                            JsonValue::Object(vec![
                                ("worker".into(), JsonValue::Number(w.worker as f64)),
                                ("items".into(), JsonValue::Number(w.items as f64)),
                                (
                                    "breakpoints".into(),
                                    JsonValue::Number(w.breakpoints as f64),
                                ),
                                ("busy_s".into(), JsonValue::Number(w.busy_s)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn counters_json(set: &CounterSet) -> JsonValue {
    JsonValue::Object(
        set.iter()
            .map(|(id, v)| (id.name().to_string(), JsonValue::Number(v as f64)))
            .collect(),
    )
}

fn histogram_json(h: &Histogram) -> JsonValue {
    JsonValue::Object(vec![
        ("count".into(), JsonValue::Number(h.count() as f64)),
        ("sum".into(), JsonValue::Number(h.sum() as f64)),
        (
            "buckets".into(),
            JsonValue::Array(
                h.buckets()
                    .iter()
                    .map(|&b| JsonValue::Number(b as f64))
                    .collect(),
            ),
        ),
    ])
}

fn span_json(span: &Span) -> JsonValue {
    JsonValue::Object(vec![
        ("name".into(), JsonValue::String(span.name.clone())),
        ("wall_s".into(), JsonValue::Number(span.wall_s)),
        (
            "children".into(),
            JsonValue::Array(span.children.iter().map(span_json).collect()),
        ),
    ])
}

/// The merged telemetry of one tool invocation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceReport {
    /// Name of the binary/tool that produced the report.
    pub tool: String,
    /// Pipeline phases, in execution order.
    pub phases: Vec<PhaseTrace>,
    /// Completed wall-clock spans (timing section only).
    pub spans: Vec<Span>,
}

impl TraceReport {
    /// An empty report for a tool.
    pub fn new(tool: &str) -> Self {
        TraceReport {
            tool: tool.to_string(),
            ..TraceReport::default()
        }
    }

    /// Appends a phase.
    pub fn push_phase(&mut self, phase: PhaseTrace) {
        self.phases.push(phase);
    }

    /// The counter registry summed over all phases, in phase order.
    pub fn totals(&self) -> CounterSet {
        let mut out = CounterSet::new();
        for phase in &self.phases {
            out.absorb(&phase.counters);
        }
        out
    }

    /// Serializes the report under the versioned schema: the pretty
    /// rendering of [`TraceReport::to_json_value`].
    ///
    /// [`TraceMode::Deterministic`] emits only the schedule-invariant
    /// sections and is byte-identical at any thread count;
    /// [`TraceMode::Full`] adds the `timing` section (phase wall times,
    /// per-worker sinks, spans).
    pub fn to_json(&self, mode: TraceMode) -> String {
        self.to_json_value(mode).to_pretty()
    }

    /// The report as a JSON value under the versioned schema, for
    /// embedding in a larger document (an `mtk serve` response) without
    /// a render-and-reparse round trip.
    pub fn to_json_value(&self, mode: TraceMode) -> JsonValue {
        let mut members = vec![
            (
                "schema".into(),
                JsonValue::Object(vec![
                    ("name".into(), JsonValue::String(SCHEMA_NAME.into())),
                    ("version".into(), JsonValue::Number(SCHEMA_VERSION as f64)),
                ]),
            ),
            ("tool".into(), JsonValue::String(self.tool.clone())),
            (
                "deterministic".into(),
                JsonValue::Bool(mode == TraceMode::Deterministic),
            ),
            (
                "phases".into(),
                JsonValue::Array(
                    self.phases
                        .iter()
                        .map(PhaseTrace::deterministic_json)
                        .collect(),
                ),
            ),
            (
                "totals".into(),
                JsonValue::Object(vec![("counters".into(), counters_json(&self.totals()))]),
            ),
        ];
        if mode == TraceMode::Full {
            members.push((
                "timing".into(),
                JsonValue::Object(vec![
                    (
                        "phases".into(),
                        JsonValue::Array(self.phases.iter().map(PhaseTrace::timing_json).collect()),
                    ),
                    (
                        "spans".into(),
                        JsonValue::Array(self.spans.iter().map(span_json).collect()),
                    ),
                ]),
            ));
        }
        JsonValue::Object(members)
    }

    /// Renders the human-readable telemetry footer shared by every
    /// experiment binary: one block, one format, regardless of tool.
    pub fn render_text(&self) -> String {
        let mut out = format!("== telemetry ({}) ==\n", self.tool);
        for phase in &self.phases {
            let _ = writeln!(out, "phase {}: {}", phase.name, phase.health_line());
            if let Some(line) = phase.spice_line() {
                let _ = writeln!(out, "  {line}");
            }
            if let Some(line) = phase.mc_line() {
                let _ = writeln!(out, "  {line}");
            }
            if let Some(line) = phase.timing_line() {
                let _ = writeln!(out, "  {line}");
            }
        }
        if self.phases.len() > 1 {
            let totals = PhaseTrace {
                name: "totals".into(),
                counters: self.totals(),
                quarantined: Vec::new(),
                ..PhaseTrace::default()
            };
            let _ = writeln!(out, "totals: {}", totals.health_line());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_report;

    fn sample_report() -> TraceReport {
        let mut screen = PhaseTrace::new("screen").with_wall(0.25);
        screen.counters.add(CounterId::Items, 100);
        screen.counters.add(CounterId::Completed, 98);
        screen.counters.add(CounterId::Quarantined, 2);
        screen.counters.add(CounterId::Breakpoints, 4200);
        screen.counters.add(CounterId::MaxEvents, 200_000);
        screen.quarantined.extend([17, 40]);
        screen.breakpoints_per_item.record(42);
        screen.workers.push(WorkerTrace {
            worker: 0,
            items: 100,
            breakpoints: 4200,
            busy_s: 0.2,
        });

        let mut verify = PhaseTrace::new("verify").with_wall(1.5);
        verify.counters.add(CounterId::Items, 10);
        verify.counters.add(CounterId::Completed, 10);
        verify.counters.add(CounterId::DtHalvings, 3);
        verify.counters.add(CounterId::NewtonIterations, 900);

        let mut mc = PhaseTrace::new("mc").with_wall(0.5);
        mc.counters.add(CounterId::McTrials, 64);
        mc.counters.add(CounterId::McPassed, 60);
        mc.counters.add(CounterId::McP50DegrBp, 480);
        mc.counters.add(CounterId::McP95DegrBp, 700);
        mc.counters.add(CounterId::McP99DegrBp, 950);
        mc.counters.add(CounterId::McP99BounceUv, 52_000);
        let mut degr = Histogram::new();
        degr.record(480);
        mc.extra_histograms.push(("mc_degradation_bp".into(), degr));
        let mut bounce = Histogram::new();
        bounce.record(48);
        mc.extra_histograms.push(("mc_bounce_mv".into(), bounce));

        let mut report = TraceReport::new("unit-test");
        report.push_phase(screen);
        report.push_phase(verify);
        report.push_phase(mc);
        report.spans.push(Span {
            name: "run".into(),
            wall_s: 1.75,
            children: vec![Span {
                name: "screen".into(),
                wall_s: 0.25,
                children: Vec::new(),
            }],
        });
        report
    }

    #[test]
    fn json_value_is_the_parsed_rendering() {
        // Embedding the value (as `mtk serve` does) must give the bytes a
        // render-and-reparse round trip gave, in both modes.
        let mut report = sample_report();
        report.phases[0].wall_s = Some(f64::NAN);
        for mode in [TraceMode::Full, TraceMode::Deterministic] {
            let value = report.to_json_value(mode);
            let reparsed = crate::json::parse(&report.to_json(mode)).unwrap();
            assert_eq!(value.to_compact(), reparsed.to_compact());
            assert_eq!(value.to_pretty(), report.to_json(mode));
        }
    }

    #[test]
    fn both_modes_validate_against_the_schema() {
        let report = sample_report();
        validate_report(&report.to_json(TraceMode::Full)).unwrap();
        validate_report(&report.to_json(TraceMode::Deterministic)).unwrap();
    }

    #[test]
    fn deterministic_mode_excludes_timing() {
        let report = sample_report();
        let det = report.to_json(TraceMode::Deterministic);
        assert!(!det.contains("\"timing\""));
        assert!(!det.contains("busy_s"));
        let full = report.to_json(TraceMode::Full);
        assert!(full.contains("\"timing\""));
        assert!(full.contains("\"spans\""));
    }

    #[test]
    fn totals_sum_phases_in_order() {
        let report = sample_report();
        let totals = report.totals();
        assert_eq!(totals.get(CounterId::Items), 110);
        assert_eq!(totals.get(CounterId::Completed), 108);
        assert_eq!(totals.get(CounterId::DtHalvings), 3);
        assert_eq!(totals.get(CounterId::MaxEvents), 200_000);
    }

    #[test]
    fn footer_lines_cover_health_spice_and_timing() {
        let report = sample_report();
        let text = report.render_text();
        assert!(text.starts_with("== telemetry (unit-test) =="));
        assert!(text.contains("phase screen: 98/100 items ok, 2 quarantined [17, 40]"));
        assert!(text.contains("spice: 0 gmin fallback stages, 3 dt halvings"));
        assert!(text.contains("wall 0.250 s; workers"));
        assert!(text.contains(
            "mc: 64 trials, 60 passed; degradation p50/p95/p99 = 480/700/950 bp, bounce p99 = 52000 uV"
        ));
        assert!(text.contains("totals: 108/110 items ok"));
        // A phase with no cache traffic must not mention the cache.
        assert!(!text.contains("cache"));
    }
}
