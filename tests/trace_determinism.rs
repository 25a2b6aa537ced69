//! The observability contract (DESIGN.md §10), pinned end to end:
//!
//! 1. The deterministic trace export is **byte-identical at any thread
//!    count**, including under injected faults — the PR 1 determinism
//!    contract extended to telemetry.
//! 2. The JSON schema is **golden**: any change to the set of key paths
//!    without a `SCHEMA_VERSION` bump fails a test.
//! 3. The two experiment binaries share **one footer/JSON renderer**:
//!    reports built the way `ext_screening` and `ext_search` build them
//!    produce structurally identical schemas and footer line shapes.

use mtcmos_suite::circuits::adder::RippleAdder;
use mtcmos_suite::circuits::vectors::exhaustive_transitions;
use mtcmos_suite::core::health::{FailurePolicy, FaultPlan};
use mtcmos_suite::core::sizing::{screen_vectors_par_quarantined, Transition};
use mtcmos_suite::core::vbsim::VbsimOptions;
use mtcmos_suite::netlist::logic::bits_lsb_first;
use mtcmos_suite::netlist::tech::Technology;
use mtcmos_suite::trace::json::{parse, validate_report, JsonValue};
use mtcmos_suite::trace::{
    CounterId, CounterKind, PhaseTrace, Span, TraceMode, TraceReport, WorkerTrace, SCHEMA_VERSION,
};
use std::collections::BTreeSet;

const W_OVER_L: f64 = 10.0;

fn adder_transitions(n: usize) -> Vec<Transition> {
    exhaustive_transitions(6)
        .into_iter()
        .take(n)
        .map(|p| Transition::new(bits_lsb_first(p.from, 6), bits_lsb_first(p.to, 6)))
        .collect()
}

/// Screens the adder under an injected fault plan and returns the
/// deterministic-mode trace JSON.
fn faulted_screen_trace(threads: usize) -> String {
    let add = RippleAdder::paper();
    let tech = Technology::l07();
    let transitions = adder_transitions(48);
    let faults = FaultPlan {
        panic_at: vec![3],
        error_at: vec![5, 21],
        overflow_at: vec![7],
        persistent_overflow_at: vec![9, 30],
        ..FaultPlan::default()
    };
    let (_screened, report) = screen_vectors_par_quarantined(
        &add.netlist,
        &tech,
        &transitions,
        None,
        W_OVER_L,
        &VbsimOptions::default(),
        threads,
        FailurePolicy::quarantine(8),
        &faults,
    )
    .expect("screen");
    let mut trace = TraceReport::new("trace_determinism");
    trace.push_phase(report.to_phase("screen"));
    trace.to_json(TraceMode::Deterministic)
}

#[test]
fn deterministic_trace_is_byte_identical_across_thread_counts() {
    let serial = faulted_screen_trace(1);
    validate_report(&serial).expect("serial trace validates");
    // The quarantine set must actually be exercised, or this test pins
    // nothing interesting.
    assert!(serial.contains("\"quarantined\": ["));
    for threads in [2usize, 8] {
        let par = faulted_screen_trace(threads);
        assert_eq!(
            par, serial,
            "deterministic trace differs at threads={threads}"
        );
    }
}

/// Collects every structural key path of a JSON value: object members
/// become `prefix.key`, array elements collapse to `prefix[]`.
fn key_paths(value: &JsonValue, prefix: &str, out: &mut BTreeSet<String>) {
    match value {
        JsonValue::Object(members) => {
            for (key, child) in members {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                out.insert(path.clone());
                key_paths(child, &path, out);
            }
        }
        JsonValue::Array(items) => {
            let path = format!("{prefix}[]");
            for item in items {
                key_paths(item, &path, out);
            }
        }
        _ => {}
    }
}

fn paths_of(json: &str) -> BTreeSet<String> {
    let value = parse(json).expect("parse");
    let mut out = BTreeSet::new();
    key_paths(&value, "", &mut out);
    out
}

/// A report exercising every schema feature: two phases, quarantined
/// items, workers, and a nested span.
fn exhaustive_sample(tool: &str) -> TraceReport {
    let mut screen = PhaseTrace::new("screen").with_wall(0.25);
    for id in CounterId::ALL {
        screen.counters.add(*id, 1);
    }
    screen.quarantined.extend([3, 9]);
    screen.breakpoints_per_item.record(42);
    screen.workers.push(WorkerTrace {
        worker: 0,
        items: 10,
        breakpoints: 420,
        busy_s: 0.2,
    });
    let mut verify = PhaseTrace::new("verify").with_wall(1.0);
    verify.counters.add(CounterId::Items, 2);
    let mut mc = PhaseTrace::new("mc").with_wall(0.5);
    mc.counters.add(CounterId::McTrials, 64);
    let mut degr = mtcmos_suite::trace::Histogram::new();
    degr.record(480);
    mc.extra_histograms.push(("mc_degradation_bp".into(), degr));
    let mut bounce = mtcmos_suite::trace::Histogram::new();
    bounce.record(48);
    mc.extra_histograms.push(("mc_bounce_mv".into(), bounce));
    let mut cluster = PhaseTrace::new("cluster").with_wall(0.1);
    cluster.counters.add(CounterId::Clusters, 4);
    let mut widths = mtcmos_suite::trace::Histogram::new();
    widths.record(23);
    cluster
        .extra_histograms
        .push(("cluster_w_over_l".into(), widths));
    let mut report = TraceReport::new(tool);
    report.push_phase(screen);
    report.push_phase(verify);
    report.push_phase(mc);
    report.push_phase(cluster);
    report.spans.push(Span {
        name: "run".into(),
        wall_s: 1.25,
        children: vec![Span {
            name: "screen".into(),
            wall_s: 0.25,
            children: Vec::new(),
        }],
    });
    report
}

/// Every key path of schema v6, spelled out by hand. Adding, removing or
/// renaming any key changes this set; doing so without bumping
/// [`SCHEMA_VERSION`] (and updating this golden list) is a contract
/// violation.
fn golden_v6_paths() -> BTreeSet<String> {
    let counters = [
        "items",
        "completed",
        "quarantined",
        "retries",
        "retry_successes",
        "panics_recovered",
        "breakpoints",
        "max_events",
        "glitch_reversals",
        "vx_fallbacks",
        "cache_hits",
        "cache_misses",
        "gmin_fallback_stages",
        "dt_halvings",
        "newton_iterations",
        "spice_steps",
        "lu_pattern_reuses",
        "store_hits",
        "store_misses",
        "store_corrupt_records",
        "conn_timeouts",
        "requests_rejected",
        "mc_trials",
        "mc_passed",
        "mc_p50_degr_bp",
        "mc_p95_degr_bp",
        "mc_p99_degr_bp",
        "mc_p99_bounce_uv",
        "clusters",
        "cluster_conflicts",
        "cluster_folds",
        "cluster_fallbacks",
        "import_cards",
        "import_subckts_flattened",
        "import_gates_recognized",
        "import_fallbacks",
        "wave_raw_points",
        "wave_vcd_changes",
    ];
    let mut golden: BTreeSet<String> = [
        "schema",
        "schema.name",
        "schema.version",
        "tool",
        "deterministic",
        "phases",
        "phases[].name",
        "phases[].counters",
        "phases[].histograms",
        "phases[].histograms.breakpoints_per_item",
        "phases[].histograms.breakpoints_per_item.count",
        "phases[].histograms.breakpoints_per_item.sum",
        "phases[].histograms.breakpoints_per_item.buckets",
        "phases[].histograms.mc_degradation_bp",
        "phases[].histograms.mc_degradation_bp.count",
        "phases[].histograms.mc_degradation_bp.sum",
        "phases[].histograms.mc_degradation_bp.buckets",
        "phases[].histograms.mc_bounce_mv",
        "phases[].histograms.mc_bounce_mv.count",
        "phases[].histograms.mc_bounce_mv.sum",
        "phases[].histograms.mc_bounce_mv.buckets",
        "phases[].histograms.cluster_w_over_l",
        "phases[].histograms.cluster_w_over_l.count",
        "phases[].histograms.cluster_w_over_l.sum",
        "phases[].histograms.cluster_w_over_l.buckets",
        "phases[].quarantined",
        "totals",
        "totals.counters",
        "timing",
        "timing.phases",
        "timing.phases[].name",
        "timing.phases[].wall_s",
        "timing.phases[].workers",
        "timing.phases[].workers[].worker",
        "timing.phases[].workers[].items",
        "timing.phases[].workers[].breakpoints",
        "timing.phases[].workers[].busy_s",
        "timing.spans",
        "timing.spans[].name",
        "timing.spans[].wall_s",
        "timing.spans[].children",
        "timing.spans[].children[].name",
        "timing.spans[].children[].wall_s",
        "timing.spans[].children[].children",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    for c in counters {
        golden.insert(format!("phases[].counters.{c}"));
        golden.insert(format!("totals.counters.{c}"));
    }
    golden
}

#[test]
fn golden_schema_pins_every_key_path_to_the_version() {
    assert_eq!(
        SCHEMA_VERSION, 6,
        "SCHEMA_VERSION changed: regenerate golden_v6_paths() for the new \
         schema and rename this test's golden set"
    );
    let report = exhaustive_sample("golden");
    let full = paths_of(&report.to_json(TraceMode::Full));
    let golden = golden_v6_paths();
    let missing: Vec<_> = golden.difference(&full).collect();
    let extra: Vec<_> = full.difference(&golden).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "schema v5 key paths drifted without a version bump.\n\
         missing from output: {missing:?}\nnot in golden set: {extra:?}"
    );
    // Deterministic mode is exactly the golden set minus the timing tree.
    let det = paths_of(&report.to_json(TraceMode::Deterministic));
    let golden_det: BTreeSet<String> = golden
        .iter()
        .filter(|p| !p.starts_with("timing"))
        .cloned()
        .collect();
    assert_eq!(det, golden_det, "deterministic-mode schema drifted");
}

/// The documentation states the schema contract, so it is pinned to the
/// code: DESIGN.md §10.2 lists every registry counter, in registry order,
/// with its merge kind, and every `schema` sample in DESIGN.md and the
/// README shows the current `SCHEMA_VERSION`.
#[test]
fn documented_counters_and_schema_version_match_the_code() {
    let doc = |name: &str| {
        std::fs::read_to_string(format!("{}/{name}", env!("CARGO_MANIFEST_DIR")))
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let design = doc("DESIGN.md");
    let start = design
        .find("### 10.2 Counter registry")
        .expect("DESIGN.md §10.2");
    let end = start + design[start..].find("### 10.3").expect("DESIGN.md §10.3");
    let rows: Vec<(String, String)> = design[start..end]
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .map(|row| {
            let (key, rest) = row.split_once('`').expect("closing backtick");
            let kind = rest.split('|').nth(1).expect("kind column").trim();
            (key.to_string(), kind.to_string())
        })
        .collect();
    let registry: Vec<(String, String)> = CounterId::ALL
        .iter()
        .map(|c| {
            let kind = match c.kind() {
                CounterKind::Sum => "sum",
                CounterKind::Max => "max",
            };
            (c.name().to_string(), kind.to_string())
        })
        .collect();
    assert_eq!(rows, registry, "DESIGN.md §10.2 counter table drifted");

    let sample =
        format!("\"schema\": {{ \"name\": \"mtk-trace\", \"version\": {SCHEMA_VERSION} }}");
    for (name, text) in [("DESIGN.md", design), ("README.md", doc("README.md"))] {
        let samples: Vec<&str> = text
            .lines()
            .filter(|line| line.contains("\"schema\": {"))
            .collect();
        assert!(!samples.is_empty(), "{name} shows no schema sample");
        for line in samples {
            assert!(
                line.contains(&sample),
                "{name}: stale schema sample: {line}"
            );
        }
    }
}

/// The bugfix contract: `ext_screening` and `ext_search` no longer carry
/// private footer formatting — reports shaped the way each binary shapes
/// them must serialize to the *same* key-path schema and render footers
/// with the same line structure.
#[test]
fn both_binaries_footer_schema_is_identical() {
    let screening = exhaustive_sample("ext_screening");
    let search = exhaustive_sample("ext_search");
    for mode in [TraceMode::Full, TraceMode::Deterministic] {
        let a = screening.to_json(mode);
        let b = search.to_json(mode);
        validate_report(&a).expect("ext_screening report validates");
        validate_report(&b).expect("ext_search report validates");
        assert_eq!(
            paths_of(&a),
            paths_of(&b),
            "the two binaries' JSON schemas diverged"
        );
    }
    // The human footers differ only in the tool name.
    let a = screening.render_text();
    let b = search.render_text();
    assert_eq!(
        a.replace("ext_screening", "TOOL"),
        b.replace("ext_search", "TOOL"),
        "the two binaries' text footers diverged"
    );
}
