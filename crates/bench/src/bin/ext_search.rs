//! EXT-SEARCH / §4 — worst-vector search where enumeration is
//! impossible.
//!
//! The 8×8 multiplier has 2³² input transitions; "it soon becomes
//! impossible" to enumerate them even with the fast simulator. This
//! experiment runs the random + hill-climbing search on the multiplier
//! and checks it (a) beats the paper's named vector A, or at least finds
//! its regime, and (b) on the 3-bit adder, lands in the top percentile
//! of the exhaustively known distribution at a fraction of the cost.
//!
//! Usage: `ext_search [--threads N] [--size-target PCT]
//! [--max-failures N] [--fail-fast] [--trace-json PATH]`
//! (`--threads 0` = all cores; the search result is bit-identical at
//! any thread count — only wall time changes). By default candidates
//! that fail to simulate are quarantined (up to `--max-failures`,
//! default 32) and reported in the telemetry footer; `--fail-fast`
//! aborts on the first failure instead. `--size-target PCT` (default 5)
//! sets the degradation target of the cached-sizing phase (c), which
//! sizes the adder's sleep device from the screened worst vectors twice
//! through one `ScreeningCache` to show a warm rerun simulates nothing.
//! `--trace-json PATH` writes the versioned machine-readable trace
//! (schema in DESIGN.md §10) next to the human footer;
//! `--trace-deterministic` drops its schedule-dependent `timing`
//! section so the file is byte-identical at any thread count.

use mtk_bench::cli::{emit_trace, failure_policy, flag, threads_label, trace_config};
use mtk_bench::report::{pct, print_table};
use mtk_bench::transition_of;
use mtk_circuits::adder::RippleAdder;
use mtk_circuits::multiplier::ArrayMultiplier;
use mtk_circuits::vectors::{exhaustive_transitions, multiplier_vector_a};
use mtk_core::health::{FailurePolicy, FaultPlan, SweepHealth};
use mtk_core::search::{search_worst_vector, SearchOptions};
use mtk_core::sizing::{
    screen_vectors_par_quarantined, size_for_target_cached, vbsim_delay_pair, ScreeningCache,
    Transition,
};
use mtk_core::vbsim::{Engine, SleepNetwork, VbsimOptions};
use mtk_netlist::tech::Technology;
use mtk_trace::{PhaseTrace, SpanRecorder, TraceReport};
use std::time::Instant;

fn main() {
    let threads = flag("--threads", 1);
    let policy = failure_policy();
    let mut trace = TraceReport::new("ext_search");
    let mut spans = SpanRecorder::new(trace_config().spans);
    spans.begin("run");

    // --- (a) 8x8 multiplier: search the 2^32 transition space. ---
    let m = ArrayMultiplier::paper();
    let tech = Technology::l03();
    let engine = Engine::new(&m.netlist, &tech);
    let sleep = SleepNetwork::Transistor { w_over_l: 100.0 };
    let base = VbsimOptions::default();

    let tr_a = transition_of(multiplier_vector_a(), 16);
    let a = vbsim_delay_pair(&engine, &tr_a, None, sleep, &base)
        .expect("run")
        .expect("switches");

    println!(
        "EXT-SEARCH (a): 8x8 multiplier @ sleep W/L=100 (2^32 possible transitions), \
         {} thread(s)",
        threads_label(threads)
    );
    println!(
        "paper's hand-picked vector A: {} degradation",
        pct(a.degradation())
    );
    spans.begin("search");
    let t0 = Instant::now();
    let result = search_worst_vector(
        &engine,
        &SearchOptions {
            random_samples: 400,
            restarts: 4,
            max_passes: 10,
            threads,
            policy,
            ..SearchOptions::at_sleep(sleep)
        },
    )
    .expect("search");
    let t_search = t0.elapsed().as_secs_f64();
    spans.end();
    println!(
        "search found {} degradation in {} evaluations ({:.2} s)",
        pct(result.degradation),
        result.evaluations,
        t_search
    );
    trace.push_phase(result.to_phase("search").with_wall(t_search));
    println!(
        "search vs vector A: {:.2}x — {}",
        result.degradation / a.degradation(),
        if result.degradation >= a.degradation() {
            "the heuristic matches or beats the expert-chosen worst case"
        } else {
            "vector A remains worse (expert knowledge wins at this budget)"
        }
    );

    // --- (b) 3-bit adder: calibrate against exhaustive truth. ---
    let add = RippleAdder::paper();
    let tech07 = Technology::l07();
    let engine = Engine::new(&add.netlist, &tech07);
    let sleep = SleepNetwork::Transistor { w_over_l: 10.0 };
    let transitions: Vec<Transition> = exhaustive_transitions(6)
        .into_iter()
        .map(|p| transition_of(p, 6))
        .collect();
    let (screened, _) = screen_vectors_par_quarantined(
        &add.netlist,
        &tech07,
        &transitions,
        None,
        10.0,
        &VbsimOptions::default(),
        1,
        FailurePolicy::FailFast,
        &FaultPlan::none(),
    )
    .expect("screen");
    let exhaustive_worst = screened[0].delays.degradation();
    let mut rows = Vec::new();
    let mut calibrate_health = SweepHealth::default();
    spans.begin("calibrate");
    for &(samples, restarts) in &[(50usize, 1usize), (150, 2), (400, 4)] {
        let res = search_worst_vector(
            &engine,
            &SearchOptions {
                random_samples: samples,
                restarts,
                max_passes: 8,
                threads,
                policy,
                ..SearchOptions::at_sleep(sleep)
            },
        )
        .expect("search");
        calibrate_health.absorb(res.health);
        // Percentile of the found degradation in the exhaustive ranking.
        let better = screened
            .iter()
            .filter(|e| e.delays.degradation() > res.degradation + 1e-12)
            .count();
        rows.push(vec![
            format!("{samples}+{restarts} restarts"),
            format!("{}", res.evaluations),
            pct(res.degradation),
            format!(
                "top {:.2}%",
                (better + 1) as f64 / screened.len() as f64 * 100.0
            ),
        ]);
    }
    spans.end();
    trace.push_phase(calibrate_health.phase("calibrate"));
    rows.push(vec![
        "exhaustive (4096)".into(),
        "4096".into(),
        pct(exhaustive_worst),
        "top 0.03%".into(),
    ]);
    print_table(
        "EXT-SEARCH (b): 3-bit adder, search budget vs rank of the found worst case",
        &[
            "budget",
            "evaluations",
            "found degradation",
            "exhaustive rank",
        ],
        &rows,
    );

    // --- (c) cached sizing: the screened worst vectors drive the
    // bisection, and a ScreeningCache makes a repeated sweep free. ---
    let target = flag("--size-target", 5) as f64 / 100.0;
    let worst: Vec<Transition> = screened[..5.min(screened.len())]
        .iter()
        .map(|s| transitions[s.index].clone())
        .collect();
    println!(
        "\nEXT-SEARCH (c): sizing the adder's sleep device to {} degradation from the \
         {} screened worst vectors, twice through one screening cache",
        pct(target),
        worst.len()
    );
    let base = VbsimOptions::default();
    let cache = ScreeningCache::new();
    spans.begin("sizing");
    let t0 = Instant::now();
    let (wl_cold, health_cold) =
        size_for_target_cached(&engine, &worst, None, target, (1.0, 5000.0), &base, &cache)
            .expect("cold sizing");
    let t_cold = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let (wl_warm, health_warm) =
        size_for_target_cached(&engine, &worst, None, target, (1.0, 5000.0), &base, &cache)
            .expect("warm sizing");
    let t_warm = t0.elapsed().as_secs_f64();
    spans.end();
    assert_eq!(wl_cold, wl_warm, "cached rerun must be bit-identical");
    assert_eq!(health_warm.cache_misses, 0, "warm rerun must not simulate");
    let mut cold_phase = PhaseTrace::new("sizing_cold").with_wall(t_cold);
    cold_phase.counters = health_cold.counters();
    trace.push_phase(cold_phase);
    let mut warm_phase = PhaseTrace::new("sizing_warm").with_wall(t_warm);
    warm_phase.counters = health_warm.counters();
    trace.push_phase(warm_phase);
    print_table(
        "cached sizing: cold vs warm rerun",
        &["run", "W/L", "cache hits", "cache misses", "wall s"],
        &[
            vec![
                "cold".into(),
                format!("{wl_cold:.1}"),
                format!("{}", health_cold.cache_hits),
                format!("{}", health_cold.cache_misses),
                format!("{t_cold:.3}"),
            ],
            vec![
                "warm".into(),
                format!("{wl_warm:.1}"),
                format!("{}", health_warm.cache_hits),
                format!("{}", health_warm.cache_misses),
                format!("{t_warm:.3}"),
            ],
        ],
    );
    println!(
        "warm rerun reused {} legs with zero simulator runs ({:.0}x faster)",
        health_warm.cache_hits,
        if t_warm > 0.0 {
            t_cold / t_warm
        } else {
            f64::INFINITY
        }
    );

    trace.spans = spans.finish();
    emit_trace(&trace);
}
