//! `screen_size`: the paper's tool flow with no SPICE, store or JSON.
//!
//! One pass screens a seeded sample of the hierarchical `adder64` golden
//! in parallel, then bisects the paper's 3-bit adder (all 4096
//! transitions) to a 5 % degradation target on a fresh in-memory
//! `ScreeningCache`. The two parts use the switch-level simulator
//! differently — a wide netlist screened in parallel, a narrow one
//! bisected serially through the cache — so a gain for one that costs
//! the other shows up in separate figures.

use crate::inputs::{self, Golden};
use crate::spans::Tracer;
use crate::stats::{median, ratio};
use crate::{checks, Config, Outcome, THREADS};
use mtk_core::health::{FailurePolicy, FaultPlan, RunHealth, SweepHealth};
use mtk_core::par::WorkerStats;
use mtk_core::sizing::{
    screen_vectors_par_quarantined, size_for_target, size_for_target_cached,
    vbsim_delay_pair_health_with, ScreenedVector, ScreeningCache, Transition,
};
use mtk_core::vbsim::{Engine, SleepNetwork, VbsimOptions, VbsimScratch};
use std::time::Instant;

/// Sleep W/L the adder64 sample is screened at (the `mtk` default).
const SCREEN_W_OVER_L: f64 = 10.0;
/// The paper's 5 % degradation criterion.
const TARGET: f64 = 0.05;
/// Bisection bracket (the `mtk size` defaults).
const BRACKET: (f64, f64) = (1.0, 2000.0);
/// PRNG salt of the adder64 sample.
const SAMPLE_SALT: u64 = 0x5343_5245_454e; // "SCREEN"

struct Inputs {
    adder64: Golden,
    adder3: Golden,
    sample: Vec<Transition>,
    exhaustive: Vec<Transition>,
}

fn load(cfg: &Config, tracer: &mut Tracer) -> Result<Inputs, String> {
    let adder64 = inputs::load(&cfg.examples, "adder64", tracer)?;
    let adder3 = inputs::load(&cfg.examples, "adder3", tracer)?;
    let samples = if cfg.tiny { 48 } else { 1536 };
    let sample = inputs::seeded_transitions(
        inputs::width(&adder64.design),
        samples,
        cfg.seed,
        SAMPLE_SALT,
    );
    let exhaustive = inputs::exhaustive_transitions(&adder3.design, if cfg.tiny { 64 } else { 1 });
    Ok(Inputs {
        adder64,
        adder3,
        sample,
        exhaustive,
    })
}

struct Pass {
    wall: f64,
    screen: f64,
    size: f64,
    ranked: Vec<ScreenedVector>,
    screen_health: SweepHealth,
    workers: Vec<WorkerStats>,
    screen_call_wall: f64,
    w_over_l: f64,
    size_health: RunHealth,
}

fn screen(
    inp: &Inputs,
    threads: usize,
) -> Result<(Vec<ScreenedVector>, mtk_core::sizing::ScreenReport), String> {
    let d = &inp.adder64.design;
    screen_vectors_par_quarantined(
        &d.netlist,
        &d.tech,
        &inp.sample,
        None,
        SCREEN_W_OVER_L,
        &VbsimOptions::default(),
        threads,
        FailurePolicy::quarantine(inp.sample.len()),
        &FaultPlan::none(),
    )
    .map_err(|e| format!("adder64 screen: {e}"))
}

fn pass(inp: &Inputs, engine: &Engine<'_>, tracer: &mut Tracer) -> Result<Pass, String> {
    let root = tracer.begin("pass");
    let t0 = Instant::now();
    let span = tracer.begin("sizing.screen");
    let (ranked, report) = screen(inp, THREADS)?;
    tracer.end(span);
    let t1 = Instant::now();
    let span = tracer.begin("sizing.bisect");
    let cache = ScreeningCache::new();
    let (w_over_l, size_health) = size_for_target_cached(
        engine,
        &inp.exhaustive,
        None,
        TARGET,
        BRACKET,
        &VbsimOptions::default(),
        &cache,
    )
    .map_err(|e| format!("adder3 bisection: {e}"))?;
    tracer.end(span);
    let t2 = Instant::now();
    tracer.end(root);
    Ok(Pass {
        wall: (t2 - t0).as_secs_f64(),
        screen: (t1 - t0).as_secs_f64(),
        size: (t2 - t1).as_secs_f64(),
        ranked,
        screen_health: report.health,
        workers: report.workers,
        screen_call_wall: report.wall,
        w_over_l,
        size_health,
    })
}

/// Runs the workload.
///
/// # Errors
///
/// Missing designs or a library error.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(cfg.trace);
    // Set-up: load and parse both designs, generate the transitions,
    // build the bisection engine. The run uses this one (traced in a
    // traced run); `setup_s` times fresh ones between the passes.
    let inp = load(cfg, &mut tracer)?;
    let d = &inp.adder3.design;
    let engine = tracer.time("vbsim.engine_build", || Engine::new(&d.netlist, &d.tech));
    out.set("fe.parse_s", tracer.total("fe.parse"));
    let set_up = || {
        let t0 = Instant::now();
        let loaded = load(cfg, &mut Tracer::new(false))?;
        let d = &loaded.adder3.design;
        std::hint::black_box(Engine::new(&d.netlist, &d.tech));
        Ok(t0.elapsed().as_secs_f64())
    };

    let measured = crate::measure(
        cfg,
        3,
        &mut tracer,
        set_up,
        |t, _| pass(&inp, &engine, t),
        |p| p.wall,
    )?;

    measured.record(&mut out);
    let passes = measured.passes;
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| ratio(inp.sample.len() as f64, p.screen))
        .collect();
    out.set("screen_transitions_per_s", median(&rates));
    let sizes: Vec<f64> = passes.iter().map(|p| p.size).collect();
    out.set("size_s", median(&sizes));
    for p in &passes {
        out.attempted += p.screen_health.items as u64 + 1;
        out.failed += p.screen_health.quarantined.len() as u64;
    }

    // Output checks: every pass agrees with the first; the ranking at one
    // thread equals the ranking at two; the cached bisection bit-equals
    // the uncached one.
    let first = &passes[0];
    let q0 = first.screen_health.quarantined_indices();
    for p in &passes[1..] {
        out.check(checks::rankings_equal(
            &first.ranked,
            &q0,
            &p.ranked,
            &p.screen_health.quarantined_indices(),
        ));
        out.check(checks::sizes_bit_equal(p.w_over_l, first.w_over_l));
    }
    let (serial, serial_report) = screen(&inp, 1)?;
    out.check(checks::rankings_equal(
        &first.ranked,
        &q0,
        &serial,
        &serial_report.health.quarantined_indices(),
    ));
    let uncached = size_for_target(
        &engine,
        &inp.exhaustive,
        None,
        TARGET,
        BRACKET,
        &VbsimOptions::default(),
    )
    .map_err(|e| format!("uncached adder3 bisection: {e}"))?;
    out.check(checks::sizes_bit_equal(first.w_over_l, uncached));

    if cfg.trace {
        layer_metrics(&inp, &passes, &mut tracer, &mut out)?;
        out.note_self_time_shares(&tracer);
        crate::write_spans(cfg, &tracer, &mut out)?;
    }
    Ok(out)
}

/// Per-layer figures of a traced run: span medians and the sweeps'
/// deterministic counters from the first traced pass, plus a serial
/// replay of the adder64 sample through `vbsim_delay_pair_health_with`
/// that times the simulator per call.
fn layer_metrics(
    inp: &Inputs,
    passes: &[Pass],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let first = &passes[0];
    out.set(
        "sizing.screen_s",
        median(&tracer.durations("sizing.screen")),
    );
    out.set(
        "sizing.bisect_s",
        median(&tracer.durations("sizing.bisect")),
    );
    let runs = &first.screen_health.runs;
    let size = &first.size_health;
    out.set(
        "vbsim.breakpoints",
        (runs.breakpoints + size.breakpoints) as f64,
    );
    out.set(
        "vbsim.glitch_reversals",
        (runs.glitch_reversals + size.glitch_reversals) as f64,
    );
    out.set(
        "vbsim.vx_fallbacks",
        (runs.vx_fallbacks + size.vx_fallbacks) as f64,
    );
    out.set("sizing.cache_hits", size.cache_hits as f64);
    out.set("sizing.cache_misses", size.cache_misses as f64);
    out.set(
        "sizing.cache_hit_ratio",
        ratio(
            size.cache_hits as f64,
            (size.cache_hits + size.cache_misses) as f64,
        ),
    );
    let busy: Vec<f64> = passes
        .iter()
        .map(|p| p.workers.iter().map(|w| w.wall).sum())
        .collect();
    let util: Vec<f64> = passes
        .iter()
        .zip(&busy)
        .map(|(p, b)| ratio(*b, p.workers.len() as f64 * p.screen_call_wall))
        .collect();
    out.set("par.busy_s", median(&busy));
    out.set("par.utilization", median(&util));

    // Serial replay: one span per simulator call.
    tracer.set_id(u64::MAX);
    let root = tracer.begin("replay");
    let d = &inp.adder64.design;
    let engine = tracer.time("vbsim.engine_build", || Engine::new(&d.netlist, &d.tech));
    let mut scratch = VbsimScratch::new();
    let mut breakpoints = 0usize;
    let opts = VbsimOptions::default();
    let sleep = SleepNetwork::Transistor {
        w_over_l: SCREEN_W_OVER_L,
    };
    for tr in &inp.sample {
        let span = tracer.begin("vbsim.run");
        let res = vbsim_delay_pair_health_with(&engine, tr, None, sleep, &opts, &mut scratch);
        tracer.end(span);
        // Items the sweep quarantined may fail here too; they are
        // already counted as failed.
        if let Ok((_, health)) = res {
            breakpoints += health.breakpoints;
        }
    }
    tracer.end(root);
    let run_s = tracer.total("vbsim.run");
    out.set("vbsim.run_s", run_s);
    out.set(
        "vbsim.ns_per_breakpoint",
        1e9 * ratio(run_s, breakpoints as f64),
    );
    out.set("vbsim.engine_build_s", tracer.total("vbsim.engine_build"));
    Ok(())
}
