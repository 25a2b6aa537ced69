//! `hybrid_verify`: screen → SPICE verification, mostly SPICE work.
//!
//! One pass runs `run_hybrid` at 2 threads on the paper's 3-bit adder
//! (exhaustive screen, SPICE-verify the top 16) and on the `alu4` slice
//! (seeded transitions, top 2). `mul8` is left out on purpose: verifying
//! its top 4 takes minutes. The traced run replays every verified
//! candidate through `spice_transition` and through `expand`,
//! `operating_point` and `transient` one by one, timing each layer.

use crate::inputs::{self, Golden};
use crate::spans::Tracer;
use crate::stats::{median, ratio};
use crate::{checks, Config, Outcome, THREADS};
use mtk_core::health::FailurePolicy;
use mtk_core::hybrid::{run_hybrid, spice_transition, HybridOptions, HybridReport, SpiceRunConfig};
use mtk_core::sizing::{DelayPair, Transition};
use mtk_core::vbsim::worst_delay_vs_baseline;
use mtk_netlist::expand::{expand, ExpandOptions, SleepImpl};
use mtk_spice::dc::operating_point;
use mtk_spice::tran::{transient, TranOptions};
use std::time::Instant;

/// Sleep W/L of screening and verification (the `mtk hybrid` default).
const W_OVER_L: f64 = 10.0;
/// PRNG salt of the alu4 sample.
const ALU_SALT: u64 = 0x4859_4252_4944; // "HYBRID"

/// One design of the pass: its inputs and how many candidates to verify.
struct Job {
    golden: Golden,
    transitions: Vec<Transition>,
    top_k: usize,
}

fn load(cfg: &Config, tracer: &mut Tracer) -> Result<Vec<Job>, String> {
    let adder3 = inputs::load(&cfg.examples, "adder3", tracer)?;
    let alu4 = inputs::load(&cfg.examples, "alu4", tracer)?;
    let adder3_trs = inputs::exhaustive_transitions(&adder3.design, if cfg.tiny { 64 } else { 1 });
    let alu_trs = inputs::seeded_transitions(
        inputs::width(&alu4.design),
        if cfg.tiny { 16 } else { 2048 },
        cfg.seed,
        ALU_SALT,
    );
    Ok(vec![
        Job {
            golden: adder3,
            transitions: adder3_trs,
            top_k: if cfg.tiny { 2 } else { 16 },
        },
        Job {
            golden: alu4,
            transitions: alu_trs,
            top_k: if cfg.tiny { 1 } else { 2 },
        },
    ])
}

fn options(job: &Job) -> HybridOptions {
    HybridOptions {
        top_k: job.top_k,
        threads: THREADS,
        policy: FailurePolicy::quarantine(job.transitions.len()),
        ..HybridOptions::at_size(W_OVER_L, spice_config())
    }
}

/// The verification window `mtk hybrid` uses.
fn spice_config() -> SpiceRunConfig {
    SpiceRunConfig::window(80e-9)
}

struct Pass {
    wall: f64,
    reports: Vec<HybridReport>,
}

fn pass(jobs: &[Job], tracer: &mut Tracer) -> Result<Pass, String> {
    let root = tracer.begin("pass");
    let t0 = Instant::now();
    let mut reports = Vec::with_capacity(jobs.len());
    for job in jobs {
        let d = &job.golden.design;
        let span = tracer.begin("hybrid.run");
        let report = run_hybrid(&d.netlist, &d.tech, &job.transitions, &options(job))
            .map_err(|e| format!("{} hybrid: {e}", job.golden.stem))?;
        tracer.end(span);
        reports.push(report);
    }
    let wall = t0.elapsed().as_secs_f64();
    tracer.end(root);
    Ok(Pass { wall, reports })
}

/// Runs the workload.
///
/// # Errors
///
/// Missing designs or a library error.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(cfg.trace);
    // The run uses this set-up (traced in a traced run); `setup_s` times
    // fresh ones between the passes.
    let jobs = load(cfg, &mut tracer)?;
    out.set("fe.parse_s", tracer.total("fe.parse"));
    let set_up = || {
        let t0 = Instant::now();
        std::hint::black_box(load(cfg, &mut Tracer::new(false))?);
        Ok(t0.elapsed().as_secs_f64())
    };

    let measured = crate::measure(
        cfg,
        3,
        &mut tracer,
        set_up,
        |t, _| pass(&jobs, t),
        |p| p.wall,
    )?;

    measured.record(&mut out);
    let passes = measured.passes;
    let n_transitions: usize = jobs.iter().map(|j| j.transitions.len()).sum();
    let screen: Vec<f64> = passes
        .iter()
        .map(|p| p.reports.iter().map(|r| r.screen_wall).sum())
        .collect();
    let verify: Vec<f64> = passes
        .iter()
        .map(|p| p.reports.iter().map(|r| r.verify_wall).sum())
        .collect();
    let rates: Vec<f64> = screen
        .iter()
        .map(|&s| ratio(n_transitions as f64, s))
        .collect();
    out.set("screen_transitions_per_s", median(&rates));
    out.set("verify_s", median(&verify));
    // Failures are quarantined items of either tier. A candidate whose
    // probes never switch at transistor level (`verified: None`) is a
    // measurement, not a failure.
    for p in &passes {
        for r in &p.reports {
            out.attempted += (r.screen_health.items + r.verify_health.items) as u64;
            out.failed +=
                (r.screen_health.quarantined.len() + r.verify_health.quarantined.len()) as u64;
        }
    }

    // Output checks: every pass verifies the same pairs, and a direct
    // `spice_transition` of each candidate gives bit-identical pairs.
    let first = &passes[0];
    let verified = |p: &Pass| -> Vec<Vec<Option<DelayPair>>> {
        p.reports
            .iter()
            .map(|r| r.findings.iter().map(|f| f.verified).collect())
            .collect()
    };
    let v0 = verified(first);
    for p in &passes[1..] {
        for (a, b) in v0.iter().zip(verified(p)) {
            out.check(checks::spice_pairs_equal(a, &b));
        }
    }
    tracer.set_id(u64::MAX);
    let replay = tracer.begin("replay");
    for (job, report) in jobs.iter().zip(&first.reports) {
        let direct = direct_pairs(job, report, &mut tracer)?;
        let pipeline: Vec<_> = report.findings.iter().map(|f| f.verified).collect();
        out.check(checks::spice_pairs_equal(&direct, &pipeline));
    }
    if cfg.trace {
        for (job, report) in jobs.iter().zip(&first.reports) {
            layer_replay(job, report, &mut tracer, &mut out)?;
        }
    }
    tracer.end(replay);

    if cfg.trace {
        let first = &first.reports;
        out.set("hybrid.screen_s", median(&screen));
        out.set("hybrid.verify_s", median(&verify));
        let busy: Vec<f64> = passes
            .iter()
            .map(|p| {
                p.reports
                    .iter()
                    .flat_map(|r| r.screen_workers.iter().chain(&r.verify_workers))
                    .map(|w| w.wall)
                    .sum()
            })
            .collect();
        let util: Vec<f64> = passes
            .iter()
            .zip(&busy)
            .map(|(p, b)| {
                let span: f64 = p
                    .reports
                    .iter()
                    .map(|r| r.screen_wall + r.verify_wall)
                    .sum();
                ratio(*b, THREADS as f64 * span)
            })
            .collect();
        out.set("par.busy_s", median(&busy));
        out.set("par.utilization", median(&util));
        let runs = first.iter().map(|r| &r.screen_health.runs);
        out.set(
            "vbsim.breakpoints",
            runs.clone().map(|h| h.breakpoints).sum::<usize>() as f64,
        );
        out.set(
            "vbsim.glitch_reversals",
            runs.clone().map(|h| h.glitch_reversals).sum::<usize>() as f64,
        );
        out.set(
            "vbsim.vx_fallbacks",
            runs.map(|h| h.vx_fallbacks).sum::<usize>() as f64,
        );
        out.note_self_time_shares(&tracer);
        crate::write_spans(cfg, &tracer, &mut out)?;
    }
    Ok(out)
}

/// The delay pair of each verified candidate measured directly with
/// `spice_transition` (a fresh expansion per leg), composed the way the
/// pipeline composes it: no pair when the CMOS baseline is quiet,
/// otherwise the worst MTCMOS probe delay against the baseline.
fn direct_pairs(
    job: &Job,
    report: &HybridReport,
    tracer: &mut Tracer,
) -> Result<Vec<Option<DelayPair>>, String> {
    let d = &job.golden.design;
    let cfg = spice_config();
    let mut out = Vec::with_capacity(report.findings.len());
    for f in &report.findings {
        let tr = &job.transitions[f.index];
        let leg = |sleep: SleepImpl, tracer: &mut Tracer| {
            tracer
                .time("spice.transition", || {
                    spice_transition(&d.netlist, &d.tech, tr, None, sleep, &cfg)
                })
                .map_err(|e| format!("{} candidate #{}: {e}", job.golden.stem, f.index))
        };
        let cmos = leg(SleepImpl::AlwaysOn, tracer)?;
        let pair = match cmos.delay {
            None => None,
            Some(d_cmos) => {
                let mt = leg(SleepImpl::Transistor { w_over_l: W_OVER_L }, tracer)?;
                let d_mt =
                    worst_delay_vs_baseline(&cmos.probe_delays, &mt.probe_delays).unwrap_or(d_cmos);
                Some(DelayPair {
                    cmos: d_cmos,
                    mtcmos: d_mt,
                })
            }
        };
        out.push(pair);
    }
    Ok(out)
}

/// Replays each verified candidate's legs through `expand`,
/// `operating_point` and `transient`, one span each, and sums the
/// transient solver counters into the per-layer figures.
fn layer_replay(
    job: &Job,
    report: &HybridReport,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let d = &job.golden.design;
    let cfg = spice_config();
    let err = |e: &dyn std::fmt::Display| format!("{} replay: {e}", job.golden.stem);
    for f in &report.findings {
        let tr = &job.transitions[f.index];
        let mut legs = vec![SleepImpl::AlwaysOn];
        if f.verified.is_some() {
            legs.push(SleepImpl::Transistor { w_over_l: W_OVER_L });
        }
        for sleep in legs {
            let opts = ExpandOptions {
                sleep,
                vgnd_extra_cap: cfg.vgnd_extra_cap,
                with_leakage: cfg.with_leakage,
                vgnd_junction_cap: true,
            };
            let mut ex = tracer
                .time("netlist.expand", || expand(&d.netlist, &d.tech, &opts))
                .map_err(|e| err(&e))?;
            for pos in 0..tr.from.len() {
                ex.set_input_transition(pos, tr.from[pos], tr.to[pos], cfg.t0)
                    .map_err(|e| err(&e))?;
            }
            let settled = d.netlist.evaluate(&tr.from).map_err(|e| err(&e))?;
            ex.apply_initial_state(&settled);
            let mut probes: Vec<_> = d
                .netlist
                .primary_outputs()
                .iter()
                .map(|&n| ex.node_of(n))
                .collect();
            probes.extend(ex.vgnd);
            let tran_opts = TranOptions::to(cfg.t_stop)
                .with_dt(cfg.dt)
                .with_probes(probes);
            tracer
                .time("spice.dc_op", || {
                    operating_point(&ex.circuit, &tran_opts.dc)
                })
                .map_err(|e| err(&e))?;
            let res = tracer
                .time("spice.tran", || transient(&ex.circuit, &tran_opts))
                .map_err(|e| err(&e))?;
            let mut add = |name: &'static str, n: usize| {
                *out.values.entry(name).or_insert(0.0) += n as f64;
            };
            add("spice.newton_iterations", res.total_newton_iterations);
            add("spice.steps", res.steps);
            add("spice.lu_pattern_reuses", res.lu_pattern_reuses);
            add("spice.dt_halvings", res.dt_halvings);
            add("spice.gmin_stages", res.op_gmin_fallback_stages);
        }
    }
    out.set("netlist.expand_s", tracer.total("netlist.expand"));
    out.set("spice.transition_s", tracer.total("spice.transition"));
    out.set("spice.dc_op_s", tracer.total("spice.dc_op"));
    let tran_s = tracer.total("spice.tran");
    out.set("spice.tran_s", tran_s);
    let steps = out.values.get("spice.steps").copied().unwrap_or(0.0);
    out.set("spice.us_per_step", 1e6 * ratio(tran_s, steps));
    Ok(())
}
