//! ABL-STA / §4 — why conventional critical-path tools are not adequate
//! for MTCMOS.
//!
//! "One cannot simply examine a critical path in the circuit, but must
//! also consider all other accompanying gates that are switching" and
//! "current tools to extract critical paths may not be adequate since
//! they do not take into account the virtual ground bounce."
//!
//! A conventional STA reports one vector-blind, sizing-blind critical
//! delay. This experiment shows (a) the STA number does not move with
//! the sleep size while the true delay explodes, and (b) the vector that
//! exercises the STA critical path is *not* the MTCMOS-worst vector.

use mtk_bench::report::{ns, pct, print_table};
use mtk_bench::transition_of;
use mtk_circuits::adder::RippleAdder;
use mtk_circuits::tree::InverterTree;
use mtk_circuits::vectors::exhaustive_transitions;
use mtk_core::health::{FailurePolicy, FaultPlan};
use mtk_core::sizing::{screen_vectors_par_quarantined, vbsim_delay_pair, Transition};
use mtk_core::sta::Sta;
use mtk_core::vbsim::{Engine, SleepNetwork, VbsimOptions};
use mtk_netlist::logic::Logic;
use mtk_netlist::tech::Technology;

fn main() {
    let tech = Technology::l07();

    // --- (a) The tree: STA vs vbsim across sleep sizes. ---
    let tree = InverterTree::paper();
    let sta = Sta::analyze(&tree.netlist, &tech).expect("sta");
    let engine = Engine::new(&tree.netlist, &tech);
    println!("ABL-STA (a): Fig 4 tree — STA critical delay vs actual MTCMOS delay");
    println!(
        "STA critical path: {} gates, {} ns (vector- and sizing-blind)",
        sta.critical_path().len(),
        ns(sta.critical_delay())
    );
    let mut rows = Vec::new();
    for &wl in &[20.0, 8.0, 2.0] {
        let run = engine
            .run(&[Logic::Zero], &[Logic::One], &VbsimOptions::mtcmos(wl))
            .expect("vbsim");
        let d = run.delay_over(tree.leaves()).expect("switches");
        rows.push(vec![
            format!("{wl}"),
            ns(sta.critical_delay()),
            ns(d),
            format!("{:+.0}%", (d / sta.critical_delay() - 1.0) * 100.0),
        ]);
    }
    print_table(
        "STA is constant; reality is not",
        &["sleep W/L", "STA [ns]", "vbsim worst [ns]", "STA error"],
        &rows,
    );

    // --- (b) The adder: is the STA critical path the MTCMOS worst case? ---
    let add = RippleAdder::paper();
    let sta = Sta::analyze(&add.netlist, &tech).expect("sta");
    let engine = Engine::new(&add.netlist, &tech);
    println!(
        "\nABL-STA (b): 3-bit adder — STA critical delay {} ns (path through {} gates)",
        ns(sta.critical_delay()),
        sta.critical_path().len()
    );
    // The classic STA-driven test vector: provoke the full carry ripple
    // (a = 111, b = 001 -> carry propagates through every FA).
    let ripple_vector = Transition::new(add.input_values(7, 0), add.input_values(7, 1));
    let wl = 10.0;
    let base = VbsimOptions::default();
    let ripple = vbsim_delay_pair(
        &engine,
        &ripple_vector,
        None,
        SleepNetwork::Transistor { w_over_l: wl },
        &base,
    )
    .expect("run")
    .expect("switches");
    // The true MTCMOS-worst vector from exhaustive screening.
    let transitions: Vec<Transition> = exhaustive_transitions(6)
        .into_iter()
        .map(|p| transition_of(p, 6))
        .collect();
    let (screened, _) = screen_vectors_par_quarantined(
        &add.netlist,
        &tech,
        &transitions,
        None,
        wl,
        &base,
        1,
        FailurePolicy::FailFast,
        &FaultPlan::none(),
    )
    .expect("screen");
    let worst = &screened[0];
    let worst_tr = &transitions[worst.index];
    let packed = |tr: &Transition| -> (u64, u64) {
        let enc = |bits: &[Logic]| {
            bits.iter()
                .enumerate()
                .fold(0u64, |acc, (k, &b)| acc | ((b == Logic::One) as u64) << k)
        };
        (enc(&tr.from), enc(&tr.to))
    };
    let (wf, wt) = packed(worst_tr);
    let rows = vec![
        vec![
            "carry-ripple (STA-style) vector".into(),
            ns(ripple.cmos),
            ns(ripple.mtcmos),
            pct(ripple.degradation()),
        ],
        vec![
            format!("screened worst ({wf:06b}->{wt:06b})"),
            ns(worst.delays.cmos),
            ns(worst.delays.mtcmos),
            pct(worst.delays.degradation()),
        ],
    ];
    print_table(
        &format!("adder @ sleep W/L={wl}: the STA-style vector vs the screened worst"),
        &["vector", "CMOS [ns]", "MTCMOS [ns]", "degradation"],
        &rows,
    );
    println!(
        "\nThe longest-CMOS-path vector suffers {} degradation; the simultaneous-discharge \
         vector suffers {} — a critical-path tool never finds it (§2.4/§4).",
        pct(ripple.degradation()),
        pct(worst.delays.degradation())
    );
}
