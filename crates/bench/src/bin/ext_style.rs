//! EXT-STYLE / §2.4 — implementation style changes the MTCMOS picture.
//!
//! The mirror adder and the nine-NAND adder compute the same function,
//! but their internal structures discharge differently through a shared
//! sleep transistor: their worst vectors, degradation levels, and the
//! sleep size each needs for a 5 % target all differ. A sizing rule
//! that looks only at the function (or the CMOS critical path) misses
//! this entirely.

use mtk_bench::report::{ns, pct, print_table};
use mtk_bench::transition_of;
use mtk_circuits::adder::RippleAdder;
use mtk_circuits::nand_adder::{NandAdderSpec, NandRippleAdder};
use mtk_circuits::vectors::exhaustive_transitions;
use mtk_core::health::{FailurePolicy, FaultPlan};
use mtk_core::sizing::{screen_vectors_par_quarantined, size_for_target, Transition};
use mtk_core::vbsim::{Engine, VbsimOptions};
use mtk_netlist::netlist::Netlist;
use mtk_netlist::tech::Technology;

fn study(name: &str, netlist: &Netlist, tech: &Technology) -> Vec<String> {
    let engine = Engine::new(netlist, tech);
    let transitions: Vec<Transition> = exhaustive_transitions(6)
        .into_iter()
        .map(|p| transition_of(p, 6))
        .collect();
    let base = VbsimOptions::default();
    let (screened, _) = screen_vectors_par_quarantined(
        netlist,
        tech,
        &transitions,
        None,
        10.0,
        &base,
        1,
        FailurePolicy::FailFast,
        &FaultPlan::none(),
    )
    .expect("screen");
    let worst = &screened[0];
    let worst_trs: Vec<Transition> = screened
        .iter()
        .take(10)
        .map(|e| transitions[e.index].clone())
        .collect();
    let wl_5pct =
        size_for_target(&engine, &worst_trs, None, 0.05, (1.0, 2000.0), &base).expect("sizing");
    vec![
        name.to_string(),
        format!("{}", netlist.total_transistors()),
        ns(worst.delays.cmos),
        pct(worst.delays.degradation()),
        format!("{:06b}->{:06b}", worst.index / 64, worst.index % 64),
        format!("{wl_5pct:.0}"),
    ]
}

fn main() {
    let tech = Technology::l07();
    let mirror = RippleAdder::paper();
    let nand = NandRippleAdder::new(&NandAdderSpec::default()).expect("nand adder");

    println!("EXT-STYLE (§2.4): same function, different structure, different MTCMOS needs");
    let rows = vec![
        study("mirror adder", &mirror.netlist, &tech),
        study("9-NAND adder", &nand.netlist, &tech),
    ];
    print_table(
        "3-bit adders @ screening W/L=10; sizing target 5% on each one's own worst 10 vectors",
        &[
            "implementation",
            "transistors",
            "worst CMOS [ns]",
            "worst degr @10",
            "worst vector",
            "W/L for 5%",
        ],
        &rows,
    );
    println!(
        "\n(Both rows implement a + b identically; everything MTCMOS cares about differs — \
         the §2.4 warning that sizing must look at internal structure, not function.)"
    );
}
