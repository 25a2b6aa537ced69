//! Bit pins for the SPICE reference tier.
//!
//! Every result below is pinned as the hex `f64::to_bits` it had when the
//! pins were written. Any change to the MNA assembly, the sparse LU or
//! the Newton loop that moves a single bit of a verified delay or of a
//! recorded transient sample fails here, so speed work on the solver
//! must stay bit-identical.

use mtcmos_suite::circuits::golden::golden_designs;
use mtcmos_suite::circuits::vectors::exhaustive_transitions;
use mtcmos_suite::core::health::FailurePolicy;
use mtcmos_suite::core::hybrid::{run_hybrid, HybridOptions, SpiceRunConfig};
use mtcmos_suite::core::sizing::Transition;
use mtcmos_suite::fe::Design;
use mtcmos_suite::netlist::expand::{expand, ExpandOptions, SleepImpl};
use mtcmos_suite::netlist::logic::{bits_lsb_first, Logic};
use mtcmos_suite::num::prng::Xoshiro256pp;
use mtcmos_suite::spice::tran::{transient, TranOptions};

const W_OVER_L: f64 = 10.0;

fn design(stem: &str) -> Design {
    golden_designs()
        .into_iter()
        .find(|(s, _)| *s == stem)
        .map(|(_, d)| d)
        .expect("golden design exists")
}

/// A 40 ns window at 160 ps nominal steps: coarse enough for a debug
/// build, fine enough that every verified transition crosses V<sub>dd</sub>/2.
fn spice_config() -> SpiceRunConfig {
    let mut cfg = SpiceRunConfig::window(40e-9);
    cfg.dt = 40e-9 / 250.0;
    cfg
}

/// The verified `(cmos, mtcmos)` delay bits of every finding, in rank
/// order (`None` where no probe switched).
fn verified_bits(d: &Design, transitions: &[Transition], top_k: usize) -> Vec<Option<[u64; 2]>> {
    let opts = HybridOptions {
        top_k,
        threads: 1,
        policy: FailurePolicy::quarantine(transitions.len()),
        ..HybridOptions::at_size(W_OVER_L, spice_config())
    };
    let report = run_hybrid(&d.netlist, &d.tech, transitions, &opts).expect("hybrid run");
    assert!(report.verify_health.quarantined.is_empty());
    report
        .findings
        .iter()
        .map(|f| f.verified.map(|p| [p.cmos.to_bits(), p.mtcmos.to_bits()]))
        .collect()
}

#[test]
fn hybrid_verified_pairs_are_bit_pinned_on_adder3() {
    let d = design("adder3");
    let transitions: Vec<Transition> = exhaustive_transitions(6)
        .into_iter()
        .map(|p| Transition::new(bits_lsb_first(p.from, 6), bits_lsb_first(p.to, 6)))
        .collect();
    let got = verified_bits(&d, &transitions, 3);
    let want = [
        None,
        Some([0x3e46_473a_4127_4eef, 0x3e48_97ca_440f_c325]),
        Some([0x3e44_e63e_1f9f_7f14, 0x3e45_db17_5662_47e3]),
    ];
    assert_eq!(got, want, "adder3 verified bits moved: {got:x?}");
}

#[test]
fn hybrid_verified_pairs_are_bit_pinned_on_alu4() {
    let d = design("alu4");
    let width = d.netlist.primary_inputs().len();
    let bit = |rng: &mut Xoshiro256pp| {
        if rng.next_u64() & 1 == 1 {
            Logic::One
        } else {
            Logic::Zero
        }
    };
    let transitions: Vec<Transition> = (0..64u64)
        .map(|i| {
            let mut rng = Xoshiro256pp::stream(0x5049_4E53, i); // "PINS"
            let from = (0..width).map(|_| bit(&mut rng)).collect();
            let to = (0..width).map(|_| bit(&mut rng)).collect();
            Transition::new(from, to)
        })
        .collect();
    let got = verified_bits(&d, &transitions, 1);
    let want = [Some([0x3e42_8ee9_997d_e930, 0x3e44_d0e3_2199_9c60])];
    assert_eq!(got, want, "alu4 verified bits moved: {got:x?}");
}

/// FNV-1a over the little-endian bits of every sample one MTCMOS
/// transient leg records: the time axis, every node voltage and every
/// source branch current.
#[test]
fn mtcmos_transient_samples_are_bit_pinned() {
    let d = design("adder3");
    let cfg = spice_config();
    let opts = ExpandOptions {
        sleep: SleepImpl::Transistor { w_over_l: W_OVER_L },
        vgnd_extra_cap: cfg.vgnd_extra_cap,
        with_leakage: cfg.with_leakage,
        vgnd_junction_cap: true,
    };
    let mut ex = expand(&d.netlist, &d.tech, &opts).expect("expand");
    // 3 + 5 = 0 → 7 + 7 = 14 over (a, b, cin): every sum bit and the
    // carry chain switch.
    let from = bits_lsb_first(0b000_011, 6);
    let to = bits_lsb_first(0b111_111, 6);
    for pos in 0..from.len() {
        ex.set_input_transition(pos, from[pos], to[pos], cfg.t0)
            .expect("input transition");
    }
    let settled = d.netlist.evaluate(&from).expect("settle");
    ex.apply_initial_state(&settled);
    let res =
        transient(&ex.circuit, &TranOptions::to(cfg.t_stop).with_dt(cfg.dt)).expect("transient");
    let mut bytes = Vec::new();
    let mut put = |xs: &[f64]| {
        for x in xs {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    };
    put(res.time());
    for k in 0..res.node_names().len() {
        put(res.node_series(k).expect("recorded node"));
    }
    for k in 0..res.branch_names().len() {
        put(res.branch_series(k).expect("recorded branch"));
    }
    let digest = mtcmos_suite::store::fnv1a(&bytes);
    assert_eq!(
        (res.steps, res.total_newton_iterations, res.dt_halvings),
        (251, 514, 0),
        "transient effort moved"
    );
    assert_eq!(
        digest, 0x9e1e_bd33_7bdc_347a,
        "transient samples moved: {digest:#018x}"
    );
}
