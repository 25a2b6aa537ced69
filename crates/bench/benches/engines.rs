//! Self-timed micro-benchmarks of the two engines and their numeric
//! substrate. The headline §6.2 claim (switch-level ≫ SPICE) is measured
//! end-to-end in `sweeps.rs`; these isolate the pieces.
//!
//! Run with `cargo bench -p mtk-bench --features bench-harness`.

use mtk_bench::timing::bench;
use mtk_circuits::adder::RippleAdder;
use mtk_circuits::multiplier::ArrayMultiplier;
use mtk_circuits::tree::InverterTree;
use mtk_core::model::{solve_vx, VxOptions};
use mtk_core::vbsim::{Engine, VbsimOptions};
use mtk_netlist::logic::Logic;
use mtk_netlist::tech::Technology;
use mtk_num::sparse::{LuWorkspace, Triplets};
use std::hint::black_box;

fn bench_vx_solver() {
    let tech = Technology::l07();
    let betas = vec![tech.kp_n; 9];
    let r = tech.sleep_resistance(8.0);
    bench("vx_solver/9_gates_body_effect", 100, 1000, || {
        black_box(
            solve_vx(
                black_box(&tech),
                black_box(r),
                black_box(&betas),
                VxOptions { body_effect: true },
            )
            .unwrap(),
        );
    });
}

fn bench_vbsim() {
    let tech07 = Technology::l07();
    let tree = InverterTree::paper();
    let tree_engine = Engine::new(&tree.netlist, &tech07);
    bench("vbsim/tree_vector", 20, 200, || {
        black_box(
            tree_engine
                .run(
                    black_box(&[Logic::Zero]),
                    black_box(&[Logic::One]),
                    &VbsimOptions::mtcmos(8.0),
                )
                .unwrap(),
        );
    });

    let add = RippleAdder::paper();
    let add_engine = Engine::new(&add.netlist, &tech07);
    let from = add.input_values(1, 0);
    let to = add.input_values(5, 6);
    bench("vbsim/adder_vector", 20, 200, || {
        black_box(
            add_engine
                .run(
                    black_box(&from),
                    black_box(&to),
                    &VbsimOptions::mtcmos(10.0),
                )
                .unwrap(),
        );
    });

    let tech03 = Technology::l03();
    let m = ArrayMultiplier::paper();
    let m_engine = Engine::new(&m.netlist, &tech03);
    let from = m.input_values(0, 0);
    let to = m.input_values(0xFF, 0x81);
    bench("vbsim/multiplier_vector_a", 5, 50, || {
        black_box(
            m_engine
                .run(
                    black_box(&from),
                    black_box(&to),
                    &VbsimOptions::mtcmos(170.0),
                )
                .unwrap(),
        );
    });
}

fn bench_sparse_lu() {
    // A banded system shaped like an MNA matrix (~5 nnz per row).
    let n = 500;
    let mut t = Triplets::new(n);
    for i in 0..n {
        t.add(i, i, 4.0);
        if i + 1 < n {
            t.add(i, i + 1, -1.0);
            t.add(i + 1, i, -1.0);
        }
        if i + 7 < n {
            t.add(i, i + 7, -0.5);
            t.add(i + 7, i, -0.5);
        }
    }
    let b: Vec<f64> = (0..n).map(|i| (i % 13) as f64).collect();
    bench("sparse_lu/factor_solve_500", 5, 50, || {
        let lu = black_box(&t).factor().unwrap();
        black_box(lu.solve(black_box(&b)).unwrap());
    });
    // The Newton-loop path: after the first call the workspace replays
    // the recorded elimination (same bits, no row merges).
    let rows = t.to_rows();
    let mut ws = LuWorkspace::new();
    let mut x = Vec::new();
    bench("sparse_lu/replay_factor_solve_500", 5, 50, || {
        ws.factor_solve(black_box(&rows), black_box(&b), &mut x)
            .unwrap();
        black_box(&x);
    });
}

fn main() {
    bench_vx_solver();
    bench_vbsim();
    bench_sparse_lu();
}
