//! EXT-MODULES — per-module sleep devices and mutually exclusive
//! discharge (the paper's future-work direction; the authors' 1998
//! follow-up, "MTCMOS Hierarchical Sizing Based on Mutual Exclusive
//! Discharge Patterns").
//!
//! Two identical inverter trees share one netlist. If the workload
//! guarantees only one tree switches at a time (mutually exclusive
//! discharge), one *shared* sleep device sized for a single tree
//! suffices — roughly half the total width of one device per tree, and
//! far less than a device sized for the simultaneous worst case. If
//! both trees can fire together, sharing buys nothing and partitioning
//! decouples their virtual-ground noise instead.

use mtk_bench::report::print_table;
use mtk_circuits::tree::{double_tree, TreeSpec};
use mtk_core::cluster::{
    size_clusters_for_target, worst_degradation_partitioned, ExclusivePartition,
};
use mtk_core::health::{FailurePolicy, FaultPlan, RunHealth};
use mtk_core::par::WorkerStats;
use mtk_core::sizing::{size_for_target, Transition};
use mtk_core::vbsim::{Engine, VbsimOptions, VbsimScratch};
use mtk_netlist::logic::Logic;
use mtk_netlist::tech::Technology;

fn main() {
    let tech = Technology::l07();
    let (nl, cells_per_tree) = double_tree(&TreeSpec::default()).expect("double tree");
    let engine = Engine::new(&nl, &tech);
    // One device per tree: a fixed two-cluster partition.
    let per_tree = ExclusivePartition {
        assignment: (0..nl.cells().len())
            .map(|c| usize::from(c >= cells_per_tree))
            .collect(),
        n_clusters: 2,
        conflict_edges: 0,
        folded: 0,
    };
    let target = 0.10;
    let base = VbsimOptions::default();

    // Workloads: exclusive (one tree rises at a time) vs simultaneous.
    let tr_a = Transition::new(
        vec![Logic::Zero, Logic::Zero],
        vec![Logic::One, Logic::Zero],
    );
    let tr_b = Transition::new(
        vec![Logic::Zero, Logic::Zero],
        vec![Logic::Zero, Logic::One],
    );
    let tr_both = Transition::new(vec![Logic::Zero, Logic::Zero], vec![Logic::One, Logic::One]);
    let exclusive = [tr_a.clone(), tr_b.clone()];
    let simultaneous = [tr_both.clone()];

    println!(
        "EXT-MODULES: two independent Fig-4 trees, one netlist ({} cells), {}% target",
        nl.cells().len(),
        target * 100.0
    );

    let bounds = (0.5, 2000.0);
    let w_shared_excl =
        size_for_target(&engine, &exclusive, None, target, bounds, &base).expect("sizing");
    let w_shared_simul =
        size_for_target(&engine, &simultaneous, None, target, bounds, &base).expect("sizing");
    // The sleep devices come from the partition, so the base options
    // carry none.
    let (sizing, _) = size_clusters_for_target(
        &nl,
        &tech,
        &exclusive,
        None,
        &per_tree,
        target,
        bounds,
        &VbsimOptions::cmos(),
        1,
        FailurePolicy::FailFast,
        &FaultPlan::none(),
        None,
    )
    .expect("module sizing");
    let per_module = &sizing.clustered_w_over_ls;
    let check = worst_degradation_partitioned(
        &engine,
        &mut VbsimScratch::new(),
        &exclusive,
        nl.primary_outputs(),
        &per_tree.assignment,
        per_module,
        &VbsimOptions::cmos(),
        &mut RunHealth::default(),
        &mut WorkerStats::default(),
    )
    .expect("verify");

    let rows = vec![
        vec![
            "shared device, exclusive workload".into(),
            format!("{w_shared_excl:.1}"),
            format!("{w_shared_excl:.1}"),
        ],
        vec![
            "shared device, simultaneous workload".into(),
            format!("{w_shared_simul:.1}"),
            format!("{w_shared_simul:.1}"),
        ],
        vec![
            "one device per tree, exclusive workload".into(),
            format!("{:.1} + {:.1}", per_module[0], per_module[1]),
            format!("{:.1}", sizing.clustered_width()),
        ],
    ];
    print_table(
        "sleep sizing for the same 10% target (verified degradation of the per-module row shown below)",
        &["configuration", "device W/L", "total width"],
        &rows,
    );
    println!(
        "per-module verified worst degradation: {:.1}%",
        check * 100.0
    );
    println!(
        "\nmutually exclusive discharge lets ONE shared device of W/L {w_shared_excl:.0} do the \
         work that costs {:.0} in per-module width and {w_shared_simul:.0} under the \
         no-exclusivity assumption — merging exclusive patterns onto a shared device saves \
         {:.0}% width, the 1998 follow-up's core observation.",
        sizing.clustered_width(),
        (1.0 - w_shared_excl / sizing.clustered_width()) * 100.0
    );
}
