//! The Fig 4 inverter tree.
//!
//! A clock-distribution-style tree: one input inverter drives `fanout`
//! inverters, each of which drives `fanout` more, for `depth` stages.
//! The paper's instance has fanout 3 and three stages (1 + 3 + 9
//! inverters), each output loaded with 50 fF, V<sub>dd</sub> = 1.2 V —
//! when the input rises, all nine third-stage inverters discharge at
//! once through the shared sleep transistor.

use mtk_netlist::cell::CellKind;
use mtk_netlist::netlist::{NetId, Netlist};
use mtk_netlist::NetlistError;

/// Parameters of an inverter tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeSpec {
    /// Fanout of every stage (the paper uses 3).
    pub fanout: usize,
    /// Number of inverter stages including the input inverter (paper: 3).
    pub stages: usize,
    /// Explicit load on every inverter output, farads (paper: 50 fF).
    pub load_cap: f64,
    /// Drive-strength multiplier of every inverter.
    pub drive: f64,
}

impl Default for TreeSpec {
    /// The paper's Fig 4 configuration.
    fn default() -> Self {
        TreeSpec {
            fanout: 3,
            stages: 3,
            load_cap: 50e-15,
            drive: 1.0,
        }
    }
}

/// A generated inverter tree.
#[derive(Debug)]
pub struct InverterTree {
    /// The gate-level netlist.
    pub netlist: Netlist,
    /// The primary input net.
    pub input: NetId,
    /// Output nets per stage (stage 0 = the input inverter's output).
    pub stage_outputs: Vec<Vec<NetId>>,
}

impl InverterTree {
    /// Builds a tree from a spec.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors (they indicate a bug in the
    /// generator, not bad user input, but are surfaced for completeness).
    pub fn new(spec: &TreeSpec) -> Result<Self, NetlistError> {
        let mut nl = Netlist::new("inverter_tree");
        let input = nl.add_net("in")?;
        nl.mark_primary_input(input)?;
        let stage_outputs = grow(&mut nl, spec, input, "")?;
        Ok(InverterTree {
            netlist: nl,
            input,
            stage_outputs,
        })
    }

    /// The paper's Fig 4 instance (fanout 3, stages 1+3+9, 50 fF loads).
    pub fn paper() -> Self {
        InverterTree::new(&TreeSpec::default()).expect("paper tree spec is valid")
    }

    /// Leaf (final-stage) outputs.
    pub fn leaves(&self) -> &[NetId] {
        self.stage_outputs.last().expect("stages >= 1")
    }

    /// A representative leaf output for delay measurement.
    pub fn probe(&self) -> NetId {
        self.leaves()[0]
    }

    /// Which stages are *discharging* (falling) for a given input
    /// transition: with an odd number of inversions per stage, a rising
    /// input makes stage 0 fall, stage 1 rise, stage 2 fall, …
    pub fn falling_stages_for_rising_input(&self) -> Vec<usize> {
        (0..self.stage_outputs.len()).step_by(2).collect()
    }
}

/// Two independent trees in one netlist — the EXT-MODULES workload.
/// Tree `k` is driven by input `in{k}` and its nets and cells carry the
/// prefix `t{k}_`. Returns the netlist and the cell count of one tree:
/// cells `0..n` belong to tree 0, the rest to tree 1.
///
/// # Errors
///
/// Propagates netlist construction errors, as [`InverterTree::new`].
pub fn double_tree(spec: &TreeSpec) -> Result<(Netlist, usize), NetlistError> {
    let mut nl = Netlist::new("double_tree");
    for k in 0..2 {
        let input = nl.add_net(&format!("in{k}"))?;
        nl.mark_primary_input(input)?;
        grow(&mut nl, spec, input, &format!("t{k}_"))?;
    }
    let per_tree = nl.cells().len() / 2;
    Ok((nl, per_tree))
}

/// Adds one tree driven by `input` to `nl`, naming its nets and cells
/// with `prefix`, and marks its leaves as primary outputs. Returns the
/// output nets per stage.
fn grow(
    nl: &mut Netlist,
    spec: &TreeSpec,
    input: NetId,
    prefix: &str,
) -> Result<Vec<Vec<NetId>>, NetlistError> {
    assert!(spec.stages >= 1, "tree needs at least one stage");
    assert!(spec.fanout >= 1, "fanout must be at least 1");
    let mut stage_outputs: Vec<Vec<NetId>> = Vec::new();
    let mut frontier = vec![input];
    let mut gate_idx = 0usize;
    for stage in 0..spec.stages {
        let mut outputs = Vec::new();
        let per_driver = if stage == 0 { 1 } else { spec.fanout };
        for &drv in &frontier {
            for _ in 0..per_driver {
                let out = nl.add_net(&format!("{prefix}s{stage}_{}", outputs.len()))?;
                nl.add_cell(
                    &format!("{prefix}inv{gate_idx}"),
                    CellKind::Inv,
                    vec![drv],
                    out,
                    spec.drive,
                )?;
                nl.add_extra_cap(out, spec.load_cap);
                gate_idx += 1;
                outputs.push(out);
            }
        }
        frontier = outputs.clone();
        stage_outputs.push(outputs);
    }
    for &leaf in stage_outputs.last().expect("stages >= 1") {
        nl.mark_primary_output(leaf);
    }
    Ok(stage_outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtk_netlist::logic::Logic;

    #[test]
    fn paper_tree_shape() {
        let t = InverterTree::paper();
        assert_eq!(t.stage_outputs.len(), 3);
        assert_eq!(t.stage_outputs[0].len(), 1);
        assert_eq!(t.stage_outputs[1].len(), 3);
        assert_eq!(t.stage_outputs[2].len(), 9);
        assert_eq!(t.netlist.cells().len(), 13);
        assert_eq!(t.netlist.total_transistors(), 26);
    }

    #[test]
    fn logic_alternates_per_stage() {
        let t = InverterTree::paper();
        let v = t.netlist.evaluate(&[Logic::One]).unwrap();
        assert_eq!(v[t.stage_outputs[0][0].index()], Logic::Zero);
        for &n in &t.stage_outputs[1] {
            assert_eq!(v[n.index()], Logic::One);
        }
        for &n in &t.stage_outputs[2] {
            assert_eq!(v[n.index()], Logic::Zero);
        }
    }

    #[test]
    fn custom_spec_sizes() {
        let t = InverterTree::new(&TreeSpec {
            fanout: 2,
            stages: 4,
            load_cap: 10e-15,
            drive: 2.0,
        })
        .unwrap();
        assert_eq!(t.stage_outputs[3].len(), 8);
        assert_eq!(t.leaves().len(), 8);
        assert_eq!(t.netlist.cells().len(), 1 + 2 + 4 + 8);
    }

    #[test]
    fn falling_stages_identified() {
        let t = InverterTree::paper();
        assert_eq!(t.falling_stages_for_rising_input(), vec![0, 2]);
    }

    #[test]
    fn loads_applied() {
        let t = InverterTree::paper();
        let tech = mtk_netlist::tech::Technology::l07();
        // A leaf has no fanout: its load is the explicit 50 fF + driver drain.
        let c = t.netlist.load_cap(t.probe(), &tech);
        assert!(c >= 50e-15);
        assert!(c < 60e-15);
    }
}
