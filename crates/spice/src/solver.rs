//! MNA assembly and the Newton–Raphson solve shared by every analysis.
//!
//! The unknown vector is laid out as all non-ground node voltages
//! (node `k` ↦ index `k − 1`) followed by one branch current per voltage
//! source, in device order.

use crate::circuit::{Circuit, DeviceKind, NodeId};
use crate::mos::mos_eval;
use crate::{Result, SpiceError};
use mtk_num::ordering::reverse_cuthill_mckee;
use mtk_num::sparse::{AssemblyPlan, LuWorkspace, Triplets};

/// Integration method for the capacitor companion model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Integrator {
    /// Trapezoidal rule (second order; the default).
    #[default]
    Trapezoidal,
    /// Backward Euler (first order, more damped).
    BackwardEuler,
}

/// Per-capacitor dynamic state carried between time steps.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CapState {
    /// Voltage across the capacitor at the last accepted step.
    pub v: f64,
    /// Current through the capacitor at the last accepted step.
    pub i: f64,
}

/// A lowered linear capacitance the transient engine integrates: explicit
/// capacitor devices plus the intrinsic terminal capacitances of MOSFETs
/// whose model enables them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynCap {
    /// First terminal.
    pub a: NodeId,
    /// Second terminal.
    pub b: NodeId,
    /// Capacitance in farads.
    pub farads: f64,
}

/// Lowers a circuit's capacitive content into a flat [`DynCap`] list
/// (explicit capacitors in device order, then per-MOSFET intrinsic caps).
pub fn collect_dyn_caps(circuit: &Circuit) -> Vec<DynCap> {
    let mut out = Vec::new();
    for dev in circuit.devices() {
        match &dev.kind {
            DeviceKind::Capacitor { a, b, farads } => out.push(DynCap {
                a: *a,
                b: *b,
                farads: *farads,
            }),
            DeviceKind::Mosfet {
                d,
                g,
                s,
                b,
                model,
                w_over_l,
            } => {
                if let Some(caps) = circuit.model(*model).caps {
                    for (na, nb, c_per) in [
                        (*g, *s, caps.cgs),
                        (*g, *d, caps.cgd),
                        (*d, *b, caps.cdb),
                        (*s, *b, caps.csb),
                    ] {
                        let farads = c_per * w_over_l;
                        if farads > 0.0 && na != nb {
                            out.push(DynCap {
                                a: na,
                                b: nb,
                                farads,
                            });
                        }
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// What the stamps should describe.
#[derive(Debug, Clone, Copy)]
pub enum StampMode<'a> {
    /// DC operating point: capacitors open, sources at `t = 0` (or their
    /// DC value), optional forcing of initial-condition nodes.
    Dc {
        /// Extra conductance to ground on every node (g<sub>min</sub>
        /// stepping).
        gmin: f64,
        /// When true, initial conditions are forced through a large
        /// conductance.
        force_ics: bool,
    },
    /// A transient step from the previous accepted state to time `t`.
    Tran {
        /// Time being solved for (end of the step).
        t: f64,
        /// Step size.
        dt: f64,
        /// Baseline conductance to ground on every node.
        gmin: f64,
        /// Integration method.
        method: Integrator,
        /// The lowered capacitances (see [`collect_dyn_caps`]).
        caps: &'a [DynCap],
        /// Capacitor states at the previous accepted step, parallel to
        /// `caps`.
        cap_states: &'a [CapState],
    },
}

/// Index of a node voltage in the unknown vector, or `None` for ground.
fn node_index(n: NodeId) -> Option<usize> {
    if n.is_ground() {
        None
    } else {
        Some(n.index() - 1)
    }
}

/// Computes the branch-unknown index for each voltage source, in device
/// order, offset past the node voltages.
pub fn branch_indices(circuit: &Circuit) -> Vec<Option<usize>> {
    let base = circuit.node_count() - 1;
    let mut next = 0usize;
    circuit
        .devices()
        .iter()
        .map(|d| {
            if matches!(d.kind, DeviceKind::Vsource { .. }) {
                let idx = base + next;
                next += 1;
                Some(idx)
            } else {
                None
            }
        })
        .collect()
}

/// Conductance used to force initial-condition nodes during the OP solve.
const IC_FORCE_G: f64 = 1e6;

/// Assembles the linearized MNA system `J Δ… = rhs` about the iterate `x`.
///
/// On return `a` holds the Jacobian and `rhs` the full Newton right-hand
/// side (for the standard "solve for next iterate directly" formulation:
/// `J x_next = rhs`).
pub fn assemble(
    circuit: &Circuit,
    x: &[f64],
    mode: StampMode<'_>,
    branches: &[Option<usize>],
    a: &mut Triplets,
    rhs: &mut [f64],
) {
    a.clear();
    rhs.fill(0.0);
    let v = |n: NodeId| -> f64 {
        match node_index(n) {
            Some(i) => x[i],
            None => 0.0,
        }
    };
    // Baseline gmin on every node keeps floating internal nodes solvable.
    let gmin = match mode {
        StampMode::Dc { gmin, .. } => gmin,
        StampMode::Tran { gmin, .. } => gmin,
    };
    for i in 0..(circuit.node_count() - 1) {
        a.add(i, i, gmin);
    }
    if let StampMode::Dc {
        force_ics: true, ..
    } = mode
    {
        for &(node, volts) in circuit.initial_conditions() {
            if let Some(i) = node_index(node) {
                a.add(i, i, IC_FORCE_G);
                rhs[i] += IC_FORCE_G * volts;
            }
        }
    }

    let t_now = match mode {
        StampMode::Dc { .. } => 0.0,
        StampMode::Tran { t, .. } => t,
    };

    // Capacitive companions (transient only), over the lowered cap list.
    if let StampMode::Tran {
        dt,
        method,
        caps,
        cap_states,
        ..
    } = mode
    {
        for (k, cap) in caps.iter().enumerate() {
            let state = cap_states[k];
            let (geq, ieq) = match method {
                Integrator::Trapezoidal => {
                    let geq = 2.0 * cap.farads / dt;
                    (geq, -geq * state.v - state.i)
                }
                Integrator::BackwardEuler => {
                    let geq = cap.farads / dt;
                    (geq, -geq * state.v)
                }
            };
            // i = geq * v + ieq flowing a→b inside the capacitor.
            stamp_conductance(a, node_index(cap.a), node_index(cap.b), geq);
            stamp_current(rhs, node_index(cap.a), node_index(cap.b), ieq);
        }
    }

    for (dev_idx, dev) in circuit.devices().iter().enumerate() {
        match &dev.kind {
            DeviceKind::Resistor {
                a: na,
                b: nb,
                conductance,
            } => {
                stamp_conductance(a, node_index(*na), node_index(*nb), *conductance);
            }
            DeviceKind::Capacitor { .. } => {
                // Handled via the lowered cap list above; open at DC.
            }
            DeviceKind::Vsource { pos, neg, wave } => {
                let bi = branches[dev_idx].expect("vsource must have a branch");
                if let Some(p) = node_index(*pos) {
                    a.add(p, bi, 1.0);
                    a.add(bi, p, 1.0);
                }
                if let Some(n) = node_index(*neg) {
                    a.add(n, bi, -1.0);
                    a.add(bi, n, -1.0);
                }
                rhs[bi] += wave.value(t_now);
            }
            DeviceKind::Isource { from, to, wave } => {
                let i = wave.value(t_now);
                // Current leaves `from`, enters `to`.
                stamp_current(rhs, node_index(*from), node_index(*to), i);
            }
            DeviceKind::Mosfet {
                d,
                g,
                s,
                b,
                model,
                w_over_l,
            } => {
                let m = circuit.model(*model);
                let ev = mos_eval(m, *w_over_l, v(*g), v(*d), v(*s), v(*b));
                // Linearized drain current:
                //   id ≈ ev.id + Σ ∂id/∂vt · (vt_next − vt_now)
                // KCL: +id leaves node d, enters node s.
                let ieq =
                    ev.id - ev.d_vg * v(*g) - ev.d_vd * v(*d) - ev.d_vs * v(*s) - ev.d_vb * v(*b);
                for (node, gpart) in [(*g, ev.d_vg), (*d, ev.d_vd), (*s, ev.d_vs), (*b, ev.d_vb)] {
                    if let Some(col) = node_index(node) {
                        if let Some(row) = node_index(*d) {
                            a.add(row, col, gpart);
                        }
                        if let Some(row) = node_index(*s) {
                            a.add(row, col, -gpart);
                        }
                    }
                }
                stamp_current(rhs, node_index(*d), node_index(*s), ieq);
            }
        }
    }
}

fn stamp_conductance(a: &mut Triplets, ia: Option<usize>, ib: Option<usize>, g: f64) {
    if let Some(i) = ia {
        a.add(i, i, g);
        if let Some(j) = ib {
            a.add(i, j, -g);
        }
    }
    if let Some(j) = ib {
        a.add(j, j, g);
        if let Some(i) = ia {
            a.add(j, i, -g);
        }
    }
}

/// Stamps a current `i` flowing out of node `from` into node `to`
/// (through the device) into the right-hand side.
fn stamp_current(rhs: &mut [f64], from: Option<usize>, to: Option<usize>, i: f64) {
    if let Some(f) = from {
        rhs[f] -= i;
    }
    if let Some(t) = to {
        rhs[t] += i;
    }
}

/// Convergence and iteration options for the Newton solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Maximum Newton iterations per solve.
    pub max_iter: usize,
    /// Relative tolerance on unknown updates.
    pub reltol: f64,
    /// Absolute voltage tolerance, volts.
    pub vabstol: f64,
    /// Absolute current tolerance (branch unknowns), amperes.
    pub iabstol: f64,
    /// Per-iteration clamp on voltage updates, volts (Newton damping).
    pub max_dv: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iter: 120,
            reltol: 1e-4,
            vabstol: 1e-7,
            iabstol: 1e-10,
            max_dv: 0.5,
        }
    }
}

/// A reusable Newton solver for one circuit: owns the stamp buffers,
/// the fill-reducing ordering (computed once from the first assembled
/// pattern) and the LU workspace.
///
/// One Newton iteration costs O(nnz) after the first, through two
/// recordings that leave every result bit unchanged:
///
/// * **Stamp plan.** The `(row, col)` sequence [`assemble`] stamps is a
///   function of the circuit and the stamp mode alone (exact zeros stay
///   structural), so an [`AssemblyPlan`] records once where each
///   triplet lands in the RCM-permuted matrix and in what order
///   duplicates are summed. Later iterations check the sequence with an
///   integer compare and gather values straight into the permuted
///   matrix — no sort, no permutation pass, no pattern rebuild.
/// * **LU replay.** The [`LuWorkspace`] replays the pivot sequence and
///   fill structure of its last full elimination, re-checking every
///   pivot choice, and falls back to the full elimination the moment a
///   pivot would differ. [`NewtonSolver::lu_pattern_reuses`] counts the
///   replays, [`NewtonSolver::lu_full_eliminations`] the rest.
#[derive(Debug)]
pub struct NewtonSolver {
    branches: Vec<Option<usize>>,
    n: usize,
    a: Triplets,
    rhs: Vec<f64>,
    /// RCM order (`order[k]` = unknown at position `k`), derived from
    /// the first pattern ever assembled and kept for the solver's life.
    order: Option<Vec<usize>>,
    /// Where the current stamp sequence lands in the permuted matrix.
    plan: Option<AssemblyPlan>,
    /// Newton iterations spent over the solver's whole lifetime,
    /// converged or not — the raw material of the
    /// `newton_iterations` trace counter.
    total_iterations: usize,
    /// Reusable numeric factor-and-solve buffers and the recorded
    /// elimination.
    lu: LuWorkspace,
    rhs_perm: Vec<f64>,
    y: Vec<f64>,
    x_new: Vec<f64>,
}

impl NewtonSolver {
    /// Creates a solver sized for the circuit.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.unknown_count();
        NewtonSolver {
            branches: branch_indices(circuit),
            n,
            a: Triplets::new(n),
            rhs: vec![0.0; n],
            order: None,
            plan: None,
            total_iterations: 0,
            lu: LuWorkspace::new(),
            rhs_perm: Vec::new(),
            y: Vec::new(),
            x_new: Vec::new(),
        }
    }

    /// Number of unknowns.
    pub fn unknowns(&self) -> usize {
        self.n
    }

    /// Newton iterations spent across every [`NewtonSolver::solve`] call
    /// on this solver, including non-converged attempts (that work was
    /// still paid for). Feeds the `newton_iterations` counter of the
    /// [`mtk_trace`] registry.
    pub fn total_iterations(&self) -> usize {
        self.total_iterations
    }

    /// Factorizations that replayed the recorded elimination (pivot
    /// sequence and fill structure) over this solver's lifetime. Feeds
    /// the `lu_pattern_reuses` counter of the [`mtk_trace`] registry.
    pub fn lu_pattern_reuses(&self) -> usize {
        self.lu.replays()
    }

    /// Factorizations that ran the full pivoting elimination: the first
    /// for each stamp pattern, and every one whose pivot choice departed
    /// from the recorded sequence.
    pub fn lu_full_eliminations(&self) -> usize {
        self.lu.full_eliminations()
    }

    /// Runs Newton iteration for the given stamp mode, starting from the
    /// iterate in `x` and leaving the converged solution there.
    ///
    /// Returns the number of iterations used. `context` names the solve
    /// in error messages and is only formatted when one is raised.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::NewtonFailed`] if the iteration does not converge
    ///   (`x` then holds the last iterate).
    /// * [`SpiceError::Singular`] if the Jacobian is singular.
    pub fn solve(
        &mut self,
        circuit: &Circuit,
        x: &mut [f64],
        mode: StampMode<'_>,
        opts: &NewtonOptions,
        context: impl std::fmt::Display,
    ) -> Result<usize> {
        let n = self.n;
        let n_nodes = circuit.node_count() - 1;
        debug_assert_eq!(x.len(), n);
        for iter in 0..opts.max_iter {
            assemble(circuit, x, mode, &self.branches, &mut self.a, &mut self.rhs);
            self.factor_and_solve(circuit, &context)?;
            let x_new = &self.x_new;
            // Convergence check + damping.
            let mut converged = true;
            for i in 0..n {
                let mut dx = x_new[i] - x[i];
                let is_voltage = i < n_nodes;
                let tol = if is_voltage {
                    opts.vabstol + opts.reltol * x_new[i].abs().max(x[i].abs())
                } else {
                    opts.iabstol + opts.reltol * x_new[i].abs().max(x[i].abs())
                };
                if dx.abs() > tol {
                    converged = false;
                }
                // The first step is taken undamped so linear parts of the
                // circuit (sources, dividers) land exactly; later
                // corrections are clamped to keep the MOSFET linearization
                // honest.
                if iter > 0 && is_voltage && dx.abs() > opts.max_dv {
                    dx = dx.signum() * opts.max_dv;
                }
                x[i] += dx;
            }
            if converged {
                self.total_iterations += iter + 1;
                return Ok(iter + 1);
            }
        }
        self.total_iterations += opts.max_iter;
        Err(SpiceError::NewtonFailed {
            context: context.to_string(),
            iterations: opts.max_iter,
        })
    }

    /// Factors and solves the linearization just assembled into
    /// `self.a`/`self.rhs`, writing the solution to `self.x_new`. A
    /// changed stamp sequence (first call, or a different stamp mode)
    /// records a new plan; the ordering is derived once.
    fn factor_and_solve(
        &mut self,
        circuit: &Circuit,
        context: &dyn std::fmt::Display,
    ) -> Result<()> {
        if !self.plan.as_mut().is_some_and(|p| p.assemble(&self.a)) {
            // Stamp modes that add entries (e.g. transient cap
            // companions) keep the first ordering: RCM quality barely
            // changes, and the permutation staying put keeps results
            // reproducible across call sequences.
            let order = self.order.get_or_insert_with(|| {
                reverse_cuthill_mckee(&self.a.to_rows().symmetric_adjacency())
            });
            let mut plan = AssemblyPlan::new(&self.a, order);
            let assembled = plan.assemble(&self.a);
            debug_assert!(assembled, "a fresh plan matches its own triplets");
            self.plan = Some(plan);
        }
        let order = self.order.as_ref().expect("order derived with the plan");
        let perm = self.plan.as_ref().expect("plan assembled above").matrix();
        self.rhs_perm.clear();
        self.rhs_perm.extend(order.iter().map(|&i| self.rhs[i]));
        self.lu
            .factor_solve(perm, &self.rhs_perm, &mut self.y)
            .map_err(|e| match e {
                mtk_num::NumError::SingularMatrix { step } => SpiceError::Singular {
                    unknown: describe_unknown(circuit, order.get(step).copied().unwrap_or(step)),
                },
                other => SpiceError::InvalidParameter(format!("{context}: {other}")),
            })?;
        // Unpermute: unknown `order[k]` sits at position `k`.
        self.x_new.clear();
        self.x_new.resize(self.n, 0.0);
        for (&orig, &v) in order.iter().zip(&self.y) {
            self.x_new[orig] = v;
        }
        Ok(())
    }
}

/// A readable name for unknown `idx`: a node voltage or a branch
/// current.
fn describe_unknown(circuit: &Circuit, idx: usize) -> String {
    let n_nodes = circuit.node_count() - 1;
    if idx < n_nodes {
        format!("v({})", circuit.node_name(NodeId(idx + 1)))
    } else {
        format!("branch current #{}", idx - n_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mos::MosModel;

    #[test]
    fn branch_indices_follow_device_order() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.resistor("r", a, b, 1.0);
        c.vsource("v1", a, Circuit::GND, 1.0);
        c.vsource("v2", b, Circuit::GND, 2.0);
        let bi = branch_indices(&c);
        assert_eq!(bi, vec![None, Some(2), Some(3)]);
    }

    #[test]
    fn linear_divider_solves_in_one_iteration_family() {
        // v1 -- r1 -- mid -- r2 -- gnd, 10 V across 1k + 4k: mid = 8 V.
        let mut c = Circuit::new();
        let top = c.node("top");
        let mid = c.node("mid");
        c.vsource("v1", top, Circuit::GND, 10.0);
        c.resistor("r1", top, mid, 1000.0);
        c.resistor("r2", mid, Circuit::GND, 4000.0);
        let mut s = NewtonSolver::new(&c);
        let mut x = vec![0.0; s.unknowns()];
        let iters = s
            .solve(
                &c,
                &mut x,
                StampMode::Dc {
                    gmin: 1e-12,
                    force_ics: false,
                },
                &NewtonOptions::default(),
                "test",
            )
            .unwrap();
        assert!((x[mid.index() - 1] - 8.0).abs() < 1e-6, "{x:?}");
        assert!((x[top.index() - 1] - 10.0).abs() < 1e-9);
        // Branch current = 10 V / 5 kΩ = 2 mA flowing out of the source's
        // positive terminal into the divider (sign: into pos node).
        assert!((x[2] + 0.002).abs() < 1e-9, "{x:?}");
        // Linear circuit: must converge immediately after the damping pass.
        assert!(iters <= 3, "{iters}");
    }

    #[test]
    fn floating_node_survives_via_gmin() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let float = c.node("float");
        c.vsource("v1", a, Circuit::GND, 1.0);
        c.resistor("r1", a, Circuit::GND, 100.0);
        // `float` has no DC path: only gmin holds it at 0.
        c.capacitor("c1", float, Circuit::GND, 1e-12);
        let mut s = NewtonSolver::new(&c);
        let mut x = vec![0.0; s.unknowns()];
        s.solve(
            &c,
            &mut x,
            StampMode::Dc {
                gmin: 1e-12,
                force_ics: false,
            },
            &NewtonOptions::default(),
            "test",
        )
        .unwrap();
        assert!(x[float.index() - 1].abs() < 1e-9);
    }

    #[test]
    fn nonlinear_inverter_op_converges() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let out = c.node("out");
        let inp = c.node("in");
        let nm = c.add_model(MosModel::nmos(0.35, 100e-6));
        let pm = c.add_model(MosModel::pmos(0.35, 40e-6));
        c.vsource("vdd", vdd, Circuit::GND, 1.2);
        c.vsource("vin", inp, Circuit::GND, 0.0);
        c.mosfet("mp", out, inp, vdd, vdd, pm, 8.0);
        c.mosfet("mn", out, inp, Circuit::GND, Circuit::GND, nm, 4.0);
        let mut s = NewtonSolver::new(&c);
        let mut x = vec![0.0; s.unknowns()];
        s.solve(
            &c,
            &mut x,
            StampMode::Dc {
                gmin: 1e-9,
                force_ics: false,
            },
            &NewtonOptions::default(),
            "test",
        )
        .unwrap();
        // Input low → output pulled to vdd by the PMOS.
        assert!((x[out.index() - 1] - 1.2).abs() < 1e-3, "{x:?}");
    }

    #[test]
    fn ic_forcing_pins_node() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("r", a, Circuit::GND, 1e9);
        c.set_ic(a, 0.7);
        let mut s = NewtonSolver::new(&c);
        let mut x = vec![0.0; s.unknowns()];
        s.solve(
            &c,
            &mut x,
            StampMode::Dc {
                gmin: 1e-12,
                force_ics: true,
            },
            &NewtonOptions::default(),
            "test",
        )
        .unwrap();
        assert!((x[0] - 0.7).abs() < 1e-3);
    }
}
