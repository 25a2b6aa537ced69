//! Workload inputs: the committed golden designs and seeded transitions.
//!
//! The benchmark generates every transition from `--seed` through
//! `mtk_num::prng` streams; the library only ever receives the generated
//! inputs.

use crate::spans::Tracer;
use mtk_core::sizing::Transition;
use mtk_fe::Design;
use mtk_netlist::logic::Logic;
use mtk_num::prng::Xoshiro256pp;
use std::path::Path;

/// A golden design: its `.mtk` text as committed and the parsed design.
pub struct Golden {
    /// File stem, e.g. `adder3`.
    pub stem: &'static str,
    /// The file's text, byte for byte.
    pub text: String,
    /// The parsed design.
    pub design: Design,
}

/// Reads and parses `<examples>/<stem>.mtk`, timing the parse as an
/// `fe.parse` span.
///
/// # Errors
///
/// A message naming the file when it cannot be read or parsed.
pub fn load(examples: &Path, stem: &'static str, tracer: &mut Tracer) -> Result<Golden, String> {
    let path = examples.join(format!("{stem}.mtk"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let design = tracer
        .time("fe.parse", || mtk_fe::parse_str(&text, stem))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Golden { stem, text, design })
}

/// `count` random transitions over `width` inputs; transition `i` comes
/// from PRNG stream `(seed ^ salt, i)`, so each design gets its own
/// sequence and the set does not depend on how it is consumed.
pub fn seeded_transitions(width: usize, count: usize, seed: u64, salt: u64) -> Vec<Transition> {
    let bit = |rng: &mut Xoshiro256pp| {
        if rng.next_u64() & 1 == 1 {
            Logic::One
        } else {
            Logic::Zero
        }
    };
    (0..count as u64)
        .map(|i| {
            let mut rng = Xoshiro256pp::stream(seed ^ salt, i);
            let from = (0..width).map(|_| bit(&mut rng)).collect();
            let to = (0..width).map(|_| bit(&mut rng)).collect();
            Transition::new(from, to)
        })
        .collect()
}

/// Every transition of a design with at most 6 primary inputs, in the
/// order `mtk` enumerates them, keeping every `stride`-th one.
pub fn exhaustive_transitions(design: &Design, stride: usize) -> Vec<Transition> {
    let n = design.netlist.primary_inputs().len() as u32;
    assert!(n <= 6, "exhaustive transitions need at most 6 inputs");
    mtk_circuits::vectors::exhaustive_transitions(n)
        .into_iter()
        .step_by(stride.max(1))
        .map(|p| mtk_bench::transition_of(p, n))
        .collect()
}

/// Primary-input count of a design.
pub fn width(design: &Design) -> usize {
    design.netlist.primary_inputs().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_transitions_repeat_per_seed_and_differ_across_seeds() {
        let a = seeded_transitions(9, 16, 1, 7);
        assert_eq!(a, seeded_transitions(9, 16, 1, 7));
        assert_ne!(a, seeded_transitions(9, 16, 2, 7));
        assert_ne!(a, seeded_transitions(9, 16, 1, 8));
        assert!(a.iter().all(|t| t.from.len() == 9 && t.to.len() == 9));
    }
}
