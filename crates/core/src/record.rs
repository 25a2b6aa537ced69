//! The one codec for persistent store records.
//!
//! The sizing, Monte Carlo and cluster paths (and `mtk serve`) share one
//! [`mtk_store`] log, told apart by a tag at the start of every key.
//! This module owns how those records are laid out:
//!
//! * primitive encodings — [`Writer`] / [`Reader`]: integers
//!   little-endian, lengths as `u32`, `f64` as its bit pattern, flags
//!   as one byte `0`/`1`, logic levels as one byte `0`/`1`/`2`;
//! * the [`RunHealth`] block that ends every value ([`Writer::health`]);
//! * the tag registry ([`RECORD_TAGS`]);
//! * the `leg1`, `mct1` and `clu1` key and value layouts (DESIGN.md §13.1).
//!
//! Decoding is strict: a flag byte other than 0/1, a short read or
//! trailing bytes decode to `None`, and callers treat `None` as a miss —
//! a malformed record is never served. A tag is bumped whenever its
//! layout changes, so stale records read as misses, never as wrong
//! answers.

use crate::health::RunHealth;
use crate::mc::{McOptions, TrialSample};
use crate::sizing::{LegResult, Transition};
use crate::vbsim::{Engine, SleepNetwork, VbsimOptions};
use mtk_netlist::logic::Logic;
use mtk_netlist::netlist::{NetId, Netlist};
use mtk_netlist::tech::Technology;

/// Tag of screening-leg records ([`crate::sizing::ScreeningCache`]).
pub const LEG_RECORD_TAG: &[u8; 4] = b"leg1";
/// Tag of per-trial Monte Carlo records ([`crate::mc`]).
pub const MC_RECORD_TAG: &[u8; 4] = b"mct1";
/// Tag of cluster-evaluation records ([`crate::cluster`]).
pub const CLUSTER_RECORD_TAG: &[u8; 4] = b"clu1";
/// Tag of request-level records of `mtk serve`, whose key and payload
/// are JSON rather than this module's binary layouts.
pub const REQUEST_RECORD_TAG: &[u8; 5] = b"req2:";
/// Every record tag sharing a store log; pairwise prefix-free, so no
/// key of one namespace can be read as a key of another.
pub const RECORD_TAGS: [&[u8]; 4] = [
    LEG_RECORD_TAG,
    MC_RECORD_TAG,
    CLUSTER_RECORD_TAG,
    REQUEST_RECORD_TAG,
];

/// Appends record fields to a byte buffer. Every method returns the
/// writer, so fields chain in wire order.
#[derive(Debug, Clone, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A writer whose output starts with `prefix` (a record tag, or a
    /// shared key prefix the record extends).
    pub fn new(prefix: &[u8]) -> Self {
        Writer {
            buf: prefix.to_vec(),
        }
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// A length prefix, `u32` LE.
    pub fn length(&mut self, n: usize) -> &mut Self {
        self.buf.extend_from_slice(&(n as u32).to_le_bytes());
        self
    }

    /// A `u64` LE.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// An `f64` as its bit pattern, `u64` LE.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// A flag, one byte `0` or `1`.
    pub fn flag(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    /// Logic levels, one byte each (`0`, `1`, `2` for X), no length.
    pub fn levels(&mut self, levels: &[Logic]) -> &mut Self {
        self.buf.extend(levels.iter().map(|&l| level_byte(l)));
        self
    }

    /// The six [`RunHealth`] counters as `u64` LE, in declaration order.
    pub fn health(&mut self, h: &RunHealth) -> &mut Self {
        self.u64(h.breakpoints as u64)
            .u64(h.max_events as u64)
            .u64(h.glitch_reversals as u64)
            .u64(h.vx_fallbacks as u64)
            .u64(h.cache_hits as u64)
            .u64(h.cache_misses as u64)
    }

    /// FNV-1a ([`mtk_store::fnv1a`]) of the bytes written so far — how
    /// keys fold in inputs too large to embed.
    pub fn digest(&self) -> u64 {
        mtk_store::fnv1a(&self.buf)
    }

    /// Takes the bytes written, leaving the writer empty.
    pub fn finish(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }
}

fn level_byte(l: Logic) -> u8 {
    match l {
        Logic::Zero => 0,
        Logic::One => 1,
        Logic::X => 2,
    }
}

/// Reads the fields a [`Writer`] wrote, in the same order. Every method
/// returns `None` on a short read or an out-of-range byte.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over one encoded record.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, tail) = self.rest.split_first_chunk::<N>()?;
        self.rest = tail;
        Some(*head)
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|[b]| b)
    }

    /// A `u32` LE length prefix.
    pub fn length(&mut self) -> Option<usize> {
        self.take().map(|b| u32::from_le_bytes(b) as usize)
    }

    /// A `u64` LE.
    pub fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    /// An `f64` from its bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A flag; any byte other than `0`/`1` is `None`.
    pub fn flag(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// One logic level; any byte other than `0`/`1`/`2` is `None`.
    pub fn level(&mut self) -> Option<Logic> {
        match self.u8()? {
            0 => Some(Logic::Zero),
            1 => Some(Logic::One),
            2 => Some(Logic::X),
            _ => None,
        }
    }

    /// The six [`RunHealth`] counters [`Writer::health`] wrote.
    pub fn health(&mut self) -> Option<RunHealth> {
        Some(RunHealth {
            breakpoints: self.u64()? as usize,
            max_events: self.u64()? as usize,
            glitch_reversals: self.u64()? as usize,
            vx_fallbacks: self.u64()? as usize,
            cache_hits: self.u64()? as usize,
            cache_misses: self.u64()? as usize,
        })
    }

    /// Ends the record: `None` if any bytes are left unread.
    pub fn finish(self) -> Option<()> {
        self.rest.is_empty().then_some(())
    }
}

/// The simulator options every key records: the two model flags, the
/// stop time and the breakpoint budget.
fn sim_options(w: &mut Writer, base: &VbsimOptions) {
    w.flag(base.body_effect)
        .flag(base.reverse_conduction)
        .f64(base.t_stop)
        .u64(base.max_events as u64);
}

/// `leg1` key: everything that determines one simulator leg — netlist
/// and technology fingerprints, probes, transition, sleep network and
/// simulator options. Equal keys mean bit-identical legs.
pub(crate) fn leg_key(
    engine: &Engine<'_>,
    outputs: &[NetId],
    tr: &Transition,
    sleep: SleepNetwork,
    base: &VbsimOptions,
) -> Vec<u8> {
    let mut w = Writer::new(LEG_RECORD_TAG);
    w.u64(engine.fingerprint())
        .u64(engine.tech().fingerprint())
        .length(outputs.len());
    for n in outputs {
        w.u64(n.index() as u64);
    }
    w.length(tr.from.len())
        .levels(&tr.from)
        .length(tr.to.len())
        .levels(&tr.to);
    match sleep {
        SleepNetwork::Cmos => w.u8(0).u64(0),
        SleepNetwork::Resistance(r) => w.u8(1).f64(r),
        SleepNetwork::Transistor { w_over_l } => w.u8(2).f64(w_over_l),
    };
    sim_options(&mut w, base);
    w.finish()
}

/// `leg1` value: crossings (presence flag + time, `0` when absent),
/// the stalled and truncated flags, then the leg's [`RunHealth`].
pub(crate) fn encode_leg(leg: &LegResult) -> Vec<u8> {
    let mut w = Writer::default();
    w.length(leg.crossings.len());
    for c in &leg.crossings {
        match *c {
            Some(t) => w.flag(true).f64(t),
            None => w.flag(false).u64(0),
        };
    }
    w.flag(leg.stalled)
        .flag(leg.truncated)
        .health(&leg.health)
        .finish()
}

/// Inverse of [`encode_leg`].
pub(crate) fn decode_leg(bytes: &[u8]) -> Option<LegResult> {
    let mut r = Reader::new(bytes);
    let n = r.length()?;
    let crossings = (0..n)
        .map(|_| {
            let present = r.flag()?;
            let t = r.f64()?;
            Some(present.then_some(t))
        })
        .collect::<Option<_>>()?;
    let leg = LegResult {
        crossings,
        stalled: r.flag()?,
        truncated: r.flag()?,
        health: r.health()?,
    };
    r.finish()?;
    Some(leg)
}

/// `mct1` key prefix shared by every trial of one sweep: fingerprints,
/// the transition count and digest, the probe digest (`u64::MAX` for
/// the primary outputs), seed, sizes, target and simulator options.
/// [`trial_key`] appends the trial index.
pub(crate) fn trial_key_prefix(
    netlist: &Netlist,
    tech: &Technology,
    transitions: &[Transition],
    probes: Option<&[NetId]>,
    opts: &McOptions,
) -> Vec<u8> {
    let mut trs = Writer::default();
    for tr in transitions {
        trs.levels(&tr.from).levels(&tr.to).u8(0xFF);
    }
    let probes_digest = probes.map_or(u64::MAX, |p| {
        let mut w = Writer::default();
        for n in p {
            w.u64(n.index() as u64);
        }
        w.digest()
    });
    let mut w = Writer::new(MC_RECORD_TAG);
    w.u64(netlist.fingerprint())
        .u64(tech.fingerprint())
        .u64(transitions.len() as u64)
        .u64(trs.digest())
        .u64(probes_digest)
        .u64(opts.seed)
        .f64(opts.w_over_l)
        .f64(opts.target)
        .length(opts.widths.len());
    for &width in &opts.widths {
        w.f64(width);
    }
    sim_options(&mut w, &opts.base);
    w.finish()
}

/// `mct1` key of one trial.
pub(crate) fn trial_key(prefix: &[u8], index: usize) -> Vec<u8> {
    Writer::new(prefix).u64(index as u64).finish()
}

/// `mct1` value: degradation, bounce, per-width pass flags, the retried
/// flag, then the trial's [`RunHealth`].
pub(crate) fn encode_trial(sample: &TrialSample, retried: bool, run: &RunHealth) -> Vec<u8> {
    let mut w = Writer::default();
    w.f64(sample.degradation)
        .f64(sample.bounce)
        .length(sample.pass_at_width.len());
    for &pass in &sample.pass_at_width {
        w.flag(pass);
    }
    w.flag(retried).health(run).finish()
}

/// Inverse of [`encode_trial`], with `from_store` set.
pub(crate) fn decode_trial(bytes: &[u8]) -> Option<(TrialSample, bool, RunHealth)> {
    let mut r = Reader::new(bytes);
    let degradation = r.f64()?;
    let bounce = r.f64()?;
    let n = r.length()?;
    let pass_at_width = (0..n).map(|_| r.flag()).collect::<Option<_>>()?;
    let retried = r.flag()?;
    let run = r.health()?;
    r.finish()?;
    let sample = TrialSample {
        degradation,
        bounce,
        pass_at_width,
        from_store: true,
    };
    Some((sample, retried, run))
}

/// `clu1` key prefix shared by every evaluation of one co-optimise call:
/// fingerprints, then one digest ([`clu1_digest`]) over probes,
/// transitions, cluster assignment and simulator options. [`eval_key`]
/// appends the sizes.
pub(crate) fn eval_key_prefix(
    engine: &Engine<'_>,
    outputs: &[NetId],
    transitions: &[Transition],
    assignment: &[usize],
    base: &VbsimOptions,
) -> Vec<u8> {
    let mut d = Writer::default();
    d.u64(outputs.len() as u64);
    for n in outputs {
        d.u64(n.index() as u64);
    }
    d.u64(transitions.len() as u64);
    for tr in transitions {
        d.u64(tr.from.len() as u64).levels(&tr.from).levels(&tr.to);
    }
    d.u64(assignment.len() as u64);
    for &g in assignment {
        d.u64(g as u64);
    }
    sim_options(&mut d, base);
    Writer::new(CLUSTER_RECORD_TAG)
        .u64(engine.fingerprint())
        .u64(engine.tech().fingerprint())
        .u64(clu1_digest(&d.finish()))
        .finish()
}

/// The `clu1` key digest: FNV-1a's offset basis and byte loop, but with
/// the multiplier `0x1000_0000_01b3` where FNV's prime is
/// `0x100_0000_01b3`. Every `clu1` key on disk was written with it, so
/// it stays until the tag is bumped; new layouts use [`Writer::digest`].
fn clu1_digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// `clu1` key of one per-cluster sizes vector.
pub(crate) fn eval_key(prefix: &[u8], sizes: &[f64]) -> Vec<u8> {
    let mut w = Writer::new(prefix);
    for &s in sizes {
        w.f64(s);
    }
    w.finish()
}

/// `clu1` value: the worst degradation, then the evaluation's
/// [`RunHealth`].
pub(crate) fn encode_eval(worst: f64, health: &RunHealth) -> Vec<u8> {
    Writer::default().f64(worst).health(health).finish()
}

/// Inverse of [`encode_eval`].
pub(crate) fn decode_eval(bytes: &[u8]) -> Option<(f64, RunHealth)> {
    let mut r = Reader::new(bytes);
    let eval = (r.f64()?, r.health()?);
    r.finish()?;
    Some(eval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtk_circuits::tree::InverterTree;

    // Wire bytes captured from the per-module codecs this module
    // replaced, for the fixed inputs below. Stores written before the
    // move must keep replaying warm, so these never change without a
    // tag bump.
    const LEG_KEY_TRANSISTOR: &str = "6c656731b2d8cbab3c883fed4cae2d084b394af809000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000d0000000000000001000000020100000001020000000000001e4001008dedb5a0f7c6b03e0010000000000000";
    const LEG_KEY_RESISTANCE: &str = "6c656731b2d8cbab3c883fed4cae2d084b394af809000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000d0000000000000001000000000100000001010000000000406f4001008dedb5a0f7c6b03e0010000000000000";
    const LEG_KEY_CMOS: &str = "6c656731b2d8cbab3c883fed4cae2d084b394af809000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000d000000000000000100000002010000000100000000000000000001008dedb5a0f7c6b03e0010000000000000";
    const LEG_VALUE: &str = "030000000195d626e80b2ee13d00000000000000000001000000000000f07f0100070000000000000000100000000000000200000000000000010000000000000005000000000000000300000000000000";
    const MC_KEY: &str = "6d637431b2d8cbab3c883fed4cae2d084b394af80200000000000000b53a8f76562aa29f20a4c631cf8259d12a0000000000000000000000000024409a9999999999a93f020000000000000000000040000000000000244001008dedb5a0f7c6b03e00100000000000000300000000000000";
    const MC_KEY_ALL_OUTPUTS: &str = "6d637431b2d8cbab3c883fed4cae2d084b394af80200000000000000b53a8f76562aa29fffffffffffffffff2a0000000000000000000000000024409a9999999999a93f020000000000000000000040000000000000244001008dedb5a0f7c6b03e00100000000000000300000000000000";
    const MC_VALUE: &str = "000000000000f07f5b423ee8d9acaa3f02000000000101070000000000000000100000000000000200000000000000010000000000000005000000000000000300000000000000";
    const CLU_KEY: &str =
        "636c7531b2d8cbab3c883fed4cae2d084b394af84778b923da9c05e800000000000029400000000000000840";
    const CLU_VALUE: &str = "333333333333a33f070000000000000000100000000000000200000000000000010000000000000005000000000000000300000000000000";

    /// Byte offsets of every flag in the pinned values.
    const LEG_VALUE_FLAGS: &[usize] = &[4, 13, 22, 31, 32];
    const MC_VALUE_FLAGS: &[usize] = &[20, 21, 22];

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn health() -> RunHealth {
        RunHealth {
            breakpoints: 7,
            max_events: 4096,
            glitch_reversals: 2,
            vx_fallbacks: 1,
            cache_hits: 5,
            cache_misses: 3,
        }
    }

    fn base() -> VbsimOptions {
        VbsimOptions {
            body_effect: true,
            reverse_conduction: false,
            max_events: 4096,
            ..VbsimOptions::cmos()
        }
    }

    fn transitions() -> Vec<Transition> {
        vec![
            Transition::new(vec![Logic::Zero], vec![Logic::One]),
            Transition::new(vec![Logic::One], vec![Logic::X]),
        ]
    }

    fn leg_value() -> LegResult {
        LegResult {
            crossings: vec![Some(1.25e-10), None, Some(f64::INFINITY)],
            stalled: true,
            truncated: false,
            health: health(),
        }
    }

    fn trial_value() -> TrialSample {
        TrialSample {
            degradation: f64::INFINITY,
            bounce: 0.0521,
            pass_at_width: vec![false, true],
            from_store: false,
        }
    }

    /// Truncation at every offset, each flag byte set to 2 and one
    /// trailing byte all decode to `None`.
    fn assert_rejects_malformed<T>(
        bytes: &[u8],
        flags: &[usize],
        decode: impl Fn(&[u8]) -> Option<T>,
    ) {
        assert!(decode(bytes).is_some());
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_none(), "truncated at {cut}");
        }
        for &at in flags {
            assert!(bytes[at] <= 1, "offset {at} is not a flag");
            let mut bad = bytes.to_vec();
            bad[at] = 2;
            assert!(decode(&bad).is_none(), "flag byte {at} set to 2");
        }
        let mut long = bytes.to_vec();
        long.push(0);
        assert!(decode(&long).is_none(), "trailing byte");
    }

    #[test]
    fn leg_records_match_their_pinned_wire_bytes() {
        let tree = InverterTree::paper();
        let tech = Technology::l07();
        let engine = Engine::new(&tree.netlist, &tech);
        let outputs = tree.netlist.primary_outputs().to_vec();
        let x_to_one = Transition::new(vec![Logic::X], vec![Logic::One]);
        let zero_to_one = &transitions()[0];
        let key = |tr, sleep| hex(&leg_key(&engine, &outputs, tr, sleep, &base()));
        let transistor = SleepNetwork::Transistor { w_over_l: 7.5 };
        assert_eq!(key(&x_to_one, transistor), LEG_KEY_TRANSISTOR);
        let resistance = SleepNetwork::Resistance(250.0);
        assert_eq!(key(zero_to_one, resistance), LEG_KEY_RESISTANCE);
        assert_eq!(key(&x_to_one, SleepNetwork::Cmos), LEG_KEY_CMOS);

        assert_eq!(hex(&encode_leg(&leg_value())), LEG_VALUE);
        assert_eq!(decode_leg(&unhex(LEG_VALUE)), Some(leg_value()));
    }

    #[test]
    fn trial_records_match_their_pinned_wire_bytes() {
        let tree = InverterTree::paper();
        let tech = Technology::l07();
        let outputs = tree.netlist.primary_outputs().to_vec();
        let opts = McOptions {
            seed: 42,
            w_over_l: 10.0,
            target: 0.05,
            widths: vec![2.0, 10.0],
            base: base(),
            ..McOptions::default()
        };
        let key = |probes| {
            let prefix = trial_key_prefix(&tree.netlist, &tech, &transitions(), probes, &opts);
            hex(&trial_key(&prefix, 3))
        };
        assert_eq!(key(Some(&outputs)), MC_KEY);
        assert_eq!(key(None), MC_KEY_ALL_OUTPUTS);

        assert_eq!(
            hex(&encode_trial(&trial_value(), true, &health())),
            MC_VALUE
        );
        let (sample, retried, run) = decode_trial(&unhex(MC_VALUE)).unwrap();
        assert_eq!(sample.degradation, f64::INFINITY);
        assert_eq!(sample.bounce, 0.0521);
        assert_eq!(sample.pass_at_width, vec![false, true]);
        assert!(sample.from_store, "replayed samples must say so");
        assert!(retried);
        assert_eq!(run, health());
    }

    #[test]
    fn eval_records_match_their_pinned_wire_bytes() {
        let tree = InverterTree::paper();
        let tech = Technology::l07();
        let engine = Engine::new(&tree.netlist, &tech);
        let outputs = tree.netlist.primary_outputs().to_vec();
        let assignment: Vec<usize> = (0..tree.netlist.cells().len()).map(|i| i % 2).collect();
        let prefix = eval_key_prefix(&engine, &outputs, &transitions(), &assignment, &base());
        assert_eq!(hex(&eval_key(&prefix, &[12.5, 3.0])), CLU_KEY);

        assert_eq!(hex(&encode_eval(0.0375, &health())), CLU_VALUE);
        assert_eq!(decode_eval(&unhex(CLU_VALUE)), Some((0.0375, health())));
    }

    #[test]
    fn malformed_values_decode_to_none() {
        assert_rejects_malformed(&unhex(LEG_VALUE), LEG_VALUE_FLAGS, decode_leg);
        assert_rejects_malformed(&unhex(MC_VALUE), MC_VALUE_FLAGS, decode_trial);
        assert_rejects_malformed(&unhex(CLU_VALUE), &[], decode_eval);
        // A huge length prefix over a short body is a short read, not
        // an allocation of that size.
        for decode in [
            |b: &[u8]| decode_leg(b).is_some(),
            |b: &[u8]| decode_trial(&[&[0; 16][..], b].concat()).is_some(),
        ] {
            assert!(!decode(&u32::MAX.to_le_bytes()));
        }
    }

    #[test]
    fn reader_reads_back_what_the_writer_wrote() {
        let levels = [Logic::Zero, Logic::One, Logic::X];
        let bytes = Writer::new(b"tag")
            .u8(9)
            .length(3)
            .u64(u64::MAX)
            .f64(-0.5)
            .flag(true)
            .levels(&levels)
            .health(&health())
            .finish();
        let mut r = Reader::new(&bytes[3..]);
        assert_eq!(r.u8(), Some(9));
        assert_eq!(r.length(), Some(3));
        assert_eq!(r.u64(), Some(u64::MAX));
        assert_eq!(r.f64(), Some(-0.5));
        assert_eq!(r.flag(), Some(true));
        assert_eq!([r.level(), r.level(), r.level()], levels.map(Some));
        assert_eq!(r.health(), Some(health()));
        assert_eq!(r.finish(), Some(()));
        assert_eq!(Reader::new(&[3]).level(), None);
        assert_eq!(Reader::new(&[0]).u64(), None);
        assert_eq!(Reader::new(&[0]).finish(), None);
    }

    #[test]
    fn record_tags_are_pairwise_prefix_free() {
        for (i, a) in RECORD_TAGS.iter().enumerate() {
            for (j, b) in RECORD_TAGS.iter().enumerate() {
                if i != j {
                    assert!(!b.starts_with(a), "{:?} prefixes {:?}", a, b);
                }
            }
        }
    }
}
