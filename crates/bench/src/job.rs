//! The one job runner behind both front doors.
//!
//! `mtk screen|size|cluster|hybrid` and the `mtk serve` requests of the
//! same names are the same four jobs. Each front door builds a
//! [`JobSpec`] over the one defaults table [`PARAMS`] — from flags or
//! from a request — and hands it to [`run`], which makes the one call
//! into `mtk_core`. The CLI prints tables from the typed [`Outcome`];
//! the server renders it as JSON. Both report the same trace, so the
//! CLI's `--trace-deterministic` JSON equals the `trace` of the serve
//! response for the same job.

use crate::cli::{bool_flag, f64_flag, flag, str_flag};
use crate::design_transitions;
use mtk_core::cluster::{
    exclusive_partition, size_clusters_for_target, ClusterReport, ClusterSizing,
};
use mtk_core::health::{FailurePolicy, FaultPlan};
use mtk_core::hybrid::{run_hybrid, HybridOptions, HybridReport, SpiceRunConfig};
use mtk_core::record::REQUEST_RECORD_TAG;
use mtk_core::sizing::{
    screen_vectors_par_quarantined, size_for_target_cached, ScreenedVector, ScreeningCache,
    Transition,
};
use mtk_core::vbsim::{Engine, VbsimOptions};
use mtk_core::CoreError;
use mtk_fe::Design;
use mtk_store::{Store, StoreError};
use mtk_trace::json::JsonValue;
use mtk_trace::{PhaseTrace, TraceReport};
use std::path::Path;
use std::time::Instant;

/// The four flow jobs both front doors run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Rank the vector space by degradation at one sleep size.
    Screen,
    /// Bisect one sleep device's W/L to a degradation target.
    Size,
    /// Size one device per mutually-exclusive cluster.
    Cluster,
    /// Screen, then SPICE-verify the top-k survivors.
    Hybrid,
}

impl JobKind {
    /// The command name on both front doors.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Screen => "screen",
            JobKind::Size => "size",
            JobKind::Cluster => "cluster",
            JobKind::Hybrid => "hybrid",
        }
    }

    /// The job a command name denotes, if any.
    pub fn parse(cmd: &str) -> Option<JobKind> {
        use JobKind::*;
        [Screen, Size, Cluster, Hybrid]
            .into_iter()
            .find(|k| k.name() == cmd)
    }
}

/// One numeric job option as both front doors spell it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Param {
    /// Request field.
    pub field: &'static str,
    /// Command-line flag.
    pub flag: &'static str,
    /// Value when the field or flag is absent.
    pub default: f64,
    /// A whole non-negative number.
    pub integer: bool,
    /// Part of the serve store key. Only `threads` is not: results are
    /// thread-count invariant.
    pub keyed: bool,
}

const fn count(field: &'static str, flag: &'static str, default: usize) -> Param {
    Param {
        field,
        flag,
        default: default as f64,
        integer: true,
        keyed: true,
    }
}

const fn real(field: &'static str, flag: &'static str, default: f64) -> Param {
    Param {
        default,
        integer: false,
        ..count(field, flag, 0)
    }
}

/// Every job option and its default, in wire order: request fields,
/// the `mtk client` line, the store key and DESIGN.md §13.2 follow it.
pub const PARAMS: [Param; 10] = [
    Param {
        keyed: false,
        ..count("threads", "--threads", 1)
    },
    real("w_over_l", "--w-over-l", 10.0),
    count("top_k", "--top-k", 10),
    real("target", "--target", 0.05),
    real("lo", "--lo", 1.0),
    real("hi", "--hi", 2000.0),
    count("stride", "--stride", 1),
    count("samples", "--samples", 256),
    count("top", "--top", 10),
    count("clusters", "--clusters", 8),
];

/// The [`PARAMS`] row of `field`; panics on a name that is not there
/// (a programming error).
pub fn param(field: &str) -> &'static Param {
    PARAMS
        .iter()
        .find(|p| p.field == field)
        .expect("a job option")
}

impl Param {
    /// The flag's value, or `default` when it is absent; a bad value
    /// exits 2 as in [`flag`].
    pub fn arg_or(&self, default: f64) -> f64 {
        if self.integer {
            flag(self.flag, default as usize) as f64
        } else {
            f64_flag(self.flag, default)
        }
    }

    /// The flag's value, or the table default.
    pub fn arg(&self) -> f64 {
        self.arg_or(self.default)
    }

    /// The request field's value, or `default` when it is absent.
    fn field_or(&self, req: &JsonValue, default: f64) -> Result<f64, String> {
        let (key, value) = (self.field, req.get(self.field));
        match value {
            None => Ok(default),
            Some(v) if self.integer => v
                .as_u64()
                .map(|n| n as usize as f64)
                .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
            Some(v) => v
                .as_f64()
                .filter(|x| x.is_finite())
                .ok_or_else(|| format!("field `{key}` must be a finite number")),
        }
    }
}

/// One job: what to run, on which design, with every [`PARAMS`] option.
#[derive(Debug)]
pub struct JobSpec {
    /// Which job.
    pub kind: JobKind,
    /// The design it runs on.
    pub design: Design,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Sleep W/L of `screen` and `hybrid`.
    pub w_over_l: f64,
    /// Survivors `hybrid` SPICE-verifies.
    pub top_k: usize,
    /// Degradation target of `size` and `cluster`.
    pub target: f64,
    /// Lower end of the sizing bracket.
    pub lo: f64,
    /// Upper end of the sizing bracket.
    pub hi: f64,
    /// Subsampling stride of an exhaustive transition space.
    pub stride: usize,
    /// Seeded random samples when the space is too large.
    pub samples: usize,
    /// Ranked vectors `screen` reports.
    pub top: usize,
    /// Cluster cap of `cluster` (at least 1).
    pub clusters: usize,
}

impl JobSpec {
    fn from_values(kind: JobKind, design: Design, v: [f64; PARAMS.len()]) -> JobSpec {
        let [threads, w_over_l, top_k, target, lo, hi, stride, samples, top, clusters] = v;
        JobSpec {
            kind,
            design,
            threads: threads as usize,
            w_over_l,
            top_k: top_k as usize,
            target,
            lo,
            hi,
            stride: stride as usize,
            samples: samples as usize,
            top: top as usize,
            clusters: (clusters as usize).max(1),
        }
    }

    fn values(&self) -> [f64; PARAMS.len()] {
        [
            self.threads as f64,
            self.w_over_l,
            self.top_k as f64,
            self.target,
            self.lo,
            self.hi,
            self.stride as f64,
            self.samples as f64,
            self.top as f64,
            self.clusters as f64,
        ]
    }

    /// The job a serve request asks for; an absent `threads` takes the
    /// server's own default.
    ///
    /// # Errors
    ///
    /// A message naming the missing design, its parse error, or the
    /// first field of the wrong type.
    pub fn from_request(
        kind: JobKind,
        req: &JsonValue,
        default_threads: usize,
    ) -> Result<JobSpec, String> {
        let text = req.get("design").and_then(JsonValue::as_str);
        let text = text.ok_or("missing `design` (the .mtk netlist text)")?;
        let design = mtk_fe::parse_str(text, "<request>").map_err(|e| e.to_string())?;
        let mut v = [0.0; PARAMS.len()];
        for (slot, p) in v.iter_mut().zip(&PARAMS) {
            let default = match p.field {
                "threads" => default_threads as f64,
                _ => p.default,
            };
            *slot = p.field_or(req, default)?;
        }
        Ok(JobSpec::from_values(kind, design, v))
    }

    /// The job a command line asks for. `size --clusters N` is the
    /// cluster job, and `--smoke` thins a cluster job's vector set
    /// (stride 64, 8 samples) so CI stays fast; explicit flags win.
    pub fn from_args(kind: JobKind, design: Design) -> JobSpec {
        let kind = match kind {
            JobKind::Size if str_flag("--clusters").is_some() => JobKind::Cluster,
            k => k,
        };
        let smoke = kind == JobKind::Cluster && bool_flag("--smoke");
        let v = PARAMS.map(|p| match p.field {
            "stride" if smoke => p.arg_or(64.0),
            "samples" if smoke => p.arg_or(8.0),
            _ => p.arg(),
        });
        JobSpec::from_values(kind, design, v)
    }

    /// `cmd`, the canonical design, then the options in table order
    /// (`keyed_only` leaves out `threads`).
    fn to_request(&self, keyed_only: bool) -> JsonValue {
        let mut members = vec![
            ("cmd".into(), JsonValue::String(self.kind.name().into())),
            ("design".into(), JsonValue::String(self.design.to_mtk())),
        ];
        for (p, v) in PARAMS.iter().zip(self.values()) {
            if p.keyed || !keyed_only {
                members.push((p.field.into(), JsonValue::Number(v)));
            }
        }
        JsonValue::Object(members)
    }

    /// The line `mtk client` sends for this job.
    pub fn request_line(&self) -> String {
        self.to_request(false).to_compact()
    }

    /// The serve store key: the `req2:` tag plus the request without
    /// `threads`, so a job dedups to one record at any parallelism.
    pub fn store_key(&self) -> Vec<u8> {
        let mut key = REQUEST_RECORD_TAG.to_vec();
        key.extend_from_slice(self.to_request(true).to_compact().as_bytes());
        key
    }
}

/// What a job produced.
#[derive(Debug)]
pub enum Outcome {
    /// Switching vectors, worst degradation first, and the wall time.
    Screen(Vec<ScreenedVector>, f64),
    /// The smallest W/L meeting the target, and the bisection time.
    Size(f64, f64),
    /// The returned per-cluster solution and its report.
    Cluster(ClusterSizing, ClusterReport),
    /// Screened and SPICE-verified candidates.
    Hybrid(HybridReport),
}

/// A finished job: the transitions it ran over, where they came from,
/// the typed result, and the trace (tool `mtk_<job>`).
#[derive(Debug)]
pub struct JobRun {
    pub transitions: Vec<Transition>,
    pub label: String,
    pub outcome: Outcome,
    pub trace: TraceReport,
}

/// Runs one job: `size` bisects through `cache`, `cluster` writes its
/// evaluations through `store`, the sweeps route failures per `policy`.
///
/// # Errors
///
/// The core entry point's: an invalid option, an infeasible target, or
/// a failed sweep.
pub fn run(
    spec: &JobSpec,
    cache: &ScreeningCache,
    store: Option<&Store>,
    policy: FailurePolicy,
) -> Result<JobRun, CoreError> {
    let (transitions, label) = design_transitions(&spec.design, spec.stride, spec.samples);
    let (netlist, tech) = (&spec.design.netlist, &spec.design.tech);
    let bracket = (spec.lo, spec.hi);
    let base = VbsimOptions::default();
    let mut trace = TraceReport::new(&format!("mtk_{}", spec.kind.name()));
    let outcome = match spec.kind {
        JobKind::Screen => {
            let (screened, report) = screen_vectors_par_quarantined(
                netlist,
                tech,
                &transitions,
                None,
                spec.w_over_l,
                &base,
                spec.threads,
                policy,
                &FaultPlan::none(),
            )?;
            trace.push_phase(report.to_phase("screen"));
            Outcome::Screen(screened, report.wall)
        }
        JobKind::Size => {
            let engine = Engine::new(netlist, tech);
            let t0 = Instant::now();
            let (w_over_l, health) = size_for_target_cached(
                &engine,
                &transitions,
                None,
                spec.target,
                bracket,
                &base,
                cache,
            )?;
            let wall = t0.elapsed().as_secs_f64();
            let mut phase = PhaseTrace::new("size").with_wall(wall);
            phase.counters = health.counters();
            trace.push_phase(phase);
            Outcome::Size(w_over_l, wall)
        }
        JobKind::Cluster => {
            let partition = exclusive_partition(netlist, &transitions, spec.clusters)?;
            let (sizing, report) = size_clusters_for_target(
                netlist,
                tech,
                &transitions,
                None,
                &partition,
                spec.target,
                bracket,
                &base,
                spec.threads,
                policy,
                &FaultPlan::none(),
                store,
            )?;
            trace.push_phase(report.to_phase("cluster", &sizing));
            Outcome::Cluster(sizing, report)
        }
        JobKind::Hybrid => {
            let opts = HybridOptions {
                top_k: spec.top_k,
                threads: spec.threads,
                policy,
                ..HybridOptions::at_size(spec.w_over_l, SpiceRunConfig::window(80e-9))
            };
            let report = run_hybrid(netlist, tech, &transitions, &opts)?;
            trace = report.to_trace(&trace.tool);
            Outcome::Hybrid(report)
        }
    };
    Ok(JobRun {
        transitions,
        label,
        outcome,
        trace,
    })
}

/// Opens the persistent tiers jobs run against on the log at `path`:
/// a store handle for whole records (serve requests, cluster and Monte
/// Carlo evaluations) and the screening cache's leg tier — two handles
/// on one log, whose lock serializes their writers. Without a path
/// both are in memory only.
///
/// # Errors
///
/// Any [`StoreError`] of [`Store::open`]: a foreign or unrecoverable
/// log fails loudly instead of serving wrong bits later.
pub fn open_tiers(path: Option<&Path>) -> Result<(Option<Store>, ScreeningCache), StoreError> {
    let Some(path) = path else {
        return Ok((None, ScreeningCache::new()));
    };
    Ok((Some(Store::open(path)?), ScreeningCache::persistent(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHAIN: &str = "mtk 1\ncircuit chain\ntech l07\nnet a\nnet m\nnet y cap=2e-14\n\
                         input a\noutput y\ncell i1 inv a -> m\ncell i2 inv m -> y\n\
                         vector 0 -> 1\nend\n";

    fn request(extra: &str) -> JsonValue {
        let design = JsonValue::String(CHAIN.into()).to_compact();
        mtk_trace::json::parse(&format!("{{\"design\":{design}{extra}}}")).unwrap()
    }

    #[test]
    fn absent_fields_take_the_table_defaults() {
        let spec = JobSpec::from_request(JobKind::Size, &request(""), 3).unwrap();
        let mut defaults = PARAMS.map(|p| p.default);
        defaults[0] = 3.0; // the server's own thread default
        assert_eq!(spec.values(), defaults);
    }

    #[test]
    fn every_field_lands_in_its_own_option() {
        // Distinct values per field: a swapped destructuring in
        // `from_values` or `values` would move one to another slot.
        let fields: Vec<String> = PARAMS
            .iter()
            .enumerate()
            .map(|(i, p)| format!(",\"{}\":{}", p.field, i + 2))
            .collect();
        let spec = JobSpec::from_request(JobKind::Hybrid, &request(&fields.concat()), 1).unwrap();
        let expected: Vec<f64> = (0..PARAMS.len()).map(|i| (i + 2) as f64).collect();
        assert_eq!(spec.values().to_vec(), expected);
        assert_eq!((spec.top_k, spec.clusters), (4, 11));
        // The client's line reads back as the same job.
        let back = JobSpec::from_request(
            JobKind::Hybrid,
            &mtk_trace::json::parse(&spec.request_line()).unwrap(),
            1,
        )
        .unwrap();
        assert_eq!(back.values(), spec.values());
        assert_eq!(back.store_key(), spec.store_key());
    }

    #[test]
    fn threads_never_key_a_result_and_the_key_layout_is_stable() {
        let one = JobSpec::from_request(JobKind::Screen, &request(""), 1).unwrap();
        let eight = JobSpec::from_request(JobKind::Screen, &request(",\"threads\":8"), 1).unwrap();
        assert_eq!(one.store_key(), eight.store_key());
        let key = String::from_utf8(one.store_key()).unwrap();
        let design = JsonValue::String(one.design.to_mtk()).to_compact();
        assert_eq!(
            key,
            format!(
                "req2:{{\"cmd\":\"screen\",\"design\":{design},\"w_over_l\":10,\"top_k\":10,\
                 \"target\":0.05,\"lo\":1,\"hi\":2000,\"stride\":1,\"samples\":256,\"top\":10,\
                 \"clusters\":8}}"
            )
        );
    }

    #[test]
    fn bad_fields_are_labelled() {
        for (extra, msg) in [
            (
                ",\"target\":\"x\"",
                "field `target` must be a finite number",
            ),
            (
                ",\"top_k\":-1",
                "field `top_k` must be a non-negative integer",
            ),
            (
                ",\"stride\":1.5",
                "field `stride` must be a non-negative integer",
            ),
        ] {
            let err = JobSpec::from_request(JobKind::Size, &request(extra), 1).unwrap_err();
            assert_eq!(err, msg);
        }
        let err = JobSpec::from_request(JobKind::Size, &JsonValue::Object(vec![]), 1).unwrap_err();
        assert!(err.contains("missing `design`"), "{err}");
    }

    #[test]
    fn documented_request_fields_match_the_defaults_table() {
        let design =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
                .expect("DESIGN.md");
        let start = design
            .find("### 13.2 The `mtk serve` protocol")
            .expect("DESIGN.md §13.2");
        let end = start + design[start..].find("## 14.").expect("DESIGN.md §14");
        let rows: Vec<&str> = design[start..end]
            .lines()
            .filter(|line| line.starts_with("| `"))
            .collect();
        let table: Vec<String> = PARAMS
            .iter()
            .map(|p| {
                format!(
                    "| `{}` | {} | `{}` | {} |",
                    p.field,
                    p.default,
                    p.flag,
                    if p.keyed { "yes" } else { "no" }
                )
            })
            .collect();
        assert_eq!(rows, table, "DESIGN.md §13.2 request-field table drifted");
    }
}
