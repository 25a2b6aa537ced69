//! The typed counter registry and log₂-bucketed histograms.
//!
//! Counters are *registered* by adding a variant to [`CounterId`]; there
//! is deliberately no string-keyed "emit anything" API. A fixed registry
//! keeps the JSON schema closed (the schema test fails when it changes),
//! makes per-worker sinks a flat array instead of a hash map, and forces
//! every new degraded path through a reviewable enum — the telemetry
//! analogue of the quarantine rule that degraded items must route
//! through health, never `eprintln!`.

/// How a counter merges when two sinks are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Occurrence count: merging sums.
    Sum,
    /// High-water mark (e.g. the largest breakpoint budget seen):
    /// merging takes the max.
    Max,
}

macro_rules! counter_registry {
    ($( $(#[$doc:meta])* $variant:ident => ($name:literal, $kind:ident) ),+ $(,)?) => {
        /// Every counter the suite can record, in registry (= JSON) order.
        ///
        /// The enum is the registry: adding a counter means adding a
        /// variant here, which automatically extends [`CounterSet`], the
        /// JSON export, and the golden-schema test.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum CounterId {
            $( $(#[$doc])* $variant, )+
        }

        impl CounterId {
            /// All counters, in registry order.
            pub const ALL: &'static [CounterId] = &[ $(CounterId::$variant),+ ];

            /// Stable snake_case name used as the JSON key.
            pub fn name(self) -> &'static str {
                match self {
                    $( CounterId::$variant => $name, )+
                }
            }

            /// Merge semantics of this counter.
            pub fn kind(self) -> CounterKind {
                match self {
                    $( CounterId::$variant => CounterKind::$kind, )+
                }
            }
        }
    };
}

counter_registry! {
    /// Work items submitted to a sweep.
    Items => ("items", Sum),
    /// Items that produced a result.
    Completed => ("completed", Sum),
    /// Items that failed after all fallbacks and were quarantined.
    Quarantined => ("quarantined", Sum),
    /// Relaxed-budget retries attempted.
    Retries => ("retries", Sum),
    /// Retries whose second attempt succeeded.
    RetrySuccesses => ("retry_successes", Sum),
    /// Worker panics converted into quarantined items.
    PanicsRecovered => ("panics_recovered", Sum),
    /// Switch-level breakpoints processed.
    Breakpoints => ("breakpoints", Sum),
    /// Largest breakpoint budget in force (high-water mark).
    MaxEvents => ("max_events", Max),
    /// Mid-swing direction reversals (glitches, paper §6.3).
    GlitchReversals => ("glitch_reversals", Sum),
    /// Virtual-ground equilibrium solves that needed the relaxed
    /// fallback tolerances.
    VxFallbacks => ("vx_fallbacks", Sum),
    /// Simulator legs served from a screening cache.
    CacheHits => ("cache_hits", Sum),
    /// Simulator legs computed and inserted into a screening cache.
    CacheMisses => ("cache_misses", Sum),
    /// g<sub>min</sub> continuation stages SPICE operating points needed.
    GminFallbackStages => ("gmin_fallback_stages", Sum),
    /// Transient time-step halvings SPICE runs needed.
    DtHalvings => ("dt_halvings", Sum),
    /// Newton iterations accumulated across SPICE solves.
    NewtonIterations => ("newton_iterations", Sum),
    /// Accepted SPICE transient steps.
    SpiceSteps => ("spice_steps", Sum),
    /// LU factorizations that replayed a solver's recorded elimination
    /// (pivot sequence + fill structure) instead of running the full
    /// pivoting elimination.
    LuPatternReuses => ("lu_pattern_reuses", Sum),
    /// Simulator legs replayed from the persistent on-disk result store.
    StoreHits => ("store_hits", Sum),
    /// Lookups that consulted an attached persistent store and found no
    /// usable record.
    StoreMisses => ("store_misses", Sum),
    /// Torn or corrupt store log tails detected and excluded during
    /// recovery (never served, never panicked on).
    StoreCorruptRecords => ("store_corrupt_records", Sum),
    /// Server connections dropped after a read/write timeout (stalled or
    /// half-open clients).
    ConnTimeouts => ("conn_timeouts", Sum),
    /// Server requests rejected before execution (malformed, oversized,
    /// or backpressured with `busy`).
    RequestsRejected => ("requests_rejected", Sum),
    /// Monte Carlo trials attempted (one perturbed-technology sample
    /// each).
    McTrials => ("mc_trials", Sum),
    /// Monte Carlo trials whose worst-vector degradation at the nominal
    /// sleep width met the target.
    McPassed => ("mc_passed", Sum),
    /// Median of worst-vector delay degradation across trials, in basis
    /// points (degradation × 10⁴, saturating; ∞ ⇒ `u64::MAX`).
    McP50DegrBp => ("mc_p50_degr_bp", Max),
    /// 95th percentile of worst-vector degradation, basis points.
    McP95DegrBp => ("mc_p95_degr_bp", Max),
    /// 99th percentile of worst-vector degradation, basis points.
    McP99DegrBp => ("mc_p99_degr_bp", Max),
    /// 99th percentile of peak virtual-ground bounce across trials, in
    /// microvolts.
    McP99BounceUv => ("mc_p99_bounce_uv", Max),
    /// Sleep clusters sized (mutually-exclusive discharge partition).
    Clusters => ("clusters", Max),
    /// Conflict-graph edges of the cluster partition (cell pairs that
    /// co-discharge on at least one vector).
    ClusterConflicts => ("cluster_conflicts", Max),
    /// Cells folded into a conflicting cluster by the cluster cap.
    ClusterFolds => ("cluster_folds", Max),
    /// Co-optimisations where the single shared device used no more
    /// total width than the clustered candidate and was returned.
    ClusterFallbacks => ("cluster_fallbacks", Sum),
    /// Logical SPICE cards parsed by the deck importer (after comment
    /// stripping and continuation joining).
    ImportCards => ("import_cards", Sum),
    /// `X` subcircuit instances flattened during import (counting
    /// nested instantiations).
    ImportSubcktsFlattened => ("import_subckts_flattened", Sum),
    /// Gates recovered from transistor topology by import recognition.
    ImportGatesRecognized => ("import_gates_recognized", Sum),
    /// Imports that fell back to SPICE-only analysis (no gate-level
    /// design recovered).
    ImportFallbacks => ("import_fallbacks", Sum),
    /// Data points written to SPICE rawfile waveform exports.
    WaveRawPoints => ("wave_raw_points", Sum),
    /// Value changes written to VCD waveform exports (including the
    /// `$dumpvars` initial block).
    WaveVcdChanges => ("wave_vcd_changes", Sum),
}

/// A flat, fixed-size set of every registered counter.
///
/// This is the per-worker sink of the tracing layer: each worker owns
/// one (no locks, no sharing), and the sweep merges them **in worker
/// index order** via [`CounterSet::absorb`] — the same index-ordered
/// fold the result path uses, which is what makes merged counters
/// independent of the thread schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSet {
    values: [u64; CounterId::ALL.len()],
}

impl Default for CounterSet {
    fn default() -> Self {
        CounterSet::new()
    }
}

impl CounterSet {
    /// An all-zero set.
    pub fn new() -> Self {
        CounterSet {
            values: [0; CounterId::ALL.len()],
        }
    }

    /// Adds `n` occurrences of a [`CounterKind::Sum`] counter, or raises
    /// the high-water mark of a [`CounterKind::Max`] counter to `n`.
    pub fn add(&mut self, id: CounterId, n: u64) {
        let slot = &mut self.values[id as usize];
        match id.kind() {
            CounterKind::Sum => *slot += n,
            CounterKind::Max => *slot = (*slot).max(n),
        }
    }

    /// Current value of a counter.
    pub fn get(&self, id: CounterId) -> u64 {
        self.values[id as usize]
    }

    /// Merges another sink into this one honoring each counter's
    /// [`CounterKind`]. Call in worker/phase index order when merging a
    /// sweep so the result is schedule-invariant.
    pub fn absorb(&mut self, other: &CounterSet) {
        for &id in CounterId::ALL {
            self.add(id, other.get(id));
        }
    }

    /// True when every counter is zero.
    pub fn is_empty(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }

    /// Iterates `(counter, value)` in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (CounterId, u64)> + '_ {
        CounterId::ALL.iter().map(move |&id| (id, self.get(id)))
    }
}

/// Number of log₂ buckets in a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A log₂-bucketed histogram of a per-item cost (e.g. breakpoints per
/// screened vector).
///
/// Bucket `0` holds zeros, bucket `k ≥ 1` holds values in
/// `[2^(k−1), 2^k)`, and the last bucket additionally absorbs everything
/// larger. Merging is a bucket-wise sum, so a histogram aggregated in
/// any order — in particular the index-ordered sweep fold — is
/// deterministic.
///
/// ```
/// use mtk_trace::Histogram;
///
/// let mut h = Histogram::new();
/// for cost in [0u64, 1, 2, 3, 700] {
///     h.record(cost);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.sum(), 706);
/// assert_eq!(h.buckets()[0], 1); // the zero
/// assert_eq!(h.buckets()[1], 1); // 1
/// assert_eq!(h.buckets()[2], 2); // 2 and 3
/// assert_eq!(h.buckets()[10], 1); // 700 ∈ [512, 1024)
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Index of the bucket a value falls into.
    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            let k = 64 - (value.leading_zeros() as usize);
            k.min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one observation. The running sum saturates instead of
    /// wrapping so a pathological value cannot poison the report.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Merges another histogram into this one (bucket-wise sum).
    pub fn absorb(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The raw buckets (see the type-level docs for bucket bounds).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_ordered() {
        let names: Vec<&str> = CounterId::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate counter name");
        assert_eq!(names[0], "items", "registry order is the JSON order");
    }

    #[test]
    fn counter_kinds_merge_correctly() {
        let mut a = CounterSet::new();
        a.add(CounterId::Breakpoints, 10);
        a.add(CounterId::MaxEvents, 100);
        let mut b = CounterSet::new();
        b.add(CounterId::Breakpoints, 5);
        b.add(CounterId::MaxEvents, 50);
        a.absorb(&b);
        assert_eq!(a.get(CounterId::Breakpoints), 15);
        assert_eq!(a.get(CounterId::MaxEvents), 100, "max, not sum");
        assert!(!a.is_empty());
        assert!(CounterSet::new().is_empty());
    }

    #[test]
    fn absorb_is_schedule_invariant() {
        // Same per-worker sinks merged in index order from two different
        // "schedules" (the sinks themselves were filled differently) —
        // the merged set must be identical.
        let mut w0 = CounterSet::new();
        w0.add(CounterId::Breakpoints, 7);
        w0.add(CounterId::MaxEvents, 200);
        let mut w1 = CounterSet::new();
        w1.add(CounterId::Breakpoints, 3);
        w1.add(CounterId::MaxEvents, 400);

        let mut forward = CounterSet::new();
        forward.absorb(&w0);
        forward.absorb(&w1);
        let mut reverse = CounterSet::new();
        reverse.absorb(&w1);
        reverse.absorb(&w0);
        assert_eq!(forward, reverse);
    }

    #[test]
    fn histogram_buckets_and_merge() {
        let mut a = Histogram::new();
        a.record(0);
        a.record(1);
        a.record(u64::MAX);
        let mut b = Histogram::new();
        b.record(8);
        a.absorb(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.buckets()[0], 1);
        assert_eq!(a.buckets()[1], 1);
        assert_eq!(a.buckets()[4], 1); // 8 ∈ [8, 16)
        assert_eq!(a.buckets()[HISTOGRAM_BUCKETS - 1], 1, "overflow bucket");
        assert!(Histogram::new().is_empty());
    }
}
