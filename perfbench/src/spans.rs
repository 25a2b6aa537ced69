//! The benchmark's own span recorder.
//!
//! Spans are recorded around calls *into* the library's public entry
//! points, never inside the program. They live in memory (name, start,
//! end, parent span, pass or request id) and are written out as JSON
//! lines when the run ends. A disabled recorder never reads the clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `spice.tran` (the layer is the part
    /// before the first dot).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Pass or request id the span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder with an explicit open-span stack (the
/// benchmark records from one thread, so children nest strictly).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    id: u64,
}

/// Handle of an open span; `None` when the recorder is disabled.
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recorder; when `enabled` is false every call is a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            id: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the pass or request id stamped on spans opened from now on.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            id: self.id,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`]. Spans close in LIFO
    /// order; closing out of order is a bug in the benchmark.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Times `f` in a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// All closed spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name`, seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Durations of every span called `name`, seconds, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time of each span: its duration minus the time its direct
    /// children cover (children of one thread never overlap).
    pub fn self_times(&self) -> Vec<f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9)
            .collect()
    }

    /// Self time summed per span name over the spans under the root
    /// spans called `root` (the roots' own self time included under
    /// `root`).
    pub fn self_times_under(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let selfs = self.self_times();
        let mut under = vec![false; self.spans.len()];
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            under[i] = s.name == root || s.parent.is_some_and(|p| under[p]);
            if under[i] {
                *out.entry(s.name).or_insert(0.0) += selfs[i];
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_groups_by_name() {
        let mut t = Tracer::new(true);
        let root = t.begin("pass");
        let a = t.begin("sizing.bisect");
        let b = t.begin("vbsim.run");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(b);
        t.end(a);
        t.end(root);
        let selfs = t.self_times();
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(selfs[1] < spans[1].secs());
        let by_name = t.self_times_under("pass");
        assert!(by_name["vbsim.run"] >= 0.002);
        let sum: f64 = by_name.values().sum();
        assert!((sum - spans[0].secs()).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.time("fe.parse", || 7);
        assert_eq!(x, 7);
        assert!(t.spans().is_empty());
    }
}
