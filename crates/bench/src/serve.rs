//! The `mtk serve` front-end: a long-lived, hardened TCP line/JSON
//! protocol over the deterministic sizing machinery, backed by the
//! crash-safe persistent result store.
//!
//! # Protocol (DESIGN.md §13)
//!
//! One JSON object per line in each direction. Requests:
//!
//! * `{"cmd":"screen"|"size"|"cluster"|"hybrid","design":"<.mtk text>",
//!   ...}` — run a job through [`crate::job::run`], the runner the
//!   `mtk screen|size|cluster|hybrid` commands share. The optional
//!   numeric fields and their defaults are [`crate::job::PARAMS`].
//! * `{"cmd":"import","deck":"<SPICE text>"}` — standard-format import:
//!   flatten subcircuits, recognize gates, return canonical `.mtk` (or
//!   `recognized:false` with the reason — the SPICE-only fallback).
//! * `{"cmd":"status"}` — health snapshot: serve counters as a trace
//!   report at the current [`mtk_trace::SCHEMA_VERSION`], cache
//!   occupancy, store stats, connection gauges.
//! * `{"cmd":"shutdown"}` — begin a graceful drain.
//!
//! Responses (always one line):
//!
//! * `{"status":"ok","cached":<bool>,"result":...,"trace":...}` — job
//!   done; `trace` is the deterministic-mode trace report of the run
//!   that *produced* the result. A cached response replays the stored
//!   bytes, so identical requests get byte-identical `result`+`trace`
//!   whether computed or replayed.
//! * `{"status":"busy"}` — all job slots taken (bounded backpressure:
//!   the server never queues unboundedly; retry).
//! * `{"status":"error","error":"..."}` — malformed/oversized/failed.
//!
//! # Hardening contract
//!
//! Per-connection read *and* write timeouts (a stalled or half-open
//! client costs one `conn_timeouts` tick, never a hung worker), a
//! max-request-size bound (`requests_rejected`), bounded worker
//! backpressure (explicit `busy`), in-flight dedup of identical
//! requests (concurrent duplicates wait for the one execution and
//! replay it), and graceful drain (stop accepting, finish in-flight
//! work, exit cleanly). The connection count and the in-flight entry
//! are released by drop guards, so even a job that panics leaves no
//! waiter blocked and no drain hanging. Every failure path is an
//! `mtk_trace` counter — never an `eprintln!`. Requests are keyed by
//! [`JobSpec::store_key`], which leaves out `threads`.

use crate::job::{self, JobKind, JobRun, JobSpec, Outcome};
use mtk_core::health::FailurePolicy;
use mtk_core::sizing::ScreeningCache;
use mtk_store::{Store, StoreStats};
use mtk_trace::json::{parse, JsonValue};
use mtk_trace::{CounterId, CounterSet, PhaseTrace, TraceMode, TraceReport};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Knobs of one server instance. `Default` is tuned for tests and the
/// CI smoke; production raises the timeouts and slots.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Default worker threads per job (a request's `threads` field
    /// overrides; 0 means all cores).
    pub threads: usize,
    /// Maximum concurrently executing jobs; further job requests get an
    /// explicit `busy` instead of queueing.
    pub job_slots: usize,
    /// Per-connection read timeout (bounds stalled/half-open clients).
    pub read_timeout: Duration,
    /// Per-connection write timeout (bounds clients that stop reading).
    pub write_timeout: Duration,
    /// Largest accepted request line, bytes.
    pub max_request_bytes: usize,
    /// Optional store log path; `None` serves without persistence
    /// (in-flight dedup still works, replays are per-process).
    pub store_path: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            job_slots: 2,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_request_bytes: 8 * 1024 * 1024,
            store_path: None,
        }
    }
}

/// One in-flight job other connections can wait on.
#[derive(Default)]
struct Inflight {
    done: Mutex<Option<Result<String, String>>>,
    cv: Condvar,
}

impl Inflight {
    /// Never panics: it runs from [`Lead`]'s `Drop`, possibly while a
    /// panic unwinds. The slot is one assignment, so a poisoned lock
    /// still holds valid data.
    fn publish(&self, outcome: Result<String, String>) {
        *self.done.lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
        self.cv.notify_all();
    }

    /// Waits for the leader's outcome (bounded, so a lost leader cannot
    /// wedge a waiter forever).
    fn wait(&self) -> Option<Result<String, String>> {
        let mut done = self.done.lock().unwrap();
        let deadline = Duration::from_secs(600);
        while done.is_none() {
            let (guard, timeout) = self.cv.wait_timeout(done, deadline).unwrap();
            done = guard;
            if timeout.timed_out() {
                break;
            }
        }
        done.clone()
    }
}

/// Shared state behind one server: counters, the screening cache, the
/// persistent store, in-flight dedup, and the drain flag.
pub struct ServerState {
    counters: Mutex<CounterSet>,
    cache: ScreeningCache,
    store: Option<Store>,
    inflight: Mutex<HashMap<Vec<u8>, Arc<Inflight>>>,
    slots_free: Mutex<usize>,
    draining: AtomicBool,
    open_conns: AtomicUsize,
    store_put_errors: AtomicUsize,
    default_threads: usize,
}

impl ServerState {
    fn count(&self, id: CounterId, n: u64) {
        self.counters.lock().unwrap().add(id, n);
    }

    /// Requests a graceful drain: the accept loop closes, in-flight
    /// connections finish, [`Server::run`] returns.
    pub fn request_drain(&self) {
        self.draining.store(true, Relaxed);
    }

    /// True once a drain was requested.
    pub fn draining(&self) -> bool {
        self.draining.load(Relaxed)
    }

    /// A copy of the serve counter set (for post-drain summaries).
    pub fn counter_snapshot(&self) -> CounterSet {
        self.counters.lock().unwrap().clone()
    }

    /// Serves the stored payload for a request key, counting the hit.
    fn store_lookup(&self, key: &[u8]) -> Option<String> {
        let store = self.store.as_ref()?;
        let payload = String::from_utf8(store.get(key)?).ok()?;
        self.count(CounterId::StoreHits, 1);
        Some(payload)
    }
}

/// The leader's claim on an in-flight key. Dropping it — after the job,
/// or while a panic unwinds out of it — removes the entry and publishes
/// `outcome` (an error when none was set), so neither a waiter nor a
/// later identical request is left blocked on a lost leader.
struct Lead<'a> {
    state: &'a ServerState,
    key: &'a [u8],
    flight: Arc<Inflight>,
    outcome: Option<Result<String, String>>,
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        self.state
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(self.key);
        let outcome = self
            .outcome
            .take()
            .unwrap_or_else(|| Err("job failed without a result".to_string()));
        self.flight.publish(outcome);
    }
}

/// One open connection, counted for the drain loop; the count drops
/// when the connection thread ends, also when it unwinds from a panic.
struct ConnGuard(Arc<ServerState>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.open_conns.fetch_sub(1, Relaxed);
    }
}

/// RAII job slot: acquired before execution, returned on drop.
struct SlotGuard<'a> {
    state: &'a ServerState,
}

impl<'a> SlotGuard<'a> {
    fn try_acquire(state: &'a ServerState) -> Option<SlotGuard<'a>> {
        let mut free = state.slots_free.lock().unwrap();
        if *free == 0 {
            return None;
        }
        *free -= 1;
        Some(SlotGuard { state })
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        *self.state.slots_free.lock().unwrap() += 1;
    }
}

/// A bound listener plus its shared state; [`Server::run`] is the
/// accept/drain loop.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    cfg: ServeConfig,
}

impl Server {
    /// Binds the listener and opens the store (when configured).
    ///
    /// # Errors
    ///
    /// Bind errors, and store open failures mapped to
    /// [`std::io::ErrorKind::InvalidData`] — a corrupt-beyond-recovery
    /// or foreign store file must fail loudly at startup, not serve
    /// wrong bits later.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let (store, cache) = job::open_tiers(cfg.store_path.as_deref())
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        let state = Arc::new(ServerState {
            counters: Mutex::new(CounterSet::new()),
            cache,
            store,
            inflight: Mutex::new(HashMap::new()),
            slots_free: Mutex::new(cfg.job_slots),
            draining: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            store_put_errors: AtomicUsize::new(0),
            default_threads: cfg.threads,
        });
        Ok(Server {
            listener,
            state,
            cfg,
        })
    }

    /// The bound address (read the ephemeral port back from here).
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle to the shared state (drain requests, counter summaries).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Accepts connections until a drain is requested (by SIGTERM via
    /// [`ServerState::request_drain`] or a `shutdown` request), then
    /// refuses new connections and waits for the open ones to finish.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors; per-connection errors are
    /// counters, not failures.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        while !self.state.draining() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let cfg = self.cfg.clone();
                    self.state.open_conns.fetch_add(1, Relaxed);
                    let conn = ConnGuard(Arc::clone(&self.state));
                    std::thread::spawn(move || handle_conn(&conn.0, stream, &cfg));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Drain: the listener drops here (new connections refused); open
        // connections run to completion, bounded by their timeouts.
        drop(self.listener);
        while self.state.open_conns.load(Relaxed) > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }
}

/// What one read off the wire produced.
enum ReadOutcome {
    Line(String),
    Eof,
    TooLarge,
    Timeout,
    Error,
}

/// Reads newline-terminated requests with a size cap; leftover bytes
/// after a newline stay buffered for the next request on the same
/// connection.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl LineReader {
    fn read_line(&mut self, cap: usize) -> ReadOutcome {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return ReadOutcome::Line(String::from_utf8_lossy(&line).into_owned());
            }
            if self.buf.len() > cap {
                return ReadOutcome::TooLarge;
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadOutcome::Eof,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return ReadOutcome::Timeout
                }
                Err(_) => return ReadOutcome::Error,
            }
        }
    }
}

/// Writes one response line; a timeout counts against the connection.
fn write_line(state: &ServerState, stream: &TcpStream, line: &str) -> bool {
    let mut out = Vec::with_capacity(line.len() + 1);
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
    match (&mut (&*stream)).write_all(&out) {
        Ok(()) => true,
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
            state.count(CounterId::ConnTimeouts, 1);
            false
        }
        Err(_) => false,
    }
}

/// One connection's request loop.
fn handle_conn(state: &Arc<ServerState>, stream: TcpStream, cfg: &ServeConfig) {
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = LineReader {
        stream,
        buf: Vec::new(),
    };
    loop {
        match reader.read_line(cfg.max_request_bytes) {
            ReadOutcome::Line(line) => {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let (response, close) = handle_request(state, line);
                if !write_line(state, &write_half, &response) || close {
                    break;
                }
            }
            ReadOutcome::TooLarge => {
                state.count(CounterId::RequestsRejected, 1);
                let _ = write_line(state, &write_half, &error_line("request too large"));
                break;
            }
            ReadOutcome::Timeout => {
                state.count(CounterId::ConnTimeouts, 1);
                break;
            }
            ReadOutcome::Eof | ReadOutcome::Error => break,
        }
    }
}

/// Routes one request line to its handler; the bool asks the connection
/// loop to close afterwards.
fn handle_request(state: &Arc<ServerState>, line: &str) -> (String, bool) {
    let request = match parse(line) {
        Ok(v) => v,
        Err(e) => {
            state.count(CounterId::RequestsRejected, 1);
            return (error_line(&format!("malformed request: {e}")), false);
        }
    };
    let cmd = request.get("cmd").and_then(JsonValue::as_str).unwrap_or("");
    match (cmd, JobKind::parse(cmd)) {
        ("status", _) => (status_line(state), false),
        ("shutdown", _) => {
            state.request_drain();
            (r#"{"status":"ok","draining":true}"#.to_string(), true)
        }
        ("import", _) => (handle_import(state, &request), false),
        (_, Some(kind)) => match JobSpec::from_request(kind, &request, state.default_threads) {
            Ok(spec) => (handle_job(state, &spec), false),
            Err(msg) => {
                state.count(CounterId::RequestsRejected, 1);
                (error_line(&msg), false)
            }
        },
        (_, None) => {
            state.count(CounterId::RequestsRejected, 1);
            (
                error_line("unknown cmd (want import|screen|size|cluster|hybrid|status|shutdown)"),
                false,
            )
        }
    }
}

/// `{"cmd":"import","deck":"<SPICE text>"}` — run the standard-format
/// importer on a deck: subcircuits are flattened, gates recovered by
/// structural recognition. Responds
/// `{"status":"ok","recognized":true,"mtk":"<canonical .mtk>","gates":N}`
/// on success and `{"status":"ok","recognized":false,"reason":"…"}`
/// when the deck parses but is not a recognizable gate netlist (the
/// SPICE-only fallback — not an error). Deck parse failures and a
/// missing `deck` field are errors and count as rejected requests.
fn handle_import(state: &Arc<ServerState>, request: &JsonValue) -> String {
    let Some(text) = request.get("deck").and_then(JsonValue::as_str) else {
        state.count(CounterId::RequestsRejected, 1);
        return error_line("missing `deck` (the SPICE netlist text)");
    };
    let tech = mtk_netlist::tech::Technology::l07();
    let imported = match mtk_fe::interop::import_deck(text, "<request>", &tech) {
        Ok(i) => i,
        Err(e) => {
            state.count(CounterId::RequestsRejected, 1);
            return error_line(&e.to_string());
        }
    };
    let stats = imported.stats();
    state.count(CounterId::ImportCards, stats.deck.cards as u64);
    state.count(
        CounterId::ImportSubcktsFlattened,
        stats.deck.instances_flattened as u64,
    );
    state.count(
        CounterId::ImportGatesRecognized,
        stats.cells_recognized as u64,
    );
    state.count(CounterId::ImportFallbacks, stats.fallback as u64);
    let ok = JsonValue::String("ok".into());
    match imported {
        mtk_fe::interop::Imported::Design { design, stats, .. } => obj([
            ("status", ok),
            ("recognized", JsonValue::Bool(true)),
            ("mtk", JsonValue::String(design.to_mtk())),
            ("gates", num(stats.cells_recognized)),
        ]),
        mtk_fe::interop::Imported::SpiceOnly { reason, .. } => obj([
            ("status", ok),
            ("recognized", JsonValue::Bool(false)),
            ("reason", JsonValue::String(reason)),
        ]),
    }
    .to_compact()
}

/// Store tier → in-flight dedup → bounded execution, in that order.
fn handle_job(state: &Arc<ServerState>, spec: &JobSpec) -> String {
    if state.draining() {
        state.count(CounterId::RequestsRejected, 1);
        return r#"{"status":"busy"}"#.to_string();
    }
    let key = spec.store_key();
    if let Some(payload) = state.store_lookup(&key) {
        return ok_line(true, &payload);
    }
    enum Role<'a> {
        Leader(SlotGuard<'a>, Arc<Inflight>),
        Waiter(Arc<Inflight>),
    }
    let role = {
        let mut map = state.inflight.lock().unwrap();
        if let Some(flight) = map.get(&key) {
            Role::Waiter(Arc::clone(flight))
        } else {
            match SlotGuard::try_acquire(state) {
                None => {
                    state.count(CounterId::RequestsRejected, 1);
                    return r#"{"status":"busy"}"#.to_string();
                }
                Some(guard) => {
                    let flight = Arc::new(Inflight::default());
                    map.insert(key.clone(), Arc::clone(&flight));
                    Role::Leader(guard, flight)
                }
            }
        }
    };
    match role {
        Role::Waiter(flight) => {
            let outcome = flight.wait();
            // Prefer the committed store record so the replay serves the
            // exact stored bytes (and counts as the store hit it is).
            if let Some(payload) = state.store_lookup(&key) {
                return ok_line(true, &payload);
            }
            match outcome {
                Some(Ok(payload)) => ok_line(true, &payload),
                Some(Err(msg)) => error_line(&msg),
                None => error_line("deduplicated request timed out"),
            }
        }
        Role::Leader(guard, flight) => {
            let mut lead = Lead {
                state,
                key: &key,
                flight,
                outcome: None,
            };
            // Close the lookup→insert race: a previous leader may have
            // committed between our store miss and winning the in-flight
            // slot. Re-checking here keeps "identical requests run one
            // simulation" exact, not just probable.
            if let Some(payload) = state.store_lookup(&key) {
                lead.outcome = Some(Ok(payload.clone()));
                drop(lead);
                drop(guard);
                return ok_line(true, &payload);
            }
            if state.store.is_some() {
                state.count(CounterId::StoreMisses, 1);
            }
            let outcome = execute(state, spec);
            if let (Ok(payload), Some(store)) = (&outcome, &state.store) {
                if store.put(&key, payload.as_bytes()).is_err() {
                    state.store_put_errors.fetch_add(1, Relaxed);
                }
            }
            lead.outcome = Some(outcome.clone());
            drop(lead);
            drop(guard);
            match outcome {
                Ok(payload) => ok_line(false, &payload),
                Err(msg) => error_line(&msg),
            }
        }
    }
}

/// Runs one job through [`job::run`] and serializes its payload:
/// `{"result":...,"trace":<deterministic trace>}` — the unit the store
/// persists and identical requests replay byte-for-byte.
fn execute(state: &ServerState, spec: &JobSpec) -> Result<String, String> {
    let policy = FailurePolicy::quarantine(32);
    let run = job::run(spec, &state.cache, state.store.as_ref(), policy);
    let run = run.map_err(|e| e.to_string())?;
    let trace = run.trace.to_json_value(TraceMode::Deterministic);
    Ok(obj([("result", result_json(spec, &run)), ("trace", trace)]).to_compact())
}

/// The `result` object of a job response.
fn result_json(spec: &JobSpec, run: &JobRun) -> JsonValue {
    let opt = |x: Option<f64>| x.map_or(JsonValue::Null, JsonValue::Number);
    let transitions = num(run.transitions.len());
    match &run.outcome {
        Outcome::Screen(screened, _) => {
            let top = screened.iter().take(spec.top).map(|s| {
                let degradation = JsonValue::Number(s.delays.degradation());
                obj([("index", num(s.index)), ("degradation", degradation)])
            });
            obj([
                ("transitions", transitions),
                ("switching", num(screened.len())),
                ("top", JsonValue::Array(top.collect())),
            ])
        }
        Outcome::Size(w_over_l, _) => obj([("w_over_l", JsonValue::Number(*w_over_l))]),
        Outcome::Cluster(sizing, report) => {
            let widths = sizing.w_over_ls.iter().map(|&w| JsonValue::Number(w));
            obj([
                ("clusters", num(report.n_clusters)),
                ("conflict_edges", num(report.conflict_edges)),
                ("folded", num(report.folded)),
                ("w_over_ls", JsonValue::Array(widths.collect())),
                (
                    "clustered_width",
                    JsonValue::Number(sizing.clustered_width()),
                ),
                ("single_w_over_l", opt(sizing.single_w_over_l)),
                ("fell_back", JsonValue::Bool(sizing.fell_back)),
                ("total_width", JsonValue::Number(sizing.total_width())),
            ])
        }
        Outcome::Hybrid(report) => {
            let findings = report.findings.iter().map(|f| {
                obj([
                    ("index", num(f.index)),
                    ("screened", JsonValue::Number(f.screened.degradation())),
                    ("verified", opt(f.verified.map(|v| v.degradation()))),
                    ("delta", opt(f.delta)),
                ])
            });
            obj([
                ("transitions", transitions),
                ("survivors", num(report.survivors)),
                ("findings", JsonValue::Array(findings.collect())),
            ])
        }
    }
}

/// A JSON object with `members` in this order.
fn obj<const N: usize>(members: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Object(members.map(|(k, v)| (k.to_string(), v)).into())
}

/// A count as a JSON number.
fn num(n: usize) -> JsonValue {
    JsonValue::Number(n as f64)
}

/// Splices a stored/computed payload object into a response line without
/// re-serializing it — replays stay byte-identical by construction.
fn ok_line(cached: bool, payload: &str) -> String {
    debug_assert!(payload.starts_with('{') && payload.len() > 1);
    format!("{{\"status\":\"ok\",\"cached\":{cached},{}", &payload[1..])
}

fn error_line(msg: &str) -> String {
    let status = JsonValue::String("error".into());
    obj([("status", status), ("error", JsonValue::String(msg.into()))]).to_compact()
}

fn store_stats_value(stats: StoreStats) -> JsonValue {
    obj([
        ("live_records", num(stats.live_records)),
        ("dead_records", num(stats.dead_records)),
        ("conflicting_records", num(stats.conflicting_records)),
        ("corrupt_records", num(stats.corrupt_records)),
        ("log_bytes", JsonValue::Number(stats.log_bytes as f64)),
    ])
}

/// The status response: connection gauges, cache occupancy
/// ([`ScreeningCache::snapshot`]), store health, and the serve counters
/// as a trace report that validates at the current
/// [`mtk_trace::SCHEMA_VERSION`].
fn status_line(state: &ServerState) -> String {
    let mut counters = state.counter_snapshot();
    if let Some(store) = &state.store {
        counters.add(
            CounterId::StoreCorruptRecords,
            store.stats().corrupt_records as u64,
        );
    }
    let mut report = TraceReport::new("mtk_serve");
    let mut phase = PhaseTrace::new("serve");
    phase.counters = counters;
    report.push_phase(phase);
    let trace = report.to_json_value(TraceMode::Deterministic);
    let snap = state.cache.snapshot();
    let cache = obj([
        ("legs", num(snap.legs)),
        ("hits", num(snap.hits)),
        ("misses", num(snap.misses)),
        ("store_hits", num(snap.store_hits)),
        ("store_misses", num(snap.store_misses)),
        ("store_put_errors", num(snap.store_put_errors)),
    ]);
    let store = state.store.as_ref();
    let server = obj([
        ("draining", JsonValue::Bool(state.draining())),
        ("open_connections", num(state.open_conns.load(Relaxed))),
        ("in_flight", num(state.inflight.lock().unwrap().len())),
        ("job_slots_free", num(*state.slots_free.lock().unwrap())),
        (
            "store_put_errors",
            num(state.store_put_errors.load(Relaxed)),
        ),
        (
            "store",
            store.map_or(JsonValue::Null, |s| store_stats_value(s.stats())),
        ),
        ("cache", cache),
    ]);
    let status = JsonValue::String("ok".into());
    obj([("status", status), ("server", server), ("trace", trace)]).to_compact()
}

/// A minimal blocking client for tests, the `mtk client` subcommand,
/// and the CI smoke: one request line out, one response line back.
///
/// # Errors
///
/// Connection and i/o errors; a response without a newline within the
/// timeout is an error (the protocol is line-framed).
pub fn request(addr: &str, line: &str, timeout: Duration) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut out = Vec::with_capacity(line.len() + 1);
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
    (&mut (&stream)).write_all(&out)?;
    let mut reader = LineReader {
        stream,
        buf: Vec::new(),
    };
    match reader.read_line(64 * 1024 * 1024) {
        ReadOutcome::Line(l) => Ok(l.trim_end().to_string()),
        ReadOutcome::Eof => Err(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "server closed the connection before responding",
        )),
        ReadOutcome::Timeout => Err(std::io::Error::new(
            ErrorKind::TimedOut,
            "timed out waiting for the response line",
        )),
        ReadOutcome::TooLarge | ReadOutcome::Error => Err(std::io::Error::new(
            ErrorKind::InvalidData,
            "unreadable response",
        )),
    }
}
