//! `serve_store`: a store-backed `mtk serve`, cold and warm requests.
//!
//! Each pass starts an in-process `Server::bind` on `127.0.0.1:0` with a
//! fresh store (1 job thread, 2 slots) and drives it from one closed-loop
//! client with `serve::request`: the next request goes out only after
//! the previous reply arrived, as the tools that call `mtk serve` do. The
//! seeded schedule covers eight goldens with `screen` and `size` and a
//! few option variants. The first request of each distinct kind is cold
//! (it simulates, and the store-backed cache writes one fsync'd record
//! per leg); its repeats are warm (`store.get` plus JSON and `.mtk`
//! parsing of the request). `mul16` (110 KB of `.mtk`) stays in the
//! schedule: it is where the warm path is slow.
//!
//! The traced run replays every warm request line through `json::parse`,
//! `parse_str`, `to_mtk` and `Store::get` from outside the server, and
//! every cold payload through `Store::put` into a scratch store.

use crate::spans::Tracer;
use crate::stats::{median, percentile, ratio};
use crate::{checks, Config, Outcome};
use mtk_bench::serve::{request, ServeConfig, Server, ServerState};
use mtk_num::prng::Xoshiro256pp;
use mtk_store::Store;
use mtk_trace::json::{parse, JsonValue};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// PRNG salt of the request schedule.
const SCHEDULE_SALT: u64 = 0x5345_5256_4531; // "SERVE1"
/// Client-side timeout of one request.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(120);
/// Screening sizes of the `screen` variants.
const W_OVER_L_VARIANTS: [f64; 5] = [6.0, 8.0, 12.0, 15.0, 20.0];
/// Degradation targets of the `size` variants.
const TARGET_VARIANTS: [f64; 4] = [0.04, 0.06, 0.08, 0.10];

/// One kind of request in the schedule: a golden, a command, fixed
/// options, how many distinct option variants and how many warm repeats
/// of each.
struct Kind {
    stem: &'static str,
    cmd: &'static str,
    fixed: &'static [(&'static str, f64)],
    distinct: usize,
    repeats: usize,
}

/// The schedule's composition: 41 distinct (cold) requests and 231 warm
/// repeats, 85 % warm. Kind *k* asks for the first `distinct` variants of
/// its command. The composition is the same for every seed and the seed
/// only orders the requests, so the work of a pass does not depend on
/// the seed; which requests arrive cold, which warm, and what the cache
/// and store hold at each moment does.
///
/// The pass wall is gated, so the mix keeps the host's two loudest
/// noises to a small share of it:
///
/// * Sizing requests bisect few transitions (stride 128 on the
///   exhaustive 3-bit adders, 8 samples on the sampled designs): each
///   cold leg is one fsync'd store put, and fsync latency on a shared
///   disk doubles from one minute to the next.
/// * `mul8` and `mul16` have one variant and one warm repeat each, and
///   `mul16` is screened only. Their requests are mostly the JSON
///   string parser, which validates the rest of the input for every
///   character; that loop's speed moves by up to 2.3× with the load of
///   other tenants on the host, while arithmetic code moves by 5 %.
///
/// The cold screens of `nand_adder3` (all 4096 transitions), `rand8x40`
/// (1024 samples) and `adder32` (256 samples) are mostly switch-level
/// simulation, so `screen_transitions_per_s` measures screening here
/// too, not the 5 ms accept-loop sleep or the fsync of the reply.
#[rustfmt::skip]
const KINDS: &[Kind] = &[
    Kind { stem: "invtree", cmd: "screen", fixed: &[], distinct: 5, repeats: 6 },
    Kind { stem: "invtree", cmd: "size", fixed: &[], distinct: 4, repeats: 6 },
    Kind { stem: "adder3", cmd: "screen", fixed: &[("stride", 8.0)], distinct: 5, repeats: 6 },
    Kind { stem: "adder3", cmd: "size", fixed: &[("stride", 128.0)], distinct: 1, repeats: 6 },
    Kind { stem: "nand_adder3", cmd: "screen", fixed: &[], distinct: 5, repeats: 6 },
    Kind { stem: "nand_adder3", cmd: "size", fixed: &[("stride", 128.0)], distinct: 1, repeats: 6 },
    Kind { stem: "alu4", cmd: "screen", fixed: &[], distinct: 5, repeats: 6 },
    Kind { stem: "alu4", cmd: "size", fixed: &[], distinct: 4, repeats: 6 },
    Kind { stem: "rand8x40", cmd: "screen", fixed: &[("samples", 2048.0)], distinct: 5, repeats: 6 },
    Kind { stem: "rand8x40", cmd: "size", fixed: &[("samples", 8.0)], distinct: 2, repeats: 6 },
    Kind { stem: "mul8", cmd: "screen", fixed: &[], distinct: 1, repeats: 1 },
    Kind { stem: "mul8", cmd: "size", fixed: &[], distinct: 1, repeats: 1 },
    Kind { stem: "adder32", cmd: "screen", fixed: &[("samples", 512.0)], distinct: 5, repeats: 6 },
    Kind { stem: "adder32", cmd: "size", fixed: &[("samples", 8.0)], distinct: 2, repeats: 6 },
    Kind { stem: "mul16", cmd: "screen", fixed: &[], distinct: 1, repeats: 1 },
];

/// A distinct request: its line and which golden it carries.
struct Distinct {
    line: String,
    stem: &'static str,
    cmd: &'static str,
}

/// The pass's inputs: distinct request lines and the seeded order
/// (indices into `distinct`; the first occurrence of each is cold).
struct Schedule {
    distinct: Vec<Distinct>,
    order: Vec<usize>,
}

fn build_schedule(cfg: &Config) -> Result<Schedule, String> {
    let mut texts: Vec<(&str, String)> = Vec::new();
    let mut distinct = Vec::new();
    let mut order = Vec::new();
    for kind in KINDS {
        if cfg.tiny && !matches!(kind.stem, "invtree" | "adder3" | "mul16") {
            continue;
        }
        let text = match texts.iter().find(|(s, _)| *s == kind.stem) {
            Some((_, t)) => t.clone(),
            None => {
                let path = cfg.examples.join(format!("{}.mtk", kind.stem));
                let t = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                texts.push((kind.stem, t.clone()));
                t
            }
        };
        let (field, variants): (&str, &[f64]) = match kind.cmd {
            "screen" => ("w_over_l", &W_OVER_L_VARIANTS),
            _ => ("target", &TARGET_VARIANTS),
        };
        let (n, repeats) = if cfg.tiny {
            (1, 2)
        } else {
            (kind.distinct, kind.repeats)
        };
        for &value in &variants[..n] {
            let mut fields = vec![
                ("cmd".to_string(), JsonValue::String(kind.cmd.into())),
                ("design".to_string(), JsonValue::String(text.clone())),
                (field.to_string(), JsonValue::Number(value)),
            ];
            for &(name, v) in kind.fixed {
                fields.push((name.to_string(), JsonValue::Number(v)));
            }
            order.extend(std::iter::repeat_n(distinct.len(), 1 + repeats));
            distinct.push(Distinct {
                line: JsonValue::Object(fields).to_compact(),
                stem: kind.stem,
                cmd: kind.cmd,
            });
        }
    }
    let mut rng = Xoshiro256pp::stream(cfg.seed, SCHEDULE_SALT);
    shuffle(&mut order, &mut rng);
    Ok(Schedule { distinct, order })
}

fn shuffle<T>(v: &mut [T], rng: &mut Xoshiro256pp) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_index(i + 1));
    }
}

/// A running server on a fresh store.
struct Running {
    addr: String,
    dir: PathBuf,
    state: Arc<ServerState>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start_server(dir: PathBuf) -> Result<Running, String> {
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        job_slots: 2,
        read_timeout: REQUEST_TIMEOUT,
        write_timeout: REQUEST_TIMEOUT,
        store_path: Some(dir.join("store.log")),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("server address: {e}"))?
        .to_string();
    let state = server.state();
    let thread = std::thread::spawn(move || server.run());
    let running = Running {
        addr,
        dir,
        state,
        thread,
    };
    // Ready once it answers a status request.
    match request(&running.addr, r#"{"cmd":"status"}"#, REQUEST_TIMEOUT) {
        Ok(_) => Ok(running),
        Err(e) => {
            let _ = stop_server(running);
            Err(format!("server status: {e}"))
        }
    }
}

/// Drains the server, waits for its thread and deletes its store.
fn stop_server(s: Running) -> Result<(), String> {
    s.state.request_drain();
    let joined = s.thread.join();
    let _ = std::fs::remove_dir_all(&s.dir);
    match joined {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("server loop: {e}")),
        Err(_) => Err("server thread panicked".into()),
    }
}

/// One served request as the client saw it.
struct Served {
    distinct: usize,
    stem: &'static str,
    cmd: &'static str,
    latency: f64,
    /// `Some(cached)` for an ok response, `None` for error or busy.
    cached: Option<bool>,
    /// Transitions a cold `screen` reply screened, when there were at
    /// least `MIN_SCREENED` of them.
    screened: Option<f64>,
    /// The reply's trace totals of `VBSIM_COUNTERS`.
    vbsim: [f64; 3],
    /// The reply line; emptied once the pass is checked, so memory does
    /// not grow with the number of passes.
    response: String,
}

/// Fewest transitions a cold `screen` reply must cover to count towards
/// `screen_transitions_per_s`. The file-vector designs screen 1 to 8
/// transitions, and their latency is request parsing, not screening.
const MIN_SCREENED: f64 = 64.0;

/// Trace counters of a reply that become `vbsim.*` figures.
const VBSIM_COUNTERS: [(&str, &str); 3] = [
    ("vbsim.breakpoints", "breakpoints"),
    ("vbsim.glitch_reversals", "glitch_reversals"),
    ("vbsim.vx_fallbacks", "vx_fallbacks"),
];

struct Pass {
    wall: f64,
    served: Vec<Served>,
    status: JsonValue,
}

/// Set-up: read the goldens, build the request lines, start a server on
/// a fresh store.
fn setup(cfg: &Config, dir: PathBuf) -> Result<(Schedule, Running, f64), String> {
    let t0 = Instant::now();
    let schedule = build_schedule(cfg)?;
    let running = start_server(dir)?;
    Ok((schedule, running, t0.elapsed().as_secs_f64()))
}

fn pass(
    cfg: &Config,
    id: usize,
    tracer: &mut Tracer,
    replay: bool,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let dir = cfg
        .out_dir
        .join(format!("serve-{}-{}-{id}", std::process::id(), cfg.seed));
    let (schedule, running, _) = setup(cfg, dir)?;
    // The server stops whether or not the requests succeeded.
    let driven = drive(&schedule, &running, tracer, replay, out);
    let stopped = stop_server(running);
    let (wall, mut served, status) = driven?;
    stopped?;
    check_pass(&schedule, &served, out);
    for s in &mut served {
        s.response = String::new();
    }
    Ok(Pass {
        wall,
        served,
        status,
    })
}

/// Sends the schedule from one closed-loop client, then reads the
/// server's status (and, when asked, replays the layers).
fn drive(
    schedule: &Schedule,
    running: &Running,
    tracer: &mut Tracer,
    replay: bool,
    out: &mut Outcome,
) -> Result<(f64, Vec<Served>, JsonValue), String> {
    let root = tracer.begin("pass");
    let t0 = Instant::now();
    let mut served = Vec::with_capacity(schedule.order.len());
    let mut seen = vec![false; schedule.distinct.len()];
    for (r, &d) in schedule.order.iter().enumerate() {
        tracer.set_id(r as u64);
        // The first request of a kind on a fresh store is the cold one
        // (`check_pass` verifies the replies agree).
        let first = !std::mem::replace(&mut seen[d], true);
        let span = tracer.begin(if first { "serve.cold" } else { "serve.warm" });
        let t = Instant::now();
        let response = request(&running.addr, &schedule.distinct[d].line, REQUEST_TIMEOUT)
            .map_err(|e| format!("request {r}: {e}"))?;
        let latency = t.elapsed().as_secs_f64();
        tracer.end(span);
        let v = parse(&response).map_err(|e| format!("request {r}: bad response: {e}"))?;
        let cached = match v.get("status").and_then(JsonValue::as_str) {
            Some("ok") => v.get("cached").and_then(|c| match c {
                JsonValue::Bool(b) => Some(*b),
                _ => None,
            }),
            _ => None,
        };
        let trace = v.get("trace");
        let screened = (cached == Some(false)
            && trace
                .and_then(|t| t.get("tool"))
                .and_then(JsonValue::as_str)
                == Some("mtk_screen"))
        .then(|| v.get("result")?.get("transitions")?.as_f64())
        .flatten()
        .filter(|&n| n >= MIN_SCREENED);
        let totals = trace
            .and_then(|t| t.get("totals"))
            .and_then(|t| t.get("counters"));
        let vbsim = VBSIM_COUNTERS.map(|(_, key)| {
            totals
                .and_then(|c| c.get(key))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
        });
        served.push(Served {
            distinct: d,
            stem: schedule.distinct[d].stem,
            cmd: schedule.distinct[d].cmd,
            latency,
            cached,
            screened,
            vbsim,
            response,
        });
    }
    let wall = t0.elapsed().as_secs_f64();
    tracer.end(root);
    let status = request(&running.addr, r#"{"cmd":"status"}"#, REQUEST_TIMEOUT)
        .map_err(|e| format!("status: {e}"))
        .and_then(|s| parse(&s).map_err(|e| format!("status: {e}")))?;
    if replay {
        replay_layers(schedule, &served, &running.dir, tracer, out)?;
    }
    Ok((wall, served, status))
}

/// The first occurrence of each distinct request must be a cold
/// `cached:false` response; every repeat must replay its bytes.
fn check_pass(schedule: &Schedule, served: &[Served], out: &mut Outcome) {
    let mut cold: Vec<Option<&str>> = vec![None; schedule.distinct.len()];
    for s in served {
        if s.cached.is_none() {
            continue; // counted as failed
        }
        match cold[s.distinct] {
            None => {
                if s.cached != Some(false) {
                    out.check(Err(format!(
                        "first {} {} request was not cold",
                        schedule.distinct[s.distinct].stem, schedule.distinct[s.distinct].cmd
                    )));
                }
                cold[s.distinct] = Some(&s.response);
            }
            Some(c) => out.check(checks::warm_matches_cold(c, &s.response)),
        }
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Missing designs, a server that cannot start, or a failed request.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(cfg.trace);
    let mut k = 0;
    let set_up = || {
        k += 1;
        let dir = cfg.out_dir.join(format!(
            "serve-{}-{}-setup{k}",
            std::process::id(),
            cfg.seed
        ));
        let (_, running, s) = setup(cfg, dir)?;
        stop_server(running)?;
        Ok(s)
    };
    let mut n = 0;
    let measured = crate::measure(
        cfg,
        2,
        &mut tracer,
        set_up,
        |t, i| {
            n += 1;
            let replay = t.enabled() && i == 0;
            pass(cfg, n, t, replay, &mut out)
        },
        |p| p.wall,
    )?;
    measured.record(&mut out);
    let passes = measured.passes;

    let (mut warm, mut cold) = (Vec::new(), Vec::new());
    let mut rps = Vec::new();
    for p in &passes {
        for s in &p.served {
            out.attempted += 1;
            match s.cached {
                None => out.failed += 1,
                Some(true) => warm.push(s.latency),
                Some(false) => cold.push(s.latency),
            }
        }
        rps.push(ratio(p.served.len() as f64, p.wall));
    }
    let typical = typical_pass(&passes);
    out.set("wall_s", typical.wall);
    out.notes.push(format!(
        "wall_s is the pass rebuilt from median latencies: {:.3} s (median measured pass {:.3} s)",
        typical.wall,
        median(&measured.walls)
    ));
    out.set("screen_transitions_per_s", typical.screen_rate);
    out.set("requests_per_s", median(&rps));
    out.set("warm_p50_ms", 1e3 * percentile(&warm, 50.0));
    out.set("warm_p95_ms", 1e3 * percentile(&warm, 95.0));
    out.set("cold_p50_ms", 1e3 * percentile(&cold, 50.0));
    out.set("cold_p75_ms", 1e3 * percentile(&cold, 75.0));
    out.notes.push(format!(
        "requests: {} warm, {} cold over {} pass(es)",
        warm.len(),
        cold.len(),
        passes.len()
    ));
    for kind in KINDS {
        let latencies = |cached: bool| -> Vec<f64> {
            passes
                .iter()
                .flat_map(|p| &p.served)
                .filter(|s| s.cached == Some(cached))
                .filter(|s| s.stem == kind.stem && s.cmd == kind.cmd)
                .map(|s| 1e3 * s.latency)
                .collect()
        };
        let (c, w) = (latencies(false), latencies(true));
        if !c.is_empty() {
            out.notes.push(format!(
                "{:>11} {:<6} cold {:>3} x p50 {:>9.2} ms   warm {:>3} x p50 {:>8.2} ms",
                kind.stem,
                kind.cmd,
                c.len(),
                median(&c),
                w.len(),
                median(&w)
            ));
        }
    }

    if cfg.trace {
        let first = &passes[0];
        let counters = first
            .status
            .get("trace")
            .and_then(|t| t.get("phases"))
            .and_then(JsonValue::as_array)
            .and_then(|p| p.first())
            .and_then(|p| p.get("counters"));
        let counter = |name: &str| {
            counters
                .and_then(|c| c.get(name))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
        };
        out.set("serve.store_hits", counter("store_hits"));
        out.set("serve.store_misses", counter("store_misses"));
        out.set("serve.requests_rejected", counter("requests_rejected"));
        out.set("serve.conn_timeouts", counter("conn_timeouts"));
        let cache = first.status.get("server").and_then(|s| s.get("cache"));
        let cache_f = |name: &str| {
            cache
                .and_then(|c| c.get(name))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
        };
        let (hits, misses) = (cache_f("hits"), cache_f("misses"));
        out.set("sizing.cache_hits", hits);
        out.set("sizing.cache_misses", misses);
        out.set("sizing.cache_hit_ratio", ratio(hits, hits + misses));
        for (k, (name, _)) in VBSIM_COUNTERS.iter().enumerate() {
            let cold = first.served.iter().filter(|s| s.cached == Some(false));
            out.set(name, cold.map(|s| s.vbsim[k]).sum());
        }
        out.note_self_time_shares(&tracer);
        crate::write_spans(cfg, &tracer, &mut out)?;
    }
    Ok(out)
}

/// One pass rebuilt from the run's typical request latencies.
struct Typical {
    /// Σ over request groups of (requests per pass × median latency).
    wall: f64,
    /// Transitions of the counted cold screens per pass over their
    /// typical time per pass.
    screen_rate: f64,
}

/// Rebuilds one pass from median latencies. Requests are grouped by
/// golden, command and cold or warm; a group's time per pass is its
/// request count per pass times the median latency of all its requests
/// over every pass of the run. A pass's own wall moves with the one
/// request that hit a slow fsync or a busy neighbour; a group's median
/// over 5–150 requests does not.
fn typical_pass(passes: &[Pass]) -> Typical {
    /// The requests of one golden, command and temperature in a run.
    struct Group {
        key: (&'static str, &'static str, bool),
        latencies: Vec<f64>,
        screened: f64,
    }
    let mut groups: Vec<Group> = Vec::new();
    for s in passes.iter().flat_map(|p| &p.served) {
        let Some(cached) = s.cached else { continue };
        let key = (s.stem, s.cmd, cached);
        let i = match groups.iter().position(|g| g.key == key) {
            Some(i) => i,
            None => {
                groups.push(Group {
                    key,
                    latencies: Vec::new(),
                    screened: 0.0,
                });
                groups.len() - 1
            }
        };
        groups[i].latencies.push(s.latency);
        groups[i].screened += s.screened.unwrap_or(0.0);
    }
    let n = passes.len().max(1) as f64;
    let (mut wall, mut trs, mut screen_time) = (0.0, 0.0, 0.0);
    for g in &groups {
        let per_pass = g.latencies.len() as f64 / n * median(&g.latencies);
        wall += per_pass;
        if g.screened > 0.0 {
            trs += g.screened / n;
            screen_time += per_pass;
        }
    }
    Typical {
        wall,
        screen_rate: ratio(trs, screen_time),
    }
}

/// The store key `mtk serve` files a request under: the request-record
/// tag plus the compact JSON of the canonical design and every
/// result-determining option (the server's defaults filled in).
fn request_key(req: &JsonValue, canonical: String) -> Vec<u8> {
    let num = |k: &str, default: f64| req.get(k).and_then(JsonValue::as_f64).unwrap_or(default);
    let cmd = req.get("cmd").and_then(JsonValue::as_str).unwrap_or("");
    let obj = JsonValue::Object(vec![
        ("cmd".into(), JsonValue::String(cmd.into())),
        ("design".into(), JsonValue::String(canonical)),
        ("w_over_l".into(), JsonValue::Number(num("w_over_l", 10.0))),
        ("top_k".into(), JsonValue::Number(num("top_k", 10.0))),
        ("target".into(), JsonValue::Number(num("target", 0.05))),
        ("lo".into(), JsonValue::Number(num("lo", 1.0))),
        ("hi".into(), JsonValue::Number(num("hi", 2000.0))),
        ("stride".into(), JsonValue::Number(num("stride", 1.0))),
        ("samples".into(), JsonValue::Number(num("samples", 256.0))),
        ("top".into(), JsonValue::Number(num("top", 10.0))),
        (
            "clusters".into(),
            JsonValue::Number(num("clusters", 8.0).max(1.0)),
        ),
    ]);
    let mut key = b"req2:".to_vec();
    key.extend_from_slice(obj.to_compact().as_bytes());
    key
}

/// Replays the server-side work of the first pass from outside: each
/// warm request line through `json::parse`, `parse_str`, `to_mtk` and
/// `Store::get` on a reopened handle of the pass's store, and each cold
/// payload through `Store::put` into a scratch store.
fn replay_layers(
    schedule: &Schedule,
    served: &[Served],
    dir: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    tracer.set_id(u64::MAX);
    let root = tracer.begin("replay");
    let store = tracer
        .time("store.open", || Store::open(dir.join("store.log")))
        .map_err(|e| format!("reopen store: {e}"))?;
    let stats = store.stats();
    out.set("store.open_s", tracer.total("store.open"));
    out.set("store.log_bytes", stats.log_bytes as f64);
    out.set(
        "store.puts",
        (stats.live_records + stats.dead_records + stats.conflicting_records) as f64,
    );
    let scratch = Store::open(dir.join("replay.log")).map_err(|e| format!("scratch store: {e}"))?;
    let (mut hits, mut gets) = (0usize, 0usize);
    let mut overheads = Vec::new();
    let mut request_kb = Vec::new();
    for (r, s) in served.iter().enumerate() {
        tracer.set_id(r as u64);
        let line = &schedule.distinct[s.distinct].line;
        request_kb.push(line.len() as f64 / 1024.0);
        match s.cached {
            Some(true) => {
                let t = Instant::now();
                let req = tracer
                    .time("trace.json_parse", || parse(line))
                    .map_err(|e| format!("replay parse: {e}"))?;
                let text = req.get("design").and_then(JsonValue::as_str).unwrap_or("");
                let design = tracer
                    .time("fe.parse", || mtk_fe::parse_str(text, "<request>"))
                    .map_err(|e| format!("replay design: {e}"))?;
                let canonical = tracer.time("fe.to_mtk", || design.to_mtk());
                let key = request_key(&req, canonical);
                let got = tracer.time("store.get", || store.get(&key));
                let in_process = t.elapsed().as_secs_f64();
                gets += 1;
                hits += usize::from(got.is_some());
                overheads.push(s.latency - in_process);
            }
            Some(false) => {
                let payload = format!(
                    "{{{}",
                    s.response
                        .strip_prefix("{\"status\":\"ok\",\"cached\":false,")
                        .unwrap_or("}")
                );
                tracer
                    .time("store.put", || {
                        scratch.put(line.as_bytes(), payload.as_bytes())
                    })
                    .map_err(|e| format!("replay put: {e}"))?;
            }
            None => {}
        }
    }
    tracer.end(root);
    out.set("trace.json_parse_s", tracer.total("trace.json_parse"));
    out.set("trace.json_request_kb", median(&request_kb));
    out.set("fe.parse_s", tracer.total("fe.parse"));
    out.set("fe.to_mtk_s", tracer.total("fe.to_mtk"));
    let us = |name: &str| -> Vec<f64> { tracer.durations(name).iter().map(|d| d * 1e6).collect() };
    out.set("store.put_us_p50", percentile(&us("store.put"), 50.0));
    out.set("store.put_us_p99", percentile(&us("store.put"), 99.0));
    out.set("store.gets", gets as f64);
    out.set("store.get_us_p50", percentile(&us("store.get"), 50.0));
    out.set("store.hit_ratio", ratio(hits as f64, gets as f64));
    out.set("serve.overhead_ms", 1e3 * median(&overheads));
    if hits != gets {
        out.check(Err(format!(
            "replayed store.get found {hits} of {gets} warm request records"
        )));
    }
    Ok(())
}
