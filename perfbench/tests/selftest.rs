//! The benchmark's own tests. They run the tiny mode (shrunken inputs,
//! one pass); run them optimized, from the `perfbench` directory:
//!
//!     cargo test --release --offline

use mtk_perfbench::{checks, run, Config, Workload, END_TO_END, PER_LAYER, WORKLOAD_FIGURES};
use mtk_trace::json::{parse, JsonValue};
use std::path::{Path, PathBuf};
use std::process::Command;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn examples() -> PathBuf {
    manifest_dir().join("../examples")
}

fn out_dir(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"))
}

fn benchmark_json() -> JsonValue {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a BENCHMARK.json metric list.
fn listed(bench: &JsonValue, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Config {
    Config {
        workload,
        seed,
        seconds: 0.0,
        trace,
        tiny: true,
        examples: examples(),
        out_dir: out_dir(&format!("{}-{seed}-{}", workload.name(), u8::from(trace))),
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let bench = benchmark_json();
    assert_eq!(listed(&bench, "end_to_end"), owned(END_TO_END));
    assert_eq!(listed(&bench, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let bench = benchmark_json();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = Command::new(env!("CARGO_BIN_EXE_mtk-perfbench"))
                .current_dir(manifest_dir().join(".."))
                .args(["--workload", workload.name(), "--seed", "3"])
                .args(["--seconds", "1", "--tiny"])
                .args(["--trace", if trace { "1" } else { "0" }])
                .output()
                .expect("benchmark binary runs");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            assert!(out.status.success(), "{}: {stdout}", workload.name());
            let last = stdout.lines().last().expect("a result line");
            let result = parse(last).expect("the last line is JSON");
            let keys: Vec<&str> = result
                .as_object()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(matches!(result.get("correct"), Some(JsonValue::Bool(true))));
            assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
            let metrics = result
                .get("metrics")
                .and_then(JsonValue::as_object)
                .unwrap();
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(JsonValue::as_f64).is_some());
                    let unit = m.get("unit").and_then(JsonValue::as_str).unwrap();
                    (name.clone(), unit.to_string())
                })
                .collect();
            let want = listed(&bench, if trace { "per_layer" } else { "end_to_end" });
            assert_eq!(printed, want, "{} trace={trace}", workload.name());
            // The table above the result line names every metric of the
            // mode (and, untraced, the workload figures) with its unit.
            let mut table = want.clone();
            if !trace {
                table.extend(owned(WORKLOAD_FIGURES));
            }
            for (name, unit) in table {
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&format!("{name} "))
                            && l.ends_with(&format!(" {unit}"))),
                    "{name} [{unit}] missing from the {} table",
                    workload.name()
                );
            }
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for workload in Workload::ALL {
        let outcome = run(&tiny(workload, 5, false)).expect("tiny run");
        assert!(
            outcome.check_failures.is_empty(),
            "{:?}",
            outcome.check_failures
        );
        for (name, _) in END_TO_END {
            let v = outcome.values[name];
            assert!(v.is_finite() && v > 0.0, "{} {name} = {v}", workload.name());
        }
    }
}

#[test]
fn counts_repeat_exactly_for_a_seed() {
    let counts = [
        "vbsim.breakpoints",
        "spice.newton_iterations",
        "sizing.cache_hits",
        "sizing.cache_misses",
        "store.puts",
    ];
    // Which counts each workload must move at all.
    let moved: [(Workload, &[&str]); 3] = [
        (
            Workload::ScreenSize,
            &[
                "vbsim.breakpoints",
                "sizing.cache_hits",
                "sizing.cache_misses",
            ],
        ),
        (
            Workload::HybridVerify,
            &["vbsim.breakpoints", "spice.newton_iterations"],
        ),
        (
            Workload::ServeStore,
            &["vbsim.breakpoints", "sizing.cache_misses", "store.puts"],
        ),
    ];
    for (workload, nonzero) in moved {
        let a = run(&tiny(workload, 9, true)).expect("first traced run");
        let b = run(&tiny(workload, 9, true)).expect("second traced run");
        for name in counts {
            assert_eq!(
                a.values.get(name),
                b.values.get(name),
                "{} {name} differs between runs of one seed",
                workload.name()
            );
        }
        for name in nonzero {
            assert!(a.values[name] > 0.0, "{} {name} is 0", workload.name());
        }
    }
}

#[test]
fn size_checker_rejects_a_flipped_wl_bit() {
    let design = mtk_fe::parse_str(
        &std::fs::read_to_string(examples().join("invtree.mtk")).unwrap(),
        "invtree",
    )
    .unwrap();
    let engine = mtk_core::vbsim::Engine::new(&design.netlist, &design.tech);
    let trs: Vec<_> = design
        .vectors
        .iter()
        .map(|s| mtk_core::sizing::Transition::new(s.from.clone(), s.to.clone()))
        .collect();
    let opts = mtk_core::vbsim::VbsimOptions::default();
    let cache = mtk_core::sizing::ScreeningCache::new();
    let (cached, _) = mtk_core::sizing::size_for_target_cached(
        &engine,
        &trs,
        None,
        0.05,
        (1.0, 2000.0),
        &opts,
        &cache,
    )
    .unwrap();
    let uncached =
        mtk_core::sizing::size_for_target(&engine, &trs, None, 0.05, (1.0, 2000.0), &opts).unwrap();
    assert!(checks::sizes_bit_equal(cached, uncached).is_ok());
    let flipped = f64::from_bits(cached.to_bits() ^ 1);
    assert!(checks::sizes_bit_equal(flipped, uncached).is_err());
}

#[test]
fn warm_checker_rejects_an_altered_response() {
    use mtk_bench::serve::{request, ServeConfig, Server};
    let dir = out_dir("warm-check");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::bind(ServeConfig {
        store_path: Some(dir.join("store.log")),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let thread = std::thread::spawn(move || server.run());
    let text = std::fs::read_to_string(examples().join("invtree.mtk")).unwrap();
    let line = JsonValue::Object(vec![
        ("cmd".into(), JsonValue::String("size".into())),
        ("design".into(), JsonValue::String(text)),
    ])
    .to_compact();
    let timeout = std::time::Duration::from_secs(60);
    let cold = request(&addr, &line, timeout).unwrap();
    let warm = request(&addr, &line, timeout).unwrap();
    request(&addr, r#"{"cmd":"shutdown"}"#, timeout).unwrap();
    thread.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    assert!(checks::warm_matches_cold(&cold, &warm).is_ok());
    // One changed digit in the result.
    let at = warm.find("w_over_l\":").unwrap() + "w_over_l\":".len();
    let mut bytes = warm.clone().into_bytes();
    bytes[at] = if bytes[at] == b'9' { b'8' } else { b'9' };
    let altered = String::from_utf8(bytes).unwrap();
    assert!(checks::warm_matches_cold(&cold, &altered).is_err());
    // A replay that claims to be cold, and a cold reply that claims to be
    // cached.
    assert!(checks::warm_matches_cold(&cold, &cold).is_err());
    assert!(checks::warm_matches_cold(&warm, &warm).is_err());
}

#[test]
fn missing_inputs_exit_nonzero_without_a_result() {
    // A directory without `examples/`, like a checkout holding only the
    // benchmark.
    let dir = out_dir("no-examples");
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_mtk-perfbench"))
        .current_dir(&dir)
        .args(["--workload", "screen_size", "--seed", "1", "--seconds", "1"])
        .args(["--trace", "0"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
