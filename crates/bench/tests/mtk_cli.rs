//! End-to-end contract of the `mtk` driver binary, through real
//! process invocations:
//!
//! * `mtk lint` exit codes: 0 clean, 1 on findings (0 with
//!   `--warn-only`), 2 on parse errors — with every `LintIssue`
//!   variant exercised through the file-based path and findings
//!   pointing at the offending `.mtk` source line.
//! * Malformed input yields a `file:line:col: error[E0xx]` diagnostic
//!   and exit 2, never a panic.
//! * `mtk screen --trace-deterministic` writes byte-identical JSON at
//!   thread counts 1, 2 and 8 on a golden example.
//! * `mtk gen <stem>` reproduces the checked-in golden file exactly.
//! * A flag with a missing or unparsable value, a sizing bracket with
//!   `lo >= hi`, a sleep W/L that is not finite and positive, or a
//!   target that is not finite and non-negative, is a labelled error
//!   and exit 2.
//! * Each flow command's span covers the wall time of its phases.

use std::path::PathBuf;
use std::process::{Command, Output};

fn mtk(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mtk"))
        .args(args)
        .output()
        .expect("spawn mtk")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Writes a test `.mtk` file under the target tmp dir and returns its
/// path as a string.
fn fixture(name: &str, content: &str) -> String {
    let path = std::env::temp_dir().join(format!("mtk_cli_{}_{name}.mtk", std::process::id()));
    std::fs::write(&path, content).expect("write fixture");
    path.to_string_lossy().into_owned()
}

/// Path of a checked-in golden example (the workspace root is two
/// levels above this crate).
fn golden(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(format!("{stem}.mtk"))
}

const CLEAN: &str = "mtk 1\ncircuit t\nnet a\nnet y\ninput a\ncell g1 inv a -> y\noutput y\nend\n";

#[test]
fn lint_clean_file_exits_zero() {
    let path = fixture("clean", CLEAN);
    let out = mtk(&["lint", &path]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("clean"));
}

#[test]
fn lint_floating_net_exits_one_with_source_line() {
    let src = "mtk 1\ncircuit t\nnet f\nnet y\ncell g1 inv f -> y\noutput y\nend\n";
    let path = fixture("floating", src);
    let out = mtk(&["lint", &path]);
    assert_eq!(out.status.code(), Some(1));
    // `net f` is declared on line 3 of the fixture.
    assert!(
        stdout(&out).contains(":3: warning[floating-net]: floating net 'f'"),
        "stdout: {}",
        stdout(&out)
    );
}

#[test]
fn lint_dangling_net_and_unreachable_cell_exit_one() {
    let src = "mtk 1\ncircuit t\nnet a\nnet m\nnet d\ninput a\ncell g1 inv a -> m\n\
               cell g2 inv a -> d\noutput m\nend\n";
    let path = fixture("dangling", src);
    let out = mtk(&["lint", &path]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(
        text.contains(":5: warning[dangling-net]: dangling net 'd'"),
        "stdout: {text}"
    );
    assert!(
        text.contains(":8: warning[unreachable-cell]: cell 'g2'"),
        "stdout: {text}"
    );
}

#[test]
fn lint_unused_input_exits_one_and_warn_only_downgrades() {
    let src = "mtk 1\ncircuit t\nnet a\nnet b\nnet y\ninput a b\ncell g1 inv a -> y\n\
               output y\nend\n";
    let path = fixture("unused", src);
    let out = mtk(&["lint", &path]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stdout(&out).contains(":4: warning[unused-input]: primary input 'b'"),
        "stdout: {}",
        stdout(&out)
    );
    // --warn-only keeps the findings but downgrades the exit code.
    let out = mtk(&["lint", &path, "--warn-only"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("warning[unused-input]"));
}

#[test]
fn malformed_input_is_a_diagnostic_not_a_panic() {
    // Unknown cell kind, with a "did you mean" hint.
    let src = "mtk 1\ncircuit t\nnet a\nnet y\ninput a\ncell g1 nnad2 a a -> y\noutput y\nend\n";
    let path = fixture("badkind", src);
    let out = mtk(&["lint", &path]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains(":6:9: error[E007]"), "stderr: {err}");
    assert!(err.contains("nand2"), "stderr: {err}");

    // Missing header.
    let path = fixture("badheader", "circuit t\nend\n");
    let out = mtk(&["lint", &path]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("error[E001]"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn missing_file_and_missing_args_exit_two() {
    let out = mtk(&["lint", "/nonexistent/nope.mtk"]);
    assert_eq!(out.status.code(), Some(2));
    let out = mtk(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage"));
    let out = mtk(&["frobnicate", "x.mtk"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bad_flag_values_and_brackets_are_labelled_errors() {
    let path = golden("adder3");
    let path = path.to_str().unwrap();
    let cases: [(&str, &[&str], &str); 10] = [
        (
            "screen",
            &["--threads", "abc"],
            "error: --threads: invalid value 'abc'",
        ),
        (
            "size",
            &["--target", "0.x"],
            "error: --target: invalid value '0.x'",
        ),
        ("screen", &["--stride"], "error: --stride: invalid value ''"),
        (
            "size",
            &["--lo", "5", "--hi", "1"],
            "error: invalid options: sizing bracket",
        ),
        (
            "cluster",
            &["--lo", "5", "--hi", "1"],
            "error: invalid options: sizing bracket",
        ),
        (
            "screen",
            &["--stride", "16", "--w-over-l", "0"],
            "error: invalid options: sleep W/L",
        ),
        (
            "screen",
            &["--stride", "16", "--w-over-l", "nan"],
            "error: invalid options: sleep W/L",
        ),
        (
            "hybrid",
            &["--stride", "16", "--w-over-l", "-1"],
            "error: invalid options: sleep W/L",
        ),
        (
            "size",
            &["--stride", "16", "--target", "nan"],
            "error: invalid options: degradation target",
        ),
        (
            "size",
            &["--stride", "16", "--target", "-1"],
            "error: invalid options: degradation target",
        ),
    ];
    for (cmd, flags, message) in cases {
        let mut args = vec![cmd, path];
        args.extend_from_slice(flags);
        let out = mtk(&args);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(message),
            "{flags:?}: {}",
            stderr(&out)
        );
        assert!(
            !stderr(&out).contains("panicked"),
            "{flags:?}: a bad option must not reach the work items: {}",
            stderr(&out)
        );
    }
}

#[test]
fn each_command_span_covers_its_phases() {
    // Full-mode traces: every flow command wraps its run in a span
    // named after it, so the spans account for the work the phases
    // time instead of being empty begin/end pairs.
    let path = golden("adder3");
    let path = path.to_str().unwrap();
    let json = std::env::temp_dir().join(format!("mtk_cli_{}_spans.json", std::process::id()));
    let json = json.to_str().unwrap();
    let runs: [(&[&str], &[&str]); 6] = [
        (&["screen", "--stride", "16"], &["screen"]),
        (&["size", "--stride", "16"], &["size"]),
        (
            &["cluster", "--stride", "16", "--clusters", "2"],
            &["cluster"],
        ),
        (&["hybrid", "--stride", "16", "--top-k", "1"], &["hybrid"]),
        (
            &[
                "hybrid",
                "--stride",
                "16",
                "--top-k",
                "1",
                "--clusters",
                "2",
            ],
            &["cluster", "hybrid"],
        ),
        (&["mc", "--smoke", "--trials", "8"], &["mc"]),
    ];
    for (argv, span_names) in runs {
        let mut args = vec![argv[0], path];
        args.extend_from_slice(&argv[1..]);
        args.extend_from_slice(&["--trace-json", json]);
        let out = mtk(&args);
        assert_eq!(out.status.code(), Some(0), "{argv:?}: {}", stderr(&out));
        let trace = mtk_trace::json::parse(&std::fs::read_to_string(json).unwrap()).unwrap();
        let timing = trace.get("timing").expect("full-mode timing section");
        let wall = |section: &str| -> Vec<(String, f64)> {
            timing
                .get(section)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|e| {
                    let name = e.get("name").and_then(|n| n.as_str()).unwrap();
                    let wall = e.get("wall_s").and_then(|w| w.as_f64()).unwrap();
                    (name.to_string(), wall)
                })
                .collect()
        };
        let spans = wall("spans");
        let names: Vec<&str> = spans.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, span_names, "{argv:?}");
        let span_s: f64 = spans.iter().map(|(_, w)| w).sum();
        let phase_s: f64 = wall("phases").iter().map(|(_, w)| w).sum();
        assert!(phase_s > 0.0, "{argv:?}: phases record no wall time");
        assert!(
            span_s >= 0.5 * phase_s,
            "{argv:?}: spans cover {span_s} s of {phase_s} s of phase wall time"
        );
    }
    let _ = std::fs::remove_file(json);
}

#[test]
fn flow_commands_accept_a_golden_file() {
    let path = golden("adder3");
    let path = path.to_str().unwrap();
    let out = mtk(&["sta", path]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("critical delay"));
    let out = mtk(&["screen", path, "--stride", "512"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("screened"));
}

#[test]
fn deterministic_screen_trace_is_byte_identical_across_threads() {
    let path = golden("adder3");
    let path = path.to_str().unwrap();
    let mut traces = Vec::new();
    for threads in ["1", "2", "8"] {
        let json = std::env::temp_dir().join(format!(
            "mtk_cli_{}_trace_t{threads}.json",
            std::process::id()
        ));
        let json = json.to_str().unwrap().to_string();
        let out = mtk(&[
            "screen",
            path,
            "--stride",
            "128",
            "--threads",
            threads,
            "--trace-deterministic",
            "--trace-json",
            &json,
        ]);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        traces.push(std::fs::read(&json).expect("trace artifact"));
    }
    assert_eq!(traces[0], traces[1], "threads 1 vs 2");
    assert_eq!(traces[0], traces[2], "threads 1 vs 8");
}

#[test]
fn gen_reproduces_the_checked_in_goldens() {
    let out = mtk(&["gen", "--list"]);
    assert_eq!(out.status.code(), Some(0));
    // Each `--list` line is `<stem>  <description>`; the stem is the
    // first whitespace-separated token.
    let stems: Vec<String> = stdout(&out)
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_string)
        .collect();
    assert!(stems.contains(&"adder3".to_string()));
    for stem in &stems {
        let out = mtk(&["gen", stem]);
        assert_eq!(out.status.code(), Some(0));
        let on_disk = std::fs::read_to_string(golden(stem)).expect("golden file");
        assert_eq!(
            stdout(&out),
            on_disk,
            "{stem}: `mtk gen` and examples/{stem}.mtk diverged — regenerate with `mtk gen --all`"
        );
    }
    let out = mtk(&["gen", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown golden design"));
}
