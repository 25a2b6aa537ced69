//! The two front doors run one job runner: `mtk screen|size|cluster|
//! hybrid` and `mtk client` → `mtk serve` build the same job from the
//! same flags, so
//!
//! * the CLI's `--trace-deterministic` JSON equals the `trace` of the
//!   serve response for the same job, on an exhaustive golden and a
//!   sampled one;
//! * `mtk client size --clusters N` asks for the cluster job, as
//!   `mtk size --clusters N` runs it;
//! * `mtk client hybrid --clusters N` is a labelled usage error, since
//!   serve has no clustered hybrid job.

use mtk_bench::serve::{ServeConfig, Server};
use mtk_trace::json::{parse, JsonValue};
use std::path::PathBuf;
use std::process::{Command, Output};

fn mtk(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mtk"))
        .args(args)
        .output()
        .expect("spawn mtk")
}

fn golden(stem: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(format!("{stem}.mtk"))
        .to_string_lossy()
        .into_owned()
}

/// Starts an in-memory server on an ephemeral port; the returned
/// address serves until the process exits.
fn serve() -> String {
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    std::thread::spawn(move || server.run().expect("run"));
    addr
}

/// `mtk client <addr> <args>`'s response, parsed; the client must exit 0.
fn client(addr: &str, args: &[&str]) -> JsonValue {
    let mut argv = vec!["client", addr];
    argv.extend_from_slice(args);
    let out = mtk(&argv);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?}: {stdout} {}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse(stdout.trim()).expect("response parses")
}

#[test]
fn cli_trace_equals_the_serve_trace_for_every_job() {
    let addr = serve();
    let json = std::env::temp_dir().join(format!("mtk_front_doors_{}.json", std::process::id()));
    let json = json.to_str().unwrap();
    let jobs: [(&str, &[&str]); 4] = [
        ("screen", &["--top", "3"]),
        ("size", &["--target", "0.08"]),
        ("cluster", &["--clusters", "4"]),
        ("hybrid", &["--top-k", "1"]),
    ];
    // adder3 has an exhaustive (strided) transition space; rand8x40 has
    // too many inputs and runs a seeded random sample.
    for (stem, space) in [
        ("adder3", ["--stride", "16"]),
        ("rand8x40", ["--samples", "24"]),
    ] {
        let path = golden(stem);
        for (cmd, flags) in jobs {
            let mut args = vec![cmd, path.as_str()];
            args.extend_from_slice(&space);
            args.extend_from_slice(flags);
            let mut cli = args.clone();
            cli.extend_from_slice(&["--trace-deterministic", "--trace-json", json]);
            let out = mtk(&cli);
            assert_eq!(
                out.status.code(),
                Some(0),
                "{args:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let cli_trace = parse(&std::fs::read_to_string(json).unwrap()).expect("trace parses");
            let response = client(&addr, &args);
            assert_eq!(
                response.get("trace"),
                Some(&cli_trace),
                "{args:?}: CLI and serve traces differ"
            );
        }
    }
    let _ = std::fs::remove_file(json);
}

#[test]
fn client_size_with_clusters_runs_the_cluster_job() {
    let addr = serve();
    let path = golden("adder3");
    let flags = ["--stride", "16", "--clusters", "2"];
    let mut size = vec!["size", path.as_str()];
    size.extend_from_slice(&flags);
    let mut cluster = vec!["cluster", path.as_str()];
    cluster.extend_from_slice(&flags);
    let via_size = client(&addr, &size);
    let result = via_size.get("result").expect("result");
    assert!(
        result.get("clustered_width").is_some(),
        "size --clusters must answer with the cluster job: {result:?}"
    );
    assert_eq!(
        result,
        client(&addr, &cluster).get("result").expect("result"),
        "size --clusters and cluster are one job"
    );
}

#[test]
fn client_hybrid_with_clusters_is_a_labelled_error() {
    let addr = serve();
    let path = golden("adder3");
    let out = mtk(&["client", &addr, "hybrid", &path, "--clusters", "2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("error: hybrid --clusters runs only locally"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "no request may be sent");
}
