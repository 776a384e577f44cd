//! The real binary, end to end, in smoke mode: every workload's untraced
//! pass and the hub's traced pass. Seconds, not minutes — it checks that a
//! run serves correct outputs, prints a well-formed result line with the
//! contract's keys and tags itself `smoke`; it measures nothing.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] =
    ["small_inproc_d4", "small_inproc_d1", "vgg_inproc_d2", "small_tcp_d4"];

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(format!("smoke-test-{tag}"))
}

/// Run the binary in smoke mode; return its last stdout line and run document.
fn smoke(workload: &str, trace: &str) -> (String, String) {
    let dir = out_dir(&format!("{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perf-ledger"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "28", "--trace", trace])
        .arg("--smoke")
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("run perf-ledger");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let line = stdout.lines().last().expect("a result line").to_string();
    let doc = std::fs::read_to_string(dir.join(format!("{workload}.trace{trace}.json")))
        .expect("run document");
    let _ = std::fs::remove_dir_all(&dir);
    (line, doc)
}

#[test]
fn every_workload_serves_correct_outputs() {
    for w in WORKLOADS {
        let (line, doc) = smoke(w, "0");
        assert!(line.starts_with("{\"correct\":true,\"attempted\":"), "{w}: {line}");
        assert!(
            line.contains("\"failed\":0,\"metrics\":{\"images_per_s\":{\"value\":"),
            "{w}: {line}"
        );
        for metric in ["latency_p50_ms", "wire_bytes_per_image", "peak_rss_mb", "setup_s"] {
            assert!(line.contains(&format!("\"{metric}\":{{\"value\":")), "{w}: no {metric}");
        }
        assert!(
            doc.contains("\"mode\":\"smoke\"") && doc.contains("\"clock\":\"wall\""),
            "{w}: {doc}"
        );
    }
}

#[test]
fn the_traced_pass_reports_every_layer() {
    let (line, doc) = smoke("small_inproc_d4", "1");
    assert!(line.starts_with("{\"correct\":true,"), "{line}");
    assert!(line.contains("\"failed\":0,"), "{line}");
    for metric in
        ["tensor.gemm.gflops", "runtime.worker.cpu_share", "core.obs.trace_overhead_share"]
    {
        assert!(line.contains(&format!("\"{metric}\":{{\"value\":")), "no {metric}");
    }
    assert!(!line.contains("images_per_s\":{"), "a traced run prints no end-to-end metric");
    assert!(doc.contains("\"span_self_time\"") && doc.contains("\"mode\":\"smoke\""));
}
