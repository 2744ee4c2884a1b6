//! Both passes, every workload, end to end at the `--smoke` size: the
//! harness builds `gossip-sim` and the layer package, runs the real
//! binary, and has to find every output correct.

use gossip_benchmark::metrics::{END_TO_END, PER_LAYER};
use gossip_benchmark::workload::WORKLOADS;
use std::path::Path;
use std::process::Command;

fn harness(args: &[&str]) -> (bool, String) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root");
    let out = Command::new(env!("CARGO_BIN_EXE_gossip-benchmark"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("harness runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// One test, so the two invocations never write the same span file at
/// the same time.
#[test]
fn smoke_size_exercises_both_passes_and_the_driver_protocol() {
    every_workload_both_passes();
    driver_protocol_prints_every_metric_on_the_last_line();
}

fn every_workload_both_passes() {
    let (ok, stdout) = harness(&["--smoke"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("all outputs correct"), "{stdout}");
    assert!(!stdout.contains("ERROR"), "{stdout}");
    assert_eq!(
        stdout.matches("matches the pinned value").count(),
        WORKLOADS.len(),
        "smoke fingerprints are pinned for the default seed"
    );
    for workload in WORKLOADS {
        assert!(
            stdout.contains(&format!("workload {}  [end to end", workload.name)),
            "{stdout}"
        );
        assert!(
            stdout.contains(&format!(
                "workload {}  [traced pass, in process",
                workload.name
            )),
            "{stdout}"
        );
        let spans = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/trace-{}.jsonl", workload.name));
        let text = std::fs::read_to_string(&spans).expect("one span file per workload");
        assert!(
            text.starts_with("{\"stamp\":\"logical cores "),
            "span files are stamped"
        );
        let root = text.lines().nth(1).expect("at least the root span");
        assert!(
            root.starts_with(&format!(
                "{{\"id\":0,\"parent\":null,\"name\":\"benchmark.{}\"",
                workload.name
            )),
            "{root}"
        );
        assert!(text.contains("\"name\":\"benchmark.pipeline\""));
    }
}

fn driver_protocol_prints_every_metric_on_the_last_line() {
    let (ok, stdout) = harness(&[
        "--smoke",
        "--workload",
        "grid-pool",
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    let last = stdout.lines().last().unwrap_or_default();
    assert!(
        ok && last
            .starts_with("{\"correct\": true, \"attempted\": 128, \"failed\": 0, \"metrics\": {"),
        "{stdout}"
    );
    for (metric, _) in END_TO_END {
        assert!(
            last.contains(&format!("\"{}\": {{\"value\": ", metric.name)),
            "{last}"
        );
    }
    assert!(
        !last.contains("core.topology"),
        "tracing off prints end-to-end metrics only"
    );

    let (ok, stdout) = harness(&[
        "--smoke",
        "--workload",
        "dyn-rgg-mobile",
        "--seed",
        "7",
        "--trace",
        "1",
    ]);
    let last = stdout.lines().last().unwrap_or_default();
    assert!(ok && last.starts_with("{\"correct\": true, "), "{stdout}");
    for metric in PER_LAYER {
        assert!(
            last.contains(&format!("\"{}\": {{\"value\": ", metric.name)),
            "{} missing from {last}",
            metric.name
        );
    }
    assert!(
        !last.contains("\"wall_s\""),
        "the traced pass prints per-layer metrics only"
    );
}
