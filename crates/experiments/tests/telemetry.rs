//! The determinism-under-observation contract, end to end through the
//! scenario layer: attaching a probe never changes a run's [`SimResult`]
//! (byte-identical with tracing on or off), and the event stream itself is
//! identical at any thread count — for both schedulers, static and
//! churned, and for a sync grid wide enough that its traced matching
//! spans many regions. Plus the trace-schema pin: a small ring run's JSONL
//! trace must match its committed golden file byte for byte.

use gossip_experiments::{Scenario, ScenarioBuilder};
use gossip_telemetry::{MemoryProbe, TraceWriter};

/// `assignments` on a fresh builder, finished.
fn build(assignments: &[(&str, &str)]) -> Scenario {
    let mut builder = ScenarioBuilder::new();
    for (key, value) in assignments {
        builder.set(key, value);
    }
    builder.finish().expect("valid scenario")
}

/// Every scenario the contract quantifies over, at `threads` threads,
/// each with its label. The scheduler × dynamics cube is a 64-node ring:
/// small enough to run in milliseconds, big enough that the async engine
/// shards across several event regions. The grid cell has 4 096 nodes
/// and 100 messages (hashed tags), so its rounds propose across many
/// matching regions and their boundaries while the probe itemizes every
/// transfer.
fn cells(threads: usize) -> Vec<(String, Scenario)> {
    let threads = threads.to_string();
    let mut cells = Vec::new();
    for scheduler in ["sync", "async"] {
        for churn in [false, true] {
            let mut cube = vec![
                ("topology", "ring"),
                ("nodes", "64"),
                ("messages", "4"),
                ("seed", "11"),
                ("protocol", "advert"),
                ("scheduler", scheduler),
                ("threads", &threads),
            ];
            if churn {
                cube.extend([("churn-rate", "0.1"), ("rejoin", "keep")]);
            }
            cells.push((format!("{scheduler}/churn={churn}"), build(&cube)));
        }
    }
    let grid = build(&[
        ("topology", "grid"),
        ("nodes", "4096"),
        ("messages", "100"),
        ("seed", "3"),
        ("protocol", "advert"),
        ("max-rounds", "10"),
        ("history", "true"),
        ("threads", &threads),
    ]);
    cells.push(("sync/grid4096".to_string(), grid));
    cells
}

#[test]
fn results_are_byte_identical_with_the_probe_on_or_off() {
    for threads in [1usize, 8] {
        for (label, s) in cells(threads) {
            let unobserved = s.run();
            let mut probe = MemoryProbe::default();
            let observed = s.run_probed(&mut probe);
            assert_eq!(
                unobserved, observed,
                "{label}/threads={threads}: probing changed the result"
            );
            assert!(
                !probe.events.is_empty(),
                "{label}/threads={threads}: probe saw nothing"
            );
        }
    }
}

#[test]
fn the_event_stream_is_identical_at_any_thread_count() {
    for ((label, serial), (_, sharded)) in cells(1).into_iter().zip(cells(8)) {
        let mut serial_probe = MemoryProbe::default();
        serial.run_probed(&mut serial_probe);
        let mut sharded_probe = MemoryProbe::default();
        sharded.run_probed(&mut sharded_probe);
        assert_eq!(
            serial_probe.events, sharded_probe.events,
            "{label}: trace diverged between 1 and 8 threads"
        );
    }
}

/// Render one full trace (header + events) for the golden scenario.
fn golden_trace(scheduler: &str, threads: usize) -> Vec<u8> {
    let s = build(&[
        ("topology", "ring"),
        ("nodes", "12"),
        ("messages", "2"),
        ("seed", "3"),
        ("protocol", "advert"),
        ("scheduler", scheduler),
        ("threads", &threads.to_string()),
    ]);
    let mut tw = TraceWriter::new(Vec::new());
    tw.begin_run(&s.scenario_id(), s.nodes, s.messages, s.seed);
    s.run_probed(&mut tw);
    tw.into_inner().expect("Vec<u8> writes cannot fail")
}

/// The trace *format* is pinned by a committed golden file: any change to
/// event shapes, field order, or emission order is a schema change and
/// must be made deliberately (bump [`TRACE_SCHEMA_VERSION`]
/// (gossip_telemetry::TRACE_SCHEMA_VERSION) if shapes changed). On a
/// mismatch the fresh trace is written under `CARGO_TARGET_TMPDIR` and the
/// failure prints the `cp` that blesses it.
#[test]
fn small_ring_trace_matches_the_committed_golden_file() {
    let traced = String::from_utf8(golden_trace("sync", 1)).expect("traces are UTF-8");
    let golden = include_str!("golden/trace_ring12_sync.jsonl");
    if traced != golden {
        let fresh =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace_ring12_sync.jsonl");
        std::fs::write(&fresh, &traced).expect("the fresh trace is written");
        assert_eq!(
            traced,
            golden,
            "trace schema drifted from the golden file; bless it:\n  cp {} {}/tests/golden/trace_ring12_sync.jsonl",
            fresh.display(),
            env!("CARGO_MANIFEST_DIR")
        );
    }
}

#[test]
fn trace_bytes_are_identical_across_thread_counts() {
    for scheduler in ["sync", "async"] {
        assert_eq!(
            String::from_utf8_lossy(&golden_trace(scheduler, 1)),
            String::from_utf8_lossy(&golden_trace(scheduler, 8)),
            "{scheduler}: trace bytes diverged between 1 and 8 threads"
        );
    }
}
