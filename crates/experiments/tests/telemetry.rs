//! The determinism-under-observation contract, end to end through the
//! scenario layer: attaching a probe never changes a run's [`SimResult`]
//! (byte-identical with tracing on or off), and the event stream itself is
//! identical at any thread count — for both schedulers, static and
//! churned. Plus the trace-schema pin: a small ring run's JSONL trace must
//! match its committed golden file byte for byte.

use gossip_experiments::{Scenario, ScenarioBuilder};
use gossip_telemetry::{MemoryProbe, TraceWriter};

/// One scenario per point of the scheduler × threads × dynamics cube the
/// contract quantifies over. Small enough to run in milliseconds, big
/// enough that the async engine shards across several event regions.
fn scenario(scheduler: &str, threads: usize, churn: bool) -> Scenario {
    let mut builder = ScenarioBuilder::new();
    builder
        .set("topology", "ring")
        .set("nodes", "64")
        .set("messages", "4")
        .set("seed", "11")
        .set("protocol", "advert")
        .set("scheduler", scheduler)
        .set("threads", &threads.to_string());
    if churn {
        builder.set("churn-rate", "0.1").set("rejoin", "keep");
    }
    builder.finish().expect("valid scenario")
}

#[test]
fn results_are_byte_identical_with_the_probe_on_or_off() {
    for scheduler in ["sync", "async"] {
        for churn in [false, true] {
            for threads in [1usize, 8] {
                let s = scenario(scheduler, threads, churn);
                let unobserved = s.run();
                let mut probe = MemoryProbe::default();
                let observed = s.run_probed(&mut probe);
                assert_eq!(
                    unobserved, observed,
                    "{scheduler}/churn={churn}/threads={threads}: probing changed the result"
                );
                assert!(
                    !probe.events.is_empty(),
                    "{scheduler}/churn={churn}/threads={threads}: probe saw nothing"
                );
            }
        }
    }
}

#[test]
fn the_event_stream_is_identical_at_any_thread_count() {
    for scheduler in ["sync", "async"] {
        for churn in [false, true] {
            let mut serial = MemoryProbe::default();
            scenario(scheduler, 1, churn).run_probed(&mut serial);
            let mut sharded = MemoryProbe::default();
            scenario(scheduler, 8, churn).run_probed(&mut sharded);
            assert_eq!(
                serial.events, sharded.events,
                "{scheduler}/churn={churn}: trace diverged between 1 and 8 threads"
            );
        }
    }
}

/// Render one full trace (header + events) for the golden scenario.
fn golden_trace(scheduler: &str, threads: usize) -> Vec<u8> {
    let mut builder = ScenarioBuilder::new();
    builder
        .set("topology", "ring")
        .set("nodes", "12")
        .set("messages", "2")
        .set("seed", "3")
        .set("protocol", "advert")
        .set("scheduler", scheduler)
        .set("threads", &threads.to_string());
    let s = builder.finish().expect("valid scenario");
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
