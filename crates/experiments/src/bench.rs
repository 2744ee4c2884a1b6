//! Bench lines: a run line that ends in a `metrics` object — the run's
//! build and engine clocks, the engine's phase clocks and counters, its
//! region load, and the spec that replays it. `gossip-sim bench` prints
//! them through the same parser, sweep loop and emitter as `run`
//! ([`sweep_runs`](crate::sweep_runs) with `metrics` on), so a bench line
//! without `wall_ms`, `threads` and `metrics` is its run line.
//!
//! [`run_bench`] and its types time an engine outside the sweep loop; they
//! stay only because `benchmark/layers` calls them.

use crate::spec::{RunClocks, Scenario};
use gossip_core::Partition;
use gossip_sim::SimConfig;
use gossip_telemetry::json::Obj;
use gossip_telemetry::metrics::LoadSummary;
use gossip_telemetry::NoopProbe;

/// The engine's clocks under the name `benchmark/layers` reads; ROADMAP
/// 4(c) deletes it.
pub use gossip_sim::EngineTimings as EnginePhases;

/// The `metrics` object of `one`'s bench line: `build_ms` and `engine_ms`,
/// the engine's `phase_ms` and counters, the `region_load` of its fixed
/// 64-region partition (connections per region under sync, events per
/// region under async), and `spec`, which `grid --spec` replays the line
/// from. Clocks and rates are milliseconds and per-second figures at two
/// decimals.
pub(crate) fn metrics_json(one: &Scenario, clocks: &RunClocks) -> String {
    fn f2(v: f64) -> String {
        format!("{v:.2}")
    }
    let mut phase_ms = Obj::default();
    let mut o = Obj::default();
    o.raw("build_ms", f2(clocks.build_ms))
        .raw("engine_ms", f2(clocks.engine_ms));
    match &clocks.phases {
        EnginePhases::Sync(p) => {
            phase_ms
                .raw("advertise", f2(p.advertise))
                .raw("decide", f2(p.decide))
                .raw("match", f2(p.matching))
                .raw("transfer", f2(p.transfer))
                .raw("drain", f2(p.drain))
                .raw("membership", f2(p.membership));
            o.raw("phase_ms", phase_ms.finish())
                .raw("confined_proposals", p.confined_proposals)
                .raw("boundary_proposals", p.boundary_proposals);
        }
        EnginePhases::Async(s) => {
            phase_ms
                .raw("execute", f2(s.execute))
                .raw("merge", f2(s.merge))
                .raw("sweep", f2(s.sweep));
            o.raw("phase_ms", phase_ms.finish())
                .raw("slices", s.slices)
                .raw("events", s.events)
                .raw("events_per_sec", f2(s.events_per_sec));
        }
    }
    let rl = region_load(one, clocks);
    let mut region_load = Obj::default();
    region_load
        .raw("regions", rl.regions)
        .raw("total", rl.total)
        .raw("min", rl.min)
        .raw("max", rl.max)
        .raw("mean", f2(rl.mean))
        .raw("imbalance", f2(rl.imbalance));
    o.raw("region_load", region_load.finish())
        .str("spec", &one.to_spec())
        .finish()
}

fn region_load(scenario: &Scenario, clocks: &RunClocks) -> LoadSummary {
    let regions = Partition::of(scenario.nodes).regions;
    clocks.phases.region_load().summary(regions)
}

/// A scenario and a round budget for [`run_bench`]. Kept because
/// `benchmark/layers` builds one; ROADMAP 4(c) deletes it.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchScenario {
    pub scenario: Scenario,
    /// The engine runs at most this many rounds.
    pub rounds: usize,
}

/// What [`run_bench`] measured. Kept because `benchmark/layers` reads it;
/// ROADMAP 4(c) deletes it.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    pub rounds_executed: usize,
    pub completed: bool,
    pub total_connections: usize,
    /// Building the scenario's inputs, in milliseconds.
    pub build_ms: f64,
    /// The engine's run, in milliseconds.
    pub wall_ms: f64,
    /// `nodes × rounds` per second of engine time.
    pub node_events_per_sec: f64,
    pub phases: EnginePhases,
    pub region_load: LoadSummary,
}

/// Run `bench.scenario` through `Scenario::run_clocked` for at most
/// `bench.rounds` rounds, no history. Kept because `benchmark/layers`
/// calls it; ROADMAP 4(c) deletes it.
pub fn run_bench(bench: &BenchScenario) -> BenchReport {
    let scenario = &bench.scenario;
    let config = SimConfig {
        max_rounds: bench.rounds,
        record_rounds: false,
    };
    let (result, clocks) = scenario.run_clocked(config, &mut NoopProbe);
    let secs = (clocks.engine_ms / 1e3).max(1e-9);
    BenchReport {
        rounds_executed: result.rounds_executed,
        completed: result.completed,
        total_connections: result.total_connections,
        build_ms: clocks.build_ms,
        wall_ms: clocks.engine_ms,
        node_events_per_sec: (result.rounds_executed * scenario.nodes) as f64 / secs,
        phases: clocks.phases,
        region_load: region_load(scenario, &clocks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::{run_line_json, sweep_runs};
    use crate::spec::{MembershipSpec, ProtocolSpec, ScenarioBuilder, TopologySpec};
    use gossip_dynamics::RejoinPolicy;
    use gossip_telemetry::json::{parse, Value};

    /// Every key of a JSON object in the order it is written, nested
    /// objects flattened as `outer.inner`.
    fn keys_in_order(prefix: &str, value: Value) -> Vec<String> {
        let Value::Obj(members) = value else {
            return vec![prefix.to_string()];
        };
        let mut keys = Vec::new();
        for (key, value) in members {
            let path = match prefix {
                "" => key,
                _ => format!("{prefix}.{key}"),
            };
            keys.extend(keys_in_order(&path, value));
        }
        keys
    }

    /// `scenario`'s bench line, checked to be its run line with the
    /// `metrics` object appended; returns the line and that object's keys.
    fn bench_line(scenario: &Scenario) -> (String, Vec<String>) {
        let run = sweep_runs(scenario, &mut NoopProbe, true).next().unwrap();
        let run_line = run_line_json(&scenario.scenario_id(), &run.result, &run.meta);
        let head = &run_line[..run_line.len() - 1];
        assert!(run.line.starts_with(head), "{}", run.line);
        assert!(run.line[head.len()..].starts_with(",\"metrics\":{"));
        assert!(
            !run.line.contains('\n'),
            "bench output must be line-oriented"
        );
        let line = parse(&run.line).expect("a bench line is JSON");
        let metrics = line.get("metrics").unwrap().clone();
        (run.line, keys_in_order("", metrics))
    }

    /// The metrics keys: the engine's `phases` under `phase_ms`, then its
    /// `counters`, between the clocks and the region load.
    fn metrics_keys(phases: &str, counters: &str) -> Vec<String> {
        let words = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let phases = words(phases).into_iter().map(|p| format!("phase_ms.{p}"));
        let tail = "region_load.regions region_load.total region_load.min region_load.max \
                    region_load.mean region_load.imbalance spec";
        [
            words("build_ms engine_ms"),
            phases.collect(),
            words(counters),
            words(tail),
        ]
        .concat()
    }

    #[test]
    fn bench_runs_end_to_end_and_reports_throughput() {
        let scenario = ScenarioBuilder::new()
            .nodes(2000)
            .protocol(ProtocolSpec::Advert)
            .max_rounds(32)
            .seed(5)
            .finish()
            .unwrap();
        let (line, keys) = bench_line(&scenario);
        assert_eq!(
            keys,
            metrics_keys(
                "advertise decide match transfer drain membership",
                "confined_proposals boundary_proposals"
            )
        );
        for key in [
            "\"scenario_id\":\"ring-advert-sync-n2000-k1-cap32-s5\"",
            "\"rounds_executed\":32",
            "\"drain\":0.00,\"membership\":0.00}",
            "\"region_load\":{\"regions\":63,",
            "\"spec\":\"[scenario]\\ntopology = ring\\nnodes = 2000\\n",
        ] {
            assert!(line.contains(key), "bench line missing {key}: {line}");
        }

        let report = run_bench(&BenchScenario {
            scenario,
            rounds: 32,
        });
        assert_eq!(report.rounds_executed, 32, "budget-capped, far from done");
        assert!(!report.completed);
        assert!(report.node_events_per_sec > 0.0);
        assert!(matches!(report.phases, EnginePhases::Sync(_)));
        // Every connection lands in exactly one region tally.
        assert_eq!(report.region_load.total, report.total_connections as u64);
        assert_eq!(report.region_load.regions, 63, "2000 nodes -> 63 regions");
    }

    #[test]
    fn async_bench_reports_slice_phases_and_event_throughput() {
        let scenario = ScenarioBuilder::new()
            .nodes(2000)
            .protocol(ProtocolSpec::Advert)
            .async_scheduler(gossip_core::time::TimingConfig::default())
            .max_rounds(32)
            .seed(5)
            .finish()
            .unwrap();
        let (line, keys) = bench_line(&scenario);
        assert_eq!(
            keys,
            metrics_keys("execute merge sweep", "slices events events_per_sec")
        );
        let metrics = parse(&line).unwrap().get("metrics").unwrap().clone();
        let count = |key: &str| metrics.get(key).and_then(Value::as_u64).unwrap();
        assert!(count("slices") > 0);
        assert!(count("events") > 0, "a capped run still executes events");
        // Region pops account for every event except serial sweep
        // executions.
        let load = metrics.get("region_load").unwrap();
        let total = load.get("total").and_then(Value::as_u64).unwrap();
        assert!(total > 0 && total <= count("events"));
    }

    #[test]
    fn bench_runs_the_scenario_it_stamps_dynamics_and_membership_included() {
        // A bench line carries the scenario's id, so it must have run that
        // scenario: churn and the overlay on, not a static full-view run
        // of the same topology.
        let churned = ScenarioBuilder::new()
            .topology(TopologySpec::Rgg { radius: None })
            .nodes(600)
            .protocol(ProtocolSpec::Advert)
            .churn(0.05, RejoinPolicy::Keep)
            .membership(MembershipSpec::HyParView {
                active: 5,
                passive: 30,
                shuffle_period: 1,
                probe_period: 1,
            })
            .max_rounds(10)
            .seed(42);
        for scenario in [
            churned.clone().finish().unwrap(),
            churned
                .async_scheduler(gossip_core::time::TimingConfig::default())
                .finish()
                .unwrap(),
        ] {
            let result = scenario.run();
            assert!(result.dynamics.is_some() && result.membership.is_some());
            let (line, _) = bench_line(&scenario);
            let phase_ms = parse(&line).unwrap().get("metrics").unwrap().clone();
            let phase_ms = phase_ms.get("phase_ms").unwrap();
            // The drain and the overlay tick are clocked: under sync in
            // their own phases, under async in the serial sweep.
            let clocked: Vec<&Value> = ["drain", "membership", "sweep"]
                .iter()
                .filter_map(|phase| phase_ms.get(phase))
                .collect();
            assert!(!clocked.is_empty(), "{line}");
            assert!(clocked.iter().all(|ms| **ms != Value::Num(0.0)), "{line}");
            let report = run_bench(&BenchScenario {
                scenario: scenario.clone(),
                rounds: 10,
            });
            assert_eq!(
                (
                    report.rounds_executed,
                    report.total_connections,
                    report.completed
                ),
                (
                    result.rounds_executed,
                    result.total_connections,
                    result.completed
                ),
                "{}",
                scenario.scenario_id()
            );
        }
    }
}
