//! Engine benchmarking over the same typed specs as `run` and `grid`:
//! time the engine over a fixed round budget rather than running to
//! completion, so a 10^6-node topology benches in seconds even though its
//! gossip would take hundreds of thousands of rounds to finish. The
//! scenario's scheduler spec picks the engine: sync specs bench the
//! sharded round loop (per-round phase breakdown), async specs bench the
//! time-sliced event loop (per-slice execute/merge/sweep breakdown plus
//! event throughput).

use crate::spec::Scenario;
use gossip_core::Partition;
use gossip_sim::SimConfig;
use gossip_telemetry::json::Obj;
use gossip_telemetry::metrics::LoadSummary;
use gossip_telemetry::NoopProbe;

use std::time::Instant;

/// The engine-specific half of a [`BenchReport`] — which loop ran and its
/// phase breakdown, in milliseconds — is the engine's own report.
pub use gossip_sim::EngineTimings as EnginePhases;

/// Version of the bench line format, independent of the run/grid
/// [`SCHEMA_VERSION`](crate::emit::SCHEMA_VERSION) (which stays at 1 —
/// run and grid lines are unchanged). Version 2 added the `phase_ms`
/// per-phase timing breakdown; version 3 added the `region_load`
/// balance summary (plus, for sync, the confined/boundary proposal
/// split of the sharded resolver); version 4 appended `drain` and
/// `membership` to the sync line's `phase_ms` (async lines changed only
/// in this stamp); version 5 added `spec`, the scenario's
/// [`to_spec`](Scenario::to_spec) text, which `grid --spec` replays a
/// line from.
pub const BENCH_SCHEMA_VERSION: u64 = 5;

/// One bench invocation: a [`Scenario`] (built by the same
/// [`ScenarioBuilder`](crate::ScenarioBuilder) as every other front-end,
/// so bench configs cannot drift from run configs) plus the round budget.
/// The scenario's scheduler spec picks the engine under the stopwatch —
/// sync benches the round loop, async benches the sliced event loop —
/// and contributes its thread count (and, for async, its timing model).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchScenario {
    pub scenario: Scenario,
    /// Round budget: the engine runs exactly this many rounds (or fewer
    /// if gossip completes first).
    pub rounds: usize,
}

/// Default bench round budget.
pub const DEFAULT_BENCH_ROUNDS: usize = 64;

/// What one bench invocation measured.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    pub scenario_id: String,
    /// The scenario as [`Scenario::to_spec`] writes it: everything needed
    /// to run this bench again, execution knobs included.
    pub spec: String,
    pub topology: String,
    pub nodes: usize,
    pub protocol: String,
    pub messages: usize,
    pub seed: u64,
    /// Worker threads after the [`crate::effective_threads`] clamp.
    pub threads: usize,
    /// The configured round budget.
    pub round_budget: usize,
    /// Rounds the engine actually executed (< budget iff gossip
    /// completed early).
    pub rounds_executed: usize,
    pub completed: bool,
    /// Time to build the topology and the scenario's other inputs
    /// (excluded from throughput).
    pub build_ms: u64,
    /// Wall-clock time of the simulation itself.
    pub wall_ms: u64,
    /// Simulated rounds per second of wall time.
    pub rounds_per_sec: f64,
    /// `nodes × rounds` per second of wall time — the per-node sweep
    /// throughput, comparable across topology sizes.
    pub node_events_per_sec: f64,
    /// Deterministic accounting totals: any serial-vs-parallel (or
    /// build-to-build) divergence shows up as a mismatch here.
    pub total_connections: usize,
    pub productive_connections: usize,
    pub complete_nodes: usize,
    /// Per-phase wall time of whichever engine ran, summed over
    /// rounds (sync) or slice passes (async). The phases account for
    /// essentially all of `wall_ms`; comparing breakdowns across
    /// `--threads` shows which phases a thread count actually buys down.
    pub phases: EnginePhases,
    /// How evenly the engine's fixed 64-region partition was loaded:
    /// connections per region under the sync resolver, events per
    /// region under the sliced event loop. Thread-independent (the
    /// partition is), so imbalance here is a property of the topology,
    /// not of the machine.
    pub region_load: LoadSummary,
}

/// Run one engine benchmark: instantiate the scenario (timed separately)
/// exactly as [`Scenario::run`] would — dynamics and membership overlay
/// included — run its scheduler for the configured round budget (async
/// specs interpret it as the equivalent virtual-time cap), and report
/// throughput plus the deterministic accounting totals.
pub fn run_bench(bench: &BenchScenario) -> BenchReport {
    let scenario = &bench.scenario;
    let threads = scenario.scheduler.effective_threads();

    let building = Instant::now();
    let parts = scenario.instantiate();
    let build_ms = building.elapsed().as_millis() as u64;

    let inputs = parts.inputs(SimConfig {
        max_rounds: bench.rounds,
        record_rounds: false,
    });
    let running = Instant::now();
    let (result, phases) = scenario.engine().run_timed(&inputs, &mut NoopProbe);
    let wall = running.elapsed();

    let secs = wall.as_secs_f64().max(1e-9);
    BenchReport {
        scenario_id: scenario.scenario_id(),
        spec: scenario.to_spec(),
        topology: result.topology.clone(),
        nodes: scenario.nodes,
        protocol: scenario.protocol.name().to_string(),
        messages: scenario.messages,
        seed: scenario.seed,
        threads,
        round_budget: bench.rounds,
        rounds_executed: result.rounds_executed,
        completed: result.completed,
        build_ms,
        wall_ms: wall.as_millis() as u64,
        rounds_per_sec: result.rounds_executed as f64 / secs,
        node_events_per_sec: (result.rounds_executed as f64 * scenario.nodes as f64) / secs,
        total_connections: result.total_connections,
        productive_connections: result.productive_connections,
        complete_nodes: result.complete_nodes,
        phases,
        region_load: phases
            .region_load()
            .summary(Partition::of(scenario.nodes).regions),
    }
}

/// Serialize a bench report as one JSON line, shaped for appending to
/// `BENCH_*.json` trajectory files. Versioned by [`BENCH_SCHEMA_VERSION`],
/// stamped with the same `scenario_id` as run/grid lines, and replayable
/// from its own `spec` field.
pub fn bench_to_json(report: &BenchReport) -> String {
    /// A clock or rate at the bench line's two-decimal resolution.
    fn f2(v: f64) -> String {
        format!("{v:.2}")
    }
    let bench = match report.phases {
        EnginePhases::Sync(_) => "sync_round_loop",
        EnginePhases::Async(_) => "async_event_loop",
    };
    let mut phase_ms = Obj::default();
    let mut o = Obj::default();
    o.raw("schema", BENCH_SCHEMA_VERSION)
        .str("bench", bench)
        .str("scenario_id", &report.scenario_id)
        .str("spec", &report.spec)
        .str("topology", &report.topology)
        .raw("nodes", report.nodes)
        .str("protocol", &report.protocol)
        .raw("messages", report.messages)
        .raw("seed", report.seed)
        .raw("threads", report.threads)
        .raw("round_budget", report.round_budget)
        .raw("rounds_executed", report.rounds_executed)
        .raw("completed", report.completed)
        .raw("build_ms", report.build_ms)
        .raw("wall_ms", report.wall_ms);
    match &report.phases {
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
    let rl = &report.region_load;
    let mut region_load = Obj::default();
    region_load
        .raw("regions", rl.regions)
        .raw("total", rl.total)
        .raw("min", rl.min)
        .raw("max", rl.max)
        .raw("mean", f2(rl.mean))
        .raw("imbalance", f2(rl.imbalance));
    o.raw("region_load", region_load.finish())
        .raw("rounds_per_sec", f2(report.rounds_per_sec))
        .raw("node_events_per_sec", f2(report.node_events_per_sec))
        .raw("total_connections", report.total_connections)
        .raw("productive_connections", report.productive_connections)
        .raw("complete_nodes", report.complete_nodes)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MembershipSpec, ProtocolSpec, ScenarioBuilder, TopologySpec};
    use gossip_dynamics::RejoinPolicy;
    use gossip_telemetry::json::{parse, Value};

    /// Every key of a bench line in the order it is written, nested
    /// objects flattened as `outer.inner`.
    fn keys_in_order(line: &str) -> Vec<String> {
        let Value::Obj(members) = parse(line).expect("a bench line is JSON") else {
            panic!("a bench line is an object: {line}");
        };
        let mut keys = Vec::new();
        for (key, value) in members {
            match value {
                Value::Obj(inner) => keys.extend(inner.iter().map(|(k, _)| format!("{key}.{k}"))),
                _ => keys.push(key),
            }
        }
        keys
    }

    /// The schema-5 key list: the engine's `phases` under `phase_ms`, then
    /// its `counters`, in the middle of the keys both engines share.
    fn schema5_keys(phases: &str, counters: &str) -> Vec<String> {
        let head = "schema bench scenario_id spec topology nodes protocol messages seed threads \
                    round_budget rounds_executed completed build_ms wall_ms";
        let tail = "region_load.regions region_load.total region_load.min region_load.max \
                    region_load.mean region_load.imbalance rounds_per_sec node_events_per_sec \
                    total_connections productive_connections complete_nodes";
        let words = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let phases = words(phases).into_iter().map(|p| format!("phase_ms.{p}"));
        [words(head), phases.collect(), words(counters), words(tail)].concat()
    }

    #[test]
    fn bench_runs_end_to_end_and_reports_throughput() {
        let bench = BenchScenario {
            scenario: ScenarioBuilder::new()
                .nodes(2000)
                .protocol(ProtocolSpec::Advert)
                .seed(5)
                .finish()
                .unwrap(),
            rounds: 32,
        };
        let report = run_bench(&bench);
        assert_eq!(report.rounds_executed, 32, "budget-capped, far from done");
        assert!(!report.completed);
        assert!(report.rounds_per_sec > 0.0);
        assert!(report.node_events_per_sec >= report.rounds_per_sec);
        // The accounting totals are seed-deterministic run to run — this
        // is the divergence check the CI smoke job performs across thread
        // counts.
        let again = run_bench(&bench);
        assert_eq!(report.total_connections, again.total_connections);
        assert_eq!(report.productive_connections, again.productive_connections);
        assert_eq!(report.complete_nodes, again.complete_nodes);

        assert!(matches!(report.phases, EnginePhases::Sync(_)));
        // Every connection lands in exactly one region tally.
        assert_eq!(report.region_load.total, report.total_connections as u64);
        assert_eq!(report.region_load.regions, 63, "2000 nodes -> 63 regions");
        let json = bench_to_json(&report);
        for key in [
            "\"schema\":5",
            "\"bench\":\"sync_round_loop\"",
            "\"scenario_id\":\"ring-advert-sync-n2000-k1-s5\"",
            "\"spec\":\"[scenario]\\ntopology = ring\\nnodes = 2000\\n",
            "\"topology\":\"ring\"",
            "\"nodes\":2000",
            "\"threads\":1",
            "\"round_budget\":32",
            "\"rounds_executed\":32",
            "\"phase_ms\":{\"advertise\":",
            "\"decide\":",
            "\"match\":",
            "\"transfer\":",
            "\"drain\":0.00,\"membership\":0.00}",
            "\"confined_proposals\":",
            "\"boundary_proposals\":",
            "\"region_load\":{\"regions\":63,",
            "\"imbalance\":",
            "\"rounds_per_sec\":",
            "\"node_events_per_sec\":",
            "\"wall_ms\":",
            "\"build_ms\":",
            "\"total_connections\":",
        ] {
            assert!(json.contains(key), "bench JSON missing {key}: {json}");
        }
        assert!(!json.contains('\n'), "bench output must be line-oriented");
        assert_eq!(
            keys_in_order(&json),
            schema5_keys(
                "advertise decide match transfer drain membership",
                "confined_proposals boundary_proposals"
            )
        );
    }

    #[test]
    fn async_bench_reports_slice_phases_and_event_throughput() {
        let scenario = ScenarioBuilder::new()
            .nodes(2000)
            .protocol(ProtocolSpec::Advert)
            .async_scheduler(gossip_core::time::TimingConfig::default())
            .seed(5)
            .finish()
            .unwrap();
        let bench = BenchScenario {
            scenario,
            rounds: 32,
        };
        let report = run_bench(&bench);
        assert!(!report.completed, "budget-capped, far from done");
        let EnginePhases::Async(slice) = report.phases else {
            panic!("async spec must bench the sliced event loop");
        };
        assert!(slice.slices > 0);
        assert!(slice.events > 0, "a capped run still executes events");
        assert!(slice.events_per_sec > 0.0);
        // Accounting totals are seed-deterministic run to run — the same
        // divergence check CI performs across async thread counts.
        let again = run_bench(&bench);
        assert_eq!(report.total_connections, again.total_connections);
        assert_eq!(report.complete_nodes, again.complete_nodes);

        // Region pops account for every event except serial sweep
        // executions.
        assert!(report.region_load.total <= slice.events);
        assert!(report.region_load.total > 0);

        let json = bench_to_json(&report);
        for key in [
            "\"schema\":5",
            "\"bench\":\"async_event_loop\"",
            "\"phase_ms\":{\"execute\":",
            "\"merge\":",
            "\"sweep\":",
            "\"slices\":",
            "\"events\":",
            "\"events_per_sec\":",
            "\"region_load\":{\"regions\":63,",
        ] {
            assert!(json.contains(key), "async bench JSON missing {key}: {json}");
        }
        assert!(!json.contains('\n'), "bench output must be line-oriented");
        assert_eq!(
            keys_in_order(&json),
            schema5_keys("execute merge sweep", "slices events events_per_sec")
        );
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
            let report = run_bench(&BenchScenario {
                scenario: scenario.clone(),
                rounds: 10,
            });
            assert_eq!(report.scenario_id, scenario.scenario_id());
            if let EnginePhases::Sync(p) = report.phases {
                assert!(p.drain > 0.0 && p.membership > 0.0, "{p:?}");
            }
            assert_eq!(
                (
                    report.rounds_executed,
                    report.total_connections,
                    report.productive_connections,
                    report.complete_nodes,
                ),
                (
                    result.rounds_executed,
                    result.total_connections,
                    result.productive_connections,
                    result.complete_nodes,
                ),
                "{}",
                report.scenario_id
            );
        }
    }
}
