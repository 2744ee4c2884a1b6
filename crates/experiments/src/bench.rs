//! Engine benchmarking over the same typed specs as `run` and `grid`:
//! time the engine over a fixed round budget rather than running to
//! completion, so a 10^6-node topology benches in seconds even though its
//! gossip would take hundreds of thousands of rounds to finish. The
//! scenario's scheduler spec picks the engine: sync specs bench the
//! sharded round loop (per-round phase breakdown), async specs bench the
//! time-sliced event loop (per-slice execute/merge/sweep breakdown plus
//! event throughput).

use crate::emit::{json_num, json_str};
use crate::spec::{Scenario, SchedulerSpec};
use gossip_sim::{AsyncScheduler, SimConfig, SliceTimings, SyncScheduler};
use gossip_telemetry::metrics::{regions_for, LoadSummary, Registry};
use gossip_telemetry::NoopProbe;

use std::time::Instant;

/// Version of the bench line format, independent of the run/grid
/// [`SCHEMA_VERSION`](crate::emit::SCHEMA_VERSION) (which stays at 1 —
/// run and grid lines are unchanged). Version 2 added the `phase_ms`
/// per-phase timing breakdown; version 3 added the `region_load`
/// balance summary (plus, for sync, the confined/boundary proposal
/// split of the sharded resolver); version 4 appended `drain` and
/// `membership` to the sync line's `phase_ms` (async lines changed only
/// in this stamp); version 5 added `spec`, the scenario's
/// [`to_spec`](Scenario::to_spec) text, which is what `soak` replays a
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

/// The engine-specific half of a [`BenchReport`]: which loop ran and its
/// phase breakdown.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EnginePhases {
    /// The sharded synchronous round loop.
    Sync(PhaseMs),
    /// The time-sliced asynchronous event loop.
    Async(SliceMs),
}

impl EnginePhases {
    /// The `"bench"` discriminator stamped on the JSON line.
    pub fn bench_name(&self) -> &'static str {
        match self {
            EnginePhases::Sync(_) => "sync_round_loop",
            EnginePhases::Async(_) => "async_event_loop",
        }
    }
}

/// Per-phase wall-clock milliseconds of the synchronous round loop
/// (engine [`gossip_sim::PhaseTimings`], converted for reporting).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseMs {
    /// Phase 1: advertisement refresh.
    pub advertise: f64,
    /// Phase 2: scan + intent decision.
    pub decide: f64,
    /// Phase 3: connection matching.
    pub matching: f64,
    /// Phase 4: push-pull transfer.
    pub transfer: f64,
    /// Round-boundary mutation drain (0 on a static scenario).
    pub drain: f64,
    /// Membership overlay tick (0 without an overlay).
    pub membership: f64,
    /// Proposals the sharded resolver settled entirely inside one
    /// region, summed over rounds.
    pub confined_proposals: u64,
    /// Proposals deferred to the serial boundary sweep (both endpoints
    /// in different regions) — the serial-fraction instrument.
    pub boundary_proposals: u64,
}

impl From<gossip_sim::PhaseTimings> for PhaseMs {
    fn from(t: gossip_sim::PhaseTimings) -> Self {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        PhaseMs {
            advertise: ms(t.advertise),
            decide: ms(t.decide),
            matching: ms(t.matching),
            transfer: ms(t.transfer),
            drain: ms(t.drain),
            membership: ms(t.membership),
            confined_proposals: t.confined_proposals,
            boundary_proposals: t.boundary_proposals,
        }
    }
}

/// Per-phase wall-clock milliseconds of the time-sliced event loop
/// (engine [`SliceTimings`], converted for reporting), plus its event
/// throughput — the async analogue of rounds/sec, and the number CI and
/// `BENCH_async_*.json` baselines compare across thread counts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SliceMs {
    /// Parallel region execution across all slice passes.
    pub execute: f64,
    /// Serial log merge + accounting replay.
    pub merge: f64,
    /// Serial boundary sweep (cross-region events and mutations).
    pub sweep: f64,
    /// Slice passes taken.
    pub slices: u64,
    /// Events executed (each event counted once, where it ran).
    pub events: u64,
    /// `events / wall seconds` of the simulation.
    pub events_per_sec: f64,
}

impl SliceMs {
    fn new(t: SliceTimings, wall_secs: f64) -> Self {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        SliceMs {
            execute: ms(t.execute),
            merge: ms(t.merge),
            sweep: ms(t.sweep),
            slices: t.slices,
            events: t.events,
            events_per_sec: t.events as f64 / wall_secs.max(1e-9),
        }
    }
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
    let (result, phases, region_load) = match &scenario.scheduler {
        SchedulerSpec::Sync { .. } => {
            let scheduler = SyncScheduler::with_threads(threads);
            let (result, timings) = scheduler.run_timed(&inputs, &mut NoopProbe);
            let load = timings
                .connections_by_region
                .summary(regions_for(scenario.nodes));
            (result, EnginePhases::Sync(timings.into()), load)
        }
        SchedulerSpec::Async { timing, .. } => {
            let scheduler = AsyncScheduler {
                timing: *timing,
                threads,
            };
            let (result, timings) = scheduler.run_timed(&inputs, &mut NoopProbe);
            let secs = running.elapsed().as_secs_f64();
            let load = timings
                .events_by_region
                .summary(regions_for(scenario.nodes));
            (
                result,
                EnginePhases::Async(SliceMs::new(timings, secs)),
                load,
            )
        }
    };
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
        region_load,
    }
}

impl BenchReport {
    /// Flatten this report into a [`Registry`] — the typed metrics view
    /// of a bench line: accounting totals as counters, throughput and
    /// phase times as gauges, the per-region load summary as a
    /// histogram-free counter set. Downstream tools aggregating many
    /// bench runs can merge registries instead of re-parsing JSON.
    pub fn registry(&self) -> Registry {
        let mut reg = Registry::default();
        reg.inc("rounds_executed", self.rounds_executed as u64);
        reg.inc("total_connections", self.total_connections as u64);
        reg.inc("productive_connections", self.productive_connections as u64);
        reg.inc("complete_nodes", self.complete_nodes as u64);
        reg.set_gauge("wall_ms", self.wall_ms as f64);
        reg.set_gauge("rounds_per_sec", self.rounds_per_sec);
        reg.set_gauge("node_events_per_sec", self.node_events_per_sec);
        match &self.phases {
            EnginePhases::Sync(p) => {
                reg.set_gauge("phase_ms.advertise", p.advertise);
                reg.set_gauge("phase_ms.decide", p.decide);
                reg.set_gauge("phase_ms.match", p.matching);
                reg.set_gauge("phase_ms.transfer", p.transfer);
                reg.set_gauge("phase_ms.drain", p.drain);
                reg.set_gauge("phase_ms.membership", p.membership);
                reg.inc("confined_proposals", p.confined_proposals);
                reg.inc("boundary_proposals", p.boundary_proposals);
            }
            EnginePhases::Async(s) => {
                reg.set_gauge("phase_ms.execute", s.execute);
                reg.set_gauge("phase_ms.merge", s.merge);
                reg.set_gauge("phase_ms.sweep", s.sweep);
                reg.inc("slices", s.slices);
                reg.inc("events", s.events);
                reg.set_gauge("events_per_sec", s.events_per_sec);
            }
        }
        reg.inc("region_load.total", self.region_load.total);
        reg.inc("region_load.min", self.region_load.min);
        reg.inc("region_load.max", self.region_load.max);
        reg.set_gauge("region_load.imbalance", self.region_load.imbalance);
        reg
    }
}

/// Serialize a bench report as one JSON line, shaped for appending to
/// `BENCH_*.json` trajectory files. Versioned by [`BENCH_SCHEMA_VERSION`],
/// stamped with the same `scenario_id` as run/grid lines, and replayable
/// from its own `spec` field.
pub fn bench_to_json(report: &BenchReport) -> String {
    let mut out = String::with_capacity(640);
    out.push('{');
    json_num(&mut out, "schema", BENCH_SCHEMA_VERSION);
    out.push(',');
    json_str(&mut out, "bench", report.phases.bench_name());
    out.push(',');
    json_str(&mut out, "scenario_id", &report.scenario_id);
    out.push(',');
    json_str(&mut out, "spec", &report.spec);
    out.push(',');
    json_str(&mut out, "topology", &report.topology);
    out.push(',');
    json_num(&mut out, "nodes", report.nodes as u64);
    out.push(',');
    json_str(&mut out, "protocol", &report.protocol);
    out.push(',');
    json_num(&mut out, "messages", report.messages as u64);
    out.push(',');
    json_num(&mut out, "seed", report.seed);
    out.push(',');
    json_num(&mut out, "threads", report.threads as u64);
    out.push(',');
    json_num(&mut out, "round_budget", report.round_budget as u64);
    out.push(',');
    json_num(&mut out, "rounds_executed", report.rounds_executed as u64);
    out.push(',');
    out.push_str(&format!("\"completed\":{}", report.completed));
    out.push(',');
    json_num(&mut out, "build_ms", report.build_ms);
    out.push(',');
    json_num(&mut out, "wall_ms", report.wall_ms);
    out.push(',');
    match &report.phases {
        EnginePhases::Sync(p) => out.push_str(&format!(
            "\"phase_ms\":{{\"advertise\":{:.2},\"decide\":{:.2},\"match\":{:.2},\"transfer\":{:.2},\
             \"drain\":{:.2},\"membership\":{:.2}}},\
             \"confined_proposals\":{},\"boundary_proposals\":{}",
            p.advertise,
            p.decide,
            p.matching,
            p.transfer,
            p.drain,
            p.membership,
            p.confined_proposals,
            p.boundary_proposals
        )),
        EnginePhases::Async(s) => out.push_str(&format!(
            "\"phase_ms\":{{\"execute\":{:.2},\"merge\":{:.2},\"sweep\":{:.2}}},\
             \"slices\":{},\"events\":{},\"events_per_sec\":{:.2}",
            s.execute, s.merge, s.sweep, s.slices, s.events, s.events_per_sec
        )),
    }
    out.push(',');
    let rl = &report.region_load;
    out.push_str(&format!(
        "\"region_load\":{{\"regions\":{},\"total\":{},\"min\":{},\"max\":{},\"mean\":{:.2},\"imbalance\":{:.2}}}",
        rl.regions, rl.total, rl.min, rl.max, rl.mean, rl.imbalance
    ));
    out.push(',');
    out.push_str(&format!(
        "\"rounds_per_sec\":{:.2},\"node_events_per_sec\":{:.2}",
        report.rounds_per_sec, report.node_events_per_sec
    ));
    out.push(',');
    json_num(
        &mut out,
        "total_connections",
        report.total_connections as u64,
    );
    out.push(',');
    json_num(
        &mut out,
        "productive_connections",
        report.productive_connections as u64,
    );
    out.push(',');
    json_num(&mut out, "complete_nodes", report.complete_nodes as u64);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MembershipSpec, ProtocolSpec, ScenarioBuilder, TopologySpec};
    use gossip_dynamics::RejoinPolicy;

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

        let reg = report.registry();
        assert_eq!(
            reg.counter("total_connections"),
            Some(report.total_connections as u64)
        );
        assert_eq!(
            reg.counter("region_load.total"),
            Some(report.region_load.total)
        );
        assert!(reg.gauge("phase_ms.match").is_some());
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

        let reg = report.registry();
        assert_eq!(reg.counter("events"), Some(slice.events));
        assert!(reg.gauge("events_per_sec").is_some());
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
