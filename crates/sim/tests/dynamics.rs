//! Dynamic-topology tests across both schedulers: scripted mutation
//! sequences pin the boundary semantics, and the churn / fading /
//! waypoint models are exercised for reproducibility, termination, and
//! accounting invariants.

use gossip_core::time::{TimingConfig, TICKS_PER_ROUND};
use gossip_core::{NodeId, Rng, SimTime, Topology};
use gossip_dynamics::{
    Churn, Dynamics, DynamicsModel, EdgeFading, Mutation, MutationKind, MutationStream,
    RejoinPolicy, Waypoint, DEFAULT_SPEED_PER_ROUND,
};
use gossip_protocols::Protocol;
use gossip_sim::{random_sources, RunInputs, Scheduler, SimConfig, SimResult};
use gossip_telemetry::NoopProbe;

/// A fixed, pre-scripted mutation sequence — the deterministic harness
/// for pinning exactly when each scheduler applies a mutation.
#[derive(Clone)]
struct Script(Vec<Mutation>);

impl Script {
    fn depart(ticks: u64, node: u32) -> Mutation {
        Mutation {
            time: SimTime(ticks),
            kind: MutationKind::Depart(NodeId(node)),
        }
    }

    fn rejoin(ticks: u64, node: u32, reset: bool) -> Mutation {
        Mutation {
            time: SimTime(ticks),
            kind: MutationKind::Rejoin {
                node: NodeId(node),
                reset_messages: reset,
            },
        }
    }
}

impl DynamicsModel for Script {
    fn name(&self) -> String {
        "script".to_string()
    }
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }
    fn stream(self: Box<Self>, _topology: &Topology, _seed: u64) -> Box<dyn MutationStream> {
        Box::new(ScriptStream(self.0.into()))
    }
}

struct ScriptStream(std::collections::VecDeque<Mutation>);

impl MutationStream for ScriptStream {
    fn peek_time(&self) -> Option<SimTime> {
        self.0.front().map(|m| m.time)
    }
    fn next(&mut self) -> Option<Mutation> {
        self.0.pop_front()
    }
}

fn schedulers() -> [Scheduler; 2] {
    [
        Scheduler::Sync { threads: 1 },
        Scheduler::Async {
            timing: TimingConfig::default(),
            threads: 1,
        },
    ]
}

fn run_dynamic(
    scheduler: &Scheduler,
    topo: &Topology,
    dynamics: &(impl DynamicsModel + Clone + 'static),
    protocol: Protocol,
    k: usize,
    seed: u64,
) -> SimResult {
    let mut rng = Rng::new(seed ^ 0xfeed);
    let sources = random_sources(topo.num_nodes(), k, &mut rng);
    let cfg = SimConfig {
        max_rounds: 60 * topo.num_nodes() + 200,
        record_rounds: true,
    };
    scheduler.run(
        RunInputs {
            dynamics: Some(Box::new(dynamics.clone())),
            ..RunInputs::new(topo.clone(), protocol, &sources, seed, cfg)
        },
        &mut NoopProbe,
    )
}

fn assert_result_invariants(result: &SimResult) {
    assert_eq!(
        result.total_connections,
        result.productive_connections + result.wasted_connections
    );
    let stats = result.dynamics.as_ref().expect("dynamic run carries stats");
    assert!(stats.min_alive <= stats.peak_alive);
    assert!(stats.peak_alive <= result.nodes);
    assert!(stats.final_alive <= stats.peak_alive);
    assert!(stats.final_alive >= stats.min_alive);
    let timeline = &stats.coverage_timeline;
    assert!(!timeline.is_empty(), "timeline always has its t=0 anchor");
    assert_eq!(timeline[0].time, 0);
    assert_eq!(timeline[0].alive, result.nodes);
    assert!(timeline.windows(2).all(|w| w[0].time <= w[1].time));
    assert!(timeline
        .iter()
        .all(|p| p.informed_alive <= p.alive && p.alive <= result.nodes));
    if result.completed {
        assert_eq!(result.complete_nodes, stats.final_alive);
        assert!(stats.final_alive > 0, "empty networks cannot complete");
    }
}

#[test]
fn sync_applies_mutations_at_the_boundary_opening_their_round() {
    // advert on line(2) deterministically connects 0 -> 1 in round 1.
    let topo = Topology::line(2);
    let sources = [NodeId(0)];
    let cfg = SimConfig::default();

    // A departure anywhere inside round 1's window [0, 1024) lands before
    // round 1 runs: node 1 is gone, the survivor covers the network, and
    // gossip is complete at round 0.
    let early = Script(vec![Script::depart(1023, 1)]);
    let result = Scheduler::Sync { threads: 1 }.run(
        RunInputs {
            dynamics: Some(Box::new(early)),
            ..RunInputs::new(topo.clone(), Protocol::Advert, &sources, 7, cfg)
        },
        &mut NoopProbe,
    );
    assert!(result.completed);
    assert_eq!(result.rounds_to_completion, Some(0));
    assert_eq!(result.complete_nodes, 1);

    // One tick later the departure belongs to round 2's window, so round
    // 1 still runs on the full line and completes gossip first.
    let late = Script(vec![Script::depart(1024, 1)]);
    let result = Scheduler::Sync { threads: 1 }.run(
        RunInputs {
            dynamics: Some(Box::new(late)),
            ..RunInputs::new(topo.clone(), Protocol::Advert, &sources, 7, cfg)
        },
        &mut NoopProbe,
    );
    assert!(result.completed);
    assert_eq!(result.rounds_to_completion, Some(1));
    assert_eq!(result.complete_nodes, 2);
}

#[test]
fn a_boundary_draining_only_no_ops_does_not_complete() {
    // line(3) with the middle node gone from tick 0: node 2 is cut off
    // from the source for good, so gossip never completes. Later
    // boundaries drain only no-ops (a second departure of node 1, an
    // `EdgeUp` of an edge that never faded); each is a drained mutation,
    // and neither may complete the incomplete network.
    let topo = Topology::line(3);
    let script = Script(vec![
        Script::depart(0, 1),
        Script::depart(3 * TICKS_PER_ROUND + 5, 1),
        Mutation {
            time: SimTime(5 * TICKS_PER_ROUND),
            kind: MutationKind::EdgeUp(NodeId(0), NodeId(1)),
        },
    ]);
    let cfg = SimConfig {
        max_rounds: 10,
        ..SimConfig::default()
    };
    for scheduler in schedulers() {
        let result = scheduler.run(
            RunInputs {
                dynamics: Some(Box::new(script.clone())),
                ..RunInputs::new(topo.clone(), Protocol::Advert, &[NodeId(0)], 5, cfg)
            },
            &mut NoopProbe,
        );
        assert!(!result.completed, "{}: completed", scheduler.name());
        assert_eq!(result.rounds_executed, 10, "{}", scheduler.name());
        assert_eq!(result.complete_nodes, 1, "{}", scheduler.name());
        let stats = result.dynamics.expect("stats");
        assert_eq!((stats.departures, stats.edge_ups), (1, 0));
    }
}

#[test]
fn emptied_network_never_completes() {
    let topo = Topology::ring(3);
    let script = Script(vec![
        Script::depart(0, 0),
        Script::depart(0, 1),
        Script::depart(0, 2),
    ]);
    // With nothing left to happen, both engines stop in the round the
    // network emptied, however far off the cap is: a sync run walking to
    // a 2^54-round cap would never return.
    for max_rounds in [50, 1 << 54] {
        let cfg = SimConfig {
            max_rounds,
            ..SimConfig::default()
        };
        for scheduler in schedulers() {
            let result = scheduler.run(
                RunInputs {
                    dynamics: Some(Box::new(script.clone())),
                    ..RunInputs::new(topo.clone(), Protocol::Uniform, &[NodeId(0)], 3, cfg)
                },
                &mut NoopProbe,
            );
            assert!(
                !result.completed,
                "{}: empty network completed",
                scheduler.name()
            );
            assert_eq!(
                result.rounds_executed,
                1,
                "{} cap {max_rounds}",
                scheduler.name()
            );
            assert_eq!(result.complete_nodes, 0);
            let stats = result.dynamics.expect("stats");
            assert_eq!(stats.departures, 3);
            assert_eq!(stats.final_alive, 0);
            assert_eq!(stats.min_alive, 0);
        }
    }
}

#[test]
fn an_async_run_capped_at_the_last_tick_pops_the_events_queued_there() {
    // Every attempt arrives at u64::MAX, and a 2^54-round cap saturates
    // the time cap there too. Churn without rejoins empties the network,
    // so only stale attempts at the last tick remain: the last slice's
    // pass pops them, instead of ~2^64 empty passes that never reach them.
    let timing = TimingConfig {
        min_latency: u64::MAX,
        max_latency: u64::MAX,
        ..TimingConfig::default()
    };
    let model = Dynamics {
        churn: Some(Churn {
            rate: 0.9,
            rejoin: RejoinPolicy::Never,
            mean_downtime: 1.0,
        }),
        ..Dynamics::default()
    };
    let cfg = SimConfig {
        max_rounds: 1 << 54,
        ..SimConfig::default()
    };
    let result = Scheduler::Async { timing, threads: 1 }.run(
        RunInputs {
            dynamics: Some(Box::new(model)),
            ..RunInputs::new(Topology::ring(64), Protocol::Uniform, &[NodeId(0)], 1, cfg)
        },
        &mut NoopProbe,
    );
    assert!(!result.completed);
    assert_eq!(result.virtual_time, u64::MAX);
    assert_eq!(result.rounds_executed, 1 << 54);
    assert_eq!(result.dynamics.expect("stats").final_alive, 0);
}

#[test]
fn gossip_crosses_a_dead_gap_only_after_the_rejoin() {
    // line(3) with the middle node down from the start: the source cannot
    // reach node 2 until node 1 rejoins at round ~10.
    let topo = Topology::line(3);
    let rejoin_ticks = 10 * TICKS_PER_ROUND;
    let script = Script(vec![
        Script::depart(0, 1),
        Script::rejoin(rejoin_ticks, 1, false),
    ]);
    for scheduler in schedulers() {
        let cfg = SimConfig::default();
        let result = scheduler.run(
            RunInputs {
                dynamics: Some(Box::new(script.clone())),
                ..RunInputs::new(topo.clone(), Protocol::Advert, &[NodeId(0)], 11, cfg)
            },
            &mut NoopProbe,
        );
        assert!(result.completed, "{}", scheduler.name());
        assert!(
            result.virtual_time_to_completion.unwrap() > rejoin_ticks,
            "{}: completed before the gap closed",
            scheduler.name()
        );
        assert_eq!(result.complete_nodes, 3);
        let stats = result.dynamics.expect("stats");
        assert_eq!((stats.departures, stats.rejoins), (1, 1));
    }
}

#[test]
fn churn_runs_are_reproducible_and_terminate() {
    let topo = Topology::ring(100);
    let model = Dynamics {
        churn: Some(Churn {
            rate: 0.1,
            rejoin: RejoinPolicy::Keep,
            mean_downtime: 4.0,
        }),
        ..Dynamics::default()
    };
    for scheduler in schedulers() {
        let a = run_dynamic(&scheduler, &topo, &model, Protocol::Advert, 1, 42);
        let b = run_dynamic(&scheduler, &topo, &model, Protocol::Advert, 1, 42);
        assert_eq!(
            a,
            b,
            "{}: same seed must reproduce identically",
            scheduler.name()
        );
        assert_result_invariants(&a);
        let stats = a.dynamics.as_ref().expect("stats");
        assert!(stats.departures > 0, "10% churn must actually churn");
        assert!(stats.rejoins > 0);
        // Different seeds diverge.
        let c = run_dynamic(&scheduler, &topo, &model, Protocol::Advert, 1, 43);
        assert_ne!(
            (a.virtual_time, a.total_connections),
            (c.virtual_time, c.total_connections),
            "{}: seeds should diverge",
            scheduler.name()
        );
    }
}

#[test]
fn churn_with_lose_policy_still_completes() {
    let topo = Topology::complete(24);
    let model = Dynamics {
        churn: Some(Churn {
            rate: 0.05,
            rejoin: RejoinPolicy::Lose,
            mean_downtime: 2.0,
        }),
        ..Dynamics::default()
    };
    for scheduler in schedulers() {
        let result = run_dynamic(&scheduler, &topo, &model, Protocol::Uniform, 2, 9);
        assert!(
            result.completed,
            "{}: losing rejoiners must still re-learn and complete",
            scheduler.name()
        );
        assert_result_invariants(&result);
    }
}

#[test]
fn fading_runs_complete_and_count_edge_events() {
    let topo = Topology::grid(36);
    let model = Dynamics {
        fading: Some(EdgeFading {
            fade_prob: 0.1,
            mean_downtime: 1.0,
        }),
        ..Dynamics::default()
    };
    for scheduler in schedulers() {
        let result = run_dynamic(&scheduler, &topo, &model, Protocol::Advert, 1, 5);
        assert!(
            result.completed,
            "{}: fading stalled the run",
            scheduler.name()
        );
        assert_result_invariants(&result);
        let stats = result.dynamics.as_ref().expect("stats");
        assert!(stats.edge_downs > 0);
        assert_eq!(stats.departures, 0, "fading never kills nodes");
        assert_eq!(stats.peak_alive, 36);
        assert_eq!(stats.min_alive, 36);
    }
}

#[test]
fn waypoint_mobility_completes_on_an_rgg() {
    let mut rng = Rng::new(77);
    let (topo, geometry) = Topology::random_geometric_with_geometry(40, &mut rng);
    let model = Dynamics {
        mobility: Some(Waypoint {
            geometry,
            speed: DEFAULT_SPEED_PER_ROUND,
        }),
        ..Dynamics::default()
    };
    for scheduler in schedulers() {
        let result = run_dynamic(&scheduler, &topo, &model, Protocol::Advert, 1, 13);
        assert!(
            result.completed,
            "{}: mobility stalled the run",
            scheduler.name()
        );
        assert_result_invariants(&result);
        let stats = result.dynamics.as_ref().expect("stats");
        assert!(stats.rewires > 0, "nodes must actually move");
    }
}

#[test]
fn async_severs_connections_whose_endpoints_die() {
    // Aggressive churn with long transfer latencies: some departures must
    // land mid-transfer, and each severed connection is counted without
    // ever corrupting the matcher (the debug asserts in the matcher would
    // fire on any state bug in this test build).
    let topo = Topology::complete(30);
    let model = Dynamics {
        churn: Some(Churn {
            rate: 0.4,
            rejoin: RejoinPolicy::Keep,
            mean_downtime: 1.0,
        }),
        ..Dynamics::default()
    };
    let sched = Scheduler::Async {
        threads: 1,
        timing: TimingConfig {
            min_latency: 512,
            max_latency: 2048,
            ..Default::default()
        },
    };
    let mut severed = 0;
    for seed in 0..5 {
        let result = run_dynamic(&sched, &topo, &model, Protocol::Uniform, 1, seed);
        assert_result_invariants(&result);
        severed += result.dynamics.expect("stats").severed_connections;
    }
    assert!(
        severed > 0,
        "40% churn with ~1-round transfers must sever some connection"
    );
}

#[test]
fn history_rows_stay_consistent_under_churn() {
    let topo = Topology::ring(60);
    let model = Dynamics {
        churn: Some(Churn {
            rate: 0.15,
            rejoin: RejoinPolicy::Keep,
            mean_downtime: 3.0,
        }),
        ..Dynamics::default()
    };
    for scheduler in schedulers() {
        let result = run_dynamic(&scheduler, &topo, &model, Protocol::Uniform, 1, 21);
        let history = result.rounds.as_ref().expect("history requested");
        assert_eq!(
            history.len(),
            result.rounds_executed,
            "{}",
            scheduler.name()
        );
        for (i, row) in history.iter().enumerate() {
            assert_eq!(row.round, i + 1);
            assert!(row.productive <= row.connections);
            assert!(row.complete_nodes <= 60);
        }
        assert_eq!(
            history.iter().map(|r| r.connections).sum::<usize>(),
            result.total_connections,
            "{}",
            scheduler.name()
        );
        assert_eq!(
            history.iter().map(|r| r.productive).sum::<usize>(),
            result.productive_connections,
            "{}",
            scheduler.name()
        );
    }
}
