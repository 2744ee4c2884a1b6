//! Cross-scheduler tests: the asynchronous event-driven scheduler
//! completes gossip on ring / grid / random-geometric topologies with
//! deterministic virtual-time results for a fixed seed.

use gossip_core::time::{TimingConfig, TICKS_PER_ROUND};
use gossip_core::{Rng, Topology};
use gossip_protocols::Protocol;
use gossip_sim::{random_sources, RunInputs, Scheduler, SimConfig, SimResult};
use gossip_telemetry::NoopProbe;

/// The async engine with default timing, on one worker.
fn default_async() -> Scheduler {
    Scheduler::Async {
        timing: TimingConfig::default(),
        threads: 1,
    }
}

fn run_with(
    scheduler: &Scheduler,
    topo: &Topology,
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
        &RunInputs::new(topo, protocol, &sources, seed, cfg),
        &mut NoopProbe,
    )
}

#[test]
fn async_completes_on_ring_grid_rgg() {
    let n = 64;
    let mut topo_rng = Rng::new(31);
    let topologies = [
        Topology::ring(n),
        Topology::grid(n),
        Topology::random_geometric(n, &mut topo_rng),
    ];
    let sched = default_async();
    for topo in &topologies {
        for proto in [Protocol::Uniform, Protocol::Advert] {
            let result = run_with(&sched, topo, proto, 1, 42);
            assert!(
                result.completed,
                "{} on {} did not complete asynchronously",
                proto.name(),
                topo.name()
            );
            assert_eq!(result.scheduler, "async");
            assert_eq!(result.complete_nodes, n);
            let vt = result
                .virtual_time_to_completion
                .expect("completed run must report a completion time");
            assert!(vt > 0, "completion cannot be instantaneous from 1 source");
            assert_eq!(vt, result.virtual_time);
            // Round equivalents stay consistent with virtual time.
            assert_eq!(
                result.rounds_to_completion.unwrap(),
                vt.div_ceil(TICKS_PER_ROUND) as usize
            );
        }
    }
}

#[test]
fn async_virtual_time_is_deterministic_per_seed() {
    let n = 64;
    let sched = default_async();
    for proto in [Protocol::Uniform, Protocol::Advert] {
        let topo = Topology::grid(n);
        let a = run_with(&sched, &topo, proto, 4, 1234);
        let b = run_with(&sched, &topo, proto, 4, 1234);
        assert_eq!(
            a.virtual_time_to_completion,
            b.virtual_time_to_completion,
            "{} async run must be reproducible",
            proto.name()
        );
        assert_eq!(a.total_connections, b.total_connections);
        assert_eq!(a.productive_connections, b.productive_connections);
        assert_eq!(a.rounds, b.rounds);
        // Different seeds must (generically) produce different executions.
        let c = run_with(&sched, &topo, proto, 4, 4321);
        assert_ne!(
            (a.virtual_time_to_completion, a.total_connections),
            (c.virtual_time_to_completion, c.total_connections),
            "{} async runs with different seeds should diverge",
            proto.name()
        );
    }
}

#[test]
fn async_respects_the_virtual_time_cap() {
    // Two isolated components can never finish 1-gossip; the run must
    // stop at the equivalent virtual-time cap.
    let topo = Topology::from_edges("split", 4, &[(0, 1), (2, 3)]);
    let cfg = SimConfig {
        max_rounds: 25,
        record_rounds: true,
    };
    let sources = [gossip_core::NodeId(0)];
    let result = default_async().run(
        &RunInputs::new(&topo, Protocol::Uniform, &sources, 3, cfg),
        &mut NoopProbe,
    );
    assert!(!result.completed);
    assert!(result.virtual_time <= 25 * TICKS_PER_ROUND);
    assert!(result.rounds_executed <= 25);
    assert_eq!(result.rounds_to_completion, None);
    assert_eq!(result.virtual_time_to_completion, None);
    let history = result.rounds.expect("history requested");
    assert_eq!(history.len(), result.rounds_executed);
}

#[test]
fn async_connection_accounting_is_consistent() {
    let topo = Topology::ring(16);
    let result = run_with(&default_async(), &topo, Protocol::Uniform, 1, 9);
    assert!(result.completed);
    assert_eq!(
        result.total_connections,
        result.productive_connections + result.wasted_connections
    );
    // A productive connection informs at least one new node in a
    // 1-message universe, so reaching the other 15 nodes takes >= 15.
    assert!(result.productive_connections >= 15);
    // History rows are dense, 1-based, and sum to the run totals.
    let history = result.rounds.as_ref().expect("history requested");
    assert_eq!(history.len(), result.rounds_executed);
    for (i, row) in history.iter().enumerate() {
        assert_eq!(row.round, i + 1);
    }
    assert_eq!(
        history.iter().map(|r| r.connections).sum::<usize>(),
        result.total_connections
    );
    assert_eq!(
        history.iter().map(|r| r.productive).sum::<usize>(),
        result.productive_connections
    );
}

#[test]
fn async_history_counts_boundary_events() {
    // Regression: with degenerate timing (no drift, no jitter, fixed
    // latency dividing TICKS_PER_ROUND) transfers can complete at exact
    // round boundaries t = k*TICKS_PER_ROUND. Such an event belongs to
    // round k — the round that *ends* at t — so the history row sums must
    // still equal the run totals (seeds 318/474/1850 reproduced the old
    // off-by-one attribution that dropped the completing connection).
    let timing = TimingConfig {
        drift: 0.0,
        refresh_jitter: 0.0,
        min_latency: 512,
        max_latency: 512,
    };
    let sched = Scheduler::Async { timing, threads: 1 };
    let topo = Topology::ring(8);
    for seed in [318u64, 474, 1850, 1, 2, 3] {
        let result = run_with(&sched, &topo, Protocol::Uniform, 1, seed);
        let history = result.rounds.as_ref().expect("history requested");
        assert_eq!(history.len(), result.rounds_executed, "seed {seed}");
        assert_eq!(
            history.iter().map(|r| r.connections).sum::<usize>(),
            result.total_connections,
            "seed {seed}: boundary event dropped from history"
        );
        assert_eq!(
            history.iter().map(|r| r.productive).sum::<usize>(),
            result.productive_connections,
            "seed {seed}"
        );
    }
}

#[test]
fn async_single_node_completes_instantly() {
    let topo = Topology::complete(1);
    let result = default_async().run(
        &RunInputs::new(
            &topo,
            Protocol::Uniform,
            &[gossip_core::NodeId(0)],
            1,
            SimConfig::default(),
        ),
        &mut NoopProbe,
    );
    assert!(result.completed);
    assert_eq!(result.rounds_to_completion, Some(0));
    assert_eq!(result.virtual_time_to_completion, Some(0));
    assert_eq!(result.total_connections, 0);
}

#[test]
fn async_zero_drift_zero_jitter_still_completes() {
    // Degenerate timing (all clocks perfect, fixed latency) must not
    // deadlock: the staggered start keeps nodes out of phase.
    let timing = TimingConfig {
        drift: 0.0,
        refresh_jitter: 0.0,
        min_latency: 64,
        max_latency: 64,
    };
    let sched = Scheduler::Async { timing, threads: 1 };
    let topo = Topology::ring(32);
    let result = run_with(&sched, &topo, Protocol::Advert, 1, 5);
    assert!(result.completed, "degenerate timing deadlocked the run");
}

#[test]
fn async_heavy_drift_still_completes() {
    let timing = TimingConfig {
        drift: 0.9,
        refresh_jitter: 0.9,
        min_latency: 1,
        max_latency: 2048,
    };
    let sched = Scheduler::Async { timing, threads: 1 };
    let topo = Topology::grid(36);
    for proto in [Protocol::Uniform, Protocol::Advert] {
        let result = run_with(&sched, &topo, proto, 2, 8);
        assert!(
            result.completed,
            "{} under heavy drift did not complete",
            proto.name()
        );
    }
}

#[test]
fn async_large_universe_gossip_terminates() {
    // The hashed-tag path under the async scheduler: epoch-salted tags
    // keep collisions transient even without a shared round counter.
    let topo = Topology::ring(10);
    let result = run_with(&default_async(), &topo, Protocol::Advert, 80, 11);
    assert!(result.completed, "80-gossip on async ring(10) stalled");
}
