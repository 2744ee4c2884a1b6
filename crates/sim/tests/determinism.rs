//! Thread-count independence of the sharded synchronous engine: the
//! per-node RNG streams (`Rng::stream(seed, round, node)`), the fixed
//! region partition of the matching resolver, and the node-order merges
//! make the parallel round loop a pure function of the inputs, so
//! `--threads 1`, `2`, and `8` must produce *identical* `SimResult`s —
//! full structural equality, history and dynamics stats included — across
//! every topology family, protocol, and both static and dynamic runs.
//! The small-`n` cases run every proposal through the resolver's boundary
//! sweep (blocks of ≲1 node); the larger cases give every region a
//! multi-node block so the parallel confined pass and the sweep are both
//! load-bearing. Plus the pinned 1000-ring advert regression, re-verified
//! against the CSR engine at several thread counts.
//!
//! The time-sliced asynchronous engine gets the same treatment: per-
//! `(seed, slice, region)` RNG streams, a fixed 64-region event
//! partition, and the serial boundary sweep make `Scheduler::Async` a pure
//! function of its inputs too, so sliced runs at 1, 2, and 8 threads
//! must be structurally identical — static and churning.

use gossip_core::time::TimingConfig;
use gossip_core::{NodeId, Rng, Topology};
use gossip_dynamics::{
    Churn, CompositeDynamics, DynamicsModel, EdgeFading, RejoinPolicy, Waypoint,
    DEFAULT_MEAN_DOWNTIME_ROUNDS, DEFAULT_SPEED_PER_ROUND,
};
use gossip_membership::MembershipConfig;
use gossip_protocols::{AdvertGossip, GossipProtocol, UniformGossip};
use gossip_sim::{random_sources, RunInputs, Scheduler, SimConfig, SimResult};
use gossip_telemetry::NoopProbe;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn topologies(n: usize) -> Vec<Topology> {
    let mut rng = Rng::new(404);
    vec![
        Topology::ring(n),
        Topology::grid(n),
        Topology::random_geometric(n, &mut rng),
    ]
}

fn protocols() -> [&'static dyn GossipProtocol; 2] {
    [&UniformGossip, &AdvertGossip]
}

fn run_static(threads: usize, topo: &Topology, proto: &dyn GossipProtocol, k: usize) -> SimResult {
    let mut rng = Rng::new(0xfeed);
    let sources = random_sources(topo.num_nodes(), k, &mut rng);
    let cfg = SimConfig {
        max_rounds: 60 * topo.num_nodes() + 200,
        record_rounds: true,
    };
    Scheduler::Sync { threads }.run(
        &RunInputs::new(topo, proto, &sources, 42, cfg),
        &mut NoopProbe,
    )
}

#[test]
fn static_runs_are_identical_at_any_thread_count() {
    for topo in topologies(64) {
        for proto in protocols() {
            for k in [1usize, 3] {
                let baseline = run_static(1, &topo, proto, k);
                assert!(
                    baseline.completed,
                    "{} on {} must complete",
                    proto.name(),
                    topo.name()
                );
                for threads in THREAD_COUNTS {
                    let sharded = run_static(threads, &topo, proto, k);
                    assert_eq!(
                        baseline,
                        sharded,
                        "{} on {} (k={k}): {threads}-thread run diverged from serial",
                        proto.name(),
                        topo.name()
                    );
                }
            }
        }
    }
}

#[test]
fn multi_region_static_runs_are_identical_at_any_thread_count() {
    // With MATCH_REGIONS = 64 fixed blocks, n must comfortably exceed 64
    // before regions hold several nodes each — only then do confined
    // proposals resolve inside parallel regions rather than all deferring
    // to the serial boundary sweep. k = 65 additionally pushes message
    // state into the hashed-fingerprint, multi-word regime, so the
    // parallel transfer unions more than one word per row.
    for topo in topologies(384) {
        for proto in protocols() {
            for k in [3usize, 65] {
                let baseline = run_static(1, &topo, proto, k);
                assert!(
                    baseline.completed,
                    "{} on {} must complete",
                    proto.name(),
                    topo.name()
                );
                for threads in THREAD_COUNTS {
                    let sharded = run_static(threads, &topo, proto, k);
                    assert_eq!(
                        baseline,
                        sharded,
                        "{} on {} (k={k}): {threads}-thread run diverged from serial",
                        proto.name(),
                        topo.name()
                    );
                }
            }
        }
    }
}

fn run_dyn(
    threads: usize,
    topo: &Topology,
    dynamics: &dyn DynamicsModel,
    proto: &dyn GossipProtocol,
) -> SimResult {
    let mut rng = Rng::new(0xfeed);
    let sources = random_sources(topo.num_nodes(), 2, &mut rng);
    let cfg = SimConfig {
        max_rounds: 60 * topo.num_nodes() + 200,
        record_rounds: true,
    };
    Scheduler::Sync { threads }.run(
        &RunInputs {
            dynamics: Some(dynamics),
            ..RunInputs::new(topo, proto, &sources, 77, cfg)
        },
        &mut NoopProbe,
    )
}

#[test]
fn dynamic_runs_are_identical_at_any_thread_count() {
    let churn = Churn {
        rate: 0.1,
        rejoin: RejoinPolicy::Keep,
        mean_downtime: 3.0,
    };
    let fading = EdgeFading {
        fade_prob: 0.1,
        mean_downtime: 1.0,
    };
    let mut rng = Rng::new(505);
    let (rgg, geometry) = Topology::random_geometric_with_geometry(48, &mut rng);
    let waypoint = Waypoint {
        geometry,
        speed: DEFAULT_SPEED_PER_ROUND,
    };
    let ring = Topology::ring(64);
    let grid = Topology::grid(64);
    for (topo, dynamics) in [
        (&ring as &Topology, &churn as &dyn DynamicsModel),
        (&grid, &fading),
        (&rgg, &waypoint),
    ] {
        for proto in protocols() {
            let baseline = run_dyn(1, topo, dynamics, proto);
            for threads in THREAD_COUNTS {
                let sharded = run_dyn(threads, topo, dynamics, proto);
                assert_eq!(
                    baseline,
                    sharded,
                    "{} on {} under {}: {threads}-thread dynamic run diverged",
                    proto.name(),
                    topo.name(),
                    dynamics.name()
                );
            }
        }
    }
}

#[test]
fn pinned_ring_regression_holds_on_the_csr_engine_at_any_thread_count() {
    // The load-bearing regression from PR 1, re-verified against the CSR
    // topology + struct-of-arrays engine: advertisement-guided gossip on
    // a 1000-ring from one source is a deterministic two-frontier sweep —
    // exactly 500 rounds and 999 all-productive connections — and the
    // count must not depend on how many workers sharded the loop.
    let topo = Topology::ring(1000);
    let cfg = SimConfig::default();
    for threads in [1usize, 4] {
        let result = Scheduler::Sync { threads }.run(
            &RunInputs::new(&topo, &AdvertGossip, &[NodeId(0)], 42, cfg),
            &mut NoopProbe,
        );
        assert!(result.completed, "threads={threads}");
        assert_eq!(
            result.rounds_to_completion,
            Some(500),
            "threads={threads}: the pinned 500-round ring sweep drifted"
        );
        assert_eq!(result.total_connections, 999, "threads={threads}");
        assert_eq!(result.productive_connections, 999, "threads={threads}");
        assert_eq!(result.wasted_connections, 0, "threads={threads}");
    }
}

#[test]
fn pinned_grid_alltoall_regression_holds_in_the_hashed_tag_regime() {
    // The only workspace pin with k > 64: the CLI's `--topology grid
    // --nodes 400 --messages 400 --protocol advert --seed 42` (all-to-all,
    // 7-word rows, tags hashed and round-salted). Any change to the hash,
    // to which tag a decide compares against, or to the batched advertise
    // kernel moves these counts.
    let topo = Topology::grid(400);
    let sources = random_sources(400, 400, &mut Rng::new(42 ^ SOURCES_SEED_SALT));
    let cfg = SimConfig {
        max_rounds: gossip_sim::default_round_cap(400),
        record_rounds: false,
    };
    for threads in THREAD_COUNTS {
        let result = Scheduler::Sync { threads }.run(
            &RunInputs::new(&topo, &AdvertGossip, &sources, 42, cfg),
            &mut NoopProbe,
        );
        assert_eq!(result.rounds_to_completion, Some(69), "threads={threads}");
        assert_eq!(result.total_connections, 8011, "threads={threads}");
        assert_eq!(result.productive_connections, 6257, "threads={threads}");
    }
}

fn async_sched(threads: usize) -> Scheduler {
    Scheduler::Async {
        timing: TimingConfig::default(),
        threads,
    }
}

fn run_async_static(
    threads: usize,
    topo: &Topology,
    proto: &dyn GossipProtocol,
    k: usize,
) -> SimResult {
    let mut rng = Rng::new(0xfeed);
    let sources = random_sources(topo.num_nodes(), k, &mut rng);
    let cfg = SimConfig {
        max_rounds: 60 * topo.num_nodes() + 200,
        record_rounds: true,
    };
    async_sched(threads).run(
        &RunInputs::new(topo, proto, &sources, 42, cfg),
        &mut NoopProbe,
    )
}

#[test]
fn async_static_runs_are_identical_at_any_thread_count() {
    // n = 384 gives every one of the 64 event regions a 6-node block, so
    // most Attempt/Finish events resolve inside parallel regions while the
    // cross-region ones exercise the boundary sweep — both paths are
    // load-bearing for the identity.
    for topo in topologies(384) {
        for proto in protocols() {
            let baseline = run_async_static(1, &topo, proto, 3);
            assert!(
                baseline.completed,
                "async {} on {} must complete",
                proto.name(),
                topo.name()
            );
            for threads in THREAD_COUNTS {
                let sharded = run_async_static(threads, &topo, proto, 3);
                assert_eq!(
                    baseline,
                    sharded,
                    "async {} on {}: {threads}-thread sliced run diverged",
                    proto.name(),
                    topo.name()
                );
            }
        }
    }
}

#[test]
fn async_churn_runs_are_identical_at_any_thread_count() {
    // Slice-boundary mutations are serial by construction; the identity
    // check covers the interplay of generation bumps, severed-connection
    // cleanup, and restart Acts feeding back into the region queues.
    let churn = Churn {
        rate: 0.1,
        rejoin: RejoinPolicy::Keep,
        mean_downtime: 3.0,
    };
    for topo in topologies(96) {
        for proto in protocols() {
            let mut rng = Rng::new(0xfeed);
            let sources = random_sources(topo.num_nodes(), 2, &mut rng);
            let cfg = SimConfig {
                max_rounds: 60 * topo.num_nodes() + 200,
                record_rounds: true,
            };
            let inputs = RunInputs {
                dynamics: Some(&churn),
                ..RunInputs::new(&topo, proto, &sources, 77, cfg)
            };
            let baseline = async_sched(1).run(&inputs, &mut NoopProbe);
            for threads in THREAD_COUNTS {
                let sharded = async_sched(threads).run(&inputs, &mut NoopProbe);
                assert_eq!(
                    baseline,
                    sharded,
                    "async {} on {} under churn: {threads}-thread sliced run diverged",
                    proto.name(),
                    topo.name()
                );
            }
        }
    }
}

/// The exact scenario behind the CLI's pinned async acceptance run
/// (`ring -n 1000 -m 1 --protocol advert --scheduler async --seed 42`):
/// the experiment layer salts the seed before placing sources.
const SOURCES_SEED_SALT: u64 = 0x50_0c_e5;

fn pinned_async_scenario() -> (Topology, Vec<NodeId>, SimConfig) {
    let topo = Topology::ring(1000);
    let sources = random_sources(1000, 1, &mut Rng::new(42 ^ SOURCES_SEED_SALT));
    let cfg = SimConfig {
        max_rounds: gossip_sim::default_round_cap(1000),
        record_rounds: false,
    };
    (topo, sources, cfg)
}

#[test]
fn pinned_ring_regression_holds_on_the_sliced_engine_at_any_thread_count() {
    // The sliced engine's own pinned regression (also asserted byte-for-
    // byte through the CLI in crates/cli/tests/experiments.rs): advert
    // gossip on a 1000-ring, one source, default timing. Relaxed ad reads
    // and boundary-deferred handshakes make it take slightly longer than
    // the globally time-ordered single-heap loop it replaced (890 rounds /
    // 911045 ticks, deleted in PR 16), but the output is a constant of
    // the inputs — independent of worker count.
    let (topo, sources, cfg) = pinned_async_scenario();
    for threads in THREAD_COUNTS {
        let result = async_sched(threads).run(
            &RunInputs::new(&topo, &AdvertGossip, &sources, 42, cfg),
            &mut NoopProbe,
        );
        assert!(result.completed, "threads={threads}");
        assert_eq!(
            result.rounds_to_completion,
            Some(935),
            "threads={threads}: the pinned sliced ring sweep drifted"
        );
        assert_eq!(
            result.virtual_time_to_completion,
            Some(956925),
            "threads={threads}"
        );
        assert_eq!(result.total_connections, 999, "threads={threads}");
        assert_eq!(result.dropped_proposals, 1002, "threads={threads}");
    }
}

#[test]
fn thread_count_zero_and_oversubscription_are_harmless() {
    // Nothing clamps `threads` before an engine sees it: 0 workers count
    // as 1, and more workers than nodes (or regions) as that many — both
    // still byte-identical to serial, on either engine.
    let ring = Topology::ring(12);
    let big_ring = Topology::ring(300);
    let cfg = SimConfig {
        record_rounds: true,
        ..SimConfig::default()
    };
    for (topo, schedulers) in [
        (&ring, [1, 0, 64].map(|threads| Scheduler::Sync { threads })),
        (&big_ring, [1, 0, 64].map(async_sched)),
    ] {
        let inputs = RunInputs::new(topo, &UniformGossip, &[NodeId(3)], 9, cfg);
        let [serial, zero, many] = schedulers.map(|s| s.run(&inputs, &mut NoopProbe));
        assert!(serial.completed, "{}", serial.scheduler);
        assert_eq!(serial, zero, "{} threads=0", serial.scheduler);
        assert_eq!(serial, many, "{} threads=64", serial.scheduler);
    }
}

/// RGG waypoint mobility + churn (`rejoin = keep`) — the regime where
/// every mutation batch rewires, kills and revives overlapping
/// neighbourhoods, so the order in which `DynamicTopology` settles its
/// active views is load-bearing for every downstream count.
fn mobile_churn_scenario() -> (Topology, CompositeDynamics, Vec<NodeId>, SimConfig) {
    let (topo, geometry) = Topology::random_geometric_with_geometry(1000, &mut Rng::new(606));
    let dynamics = CompositeDynamics {
        parts: vec![
            Box::new(Churn {
                rate: 0.05,
                rejoin: RejoinPolicy::Keep,
                mean_downtime: DEFAULT_MEAN_DOWNTIME_ROUNDS,
            }),
            Box::new(Waypoint {
                geometry,
                speed: DEFAULT_SPEED_PER_ROUND,
            }),
        ],
    };
    let sources = random_sources(1000, 2, &mut Rng::new(0xfeed));
    let cfg = SimConfig {
        max_rounds: gossip_sim::default_round_cap(1000),
        record_rounds: false,
    };
    (topo, dynamics, sources, cfg)
}

/// The counts a settle-ordering bug would move: completion, traffic,
/// the applied mutations, and what the failure detector saw.
fn mobile_fingerprint(r: &SimResult) -> [u64; 8] {
    let d = r.dynamics.as_ref().expect("dynamic run");
    [
        r.rounds_to_completion.expect("run completes") as u64,
        r.virtual_time,
        r.total_connections as u64,
        r.productive_connections as u64,
        d.departures as u64,
        d.rejoins as u64,
        d.rewires as u64,
        r.membership.as_ref().map_or(0, |m| m.evictions),
    ]
}

#[test]
fn pinned_mobile_churn_hyparview_run_holds_on_both_engines_at_any_thread_count() {
    // Values captured from the commit before active views became a
    // settle-time rebuild (per-mutation in-place edits).
    let (topo, dynamics, sources, cfg) = mobile_churn_scenario();
    let membership = MembershipConfig::default();
    let inputs = RunInputs {
        dynamics: Some(&dynamics),
        membership: Some(&membership),
        ..RunInputs::new(&topo, &AdvertGossip, &sources, 77, cfg)
    };
    for threads in THREAD_COUNTS {
        let sync = Scheduler::Sync { threads }.run(&inputs, &mut NoopProbe);
        assert_eq!(
            mobile_fingerprint(&sync),
            [18, 18432, 1826, 1724, 805, 639, 1322, 2381],
            "sync threads={threads}"
        );
        let sliced = async_sched(threads).run(&inputs, &mut NoopProbe);
        assert_eq!(
            mobile_fingerprint(&sliced),
            [57, 57628, 1746, 1692, 2505, 2321, 4857, 10856],
            "async threads={threads}"
        );
    }
}

/// The counts an event-ordering change in the sliced engine would move.
fn async_fingerprint(r: &SimResult) -> [u64; 7] {
    [
        r.completed as u64,
        r.rounds_executed as u64,
        r.virtual_time,
        r.total_connections as u64,
        r.productive_connections as u64,
        r.dropped_proposals,
        r.complete_nodes as u64,
    ]
}

#[test]
fn pinned_extreme_latency_rings_hold_on_the_sliced_engine_at_any_thread_count() {
    // Values captured on the commit before the per-region `BinaryHeap`
    // became the slice-bucketed queue. The three timings stress the
    // queue's edges on the pinned advert ring: zero latency keeps whole
    // act -> attempt -> finish chains at one tick inside the open slice;
    // 100 000 ticks lands every handshake ~98 slices ahead, far beyond
    // the bucket ring; `u64::MAX` saturates `SimTime::after`, so events
    // pile up at the far-future instant and the capped run must stop at
    // the cap without allocating a bucket per intervening slice.
    let (topo, sources, _) = pinned_async_scenario();
    let cases: [(u64, u64, usize, [u64; 7]); 3] = [
        (
            0,
            0,
            gossip_sim::default_round_cap(1000),
            [1, 843, 862303, 999, 999, 1216, 1000],
        ),
        (32, 100_000, 1500, [0, 1500, 1536000, 31, 31, 5, 32]),
        (32, u64::MAX, 500, [0, 500, 512000, 0, 0, 0, 1]),
    ];
    for (min_latency, max_latency, max_rounds, expected) in cases {
        let cfg = SimConfig {
            max_rounds,
            record_rounds: false,
        };
        for threads in THREAD_COUNTS {
            let sched = Scheduler::Async {
                timing: TimingConfig {
                    min_latency,
                    max_latency,
                    ..TimingConfig::default()
                },
                threads,
            };
            let result = sched.run(
                &RunInputs::new(&topo, &AdvertGossip, &sources, 42, cfg),
                &mut NoopProbe,
            );
            assert_eq!(
                async_fingerprint(&result),
                expected,
                "latency [{min_latency}, {max_latency}] threads={threads}"
            );
        }
    }
}

#[test]
fn pinned_churned_grid_holds_on_the_sliced_engine_at_any_thread_count() {
    // Uniform gossip on a 2 500-node grid under churn (`rejoin = keep`),
    // default timing, capped at 120 rounds: ~40-node regions, so region
    // queues, the boundary sweep and the start-of-slice mutation drain
    // (restart Acts pushed from outside a pass) all carry load. Captured
    // on the same parent.
    let topo = Topology::grid(2500);
    let churn = Churn {
        rate: 0.05,
        rejoin: RejoinPolicy::Keep,
        mean_downtime: DEFAULT_MEAN_DOWNTIME_ROUNDS,
    };
    let sources = random_sources(2500, 2, &mut Rng::new(0xfeed));
    let cfg = SimConfig {
        max_rounds: 120,
        record_rounds: false,
    };
    for threads in THREAD_COUNTS {
        let result = async_sched(threads).run(
            &RunInputs {
                dynamics: Some(&churn),
                ..RunInputs::new(&topo, &UniformGossip, &sources, 77, cfg)
            },
            &mut NoopProbe,
        );
        let d = result.dynamics.as_ref().expect("dynamic run");
        assert_eq!(
            (
                async_fingerprint(&result),
                d.departures,
                d.rejoins,
                d.severed_connections
            ),
            ([0, 120, 122880, 31130, 671, 67457, 6], 12741, 12324, 1809),
            "threads={threads}"
        );
    }
}
