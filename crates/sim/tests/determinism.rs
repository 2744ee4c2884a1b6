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
//! load-bearing. Plus the pinned regression runs, golden corpus cells
//! (`golden/cells.rs`) checked at 1, 2 and 8 threads.
//!
//! The time-sliced asynchronous engine gets the same treatment: per-
//! `(seed, slice, region)` RNG streams, a fixed 64-region event
//! partition, and the serial boundary sweep make `Scheduler::Async` a pure
//! function of its inputs too, so sliced runs at 1, 2, and 8 threads
//! must be structurally identical — static and churning.

#[path = "golden/cells.rs"]
mod cells;

use gossip_core::time::TimingConfig;
use gossip_core::{NodeId, Rng, Topology};
use gossip_dynamics::{
    Churn, Dynamics, DynamicsModel, EdgeFading, RejoinPolicy, Waypoint, DEFAULT_SPEED_PER_ROUND,
};
use gossip_protocols::Protocol;
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

fn protocols() -> [Protocol; 2] {
    [Protocol::Uniform, Protocol::Advert]
}

fn run_static(threads: usize, topo: &Topology, proto: Protocol, k: usize) -> SimResult {
    let mut rng = Rng::new(0xfeed);
    let sources = random_sources(topo.num_nodes(), k, &mut rng);
    let cfg = SimConfig {
        max_rounds: 60 * topo.num_nodes() + 200,
        record_rounds: true,
    };
    Scheduler::Sync { threads }.run(
        RunInputs::new(topo.clone(), proto, &sources, 42, cfg),
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

fn run_dyn(threads: usize, topo: &Topology, dynamics: &Dynamics, proto: Protocol) -> SimResult {
    let mut rng = Rng::new(0xfeed);
    let sources = random_sources(topo.num_nodes(), 2, &mut rng);
    let cfg = SimConfig {
        max_rounds: 60 * topo.num_nodes() + 200,
        record_rounds: true,
    };
    Scheduler::Sync { threads }.run(
        RunInputs {
            dynamics: Some(Box::new(dynamics.clone())),
            ..RunInputs::new(topo.clone(), proto, &sources, 77, cfg)
        },
        &mut NoopProbe,
    )
}

#[test]
fn dynamic_runs_are_identical_at_any_thread_count() {
    let churn = Dynamics {
        churn: Some(Churn {
            rate: 0.1,
            rejoin: RejoinPolicy::Keep,
            mean_downtime: 3.0,
        }),
        ..Dynamics::default()
    };
    let fading = Dynamics {
        fading: Some(EdgeFading {
            fade_prob: 0.1,
            mean_downtime: 1.0,
        }),
        ..Dynamics::default()
    };
    let mut rng = Rng::new(505);
    let (rgg, geometry) = Topology::random_geometric_with_geometry(48, &mut rng);
    let waypoint = Dynamics {
        mobility: Some(Waypoint {
            geometry,
            speed: DEFAULT_SPEED_PER_ROUND,
        }),
        ..Dynamics::default()
    };
    let ring = Topology::ring(64);
    let grid = Topology::grid(64);
    for (topo, dynamics) in [
        (&ring as &Topology, &churn),
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

fn async_sched(threads: usize) -> Scheduler {
    Scheduler::Async {
        timing: TimingConfig::default(),
        threads,
    }
}

fn run_async_static(threads: usize, topo: &Topology, proto: Protocol, k: usize) -> SimResult {
    let mut rng = Rng::new(0xfeed);
    let sources = random_sources(topo.num_nodes(), k, &mut rng);
    let cfg = SimConfig {
        max_rounds: 60 * topo.num_nodes() + 200,
        record_rounds: true,
    };
    async_sched(threads).run(
        RunInputs::new(topo.clone(), proto, &sources, 42, cfg),
        &mut NoopProbe,
    )
}

#[test]
fn async_static_runs_are_identical_at_any_thread_count() {
    // n = 384 gives every one of the 64 event regions a 6-node block, so
    // most Attempt/Finish events resolve inside parallel regions while the
    // cross-region ones exercise the boundary sweep — both paths are
    // load-bearing for the identity. k = 65 hashes the tags, so the row
    // digests are maintained by unions on the region chunks and in the
    // sweep alike.
    for topo in topologies(384) {
        for proto in protocols() {
            for k in [3usize, 65] {
                let baseline = run_async_static(1, &topo, proto, k);
                assert!(
                    baseline.completed,
                    "async {} on {} (k={k}) must complete",
                    proto.name(),
                    topo.name()
                );
                for threads in THREAD_COUNTS {
                    let sharded = run_async_static(threads, &topo, proto, k);
                    assert_eq!(
                        baseline,
                        sharded,
                        "async {} on {} (k={k}): {threads}-thread sliced run diverged",
                        proto.name(),
                        topo.name()
                    );
                }
            }
        }
    }
}

#[test]
fn async_churn_runs_are_identical_at_any_thread_count() {
    // Slice-boundary mutations are serial by construction; the identity
    // check covers the interplay of generation bumps, severed-connection
    // cleanup, and restart Acts feeding back into the region queues.
    let churn = Dynamics {
        churn: Some(Churn {
            rate: 0.1,
            rejoin: RejoinPolicy::Keep,
            mean_downtime: 3.0,
        }),
        ..Dynamics::default()
    };
    for topo in topologies(96) {
        for proto in protocols() {
            let mut rng = Rng::new(0xfeed);
            let sources = random_sources(topo.num_nodes(), 2, &mut rng);
            let cfg = SimConfig {
                max_rounds: 60 * topo.num_nodes() + 200,
                record_rounds: true,
            };
            let inputs = || RunInputs {
                dynamics: Some(Box::new(churn.clone())),
                ..RunInputs::new(topo.clone(), proto, &sources, 77, cfg)
            };
            let baseline = async_sched(1).run(inputs(), &mut NoopProbe);
            for threads in THREAD_COUNTS {
                let sharded = async_sched(threads).run(inputs(), &mut NoopProbe);
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
        let inputs = || RunInputs::new(topo.clone(), Protocol::Uniform, &[NodeId(3)], 9, cfg);
        let [serial, zero, many] = schedulers.map(|s| s.run(inputs(), &mut NoopProbe));
        assert!(serial.completed, "{}", serial.scheduler);
        assert_eq!(serial, zero, "{} threads=0", serial.scheduler);
        assert_eq!(serial, many, "{} threads=64", serial.scheduler);
    }
}

#[test]
fn pinned_ring_regression_holds_on_the_csr_engine_at_any_thread_count() {
    cells::check(&["ring1000-sync-sweep"]);
}

#[test]
fn pinned_grid_alltoall_regression_holds_in_the_hashed_tag_regime() {
    cells::check(&["grid400-sync-alltoall"]);
}

#[test]
fn pinned_ring_regression_holds_on_the_sliced_engine_at_any_thread_count() {
    cells::check(&["ring1000-async"]);
}

#[test]
fn pinned_mobile_churn_hyparview_run_holds_on_both_engines_at_any_thread_count() {
    cells::check(&["mobile1000-sync", "mobile1000-async"]);
}

#[test]
fn pinned_extreme_latency_rings_hold_on_the_sliced_engine_at_any_thread_count() {
    cells::check(&[
        "ring1000-async-latency-0",
        "ring1000-async-latency-100k",
        "ring1000-async-latency-max",
    ]);
}

#[test]
fn pinned_churned_grid_holds_on_the_sliced_engine_at_any_thread_count() {
    cells::check(&["grid2500-async-churn"]);
}
