//! The two tests every refactor of the engines' loops rests on.
//!
//! **A golden matrix**: both schedulers × {static, dynamics,
//! membership, both}, history on, a `MemoryProbe` attached. Each cell pins
//! an FNV-1a fingerprint of the whole `SimResult` (its `Debug` rendering)
//! and of the traced event stream, at 1, 2 and 8 threads. The thread-count
//! *equality* tests elsewhere cannot see a change that shifts every
//! thread count alike; these can. Its small RGG sends nearly every
//! handshake through the sliced engine's boundary sweep, so one more cell —
//! a 2048-node async ring, static and churned — pins the region workers'.
//!
//! **Static = the empty mutation stream.** The dynamic loop with nothing
//! to drain must compute exactly what the static path computes (only
//! `SimResult::dynamics` tells them apart) — which is why one loop body
//! per engine can serve both.

use gossip_core::time::TimingConfig;
use gossip_core::{NodeId, Rng, SimTime, Topology};
use gossip_dynamics::{Churn, DynamicsModel, Mutation, MutationStream, RejoinPolicy};
use gossip_protocols::{AdvertGossip, GossipProtocol, UniformGossip};
use gossip_sim::{
    random_sources, EngineTimings, MembershipConfig, RunInputs, Scheduler, SimConfig,
};
use gossip_telemetry::{MemoryProbe, NoopProbe};

fn async_sched(threads: usize) -> Scheduler {
    Scheduler::Async {
        timing: TimingConfig::default(),
        threads,
    }
}

fn schedulers(threads: usize) -> [Scheduler; 2] {
    [Scheduler::Sync { threads }, async_sched(threads)]
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(SimResult fingerprint, event-stream fingerprint)` per cell, in
/// scheduler-major order over (dynamics, membership) ∈ {(no, no),
/// (yes, no), (no, yes), (yes, yes)}.
const GOLDEN: [[(u64, u64); 4]; 2] = [
    [
        (0x51c39d2e024d8c5a, 0x851edb9bdf55aae7),
        (0xf9faf57fa5756e81, 0x023334c7f5a9b845),
        (0xcd237741f1df072b, 0xb27fee0a7e87a9db),
        (0x9470570bf1c27e88, 0xcceb093542e4e816),
    ],
    [
        (0x31b2eca894171519, 0x53557573a5783687),
        (0x818bbe7a3b7fd72e, 0x934932346205366b),
        (0xf4f4b79fe3b9f6b9, 0xf3ecaf2d04e2548e),
        (0xa2f85e4a55c19b0b, 0x478c34a546b399fd),
    ],
];

#[test]
fn golden_matrix_captured_on_the_parent_holds_through_the_one_entry_point() {
    let topo = Topology::random_geometric(120, &mut Rng::new(404));
    let sources = random_sources(120, 3, &mut Rng::new(0xfeed));
    let cfg = SimConfig {
        max_rounds: 120,
        record_rounds: true,
    };
    let churn = Churn {
        rate: 0.05,
        rejoin: RejoinPolicy::Lose,
        mean_downtime: 3.0,
    };
    let membership = MembershipConfig::default();
    for threads in [1usize, 2, 8] {
        for (sched, golden) in schedulers(threads).iter().zip(GOLDEN) {
            let layers = [(false, false), (true, false), (false, true), (true, true)];
            for ((dynamic, overlay), expected) in layers.into_iter().zip(golden) {
                let inputs = RunInputs {
                    dynamics: dynamic.then_some(&churn as &dyn DynamicsModel),
                    membership: overlay.then_some(&membership),
                    ..RunInputs::new(&topo, &AdvertGossip, &sources, 42, cfg)
                };
                // Through `run_timed`, the entry point `run` is the `.0`
                // of: the clocks ride beside the result and name the
                // engine that ran.
                let mut probe = MemoryProbe::default();
                let (result, timings) = sched.run_timed(&inputs, &mut probe);
                assert_eq!(result.scheduler, sched.name());
                assert_eq!(
                    matches!(timings, EngineTimings::Sync(_)),
                    sched.name() == "sync"
                );
                let got = (
                    fnv(format!("{result:?}").as_bytes()),
                    fnv(format!("{:?}", probe.events).as_bytes()),
                );
                assert_eq!(
                    got,
                    expected,
                    "{} dynamics={dynamic} membership={overlay} threads={threads}: \
                     (result, events) fingerprint {got:#018x?} left the parent's",
                    sched.name()
                );
            }
        }
    }
}

/// `(SimResult fingerprint, event-stream fingerprint)` of the
/// region-dominant async ring, static then churned.
const RING_GOLDEN: [(u64, u64); 2] = [
    (0x3792197b536f8ba8, 0x6dbd73550a694fe1),
    (0x7956b0b8e5f1988f, 0x7b31f1c0c884acf5),
];

#[test]
fn region_dominant_async_ring_captured_on_the_parent_holds() {
    // The 120-node RGG above has 2-node regions, so nearly every handshake
    // it pins crosses a region edge and runs in the boundary sweep. On a
    // 2048-node ring a region is 32 consecutive nodes: all but its two end
    // nodes handshake inside it, on the region workers.
    let topo = Topology::ring(2048);
    let sources = random_sources(2048, 3, &mut Rng::new(0xfeed));
    let cfg = SimConfig {
        max_rounds: 40,
        record_rounds: true,
    };
    let churn = Churn {
        rate: 0.05,
        rejoin: RejoinPolicy::Lose,
        mean_downtime: 3.0,
    };
    for threads in [1usize, 2, 8] {
        for (dynamic, expected) in [false, true].into_iter().zip(RING_GOLDEN) {
            let inputs = RunInputs {
                dynamics: dynamic.then_some(&churn as &dyn DynamicsModel),
                ..RunInputs::new(&topo, &UniformGossip, &sources, 42, cfg)
            };
            let mut probe = MemoryProbe::default();
            let (result, timings) = async_sched(threads).run_timed(&inputs, &mut probe);
            let EngineTimings::Async(slices) = timings else {
                panic!("the async engine ran")
            };
            let in_regions: u64 = slices.events_by_region.counts.iter().sum();
            assert!(
                in_regions * 10 >= slices.events * 9,
                "only {in_regions} of {} events ran on the region workers",
                slices.events
            );
            let got = (
                fnv(format!("{result:?}").as_bytes()),
                fnv(format!("{:?}", probe.events).as_bytes()),
            );
            assert_eq!(
                got, expected,
                "ring dynamics={dynamic} threads={threads}: \
                 (result, events) fingerprint {got:#018x?} left the parent's"
            );
        }
    }
}

/// `(SimResult fingerprint, event-stream fingerprint)` of the hashed-tag
/// cells: a sync 144-grid with k = n, an async 144-grid with k = 100, and
/// a sync churned (`keep`) HyParView RGG with k = 80.
const HASHED_GOLDEN: [(u64, u64); 3] = [
    (0xf722ede9e6979371, 0x87286fcf9d9dcd24),
    (0x60fe927d33f1883f, 0xd6659f48153b3428),
    (0x6b5c1eb75f95961e, 0x5ac27449a7c294dd),
];

#[test]
fn hashed_tag_cells_hold() {
    // Every cell above runs k = 3, where a tag is the exact membership
    // mask. These run k > 64, where it is a salted 64-bit hash: the sync
    // grid compares one round's tags, the async grid compares a
    // neighbour's tag from an older epoch against a current one, and the
    // churned overlay scans the kept tags of dead nodes.
    let grid = Topology::grid(144);
    let rgg = Topology::random_geometric(120, &mut Rng::new(404));
    let all = random_sources(144, 144, &mut Rng::new(0xfeed));
    let hundred = random_sources(144, 100, &mut Rng::new(0xfeed));
    let eighty = random_sources(120, 80, &mut Rng::new(0xfeed));
    let cfg = SimConfig {
        max_rounds: 400,
        record_rounds: true,
    };
    let churn = Churn {
        rate: 0.05,
        rejoin: RejoinPolicy::Keep,
        mean_downtime: 3.0,
    };
    let membership = MembershipConfig::default();
    for threads in [1usize, 2, 8] {
        let cells = [
            (
                Scheduler::Sync { threads },
                RunInputs::new(&grid, &AdvertGossip, &all, 42, cfg),
            ),
            (
                async_sched(threads),
                RunInputs::new(&grid, &AdvertGossip, &hundred, 42, cfg),
            ),
            (
                Scheduler::Sync { threads },
                RunInputs {
                    dynamics: Some(&churn as &dyn DynamicsModel),
                    membership: Some(&membership),
                    ..RunInputs::new(&rgg, &AdvertGossip, &eighty, 42, cfg)
                },
            ),
        ];
        let got: Vec<(u64, u64)> = cells
            .iter()
            .map(|(sched, inputs)| {
                let mut probe = MemoryProbe::default();
                let result = sched.run(inputs, &mut probe);
                assert!(result.completed, "{} threads={threads}", sched.name());
                (
                    fnv(format!("{result:?}").as_bytes()),
                    fnv(format!("{:?}", probe.events).as_bytes()),
                )
            })
            .collect();
        assert_eq!(
            got, HASHED_GOLDEN,
            "threads={threads}: (result, events) fingerprints {got:#018x?} moved"
        );
    }
}

/// A dynamics model under which nothing ever happens.
struct Still;

impl DynamicsModel for Still {
    fn name(&self) -> String {
        "still".to_string()
    }
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }
    fn stream(&self, _topology: &Topology, _seed: u64) -> Box<dyn MutationStream> {
        struct Empty;
        impl MutationStream for Empty {
            fn peek_time(&self) -> Option<SimTime> {
                None
            }
            fn next(&mut self) -> Option<Mutation> {
                None
            }
        }
        Box::new(Empty)
    }
}

#[test]
fn an_empty_mutation_stream_runs_exactly_the_static_run() {
    let topologies = [
        Topology::ring(90),
        Topology::grid(90),
        Topology::random_geometric(90, &mut Rng::new(404)),
    ];
    let protocols: [&dyn GossipProtocol; 2] = [&UniformGossip, &AdvertGossip];
    for topo in &topologies {
        let n = topo.num_nodes();
        let sources: Vec<NodeId> = random_sources(n, 2, &mut Rng::new(0xfeed));
        let cfg = SimConfig {
            max_rounds: 60 * n + 200,
            record_rounds: true,
        };
        for proto in protocols {
            for threads in [1usize, 8] {
                for sched in schedulers(threads) {
                    let inputs = RunInputs::new(topo, proto, &sources, 42, cfg);
                    let fixed = sched.run(&inputs, &mut NoopProbe);
                    assert!(fixed.completed && fixed.dynamics.is_none());
                    let mut still = sched.run(
                        &RunInputs {
                            dynamics: Some(&Still),
                            ..inputs
                        },
                        &mut NoopProbe,
                    );
                    let stats = still.dynamics.take().expect("a dynamic run");
                    assert_eq!((stats.departures, stats.final_alive), (0, n));
                    assert_eq!(
                        fixed,
                        still,
                        "{} {} on {} threads={threads}",
                        sched.name(),
                        proto.name(),
                        topo.name()
                    );
                }
            }
        }
    }
}
