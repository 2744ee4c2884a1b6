//! The membership overlay's engine-level contracts: gossip over
//! discovered HyParView-style views stays byte-identical at any thread
//! count on both schedulers (the membership tick is serial, at round /
//! slice boundaries, so sharding never touches it); the views a static
//! run converges to are non-empty and symmetric for every node of a
//! connected topology; the full-knowledge default leaves `SimResult`s
//! bit-for-bit what the pre-membership engines produced; and the mobile
//! churned overlay's views, and gossip over them on both engines, are
//! golden corpus cells (`golden/cells.rs`).

#[path = "golden/cells.rs"]
mod cells;

use gossip_core::time::TimingConfig;
use gossip_core::{GraphView, NodeId, Rng, Topology};
use gossip_dynamics::{Churn, Dynamics, RejoinPolicy};
use gossip_protocols::Protocol;
use gossip_sim::{random_sources, Membership, MembershipConfig, RunInputs, Scheduler, SimConfig};
use gossip_telemetry::NoopProbe;

const THREAD_COUNTS: [usize; 2] = [1, 8];

fn topologies(n: usize) -> Vec<Topology> {
    let mut rng = Rng::new(404);
    vec![
        Topology::ring(n),
        Topology::grid(n),
        Topology::random_geometric(n, &mut rng),
    ]
}

fn async_sched(threads: usize) -> Scheduler {
    Scheduler::Async {
        timing: TimingConfig::default(),
        threads,
    }
}

fn mem_cfg() -> MembershipConfig {
    MembershipConfig::default()
}

fn sim_cfg(n: usize) -> SimConfig {
    SimConfig {
        max_rounds: 60 * n + 200,
        record_rounds: true,
    }
}

#[test]
fn membership_runs_are_identical_at_any_thread_count_on_both_schedulers() {
    for topo in topologies(96) {
        for seed in [7u64, 42] {
            let n = topo.num_nodes();
            let sources = random_sources(n, 2, &mut Rng::new(seed ^ 0xfeed));
            let membership = mem_cfg();
            let inputs = || RunInputs {
                membership: Some(&membership),
                ..RunInputs::new(topo.clone(), Protocol::Advert, &sources, seed, sim_cfg(n))
            };
            let sync_base = Scheduler::Sync { threads: 1 }.run(inputs(), &mut NoopProbe);
            assert!(
                sync_base.membership.is_some(),
                "membership runs must carry overlay stats"
            );
            let async_base = async_sched(1).run(inputs(), &mut NoopProbe);
            assert!(async_base.membership.is_some());
            for threads in THREAD_COUNTS {
                let sync_run = Scheduler::Sync { threads }.run(inputs(), &mut NoopProbe);
                assert_eq!(
                    sync_base,
                    sync_run,
                    "sync membership run on {} diverged at {threads} threads",
                    topo.name()
                );
                let async_run = async_sched(threads).run(inputs(), &mut NoopProbe);
                assert_eq!(
                    async_base,
                    async_run,
                    "async membership run on {} diverged at {threads} threads",
                    topo.name()
                );
            }
        }
    }
}

/// Both schedulers, every topology family, `k` rumors under `churn` plus
/// the overlay, capped by `cfg_for(n)`: each thread count must reproduce
/// the 1-thread result.
fn assert_membership_churn_is_thread_independent(
    churn: Churn,
    k: usize,
    cfg_for: impl Fn(usize) -> SimConfig,
    thread_counts: &[usize],
) {
    let dynamics = Dynamics {
        churn: Some(churn),
        ..Dynamics::default()
    };
    for topo in topologies(96) {
        let n = topo.num_nodes();
        let sources = random_sources(n, k, &mut Rng::new(0xfeed));
        let membership = mem_cfg();
        let inputs = || RunInputs {
            dynamics: Some(Box::new(dynamics.clone())),
            membership: Some(&membership),
            ..RunInputs::new(topo.clone(), Protocol::Advert, &sources, 77, cfg_for(n))
        };
        let sync_base = Scheduler::Sync { threads: 1 }.run(inputs(), &mut NoopProbe);
        let async_base = async_sched(1).run(inputs(), &mut NoopProbe);
        // Churn under the overlay exercises the failure detector: departed
        // peers must be suspected and eventually evicted.
        let stats = sync_base.membership.as_ref().unwrap();
        assert!(stats.probes > 0, "the failure detector never probed");
        for &threads in thread_counts {
            let sync_run = Scheduler::Sync { threads }.run(inputs(), &mut NoopProbe);
            assert_eq!(
                sync_base,
                sync_run,
                "sync membership+churn run (k={k}) on {} diverged at {threads} threads",
                topo.name()
            );
            let async_run = async_sched(threads).run(inputs(), &mut NoopProbe);
            assert_eq!(
                async_base,
                async_run,
                "async membership+churn run (k={k}) on {} diverged at {threads} threads",
                topo.name()
            );
        }
    }
}

#[test]
fn membership_churn_runs_are_identical_at_any_thread_count() {
    let churn = Churn {
        rate: 0.05,
        rejoin: RejoinPolicy::Keep,
        mean_downtime: 3.0,
    };
    assert_membership_churn_is_thread_independent(churn, 2, sim_cfg, &THREAD_COUNTS);
}

#[test]
fn hashed_tag_membership_churn_runs_are_identical_at_any_thread_count() {
    // k = 65 puts tags in the hashed, salted regime under an alive mask:
    // the sync engine's masked advertise path (dead rows keep their last
    // tag, which overlay views still scan until eviction), the event
    // engines' batched epoch-0 table, and — in debug builds — the own-tag
    // contract on every decide. `Lose` makes rejoiners' rows change
    // under their peers' stale view of them.
    let churn = Churn {
        rate: 0.05,
        rejoin: RejoinPolicy::Lose,
        mean_downtime: 3.0,
    };
    // Capped: run to completion this sweep costs ~20 s in a debug build,
    // and 150 rounds already see several departures and rejoins per node.
    let capped = |_| SimConfig {
        max_rounds: 150,
        record_rounds: true,
    };
    assert_membership_churn_is_thread_independent(churn, 65, capped, &[1, 2, 8]);
}

#[test]
fn static_views_converge_nonempty_and_symmetric_on_every_family() {
    // The overlay alone (no gossip run): after a bounded number of shuffle
    // rounds over a connected static underlay, every node's active view
    // is non-empty and exactly symmetric, across seeds. 3× the passive
    // capacity is a generous convergence budget — the joins land in tick
    // 0 and symmetry is an invariant of link()/evict(), so this mostly
    // guards against a future drift where shuffling breaks it.
    for topo in topologies(128) {
        for seed in [1u64, 9, 33] {
            let cfg = mem_cfg();
            let mut mem = Membership::new(topo.num_nodes(), cfg);
            for tick in 0..(3 * cfg.passive_size as u64) {
                mem.tick(&topo, None, seed, tick, &mut NoopProbe);
            }
            for u in 0..topo.num_nodes() {
                let view = mem.neighbors(NodeId(u as u32));
                assert!(
                    !view.is_empty(),
                    "node {u} on {} (seed {seed}) has an empty active view",
                    topo.name()
                );
                assert!(
                    view.len() <= cfg.active_size,
                    "node {u} exceeds the active-view bound"
                );
                for &v in view {
                    assert!(
                        mem.neighbors(v).contains(&NodeId(u as u32)),
                        "edge {u}->{} is not symmetric on {} (seed {seed})",
                        v.index(),
                        topo.name()
                    );
                }
            }
        }
    }
}

#[test]
fn full_view_default_is_byte_identical_to_the_pre_membership_path() {
    // Satellite regression: a run WITHOUT the membership axis must produce
    // a SimResult structurally identical to the plain engine entry points
    // — the Option field stays None and nothing else moves. (The emit
    // layer's serialization pins then keep the JSON byte-identical too.)
    let topo = Topology::ring(256);
    let sources = random_sources(256, 1, &mut Rng::new(5));
    let cfg = sim_cfg(256);
    for proto in [Protocol::Uniform, Protocol::Advert] {
        let plain = Scheduler::Sync { threads: 2 }.run(
            RunInputs::new(topo.clone(), proto, &sources, 11, cfg),
            &mut NoopProbe,
        );
        assert!(plain.membership.is_none());
        let async_plain = async_sched(2).run(
            RunInputs::new(topo.clone(), proto, &sources, 11, cfg),
            &mut NoopProbe,
        );
        assert!(async_plain.membership.is_none());
    }
}

#[test]
fn gossip_over_discovered_views_still_completes() {
    // The end-to-end point of the overlay: advert gossip confined to the
    // discovered active views (≤5 peers each) still spreads the rumor to
    // every node on each topology family, on both schedulers.
    for topo in topologies(96) {
        let n = topo.num_nodes();
        let sources = random_sources(n, 1, &mut Rng::new(0xfeed));
        let cfg = sim_cfg(n);
        let sync_run = Scheduler::Sync { threads: 2 }.run(
            RunInputs {
                membership: Some(&mem_cfg()),
                ..RunInputs::new(topo.clone(), Protocol::Advert, &sources, 3, cfg)
            },
            &mut NoopProbe,
        );
        assert!(
            sync_run.completed,
            "sync membership gossip on {} did not complete",
            topo.name()
        );
        let stats = sync_run.membership.unwrap();
        // Not every node registers a join of its own — a node whose view
        // an earlier joiner already linked into skips the join phase —
        // but bootstrap joins must have happened.
        assert!(stats.joins > 0, "nobody joined the overlay");
        assert!(stats.active_min >= 1 && stats.active_max <= mem_cfg().active_size);
        assert_eq!(stats.isolated_nodes, 0);
        let async_run = async_sched(2).run(
            RunInputs {
                membership: Some(&mem_cfg()),
                ..RunInputs::new(topo.clone(), Protocol::Advert, &sources, 3, cfg)
            },
            &mut NoopProbe,
        );
        assert!(
            async_run.completed,
            "async membership gossip on {} did not complete",
            topo.name()
        );
    }
}

#[test]
fn mobile_churned_views_captured_on_the_parent_hold() {
    cells::check(&["mobile2000-views", "mobile2000-sync", "mobile2000-async"]);
}
