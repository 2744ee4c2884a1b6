//! The two tests every refactor of the engines' loops rests on.
//!
//! **The golden corpus** (`golden/`, one [`cells::CELLS`] row and one text
//! file per cell): each pinned run's whole `SimResult` and, for the cells
//! here, the fingerprint of its traced event stream, at 1, 2 and 8
//! threads. The thread-count *equality* tests elsewhere cannot see a
//! change that shifts every thread count alike; these can. The cells
//! here: both schedulers × {static, dynamics, membership, both} through
//! the one entry point, a region-dominant async ring beside the
//! sweep-dominated RGG, and the hashed-tag (k > 64) regime.
//!
//! **Static = the empty mutation stream.** The dynamic loop with nothing
//! to drain must compute exactly what the static path computes (only
//! `SimResult::dynamics` tells them apart) — which is why one loop body
//! per engine can serve both.

#[path = "golden/cells.rs"]
mod cells;

use gossip_core::time::TimingConfig;
use gossip_core::{NodeId, Rng, SimTime, Topology};
use gossip_dynamics::{DynamicsModel, Mutation, MutationStream};
use gossip_protocols::Protocol;
use gossip_sim::{random_sources, RunInputs, Scheduler, SimConfig};
use gossip_telemetry::NoopProbe;

fn schedulers(threads: usize) -> [Scheduler; 2] {
    [
        Scheduler::Sync { threads },
        Scheduler::Async {
            timing: TimingConfig::default(),
            threads,
        },
    ]
}

#[test]
fn golden_matrix_captured_on_the_parent_holds_through_the_one_entry_point() {
    cells::check(&[
        "matrix-sync-static",
        "matrix-sync-churn",
        "matrix-sync-hyparview",
        "matrix-sync-churn-hyparview",
        "matrix-async-static",
        "matrix-async-churn",
        "matrix-async-hyparview",
        "matrix-async-churn-hyparview",
    ]);
}

#[test]
fn region_dominant_async_ring_captured_on_the_parent_holds() {
    cells::check(&["region-ring-static", "region-ring-churn"]);
}

#[test]
fn hashed_tag_cells_hold() {
    cells::check(&[
        "hashed-sync-grid-k144",
        "hashed-async-grid-k100",
        "hashed-sync-rgg-churn-hyparview-k80",
    ]);
}

#[test]
fn every_cell_has_a_file_and_every_file_a_cell() {
    let mut files: Vec<String> = std::fs::read_dir(cells::corpus_dir())
        .expect("the corpus directory")
        .filter_map(|entry| {
            let name = entry.expect("a directory entry").file_name();
            name.to_str()?.strip_suffix(".txt").map(str::to_string)
        })
        .collect();
    files.sort();
    let mut names: Vec<&str> = cells::CELLS.iter().map(|(name, _)| *name).collect();
    names.sort();
    assert_eq!(files, names);
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
    let protocols: [Protocol; 2] = [Protocol::Uniform, Protocol::Advert];
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
                    let inputs = RunInputs::new(topo.clone(), proto, &sources, 42, cfg);
                    let fixed = sched.run(inputs.clone(), &mut NoopProbe);
                    assert!(fixed.completed && fixed.dynamics.is_none());
                    let mut still = sched.run(
                        RunInputs {
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
