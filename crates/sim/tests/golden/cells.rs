//! The golden corpus: every pinned engine run is one row of [`CELLS`] and
//! one text file, `tests/golden/<cell>.txt` (the README beside this file
//! says what a file holds). [`check`] runs a cell at 1, 2 and 8 threads and
//! compares each rendering with the committed file byte for byte; on a
//! mismatch it writes the fresh rendering where the failure message's `cp`
//! command picks it up.

use std::fs;
use std::path::{Path, PathBuf};

use gossip_core::time::TimingConfig;
use gossip_core::{DynamicTopology, GraphView, NodeId, Rng, SimTime, Topology, TICKS_PER_ROUND};
use gossip_dynamics::{
    dynamics_seed, Churn, Dynamics, DynamicsModel, EdgeFading, RejoinPolicy, Waypoint,
    DEFAULT_MEAN_DOWNTIME_ROUNDS, DEFAULT_SPEED_PER_ROUND,
};
use gossip_protocols::Protocol;
use gossip_sim::{
    default_round_cap, random_sources, EngineTimings, Membership, MembershipConfig, RunInputs,
    Scheduler, SimConfig,
};
use gossip_telemetry::{MemoryProbe, NoopProbe, TraceEvent};

/// A cell: its name (the file stem) and the rendering of its run at a
/// thread count.
pub type Cell = (&'static str, fn(usize) -> String);

/// Every cell, grouped by the test that checks them.
pub const CELLS: &[Cell] = &[
    // golden.rs: both schedulers × {static, churn, overlay, both}.
    ("matrix-sync-static", |t| matrix(sync(t), false, false)),
    ("matrix-sync-churn", |t| matrix(sync(t), true, false)),
    ("matrix-sync-hyparview", |t| matrix(sync(t), false, true)),
    ("matrix-sync-churn-hyparview", |t| {
        matrix(sync(t), true, true)
    }),
    ("matrix-async-static", |t| matrix(sliced(t), false, false)),
    ("matrix-async-churn", |t| matrix(sliced(t), true, false)),
    ("matrix-async-hyparview", |t| matrix(sliced(t), false, true)),
    ("matrix-async-churn-hyparview", |t| {
        matrix(sliced(t), true, true)
    }),
    ("region-ring-static", |t| region_ring(t, false)),
    ("region-ring-churn", |t| region_ring(t, true)),
    ("hashed-sync-grid-k144", |t| hashed_grid(sync(t), 144)),
    ("hashed-async-grid-k100", |t| hashed_grid(sliced(t), 100)),
    ("hashed-sync-rgg-churn-hyparview-k80", hashed_overlay),
    ("grid400-sync-fading", faded_grid),
    ("ring600-async-churn-lose-fading", churned_faded_ring),
    ("rgg500-sync-churn-none-mobility", drained_mobile_rgg),
    // membership.rs: the mobile overlay's views, and gossip over them.
    ("mobile2000-views", |_| mobile_views()),
    ("mobile2000-sync", |t| mobile_overlay(sync(t))),
    ("mobile2000-async", |t| mobile_overlay(sliced(t))),
    // determinism.rs: the regression runs.
    ("ring1000-sync-sweep", ring_sweep),
    ("grid400-sync-alltoall", grid_alltoall),
    ("ring1000-async", |t| {
        cli_ring(sliced(t), default_round_cap(1000))
    }),
    ("ring1000-async-latency-0", |t| {
        cli_ring(latency(t, 0, 0), default_round_cap(1000))
    }),
    ("ring1000-async-latency-100k", |t| {
        cli_ring(latency(t, 32, 100_000), 1500)
    }),
    ("ring1000-async-latency-max", |t| {
        cli_ring(latency(t, 32, u64::MAX), 500)
    }),
    ("mobile1000-sync", |t| mobile_churn(sync(t))),
    ("mobile1000-async", |t| mobile_churn(sliced(t))),
    ("grid2500-async-churn", churned_grid),
];

/// Check the named cells at 1, 2 and 8 threads against their committed
/// files; panics naming every cell that fails.
pub fn check(names: &[&str]) {
    let failures: Vec<String> = names
        .iter()
        .filter_map(|name| check_one(name).err())
        .collect();
    assert!(failures.is_empty(), "\n{}", failures.join("\n\n"));
}

/// The committed corpus directory.
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check_one(name: &str) -> Result<(), String> {
    let run = CELLS
        .iter()
        .find(|(cell, _)| *cell == name)
        .unwrap_or_else(|| panic!("no cell is named {name}"))
        .1;
    let committed = corpus_dir().join(format!("{name}.txt"));
    let expected = fs::read_to_string(&committed).unwrap_or_default();
    for threads in [1usize, 2, 8] {
        let got = run(threads);
        if got == expected {
            continue;
        }
        let fresh_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
        let fresh = fresh_dir.join(format!("{name}.txt"));
        fs::create_dir_all(&fresh_dir)
            .and_then(|()| fs::write(&fresh, &got))
            .expect("the fresh rendering is written");
        let (line, want, have) = first_difference(&expected, &got);
        return Err(format!(
            "cell {name} (threads={threads}) left its committed file at line {line}\n  \
             committed: {want}\n  fresh:     {have}\n\
             bless it:\n  cp {} {}",
            fresh.display(),
            committed.display()
        ));
    }
    Ok(())
}

/// The 1-based number of the first line where `a` and `b` differ, and
/// that line on each side.
fn first_difference<'s>(a: &'s str, b: &'s str) -> (usize, &'s str, &'s str) {
    let (mut a, mut b) = (a.lines(), b.lines());
    for line in 1.. {
        let (x, y) = (a.next(), b.next());
        if x != y || x.is_none() {
            return (
                line,
                x.unwrap_or("<end of file>"),
                y.unwrap_or("<end of file>"),
            );
        }
    }
    unreachable!()
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run `inputs` and render the cell: a header of the inputs, the
/// `SimResult` `Debug` with a newline after every `}, ` (one history row
/// or timeline point a line; `Debug` emits no newline, so the split
/// reverses exactly), and, if `traced`, the FNV-1a of the event stream's
/// JSONL lines joined by `\n`.
fn render(sched: Scheduler, inputs: RunInputs<'_>, traced: bool) -> (String, EngineTimings) {
    let timing = sched.timing().map_or(String::new(), |t| format!(" {t:?}"));
    let header = format!(
        "{} n={} k={} {} {}{timing} dynamics={} membership={} {:?} seed={}",
        inputs.topology.name(),
        inputs.topology.num_nodes(),
        inputs.sources.len(),
        inputs.protocol.name(),
        sched.name(),
        inputs
            .dynamics
            .as_ref()
            .map_or("none".to_string(), |d| d.name()),
        inputs
            .membership
            .map_or("none".to_string(), |m| format!("{m:?}")),
        inputs.config,
        inputs.seed,
    );
    let mut probe = MemoryProbe::default();
    let (result, timings) = if traced {
        sched.run_timed(inputs, &mut probe)
    } else {
        sched.run_timed(inputs, &mut NoopProbe)
    };
    assert_eq!(
        matches!(timings, EngineTimings::Sync(_)),
        sched.name() == "sync",
        "the clocks name the engine that ran"
    );
    let result = format!("{result:?}").replace("}, ", "},\n");
    let mut text = format!("{header}\n{result}\n");
    if traced {
        let lines: Vec<String> = probe.events.iter().map(TraceEvent::to_json).collect();
        let events = fnv(lines.join("\n").as_bytes());
        text.push_str(&format!("trace_fnv {events:#018x}\n"));
    }
    (text, timings)
}

fn sync(threads: usize) -> Scheduler {
    Scheduler::Sync { threads }
}

fn sliced(threads: usize) -> Scheduler {
    Scheduler::Async {
        timing: TimingConfig::default(),
        threads,
    }
}

/// The async engine under default timing but for its latency range.
fn latency(threads: usize, min_latency: u64, max_latency: u64) -> Scheduler {
    Scheduler::Async {
        timing: TimingConfig {
            min_latency,
            max_latency,
            ..TimingConfig::default()
        },
        threads,
    }
}

fn churn(rejoin: RejoinPolicy, mean_downtime: f64) -> Churn {
    Churn {
        rate: 0.05,
        rejoin,
        mean_downtime,
    }
}

/// Churn at 5 % per round and nothing else.
fn churn_only(rejoin: RejoinPolicy, mean_downtime: f64) -> Dynamics {
    Dynamics {
        churn: Some(churn(rejoin, mean_downtime)),
        ..Dynamics::default()
    }
}

fn history(max_rounds: usize) -> SimConfig {
    SimConfig {
        max_rounds,
        record_rounds: true,
    }
}

fn no_history(max_rounds: usize) -> SimConfig {
    SimConfig {
        max_rounds,
        record_rounds: false,
    }
}

/// Advert gossip of 3 rumors on a 120-node RGG, traced. Its 2-node
/// regions send nearly every async handshake through the sliced engine's
/// boundary sweep.
fn matrix(sched: Scheduler, dynamic: bool, overlay: bool) -> String {
    let topo = Topology::random_geometric(120, &mut Rng::new(404));
    let sources = random_sources(120, 3, &mut Rng::new(0xfeed));
    let churn = churn_only(RejoinPolicy::Lose, 3.0);
    let membership = MembershipConfig::default();
    let inputs = RunInputs {
        dynamics: dynamic.then(|| Box::new(churn) as Box<dyn DynamicsModel>),
        membership: overlay.then_some(&membership),
        ..RunInputs::new(topo, Protocol::Advert, &sources, 42, history(120))
    };
    render(sched, inputs, true).0
}

/// Uniform gossip on a 2048-node async ring, traced: a region is 32
/// consecutive nodes, so all but its two end nodes handshake inside it,
/// on the region workers.
fn region_ring(threads: usize, dynamic: bool) -> String {
    let topo = Topology::ring(2048);
    let sources = random_sources(2048, 3, &mut Rng::new(0xfeed));
    let churn = churn_only(RejoinPolicy::Lose, 3.0);
    let inputs = RunInputs {
        dynamics: dynamic.then(|| Box::new(churn) as Box<dyn DynamicsModel>),
        ..RunInputs::new(topo, Protocol::Uniform, &sources, 42, history(40))
    };
    let (text, timings) = render(sliced(threads), inputs, true);
    let EngineTimings::Async(slices) = timings else {
        unreachable!("render checked the engine")
    };
    let in_regions: u64 = slices.events_by_region.counts.iter().sum();
    assert!(
        in_regions * 10 >= slices.events * 9,
        "only {in_regions} of {} events ran on the region workers",
        slices.events
    );
    text
}

/// k > 64 rumors on a 144-grid, traced: the tag is a salted 64-bit hash.
/// Sync compares one round's tags; async compares a neighbour's tag from
/// an older epoch against a current one.
fn hashed_grid(sched: Scheduler, k: usize) -> String {
    let grid = Topology::grid(144);
    let sources = random_sources(144, k, &mut Rng::new(0xfeed));
    let inputs = RunInputs::new(grid, Protocol::Advert, &sources, 42, history(400));
    render(sched, inputs, true).0
}

/// 80 hashed-tag rumors over a churned (`keep`) HyParView RGG, traced:
/// the overlay scans the kept tags of dead nodes.
fn hashed_overlay(threads: usize) -> String {
    let rgg = Topology::random_geometric(120, &mut Rng::new(404));
    let sources = random_sources(120, 80, &mut Rng::new(0xfeed));
    let churn = churn_only(RejoinPolicy::Keep, 3.0);
    let membership = MembershipConfig::default();
    let inputs = RunInputs {
        dynamics: Some(Box::new(churn)),
        membership: Some(&membership),
        ..RunInputs::new(rgg, Protocol::Advert, &sources, 42, history(400))
    };
    render(sync(threads), inputs, true).0
}

/// Advert gossip of 3 rumors on a 400-grid whose edges fade, traced.
fn faded_grid(threads: usize) -> String {
    let grid = Topology::grid(400);
    let sources = random_sources(400, 3, &mut Rng::new(0xfeed));
    let fading = Dynamics {
        fading: Some(EdgeFading {
            fade_prob: 0.2,
            mean_downtime: 1.0,
        }),
        ..Dynamics::default()
    };
    let inputs = RunInputs {
        dynamics: Some(Box::new(fading)),
        ..RunInputs::new(grid, Protocol::Advert, &sources, 42, history(200))
    };
    render(sync(threads), inputs, true).0
}

/// Advert gossip of 2 rumors on a 600-node async ring under churn
/// (`lose`) and edge fading at once, traced, capped at 150 rounds.
fn churned_faded_ring(threads: usize) -> String {
    let ring = Topology::ring(600);
    let sources = random_sources(600, 2, &mut Rng::new(0xfeed));
    let model = Dynamics {
        churn: Some(churn(RejoinPolicy::Lose, 3.0)),
        fading: Some(EdgeFading {
            fade_prob: 0.1,
            mean_downtime: 2.0,
        }),
        mobility: None,
    };
    let inputs = RunInputs {
        dynamics: Some(Box::new(model)),
        ..RunInputs::new(ring, Protocol::Advert, &sources, 42, history(150))
    };
    render(sliced(threads), inputs, true).0
}

/// Advert gossip of 2 rumors on a 500-node RGG under waypoint mobility and
/// churn whose departed nodes never return, traced, capped at 60 rounds:
/// the network drains while it moves.
fn drained_mobile_rgg(threads: usize) -> String {
    let (rgg, geometry) = Topology::random_geometric_with_geometry(500, &mut Rng::new(404));
    let sources = random_sources(500, 2, &mut Rng::new(0xfeed));
    let waypoint = Waypoint {
        geometry,
        speed: DEFAULT_SPEED_PER_ROUND,
    };
    let churn = Churn {
        rate: 0.02,
        ..churn(RejoinPolicy::Never, DEFAULT_MEAN_DOWNTIME_ROUNDS)
    };
    let model = Dynamics {
        churn: Some(churn),
        fading: None,
        mobility: Some(waypoint),
    };
    let inputs = RunInputs {
        dynamics: Some(Box::new(model)),
        ..RunInputs::new(rgg, Protocol::Advert, &sources, 42, history(60))
    };
    render(sync(threads), inputs, true).0
}

/// An `n`-node RGG under 5 % churn (`keep`) and waypoint mobility,
/// composed as the scenario builder composes them: every mutation batch
/// rewires, kills and revives overlapping neighbourhoods, so the order in
/// which `DynamicTopology` settles is load-bearing for every count.
fn mobile(n: usize, topology_seed: u64) -> (Topology, Dynamics) {
    let (topo, geometry) =
        Topology::random_geometric_with_geometry(n, &mut Rng::new(topology_seed));
    let waypoint = Waypoint {
        geometry,
        speed: DEFAULT_SPEED_PER_ROUND,
    };
    let churn = churn(RejoinPolicy::Keep, DEFAULT_MEAN_DOWNTIME_ROUNDS);
    let model = Dynamics {
        churn: Some(churn),
        fading: None,
        mobility: Some(waypoint),
    };
    (topo, model)
}

/// The overlay alone over the 2000-node mobile regime, 24 ticks in the
/// sync engine's order per round (drain the round's mutations, settle,
/// tick): its end-of-run stats, and the FNV-1a of every node's active
/// then passive view (length, then ids, little-endian `u32`s).
fn mobile_views() -> String {
    let seed = 42;
    let (topo, model) = mobile(2000, seed);
    let cfg = MembershipConfig::default();
    let mut dt = DynamicTopology::new(&topo);
    let name = model.name();
    let mut stream = Box::new(model).stream(&topo, dynamics_seed(seed));
    let mut mem = Membership::new(topo.num_nodes(), cfg);
    let ticks = 24;
    for tick in 1..=ticks {
        let horizon = SimTime(tick * TICKS_PER_ROUND);
        while stream.peek_time().is_some_and(|t| t < horizon) {
            let mutation = stream.next().expect("a peeked mutation pops");
            mutation.kind.apply_deferred(&mut dt);
        }
        dt.settle();
        mem.tick(&dt, Some(dt.alive_mask()), seed, tick, &mut NoopProbe);
    }
    let mut views = Vec::new();
    for u in 0..topo.num_nodes() as u32 {
        for view in [mem.neighbors(NodeId(u)), mem.passive_view(NodeId(u))] {
            views.extend((view.len() as u32).to_le_bytes());
            views.extend(view.iter().flat_map(|v| v.0.to_le_bytes()));
        }
    }
    format!(
        "{} n={} dynamics={} membership={cfg:?} ticks={ticks} seed={seed}\n{:?}\nviews_fnv {:#018x}\n",
        topo.name(),
        topo.num_nodes(),
        name,
        mem.finish(Some(dt.alive_mask())),
        fnv(&views),
    )
}

/// Advert gossip of 4 rumors over the overlay of [`mobile_views`], 24
/// rounds.
fn mobile_overlay(sched: Scheduler) -> String {
    let (topo, model) = mobile(2000, 42);
    let sources = random_sources(2000, 4, &mut Rng::new(0xfeed));
    let membership = MembershipConfig::default();
    let inputs = RunInputs {
        dynamics: Some(Box::new(model)),
        membership: Some(&membership),
        ..RunInputs::new(topo, Protocol::Advert, &sources, 42, history(24))
    };
    render(sched, inputs, false).0
}

/// Advert gossip from node 0 on a 1000-ring: a deterministic two-frontier
/// sweep, 500 rounds and 999 all-productive connections.
fn ring_sweep(threads: usize) -> String {
    let topo = Topology::ring(1000);
    let inputs = RunInputs::new(
        topo,
        Protocol::Advert,
        &[NodeId(0)],
        42,
        SimConfig::default(),
    );
    render(sync(threads), inputs, false).0
}

/// The experiment layer salts the seed before placing sources.
const SOURCES_SEED_SALT: u64 = 0x50_0c_e5;

/// The CLI's `--topology grid --nodes 400 --messages 400 --protocol
/// advert --seed 42`: all-to-all, 7-word rows, tags hashed and
/// round-salted.
fn grid_alltoall(threads: usize) -> String {
    let topo = Topology::grid(400);
    let sources = random_sources(400, 400, &mut Rng::new(42 ^ SOURCES_SEED_SALT));
    let cfg = no_history(default_round_cap(400));
    let inputs = RunInputs::new(topo, Protocol::Advert, &sources, 42, cfg);
    render(sync(threads), inputs, false).0
}

/// The CLI's `--topology ring --nodes 1000 --protocol advert --seed 42`
/// under `sched`, capped at `max_rounds`. Under default timing this is
/// the CLI's pinned async acceptance run; the latency cells stress the
/// event queue's edges: zero latency keeps whole act → attempt → finish
/// chains inside the open slice, 100 000 ticks lands every handshake ~98
/// slices ahead, and `u64::MAX` saturates `SimTime::after`.
fn cli_ring(sched: Scheduler, max_rounds: usize) -> String {
    let topo = Topology::ring(1000);
    let sources = random_sources(1000, 1, &mut Rng::new(42 ^ SOURCES_SEED_SALT));
    let inputs = RunInputs::new(topo, Protocol::Advert, &sources, 42, no_history(max_rounds));
    render(sched, inputs, false).0
}

/// Advert gossip of 2 rumors over HyParView on the 1000-node mobile
/// regime, to completion.
fn mobile_churn(sched: Scheduler) -> String {
    let (topo, model) = mobile(1000, 606);
    let sources = random_sources(1000, 2, &mut Rng::new(0xfeed));
    let membership = MembershipConfig::default();
    let inputs = RunInputs {
        dynamics: Some(Box::new(model)),
        membership: Some(&membership),
        ..RunInputs::new(
            topo,
            Protocol::Advert,
            &sources,
            77,
            no_history(default_round_cap(1000)),
        )
    };
    render(sched, inputs, false).0
}

/// Uniform gossip on a 2 500-node async grid under churn (`keep`), capped
/// at 120 rounds: ~40-node regions, so region queues, the boundary sweep
/// and the start-of-slice mutation drain all carry load.
fn churned_grid(threads: usize) -> String {
    let topo = Topology::grid(2500);
    let churn = churn_only(RejoinPolicy::Keep, DEFAULT_MEAN_DOWNTIME_ROUNDS);
    let sources = random_sources(2500, 2, &mut Rng::new(0xfeed));
    let inputs = RunInputs {
        dynamics: Some(Box::new(churn)),
        ..RunInputs::new(topo, Protocol::Uniform, &sources, 77, no_history(120))
    };
    render(sliced(threads), inputs, false).0
}
