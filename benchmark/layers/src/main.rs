//! The traced per-layer pass: one workload, in process, every call into
//! a gossip crate inside a span.
//!
//! The span tree of a pass is
//!
//! ```text
//! benchmark.<workload>            root
//! ├─ benchmark.pipeline           what the binary does for this workload, once
//! │   └─ … one span per layer boundary the crates' public API exposes
//! └─ benchmark.diagnostics        the same layers again, in isolation:
//!     └─ …                        kernels, thread-1 reruns, replays
//! ```
//!
//! Layer shares are self times inside `benchmark.pipeline` only, so the
//! diagnostics (which rerun engines several times) never inflate a
//! layer. The engines are reached only through `Scenario`, `run_bench`,
//! `execute_grid` and friends — never a `Scheduler::run_*` method — so
//! this file survives the planned scheduler refactor.
//!
//! Where the public API returns a time instead of letting us clock a
//! call (engine phase sums from `run_bench`), or where a layer only runs
//! inside an engine (`dynamics`, `membership` under `Scenario::run`) and
//! is replayed outside it, the time becomes a *synthetic* child span:
//! placed inside its parent, flagged `"synthetic":true` in the span file.
//!
//! Output protocol (stdout, tab separated; read by the harness):
//! `metric <name> <value>`, `share <layer> <seconds> <share>`,
//! `pipeline_s <v>`, `root_coverage <v>`, `fingerprint <hex>`, `note <text>`.
//! The spans go to the `--spans` file, under a header line carrying `--stamp`.

use gossip_benchmark::metrics;
use gossip_benchmark::runline::{visit_csv_rows, visit_json_lines, Fnv};
use gossip_benchmark::span::{covered_ns, self_time_by_layer, Recorder};
use gossip_benchmark::stats::summarize;
use gossip_benchmark::workload::{self, Kind, Size, Workload};
use gossip_core::{
    resolve_connections_sharded, DynamicTopology, Intent, MessageMatrix, NodeId, Rng, SimTime,
    Topology, MATCH_REGIONS, TICKS_PER_ROUND,
};
use gossip_dynamics::dynamics_seed;
use gossip_experiments::{
    execute_grid, parse_spec, read_checkpoint, run_bench, run_line_csv, run_line_json,
    verify_against, worker_count, BenchReport, BenchScenario, CellRecord, CheckpointWriter,
    EnginePhases, RunMeta, Scenario, ScenarioBuilder,
};
use gossip_membership::Membership;
use gossip_sim::SimResult;
use gossip_telemetry::analyze::Analyzer;
use gossip_telemetry::{json, MemoryProbe, NoopProbe, TraceWriter};
use std::fs::File;
use std::hint::black_box;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

type Failure = Box<dyn std::error::Error>;

struct Opts {
    workload: &'static Workload,
    size: Size,
    seed: u64,
    threads: usize,
    spans: PathBuf,
    scratch: PathBuf,
    /// What the harness ran on; copied into the span file's header.
    stamp: String,
}

fn parse_opts() -> Result<Opts, Failure> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut size, mut seed, mut threads, mut spans, mut scratch, mut stamp) =
        (None, Size::Bench, 42, 1, None, None, String::new());
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::find(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--size" => {
                size = if value == "smoke" {
                    Size::Smoke
                } else {
                    Size::Bench
                }
            }
            "--seed" => seed = value.parse()?,
            "--threads" => threads = value.parse()?,
            "--spans" => spans = Some(PathBuf::from(value)),
            "--scratch" => scratch = Some(PathBuf::from(value)),
            "--stamp" => stamp = value,
            other => return Err(format!("unknown argument '{other}'").into()),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        size,
        seed,
        threads,
        spans: spans.ok_or("--spans is required")?,
        scratch: scratch.ok_or("--scratch is required")?,
        stamp,
    })
}

/// One traced pass: the span recorder plus what will be printed.
struct Pass {
    rec: Recorder,
    opts: Opts,
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<String>,
    fingerprint: Fnv,
}

impl Pass {
    fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            metrics::per_layer(name).is_some(),
            "'{name}' is not in the per-layer table"
        );
        self.metrics.push((name, value));
    }

    fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Clock `f` inside a span; returns its value and duration.
    fn timed<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.rec.enter(name);
        let value = f();
        (value, self.rec.exit(id))
    }

    /// The workload's scenario at `threads` engine threads, built the
    /// way the CLI builds it: one `set` per assignment, then `finish`.
    fn scenario(&mut self, threads: usize) -> Result<Scenario, Failure> {
        let assignments =
            self.opts
                .workload
                .assignments(self.opts.size, self.opts.seed, threads, false);
        let (built, _) = self.timed("experiments.scenario.build", || {
            let mut builder = ScenarioBuilder::new();
            for (key, value) in &assignments {
                builder.set(key, value);
            }
            builder.finish()
        });
        built.map_err(|errors| gossip_experiments::join_errors(&errors).into())
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn meta(threads: usize) -> RunMeta {
    RunMeta {
        threads,
        wall_ms: 0,
    }
}

/// The run line the binary would print for `result`.
fn render(scenario: &Scenario, result: &SimResult) -> String {
    run_line_json(
        &scenario.with_seed(result.seed).scenario_id(),
        result,
        &meta(scenario.scheduler.effective_threads()),
    )
}

// ---------------------------------------------------------------- core

/// `TopologySpec::build`, clocked directly. Returns the build time too.
fn topology_build(
    pass: &mut Pass,
    scenario: &Scenario,
) -> (Topology, Option<gossip_core::RggGeometry>, f64) {
    let ((topology, geometry), secs) = pass.timed("core.topology.build", || {
        scenario.topology.build(scenario.nodes, scenario.seed)
    });
    pass.metric("core.topology.build_s", secs);
    pass.metric("core.topology.edges", topology.num_edges() as f64);
    (topology, geometry, secs)
}

/// The three `core` kernels, alone, on the workload's own topology and
/// message universe: the sharded matcher over harness-generated intents,
/// the parallel row union over the matching that produced, and salted
/// fingerprints over every row. Each is repeated until it has done a
/// fixed amount of work, so the small workloads still clock
/// milliseconds, and reported per call (the last call's counts).
fn core_kernels(pass: &mut Pass, topology: &Topology, messages: usize) {
    let n = topology.num_nodes();
    let (seed, threads) = (pass.opts.seed, pass.opts.threads);
    let mut rng = Rng::new(seed ^ 0x6b65_726e);
    let intents: Vec<Intent> = (0..n)
        .map(|u| {
            let neighbors = topology.neighbors(NodeId(u as u32));
            if neighbors.is_empty() || rng.gen_bool() {
                Intent::Listen
            } else {
                Intent::Propose(neighbors[rng.gen_range(neighbors.len())])
            }
        })
        .collect();
    let proposals = intents
        .iter()
        .filter(|i| matches!(i, Intent::Propose(_)))
        .count();

    let reps = (2_000_000 / n).clamp(1, 64);
    let (resolution, secs) = pass.timed("core.matching.kernel", || {
        let mut last = None;
        for round in 0..reps {
            last = Some(black_box(resolve_connections_sharded(
                topology,
                black_box(&intents),
                seed,
                round as u64,
                MATCH_REGIONS,
                threads,
            )));
        }
        last.expect("reps >= 1")
    });
    let connections = resolution.connections.len();
    pass.metric("core.matching.kernel_s", secs / reps as f64);
    pass.metric("core.matching.proposals", proposals as f64);
    pass.metric("core.matching.connections", connections as f64);
    pass.metric(
        "core.matching.match_ratio",
        ratio(connections as f64, proposals as f64),
    );

    let mut matrix = MessageMatrix::new(n, messages);
    for u in 0..n {
        matrix.insert(u, u % messages);
    }
    let words_per_row = messages.div_ceil(64);
    let reps = (20_000_000 / (connections.max(1) * words_per_row)).clamp(1, 64);
    let (_, secs) = pass.timed("core.message.union_kernel", || {
        for _ in 0..reps {
            black_box(matrix.union_pairs_parallel(black_box(&resolution.connections), threads));
        }
    });
    pass.metric("core.message.union_kernel_s", secs / reps as f64);
    pass.metric(
        "core.message.union_words_per_s",
        ratio((2 * connections * words_per_row * reps) as f64, secs),
    );

    let reps = (20_000_000 / (n * words_per_row)).clamp(1, 64);
    let (_, secs) = pass.timed("core.message.fingerprint_kernel", || {
        let mut acc = 0u64;
        for salt in 0..reps as u64 {
            for u in 0..n {
                acc ^= matrix.view(u).fingerprint_salted(salt);
            }
        }
        black_box(acc)
    });
    pass.metric("core.message.fingerprint_kernel_s", secs / reps as f64);
}

// ----------------------------------------------------------------- sim

/// `run_bench` on the static path, with the times it reports placed as
/// synthetic children: the topology build, then the engine's phases.
/// Returns the report and the span id.
fn bench(pass: &mut Pass, scenario: &Scenario, name: &str) -> (BenchReport, usize) {
    let bench = BenchScenario {
        scenario: scenario.clone(),
        rounds: scenario.sim_config().max_rounds,
    };
    let id = pass.rec.enter(name);
    let report = run_bench(&bench);
    pass.rec.exit(id);
    let build = ("core.topology.build", report.build_ms as f64 / 1e3);
    match report.phases {
        EnginePhases::Sync(p) => pass.rec.place_children(
            id,
            &[
                build,
                ("protocols.advertise", p.advertise / 1e3),
                ("protocols.decide", p.decide / 1e3),
                ("core.matching.match", p.matching / 1e3),
                ("core.message.transfer", p.transfer / 1e3),
            ],
        ),
        // The sliced loop's phases are all `sim::sliced` code; protocol
        // and matcher calls happen inside `execute` and cannot be split
        // out from here.
        EnginePhases::Async(s) => pass.rec.place_children(
            id,
            &[
                build,
                ("sim.async.execute", s.execute / 1e3),
                ("sim.async.merge", s.merge / 1e3),
                ("sim.async.sweep", s.sweep / 1e3),
            ],
        ),
    }
    (report, id)
}

/// Engine-phase metrics from a bench report.
fn phase_metrics(pass: &mut Pass, report: &BenchReport, edges: usize, result: &SimResult) {
    match report.phases {
        EnginePhases::Sync(p) => {
            pass.metric("core.matching.match_s", p.matching / 1e3);
            pass.metric(
                "core.matching.boundary_share",
                ratio(
                    p.boundary_proposals as f64,
                    (p.confined_proposals + p.boundary_proposals) as f64,
                ),
            );
            pass.metric("core.message.transfer_s", p.transfer / 1e3);
            pass.metric("protocols.advertise_s", p.advertise / 1e3);
            pass.metric("protocols.decide_s", p.decide / 1e3);
            // Every node scans each neighbor's tag once per round.
            pass.metric(
                "protocols.decide_ns_per_neighbor",
                ratio(p.decide * 1e6, (2 * edges * report.rounds_executed) as f64),
            );
            pass.metric("sim.sync.node_rounds_per_s", report.node_events_per_sec);
            pass.metric("sim.sync.region_imbalance", report.region_load.imbalance);
        }
        EnginePhases::Async(s) => {
            pass.metric("sim.async.execute_s", s.execute / 1e3);
            pass.metric("sim.async.merge_s", s.merge / 1e3);
            pass.metric("sim.async.sweep_s", s.sweep / 1e3);
            pass.metric("sim.async.slices", s.slices as f64);
            pass.metric("sim.async.events", s.events as f64);
            pass.metric("sim.async.events_per_s", s.events_per_sec);
            pass.metric(
                "sim.async.dropped_share",
                ratio(
                    result.dropped_proposals as f64,
                    result.dropped_proposals as f64 + result.total_connections as f64,
                ),
            );
            pass.metric("sim.async.region_imbalance", report.region_load.imbalance);
        }
    }
}

/// Counts every synchronous run reports, from its `SimResult`.
fn sync_counts(pass: &mut Pass, result: &SimResult) {
    pass.metric("sim.sync.rounds", result.rounds_executed as f64);
    pass.metric("sim.sync.connections", result.total_connections as f64);
    pass.metric(
        "sim.sync.productive_share",
        ratio(
            result.productive_connections as f64,
            result.total_connections as f64,
        ),
    );
}

/// With one core there is no thread scaling to observe: say so rather
/// than report a speedup of 1.
const ONE_THREAD: &str = "one engine thread / pool core: no scaling claim, speedup not reported";

/// A static single-scenario workload (`sync-*`, `async-*`): the pipeline
/// is one `run_bench` at T threads, which runs the same engine on the
/// same inputs as the binary and reports where the time went.
fn static_workload(pass: &mut Pass) -> Result<(), Failure> {
    let threads = pass.opts.threads;
    let pipeline = pass.rec.enter("benchmark.pipeline");
    let scenario = pass.scenario(threads)?;
    let (report, _) = bench(pass, &scenario, "sim.bench");
    pass.rec.exit(pipeline);

    let diagnostics = pass.rec.enter("benchmark.diagnostics");
    let (topology, _, _) = topology_build(pass, &scenario);
    let (result, run_s) = pass.timed("sim.run", || scenario.run());
    pass.metric("sim.run_s", run_s);
    if (
        report.rounds_executed,
        report.total_connections,
        report.completed,
    ) != (
        result.rounds_executed,
        result.total_connections,
        result.completed,
    ) {
        return Err("run_bench and Scenario::run disagree on the same scenario".into());
    }
    visit_json_lines(&render(&scenario, &result), &mut pass.fingerprint, |_| ())?;
    phase_metrics(pass, &report, topology.num_edges(), &result);
    let is_async = matches!(report.phases, EnginePhases::Async(_));
    if !is_async {
        sync_counts(pass, &result);
    }
    if threads > 1 {
        let one = pass.scenario(1)?;
        let (serial, _) = bench(pass, &one, "sim.bench.threads1");
        let name = if is_async {
            "sim.async.speedup"
        } else {
            "sim.sync.speedup"
        };
        pass.metric(name, ratio(serial.wall_ms as f64, report.wall_ms as f64));
    } else {
        pass.note(ONE_THREAD);
    }
    core_kernels(pass, &topology, scenario.messages);
    pass.rec.exit(diagnostics);
    Ok(())
}

// ------------------------------------------------ dynamics, membership

/// What replaying a dynamic run's topology side outside the engine cost.
struct Replay {
    build_s: f64,
    init_s: f64,
    drain_s: f64,
    apply_s: f64,
    tick_s: f64,
}

/// Replay what the sync engine does to the network each round —
/// drain the mutation stream to the round's horizon, apply each mutation
/// to a `DynamicTopology`, tick the membership overlay over the result —
/// with no gossip in between. The stream is a pure function of (model,
/// topology, seed) and the overlay of (underlay, seed, tick), so this is
/// the same sequence of calls on the same data as inside the run.
fn replay_dynamics(
    pass: &mut Pass,
    scenario: &Scenario,
    result: &SimResult,
) -> Result<Replay, Failure> {
    let (topology, geometry, build_s) = topology_build(pass, scenario);
    let model = scenario
        .dynamics
        .build(geometry.as_ref())
        .ok_or("the dynamic workload has no dynamics model")?;
    let n = topology.num_nodes();
    let rounds = result.rounds_executed as u64;

    let (mut stream, init_s) = pass.timed("dynamics.stream.init", || {
        model.stream(&topology, dynamics_seed(scenario.seed))
    });
    let mut dynamic = DynamicTopology::new(&topology);
    let mut overlay = scenario
        .membership
        .to_config()
        .map(|cfg| Membership::new(n, cfg));
    let (mut drain_s, mut apply_s, mut tick_s) = (0.0, 0.0, 0.0);
    let (mut drained, mut applied) = (0u64, 0u64);
    let replay = pass.rec.enter("benchmark.replay");
    for round in 1..=rounds {
        let horizon = SimTime(round * TICKS_PER_ROUND);
        let clock = Instant::now();
        let mut batch = Vec::new();
        while stream.peek_time().is_some_and(|t| t < horizon) {
            batch.push(stream.next().ok_or("peeked mutation must pop")?);
        }
        drain_s += clock.elapsed().as_secs_f64();
        drained += batch.len() as u64;

        let clock = Instant::now();
        for mutation in &batch {
            applied += u64::from(mutation.kind.apply(&mut dynamic));
        }
        apply_s += clock.elapsed().as_secs_f64();

        if let Some(overlay) = overlay.as_mut() {
            let clock = Instant::now();
            overlay.tick(
                &dynamic,
                Some(dynamic.alive_mask()),
                scenario.seed,
                round,
                &mut NoopProbe,
            );
            tick_s += clock.elapsed().as_secs_f64();
        }
    }
    pass.rec.exit(replay);
    pass.rec.place_children(
        replay,
        &[
            ("dynamics.stream.drain", drain_s),
            ("core.dynamic.apply", apply_s),
            ("membership.tick", tick_s),
        ],
    );

    pass.metric("dynamics.stream.init_s", init_s);
    pass.metric("dynamics.stream.drain_s", drain_s);
    pass.metric("dynamics.stream.mutations", drained as f64);
    pass.metric(
        "dynamics.stream.mutations_per_s",
        ratio(drained as f64, drain_s),
    );
    pass.metric("core.dynamic.apply_s", apply_s);
    pass.metric("core.dynamic.mutations", applied as f64);
    if let Some(overlay) = &overlay {
        let stats = overlay.finish(Some(dynamic.alive_mask()));
        // The replay is only evidence if it did what the run did.
        if result.membership.map(|m| (m.evictions, m.joins)) != Some((stats.evictions, stats.joins))
        {
            return Err("membership replay diverged from the run (evictions/joins differ)".into());
        }
        pass.metric("membership.tick_s", tick_s);
        pass.metric("membership.ticks", rounds as f64);
        pass.metric(
            "membership.tick_ns_per_node",
            ratio(tick_s * 1e9, (rounds * n as u64) as f64),
        );
        pass.metric("membership.evictions", stats.evictions as f64);
        pass.metric(
            "membership.false_positive_share",
            ratio(
                stats.false_positive_evictions as f64,
                stats.evictions as f64,
            ),
        );
    }
    if result.dynamics.as_ref().map(|d| d.final_alive) != Some(dynamic.alive_count()) {
        return Err("dynamics replay diverged from the run (final alive count differs)".into());
    }
    core_kernels(pass, &topology, scenario.messages);
    Ok(Replay {
        build_s,
        init_s,
        drain_s,
        apply_s,
        tick_s,
    })
}

/// The dynamic workload: `run_bench` would silently drop the dynamics
/// and the membership overlay, so the pipeline is `Scenario::run` itself
/// and there is no engine phase split — say so rather than report
/// static-path phases.
fn dynamic_workload(pass: &mut Pass) -> Result<(), Failure> {
    let threads = pass.opts.threads;
    let pipeline = pass.rec.enter("benchmark.pipeline");
    let scenario = pass.scenario(threads)?;
    let run = pass.rec.enter("sim.run");
    let result = scenario.run();
    let run_s = pass.rec.exit(run);
    pass.rec.exit(pipeline);
    pass.metric("sim.run_s", run_s);
    sync_counts(pass, &result);
    visit_json_lines(&render(&scenario, &result), &mut pass.fingerprint, |_| ())?;

    let diagnostics = pass.rec.enter("benchmark.diagnostics");
    let replay = replay_dynamics(pass, &scenario, &result)?;
    pass.rec.place_children(
        run,
        &[
            ("core.topology.build", replay.build_s),
            ("dynamics.stream", replay.init_s + replay.drain_s),
            ("core.dynamic.apply", replay.apply_s),
            ("membership.tick", replay.tick_s),
        ],
    );
    if threads > 1 {
        let one = pass.scenario(1)?;
        let (serial, serial_s) = pass.timed("sim.run.threads1", || one.run());
        if serial.total_connections != result.total_connections {
            return Err("thread count changed the result".into());
        }
        pass.metric("sim.sync.speedup", ratio(serial_s, run_s));
    } else {
        pass.note(ONE_THREAD);
    }
    pass.rec.exit(diagnostics);
    pass.note("no engine phase split: run_bench drops dynamics and membership, so sim.run's remainder (advertise, decide, match, transfer, loop) stays unsplit under 'sim' until in-program spans exist");
    pass.note("dynamics.*, core.dynamic.* and membership.* are a replay of the run's mutation drain, applies and ticks outside the engine (checked against the run's own counters)");
    Ok(())
}

// --------------------------------------------------------- experiments

fn grid_workload(pass: &mut Pass) -> Result<(), Failure> {
    let cores = pass.opts.threads;
    let text = pass
        .opts
        .workload
        .spec_text(pass.opts.size, pass.opts.seed, false);

    let pipeline = pass.rec.enter("benchmark.pipeline");
    let (grid, parse_s) = pass.timed("experiments.spec.parse", || parse_spec(&text));
    let grid = grid.map_err(|errors| gossip_experiments::join_errors(&errors))?;
    let (cells, expand_s) = pass.timed("experiments.grid.expand", || grid.expand());
    let cells = cells?;
    let mut output = Vec::new();
    let pool = pass.rec.enter("experiments.pool.run");
    let summary = execute_grid(&cells, cores, Vec::new(), None, false, &mut output)?;
    let pool_s = pass.rec.exit(pool);
    pass.rec.exit(pipeline);
    let output = String::from_utf8(output)?;
    visit_csv_rows(&output, &mut pass.fingerprint, |_| ())?;
    pass.metric("experiments.spec.parse_s", parse_s);
    pass.metric("experiments.grid.expand_s", expand_s);
    pass.metric("experiments.grid.cells", cells.len() as f64);
    pass.metric("experiments.pool.run_s", pool_s);
    pass.metric(
        "experiments.pool.cells_per_s",
        ratio(cells.len() as f64, pool_s),
    );
    pass.metric("experiments.pool.stolen", summary.stolen as f64);

    let diagnostics = pass.rec.enter("benchmark.diagnostics");
    // Every cell once, serially, with no pool: what the engines cost.
    let (results, serial_s) = pass.timed("sim.cells.serial", || {
        cells.iter().map(Scenario::run).collect::<Vec<SimResult>>()
    });
    pass.metric("sim.run_s", serial_s);
    let workers = worker_count(cores, &cells, cells.len());
    pass.rec
        .place_children(pool, &[("sim.cells", serial_s / workers as f64)]);
    pass.note(format!("experiments.pool.run's 'sim.cells' child is an estimate: serial in-process time of all cells ({serial_s:.3} s) / {workers} workers"));

    if cores > 1 {
        let (serial_pool, serial_pool_s) = pass.timed("experiments.pool.run.cores1", || {
            execute_grid(&cells, 1, Vec::new(), None, false, &mut Vec::new())
        });
        serial_pool?;
        pass.metric("experiments.pool.speedup", ratio(serial_pool_s, pool_s));
    } else {
        pass.note(ONE_THREAD);
    }

    let ((), render_s) = pass.timed("experiments.emit.render", || {
        let mut bytes = 0usize;
        for (cell, result) in cells.iter().zip(&results) {
            bytes += black_box(run_line_csv(&cell.scenario_id(), result, &meta(1))).len() + 1;
        }
        black_box(bytes);
    });
    pass.metric("experiments.emit.render_s", render_s);
    pass.metric("experiments.emit.bytes", output.len() as f64);

    checkpoint_kernel(pass, &cells, &output)?;
    pass.rec.exit(diagnostics);
    Ok(())
}

/// Checkpointing is kept out of the end-to-end run (per-cell fsync is
/// too noisy to bound); here each record is clocked alone, then the file
/// is read back and verified against the grid — the `--resume` path.
fn checkpoint_kernel(pass: &mut Pass, cells: &[Scenario], output: &str) -> Result<(), Failure> {
    let path = pass.opts.scratch.join("checkpoint.jsonl");
    let path_str = path
        .to_str()
        .ok_or("scratch path is not UTF-8")?
        .to_string();
    let _ = std::fs::remove_file(&path);
    let records: Vec<CellRecord> = cells
        .iter()
        .zip(output.lines().skip(1))
        .take(256)
        .enumerate()
        .map(|(cell, (scenario, line))| CellRecord {
            cell,
            scenario_id: scenario.scenario_id(),
            seed: scenario.seed,
            wall_ms: 0,
            lines: vec![line.to_string()],
        })
        .collect();
    let span = pass.rec.enter("experiments.checkpoint.record");
    let mut writer = CheckpointWriter::create(&path_str)?;
    let mut samples = Vec::with_capacity(records.len());
    for record in &records {
        let clock = Instant::now();
        writer.record(record)?;
        samples.push(clock.elapsed().as_secs_f64());
    }
    drop(writer);
    pass.rec.exit(span);
    let summary = summarize(&samples);
    pass.metric("experiments.checkpoint.record_s", summary.median);
    match summary.tail {
        Some((95, p95)) => pass.metric("experiments.checkpoint.record_p95_s", p95),
        _ => pass.note(format!(
            "{} checkpoint records: too few samples for a p95",
            summary.n
        )),
    }
    let (read, read_s) = pass.timed("experiments.checkpoint.read", || {
        read_checkpoint(&path_str).map(|checkpoint| verify_against(checkpoint.records, cells))
    });
    let slots = read??;
    if slots.iter().filter(|slot| slot.is_some()).count() != records.len() {
        return Err("checkpoint read back fewer records than were written".into());
    }
    pass.metric("experiments.checkpoint.read_s", read_s);
    std::fs::remove_file(&path)?;
    Ok(())
}

// ----------------------------------------------------------- telemetry

fn trace_workload(pass: &mut Pass) -> Result<(), Failure> {
    let threads = pass.opts.threads;
    let trace_path = pass.opts.scratch.join("trace-inprocess.jsonl");

    let pipeline = pass.rec.enter("benchmark.pipeline");
    let scenario = pass.scenario(threads)?;
    let seeds: Vec<Scenario> = (0..scenario.seeds as u64)
        .map(|offset| scenario.with_seed(scenario.seed.wrapping_add(offset)))
        .collect();
    // The write path, as the binary drives it: one header per seed, then
    // the probed run, into a buffered file.
    let write = pass.rec.enter("telemetry.trace.write");
    let mut writer = TraceWriter::new(BufWriter::new(File::create(&trace_path)?));
    let mut traced_lines = String::new();
    for one in &seeds {
        writer.begin_run(&one.scenario_id(), one.nodes, one.messages, one.seed);
        let result = one.run_probed(&mut writer);
        traced_lines.push_str(&render(&scenario, &result));
        traced_lines.push('\n');
    }
    let events = writer.events();
    writer.finish()?;
    let write_s = pass.rec.exit(write);
    // The read path: run lines, then the trace, through the analyzer.
    let analyze = pass.rec.enter("telemetry.analyze");
    let mut analyzer = Analyzer::default();
    let mut lines = 0u64;
    for line in traced_lines.lines() {
        analyzer.add_line(line);
        lines += 1;
    }
    for line in BufReader::new(File::open(&trace_path)?).lines() {
        analyzer.add_line(&line?);
        lines += 1;
    }
    let report = analyzer.report();
    let analyze_s = pass.rec.exit(analyze);
    pass.rec.exit(pipeline);
    visit_json_lines(traced_lines.trim_end(), &mut pass.fingerprint, |_| ())?;
    pass.fingerprint.write(report.as_bytes());
    let trace_bytes = std::fs::metadata(&trace_path)?.len();

    let diagnostics = pass.rec.enter("benchmark.diagnostics");
    let (topology, _, _) = topology_build(pass, &scenario);
    let (untraced, run_s) = pass.timed("sim.run", || {
        seeds.iter().map(Scenario::run).collect::<Vec<SimResult>>()
    });
    let untraced_lines: String = untraced
        .iter()
        .map(|r| render(&scenario, r) + "\n")
        .collect();
    if untraced_lines != traced_lines {
        return Err("tracing changed a run line".into());
    }
    pass.rec.place_children(write, &[("sim.run", run_s)]);
    let (memory_events, memory_s) = pass.timed("telemetry.probe.memory", || {
        seeds
            .iter()
            .map(|one| {
                let mut probe = MemoryProbe::default();
                one.run_probed(&mut probe);
                probe.events.len() as u64
            })
            .sum::<u64>()
    });
    if memory_events != events {
        return Err(format!("MemoryProbe saw {memory_events} events, TraceWriter {events}").into());
    }
    let (parsed, parse_s) = pass.timed("telemetry.json.parse", || -> Result<u64, Failure> {
        let mut parsed = 0u64;
        for line in BufReader::new(File::open(&trace_path)?).lines() {
            black_box(json::parse(&line?)?);
            parsed += 1;
        }
        Ok(parsed)
    });
    if parsed? != events + seeds.len() as u64 {
        return Err(
            "the trace file does not hold one line per event plus one header per run".into(),
        );
    }
    std::fs::remove_file(&trace_path)?;

    pass.metric("sim.run_s", run_s);
    pass.metric("telemetry.trace.write_s", write_s);
    pass.metric("telemetry.trace.events", events as f64);
    pass.metric("telemetry.trace.bytes", trace_bytes as f64);
    pass.metric(
        "telemetry.trace.events_per_s",
        ratio(events as f64, write_s),
    );
    pass.metric("telemetry.trace.overhead_ratio", ratio(write_s, run_s));
    pass.metric("telemetry.probe.memory_s", memory_s);
    pass.metric("telemetry.analyze.run_s", analyze_s);
    pass.metric(
        "telemetry.analyze.lines_per_s",
        ratio(lines as f64, analyze_s),
    );
    pass.metric("telemetry.json.parse_s", parse_s);

    // The engine under the trace is a plain static sync run: give it the
    // same phase split as the sync workloads, on its first seed.
    let (report, _) = bench(pass, &seeds[0], "sim.bench");
    phase_metrics(pass, &report, topology.num_edges(), &untraced[0]);
    sync_counts(pass, &untraced[0]);
    core_kernels(pass, &topology, scenario.messages);
    pass.rec.exit(diagnostics);
    pass.note("telemetry.trace.write's 'sim.run' child is the untraced run time measured in the diagnostics; the span's self time is the cost of tracing");
    Ok(())
}

// ---------------------------------------------------------------- main

fn run() -> Result<(), Failure> {
    let opts = parse_opts()?;
    let workload = opts.workload;
    let mut pass = Pass {
        rec: Recorder::new(),
        opts,
        metrics: Vec::new(),
        notes: Vec::new(),
        fingerprint: Fnv::default(),
    };
    let root = pass.rec.enter(&format!("benchmark.{}", workload.name));
    match workload.kind {
        Kind::Grid => grid_workload(&mut pass)?,
        Kind::TraceAnalyze => trace_workload(&mut pass)?,
        Kind::Run if workload.name.starts_with("dyn-") => dynamic_workload(&mut pass)?,
        Kind::Run => static_workload(&mut pass)?,
    }
    pass.rec.exit(root);

    let spans = pass.rec.spans();
    let pipeline = spans
        .iter()
        .position(|s| s.name == "benchmark.pipeline")
        .ok_or("no pipeline span")?;
    let pipeline_ns = spans[pipeline].duration_ns();
    let mut shares: Vec<(String, u64)> = self_time_by_layer(spans, pipeline).into_iter().collect();
    shares.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for (name, value) in &pass.metrics {
        writeln!(out, "metric\t{name}\t{value}")?;
    }
    for (layer, ns) in shares {
        writeln!(
            out,
            "share\t{layer}\t{}\t{}",
            ns as f64 / 1e9,
            ratio(ns as f64, pipeline_ns as f64)
        )?;
    }
    writeln!(out, "pipeline_s\t{}", pipeline_ns as f64 / 1e9)?;
    writeln!(
        out,
        "root_coverage\t{}",
        ratio(
            covered_ns(spans, root) as f64,
            spans[root].duration_ns() as f64
        )
    )?;
    writeln!(out, "fingerprint\t{:016x}", pass.fingerprint.finish())?;
    for note in &pass.notes {
        writeln!(out, "note\t{note}")?;
    }
    out.flush()?;

    if let Some(dir) = pass.opts.spans.parent() {
        std::fs::create_dir_all(dir)?;
    }
    pass.rec.write_jsonl(
        &pass.opts.stamp,
        BufWriter::new(File::create(&pass.opts.spans)?),
    )?;
    Ok(())
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
