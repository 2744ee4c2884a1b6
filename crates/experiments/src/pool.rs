//! Parallel grid execution: a cell pool with ordered emission.
//!
//! Grid cells are **independent by construction** — each is a pure
//! function of its scenario (PR 5's byte-identity contract), so the only
//! obstacle to running them concurrently is the output contract: grid
//! stdout must stay byte-identical to the serial grid, i.e. one line per
//! run in row-major cell order with the seed sweep innermost. The design
//! here splits those concerns:
//!
//! - **Workers** claim cells through one shared cursor over the pending
//!   list, so cells start in ascending cell order. Cells are coarse —
//!   whole simulations, milliseconds to minutes each — so one atomic
//!   increment per cell is all the scheduling they need.
//! - **The sequencer** (the caller's thread) receives completed cells
//!   over a channel in *completion* order, but releases their rendered
//!   lines in *cell* order: out-of-order completions buffer in their slot
//!   until the gap before them fills. Because cells start in order, that
//!   gap is always a cell some worker is running. Completion order is
//!   where the nondeterminism of scheduling goes to die; it never reaches
//!   stdout.
//!
//! The sequencer is also where checkpointing and progress live, precisely
//! because it is the one serial point: checkpoint records append (fsync'd)
//! in completion order as results arrive, and the heartbeat renders from
//! one consistent view of done/running counts.
//!
//! The global `--cores` budget partitions between the two levels of
//! parallelism: with cells that themselves run sharded engines
//! (`--threads T`), the pool spawns `max(1, cores / T)` cell workers so
//! the total worker-thread footprint stays within the budget
//! ([`worker_count`]). The pool runs the budget it is given; the CLI
//! clamps `--cores` to the machine first.

use crate::checkpoint::{CellRecord, CheckpointWriter};
use crate::emit::{sweep_runs, Emitter};
use crate::spec::Scenario;
use gossip_telemetry::progress::PoolProgress;
use gossip_telemetry::NoopProbe;

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// Sentinel for "worker has no active cell" in the activity table.
const IDLE: usize = usize::MAX;

/// The rendered output of one completed cell: its stdout lines (one per
/// sweep seed, CSV header excluded), its stderr warnings, and its wall
/// time. This is the unit the sequencer buffers, checkpoints, and
/// releases in cell order.
#[derive(Clone, Debug, PartialEq)]
pub struct CellOutput {
    /// Exact emitted lines, in seed order.
    pub lines: Vec<String>,
    /// Warnings to surface on stderr (incomplete runs), in seed order.
    pub warnings: Vec<String>,
    /// Wall-clock cost of the whole cell sweep.
    pub wall_ms: u64,
}

/// Run one grid cell — the full seed sweep ([`sweep_runs`]) — keeping
/// its output lines exactly as the serial grid would have emitted them.
/// Pure with respect to the pool: no shared state, no I/O, safe to call
/// from any worker.
pub fn run_cell(scenario: &Scenario) -> CellOutput {
    let started = Instant::now();
    let mut lines = Vec::new();
    let mut warnings = Vec::new();
    for run in sweep_runs(scenario, &mut NoopProbe, false) {
        lines.push(run.line);
        warnings.extend(run.warning);
    }
    CellOutput {
        lines,
        warnings,
        wall_ms: started.elapsed().as_millis() as u64,
    }
}

/// How many cell workers a global core budget affords: the budget divided
/// by the *widest* cell's inner thread count (so `workers × threads ≤
/// cores` even on heterogeneous grids), at least one, and never more than
/// there are pending cells.
pub fn worker_count(cores: usize, scenarios: &[Scenario], pending: usize) -> usize {
    let widest = scenarios
        .iter()
        .map(|s| s.scheduler.effective_threads())
        .max()
        .unwrap_or(1)
        .max(1);
    (cores / widest).max(1).min(pending.max(1))
}

/// What one pooled grid execution did, for the caller's summary line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolSummary {
    /// Cell workers the core budget afforded.
    pub workers: usize,
    /// Always 0: cells are claimed from one cursor and never move between
    /// workers. Kept because `benchmark/layers` reads it; ROADMAP 4(c)
    /// deletes it.
    pub stolen: u64,
    /// Cells replayed from the checkpoint instead of re-run.
    pub resumed: usize,
}

/// Execute an expanded grid on a cell pool, streaming its output lines to
/// `out` in row-major cell order — byte-identical to the serial grid at
/// any `cores` value.
///
/// `resumed` carries the checkpoint replay: one slot per cell, `Some` for
/// cells already completed (their recorded lines are emitted verbatim in
/// place, never re-run). Pass an empty vec for a fresh run. `checkpoint`,
/// when present, receives one fsync'd record per newly completed cell, in
/// completion order. With `progress`, a per-cell heartbeat (done/total,
/// running count, running-mean ETA, per-worker active cell) goes to
/// stderr.
pub fn execute_grid<W: Write>(
    scenarios: &[Scenario],
    cores: usize,
    resumed: Vec<Option<CellRecord>>,
    mut checkpoint: Option<CheckpointWriter>,
    progress: bool,
    out: &mut W,
) -> io::Result<PoolSummary> {
    assert!(
        !scenarios.is_empty(),
        "an expanded grid always has at least one cell"
    );
    assert!(cores >= 1, "the core budget needs at least one core");
    let total = scenarios.len();
    assert!(
        resumed.is_empty() || resumed.len() == total,
        "resume slots must cover the grid exactly"
    );

    // Slot table: resumed cells start filled (warning-free — their
    // warnings were surfaced by the original run).
    let mut slots: Vec<Option<CellOutput>> = if resumed.is_empty() {
        (0..total).map(|_| None).collect()
    } else {
        resumed
            .into_iter()
            .map(|record| {
                record.map(|r| CellOutput {
                    lines: r.lines,
                    warnings: Vec::new(),
                    wall_ms: r.wall_ms,
                })
            })
            .collect()
    };
    let resumed_count = slots.iter().filter(|s| s.is_some()).count();
    let pending: Vec<usize> = (0..total).filter(|&i| slots[i].is_none()).collect();
    let pending_count = pending.len();
    let workers = worker_count(cores, scenarios, pending_count);

    let mut emitter = Emitter::new(scenarios[0].output.format, out);
    let mut tracker = PoolProgress::new(total, workers);
    for slot in slots.iter().flatten() {
        tracker.cell_done(slot.wall_ms); // seed the ETA mean
    }
    let started = Instant::now();

    // Release the resumed prefix before any worker starts: replayed lines
    // are ready now, and an all-resumed grid never spawns a thread.
    let mut next_emit = 0usize;
    flush_ready(&mut emitter, &mut slots, &mut next_emit)?;
    if pending_count == 0 {
        return Ok(PoolSummary {
            workers: 0,
            stolen: 0,
            resumed: resumed_count,
        });
    }

    // Workers claim `pending[cursor++]` until the list runs out or the
    // sequencer aborts. `Relaxed` suffices: `pending` is fixed before any
    // worker spawns, and neither atomic publishes other data.
    let cursor = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    let active: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(IDLE)).collect();
    let (tx, rx) = mpsc::channel::<(usize, CellOutput)>();

    let outcome = std::thread::scope(|scope| -> io::Result<()> {
        for w in 0..workers {
            let tx = tx.clone();
            let (pending, cursor, aborted, active) = (&pending, &cursor, &aborted, &active);
            scope.spawn(move || {
                while !aborted.load(Ordering::Relaxed) {
                    let Some(&cell) = pending.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
                        return;
                    };
                    active[w].store(cell, Ordering::Relaxed);
                    let output = run_cell(&scenarios[cell]);
                    active[w].store(IDLE, Ordering::Relaxed);
                    if tx.send((cell, output)).is_err() {
                        return; // sequencer bailed; stop quietly
                    }
                }
            });
        }
        drop(tx);

        // The sequencer: checkpoint in completion order, emit in cell
        // order, heartbeat per completion.
        let mut sequence = |slots: &mut Vec<Option<CellOutput>>,
                            next_emit: &mut usize,
                            emitter: &mut Emitter<&mut W>,
                            tracker: &mut PoolProgress|
         -> io::Result<()> {
            for _ in 0..pending_count {
                let Ok((cell, output)) = rx.recv() else {
                    break; // every worker exited (all sends done)
                };
                if let Some(writer) = checkpoint.as_mut() {
                    writer.record(&CellRecord {
                        cell,
                        scenario_id: scenarios[cell].scenario_id(),
                        seed: scenarios[cell].seed,
                        wall_ms: output.wall_ms,
                        lines: output.lines.clone(),
                    })?;
                }
                tracker.cell_done(output.wall_ms);
                slots[cell] = Some(output);
                flush_ready(emitter, slots, next_emit)?;
                if progress {
                    let snapshot: Vec<Option<usize>> = active
                        .iter()
                        .map(|a| {
                            let v = a.load(Ordering::Relaxed);
                            (v != IDLE).then_some(v)
                        })
                        .collect();
                    eprintln!(
                        "{}",
                        tracker.heartbeat(
                            &scenarios[cell].scenario_id(),
                            started.elapsed().as_secs_f64(),
                            &snapshot,
                        )
                    );
                }
            }
            Ok(())
        };
        let run = sequence(&mut slots, &mut next_emit, &mut emitter, &mut tracker);
        if run.is_err() {
            // Stop workers from burning cores on output nobody will read.
            aborted.store(true, Ordering::Relaxed);
        }
        run
    });
    outcome?;

    debug_assert_eq!(next_emit, total, "every cell must have been released");
    Ok(PoolSummary {
        workers,
        stolen: 0,
        resumed: resumed_count,
    })
}

/// Release the longest ready prefix: emit each filled slot at the cursor,
/// surface its warnings, and advance. Slots are `take`n so buffered
/// output frees as soon as it is flushed.
fn flush_ready<W: Write>(
    emitter: &mut Emitter<W>,
    slots: &mut [Option<CellOutput>],
    next_emit: &mut usize,
) -> io::Result<()> {
    while *next_emit < slots.len() {
        let Some(cell) = slots[*next_emit].take() else {
            break;
        };
        for line in &cell.lines {
            emitter.emit_rendered(line)?;
        }
        for warning in &cell.warnings {
            eprintln!("warning: {warning}");
        }
        *next_emit += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioBuilder;

    #[test]
    fn worker_count_partitions_the_core_budget_by_the_widest_cell() {
        let narrow = ScenarioBuilder::new().finish().unwrap(); // threads = 1
        let narrow = std::slice::from_ref(&narrow);
        assert_eq!(worker_count(1, narrow, 10), 1);
        assert_eq!(worker_count(4, narrow, 10), 4);
        assert_eq!(worker_count(4, narrow, 2), 2, "capped at pending");
        assert_eq!(worker_count(4, narrow, 0), 1, "degenerate but nonzero");
        // Inner threads shrink the cell-level parallelism. (The builder's
        // thread count is clamped to this machine's parallelism when the
        // cell runs, so derive the expectation from the same clamp.)
        let wide = ScenarioBuilder::new().sync_scheduler(4).finish().unwrap();
        let widest = wide.scheduler.effective_threads();
        let wide = std::slice::from_ref(&wide);
        assert_eq!(worker_count(8, wide, 10), (8 / widest).min(10));
        assert_eq!(worker_count(1, wide, 10), 1, "budget below one cell");
    }

    #[test]
    fn run_cell_renders_the_sweep_in_seed_order_with_ids() {
        let scenario = ScenarioBuilder::new().nodes(16).seeds(2).finish().unwrap();
        let output = run_cell(&scenario);
        assert_eq!(output.lines.len(), 2);
        assert!(output.lines[0].contains("\"scenario_id\":\"ring-uniform-sync-n16-k1-s1\""));
        assert!(output.lines[1].contains("-s2\""));
        assert!(output.warnings.is_empty(), "16-node ring completes");
    }
}
