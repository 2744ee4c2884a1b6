//! Parallel grid execution: a work-stealing cell pool with ordered
//! emission.
//!
//! Grid cells are **independent by construction** — each is a pure
//! function of its scenario (PR 5's byte-identity contract), so the only
//! obstacle to running them concurrently is the output contract: grid
//! stdout must stay byte-identical to the serial grid, i.e. one line per
//! run in row-major cell order with the seed sweep innermost. The design
//! here splits those concerns:
//!
//! - **Workers** (`StealQueues`) pull cell indices from per-worker
//!   contiguous ranges of the pending list; a worker that drains its own
//!   range steals the back half of the fullest other range (two locks,
//!   taken in index order, so concurrent thieves cannot deadlock). Cells
//!   are coarse — whole simulations, milliseconds to minutes each — so a
//!   `Mutex` per range costs nothing and keeps the pool `std`-only.
//! - **The sequencer** (the caller's thread) receives completed cells
//!   over a channel in *completion* order, but releases their rendered
//!   lines in *cell* order: out-of-order completions buffer in their slot
//!   until the gap before them fills. Completion order is where the
//!   nondeterminism of scheduling goes to die; it never reaches stdout.
//!
//! The sequencer is also where checkpointing and progress live, precisely
//! because it is the one serial point: checkpoint records append (fsync'd)
//! in completion order as results arrive, and the heartbeat renders from
//! one consistent view of done/running/stolen counts.
//!
//! The global `--cores` budget partitions between the two levels of
//! parallelism: with cells that themselves run sharded engines
//! (`--threads T`), the pool spawns `max(1, cores / T)` cell workers so
//! the total worker-thread footprint stays within the budget
//! ([`worker_count`]). Oversubscription beyond the machine is allowed —
//! cells block on nothing, so extra workers merely time-slice.

use crate::checkpoint::{CellRecord, CheckpointWriter};
use crate::emit::{sweep_runs, Emitter};
use crate::spec::Scenario;
use gossip_telemetry::progress::PoolProgress;
use gossip_telemetry::NoopProbe;

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
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
    for run in sweep_runs(scenario, &mut NoopProbe) {
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
    /// Cells that moved between workers via stealing.
    pub stolen: u64,
    /// Cells replayed from the checkpoint instead of re-run.
    pub resumed: usize,
}

/// Per-worker contiguous ranges over the pending-cell list, with
/// back-half stealing. Invariant: until popped by [`next`](Self::next),
/// every pending cell is inside exactly one range — moves between ranges
/// happen with both endpoints locked, so work is never lost. (A worker
/// *may* conclude the pool is empty while a thief holds freshly stolen
/// cells; those cells belong to the thief, which is alive and will run
/// them — the cost is a little tail parallelism, never correctness.)
struct StealQueues {
    /// Cell indices still to run, partitioned contiguously by `ranges`.
    pending: Vec<usize>,
    /// Half-open `(next, end)` window into `pending` per worker.
    ranges: Vec<Mutex<(usize, usize)>>,
    /// Cells moved between workers, for the heartbeat.
    stolen: AtomicU64,
    /// Cooperative cancellation (the sequencer hit an I/O error).
    aborted: AtomicBool,
}

impl StealQueues {
    fn new(pending: Vec<usize>, workers: usize) -> Self {
        let len = pending.len();
        let ranges = (0..workers)
            .map(|w| Mutex::new((w * len / workers, (w + 1) * len / workers)))
            .collect();
        StealQueues {
            pending,
            ranges,
            stolen: AtomicU64::new(0),
            aborted: AtomicBool::new(false),
        }
    }

    fn stolen(&self) -> u64 {
        self.stolen.load(Ordering::Relaxed)
    }

    fn abort(&self) {
        self.aborted.store(true, Ordering::Relaxed);
    }

    /// Worker `w`'s next cell: from its own range, else stolen. `None`
    /// when the pool is drained (or aborted).
    fn next(&self, w: usize) -> Option<usize> {
        loop {
            if self.aborted.load(Ordering::Relaxed) {
                return None;
            }
            {
                let mut own = self.ranges[w].lock().unwrap();
                if own.0 < own.1 {
                    let cell = self.pending[own.0];
                    own.0 += 1;
                    return Some(cell);
                }
            }
            if !self.steal_into(w) {
                return None;
            }
        }
    }

    /// Steal the back half of the fullest other range into `w`'s (empty)
    /// range. Returns false when no other range has visible work.
    fn steal_into(&self, w: usize) -> bool {
        loop {
            let victim = (0..self.ranges.len())
                .filter(|&v| v != w)
                .map(|v| {
                    let r = self.ranges[v].lock().unwrap();
                    (r.1 - r.0, v)
                })
                .max();
            let Some((remaining, v)) = victim else {
                return false; // single-worker pool: nobody to steal from
            };
            if remaining == 0 {
                return false;
            }
            // Lock both ranges in index order — the global order that
            // keeps two concurrent thieves deadlock-free — then re-check:
            // the victim may have drained between the scan and the lock.
            let (lo, hi) = (w.min(v), w.max(v));
            let lo_guard = self.ranges[lo].lock().unwrap();
            let hi_guard = self.ranges[hi].lock().unwrap();
            let (mut own, mut vict) = if w < v {
                (lo_guard, hi_guard)
            } else {
                (hi_guard, lo_guard)
            };
            let len = vict.1 - vict.0;
            if len == 0 {
                continue; // drained under us; rescan for another victim
            }
            let take = len - len / 2; // ceil half, off the tail
            *own = (vict.1 - take, vict.1);
            vict.1 -= take;
            self.stolen.fetch_add(take as u64, Ordering::Relaxed);
            return true;
        }
    }
}

/// Execute an expanded grid on a work-stealing cell pool, streaming its
/// output lines to `out` in row-major cell order — byte-identical to the
/// serial grid at any `cores` value.
///
/// `resumed` carries the checkpoint replay: one slot per cell, `Some` for
/// cells already completed (their recorded lines are emitted verbatim in
/// place, never re-run). Pass an empty vec for a fresh run. `checkpoint`,
/// when present, receives one fsync'd record per newly completed cell, in
/// completion order. With `progress`, a per-cell heartbeat (done/total,
/// running/stolen counts, running-mean ETA, per-worker active cell) goes
/// to stderr.
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

    let queues = StealQueues::new(pending, workers);
    let active: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(IDLE)).collect();
    let (tx, rx) = mpsc::channel::<(usize, CellOutput)>();

    let outcome = std::thread::scope(|scope| -> io::Result<()> {
        for w in 0..workers {
            let tx = tx.clone();
            let queues = &queues;
            let active = &active;
            scope.spawn(move || {
                while let Some(cell) = queues.next(w) {
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
                tracker.set_stolen(queues.stolen());
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
            queues.abort();
        }
        run
    });
    outcome?;

    debug_assert_eq!(next_emit, total, "every cell must have been released");
    Ok(PoolSummary {
        workers,
        stolen: queues.stolen(),
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
    fn steal_queues_hand_out_every_cell_exactly_once() {
        for workers in [1usize, 2, 3, 7] {
            let queues = StealQueues::new((0..20).collect(), workers);
            let seen = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let queues = &queues;
                    let seen = &seen;
                    scope.spawn(move || {
                        while let Some(cell) = queues.next(w) {
                            seen.lock().unwrap().push(cell);
                        }
                    });
                }
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, (0..20).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn stealing_moves_work_and_counts_it() {
        // Two workers, all cells in worker 0's range: worker 1 must steal
        // everything it runs.
        let queues = StealQueues::new((0..8).collect(), 2);
        {
            // Rig the split: give worker 0 the whole list.
            let mut r0 = queues.ranges[0].lock().unwrap();
            let mut r1 = queues.ranges[1].lock().unwrap();
            *r0 = (0, 8);
            *r1 = (8, 8);
        }
        assert_eq!(queues.next(1), Some(4), "stole the back half [4, 8)");
        assert_eq!(queues.stolen(), 4);
        // Worker 0 still owns the front half.
        assert_eq!(queues.next(0), Some(0));
    }

    #[test]
    fn abort_drains_the_pool() {
        let queues = StealQueues::new((0..4).collect(), 1);
        assert_eq!(queues.next(0), Some(0));
        queues.abort();
        assert_eq!(queues.next(0), None, "aborted pools hand out nothing");
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
