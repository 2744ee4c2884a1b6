//! Pool-aware progress accounting for long sweeps.
//!
//! [`PoolProgress`] is the bookkeeping half of the `grid --progress`
//! heartbeat: it tracks how many cells a run has completed and how much
//! wall-clock time those cells cost, and renders one stderr line per
//! completed cell. Like everything in this crate it knows nothing about
//! scenarios — callers pass opaque labels and cell indices — so the
//! experiment layer can evolve without touching it.
//!
//! The ETA deliberately comes from the **running mean of completed-cell
//! wall times**, divided by the worker count, rather than from
//! `elapsed / done`: grid cells are heterogeneous (a 10⁶-node async cell
//! next to a 100-node sync one), and with several workers the elapsed
//! wall clock conflates cells still in flight with cells done. The
//! mean-of-completed estimate is wrong early (the first completed cells
//! are biased toward the cheap ones) but converges as the sweep drains,
//! which is when an ETA matters.

/// Progress bookkeeping for a pool of workers draining a fixed set of
/// cells. Drive it from the pool's sequencer: [`cell_done`] per
/// completion, [`heartbeat`] to render the stderr line.
///
/// [`cell_done`]: PoolProgress::cell_done
/// [`heartbeat`]: PoolProgress::heartbeat
#[derive(Clone, Debug)]
pub struct PoolProgress {
    /// Total cells in the sweep (including any resumed as already done).
    total: usize,
    /// Worker threads draining the pool.
    workers: usize,
    /// Cells completed so far.
    done: usize,
    /// Sum of completed-cell wall times, the running-mean numerator.
    completed_wall_ms: u64,
}

impl PoolProgress {
    /// Fresh bookkeeping for a `total`-cell sweep on `workers` workers.
    pub fn new(total: usize, workers: usize) -> Self {
        PoolProgress {
            total,
            workers: workers.max(1),
            done: 0,
            completed_wall_ms: 0,
        }
    }

    /// Record one completed cell and its wall time. Resumed cells replayed
    /// from a checkpoint count here too, seeding the mean with their
    /// recorded wall times.
    pub fn cell_done(&mut self, wall_ms: u64) {
        self.done += 1;
        self.completed_wall_ms += wall_ms;
    }

    /// Cells completed so far.
    pub fn done(&self) -> usize {
        self.done
    }

    /// Running mean of completed-cell wall times, in milliseconds.
    /// `None` until the first cell completes.
    pub fn mean_cell_ms(&self) -> Option<f64> {
        (self.done > 0).then(|| self.completed_wall_ms as f64 / self.done as f64)
    }

    /// Estimated seconds to drain the remaining cells: running mean ×
    /// remaining ÷ workers. `None` until the first cell completes.
    pub fn eta_secs(&self) -> Option<f64> {
        let mean_ms = self.mean_cell_ms()?;
        let remaining = (self.total - self.done) as f64;
        Some(mean_ms * remaining / self.workers as f64 / 1e3)
    }

    /// Render one heartbeat line (no trailing newline): done/total, the
    /// completed cell's label, the in-flight count, elapsed and
    /// mean-based ETA, and each worker's active cell (`-` when idle).
    /// `active[w]` is worker `w`'s current cell index, if any.
    pub fn heartbeat(&self, label: &str, elapsed_secs: f64, active: &[Option<usize>]) -> String {
        let running = active.iter().filter(|slot| slot.is_some()).count();
        let mut line = format!(
            "progress: cell {}/{} done ({label}) running {running} elapsed {elapsed_secs:.1}s",
            self.done, self.total
        );
        match self.eta_secs() {
            Some(eta) => line.push_str(&format!(" eta {eta:.1}s")),
            None => line.push_str(" eta ?"),
        }
        if active.len() > 1 {
            line.push_str(" workers [");
            for (w, slot) in active.iter().enumerate() {
                if w > 0 {
                    line.push(' ');
                }
                match slot {
                    Some(cell) => line.push_str(&format!("#{cell}")),
                    None => line.push('-'),
                }
            }
            line.push(']');
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eta_uses_the_running_mean_of_completed_cells_not_elapsed() {
        let mut progress = PoolProgress::new(10, 2);
        assert_eq!(progress.eta_secs(), None, "no completed cells, no ETA");
        // Two heterogeneous cells: 1s and 9s. The mean is 5s per cell;
        // 8 cells remain over 2 workers -> 20s, regardless of how much
        // wall clock has elapsed.
        progress.cell_done(1000);
        progress.cell_done(9000);
        assert_eq!(progress.mean_cell_ms(), Some(5000.0));
        assert_eq!(progress.eta_secs(), Some(20.0));
        // The serial case divides by one worker.
        let mut serial = PoolProgress::new(10, 1);
        serial.cell_done(1000);
        serial.cell_done(9000);
        assert_eq!(serial.eta_secs(), Some(40.0));
    }

    #[test]
    fn heartbeat_renders_counts_and_workers() {
        let mut progress = PoolProgress::new(4, 3);
        progress.cell_done(2000);
        let line = progress.heartbeat("ring-advert-sync-n64-k1-s7", 2.0, &[Some(1), None, Some(3)]);
        assert!(line.starts_with("progress: cell 1/4 done (ring-advert-sync-n64-k1-s7)"));
        assert!(line.contains("running 2"), "{line}");
        assert!(line.contains("elapsed 2.0s"), "{line}");
        assert!(line.contains("eta 2.0s"), "{line}");
        assert!(line.ends_with("workers [#1 - #3]"), "{line}");
        // A single-worker pool skips the per-worker tail — it would only
        // repeat the label.
        let serial = PoolProgress::new(4, 1);
        let line = serial.heartbeat("x", 0.0, &[Some(2)]);
        assert!(!line.contains("workers"), "{line}");
        assert!(line.contains("eta ?"), "{line}");
    }

    #[test]
    fn resumed_cells_seed_the_mean() {
        let mut progress = PoolProgress::new(8, 4);
        for _ in 0..4 {
            progress.cell_done(500);
        }
        assert_eq!(progress.done(), 4);
        assert_eq!(progress.eta_secs(), Some(0.5));
    }
}
