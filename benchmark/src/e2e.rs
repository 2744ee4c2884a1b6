//! The black-box pass: run a workload's process pipeline against the
//! release `gossip-sim` binary with tracing off, check what it printed,
//! and summarise the timings of repeated fresh processes.
//!
//! Closed loop, one child at a time: the next process starts only after
//! the previous one has exited, so nothing of ours contends with a run.
//! What does contend is the rest of the host: on the shared 2-vCPU VM
//! this was sized on, the same process on the same input runs 20-60 %
//! slower for seconds at a time (CPU time rises with wall time, steal
//! stays 0: co-tenants on the same caches). Interference only ever adds
//! time, so each timed metric is the *fastest* sample of the window —
//! measured side by side, the window minimum repeats 2-3x closer than
//! the window median (README.md, "About the bounds").

use crate::child::{self, Outcome, Stdout};
use crate::runline::{visit_csv_rows, visit_json_lines, Fnv, RunLine};
use crate::stats::{summarize, Summary};
use crate::workload::{flags, Kind, Size, Workload};
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Per-child limit: a hang becomes a failed operation, and the whole
/// invocation still ends inside the driver's 180 s.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);
/// A full-size run measures at least this many pipelines, and set-up
/// takes samples until it has this many and has spent its share of the
/// window.
const MIN_SAMPLES: usize = 3;
const SETUP_SHARE: f64 = 0.15;

/// Where things are for one invocation of the harness.
pub struct Context {
    /// The release `gossip-sim` binary.
    pub sim: PathBuf,
    /// Per-invocation scratch directory under `benchmark/out/`.
    pub scratch: PathBuf,
    /// Engine threads / pool cores: logical cores less one, 1 to 4.
    pub threads: usize,
    pub size: Size,
    /// Cores, T, compiler, kernel, commit: printed on top of every
    /// report and copied into every span file.
    pub stamp: String,
}

/// One pipeline execution, checked.
#[derive(Clone, Debug)]
pub struct Sample {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Σ `nodes × rounds_executed` over the emitted run lines.
    pub node_rounds: u64,
    pub stdout_bytes: usize,
    /// Hash of everything simulated that was printed.
    pub fingerprint: u64,
    /// One operation per expected run line (plus one for the analyze
    /// report of the trace workload).
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Context {
    fn sim_command<S: AsRef<std::ffi::OsStr>>(&self, args: impl IntoIterator<Item = S>) -> Command {
        let mut command = Command::new(&self.sim);
        command.args(args);
        command
    }

    fn child(&self, command: Command, stdout: Stdout) -> io::Result<Outcome> {
        let stderr = File::create(self.scratch.join("stderr.txt"))?;
        child::run(command, stdout, stderr, CHILD_TIMEOUT)
    }

    /// Wall time of `gossip-sim --help`: process start with no work.
    pub fn startup_s(&self) -> io::Result<f64> {
        let samples: io::Result<Vec<f64>> = (0..5)
            .map(|_| {
                Ok(self
                    .child(self.sim_command(["--help"]), Stdout::Capture)?
                    .wall_s)
            })
            .collect();
        Ok(crate::stats::median(&samples?))
    }

    /// Run the workload's pipeline once in fresh processes. `setup`
    /// runs the same pipeline with a round cap of 0.
    pub fn run_pipeline(&self, workload: &Workload, seed: u64, setup: bool) -> io::Result<Sample> {
        let expect_lines = workload.expected_lines(self.size);
        let expect_completed = workload.expect_completed && !setup;
        let expect_rounds = workload.expected_rounds(self.size, setup);
        let mut hash = Fnv::default();
        let mut errors = Vec::new();
        let mut attempted = expect_lines as u64;
        let mut failed = 0u64;

        // Check each emitted line as it is parsed; nothing is kept.
        let mut node_rounds = 0u64;
        let mut line_errors: Vec<String> = Vec::new();
        let mut check = |line: &RunLine| {
            node_rounds += line.node_rounds().unwrap_or(0);
            if let Err(e) = line.check(expect_completed, expect_rounds) {
                line_errors.push(format!("{}: {e}", line.get("scenario_id").unwrap_or("?")));
            }
        };
        let (wall_s, outcomes, lines): (f64, Vec<Outcome>, Result<usize, String>) = match workload
            .kind
        {
            Kind::Run => {
                let args = flags(&workload.assignments(self.size, seed, self.threads, setup));
                let out = self.child(self.sim_command(&args), Stdout::Capture)?;
                let lines =
                    visit_json_lines(&String::from_utf8_lossy(&out.stdout), &mut hash, &mut check);
                (out.wall_s, vec![out], lines)
            }
            Kind::Grid => {
                let spec = self.scratch.join("grid.spec");
                std::fs::write(&spec, workload.spec_text(self.size, seed, setup))?;
                let cores = self.threads.to_string();
                let args = [
                    Path::new("grid"),
                    Path::new("--spec"),
                    &spec,
                    Path::new("--cores"),
                    Path::new(&cores),
                ];
                let out = self.child(self.sim_command(args), Stdout::Capture)?;
                let lines =
                    visit_csv_rows(&String::from_utf8_lossy(&out.stdout), &mut hash, &mut check);
                (out.wall_s, vec![out], lines)
            }
            Kind::TraceAnalyze => {
                attempted += 1; // the analyze report
                let (runs, trace) = (
                    self.scratch.join("runs.jsonl"),
                    self.scratch.join("trace.jsonl"),
                );
                let mut args = flags(&workload.assignments(self.size, seed, self.threads, setup));
                args.push("--trace".to_string());
                args.push(trace.to_string_lossy().into_owned());
                // The pipeline's clock runs from the first spawn to the
                // last exit; everything after it is checking.
                let started = Instant::now();
                let traced =
                    self.child(self.sim_command(&args), Stdout::File(File::create(&runs)?))?;
                let analyzed = self.child(
                    self.sim_command([Path::new("analyze"), &runs, &trace]),
                    Stdout::Capture,
                )?;
                let wall_s = started.elapsed().as_secs_f64();
                let lines =
                    visit_json_lines(&std::fs::read_to_string(&runs)?, &mut hash, &mut check);
                let report = String::from_utf8_lossy(&analyzed.stdout).into_owned();
                hash.write(report.as_bytes());
                if let Err(e) = check_report(&report, &trace, expect_lines) {
                    failed += 1;
                    errors.push(format!("analyze: {e}"));
                }
                std::fs::remove_file(&trace)?;
                (wall_s, vec![traced, analyzed], lines)
            }
        };

        let child_failure = outcomes.iter().find_map(|o| o.status.clone().err());
        match (child_failure, lines) {
            (Some(e), _) => {
                failed = attempted;
                errors.push(format!("child failed: {e}; stderr: {}", self.stderr_tail()));
            }
            (None, Err(e)) => {
                failed = attempted;
                errors.push(e);
            }
            (None, Ok(lines)) => {
                if lines != expect_lines {
                    failed += lines.abs_diff(expect_lines) as u64;
                    errors.push(format!("expected {expect_lines} run lines, got {lines}"));
                }
                failed += line_errors.len() as u64;
                errors.append(&mut line_errors);
            }
        }
        errors.truncate(5);
        Ok(Sample {
            wall_s,
            cpu_s: outcomes.iter().map(|o| o.cpu_s).sum(),
            peak_rss_mb: outcomes.iter().map(|o| o.peak_rss_mb).fold(0.0, f64::max),
            node_rounds,
            stdout_bytes: outcomes.iter().map(|o| o.stdout.len()).sum(),
            fingerprint: hash.finish(),
            attempted,
            failed: failed.min(attempted),
            errors,
        })
    }

    fn stderr_tail(&self) -> String {
        let text = std::fs::read_to_string(self.scratch.join("stderr.txt")).unwrap_or_default();
        let tail: Vec<&str> = text.lines().rev().take(3).collect();
        tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
    }
}

/// The analyze report must have one `trace` section per traced run, and
/// the event counts it prints must add up to the lines of the trace it
/// read (one header line per run, one line per event).
fn check_report(report: &str, trace: &Path, runs: usize) -> Result<(), String> {
    let events: Vec<u64> = report
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("events "))
        .filter_map(|rest| rest.split_whitespace().next()?.parse().ok())
        .collect();
    if events.len() != runs {
        return Err(format!(
            "report has {} trace sections, expected {runs}",
            events.len()
        ));
    }
    let mut file = File::open(trace).map_err(|e| format!("trace file: {e}"))?;
    let (mut lines, mut buf) = (0u64, vec![0u8; 1 << 16]);
    loop {
        let n = file
            .read(&mut buf)
            .map_err(|e| format!("trace file: {e}"))?;
        if n == 0 {
            break;
        }
        lines += buf[..n].iter().filter(|b| **b == b'\n').count() as u64;
    }
    let expected = events.iter().sum::<u64>() + runs as u64;
    if lines != expected {
        return Err(format!(
            "trace has {lines} lines, report accounts for {expected}"
        ));
    }
    Ok(())
}

/// End-to-end result of one workload: summaries over fresh processes.
#[derive(Clone, Debug)]
pub struct E2e {
    pub wall_s: Summary,
    pub node_rounds_per_s: Summary,
    pub setup_s: Summary,
    pub cpu_s: Summary,
    pub peak_rss_mb: f64,
    pub stdout_bytes: usize,
    pub attempted: u64,
    pub failed: u64,
    /// The output fingerprint, when every full run printed the same.
    pub fingerprint: Option<u64>,
    pub errors: Vec<String>,
}

impl E2e {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.fingerprint.is_some()
    }

    /// The five end-to-end values, in `metrics::END_TO_END` order: the
    /// best sample of each timing (see the module comment).
    pub fn values(&self) -> [f64; 5] {
        [
            self.wall_s.min,
            self.node_rounds_per_s.max,
            self.setup_s.min,
            self.cpu_s.min,
            self.peak_rss_mb,
        ]
    }
}

/// Measure one workload for `seconds`: set-up samples (the pipeline
/// with a round cap of 0) for the first [`SETUP_SHARE`] of the window,
/// then full pipelines back to back for the rest of it. The smoke size
/// takes one sample of each.
pub fn measure(ctx: &Context, workload: &Workload, seed: u64, seconds: f64) -> io::Result<E2e> {
    let smoke = ctx.size == Size::Smoke;
    let (mut setups, mut runs): (Vec<Sample>, Vec<Sample>) = (Vec::new(), Vec::new());

    let started = Instant::now();
    loop {
        setups.push(ctx.run_pipeline(workload, seed, true)?);
        let enough =
            setups.len() >= MIN_SAMPLES && started.elapsed().as_secs_f64() >= seconds * SETUP_SHARE;
        if smoke || enough {
            break;
        }
    }

    loop {
        runs.push(ctx.run_pipeline(workload, seed, false)?);
        // Stop when one more pipeline would overrun the window.
        let typical = crate::stats::median(&runs.iter().map(|s| s.wall_s).collect::<Vec<_>>());
        let window_used = started.elapsed().as_secs_f64() + typical > seconds;
        if smoke || (runs.len() >= MIN_SAMPLES && window_used) {
            break;
        }
    }

    let column = |samples: &[Sample], f: fn(&Sample) -> f64| {
        summarize(&samples.iter().map(f).collect::<Vec<_>>())
    };
    let mut errors: Vec<String> = setups
        .iter()
        .chain(&runs)
        .flat_map(|s| s.errors.iter().cloned())
        .collect();
    let first = runs[0].fingerprint;
    let consistent = runs.iter().all(|s| s.fingerprint == first);
    if !consistent {
        errors.push("repeats of the same seed printed different results".to_string());
    }
    errors.truncate(8);
    Ok(E2e {
        wall_s: column(&runs, |s| s.wall_s),
        node_rounds_per_s: column(&runs, |s| s.node_rounds as f64 / s.wall_s),
        setup_s: column(&setups, |s| s.wall_s),
        cpu_s: column(&runs, |s| s.cpu_s),
        peak_rss_mb: runs.iter().map(|s| s.peak_rss_mb).fold(0.0, f64::max),
        stdout_bytes: runs[0].stdout_bytes,
        attempted: setups.iter().chain(&runs).map(|s| s.attempted).sum(),
        failed: setups.iter().chain(&runs).map(|s| s.failed).sum(),
        fingerprint: consistent.then_some(first),
        errors,
    })
}

/// The pinned fingerprint for `(workload, size, seed)`, if
/// `benchmark/workloads/<name>.expected` has one. Lines read
/// `<size> <seed> <hex fingerprint>`.
pub fn pinned_fingerprint(workload: &Workload, size: Size, seed: u64) -> Option<u64> {
    let path = Path::new("benchmark/workloads").join(format!("{}.expected", workload.name));
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        (parts.next()? == size.name() && parts.next()?.parse() == Ok(seed))
            .then(|| u64::from_str_radix(parts.next()?.trim_start_matches("0x"), 16).ok())?
    })
}
