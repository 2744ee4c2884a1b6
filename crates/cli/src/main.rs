use gossip_cli::{parse_args, thread_clamp_warning, usage, Command};
use gossip_experiments::{
    bench_to_json, effective_threads, execute_grid, read_checkpoint, run_bench, verify_against,
    CellRecord, CheckpointWriter, Emitter, Scenario,
};
use gossip_telemetry::analyze::Analyzer;
use gossip_telemetry::{NoopProbe, TraceWriter};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};

/// Run one scenario's sweep (the `run` subcommand), streaming one line per
/// run to stdout through a buffered, explicitly flushed writer. I/O errors
/// propagate to [`main`], which treats a closed pipe (`gossip-sim | head`)
/// as a normal way for a consumer to stop reading and anything else as a
/// real error. (Grids go through [`run_grid`]'s cell pool instead.)
///
/// With `trace`, every run's semantic events stream to the given file as
/// schema-versioned JSONL: one header line per run (the sweep loop's
/// `Probe::begin_run`), then one line per event. Tracing is
/// execution-only — by the engines' determinism-under-observation
/// contract the emitted run lines are byte-identical with it on or off,
/// and the trace itself is byte-identical at any thread count.
fn run_and_emit(scenario: &Scenario, trace: Option<&str>) -> io::Result<()> {
    let mut emitter = Emitter::new(scenario.output.format, BufWriter::new(io::stdout().lock()));
    let mut tracer = match trace {
        Some(path) => {
            let file = File::create(path)
                .map_err(|e| io::Error::new(e.kind(), format!("--trace {path}: {e}")))?;
            Some(TraceWriter::new(BufWriter::new(file)))
        }
        None => None,
    };
    warn_thread_clamp(std::slice::from_ref(scenario));
    match tracer.as_mut() {
        Some(tracer) => emitter.emit_sweep(scenario, tracer)?,
        None => emitter.emit_sweep(scenario, &mut NoopProbe)?,
    }
    emitter.into_inner().flush()?;
    if let Some(tw) = tracer {
        tw.finish()
            .map_err(|e| io::Error::new(e.kind(), format!("--trace: {e}")))?;
    }
    Ok(())
}

/// Warn (once) when a scenario's requested thread count exceeds the
/// machine and will be clamped.
fn warn_thread_clamp(scenarios: &[Scenario]) {
    if let Some(warning) = thread_clamp_warning(scenarios) {
        eprintln!("warning: {warning}");
    }
}

/// `grid`: run the expanded cells on the cell pool, streaming lines to
/// stdout in row-major cell order — byte-identical (modulo `wall_ms`) to
/// a serial grid at any `--cores` value, which is clamped to the machine
/// like `--threads`. With `--checkpoint`, every completed cell is durably
/// recorded; with `--resume`, recorded cells replay from the checkpoint
/// instead of re-running, and the combined stdout matches an
/// uninterrupted run.
fn run_grid(
    scenarios: &[Scenario],
    progress: bool,
    cores: usize,
    checkpoint: Option<&str>,
    resume: bool,
) -> io::Result<()> {
    let runs = scenarios
        .iter()
        .fold(0usize, |runs, s| runs.saturating_add(s.seeds));
    eprintln!("grid: {} cell(s), {} run(s)", scenarios.len(), runs);
    warn_thread_clamp(scenarios);
    let (cores, clamped) = effective_threads("--cores", cores);
    if let Some(warning) = clamped {
        eprintln!("warning: {warning}");
    }

    let mut resumed: Vec<Option<CellRecord>> = Vec::new();
    let writer = match (checkpoint, resume) {
        (None, _) => None, // --resume without --checkpoint is rejected at parse time
        (Some(path), false) => Some(CheckpointWriter::create(path)?),
        (Some(path), true) => {
            let replay = read_checkpoint(path)?;
            if replay.torn_tail {
                eprintln!(
                    "warning: --resume: '{path}' ends in a torn record (crash mid-write); \
                     dropping it and re-running its cell"
                );
            }
            resumed = verify_against(replay.records, scenarios).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("--resume: checkpoint '{path}' does not match this grid: {e}"),
                )
            })?;
            let done = resumed.iter().filter(|slot| slot.is_some()).count();
            eprintln!(
                "resume: {done}/{} cell(s) already completed in '{path}'",
                scenarios.len()
            );
            Some(CheckpointWriter::append(path)?)
        }
    };

    let mut out = BufWriter::new(io::stdout().lock());
    let summary = execute_grid(scenarios, cores, resumed, writer, progress, &mut out)?;
    out.flush()?;
    eprintln!(
        "grid: done ({} worker(s), {} cell(s) resumed)",
        summary.workers, summary.resumed
    );
    Ok(())
}

/// `analyze`: aggregate run lines and trace streams from the given files
/// (stdin when none) into a plain-text report on stdout.
fn analyze(paths: &[String]) -> io::Result<()> {
    let mut analyzer = Analyzer::default();
    if paths.is_empty() {
        feed(&mut analyzer, io::stdin().lock())?;
    } else {
        for path in paths {
            let with_path = |e: io::Error| io::Error::new(e.kind(), format!("{path}: {e}"));
            let file = File::open(path).map_err(with_path)?;
            feed(&mut analyzer, BufReader::new(file)).map_err(with_path)?;
        }
    }
    let mut out = BufWriter::new(io::stdout().lock());
    out.write_all(analyzer.report().as_bytes())?;
    out.flush()
}

/// Feed `input` to `analyzer` line by line as raw bytes, so a line that is
/// not UTF-8 is skipped as unparsable instead of ending the read.
fn feed(analyzer: &mut Analyzer, input: impl BufRead) -> io::Result<()> {
    for line in input.split(b'\n') {
        analyzer.add_bytes(&line?);
    }
    Ok(())
}

/// Dispatch the parsed command; every arm funnels its I/O into one
/// `io::Result` so exit codes are decided in exactly one place.
fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("error: {message}");
            return 2;
        }
    };
    let outcome = match command {
        Command::Help => io::stdout().write_all(usage().as_bytes()),
        Command::Run { scenario, trace } => run_and_emit(&scenario, trace.as_deref()),
        Command::Grid {
            scenarios,
            progress,
            cores,
            checkpoint,
            resume,
        } => run_grid(&scenarios, progress, cores, checkpoint.as_deref(), resume),
        Command::Bench(bench) => {
            warn_thread_clamp(std::slice::from_ref(&bench.scenario));
            let report = run_bench(&bench);
            writeln!(io::stdout(), "{}", bench_to_json(&report))
        }
        Command::Analyze(paths) => analyze(&paths),
    };
    match outcome {
        Ok(()) => 0,
        // A consumer hanging up early (`gossip-sim run | head`) is a
        // normal end of output, not an error.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn main() {
    std::process::exit(real_main());
}
