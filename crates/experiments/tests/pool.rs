//! The parallel-grid contract: the cell pool's stdout is byte-identical
//! (modulo `wall_ms`) to the serial grid at any core count, a failing
//! writer stops the pool with its error, checkpoints make any
//! completed-cell prefix resumable with the same combined output, and
//! corrupted checkpoints are rejected loudly.
//! The `*-cores` and `kill-and-resume` rows of
//! `crates/cli/tests/contracts.rs` check the same invariant against the
//! real binary, the latter with two real kills.

use gossip_experiments::{
    execute_grid, parse_checkpoint, read_checkpoint, run_cell, verify_against, CellRecord,
    CheckpointWriter, Grid, ScenarioBuilder,
};

use std::fs;
use std::io::{self, Write};

/// A 3-axis × 2-seed grid shaped like `examples/grid-smoke.spec`: 8
/// cells, 16 runs, sync and async engines, deterministic and fast.
fn smoke_grid() -> Grid {
    let mut base = ScenarioBuilder::new();
    base.set("nodes", "48").set("seed", "7").set("seeds", "2");
    Grid::new(base)
        .axis("topology", ["ring", "rgg"])
        .axis("protocol", ["uniform", "advert"])
        .axis("scheduler", ["sync", "async"])
}

/// Strip the wall-clock fields a byte-comparison must ignore.
fn strip_wall_ms(output: &str) -> String {
    output
        .lines()
        .map(|line| {
            let at = line.find("\"wall_ms\":").expect("timed line");
            line[..at].to_string()
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Run the grid through the pool at the given core budget and return its
/// stripped stdout.
fn pooled_output(cores: usize) -> String {
    let cells = smoke_grid().expand().unwrap();
    let mut out = Vec::<u8>::new();
    let summary = execute_grid(&cells, cores, Vec::new(), None, false, &mut out).unwrap();
    assert!(summary.workers >= 1 && summary.workers <= cores);
    strip_wall_ms(&String::from_utf8(out).unwrap())
}

/// The serial reference: the exact per-cell rendering the serial grid
/// emits, in row-major order.
fn serial_output() -> String {
    let cells = smoke_grid().expand().unwrap();
    let lines: Vec<String> = cells.iter().flat_map(|cell| run_cell(cell).lines).collect();
    strip_wall_ms(&lines.join("\n"))
}

#[test]
fn pool_output_is_byte_identical_to_serial_at_any_core_count() {
    let reference = serial_output();
    assert_eq!(
        reference.lines().count(),
        16,
        "8 cells x 2 seeds, one line each"
    );
    for cores in [1, 2, 4, 7] {
        assert_eq!(
            pooled_output(cores),
            reference,
            "--cores {cores} diverged from the serial grid"
        );
    }
}

/// A stdout whose reader has gone: every write fails.
struct ClosedPipe;

impl Write for ClosedPipe {
    fn write(&mut self, _: &[u8]) -> io::Result<usize> {
        Err(io::ErrorKind::BrokenPipe.into())
    }
    fn flush(&mut self) -> io::Result<()> {
        Err(io::ErrorKind::BrokenPipe.into())
    }
}

#[test]
fn a_failing_writer_stops_the_pool_with_its_error() {
    let mut base = ScenarioBuilder::new();
    base.set("nodes", "16");
    let seeds: Vec<String> = (1..=32).map(|seed| seed.to_string()).collect();
    let cells = Grid::new(base).axis("seed", seeds).expand().unwrap();
    let err = execute_grid(&cells, 2, Vec::new(), None, false, &mut ClosedPipe).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::BrokenPipe, "{err}");
}

#[test]
fn every_completed_prefix_of_a_checkpoint_resumes_to_identical_output() {
    // Simulate a crash after every possible number of completed cells: a
    // checkpoint holding any k-cell subset (here: the completion-order
    // prefix) must resume to the same combined stdout.
    let cells = smoke_grid().expand().unwrap();
    let dir = std::env::temp_dir().join(format!("gossip-pool-test-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();

    // Full run with a checkpoint: records land in completion order.
    let full_path = dir.join("full.jsonl");
    let full_path_str = full_path.to_str().unwrap();
    let mut full_out = Vec::<u8>::new();
    let writer = CheckpointWriter::create(full_path_str).unwrap();
    execute_grid(&cells, 4, Vec::new(), Some(writer), false, &mut full_out).unwrap();
    let reference = strip_wall_ms(&String::from_utf8(full_out).unwrap());

    let full_text = fs::read_to_string(&full_path).unwrap();
    let records = parse_checkpoint(&full_text).unwrap().records;
    assert_eq!(records.len(), cells.len());

    for kill_after in 0..=cells.len() {
        // The crash left the first `kill_after` completion-order records
        // durable; resume from exactly those.
        let prefix: Vec<CellRecord> = records[..kill_after].to_vec();
        let resumed = verify_against(prefix, &cells).unwrap();
        let mut out = Vec::<u8>::new();
        let summary = execute_grid(&cells, 2, resumed, None, false, &mut out).unwrap();
        assert_eq!(summary.resumed, kill_after);
        assert_eq!(
            strip_wall_ms(&String::from_utf8(out).unwrap()),
            reference,
            "resume after {kill_after} completed cell(s) diverged"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_grid_killed_twice_mid_record_resumes_twice_to_the_uninterrupted_output() {
    let cells = smoke_grid().expand().unwrap();
    let dir = std::env::temp_dir().join(format!("gossip-pool-twice-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cp.jsonl");
    let path = path.to_str().unwrap();

    let mut out = Vec::<u8>::new();
    let writer = CheckpointWriter::create(path).unwrap();
    execute_grid(&cells, 1, Vec::new(), Some(writer), false, &mut out).unwrap();
    let reference = strip_wall_ms(&String::from_utf8(out).unwrap());

    // `kill -9` while record `whole + 1` is being written: `whole`
    // records stay, then half a line with no newline.
    let kill_during_record = |whole: usize| {
        let text = fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let fragment = &lines[whole][..lines[whole].len() / 2];
        fs::write(path, format!("{}\n{fragment}", lines[..whole].join("\n"))).unwrap();
    };
    // What `grid --checkpoint cp --resume` does.
    let resume = |done: usize| {
        let replay = read_checkpoint(path).unwrap();
        assert!(replay.torn_tail);
        let resumed = verify_against(replay.records, &cells).unwrap();
        let writer = CheckpointWriter::append(path).unwrap();
        let mut out = Vec::<u8>::new();
        let summary = execute_grid(&cells, 2, resumed, Some(writer), false, &mut out).unwrap();
        assert_eq!(summary.resumed, done);
        assert_eq!(strip_wall_ms(&String::from_utf8(out).unwrap()), reference);
    };
    kill_during_record(2);
    resume(2);
    kill_during_record(5);
    resume(5);

    let replay = read_checkpoint(path).unwrap();
    assert_eq!(replay.records.len(), cells.len());
    assert!(!replay.torn_tail);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_files_survive_torn_tails_but_reject_corruption() {
    let cells = smoke_grid().expand().unwrap();
    let dir = std::env::temp_dir().join(format!("gossip-pool-corrupt-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cp.jsonl");
    let path_str = path.to_str().unwrap();

    // Write two real records, then simulate a crash mid-third-record.
    let mut writer = CheckpointWriter::create(path_str).unwrap();
    for cell in [0usize, 1] {
        let output = run_cell(&cells[cell]);
        writer
            .record(&CellRecord {
                cell,
                scenario_id: cells[cell].scenario_id(),
                seed: cells[cell].seed,
                wall_ms: output.wall_ms,
                lines: output.lines,
            })
            .unwrap();
    }
    drop(writer);
    let clean = fs::read_to_string(&path).unwrap();
    let torn = format!("{clean}{{\"checkpoint\":1,\"cell\":2,\"scena");
    fs::write(&path, &torn).unwrap();

    // Torn tail: the two durable records survive, the tail is flagged.
    let replay = read_checkpoint(path_str).unwrap();
    assert!(replay.torn_tail);
    assert_eq!(replay.records.len(), 2);
    let resumed = verify_against(replay.records, &cells).unwrap();
    assert_eq!(resumed.iter().flatten().count(), 2);

    // Corruption anywhere else is a hard error naming the line.
    let corrupt = clean.replacen("\"checkpoint\":1", "\"checkpoint\":", 1);
    fs::write(&path, &corrupt).unwrap();
    let err = read_checkpoint(path_str).unwrap_err();
    assert!(err.to_string().contains("corrupt"), "{err}");
    assert!(err.to_string().contains("line 1"), "{err}");

    // A truncated-but-newline-terminated record is corruption, not a torn
    // tail — the writer always terminates records before fsync.
    let half = &clean[..clean.len() / 2];
    fs::write(&path, format!("{half}\n")).unwrap();
    assert!(read_checkpoint(path_str).is_err());

    // Records from a different grid are rejected at verification.
    fs::write(&path, &clean).unwrap();
    let replay = read_checkpoint(path_str).unwrap();
    let other = Grid::new(ScenarioBuilder::new())
        .axis("seed", ["1", "2"])
        .expand()
        .unwrap();
    let err = verify_against(replay.records, &other).unwrap_err();
    assert!(err.contains("spec changed"), "{err}");

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fresh_checkpoints_refuse_to_overwrite_existing_files() {
    let dir = std::env::temp_dir().join(format!("gossip-pool-exists-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cp.jsonl");
    let path_str = path.to_str().unwrap();
    fs::write(&path, "precious prior work\n").unwrap();
    let err = CheckpointWriter::create(path_str).unwrap_err();
    assert!(err.to_string().contains("--resume"), "{err}");
    assert_eq!(
        fs::read_to_string(&path).unwrap(),
        "precious prior work\n",
        "the existing file is untouched"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn csv_grids_emit_one_header_through_the_pool_and_on_resume() {
    let mut base = ScenarioBuilder::new();
    base.set("nodes", "32")
        .set("seed", "5")
        .set("format", "csv");
    let cells = Grid::new(base)
        .axis("protocol", ["uniform", "advert"])
        .expand()
        .unwrap();

    let mut out = Vec::<u8>::new();
    execute_grid(&cells, 2, Vec::new(), None, false, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert_eq!(text.lines().count(), 3, "header + one row per cell");
    assert!(text.starts_with("schema,scenario_id,"));
    assert_eq!(text.matches("schema,scenario_id,").count(), 1);

    // Resuming the first cell from a record replays it under the same
    // single header.
    let first = run_cell(&cells[0]);
    let resumed = vec![
        Some(CellRecord {
            cell: 0,
            scenario_id: cells[0].scenario_id(),
            seed: cells[0].seed,
            wall_ms: first.wall_ms,
            lines: first.lines,
        }),
        None,
    ];
    let mut out = Vec::<u8>::new();
    execute_grid(&cells, 2, resumed, None, false, &mut out).unwrap();
    let resumed_text = String::from_utf8(out).unwrap();
    assert_eq!(
        strip_csv_wall(&resumed_text),
        strip_csv_wall(&text),
        "resumed CSV output diverged"
    );
}

/// CSV rows end in `...,threads,wall_ms`; drop the final column.
fn strip_csv_wall(text: &str) -> String {
    text.lines()
        .map(|line| match line.rfind(',') {
            Some(at) => &line[..at],
            None => line,
        })
        .collect::<Vec<_>>()
        .join("\n")
}
