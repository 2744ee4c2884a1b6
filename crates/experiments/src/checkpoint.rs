//! Crash-safe grid checkpointing: one fsync'd JSONL record per completed
//! cell, replayable with `--resume`.
//!
//! A 10k-cell production sweep can run for hours; dying at cell 9,800 and
//! starting over is not acceptable. The contract here:
//!
//! - **Write path** ([`CheckpointWriter`]): after a cell completes, its
//!   record — cell index, `scenario_id`, seed, wall time, and the *exact*
//!   stdout lines the cell emitted — is appended as one JSON line in a
//!   single `write` call, then `fsync`'d before the next record. A
//!   `kill -9` therefore loses at most the record being written, never a
//!   previously acknowledged one.
//! - **Read path** ([`read_checkpoint`]): records are parsed strictly. A
//!   record is durable only with its newline, so the one tolerated defect
//!   is a *torn tail* — a final line without its trailing newline,
//!   exactly what a crash mid-write leaves behind — which is dropped with
//!   a flag the caller turns into a warning, and which
//!   [`CheckpointWriter::append`] cuts off the file before the resumed run
//!   writes after it. Any other malformed or truncated line is a hard
//!   error: a checkpoint that lies about completed work would silently
//!   corrupt the resumed sweep.
//! - **Verification** ([`verify_against`]): before any cell is skipped,
//!   every record is checked against the expanded grid — index in range,
//!   `scenario_id` and seed matching that cell, one line per sweep seed
//!   in the shape the cell's `[output]` asks for, no duplicates — so
//!   resuming with the wrong spec file (or a stale checkpoint) fails
//!   loudly instead of splicing mismatched results.
//!
//! Because records carry the cell's rendered output lines, `--resume`
//! replays completed cells byte-for-byte: the resumed run's stdout is
//! identical to an uninterrupted run's, which is the property CI enforces.

use crate::spec::{OutputFormat, OutputSpec, Scenario};
use gossip_telemetry::json::{self, Value};

use std::fs::{File, OpenOptions};
use std::io::{self, Write};

/// Version of the checkpoint record format. Bump when fields are added,
/// removed, or renamed.
pub const CHECKPOINT_SCHEMA_VERSION: u64 = 1;

/// One completed grid cell, as appended to (and replayed from) a
/// checkpoint file.
#[derive(Clone, Debug, PartialEq)]
pub struct CellRecord {
    /// Row-major index of the cell in the expanded grid.
    pub cell: usize,
    /// The cell's [`Scenario::scenario_id`] (at its base seed) — the
    /// identity `--resume` verifies before trusting the record.
    pub scenario_id: String,
    /// The cell's base seed (its sweep runs seeds `seed..seed+seeds`).
    pub seed: u64,
    /// Wall-clock cost of the cell, seeding the resumed run's ETA mean.
    pub wall_ms: u64,
    /// The exact stdout lines the cell emitted, in seed order (CSV header
    /// excluded — the emitter owns that).
    pub lines: Vec<String>,
}

impl CellRecord {
    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let lines: Vec<String> = self.lines.iter().map(|l| json::json_str(l)).collect();
        json::Obj::default()
            .raw("checkpoint", CHECKPOINT_SCHEMA_VERSION)
            .raw("cell", self.cell)
            .str("scenario_id", &self.scenario_id)
            .raw("seed", self.seed)
            .raw("wall_ms", self.wall_ms)
            .raw("lines", format_args!("[{}]", lines.join(",")))
            .finish()
    }

    /// Parse one checkpoint line. Strict: every field must be present and
    /// well-typed, and the schema version must be one this build knows.
    pub fn parse(line: &str) -> Result<CellRecord, String> {
        let value = json::parse(line).map_err(|e| format!("not a JSON record: {e}"))?;
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| format!("missing field '{key}'"))
        };
        let schema = field("checkpoint")?
            .as_u64()
            .ok_or("field 'checkpoint' is not an integer")?;
        if schema != CHECKPOINT_SCHEMA_VERSION {
            return Err(format!(
                "checkpoint schema {schema} is not the supported version \
                 {CHECKPOINT_SCHEMA_VERSION}"
            ));
        }
        let cell = field("cell")?
            .as_u64()
            .ok_or("field 'cell' is not an integer")? as usize;
        let scenario_id = field("scenario_id")?
            .as_str()
            .ok_or("field 'scenario_id' is not a string")?
            .to_string();
        let seed = field("seed")?
            .as_u64()
            .ok_or("field 'seed' is not an integer")?;
        let wall_ms = field("wall_ms")?
            .as_u64()
            .ok_or("field 'wall_ms' is not an integer")?;
        let Some(Value::Arr(raw_lines)) = value.get("lines") else {
            return Err("field 'lines' is missing or not an array".to_string());
        };
        let mut lines = Vec::with_capacity(raw_lines.len());
        for raw in raw_lines {
            lines.push(
                raw.as_str()
                    .ok_or("field 'lines' holds a non-string entry")?
                    .to_string(),
            );
        }
        Ok(CellRecord {
            cell,
            scenario_id,
            seed,
            wall_ms,
            lines,
        })
    }
}

/// Append-only checkpoint file handle. Every [`record`](Self::record) is
/// one `write` call followed by `fsync`, so acknowledged records survive
/// `kill -9` and power loss.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: File,
    path: String,
}

impl CheckpointWriter {
    /// Start a fresh checkpoint. Refuses to overwrite an existing file —
    /// a stale checkpoint is either resumable (`--resume`) or the user's
    /// to delete; silently clobbering one would destroy completed work.
    pub fn create(path: &str) -> io::Result<CheckpointWriter> {
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(|e| match e.kind() {
                io::ErrorKind::AlreadyExists => io::Error::new(
                    e.kind(),
                    format!(
                        "checkpoint file '{path}' already exists; \
                         pass --resume to continue it or remove it to start over"
                    ),
                ),
                _ => io::Error::new(e.kind(), format!("--checkpoint {path}: {e}")),
            })?;
        Ok(CheckpointWriter {
            file,
            path: path.to_string(),
        })
    }

    /// Reopen an existing checkpoint for appending (the `--resume` path),
    /// first cutting the file back to just past its last newline: the
    /// torn tail [`parse_checkpoint`] dropped must not stay in front of
    /// the next record, or the two would read back as one corrupt line.
    pub fn append(path: &str) -> io::Result<CheckpointWriter> {
        let reopen = || -> io::Result<File> {
            let text = std::fs::read(path)?;
            let durable = text
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |at| at + 1);
            let file = OpenOptions::new().append(true).open(path)?;
            file.set_len(durable as u64)?;
            file.sync_data()?;
            Ok(file)
        };
        let file =
            reopen().map_err(|e| io::Error::new(e.kind(), format!("--checkpoint {path}: {e}")))?;
        Ok(CheckpointWriter {
            file,
            path: path.to_string(),
        })
    }

    /// Durably append one record: a single `write` of the full line, then
    /// `fsync` before returning.
    pub fn record(&mut self, record: &CellRecord) -> io::Result<()> {
        let mut line = record.to_json();
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io::Error::new(e.kind(), format!("--checkpoint {}: {e}", self.path)))
    }
}

/// A read-back checkpoint file: the records, plus whether a torn tail (a
/// crash's final partial line) was dropped.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    pub records: Vec<CellRecord>,
    /// True when the file ended in a line with no trailing newline — the
    /// footprint of a record interrupted mid-write, even when the bytes
    /// that made it happen to parse. The caller should surface a warning;
    /// the torn record's cell simply re-runs.
    pub torn_tail: bool,
}

/// Read and strictly parse a checkpoint file. See the module docs for the
/// torn-tail exception; every other malformed line is an error naming the
/// line number.
pub fn read_checkpoint(path: &str) -> io::Result<Checkpoint> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| io::Error::new(e.kind(), format!("--resume: cannot read '{path}': {e}")))?;
    parse_checkpoint(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("--resume: checkpoint '{path}' is corrupt: {e}"),
        )
    })
}

/// [`read_checkpoint`] on in-memory text (the testable core).
pub fn parse_checkpoint(text: &str) -> Result<Checkpoint, String> {
    let mut records = Vec::new();
    let mut torn_tail = false;
    for (idx, chunk) in text.split_inclusive('\n').enumerate() {
        let Some(line) = chunk.strip_suffix('\n') else {
            // The one forgivable defect: a torn final line, i.e. a crash
            // caught mid-write. Everything durable precedes it.
            torn_tail = !chunk.trim().is_empty();
            break;
        };
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        records.push(CellRecord::parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?);
    }
    Ok(Checkpoint { records, torn_tail })
}

/// Does a recorded stdout line have the shape `output` asks for? The
/// output knobs are outside the `scenario_id`, so this is the only check
/// that sees a `format` or `history` changed between the checkpointed run
/// and the resume: JSON lines open with `{` and CSV rows never do, and
/// exactly the history lines carry a `"rounds":[` array.
fn has_shape(line: &str, output: &OutputSpec) -> bool {
    line.starts_with('{') == (output.format == OutputFormat::Json)
        && line.contains("\"rounds\":[") == output.history
}

/// Verify records against the expanded grid and slot them by cell index.
/// Returns one `Option<CellRecord>` per grid cell (`Some` = completed,
/// skip and replay), or a message naming the first mismatch — wrong grid,
/// stale spec, duplicate record, wrong sweep width, wrong output shape.
pub fn verify_against(
    records: Vec<CellRecord>,
    scenarios: &[Scenario],
) -> Result<Vec<Option<CellRecord>>, String> {
    let mut slots: Vec<Option<CellRecord>> = vec![None; scenarios.len()];
    for record in records {
        let Some(scenario) = scenarios.get(record.cell) else {
            return Err(format!(
                "record for cell {} but the grid only expands to {} cells \
                 (was the spec changed since the checkpoint was written?)",
                record.cell,
                scenarios.len()
            ));
        };
        let expected = scenario.scenario_id();
        if record.scenario_id != expected {
            return Err(format!(
                "cell {}: checkpoint says '{}' but the grid expands to '{expected}' \
                 (was the spec changed since the checkpoint was written?)",
                record.cell, record.scenario_id
            ));
        }
        if record.seed != scenario.seed {
            return Err(format!(
                "cell {}: checkpoint seed {} does not match the grid's {}",
                record.cell, record.seed, scenario.seed
            ));
        }
        if record.lines.len() != scenario.seeds {
            return Err(format!(
                "cell {}: checkpoint holds {} output line(s) but the cell sweeps {} seed(s)",
                record.cell,
                record.lines.len(),
                scenario.seeds
            ));
        }
        if !record
            .lines
            .iter()
            .all(|line| has_shape(line, &scenario.output))
        {
            return Err(format!(
                "cell {}: checkpoint lines are not what [output] format = {}, history = {} \
                 prints (was [output] changed since the checkpoint was written?)",
                record.cell,
                scenario.output.format.name(),
                scenario.output.history,
            ));
        }
        let cell = record.cell;
        if slots[cell].is_some() {
            return Err(format!(
                "cell {cell} is recorded twice — refusing to guess which record to trust"
            ));
        }
        slots[cell] = Some(record);
    }
    Ok(slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioBuilder;
    use crate::Grid;

    fn sample_record(cell: usize) -> CellRecord {
        CellRecord {
            cell,
            scenario_id: format!("ring-uniform-sync-n48-k1-s{}", 7 + cell),
            seed: 7 + cell as u64,
            wall_ms: 12,
            lines: vec![format!("{{\"fake\":\"line for cell {cell}\"}}")],
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        let record = CellRecord {
            cell: 3,
            scenario_id: "ring-advert-sync-n64-k1-s7".to_string(),
            seed: 7,
            wall_ms: 1234,
            lines: vec![
                "{\"schema\":1,\"x\":1}".to_string(),
                "{\"schema\":1,\"quote\\\"\":2}".to_string(),
            ],
        };
        let line = record.to_json();
        assert!(!line.contains('\n'), "records must be line-oriented");
        assert_eq!(CellRecord::parse(&line).unwrap(), record);
        // Seeds are `u64`: past 2^53 an `f64` would round them, and the
        // resume would refuse its own checkpoint.
        for seed in [(1 << 53) + 1, u64::MAX] {
            let record = CellRecord {
                seed,
                ..record.clone()
            };
            assert_eq!(CellRecord::parse(&record.to_json()).unwrap(), record);
        }
    }

    #[test]
    fn parse_rejects_malformed_records() {
        assert!(CellRecord::parse("not json").is_err());
        assert!(CellRecord::parse("{\"cell\":1}").is_err(), "missing fields");
        let good = sample_record(0).to_json();
        // Truncation anywhere inside the line breaks the JSON.
        assert!(CellRecord::parse(&good[..good.len() / 2]).is_err());
        // A wrong schema version is rejected even if well-formed.
        let wrong = good.replace("\"checkpoint\":1", "\"checkpoint\":99");
        assert!(CellRecord::parse(&wrong).unwrap_err().contains("schema"));
    }

    #[test]
    fn torn_tail_is_dropped_everything_else_is_fatal() {
        let a = sample_record(0).to_json();
        let b = sample_record(1).to_json();

        // A final line cut mid-record (no trailing newline): the crash
        // footprint. Dropped, flagged.
        let torn = format!("{a}\n{}", &b[..b.len() / 2]);
        let checkpoint = parse_checkpoint(&torn).unwrap();
        assert_eq!(checkpoint.records, vec![sample_record(0)]);
        assert!(checkpoint.torn_tail);

        // The same truncation with a trailing newline is a corrupt file,
        // not a crash footprint.
        let truncated_mid = format!("{}\n{b}\n", &a[..a.len() / 2]);
        let err = parse_checkpoint(&truncated_mid).unwrap_err();
        assert!(err.contains("line 1"), "{err}");

        // Garbage in the middle is fatal and names its line.
        let garbage = format!("{a}\nxyzzy\n{b}\n");
        let err = parse_checkpoint(&garbage).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        // So is a bottomless line: an error, not a stack overflow.
        let bottomless = format!("{a}\n{}\n", "[".repeat(2_000_000));
        let err = parse_checkpoint(&bottomless).unwrap_err();
        assert!(err.contains("line 2") && err.contains("nesting"), "{err}");

        // A clean file parses fully. A last record merely missing its
        // newline is torn too, even though its bytes parse: `append` is
        // about to cut it off, so its cell must re-run.
        let clean = parse_checkpoint(&format!("{a}\n{b}\n")).unwrap();
        assert_eq!(clean.records.len(), 2);
        assert!(!clean.torn_tail);
        let unterminated = parse_checkpoint(&format!("{a}\n{b}")).unwrap();
        assert_eq!(unterminated.records, vec![sample_record(0)]);
        assert!(unterminated.torn_tail);

        // Empty file: nothing done yet, nothing wrong.
        let empty = parse_checkpoint("").unwrap();
        assert!(empty.records.is_empty() && !empty.torn_tail);
    }

    #[test]
    fn append_cuts_the_torn_tail_so_a_second_crash_resumes_too() {
        let dir = std::env::temp_dir().join(format!("gossip-cp-append-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.jsonl");
        let path = path.to_str().unwrap();
        let record = |cell: usize| sample_record(cell).to_json();
        let half = |cell: usize| record(cell)[..record(cell).len() / 2].to_string();

        // Crash one: two records and half of the third. Resume writes a
        // record; crash two leaves half of another behind it.
        std::fs::write(path, format!("{}\n{}\n{}", record(0), record(1), half(2))).unwrap();
        assert!(read_checkpoint(path).unwrap().torn_tail);
        let mut writer = CheckpointWriter::append(path).unwrap();
        writer.record(&sample_record(3)).unwrap();
        drop(writer);
        let mut file = OpenOptions::new().append(true).open(path).unwrap();
        file.write_all(half(2).as_bytes()).unwrap();
        drop(file);

        // The second resume reads three whole records and one torn tail —
        // not a third line glued together from a fragment and a record.
        let replay = read_checkpoint(path).unwrap();
        assert!(replay.torn_tail);
        let cells: Vec<usize> = replay.records.iter().map(|r| r.cell).collect();
        assert_eq!(cells, [0, 1, 3]);
        drop(CheckpointWriter::append(path).unwrap());
        assert_eq!(
            std::fs::read_to_string(path).unwrap(),
            format!("{}\n{}\n{}\n", record(0), record(1), record(3))
        );

        // A file that is all torn tail is cut back to nothing.
        std::fs::write(path, half(0)).unwrap();
        drop(CheckpointWriter::append(path).unwrap());
        assert_eq!(std::fs::read_to_string(path).unwrap(), "");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verification_catches_grid_mismatches() {
        let mut base = ScenarioBuilder::new();
        base.set("nodes", "48").set("seed", "7");
        let cells = Grid::new(base)
            .axis("seed", ["7", "8", "9"])
            .expand()
            .unwrap();

        let good = CellRecord {
            cell: 1,
            scenario_id: cells[1].scenario_id(),
            seed: 8,
            wall_ms: 1,
            lines: vec!["{\"line\":1}".to_string()],
        };
        let slots = verify_against(vec![good.clone()], &cells).unwrap();
        assert_eq!(slots.len(), 3);
        assert!(slots[0].is_none() && slots[2].is_none());
        assert_eq!(slots[1], Some(good.clone()));

        // Out-of-range cell index.
        let mut bad = good.clone();
        bad.cell = 9;
        assert!(verify_against(vec![bad], &cells)
            .unwrap_err()
            .contains("only expands to 3"));

        // Identity mismatch (stale spec).
        let mut bad = good.clone();
        bad.scenario_id = "grid-advert-sync-n48-k1-s8".to_string();
        assert!(verify_against(vec![bad], &cells)
            .unwrap_err()
            .contains("spec changed"));

        // Seed mismatch.
        let mut bad = good.clone();
        bad.seed = 77;
        assert!(verify_against(vec![bad], &cells)
            .unwrap_err()
            .contains("seed"));

        // Wrong sweep width.
        let mut bad = good.clone();
        bad.lines.push("{\"extra\":1}".to_string());
        assert!(verify_against(vec![bad], &cells)
            .unwrap_err()
            .contains("2 output line(s)"));

        // Duplicate records.
        assert!(verify_against(vec![good.clone(), good], &cells)
            .unwrap_err()
            .contains("twice"));
    }

    #[test]
    fn verification_refuses_lines_of_another_output_shape() {
        // `format` and `history` are outside the scenario_id, so only the
        // recorded lines themselves can tell that the resume asks for a
        // different [output] than the checkpointed run printed.
        let cell_with = |format: &str, history: &str| {
            let mut b = ScenarioBuilder::new();
            b.set("nodes", "24")
                .set("format", format)
                .set("history", history);
            b.finish().unwrap()
        };
        let shapes = [
            cell_with("json", "false"),
            cell_with("json", "true"),
            cell_with("csv", "false"),
        ];
        for recorded in &shapes {
            let output = crate::run_cell(recorded);
            for resumed in &shapes {
                let record = CellRecord {
                    cell: 0,
                    scenario_id: recorded.scenario_id(),
                    seed: recorded.seed,
                    wall_ms: output.wall_ms,
                    lines: output.lines.clone(),
                };
                let verdict = verify_against(vec![record], std::slice::from_ref(resumed));
                if recorded == resumed {
                    assert!(verdict.is_ok(), "{verdict:?}");
                } else {
                    let err = verdict.unwrap_err();
                    let asked = format!(
                        "cell 0: checkpoint lines are not what [output] format = {}, history = {} ",
                        resumed.output.format.name(),
                        resumed.output.history,
                    );
                    assert!(err.starts_with(&asked), "{err}");
                }
            }
        }
    }
}
