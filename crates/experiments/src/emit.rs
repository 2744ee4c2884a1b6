//! Output emission: the one-line-per-run JSON and CSV serializers, shared
//! by `run`, `grid`, and `bench` so the three front-ends cannot drift.
//!
//! Serialization is hand-rolled: the workspace is dependency-free by
//! design (simulation state is flat integers, so a JSON writer is ~40
//! lines — [`Obj`]), which keeps builds hermetic. A run line's scalars
//! are rows of the `RESULT`, `DYNAMICS` and `MEMBERSHIP` tables, which
//! the JSON body, the CSV header and the CSV row all render from.
//!
//! Every emitted line is versioned: a `schema` field (JSON) / column (CSV)
//! carries [`SCHEMA_VERSION`], and a `scenario_id` stamps the cell
//! identity ([`Scenario::scenario_id`]), so concatenated outputs from
//! different invocations remain self-describing. The deterministic
//! [`to_json`] core — the serialization regression pins assert on — is
//! unversioned and timing-free; the emitter wraps it with the line-level
//! metadata.

use crate::bench::metrics_json;
use crate::spec::{OutputFormat, Scenario};
use gossip_sim::{DynamicsStats, MembershipStats, SimResult};
use gossip_telemetry::json::Obj;
use gossip_telemetry::Probe;

use std::fmt;
use std::io::{self, Write};
use std::time::Instant;

/// Version of the emitted line format. Bump when fields are added,
/// removed, or renamed in run/grid/bench output lines.
pub const SCHEMA_VERSION: u64 = 1;

/// Execution-side metadata of one run, reported next to the (seed-
/// deterministic) [`SimResult`]: the worker-thread count actually used
/// and the wall-clock time the run took. Kept out of `SimResult` so
/// result equality stays meaningful for determinism tests — two runs are
/// "the same run" regardless of how fast the hardware was that day.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunMeta {
    /// Worker threads after the [`crate::effective_threads`] clamp.
    pub threads: usize,
    /// Wall-clock duration of the run, in milliseconds.
    pub wall_ms: u64,
}

/// One scalar of a run line. `Display` is its CSV cell; JSON differs only
/// where a variant says so.
enum Cell<'a> {
    /// Quoted and escaped in JSON. Names and scenario ids are comma- and
    /// quote-free by construction, so CSV needs no quoting.
    Str(&'a str),
    Int(u64),
    /// Absent is `null` in JSON and an empty CSV cell.
    Opt(Option<u64>),
    /// Always a CSV cell, but a JSON member only when nonzero: absence is
    /// the normal case, and keeps clean static runs serializing as they
    /// did before the counter existed (the serialization pins rely on it).
    NonZero(u64),
    Bool(bool),
    /// Via `Display`: the shortest round-trip representation, stable
    /// across platforms for the deterministic engine's values.
    Float(f64),
}
use Cell::{Bool, Float, Int, NonZero, Opt, Str};

impl fmt::Display for Cell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Str(s) => f.write_str(s),
            Int(n) | NonZero(n) | Opt(Some(n)) => n.fmt(f),
            Opt(None) => Ok(()),
            Bool(b) => b.fmt(f),
            Float(x) => x.fmt(f),
        }
    }
}

type Get<T> = for<'a> fn(&'a T) -> Cell<'a>;

/// One run-line field of a `T`: its JSON key, its CSV column, and how to
/// read it. The JSON body, the CSV header and the CSV row all render from
/// these rows, so a column cannot exist, or sit elsewhere, in only one.
struct Field<T> {
    key: &'static str,
    column: &'static str,
    get: Get<T>,
}

/// A field of a nested JSON object, whose flat CSV column says which.
const fn nested<T>(key: &'static str, column: &'static str, get: Get<T>) -> Field<T> {
    Field { key, column, get }
}

/// A field whose CSV column is named after its JSON key.
const fn field<T>(key: &'static str, get: Get<T>) -> Field<T> {
    nested(key, key, get)
}

const RESULT: [Field<SimResult>; 16] = [
    field("topology", |r| Str(&r.topology)),
    field("protocol", |r| Str(&r.protocol)),
    field("scheduler", |r| Str(&r.scheduler)),
    field("nodes", |r| Int(r.nodes as u64)),
    field("messages", |r| Int(r.messages as u64)),
    field("seed", |r| Int(r.seed)),
    field("completed", |r| Bool(r.completed)),
    field("rounds_to_completion", |r| {
        Opt(r.rounds_to_completion.map(|n| n as u64))
    }),
    field("rounds_executed", |r| Int(r.rounds_executed as u64)),
    field("virtual_time", |r| Int(r.virtual_time)),
    field("virtual_time_to_completion", |r| {
        Opt(r.virtual_time_to_completion)
    }),
    field("total_connections", |r| Int(r.total_connections as u64)),
    field("productive_connections", |r| {
        Int(r.productive_connections as u64)
    }),
    field("wasted_connections", |r| Int(r.wasted_connections as u64)),
    field("complete_nodes", |r| Int(r.complete_nodes as u64)),
    field("dropped_proposals", |r| NonZero(r.dropped_proposals)),
];

const DYNAMICS: [Field<DynamicsStats>; 10] = [
    nested("model", "dynamics_model", |d| Str(&d.model)),
    field("departures", |d| Int(d.departures as u64)),
    field("rejoins", |d| Int(d.rejoins as u64)),
    field("edge_downs", |d| Int(d.edge_downs as u64)),
    field("edge_ups", |d| Int(d.edge_ups as u64)),
    field("rewires", |d| Int(d.rewires as u64)),
    field("severed_connections", |d| Int(d.severed_connections as u64)),
    field("peak_alive", |d| Int(d.peak_alive as u64)),
    field("min_alive", |d| Int(d.min_alive as u64)),
    field("final_alive", |d| Int(d.final_alive as u64)),
];

const MEMBERSHIP: [Field<MembershipStats>; 10] = [
    nested("active_min", "mem_active_min", |m| Int(m.active_min as u64)),
    nested("active_mean", "mem_active_mean", |m| Float(m.active_mean)),
    nested("active_max", "mem_active_max", |m| Int(m.active_max as u64)),
    nested("isolated_nodes", "mem_isolated_nodes", |m| {
        Int(m.isolated_nodes as u64)
    }),
    nested("joins", "mem_joins", |m| Int(m.joins)),
    nested("shuffles", "mem_shuffles", |m| Int(m.shuffles)),
    nested("probes", "mem_probes", |m| Int(m.probes)),
    nested("suspicions", "mem_suspicions", |m| Int(m.suspicions)),
    nested("evictions", "mem_evictions", |m| Int(m.evictions)),
    nested(
        "false_positive_evictions",
        "mem_false_positive_evictions",
        |m| Int(m.false_positive_evictions),
    ),
];

/// Write `of`'s fields as JSON members, in table order.
fn members<T>(o: &mut Obj, fields: &[Field<T>], of: &T) {
    for f in fields {
        match (f.get)(of) {
            Str(s) => o.str(f.key, s),
            Opt(None) => o.raw(f.key, "null"),
            NonZero(0) => continue,
            cell => o.raw(f.key, cell),
        };
    }
}

/// Append `of`'s fields as CSV cells, in table order — all empty when the
/// run had no such layer.
fn cells<T>(row: &mut Vec<String>, fields: &[Field<T>], of: Option<&T>) {
    for f in fields {
        row.push(of.map_or_else(String::new, |of| (f.get)(of).to_string()));
    }
}

/// A JSON array of objects, one per item.
fn array<T>(items: &[T], write: impl Fn(&mut Obj, &T)) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut o = Obj::default();
        write(&mut o, item);
        out.push_str(&o.finish());
    }
    out.push(']');
    out
}

/// The members of [`to_json`]: the result's scalars, then a `dynamics`
/// and a `membership` object when the run had that layer, then the
/// per-round history when it was recorded.
fn result_members(o: &mut Obj, result: &SimResult) {
    members(o, &RESULT, result);
    if let Some(d) = &result.dynamics {
        let mut dynamics = Obj::default();
        members(&mut dynamics, &DYNAMICS, d);
        let timeline = array(&d.coverage_timeline, |o, p| {
            o.raw("time", p.time)
                .raw("alive", p.alive)
                .raw("informed_alive", p.informed_alive);
        });
        dynamics.raw("coverage_timeline", timeline);
        o.raw("dynamics", dynamics.finish());
    }
    if let Some(m) = &result.membership {
        let mut membership = Obj::default();
        members(&mut membership, &MEMBERSHIP, m);
        o.raw("membership", membership.finish());
    }
    if let Some(rounds) = &result.rounds {
        let rounds = array(rounds, |o, r| {
            o.raw("round", r.round)
                .raw("connections", r.connections)
                .raw("productive", r.productive)
                .raw("complete_nodes", r.complete_nodes)
                .raw("messages_held", r.messages_held);
        });
        o.raw("rounds", rounds);
    }
}

/// Serialize the deterministic core of a result as a single JSON object.
/// This is a pure function of the [`SimResult`] — no schema version, no
/// scenario id, no timing — so byte-for-byte regression pins on it stay
/// stable across line-format revisions.
pub fn to_json(result: &SimResult) -> String {
    let mut o = Obj::default();
    result_members(&mut o, result);
    o.finish()
}

/// One emitted JSON line: schema version and scenario id leading, the
/// deterministic [`to_json`] members in the middle, execution metadata
/// (threads, wall time) trailing.
pub fn run_line_json(scenario_id: &str, result: &SimResult, meta: &RunMeta) -> String {
    run_line_obj(scenario_id, result, meta).finish()
}

/// The members of [`run_line_json`], open for a bench line's `metrics`.
fn run_line_obj(scenario_id: &str, result: &SimResult, meta: &RunMeta) -> Obj {
    let mut o = Obj::default();
    o.raw("schema", SCHEMA_VERSION)
        .str("scenario_id", scenario_id);
    result_members(&mut o, result);
    o.raw("threads", meta.threads).raw("wall_ms", meta.wall_ms);
    o
}

/// The header row for CSV output. The column set is fixed — dynamics and
/// membership columns are simply empty on runs that used neither — so
/// outputs from different configs concatenate and load uniformly in
/// plotting tools.
pub fn csv_header() -> String {
    let mut columns = vec!["schema", "scenario_id"];
    columns.extend(RESULT.iter().map(|f| f.column));
    columns.extend(DYNAMICS.iter().map(|f| f.column));
    columns.extend(MEMBERSHIP.iter().map(|f| f.column));
    columns.extend(["threads", "wall_ms"]);
    columns.join(",")
}

/// Serialize one run as a CSV row matching [`csv_header`]. Absent values
/// (an uncompleted run's completion columns, dynamics columns of a static
/// run) serialize as empty cells; the per-round history is JSON-only.
pub fn run_line_csv(scenario_id: &str, result: &SimResult, meta: &RunMeta) -> String {
    let mut row = vec![SCHEMA_VERSION.to_string(), scenario_id.to_string()];
    cells(&mut row, &RESULT, Some(result));
    cells(&mut row, &DYNAMICS, result.dynamics.as_ref());
    cells(&mut row, &MEMBERSHIP, result.membership.as_ref());
    row.extend([meta.threads.to_string(), meta.wall_ms.to_string()]);
    row.join(",")
}

/// One run of a sweep: the result, and the line it prints.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRun {
    pub result: SimResult,
    pub meta: RunMeta,
    /// The run's output line in the scenario's `[output]` format, stamped
    /// with the id of the exact seed it ran.
    pub line: String,
    /// What to tell the user on stderr when the run hit its round cap.
    pub warning: Option<String>,
}

/// The sweep loop — the only one: run `scenario` once per seed of its
/// sweep ([`Scenario::sweep`]), lazily and in seed order, so a consumer
/// can stream one line per run. Each run is announced to `probe`
/// ([`Probe::begin_run`]), observed by it, timed and rendered. `run`,
/// `bench` and grid cells all print these lines, which is what makes a
/// cell's line byte-comparable (modulo wall time) to the standalone run's.
/// With `metrics`, each JSON line ends in the bench `metrics` object
/// (the `bench` module); CSV rows never do.
pub fn sweep_runs<'a>(
    scenario: &'a Scenario,
    probe: &'a mut dyn Probe,
    metrics: bool,
) -> impl Iterator<Item = SweepRun> + 'a {
    let threads = scenario.scheduler.effective_threads();
    scenario.sweep().map(move |one| {
        let id = one.scenario_id();
        let started = Instant::now();
        probe.begin_run(&id, one.nodes, one.messages, one.seed);
        let (result, clocks) = one.run_clocked(one.sim_config(), probe);
        let meta = RunMeta {
            threads,
            wall_ms: started.elapsed().as_millis() as u64,
        };
        let line = match scenario.output.format {
            OutputFormat::Json if metrics => run_line_obj(&id, &result, &meta)
                .raw("metrics", metrics_json(&one, &clocks))
                .finish(),
            OutputFormat::Json => run_line_json(&id, &result, &meta),
            OutputFormat::Csv => run_line_csv(&id, &result, &meta),
        };
        let warning = (!result.completed).then(|| {
            format!(
                "{id}: gossip did not complete within {} rounds",
                result.rounds_executed
            )
        });
        SweepRun {
            result,
            meta,
            line,
            warning,
        }
    })
}

/// Streams run lines in one format to one writer: CSV emits its header
/// before the first row, JSON needs none.
pub struct Emitter<W: Write> {
    format: OutputFormat,
    out: W,
    header_written: bool,
}

impl<W: Write> Emitter<W> {
    pub fn new(format: OutputFormat, out: W) -> Self {
        Emitter {
            format,
            out,
            header_written: false,
        }
    }

    /// Stream `scenario`'s sweep ([`sweep_runs`], `metrics` as there):
    /// each run's line as it completes, its warning, if any, to stderr.
    pub fn emit_sweep(
        &mut self,
        scenario: &Scenario,
        probe: &mut dyn Probe,
        metrics: bool,
    ) -> io::Result<()> {
        for run in sweep_runs(scenario, probe, metrics) {
            self.emit_rendered(&run.line)?;
            if let Some(warning) = run.warning {
                eprintln!("warning: {warning}");
            }
        }
        Ok(())
    }

    /// Emit one rendered run line — a sweep's, one the grid pool rendered
    /// off-thread, or one `--resume` read back from the checkpoint. Every
    /// line goes through here, so the CSV header discipline (one header,
    /// before the first row, wherever the row came from) holds.
    pub fn emit_rendered(&mut self, line: &str) -> io::Result<()> {
        if self.format == OutputFormat::Csv && !self.header_written {
            self.header_written = true;
            writeln!(self.out, "{}", csv_header())?;
        }
        writeln!(self.out, "{line}")
    }

    /// The wrapped writer, back.
    pub fn into_inner(self) -> W {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioBuilder;

    #[test]
    fn run_lines_carry_schema_id_and_metadata() {
        let scenario = ScenarioBuilder::new().nodes(16).finish().unwrap();
        let result = scenario.run();
        let meta = RunMeta {
            threads: 3,
            wall_ms: 12,
        };
        let id = scenario.scenario_id();
        let line = run_line_json(&id, &result, &meta);
        assert!(line.starts_with(&format!(
            "{{\"schema\":{SCHEMA_VERSION},\"scenario_id\":\"{id}\","
        )));
        assert!(line.ends_with(",\"threads\":3,\"wall_ms\":12}"), "{line}");
        // The deterministic core is embedded verbatim.
        let core = to_json(&result);
        assert!(line.contains(&core[1..core.len() - 1]));

        let row = run_line_csv(&id, &result, &meta);
        assert_eq!(
            row.split(',').count(),
            csv_header().split(',').count(),
            "{row}"
        );
        assert!(row.starts_with(&format!("{SCHEMA_VERSION},{id},ring,")));
    }

    #[test]
    fn membership_object_appears_only_on_overlay_runs() {
        use crate::spec::MembershipSpec;
        // Full-view default: the run JSON is byte-identical to the
        // pre-membership serialization — no membership key at all.
        let full = ScenarioBuilder::new().nodes(32).finish().unwrap();
        let full_json = to_json(&full.run());
        assert!(!full_json.contains("membership"), "{full_json}");

        // The same scenario with the overlay on: a membership object with
        // the overlay counters, placed before any rounds array.
        let overlay = ScenarioBuilder::new()
            .nodes(32)
            .membership(MembershipSpec::HyParView {
                active: 5,
                passive: 30,
                shuffle_period: 1,
                probe_period: 1,
            })
            .finish()
            .unwrap();
        let result = overlay.run();
        let json = to_json(&result);
        assert!(json.contains("\"membership\":{\"active_min\":"), "{json}");
        assert!(json.contains("\"false_positive_evictions\":"), "{json}");

        // CSV rows stay aligned with the header in both shapes.
        let meta = RunMeta {
            threads: 1,
            wall_ms: 0,
        };
        for (scenario, result) in [(&full, full.run()), (&overlay, result)] {
            let row = run_line_csv(&scenario.scenario_id(), &result, &meta);
            assert_eq!(
                row.split(',').count(),
                csv_header().split(',').count(),
                "{row}"
            );
        }
    }

    #[test]
    fn emitter_writes_csv_header_once() {
        let scenario = ScenarioBuilder::new()
            .nodes(12)
            .seeds(2)
            .output(crate::OutputFormat::Csv, false)
            .finish()
            .unwrap();
        let mut emitter = Emitter::new(scenario.output.format, Vec::<u8>::new());
        emitter
            .emit_sweep(&scenario, &mut gossip_telemetry::NoopProbe, false)
            .unwrap();
        let out = String::from_utf8(emitter.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "header + one row per seed");
        assert_eq!(lines[0], csv_header());
        assert!(lines[1].contains("-s1,") || lines[1].contains("-s1"));
        assert_eq!(
            out.matches("schema,").count(),
            1,
            "header appears exactly once"
        );
    }
}
