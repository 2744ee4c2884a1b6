//! Output emission: the one-line-per-run JSON and CSV serializers, shared
//! by `run`, `grid`, and `bench` so the three front-ends cannot drift.
//!
//! Serialization is hand-rolled: the workspace is dependency-free by
//! design (simulation state is flat integers, so a JSON writer is ~40
//! lines), which keeps builds hermetic.
//!
//! Every emitted line is versioned: a `schema` field (JSON) / column (CSV)
//! carries [`SCHEMA_VERSION`], and a `scenario_id` stamps the cell
//! identity ([`Scenario::scenario_id`]), so concatenated outputs from
//! different invocations remain self-describing. The deterministic
//! [`to_json`] core — the serialization regression pins assert on — is
//! unversioned and timing-free; the emitter wraps it with the line-level
//! metadata.

use crate::spec::{OutputFormat, Scenario};
use gossip_sim::SimResult;

use std::io::{self, Write};

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

/// Serialize the deterministic core of a result as a single JSON object.
/// This is a pure function of the [`SimResult`] — no schema version, no
/// scenario id, no timing — so byte-for-byte regression pins on it stay
/// stable across line-format revisions.
pub fn to_json(result: &SimResult) -> String {
    let mut out = String::with_capacity(512);
    out.push('{');
    json_str(&mut out, "topology", &result.topology);
    out.push(',');
    json_str(&mut out, "protocol", &result.protocol);
    out.push(',');
    json_str(&mut out, "scheduler", &result.scheduler);
    out.push(',');
    json_num(&mut out, "nodes", result.nodes as u64);
    out.push(',');
    json_num(&mut out, "messages", result.messages as u64);
    out.push(',');
    json_num(&mut out, "seed", result.seed);
    out.push(',');
    out.push_str(&format!("\"completed\":{}", result.completed));
    out.push(',');
    match result.rounds_to_completion {
        Some(r) => json_num(&mut out, "rounds_to_completion", r as u64),
        None => out.push_str("\"rounds_to_completion\":null"),
    }
    out.push(',');
    json_num(&mut out, "rounds_executed", result.rounds_executed as u64);
    out.push(',');
    json_num(&mut out, "virtual_time", result.virtual_time);
    out.push(',');
    match result.virtual_time_to_completion {
        Some(t) => json_num(&mut out, "virtual_time_to_completion", t),
        None => out.push_str("\"virtual_time_to_completion\":null"),
    }
    out.push(',');
    json_num(
        &mut out,
        "total_connections",
        result.total_connections as u64,
    );
    out.push(',');
    json_num(
        &mut out,
        "productive_connections",
        result.productive_connections as u64,
    );
    out.push(',');
    json_num(
        &mut out,
        "wasted_connections",
        result.wasted_connections as u64,
    );
    out.push(',');
    json_num(&mut out, "complete_nodes", result.complete_nodes as u64);
    // Emitted only when nonzero — like `dynamics`, absence is the normal
    // case, and conditional emission keeps clean static runs serializing
    // byte-identically to pre-counter builds (the serialization pins rely
    // on that).
    if result.dropped_proposals > 0 {
        out.push(',');
        json_num(&mut out, "dropped_proposals", result.dropped_proposals);
    }
    if let Some(d) = &result.dynamics {
        out.push_str(",\"dynamics\":{");
        json_str(&mut out, "model", &d.model);
        out.push(',');
        json_num(&mut out, "departures", d.departures as u64);
        out.push(',');
        json_num(&mut out, "rejoins", d.rejoins as u64);
        out.push(',');
        json_num(&mut out, "edge_downs", d.edge_downs as u64);
        out.push(',');
        json_num(&mut out, "edge_ups", d.edge_ups as u64);
        out.push(',');
        json_num(&mut out, "rewires", d.rewires as u64);
        out.push(',');
        json_num(
            &mut out,
            "severed_connections",
            d.severed_connections as u64,
        );
        out.push(',');
        json_num(&mut out, "peak_alive", d.peak_alive as u64);
        out.push(',');
        json_num(&mut out, "min_alive", d.min_alive as u64);
        out.push(',');
        json_num(&mut out, "final_alive", d.final_alive as u64);
        out.push_str(",\"coverage_timeline\":[");
        for (i, p) in d.coverage_timeline.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            json_num(&mut out, "time", p.time);
            out.push(',');
            json_num(&mut out, "alive", p.alive as u64);
            out.push(',');
            json_num(&mut out, "informed_alive", p.informed_alive as u64);
            out.push('}');
        }
        out.push_str("]}");
    }
    if let Some(m) = &result.membership {
        out.push_str(",\"membership\":{");
        json_num(&mut out, "active_min", m.active_min as u64);
        out.push(',');
        // f64 via Display: shortest round-trip representation, stable
        // across platforms for the deterministic engine's values.
        out.push_str(&format!("\"active_mean\":{}", m.active_mean));
        out.push(',');
        json_num(&mut out, "active_max", m.active_max as u64);
        out.push(',');
        json_num(&mut out, "isolated_nodes", m.isolated_nodes as u64);
        out.push(',');
        json_num(&mut out, "joins", m.joins);
        out.push(',');
        json_num(&mut out, "shuffles", m.shuffles);
        out.push(',');
        json_num(&mut out, "probes", m.probes);
        out.push(',');
        json_num(&mut out, "suspicions", m.suspicions);
        out.push(',');
        json_num(&mut out, "evictions", m.evictions);
        out.push(',');
        json_num(
            &mut out,
            "false_positive_evictions",
            m.false_positive_evictions,
        );
        out.push('}');
    }
    if let Some(rounds) = &result.rounds {
        out.push_str(",\"rounds\":[");
        for (i, r) in rounds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            json_num(&mut out, "round", r.round as u64);
            out.push(',');
            json_num(&mut out, "connections", r.connections as u64);
            out.push(',');
            json_num(&mut out, "productive", r.productive as u64);
            out.push(',');
            json_num(&mut out, "complete_nodes", r.complete_nodes as u64);
            out.push(',');
            json_num(&mut out, "messages_held", r.messages_held as u64);
            out.push('}');
        }
        out.push(']');
    }
    out.push('}');
    out
}

/// One emitted JSON line: schema version and scenario id leading, the
/// deterministic [`to_json`] body in the middle, execution metadata
/// (threads, wall time) trailing.
pub fn run_line_json(scenario_id: &str, result: &SimResult, meta: &RunMeta) -> String {
    let mut out = String::with_capacity(640);
    out.push('{');
    json_num(&mut out, "schema", SCHEMA_VERSION);
    out.push(',');
    json_str(&mut out, "scenario_id", scenario_id);
    out.push(',');
    let body = to_json(result);
    out.push_str(&body[1..body.len() - 1]);
    out.push(',');
    json_num(&mut out, "threads", meta.threads as u64);
    out.push(',');
    json_num(&mut out, "wall_ms", meta.wall_ms);
    out.push('}');
    out
}

/// The header row for CSV output. The column set is fixed — dynamics and
/// membership columns are simply empty on runs that used neither — so
/// outputs from different configs concatenate and load uniformly in
/// plotting tools.
pub fn csv_header() -> &'static str {
    "schema,scenario_id,topology,protocol,scheduler,nodes,messages,seed,\
     completed,rounds_to_completion,rounds_executed,virtual_time,\
     virtual_time_to_completion,total_connections,productive_connections,\
     wasted_connections,complete_nodes,dropped_proposals,dynamics_model,\
     departures,rejoins,edge_downs,edge_ups,rewires,severed_connections,\
     peak_alive,min_alive,final_alive,mem_active_min,mem_active_mean,\
     mem_active_max,mem_isolated_nodes,mem_joins,mem_shuffles,mem_probes,\
     mem_suspicions,mem_evictions,mem_false_positive_evictions,threads,\
     wall_ms"
}

/// Serialize one run as a CSV row matching [`csv_header`]. Absent values
/// (an uncompleted run's completion columns, dynamics columns of a static
/// run) serialize as empty cells. Names and scenario ids are
/// comma/quote-free by construction, so no quoting is needed.
pub fn run_line_csv(scenario_id: &str, result: &SimResult, meta: &RunMeta) -> String {
    fn opt(v: Option<u64>) -> String {
        v.map(|v| v.to_string()).unwrap_or_default()
    }
    let d = result.dynamics.as_ref();
    let mut fields: Vec<String> = vec![
        SCHEMA_VERSION.to_string(),
        scenario_id.to_string(),
        result.topology.clone(),
        result.protocol.clone(),
        result.scheduler.clone(),
        result.nodes.to_string(),
        result.messages.to_string(),
        result.seed.to_string(),
        result.completed.to_string(),
        opt(result.rounds_to_completion.map(|r| r as u64)),
        result.rounds_executed.to_string(),
        result.virtual_time.to_string(),
        opt(result.virtual_time_to_completion),
        result.total_connections.to_string(),
        result.productive_connections.to_string(),
        result.wasted_connections.to_string(),
        result.complete_nodes.to_string(),
        result.dropped_proposals.to_string(),
    ];
    fields.push(d.map(|d| d.model.clone()).unwrap_or_default());
    for value in [
        d.map(|d| d.departures),
        d.map(|d| d.rejoins),
        d.map(|d| d.edge_downs),
        d.map(|d| d.edge_ups),
        d.map(|d| d.rewires),
        d.map(|d| d.severed_connections),
        d.map(|d| d.peak_alive),
        d.map(|d| d.min_alive),
        d.map(|d| d.final_alive),
    ] {
        fields.push(opt(value.map(|v| v as u64)));
    }
    let m = result.membership.as_ref();
    fields.push(opt(m.map(|m| m.active_min as u64)));
    fields.push(m.map(|m| m.active_mean.to_string()).unwrap_or_default());
    fields.push(opt(m.map(|m| m.active_max as u64)));
    fields.push(opt(m.map(|m| m.isolated_nodes as u64)));
    for value in [
        m.map(|m| m.joins),
        m.map(|m| m.shuffles),
        m.map(|m| m.probes),
        m.map(|m| m.suspicions),
        m.map(|m| m.evictions),
        m.map(|m| m.false_positive_evictions),
    ] {
        fields.push(opt(value));
    }
    fields.push(meta.threads.to_string());
    fields.push(meta.wall_ms.to_string());
    fields.join(",")
}

/// Streams run lines in one format to one writer: CSV emits its header
/// before the first row, JSON needs none. `run`, sweeps, and grids all
/// emit through this, which is what makes a grid cell's line byte-
/// comparable (modulo wall time) to the standalone run of the same
/// scenario.
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

    /// Emit one run line. The scenario id is stamped from `scenario` with
    /// the **result's** seed, so every line of a sweep carries the
    /// identity of the exact cell it ran.
    pub fn emit(
        &mut self,
        scenario: &Scenario,
        result: &SimResult,
        meta: &RunMeta,
    ) -> io::Result<()> {
        let id = scenario.with_seed(result.seed).scenario_id();
        match self.format {
            OutputFormat::Json => writeln!(self.out, "{}", run_line_json(&id, result, meta)),
            OutputFormat::Csv => {
                if !self.header_written {
                    self.header_written = true;
                    writeln!(self.out, "{}", csv_header())?;
                }
                writeln!(self.out, "{}", run_line_csv(&id, result, meta))
            }
        }
    }

    /// Emit one **pre-rendered** run line. This is how the parallel grid
    /// pool streams its buffered cells and how `--resume` replays
    /// checkpointed ones: cells render their lines off-thread (or read
    /// them back from the checkpoint file), and the sequencer funnels
    /// them through the emitter so the CSV header discipline — one
    /// header, before the first row, wherever the row came from — still
    /// holds.
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

pub(crate) fn json_str(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&gossip_telemetry::json::json_str(value));
}

pub(crate) fn json_num(out: &mut String, key: &str, value: u64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioBuilder;

    #[test]
    fn json_escapes_specials() {
        let mut out = String::new();
        json_str(&mut out, "k", "a\"b\\c\nd");
        assert_eq!(out, r#""k":"a\"b\\c\nd""#);
    }

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
        for (result, meta) in scenario.sweep_timed_iter() {
            emitter.emit(&scenario, &result, &meta).unwrap();
        }
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
