//! The metric names, units, directions and bounds — the same table
//! `BENCHMARK.json` carries (a test keeps the two in step).

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

impl Metric {
    pub fn better(&self) -> &'static str {
        if self.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
    }
}

/// End-to-end metrics, measured black-box on the release binary with
/// tracing off, each with the share of the parent's median by which it
/// may worsen before a change counts as a regression.
///
/// The bounds are what the machine the benchmark was sized on can
/// resolve, not what one would wish for: on that shared 2-vCPU VM the
/// same binary on the same input runs 20-60 % slower for seconds to
/// minutes at a time when the host is busy, and the quiet-moment
/// reading itself drifts by 10-20 % over half an hour. A 10 % bound
/// would flag noise, so the timed metrics carry the contract's maximum;
/// peak RSS repeats to within 3 %. README.md has the measured table.
pub const END_TO_END: &[(Metric, f64)] = &[
    (lower("wall_s", "s"), 0.25),
    (higher("node_rounds_per_s", "1/s"), 0.25),
    (lower("setup_s", "s"), 0.25),
    (lower("cpu_s", "s"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.15),
];

/// Per-layer metrics of the traced pass; the layer is the name's first
/// segment. A metric whose layer a workload does not exercise reads 0
/// on that workload (no time spent, nothing counted).
pub const PER_LAYER: &[Metric] = &[
    lower("core.topology.build_s", "s"),
    lower("core.topology.edges", "count"),
    lower("core.matching.match_s", "s"),
    lower("core.matching.boundary_share", "ratio"),
    lower("core.matching.kernel_s", "s"),
    lower("core.matching.proposals", "count"),
    lower("core.matching.connections", "count"),
    higher("core.matching.match_ratio", "ratio"),
    lower("core.message.transfer_s", "s"),
    lower("core.message.union_kernel_s", "s"),
    higher("core.message.union_words_per_s", "1/s"),
    lower("core.message.fingerprint_kernel_s", "s"),
    lower("core.dynamic.apply_s", "s"),
    lower("core.dynamic.mutations", "count"),
    lower("protocols.advertise_s", "s"),
    lower("protocols.decide_s", "s"),
    lower("protocols.decide_ns_per_neighbor", "ns"),
    lower("dynamics.stream.init_s", "s"),
    lower("dynamics.stream.drain_s", "s"),
    lower("dynamics.stream.mutations", "count"),
    higher("dynamics.stream.mutations_per_s", "1/s"),
    lower("membership.tick_s", "s"),
    lower("membership.ticks", "count"),
    lower("membership.tick_ns_per_node", "ns"),
    lower("membership.evictions", "count"),
    lower("membership.false_positive_share", "ratio"),
    lower("sim.run_s", "s"),
    lower("sim.sync.rounds", "count"),
    higher("sim.sync.node_rounds_per_s", "1/s"),
    lower("sim.sync.connections", "count"),
    higher("sim.sync.productive_share", "ratio"),
    lower("sim.sync.region_imbalance", "ratio"),
    higher("sim.sync.speedup", "ratio"),
    lower("sim.async.execute_s", "s"),
    lower("sim.async.merge_s", "s"),
    lower("sim.async.sweep_s", "s"),
    lower("sim.async.slices", "count"),
    lower("sim.async.events", "count"),
    higher("sim.async.events_per_s", "1/s"),
    lower("sim.async.dropped_share", "ratio"),
    lower("sim.async.region_imbalance", "ratio"),
    higher("sim.async.speedup", "ratio"),
    lower("experiments.spec.parse_s", "s"),
    lower("experiments.grid.expand_s", "s"),
    lower("experiments.grid.cells", "count"),
    lower("experiments.pool.run_s", "s"),
    higher("experiments.pool.cells_per_s", "1/s"),
    lower("experiments.pool.stolen", "count"),
    higher("experiments.pool.speedup", "ratio"),
    lower("experiments.emit.render_s", "s"),
    lower("experiments.emit.bytes", "bytes"),
    lower("experiments.checkpoint.record_s", "s"),
    lower("experiments.checkpoint.record_p95_s", "s"),
    lower("experiments.checkpoint.read_s", "s"),
    lower("telemetry.trace.write_s", "s"),
    lower("telemetry.trace.events", "count"),
    lower("telemetry.trace.bytes", "bytes"),
    higher("telemetry.trace.events_per_s", "1/s"),
    lower("telemetry.trace.overhead_ratio", "ratio"),
    lower("telemetry.probe.memory_s", "s"),
    lower("telemetry.analyze.run_s", "s"),
    higher("telemetry.analyze.lines_per_s", "1/s"),
    lower("telemetry.json.parse_s", "s"),
    lower("cli.startup_s", "s"),
    lower("cli.stdout_bytes", "bytes"),
    lower("cli.process_overhead_s", "s"),
];

pub fn per_layer(name: &str) -> Option<&'static Metric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// One line of the driver protocol: the last line of stdout.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&Metric, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(*v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A float as JSON: every digit measured, and never `NaN`/`inf` (which
/// JSON cannot carry; a non-finite reading is reported as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn benchmark_json() -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root")
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|(m, _)| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(!names[..i].contains(name), "duplicate {name}");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|(_, bound)| *bound > 0.0 && *bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|(m, _)| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(
            END_TO_END.iter().all(|(_, b)| *b <= setup.1),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_this_table() {
        let json = benchmark_json();
        for (m, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                m.name,
                m.unit,
                m.better()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert_eq!(
                json.contains(&entry),
                w.driver,
                "BENCHMARK.json and {entry}"
            );
        }
        let entries = json.matches("{\"name\": ").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.iter().filter(|w| w.driver).count()
        );
    }

    #[test]
    fn result_line_is_one_json_object_with_full_precision() {
        let line = result_line(
            true,
            12,
            0,
            &[(&END_TO_END[0].0, 1.2034567891), (&PER_LAYER[1], f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.2034567891, \"unit\": \"s\"}, \"core.topology.edges\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
