//! The grid determinism contract: every grid cell's [`SimResult`] is
//! byte-identical to the same scenario run standalone, and the emitted
//! lines match modulo wall time. This is the invariant the CI grid smoke
//! job re-checks in release mode against the real binary.

use gossip_experiments::{
    parse_spec, run_line_json, sweep_runs, to_json, Emitter, Grid, OutputFormat, Scenario,
    ScenarioBuilder,
};
use gossip_telemetry::NoopProbe;

/// A small but representative grid: both protocols and both schedulers
/// over two topologies, two seeds each, with one churned cell axis-free
/// in the base.
fn smoke_grid() -> Grid {
    let mut base = ScenarioBuilder::new();
    base.set("nodes", "48").set("seed", "7").set("seeds", "2");
    Grid::new(base)
        .axis("topology", ["ring", "rgg"])
        .axis("protocol", ["uniform", "advert"])
        .axis("scheduler", ["sync", "async"])
}

/// Build the standalone scenario equivalent of one cell the way a user
/// would: a fresh builder fed the same assignments, never touching the
/// grid machinery.
fn standalone(topology: &str, protocol: &str, scheduler: &str) -> Scenario {
    let mut builder = ScenarioBuilder::new();
    builder
        .set("nodes", "48")
        .set("seed", "7")
        .set("seeds", "2")
        .set("topology", topology)
        .set("protocol", protocol)
        .set("scheduler", scheduler);
    builder.finish().expect("valid standalone scenario")
}

#[test]
fn every_grid_cell_is_byte_identical_to_its_standalone_run() {
    let cells = smoke_grid().expand().expect("valid grid");
    assert_eq!(cells.len(), 8);
    let mut checked = 0;
    for topology in ["ring", "rgg"] {
        for protocol in ["uniform", "advert"] {
            for scheduler in ["sync", "async"] {
                let solo = standalone(topology, protocol, scheduler);
                let cell = &cells[checked];
                assert_eq!(cell, &solo, "expansion order must match the nest order");
                // Byte-identical results, across the whole seed sweep.
                let cell_runs: Vec<String> = cell.sweep().map(|s| to_json(&s.run())).collect();
                let solo_runs: Vec<String> = solo.sweep().map(|s| to_json(&s.run())).collect();
                assert_eq!(
                    cell_runs, solo_runs,
                    "{topology}/{protocol}/{scheduler} diverged between grid and standalone"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, cells.len());
}

#[test]
fn grid_cells_from_a_spec_file_match_builder_built_cells() {
    let grid = parse_spec(
        "[scenario]\n\
         nodes = 48\n\
         seed = 7\n\
         seeds = 2\n\
         [axis]\n\
         topology = ring, rgg\n\
         protocol = uniform, advert\n\
         scheduler = sync, async\n",
    )
    .expect("valid spec");
    assert_eq!(
        grid.expand().unwrap(),
        smoke_grid().expand().unwrap(),
        "spec files and the builder API describe the same grid"
    );
}

#[test]
fn emitted_lines_match_modulo_wall_time() {
    let cells = smoke_grid().expand().unwrap();
    // Emit the whole grid through the Emitter, then re-emit each cell
    // standalone; after stripping wall_ms the streams must be identical.
    let strip = |line: &str| -> String {
        let at = line.find("\"wall_ms\":").expect("timed line");
        line[..at].to_string()
    };
    let sweep_lines = |scenario: &Scenario| -> Vec<String> {
        sweep_runs(scenario, &mut NoopProbe, false)
            .map(|run| {
                let id = scenario.with_seed(run.result.seed).scenario_id();
                assert_eq!(run.line, run_line_json(&id, &run.result, &run.meta));
                strip(&run.line)
            })
            .collect()
    };
    let grid_lines: Vec<String> = cells.iter().flat_map(sweep_lines).collect();
    let mut solo_lines = Vec::new();
    for topology in ["ring", "rgg"] {
        for protocol in ["uniform", "advert"] {
            for scheduler in ["sync", "async"] {
                solo_lines.extend(sweep_lines(&standalone(topology, protocol, scheduler)));
            }
        }
    }
    assert_eq!(grid_lines, solo_lines);

    // And the Emitter streams exactly those lines (JSON needs no header).
    let mut emitter = Emitter::new(OutputFormat::Json, Vec::<u8>::new());
    for cell in &cells {
        emitter.emit_sweep(cell, &mut NoopProbe, false).unwrap();
    }
    let out = String::from_utf8(emitter.into_inner()).unwrap();
    let emitted: Vec<String> = out.lines().map(strip).collect();
    assert_eq!(emitted, grid_lines);
}

#[test]
fn scenario_ids_are_pinned_and_distinct_across_the_grid() {
    let cells = smoke_grid().expand().unwrap();
    let ids: Vec<String> = cells.iter().map(|s| s.scenario_id()).collect();
    assert_eq!(ids[0], "ring-uniform-sync-n48-k1-s7");
    assert_eq!(ids[1], "ring-uniform-async@d0.1j0.25l32:256-n48-k1-s7");
    let distinct: std::collections::HashSet<&String> = ids.iter().collect();
    assert_eq!(distinct.len(), ids.len());
    // Sweep members get their own ids via the seed stamp.
    let second_seed = cells[0].with_seed(8).scenario_id();
    assert_eq!(second_seed, "ring-uniform-sync-n48-k1-s8");
}
