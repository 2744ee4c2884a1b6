//! The dependency-free spec-file format: `key = value` assignments in
//! three sections, describing a whole grid (or a single scenario) in one
//! file — enough to reproduce an entire paper figure with `gossip-sim
//! grid --spec FILE`.
//!
//! ```text
//! # Advert vs uniform across ring and rgg, both schedulers.
//! [scenario]            # base assignments, shared by every cell
//! nodes = 512
//! seed = 42
//! seeds = 5
//!
//! [axis]                # each line is one sweep axis, in nesting order
//! topology = ring, rgg
//! protocol = uniform, advert
//! scheduler = sync, async
//!
//! [output]              # how lines leave the process
//! format = csv
//! ```
//!
//! Rules: blank lines and `#` comments (full-line or trailing) are
//! ignored; section headers are `[scenario]`, `[axis]`, or `[output]`;
//! assignments before any header belong to `[scenario]`. `[scenario]` and
//! `[output]` lines assign one value to a key from the shared vocabulary
//! ([`crate::ASSIGNMENTS`]); `[axis]` lines give a comma-separated value
//! list and declare the grid's axes in nesting order (see
//! [`crate::Grid`] for the expansion order). A file with no `[axis]`
//! section describes a single scenario — exactly what
//! [`Scenario::to_spec`](crate::Scenario::to_spec) emits, which is the
//! round-trip the test suite pins.

use crate::grid::{Axis, Grid};
use crate::spec::{ScenarioBuilder, SpecError};

#[derive(Clone, Copy, PartialEq)]
enum Section {
    Scenario,
    Axis,
    Output,
}

/// Parse a spec file into a [`Grid`] (axisless files yield a one-cell
/// grid). Accumulates **all** syntax and assignment errors rather than
/// stopping at the first; cross-field validation then happens in
/// [`Grid::expand`].
pub fn parse_spec(text: &str) -> Result<Grid, Vec<SpecError>> {
    let mut builder = ScenarioBuilder::new();
    let mut axes: Vec<Axis> = Vec::new();
    let mut errors: Vec<SpecError> = Vec::new();
    let mut section = Section::Scenario;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = match raw.find('#') {
            Some(at) => &raw[..at],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = match name.trim() {
                "scenario" => Section::Scenario,
                "axis" => Section::Axis,
                "output" => Section::Output,
                other => {
                    errors.push(SpecError::UnknownSection {
                        line: line_no,
                        name: other.to_string(),
                    });
                    continue;
                }
            };
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            errors.push(SpecError::Malformed {
                line: line_no,
                text: line.to_string(),
            });
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        if key.is_empty() || value.is_empty() {
            errors.push(SpecError::Malformed {
                line: line_no,
                text: line.to_string(),
            });
            continue;
        }
        match section {
            Section::Scenario | Section::Output => {
                builder.set(key, value);
            }
            Section::Axis => {
                axes.push(Axis {
                    key: key.to_string(),
                    values: value.split(',').map(|v| v.trim().to_string()).collect(),
                });
            }
        }
    }

    if !errors.is_empty() {
        return Err(errors);
    }
    let mut grid = Grid::new(builder);
    for axis in axes {
        grid.push_axis(axis);
    }
    Ok(grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scenario;

    #[test]
    fn a_full_spec_parses_into_a_grid() {
        let grid = parse_spec(
            "# paper figure\n\
             [scenario]\n\
             nodes = 64      # small cells\n\
             seed = 7\n\
             \n\
             [axis]\n\
             topology = ring, grid\n\
             protocol = uniform, advert\n\
             scheduler = sync, async\n\
             \n\
             [output]\n\
             format = csv\n",
        )
        .expect("valid spec");
        assert_eq!(grid.cells(), Some(8));
        let cells = grid.expand().unwrap();
        assert_eq!(cells.len(), 8);
        assert!(cells.iter().all(|s| s.nodes == 64 && s.seed == 7));
        assert_eq!(
            cells[0].output.format,
            crate::OutputFormat::Csv,
            "output section applies to every cell"
        );
        // First cell: all axes at their first value.
        assert_eq!(cells[0].topology.name(), "ring");
        assert_eq!(cells[0].protocol.name(), "uniform");
        assert_eq!(cells[0].scheduler.name(), "sync");
        // Last axis (scheduler) varies fastest.
        assert_eq!(cells[1].scheduler.name(), "async");
        assert_eq!(cells[1].topology.name(), "ring");
    }

    #[test]
    fn assignments_before_any_header_are_scenario_assignments() {
        let grid = parse_spec("nodes = 32\ntopology = grid\n").unwrap();
        let cells = grid.expand().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].nodes, 32);
        assert_eq!(cells[0].topology.name(), "grid");
    }

    #[test]
    fn syntax_errors_accumulate_with_line_numbers() {
        let errors = parse_spec(
            "[scenario]\n\
             nodes 64\n\
             [warp]\n\
             topology = ring\n\
             = 5\n",
        )
        .unwrap_err();
        assert_eq!(errors.len(), 3, "{errors:?}");
        assert!(matches!(errors[0], SpecError::Malformed { line: 2, .. }));
        assert!(matches!(
            errors[1],
            SpecError::UnknownSection { line: 3, .. }
        ));
        assert!(matches!(errors[2], SpecError::Malformed { line: 5, .. }));
    }

    #[test]
    fn bad_assignments_surface_at_expand_time() {
        let grid = parse_spec("[scenario]\nnodes = many\n").unwrap();
        let err = grid.expand().unwrap_err();
        assert!(err.to_string().contains("'many'"), "{err}");
    }

    #[test]
    fn scenario_to_spec_round_trips() {
        let mut builder = ScenarioBuilder::new();
        builder
            .set("topology", "rgg")
            .set("radius", "0.25")
            .set("nodes", "80")
            .set("protocol", "advert")
            .set("scheduler", "async")
            .set("drift", "0.2")
            .set("min-latency", "16")
            .set("max-latency", "128")
            .set("seed", "9")
            .set("seeds", "3")
            .set("churn-rate", "0.1")
            .set("rejoin", "lose")
            .set("format", "json")
            .set("history", "true");
        let scenario = builder.finish().expect("valid scenario");
        let spec = scenario.to_spec();
        let reparsed = parse_spec(&spec).expect("emitted specs parse");
        assert_eq!(reparsed.expand().unwrap(), vec![scenario]);
    }

    #[test]
    fn the_default_scenario_round_trips_too() {
        let scenario = Scenario::default();
        let cells = parse_spec(&scenario.to_spec()).unwrap().expand().unwrap();
        assert_eq!(cells, vec![scenario]);
    }
}
