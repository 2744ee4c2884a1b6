//! Parameter grids: named axes expanded into [`Scenario`] cells.
//!
//! A [`Grid`] is a base [`ScenarioBuilder`] plus an ordered list of
//! [`Axis`]s, each a `key = v1, v2, …` list over the shared assignment
//! vocabulary ([`crate::ASSIGNMENTS`]). [`Grid::expand`] produces the
//! cross product as fully validated scenarios in a **documented
//! deterministic order**: axes nest in declaration order with the *last*
//! axis varying fastest (row-major odometer), and within each cell the
//! seed sweep (`seeds`) runs innermost. So a spec with
//!
//! ```text
//! [axis]
//! topology = ring, rgg
//! protocol = uniform, advert
//! ```
//!
//! expands to `ring/uniform`, `ring/advert`, `rgg/uniform`, `rgg/advert`
//! — the same order a nest of `for` loops over the axes top-to-bottom
//! would visit, which is what makes grid output diffable against scripted
//! standalone runs.
//!
//! Every cell is stamped with a stable [`Scenario::scenario_id`], and each
//! cell's [`SimResult`](gossip_sim::SimResult) is byte-identical to the
//! same scenario run standalone: expansion only *assigns fields*; the
//! execution path is [`Scenario::run`] either way. A grid-wide test and a
//! CI smoke job enforce that equivalence.

use crate::spec::{assignment, Scenario, ScenarioBuilder, SpecError};

/// One named axis: a key from the shared assignment vocabulary and the
/// values it sweeps over (as spec-format strings, exactly what `key =
/// v1, v2` carries in a spec file or `--axis key=v1,v2` on the CLI).
#[derive(Clone, Debug, PartialEq)]
pub struct Axis {
    pub key: String,
    pub values: Vec<String>,
}

/// Expansion failure: which cell (as its `key=value` assignments), if the
/// problem is cell-specific, and the structured errors.
#[derive(Clone, Debug, PartialEq)]
pub struct GridExpandError {
    /// `key=value` assignments of the failing cell; `None` for grid-level
    /// problems (bad axis keys, empty value lists, base-scenario errors).
    pub cell: Option<String>,
    pub errors: Vec<SpecError>,
}

impl std::fmt::Display for GridExpandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let joined = crate::spec::join_errors(&self.errors);
        match &self.cell {
            Some(cell) => write!(f, "grid cell [{cell}]: {joined}"),
            None => write!(f, "{joined}"),
        }
    }
}

impl std::error::Error for GridExpandError {}

/// The most runs — cells times their seed sweeps — one grid may hold.
/// A grid's size is memory before its first run starts: expansion is eager
/// (one [`Scenario`] per cell), the pool keeps a slot per cell, and a
/// cell's whole sweep is buffered until it is released in cell order. 2^20
/// runs is a few hundred MB at the worst and far beyond what one machine
/// finishes; sweep further with several grids, or stream one cell's seeds
/// with `run`.
pub const MAX_GRID_RUNS: usize = 1 << 20;

/// The most words a run may allocate whole before its first event: the
/// message state (a `nodes × ⌈messages/64⌉`-word matrix plus one source
/// per message), the topology's adjacency (neighbour ids, counted by
/// `TopologySpec::adjacency_entries`) or the membership views (allocated
/// at their capacity, clamped to `nodes − 1`). Past what the machine holds, such
/// an allocation aborts the process instead of failing, so
/// [`ScenarioBuilder::finish`] refuses the scenario first. 2^28 words is
/// 2 GiB of matrix, over 250 times the 10^6-node ring's. It also keeps
/// every CSR edge array below the `u32` offsets' range.
pub(crate) const MAX_SCENARIO_WORDS: usize = 1 << 28;

/// A parameter grid: base scenario assignments plus sweep axes. Expansion
/// order is documented on the [module](crate::grid).
#[derive(Clone, Debug)]
pub struct Grid {
    /// Assignments shared by every cell. Axis assignments override base
    /// assignments for the same key.
    pub base: ScenarioBuilder,
    axes: Vec<Axis>,
}

impl Grid {
    /// A grid over `base`, with no axes yet (a one-cell grid: just the
    /// base scenario).
    pub fn new(base: ScenarioBuilder) -> Self {
        Grid {
            base,
            axes: Vec::new(),
        }
    }

    /// Append an axis. Declaration order is expansion order (last axis
    /// fastest). Key and value validation happens in
    /// [`expand`](Self::expand), so axes accumulate freely like builder
    /// assignments do.
    pub fn axis<S: Into<String>>(
        mut self,
        key: impl Into<String>,
        values: impl IntoIterator<Item = S>,
    ) -> Self {
        self.push_axis(Axis {
            key: key.into(),
            values: values.into_iter().map(Into::into).collect(),
        });
        self
    }

    /// [`axis`](Self::axis) by mutable reference.
    pub fn push_axis(&mut self, axis: Axis) {
        self.axes.push(axis);
    }

    /// The declared axes, in expansion order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Number of cells the grid expands to (product of axis lengths; 1
    /// with no axes), or `None` when that product overflows `usize`.
    pub fn cells(&self) -> Option<usize> {
        self.axes
            .iter()
            .try_fold(1usize, |cells, axis| cells.checked_mul(axis.values.len()))
    }

    /// Grid-level refusal of a grid above [`MAX_GRID_RUNS`].
    fn too_large(size: String) -> GridExpandError {
        GridExpandError {
            cell: None,
            errors: vec![SpecError::OutOfRange {
                key: "grid".to_string(),
                reason: format!("{size}; a grid holds at most {MAX_GRID_RUNS} runs"),
            }],
        }
    }

    /// Expand the cross product into validated scenarios, in the
    /// documented order. Fails on the first invalid axis (unknown or
    /// non-axis key, empty or duplicate axis) or invalid cell, carrying
    /// the cell's assignments so the user can see exactly which
    /// combination broke.
    pub fn expand(&self) -> Result<Vec<Scenario>, GridExpandError> {
        let mut grid_errors = Vec::new();
        for (i, axis) in self.axes.iter().enumerate() {
            match assignment(&axis.key) {
                None => grid_errors.push(SpecError::UnknownKey {
                    key: axis.key.clone(),
                }),
                Some(def) if !def.axis => grid_errors.push(SpecError::Conflict {
                    reason: format!("'{}' cannot be a grid axis", axis.key),
                }),
                Some(_) => {}
            }
            if axis.values.is_empty() {
                grid_errors.push(SpecError::Conflict {
                    reason: format!("axis '{}' has no values", axis.key),
                });
            }
            if self.axes[..i].iter().any(|prev| prev.key == axis.key) {
                grid_errors.push(SpecError::Conflict {
                    reason: format!("axis '{}' is declared twice", axis.key),
                });
            }
        }
        // Assignment errors already sitting in the base apply to every
        // cell; report them once at grid level rather than blaming the
        // first cell. (Cross-field conflicts can depend on axis values,
        // so those still surface per-cell below.)
        grid_errors.extend_from_slice(self.base.errors());
        if !grid_errors.is_empty() {
            return Err(GridExpandError {
                cell: None,
                errors: grid_errors,
            });
        }

        // Sized before anything is allocated from it: the axis lists are
        // user input, and five axes of 1000 values name 10^15 cells.
        let total = match self.cells() {
            Some(total) if total <= MAX_GRID_RUNS => total,
            product => {
                let sizes: Vec<String> = self
                    .axes
                    .iter()
                    .map(|a| a.values.len().to_string())
                    .collect();
                let product = product.map_or("more than 2^64".to_string(), |p| p.to_string());
                return Err(Self::too_large(format!(
                    "{} = {product} cells",
                    sizes.join(" x ")
                )));
            }
        };
        let mut scenarios = Vec::with_capacity(total);
        let mut runs = 0usize;
        for cell in 0..total {
            // Row-major odometer: the last axis has stride 1.
            let mut stride = total;
            let mut builder = self.base.clone();
            let mut cell_desc = Vec::with_capacity(self.axes.len());
            for axis in &self.axes {
                stride /= axis.values.len();
                let value = &axis.values[(cell / stride) % axis.values.len()];
                builder.set(&axis.key, value);
                cell_desc.push(format!("{}={}", axis.key, value));
            }
            match builder.finish() {
                Ok(scenario) => {
                    runs = runs.saturating_add(scenario.seeds);
                    if runs > MAX_GRID_RUNS {
                        return Err(Self::too_large(format!(
                            "{runs} runs by cell {} of {total} (seeds = {})",
                            cell + 1,
                            scenario.seeds
                        )));
                    }
                    scenarios.push(scenario)
                }
                Err(errors) => {
                    return Err(GridExpandError {
                        cell: (!cell_desc.is_empty()).then(|| cell_desc.join(", ")),
                        errors,
                    })
                }
            }
        }
        Ok(scenarios)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_row_major_with_the_last_axis_fastest() {
        let grid = Grid::new(ScenarioBuilder::new())
            .axis("topology", ["ring", "line"])
            .axis("protocol", ["uniform", "advert"]);
        assert_eq!(grid.cells(), Some(4));
        let cells = grid.expand().unwrap();
        let order: Vec<(&str, &str)> = cells
            .iter()
            .map(|s| (s.topology.name(), s.protocol.name()))
            .collect();
        assert_eq!(
            order,
            vec![
                ("ring", "uniform"),
                ("ring", "advert"),
                ("line", "uniform"),
                ("line", "advert"),
            ]
        );
    }

    #[test]
    fn axis_values_override_base_assignments() {
        let mut base = ScenarioBuilder::new();
        base.set("topology", "complete").set("nodes", "24");
        let cells = Grid::new(base)
            .axis("topology", ["ring", "grid"])
            .expand()
            .unwrap();
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|s| s.nodes == 24));
        assert_eq!(cells[0].topology.name(), "ring");
        assert_eq!(cells[1].topology.name(), "grid");
    }

    #[test]
    fn an_axisless_grid_is_one_cell() {
        let cells = Grid::new(ScenarioBuilder::new()).expand().unwrap();
        assert_eq!(cells, vec![Scenario::default()]);
    }

    #[test]
    fn bad_axes_are_rejected_at_grid_level() {
        let err = Grid::new(ScenarioBuilder::new())
            .axis("frobnicate", ["1"])
            .expand()
            .unwrap_err();
        assert_eq!(err.cell, None);
        assert!(err.to_string().contains("frobnicate"), "{err}");

        let err = Grid::new(ScenarioBuilder::new())
            .axis("format", ["json", "csv"])
            .expand()
            .unwrap_err();
        assert!(err.to_string().contains("cannot be a grid axis"), "{err}");

        let err = Grid::new(ScenarioBuilder::new())
            .axis("topology", Vec::<String>::new())
            .expand()
            .unwrap_err();
        assert!(err.to_string().contains("no values"), "{err}");

        let err = Grid::new(ScenarioBuilder::new())
            .axis("seed", ["1"])
            .axis("seed", ["2"])
            .expand()
            .unwrap_err();
        assert!(err.to_string().contains("declared twice"), "{err}");
    }

    #[test]
    fn bad_base_assignments_are_grid_level_not_first_cell() {
        let mut base = ScenarioBuilder::new();
        base.set("nodes", "many");
        let err = Grid::new(base)
            .axis("topology", ["ring", "grid"])
            .expand()
            .unwrap_err();
        assert_eq!(err.cell, None, "base errors apply to every cell");
        assert!(err.to_string().contains("'many'"), "{err}");
    }

    #[test]
    fn bad_cells_report_their_assignments() {
        let err = Grid::new(ScenarioBuilder::new())
            .axis("topology", ["ring", "rgg"])
            .axis("radius", ["0.3"])
            .expand()
            .unwrap_err();
        // radius=0.3 over topology=ring is the invalid combination.
        assert_eq!(err.cell.as_deref(), Some("topology=ring, radius=0.3"));
        assert!(err.to_string().contains("requires topology rgg"), "{err}");
    }

    #[test]
    fn oversized_grids_are_refused_before_anything_is_allocated() {
        // Five axes of 1000 values: 10^15 cells, which no `Vec` may be
        // sized by.
        let thousand: Vec<String> = (1..=1000).map(|v| v.to_string()).collect();
        let mut grid = Grid::new(ScenarioBuilder::new());
        for key in ["seed", "nodes", "messages", "max-rounds", "seeds"] {
            grid.push_axis(Axis {
                key: key.to_string(),
                values: thousand.clone(),
            });
        }
        assert_eq!(grid.cells(), Some(1_000_000_000_000_000));
        let err = grid.expand().unwrap_err();
        assert_eq!(err.cell, None);
        let text = err.to_string();
        assert!(text.contains("1000 x 1000 x 1000 x 1000 x 1000"), "{text}");
        assert!(text.contains("= 1000000000000000 cells"), "{text}");
        assert!(text.contains(&MAX_GRID_RUNS.to_string()), "{text}");

        // Two more and the product no longer fits a `usize`.
        for key in ["drift", "churn-rate"] {
            grid.push_axis(Axis {
                key: key.to_string(),
                values: thousand.clone(),
            });
        }
        assert_eq!(grid.cells(), None);
        let text = grid.expand().unwrap_err().to_string();
        assert!(text.contains("more than 2^64 cells"), "{text}");

        // The bound itself is allowed; it counts runs, not cells.
        let mut base = ScenarioBuilder::new();
        base.set("seeds", &MAX_GRID_RUNS.to_string());
        assert_eq!(Grid::new(base).expand().unwrap().len(), 1);
    }

    #[test]
    fn a_seed_sweep_too_long_to_buffer_is_refused_at_grid_level() {
        // `run` streams a sweep line by line; a grid cell buffers its own.
        let mut base = ScenarioBuilder::new();
        base.set("nodes", "4").set("seeds", "1000000000000");
        let err = Grid::new(base).expand().unwrap_err();
        assert_eq!(err.cell, None);
        let text = err.to_string();
        assert!(text.contains("1000000000000 runs"), "{text}");
        assert!(text.contains(&MAX_GRID_RUNS.to_string()), "{text}");

        // The sum over cells counts, not only one cell's sweep.
        let mut base = ScenarioBuilder::new();
        base.set("seeds", &(MAX_GRID_RUNS / 2 + 1).to_string());
        let err = Grid::new(base).axis("seed", ["1", "2"]).expand();
        assert!(err.unwrap_err().to_string().contains("by cell 2 of 2"));
    }

    #[test]
    fn every_cell_gets_a_distinct_scenario_id() {
        let cells = Grid::new(ScenarioBuilder::new())
            .axis("topology", ["ring", "grid"])
            .axis("scheduler", ["sync", "async"])
            .axis("seed", ["1", "2", "3"])
            .expand()
            .unwrap();
        let ids: std::collections::HashSet<String> =
            cells.iter().map(|s| s.scenario_id()).collect();
        assert_eq!(ids.len(), cells.len(), "ids must be unique per cell");
    }
}
