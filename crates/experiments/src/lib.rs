//! Typed, library-first experiment API for mobile telephone model gossip.
//!
//! Every experiment in the source paper (Newport, PODC 2017) — and its
//! asynchronous and dynamic follow-ups — is one point in a grid: topology
//! × protocol × scheduler × dynamics × seed. This crate makes that space
//! a first-class, typed value instead of a pile of CLI strings:
//!
//! - **Specs** ([`spec`]): [`TopologySpec`], [`ProtocolSpec`], the
//!   engine's own [`Scheduler`], [`DynamicsSpec`], and [`OutputSpec`]
//!   compose into a validated [`Scenario`] via [`ScenarioBuilder`], which
//!   accumulates structured [`SpecError`]s instead of failing fast. A
//!   scenario owns its whole execution: [`Scenario::run`] builds the
//!   topology, sources, dynamics, and membership, and [`sweep_runs`]
//!   streams a multi-seed sweep.
//! - **Grids** ([`grid`]): [`Axis`] lists over the shared `key = value`
//!   vocabulary ([`ASSIGNMENTS`]) expand — in a documented deterministic
//!   order — into scenario cells, each stamped with a stable
//!   [`Scenario::scenario_id`]. A grid cell's result is byte-identical to
//!   the same scenario run standalone, by construction and by test.
//! - **Spec files** ([`specfile`]): a dependency-free, section-based
//!   `key = value` format ([`parse_spec`]) so one file reproduces an
//!   entire paper figure; [`Scenario::to_spec`] writes the same format
//!   back (round-trip enforced by tests).
//! - **Emission** ([`emit`]): the one-JSON-line / one-CSV-row-per-run
//!   serializers behind an [`Emitter`], versioned with a `schema` field,
//!   shared by run, grid, and bench front-ends.
//! - **Bench lines** ([`mod@bench`]): a run line ending in a `metrics`
//!   object of the run's clocks, taken on the one measured run path every
//!   run takes, so benchmarks cannot drift from experiments.
//! - **Parallel execution** ([`pool`]): a cell pool that runs independent
//!   grid cells concurrently under a global core budget while a sequencer
//!   keeps stdout byte-identical to the serial grid;
//!   [`checkpoint`] makes long sweeps crash-safe (fsync'd per-cell JSONL
//!   records, verified replay on `--resume`).
//!
//! The `gossip-sim` binary is a thin flag-parsing front-end over this
//! crate; any downstream tool can drive the identical experiment surface
//! without shelling out.

pub mod bench;
pub mod checkpoint;
pub mod emit;
pub mod grid;
pub mod pool;
pub mod spec;
pub mod specfile;

pub use bench::{run_bench, BenchReport, BenchScenario, EnginePhases};
pub use checkpoint::{
    parse_checkpoint, read_checkpoint, verify_against, CellRecord, Checkpoint, CheckpointWriter,
    CHECKPOINT_SCHEMA_VERSION,
};
pub use emit::{
    csv_header, run_line_csv, run_line_json, sweep_runs, to_json, Emitter, RunMeta, SweepRun,
    SCHEMA_VERSION,
};
pub use gossip_sim::{effective_threads, Scheduler};
pub use grid::{Axis, Grid, GridExpandError, MAX_GRID_RUNS};
pub use pool::{execute_grid, run_cell, worker_count, CellOutput, PoolSummary};
pub use spec::{
    assignment, join_errors, AssignmentDef, ChurnSpec, DynamicsSpec, MembershipSpec, OutputFormat,
    OutputSpec, ProtocolSpec, Scenario, ScenarioBuilder, SpecError, TopologySpec, ASSIGNMENTS,
    SOURCES_SEED_SALT, TOPOLOGY_SEED_SALT,
};
pub use specfile::parse_spec;
