//! The repo benchmark's harness library: everything the black-box pass
//! needs (child accounting, run-line checks, statistics, the workload
//! and metric tables) plus the span recorder the traced pass in
//! `layers/` records into. No dependencies, by design — see README.md.

pub mod cargo;
pub mod child;
pub mod e2e;
pub mod metrics;
pub mod runline;
pub mod span;
pub mod stats;
pub mod traced;
pub mod workload;
