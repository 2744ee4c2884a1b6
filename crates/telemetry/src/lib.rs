//! Deterministic telemetry for the gossip engines: trace probes, the
//! per-region load accumulator, and offline analysis of run output.
//!
//! This crate sits one step above the bottom of the workspace dependency
//! graph: it knows nothing about topologies, protocols, or schedulers,
//! only raw node and message ids plus — its one dependency, on
//! dependency-free `gossip-core` — the fixed node
//! [`Partition`](gossip_core::Partition) its per-region counters index by.
//! Every crate above core can depend on it without cycles. Its pieces:
//!
//! - [`Probe`] / [`TraceEvent`] — the observation interface the engines
//!   call at semantic points (connection proposed / accepted / rejected /
//!   severed, message transferred, proposal dropped, mutation applied,
//!   round/slice boundary). The contract is **determinism under
//!   observation**: probes are only ever invoked from the engines' serial
//!   sections (or fed from per-region logs merged in a deterministic
//!   order), never consume engine randomness, and never feed back into the
//!   simulation — so a run's `SimResult` is byte-identical with tracing on
//!   or off, at any thread count, and so is the trace itself.
//! - [`metrics`] — the fixed-width [`metrics::RegionLoad`] accumulator
//!   the sharded engines use for per-region load-balance accounting, and
//!   its [`metrics::LoadSummary`]. (Wall-clock timings live in the
//!   engines: `gossip_sim::EngineTimings`.)
//! - [`analyze`] — consumes emitted run/sweep JSONL lines and trace files
//!   and produces rounds-to-completion percentile tables,
//!   advert-vs-uniform speedup comparisons, dissemination-depth stats from
//!   the infection DAG, and per-region balance summaries.
//! - [`progress`] — pool-aware sweep progress bookkeeping (done/running
//!   counts, running-mean ETA) behind the `grid --progress` heartbeat.
//!
//! [`TraceWriter`] bridges the two worlds: a [`Probe`] that renders every
//! event as one JSONL line (schema-versioned via
//! [`TRACE_SCHEMA_VERSION`]), buffering I/O errors instead of panicking so
//! engines stay infallible and the CLI surfaces the failure cleanly.

pub mod analyze;
pub mod json;
pub mod metrics;
mod probe;
pub mod progress;

pub use probe::{
    EventKind, MemoryProbe, NoopProbe, Probe, TraceEvent, TraceWriter, TRACE_SCHEMA_VERSION,
};
