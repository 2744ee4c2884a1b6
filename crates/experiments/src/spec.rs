//! Typed experiment specifications and the [`ScenarioBuilder`].
//!
//! A [`Scenario`] is one fully validated point in the experiment space the
//! papers explore: topology × protocol × scheduler × dynamics × seed. Its
//! fields are enums and structs, not strings — `TopologySpec::Rgg {
//! radius }` instead of `topology: "rgg"` — so downstream code (the CLI,
//! grids, future Byzantine/tag-budget axes) extends the space by adding
//! variants, not by teaching every front-end a new magic string.
//!
//! Construction goes through [`ScenarioBuilder`], which takes `key =
//! value` assignments — the shared vocabulary of CLI flags, spec files,
//! and grid axes — and **accumulates** structured [`SpecError`]s instead
//! of failing on the first problem, so a user fixing a spec sees every
//! mistake at once. A key is one row of [`ASSIGNMENTS`]: its help text,
//! how its value is parsed and range-checked, and how
//! [`Scenario::to_spec`] writes it back. [`ScenarioBuilder::set`] is the
//! only way in, so every front-end (and every test) builds through the
//! same rows.

use crate::grid::MAX_SCENARIO_WORDS;

use gossip_core::{NodeId, RggGeometry, Rng, TimingConfig, Topology};
use gossip_dynamics::{
    Churn, CompositeDynamics, DynamicsModel, EdgeFading, RejoinPolicy, Waypoint,
    DEFAULT_MEAN_DOWNTIME_ROUNDS, DEFAULT_SPEED_PER_ROUND,
};
use gossip_protocols::Protocol;
use gossip_sim::{
    default_round_cap, random_sources, EngineTimings, MembershipConfig, RunInputs, Scheduler,
    SimConfig, SimResult,
};
use gossip_telemetry::{NoopProbe, Probe};

use std::time::Instant;

/// Seed salt for topology construction, preserved from the original CLI so
/// every randomized topology (and therefore every pinned result) is
/// byte-identical across the refactor.
pub const TOPOLOGY_SEED_SALT: u64 = 0x7090;

/// Seed salt for source placement; same preservation story as
/// [`TOPOLOGY_SEED_SALT`].
pub const SOURCES_SEED_SALT: u64 = 0x50_0c_e5;

/// A structured specification error. The builder accumulates these —
/// every bad assignment and cross-field conflict in one pass — and each
/// variant keeps the offending key/value so front-ends can point at the
/// exact flag, spec-file line, or axis entry that caused it.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// `key`'s value is not in its accepted set of names.
    UnknownValue {
        key: String,
        value: String,
        expected: String,
    },
    /// `key`'s value does not parse as its type.
    BadValue {
        key: String,
        value: String,
        expected: &'static str,
    },
    /// `key`'s value parsed but fails a range or semantic check.
    OutOfRange { key: String, reason: String },
    /// Two assignments that cannot hold together.
    Conflict { reason: String },
    /// An assignment key that does not exist.
    UnknownKey { key: String },
    /// A spec-file line that is not a section header, an assignment, or a
    /// comment.
    Malformed { line: usize, text: String },
    /// A spec-file section header that is not `[scenario]`, `[axis]`, or
    /// `[output]`.
    UnknownSection { line: usize, name: String },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownValue {
                key,
                value,
                expected,
            } => write!(f, "{key}: unknown value '{value}' (expected one of {expected})"),
            SpecError::BadValue {
                key,
                value,
                expected,
            } => write!(f, "{key}: '{value}' is not {expected}"),
            SpecError::OutOfRange { key, reason } => write!(f, "{key}: {reason}"),
            SpecError::Conflict { reason } => write!(f, "{reason}"),
            SpecError::UnknownKey { key } => write!(f, "unknown key '{key}'"),
            SpecError::Malformed { line, text } => {
                write!(f, "spec line {line}: expected 'key = value', got '{text}'")
            }
            SpecError::UnknownSection { line, name } => write!(
                f,
                "spec line {line}: unknown section '[{name}]' (expected [scenario], [axis], or [output])"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// Join a batch of spec errors into one human-readable message.
pub fn join_errors(errors: &[SpecError]) -> String {
    errors
        .iter()
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join("; ")
}

/// The topology family of a scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TopologySpec {
    /// Path graph.
    Line,
    /// Cycle graph.
    Ring,
    /// Near-square 4-neighbor lattice.
    Grid,
    /// Complete graph.
    Complete,
    /// Random geometric graph. `radius: None` uses the adaptive builder
    /// (start at the connectivity threshold, grow until connected);
    /// `Some(r)` fixes the connection radius exactly, connected or not.
    Rgg { radius: Option<f64> },
}

impl TopologySpec {
    /// Canonical names, in the order help text lists them. The historical
    /// alias `random_geometric` is accepted by [`parse`](Self::parse) but
    /// normalized to `rgg` everywhere else, so emitted results always
    /// round-trip through one canonical name.
    pub const NAMES: &'static [&'static str] = &["line", "ring", "grid", "complete", "rgg"];

    /// Parse a topology name, normalizing the `random_geometric` alias.
    pub fn parse(name: &str) -> Option<TopologySpec> {
        match name {
            "line" => Some(TopologySpec::Line),
            "ring" => Some(TopologySpec::Ring),
            "grid" => Some(TopologySpec::Grid),
            "complete" => Some(TopologySpec::Complete),
            "rgg" | "random_geometric" => Some(TopologySpec::Rgg { radius: None }),
            _ => None,
        }
    }

    /// The canonical name (radius-independent).
    pub fn name(&self) -> &'static str {
        match self {
            TopologySpec::Line => "line",
            TopologySpec::Ring => "ring",
            TopologySpec::Grid => "grid",
            TopologySpec::Complete => "complete",
            TopologySpec::Rgg { .. } => "rgg",
        }
    }

    /// Is this a random geometric graph (the only family with an
    /// embedding, and therefore the only one mobility and `radius` apply
    /// to)?
    pub fn is_rgg(&self) -> bool {
        matches!(self, TopologySpec::Rgg { .. })
    }

    /// Adjacency entries (twice the edges) of this family at `nodes`
    /// nodes: at most `2n` for ring and line, `4n` for grid, `n(n − 1)`
    /// for complete; for rgg the expected `n · min(n − 1, π r² n)` at the
    /// given radius, or at the adaptive builder's starting one.
    pub(crate) fn adjacency_entries(&self, nodes: usize) -> usize {
        match self {
            TopologySpec::Line | TopologySpec::Ring => nodes.saturating_mul(2),
            TopologySpec::Grid => nodes.saturating_mul(4),
            TopologySpec::Complete => nodes.saturating_mul(nodes.saturating_sub(1)),
            TopologySpec::Rgg { radius } => RggGeometry::expected_entries(
                nodes,
                radius.unwrap_or_else(|| RggGeometry::threshold_radius(nodes)),
            ),
        }
    }

    /// Build the topology for a run with seed `seed`. Randomized
    /// topologies draw from a stream forked off the run seed
    /// ([`TOPOLOGY_SEED_SALT`]), so the whole experiment stays a pure
    /// function of the scenario.
    pub fn build(&self, nodes: usize, seed: u64) -> (Topology, Option<RggGeometry>) {
        match self {
            TopologySpec::Line => (Topology::line(nodes), None),
            TopologySpec::Ring => (Topology::ring(nodes), None),
            TopologySpec::Grid => (Topology::grid(nodes), None),
            TopologySpec::Complete => (Topology::complete(nodes), None),
            TopologySpec::Rgg { radius } => {
                let mut rng = Rng::new(seed ^ TOPOLOGY_SEED_SALT);
                let (topo, geometry) = match radius {
                    None => Topology::random_geometric_with_geometry(nodes, &mut rng),
                    Some(r) => Topology::random_geometric_fixed_radius(nodes, *r, &mut rng),
                };
                (topo, Some(geometry))
            }
        }
    }
}

/// How (and whether) the network mutates mid-run. Any validated subset of
/// the three models composes; the merged mutation stream stays
/// seed-deterministic. The keys set only the rates and the rejoin policy:
/// [`ScenarioBuilder::finish`] fills each downtime with its fixed default.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct DynamicsSpec {
    /// Node churn, if enabled.
    pub churn: Option<Churn>,
    /// Edge fading, if enabled.
    pub fading: Option<EdgeFading>,
    /// Random-waypoint mobility over the RGG embedding.
    pub mobility: bool,
}

impl DynamicsSpec {
    /// Build the composite dynamics model: churn, fading, and mobility
    /// merged into one time-ordered mutation stream. `None` when static.
    /// Mobility takes the RGG `geometry` over (a borrowed one is cloned).
    pub fn build(
        &self,
        geometry: Option<impl Into<RggGeometry>>,
    ) -> Option<Box<dyn DynamicsModel>> {
        let mut parts: Vec<Box<dyn DynamicsModel>> = Vec::new();
        if let Some(churn) = self.churn {
            parts.push(Box::new(churn));
        }
        if let Some(fading) = self.fading {
            parts.push(Box::new(fading));
        }
        if self.mobility {
            let geometry = geometry
                .expect("spec validation only admits mobility with an RGG topology")
                .into();
            parts.push(Box::new(Waypoint {
                geometry,
                speed: DEFAULT_SPEED_PER_ROUND,
            }));
        }
        match parts.len() {
            0 => None,
            1 => parts.pop(),
            _ => Some(Box::new(CompositeDynamics { parts })),
        }
    }
}

/// Which neighborhoods the protocol gossips over.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum MembershipSpec {
    /// Full knowledge: every node gossips over its complete underlay
    /// neighbor list, exactly as in pre-membership builds. The default —
    /// it adds no membership state and serializes nothing extra.
    #[default]
    Full,
    /// Discovered neighborhoods: a bounded HyParView-style partial view
    /// (symmetric active view + passive reservoir, refreshed by
    /// deterministic shuffles) with SWIM-style probe → suspect → evict
    /// failure detection, ticked at round/slice boundaries. The protocol
    /// then sees only each node's active view.
    HyParView(MembershipConfig),
}

impl MembershipSpec {
    /// Canonical names, in the order help text lists them.
    pub const NAMES: &'static [&'static str] = &["full", "hyparview"];

    /// The canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            MembershipSpec::Full => "full",
            MembershipSpec::HyParView(_) => "hyparview",
        }
    }

    /// Does this spec gossip over the full underlay (no overlay state)?
    pub fn is_full(&self) -> bool {
        matches!(self, MembershipSpec::Full)
    }

    /// The engine-level membership config, `None` for full knowledge.
    pub fn to_config(&self) -> Option<MembershipConfig> {
        match *self {
            MembershipSpec::Full => None,
            MembershipSpec::HyParView(cfg) => Some(cfg),
        }
    }
}

/// How results leave the process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OutputFormat {
    /// One self-contained JSON object per run.
    Json,
    /// A header row plus one CSV row per run.
    Csv,
}

impl OutputFormat {
    /// Canonical names, in the order help text lists them.
    pub const NAMES: &'static [&'static str] = &["json", "csv"];

    /// Parse a format name.
    pub fn parse(name: &str) -> Option<OutputFormat> {
        match name {
            "json" => Some(OutputFormat::Json),
            "csv" => Some(OutputFormat::Csv),
            _ => None,
        }
    }

    /// The canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            OutputFormat::Json => "json",
            OutputFormat::Csv => "csv",
        }
    }
}

/// Output shape of a scenario's runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OutputSpec {
    pub format: OutputFormat,
    /// Include per-round stats in the JSON (`rounds` array).
    pub history: bool,
}

impl Default for OutputSpec {
    fn default() -> Self {
        OutputSpec {
            format: OutputFormat::Json,
            history: false,
        }
    }
}

/// One fully validated experiment: a point in the topology × protocol ×
/// scheduler × dynamics × seed space, plus execution and output knobs.
/// Built via [`ScenarioBuilder`]; every instance that exists has passed
/// cross-field validation.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    pub topology: TopologySpec,
    pub nodes: usize,
    pub protocol: Protocol,
    pub scheduler: Scheduler,
    pub messages: usize,
    pub seed: u64,
    /// Number of consecutive seeds to sweep, starting at `seed`.
    pub seeds: usize,
    /// Round cap; `None` uses [`gossip_sim::default_round_cap`].
    pub max_rounds: Option<usize>,
    pub dynamics: DynamicsSpec,
    pub membership: MembershipSpec,
    pub output: OutputSpec,
}

impl Default for Scenario {
    fn default() -> Self {
        ScenarioBuilder::new()
            .finish()
            .expect("the default scenario is valid")
    }
}

/// What one run of [`Scenario::run_clocked`] cost, in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct RunClocks {
    /// Building the topology and the scenario's other inputs.
    pub build_ms: f64,
    /// The engine's whole run.
    pub engine_ms: f64,
    /// The engine's own phase clocks and counters.
    pub phases: EngineTimings,
}

impl Scenario {
    /// A builder seeded with the defaults.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// This scenario with a different run seed (how sweeps and grids stamp
    /// per-run identity).
    pub fn with_seed(&self, seed: u64) -> Scenario {
        Scenario {
            seed,
            ..self.clone()
        }
    }

    /// The engine config implied by the scenario.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            max_rounds: self.max_rounds.unwrap_or(default_round_cap(self.nodes)),
            record_rounds: self.output.history,
        }
    }

    /// Source placement for this scenario's seed (salt preserved from the
    /// original CLI, so results are byte-identical across the refactor).
    pub fn sources(&self) -> Vec<NodeId> {
        random_sources(
            self.nodes,
            self.messages,
            &mut Rng::new(self.seed ^ SOURCES_SEED_SALT),
        )
    }

    /// The **stable cell identity** of this scenario, stamped on every
    /// emitted run line. Every result-affecting field appears — topology
    /// (with an explicit radius as `rgg@rR`), protocol, scheduler (async
    /// includes its timing distributions), nodes, messages, round cap,
    /// dynamics, seed — while execution-only knobs (thread count, output
    /// format) are excluded, so two runs with equal ids are the same
    /// deterministic experiment by construction.
    pub fn scenario_id(&self) -> String {
        let mut id = String::with_capacity(64);
        match &self.topology {
            TopologySpec::Rgg { radius: Some(r) } => {
                id.push_str("rgg@r");
                id.push_str(&r.to_string());
            }
            t => id.push_str(t.name()),
        }
        id.push('-');
        id.push_str(self.protocol.name());
        match &self.scheduler {
            Scheduler::Sync { .. } => id.push_str("-sync"),
            // `threads` is execution-only (never changes results), so it
            // stays out of the id just like the sync thread count.
            Scheduler::Async { timing, .. } => {
                id.push_str(&format!(
                    "-async@d{}j{}l{}:{}",
                    timing.drift, timing.refresh_jitter, timing.min_latency, timing.max_latency
                ));
            }
        }
        id.push_str(&format!("-n{}-k{}", self.nodes, self.messages));
        if let Some(cap) = self.max_rounds {
            id.push_str(&format!("-cap{cap}"));
        }
        if let Some(churn) = &self.dynamics.churn {
            id.push_str(&format!("-churn{}:{}", churn.rate, churn.rejoin.name()));
        }
        if let Some(fading) = &self.dynamics.fading {
            id.push_str(&format!("-fade{}", fading.fade_prob));
        }
        if self.dynamics.mobility {
            id.push_str("-mobility");
        }
        if let MembershipSpec::HyParView(cfg) = &self.membership {
            id.push_str(&format!(
                "-mem@a{}p{}sh{}pr{}",
                cfg.active_size, cfg.passive_size, cfg.shuffle_period, cfg.probe_period
            ));
        }
        id.push_str(&format!("-s{}", self.seed));
        id
    }

    /// Run this scenario end to end for its own seed (ignoring the sweep
    /// width; see [`sweep`](Self::sweep)). Static
    /// configs take the dynamics-free fast path, whose output is
    /// bit-for-bit that of pre-dynamics builds.
    pub fn run(&self) -> SimResult {
        self.run_probed(&mut NoopProbe)
    }

    /// [`run`](Self::run) under observation: every semantic event of the
    /// run — proposals, connections, rejections, transfers, mutations,
    /// round/slice boundaries — is reported to `probe` in one
    /// deterministic order. The probe never consumes engine randomness,
    /// so the returned [`SimResult`] is byte-identical to an unprobed
    /// run of the same scenario at any thread count.
    pub fn run_probed(&self, probe: &mut dyn Probe) -> SimResult {
        self.run_clocked(self.sim_config(), probe).0
    }

    /// The one measured run path: build everything this scenario names
    /// for its own seed, clocking the build, then run its engine under
    /// `config` and `probe`, clocked too. [`run`](Self::run), the sweep
    /// loop and [`run_bench`](crate::run_bench) all come through here, so
    /// they cannot disagree about which dynamics or membership overlay a
    /// scenario runs under.
    pub(crate) fn run_clocked(
        &self,
        config: SimConfig,
        probe: &mut dyn Probe,
    ) -> (SimResult, RunClocks) {
        let building = Instant::now();
        let (topology, geometry) = self.topology.build(self.nodes, self.seed);
        let dynamics = self.dynamics.build(geometry);
        let sources = self.sources();
        let membership = self.membership.to_config();
        let build_ms = building.elapsed().as_secs_f64() * 1e3;
        let inputs = RunInputs {
            topology,
            protocol: self.protocol,
            sources: &sources,
            seed: self.seed,
            config,
            dynamics: dynamics.as_deref(),
            membership: membership.as_ref(),
        };
        let running = Instant::now();
        let (result, phases) = self.engine().run_timed(inputs, probe);
        let clocks = RunClocks {
            build_ms,
            engine_ms: running.elapsed().as_secs_f64() * 1e3,
            phases,
        };
        (result, clocks)
    }

    /// The scheduler as it runs: its thread count clamped to the machine
    /// ([`Scheduler::effective_threads`]). The engines never clamp, so
    /// every run takes its scheduler from here.
    fn engine(&self) -> Scheduler {
        let threads = self.scheduler.effective_threads();
        match self.scheduler {
            Scheduler::Sync { .. } => Scheduler::Sync { threads },
            Scheduler::Async { timing, .. } => Scheduler::Async { timing, threads },
        }
    }

    /// The configured sweep, one single-seed scenario per run: `seeds`
    /// consecutive seeds starting at `seed`, each a fully independent
    /// experiment (randomized topologies and source placement are re-drawn
    /// per seed). [`sweep_runs`](crate::sweep_runs) runs and renders them.
    pub fn sweep(&self) -> impl Iterator<Item = Scenario> + '_ {
        (0..self.seeds as u64).map(move |offset| Scenario {
            seeds: 1,
            ..self.with_seed(self.seed.wrapping_add(offset))
        })
    }

    /// Serialize this scenario as a spec file ([`crate::parse_spec`]
    /// reads it back to an equal scenario — the round-trip property the
    /// test suite enforces): every key of [`ASSIGNMENTS`] the scenario
    /// carries, in table order, the output knobs — the keys a grid cannot
    /// sweep — under `[output]`. Scheduler-irrelevant knobs (async timing
    /// under a sync scheduler) do not survive the typed spec, so they
    /// never appear here either.
    pub fn to_spec(&self) -> String {
        let mut sections = ["[scenario]\n".to_string(), "\n[output]\n".to_string()];
        for def in ASSIGNMENTS {
            if let Some(value) = (def.get)(self) {
                sections[usize::from(!def.axis)].push_str(&format!("{} = {value}\n", def.key));
            }
        }
        sections.concat()
    }
}

/// One entry of the shared assignment vocabulary: a canonical key, its
/// value shape, its help text, and both directions between its text and
/// the typed scenario. CLI flags (`--key value`), spec-file assignments
/// (`key = value`), and grid axes (`key = v1, v2`) all speak exactly this
/// table, so the parser, the spec format, and the generated help text
/// cannot diverge — adding a key is adding a row.
#[derive(Clone, Copy, Debug)]
pub struct AssignmentDef {
    /// Canonical key (CLI flag name without the `--`).
    pub key: &'static str,
    /// Value placeholder for help text; `None` marks a boolean switch
    /// (spec files write `key = true`, the CLI just passes the flag).
    pub metavar: Option<&'static str>,
    /// Help text; embedded newlines become aligned continuation lines.
    pub help: &'static str,
    /// Usable as a grid axis (output knobs are not: a grid streams one
    /// format).
    pub axis: bool,
    /// Parse `value`, store it on the builder and range-check it; problems
    /// accumulate on the builder. [`ScenarioBuilder::set`] dispatches here.
    set: fn(builder: &mut ScenarioBuilder, key: &str, value: &str),
    /// The value [`Scenario::to_spec`] writes for this key; `None` when the
    /// scenario does not carry it.
    get: fn(&Scenario) -> Option<String>,
}

/// The range error of every count that cannot be zero.
const AT_LEAST_ONE: &str = "must be at least 1";

/// The shared assignment table. Order is the order help text lists flags.
pub const ASSIGNMENTS: &[AssignmentDef] = &[
    AssignmentDef {
        key: "topology",
        metavar: Some("line|ring|grid|complete|rgg"),
        help: "topology family [default: ring]\n(rgg = random_geometric)",
        axis: true,
        set: |b, k, v| match TopologySpec::parse(v) {
            Some(spec) => b.topology = spec,
            None => b.unknown_value(k, v, TopologySpec::NAMES),
        },
        get: |s| Some(s.topology.name().to_string()),
    },
    AssignmentDef {
        key: "nodes",
        metavar: Some("N"),
        help: "number of nodes [default: 100]",
        axis: true,
        set: |b, k, v| b.nodes = b.id_count(k, v, "node").unwrap_or(b.nodes),
        get: |s| Some(s.nodes.to_string()),
    },
    AssignmentDef {
        key: "protocol",
        metavar: Some("uniform|advert"),
        help: "gossip protocol [default: uniform]",
        axis: true,
        set: |b, k, v| match Protocol::parse(v) {
            Some(spec) => b.protocol = spec,
            None => b.unknown_value(k, v, Protocol::NAMES),
        },
        get: |s| Some(s.protocol.name().to_string()),
    },
    AssignmentDef {
        key: "scheduler",
        metavar: Some("sync|async"),
        help: "execution model: synchronized rounds\nor event-driven virtual time [default: sync]",
        axis: true,
        set: |b, k, v| match v {
            "sync" => b.asynchronous = false,
            "async" => b.asynchronous = true,
            _ => b.unknown_value(k, v, Scheduler::NAMES),
        },
        get: |s| Some(s.scheduler.name().to_string()),
    },
    AssignmentDef {
        key: "messages",
        metavar: Some("K"),
        help: "rumors to spread (>64 uses\nhashed advertisement tags) [default: 1]",
        axis: true,
        set: |b, k, v| b.messages = b.id_count(k, v, "message").unwrap_or(b.messages),
        get: |s| Some(s.messages.to_string()),
    },
    AssignmentDef {
        key: "seed",
        metavar: Some("S"),
        help: "RNG seed [default: 1]",
        axis: true,
        set: |b, k, v| b.seed = b.int(k, v).unwrap_or(b.seed),
        get: |s| Some(s.seed.to_string()),
    },
    AssignmentDef {
        key: "seeds",
        metavar: Some("N"),
        help: "sweep N consecutive seeds starting at\nseed, one output line each [default: 1]",
        axis: true,
        set: |b, k, v| b.seeds = b.positive(k, v, AT_LEAST_ONE).unwrap_or(b.seeds),
        get: |s| Some(s.seeds.to_string()),
    },
    AssignmentDef {
        key: "max-rounds",
        metavar: Some("R"),
        help: "round cap; the async scheduler reads it\nas the equivalent virtual-time cap\n[default: 100 + 60*N]",
        axis: true,
        set: |b, k, v| b.max_rounds = b.int(k, v).or(b.max_rounds),
        get: |s| s.max_rounds.map(|r| r.to_string()),
    },
    AssignmentDef {
        key: "threads",
        metavar: Some("T"),
        help: "shard the sync round loop / sliced async\nevent loop over T worker threads (results\nare identical at any thread count; capped\nat the machine's available parallelism)\n[default: 1]",
        axis: true,
        set: |b, k, v| {
            let reason = "0 is meaningless: the round loop needs at least one worker";
            b.threads = b.positive(k, v, reason).unwrap_or(b.threads)
        },
        get: |s| Some(s.scheduler.threads().to_string()),
    },
    AssignmentDef {
        key: "radius",
        metavar: Some("F"),
        help: "rgg only: fix the connection radius\ninstead of growing it to the connectivity\nthreshold (may disconnect the graph)",
        axis: true,
        set: |b, k, v| {
            if let Some(r) = b.float(k, v) {
                b.radius = Some(r);
                if !(r > 0.0 && r.is_finite()) {
                    b.out_of_range(k, "the connection radius must be a positive number");
                }
            }
        },
        get: |s| match s.topology {
            TopologySpec::Rgg { radius } => radius.map(|r| r.to_string()),
            _ => None,
        },
    },
    AssignmentDef {
        key: "drift",
        metavar: Some("F"),
        help: "async: max relative clock drift,\n0 <= F < 1 [default: 0.1]",
        axis: true,
        set: |b, k, v| b.timing.drift = b.float(k, v).unwrap_or(b.timing.drift),
        get: |s| s.scheduler.timing().map(|t| t.drift.to_string()),
    },
    AssignmentDef {
        key: "refresh-jitter",
        metavar: Some("F"),
        help: "async: per-refresh advertisement interval\njitter, 0 <= F < 1 [default: 0.25]",
        axis: true,
        set: |b, k, v| b.timing.refresh_jitter = b.float(k, v).unwrap_or(b.timing.refresh_jitter),
        get: |s| s.scheduler.timing().map(|t| t.refresh_jitter.to_string()),
    },
    AssignmentDef {
        key: "min-latency",
        metavar: Some("T"),
        help: "async: min connect/transfer latency in\nticks (1024 ticks = 1 round) [default: 32]",
        axis: true,
        set: |b, k, v| b.timing.min_latency = b.int(k, v).unwrap_or(b.timing.min_latency),
        get: |s| s.scheduler.timing().map(|t| t.min_latency.to_string()),
    },
    AssignmentDef {
        key: "max-latency",
        metavar: Some("T"),
        help: "async: max connect/transfer latency in\nticks [default: 256]",
        axis: true,
        set: |b, k, v| b.timing.max_latency = b.int(k, v).unwrap_or(b.timing.max_latency),
        get: |s| s.scheduler.timing().map(|t| t.max_latency.to_string()),
    },
    AssignmentDef {
        key: "churn-rate",
        metavar: Some("F"),
        help: "nodes churn: depart with per-round\nprobability F (geometric lifetimes),\n0 < F < 1 [default: off]",
        axis: true,
        set: |b, k, v| b.churn_rate = b.float(k, v).or(b.churn_rate),
        get: |s| s.dynamics.churn.map(|c| c.rate.to_string()),
    },
    AssignmentDef {
        key: "rejoin",
        metavar: Some("keep|lose|none"),
        help: "what a churned node remembers when it\nrejoins; 'none' means departed nodes\nnever return (requires churn-rate)\n[default: keep]",
        axis: true,
        set: |b, k, v| match RejoinPolicy::parse(v) {
            Some(policy) => b.rejoin = Some(policy),
            None => b.unknown_value(k, v, RejoinPolicy::NAMES),
        },
        get: |s| s.dynamics.churn.map(|c| c.rejoin.name().to_string()),
    },
    AssignmentDef {
        key: "fade-prob",
        metavar: Some("F"),
        help: "edges flap: fade with per-round\nprobability F, 0 < F < 1 [default: off]",
        axis: true,
        set: |b, k, v| b.fade_prob = b.float(k, v).or(b.fade_prob),
        get: |s| s.dynamics.fading.map(|f| f.fade_prob.to_string()),
    },
    AssignmentDef {
        key: "mobility",
        metavar: None,
        help: "random-waypoint mobility: nodes walk the\nunit square and re-derive radius edges\n(rgg topology only; incompatible\nwith fade-prob)",
        axis: true,
        set: |b, k, v| b.mobility = b.boolean(k, v).unwrap_or(b.mobility),
        get: |s| s.dynamics.mobility.then(|| "true".to_string()),
    },
    AssignmentDef {
        key: "membership",
        metavar: Some("full|hyparview"),
        help: "neighborhoods the protocol gossips over:\nthe full underlay neighbor list, or a\nbounded HyParView-style partial view with\nSWIM-style failure detection [default: full]",
        axis: true,
        set: |b, k, v| match v {
            "full" => b.hyparview = false,
            "hyparview" => b.hyparview = true,
            _ => b.unknown_value(k, v, MembershipSpec::NAMES),
        },
        get: |s| (!s.membership.is_full()).then(|| s.membership.name().to_string()),
    },
    AssignmentDef {
        key: "active-view",
        metavar: Some("N"),
        help: "membership: active (gossip) view capacity\nper node (requires membership hyparview)\n[default: 5]",
        axis: true,
        set: |b, k, v| b.active_view = b.int(k, v).or(b.active_view),
        get: |s| s.membership.to_config().map(|c| c.active_size.to_string()),
    },
    AssignmentDef {
        key: "passive-view",
        metavar: Some("N"),
        help: "membership: passive reservoir capacity\nper node (requires membership hyparview)\n[default: 30]",
        axis: true,
        set: |b, k, v| b.passive_view = b.int(k, v).or(b.passive_view),
        get: |s| s.membership.to_config().map(|c| c.passive_size.to_string()),
    },
    AssignmentDef {
        key: "shuffle-period",
        metavar: Some("R"),
        help: "membership: rounds between view shuffles\n(requires membership hyparview) [default: 1]",
        axis: true,
        set: |b, k, v| b.shuffle_period = b.int(k, v).or(b.shuffle_period),
        get: |s| s.membership.to_config().map(|c| c.shuffle_period.to_string()),
    },
    AssignmentDef {
        key: "probe-period",
        metavar: Some("R"),
        help: "membership: rounds between failure-detector\nprobes (requires membership hyparview)\n[default: 1]",
        axis: true,
        set: |b, k, v| b.probe_period = b.int(k, v).or(b.probe_period),
        get: |s| s.membership.to_config().map(|c| c.probe_period.to_string()),
    },
    AssignmentDef {
        key: "format",
        metavar: Some("json|csv"),
        help: "output format; csv emits a header row\nplus one row per run [default: json]",
        axis: false,
        set: |b, k, v| match OutputFormat::parse(v) {
            Some(format) => b.format = format,
            None => b.unknown_value(k, v, OutputFormat::NAMES),
        },
        get: |s| Some(s.output.format.name().to_string()),
    },
    AssignmentDef {
        key: "history",
        metavar: None,
        help: "include per-round stats in the JSON",
        axis: false,
        set: |b, k, v| b.history = b.boolean(k, v).unwrap_or(b.history),
        get: |s| s.output.history.then(|| "true".to_string()),
    },
];

/// Look up an assignment key in [`ASSIGNMENTS`].
pub fn assignment(key: &str) -> Option<&'static AssignmentDef> {
    ASSIGNMENTS.iter().find(|def| def.key == key)
}

/// Accumulating builder for [`Scenario`]s. Setters never fail; every
/// problem — unparseable values, out-of-range numbers, cross-field
/// conflicts — lands in the error list that [`finish`](Self::finish)
/// returns in one batch.
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    topology: TopologySpec,
    radius: Option<f64>,
    nodes: usize,
    protocol: Protocol,
    asynchronous: bool,
    threads: usize,
    timing: TimingConfig,
    messages: usize,
    seed: u64,
    seeds: usize,
    max_rounds: Option<usize>,
    churn_rate: Option<f64>,
    rejoin: Option<RejoinPolicy>,
    fade_prob: Option<f64>,
    mobility: bool,
    hyparview: bool,
    active_view: Option<usize>,
    passive_view: Option<usize>,
    shuffle_period: Option<u64>,
    probe_period: Option<u64>,
    format: OutputFormat,
    history: bool,
    errors: Vec<SpecError>,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioBuilder {
    /// A builder holding the default scenario: 100-node ring, uniform
    /// gossip, synchronous serial scheduler, one message, seed 1.
    pub fn new() -> Self {
        ScenarioBuilder {
            topology: TopologySpec::Ring,
            radius: None,
            nodes: 100,
            protocol: Protocol::Uniform,
            asynchronous: false,
            threads: 1,
            timing: TimingConfig::default(),
            messages: 1,
            seed: 1,
            seeds: 1,
            max_rounds: None,
            churn_rate: None,
            rejoin: None,
            fade_prob: None,
            mobility: false,
            hyparview: false,
            active_view: None,
            passive_view: None,
            shuffle_period: None,
            probe_period: None,
            format: OutputFormat::Json,
            history: false,
            errors: Vec::new(),
        }
    }

    /// Apply one `key = value` assignment from the shared vocabulary:
    /// the key's [`ASSIGNMENTS`] row parses, stores and range-checks the
    /// value. Boolean keys take `true`/`false`. Never fails; problems
    /// accumulate for [`finish`](Self::finish).
    pub fn set(&mut self, key: &str, value: &str) -> &mut Self {
        match assignment(key) {
            Some(def) => (def.set)(self, key, value),
            None => self.errors.push(SpecError::UnknownKey {
                key: key.to_string(),
            }),
        }
        self
    }

    /// The assignment errors accumulated so far (cross-field conflicts
    /// are only discovered in [`finish`](Self::finish)). Grids use this
    /// to report bad *base* assignments once, at grid level, instead of
    /// misattributing them to the first expanded cell.
    pub fn errors(&self) -> &[SpecError] {
        &self.errors
    }

    // ---- what the `ASSIGNMENTS` rows parse with ------------------------

    /// `value` as a `T`, or `None` with the mismatch recorded.
    fn parse<T: std::str::FromStr>(
        &mut self,
        key: &str,
        value: &str,
        expected: &'static str,
    ) -> Option<T> {
        let parsed = value.parse().ok();
        if parsed.is_none() {
            self.errors.push(SpecError::BadValue {
                key: key.to_string(),
                value: value.to_string(),
                expected,
            });
        }
        parsed
    }

    fn int<T: std::str::FromStr>(&mut self, key: &str, value: &str) -> Option<T> {
        self.parse(key, value, "a non-negative integer")
    }

    /// [`int`](Self::int) that refuses zero, for `reason`.
    fn positive(&mut self, key: &str, value: &str, reason: &str) -> Option<usize> {
        let n = self.int(key, value)?;
        if n == 0 {
            self.out_of_range(key, reason);
        }
        (n > 0).then_some(n)
    }

    /// [`positive`](Self::positive) for a count of `what`s, which also
    /// refuses counts past the 32-bit id range: `NodeId` and the message ids
    /// of trace events and transfer itemisation are `u32`, and the engines
    /// cast into them.
    fn id_count(&mut self, key: &str, value: &str, what: &str) -> Option<usize> {
        let n = self.positive(key, value, AT_LEAST_ONE)?;
        if u32::try_from(n).is_err() {
            let bound = format!("must be at most {} ({what} ids are 32-bit)", u32::MAX);
            self.out_of_range(key, &bound);
        }
        Some(n)
    }

    fn float(&mut self, key: &str, value: &str) -> Option<f64> {
        self.parse(key, value, "a number")
    }

    fn boolean(&mut self, key: &str, value: &str) -> Option<bool> {
        self.parse(key, value, "'true' or 'false'")
    }

    fn unknown_value(&mut self, key: &str, value: &str, expected: &[&str]) {
        self.errors.push(SpecError::UnknownValue {
            key: key.to_string(),
            value: value.to_string(),
            expected: expected.join(", "),
        });
    }

    fn out_of_range(&mut self, key: &str, reason: &str) {
        self.errors.push(SpecError::OutOfRange {
            key: key.to_string(),
            reason: reason.to_string(),
        });
    }

    // ---- validation ----------------------------------------------------

    /// Cross-field validation and assembly. Returns the scenario, or
    /// **every** accumulated error at once.
    pub fn finish(self) -> Result<Scenario, Vec<SpecError>> {
        let mut errors = self.errors.clone();

        // Assemble the topology spec; an explicit radius only means
        // something on a random geometric graph.
        let topology = match (self.topology, self.radius) {
            (TopologySpec::Rgg { .. }, radius) => TopologySpec::Rgg { radius },
            (other, None) => other,
            (other, Some(_)) => {
                errors.push(SpecError::Conflict {
                    reason: format!(
                        "radius fixes the connection radius of a random geometric graph; \
                         it requires topology rgg, not '{}'",
                        other.name()
                    ),
                });
                other
            }
        };

        // One source of truth for timing ranges: the core validator the
        // async scheduler itself enforces. Checked regardless of the
        // selected scheduler so a bad drift never parses silently.
        if let Err(e) = self.timing.validate() {
            errors.push(SpecError::OutOfRange {
                key: "drift/refresh-jitter/min-latency/max-latency".to_string(),
                reason: e,
            });
        }
        let threads = self.threads;
        let scheduler = match self.asynchronous {
            false => Scheduler::Sync { threads },
            true => Scheduler::Async {
                timing: self.timing,
                threads,
            },
        };

        // Dynamics: the models' own validators decide what a usable rate
        // is, so no front-end can admit a config the engine panics on (an
        // explicit zero rate is rejected here, not silently ignored).
        let churn = self.churn_rate.map(|rate| Churn {
            rate,
            rejoin: self.rejoin.unwrap_or_default(),
            mean_downtime: DEFAULT_MEAN_DOWNTIME_ROUNDS,
        });
        match churn.map(|c| c.validate()) {
            Some(Err(reason)) => errors.push(SpecError::OutOfRange {
                key: "churn-rate".to_string(),
                reason,
            }),
            None if self.rejoin.is_some() => errors.push(SpecError::Conflict {
                reason: "rejoin requires churn-rate".to_string(),
            }),
            _ => {}
        }
        let fading = self.fade_prob.map(|fade_prob| EdgeFading {
            fade_prob,
            mean_downtime: 1.0,
        });
        if let Some(Err(reason)) = fading.map(|f| f.validate()) {
            errors.push(SpecError::OutOfRange {
                key: "fade-prob".to_string(),
                reason,
            });
        }
        if self.mobility {
            if !topology.is_rgg() {
                errors.push(SpecError::Conflict {
                    reason: format!(
                        "mobility moves nodes of a random geometric graph; \
                         it requires topology rgg, not '{}'",
                        topology.name()
                    ),
                });
            }
            if self.fade_prob.is_some() {
                errors.push(SpecError::Conflict {
                    reason: "mobility rewires the edges that fade-prob would flap; \
                             pick one link-instability model"
                        .to_string(),
                });
            }
        }

        // Membership: view/period knobs only mean something on the
        // HyParView overlay; the crate's own validator decides the usable
        // ranges so no front-end admits a config the engine panics on.
        let membership = if self.hyparview {
            let defaults = MembershipConfig::default();
            let cfg = MembershipConfig {
                active_size: self.active_view.unwrap_or(defaults.active_size),
                passive_size: self.passive_view.unwrap_or(defaults.passive_size),
                shuffle_period: self.shuffle_period.unwrap_or(defaults.shuffle_period),
                probe_period: self.probe_period.unwrap_or(defaults.probe_period),
            };
            if let Err(e) = cfg.validate() {
                errors.push(SpecError::OutOfRange {
                    key: "active-view/passive-view/shuffle-period/probe-period".to_string(),
                    reason: e,
                });
            }
            MembershipSpec::HyParView(cfg)
        } else {
            for (key, set) in [
                ("active-view", self.active_view.is_some()),
                ("passive-view", self.passive_view.is_some()),
                ("shuffle-period", self.shuffle_period.is_some()),
                ("probe-period", self.probe_period.is_some()),
            ] {
                if set {
                    errors.push(SpecError::Conflict {
                        reason: format!("{key} requires membership hyparview"),
                    });
                }
            }
            MembershipSpec::Full
        };

        let output = OutputSpec {
            format: self.format,
            history: self.history,
        };
        if output.history && output.format == OutputFormat::Csv {
            errors.push(SpecError::Conflict {
                reason: "history emits nested per-round data, which is JSON-only".to_string(),
            });
        }

        // What a run allocates whole before its first event; counts past
        // the id range were refused by their own keys already.
        let (nodes, messages) = (self.nodes, self.messages);
        if u32::try_from(nodes.max(messages)).is_ok() {
            let words = nodes.saturating_mul(messages.div_ceil(64)) + messages;
            if words > MAX_SCENARIO_WORDS {
                errors.push(SpecError::OutOfRange {
                    key: "nodes/messages".to_string(),
                    reason: format!(
                        "{nodes} x ceil({messages}/64) + {messages} = {words} words of message \
                         state; a scenario holds at most {MAX_SCENARIO_WORDS}"
                    ),
                });
            }
            let adjacency = topology.adjacency_entries(nodes);
            if adjacency > MAX_SCENARIO_WORDS {
                errors.push(SpecError::OutOfRange {
                    key: "nodes".to_string(),
                    reason: format!(
                        "a {} topology of {nodes} nodes has {adjacency} adjacency \
                         entries; a scenario holds at most {MAX_SCENARIO_WORDS}",
                        topology.name()
                    ),
                });
            }
            // Membership views are allocated at capacity, one slab each.
            if let Some(cfg) = membership.to_config() {
                let stride = |size: usize| size.min(nodes.saturating_sub(1));
                let (active, passive) = (stride(cfg.active_size), stride(cfg.passive_size));
                let slots = nodes.saturating_mul(active + passive);
                if slots > MAX_SCENARIO_WORDS {
                    errors.push(SpecError::OutOfRange {
                        key: "active-view/passive-view".to_string(),
                        reason: format!(
                            "{nodes} x ({active} + {passive}) = {slots} view slots; a \
                             scenario holds at most {MAX_SCENARIO_WORDS}"
                        ),
                    });
                }
            }
        }

        if !errors.is_empty() {
            return Err(errors);
        }
        Ok(Scenario {
            topology,
            nodes: self.nodes,
            protocol: self.protocol,
            scheduler,
            messages: self.messages,
            seed: self.seed,
            seeds: self.seeds,
            max_rounds: self.max_rounds,
            dynamics: DynamicsSpec {
                churn,
                fading,
                mobility: self.mobility,
            },
            membership,
            output,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_specs_cover_the_protocol_registry_exactly() {
        // Every listed name parses, names itself, and is what the
        // `protocol` key builds, so the list, the enum and the key cannot
        // drift apart.
        for &name in Protocol::NAMES {
            let protocol = Protocol::parse(name)
                .unwrap_or_else(|| panic!("listed protocol '{name}' does not parse"));
            assert_eq!(protocol.name(), name);
            let mut builder = ScenarioBuilder::new();
            builder.set("protocol", name);
            let scenario = builder
                .finish()
                .unwrap_or_else(|e| panic!("protocol = {name}: {}", join_errors(&e)));
            assert_eq!(scenario.protocol, protocol);
        }
    }

    #[test]
    fn every_row_a_scenario_carries_is_rendered_and_read_back() {
        // Every run key away from its default; `mobility` and `fade-prob`
        // exclude each other, so they take turns.
        let common = [
            ("topology", "rgg"),
            ("nodes", "37"),
            ("protocol", "advert"),
            ("scheduler", "async"),
            ("messages", "3"),
            ("seed", "9"),
            ("seeds", "2"),
            ("max-rounds", "50"),
            ("threads", "3"),
            ("radius", "0.4"),
            ("drift", "0.2"),
            ("refresh-jitter", "0.3"),
            ("min-latency", "8"),
            ("max-latency", "64"),
            ("churn-rate", "0.05"),
            ("rejoin", "lose"),
            ("membership", "hyparview"),
            ("active-view", "4"),
            ("passive-view", "12"),
            ("shuffle-period", "2"),
            ("probe-period", "3"),
            ("format", "json"),
            ("history", "true"),
        ];
        for link in [("mobility", "true"), ("fade-prob", "0.1")] {
            let assigned: Vec<(&str, &str)> = common.iter().copied().chain([link]).collect();
            let mut builder = ScenarioBuilder::new();
            for (key, value) in &assigned {
                builder.set(key, value);
            }
            let scenario = builder.finish().unwrap();
            let spec = scenario.to_spec();
            let (scenario_section, output_section) = spec.split_once("\n[output]\n").unwrap();
            for def in ASSIGNMENTS {
                let carried = assigned.iter().find(|(key, _)| *key == def.key);
                let value = carried.map(|(_, value)| value.to_string());
                assert_eq!((def.get)(&scenario), value, "{}", def.key);
                if let Some(value) = value {
                    let section = [output_section, scenario_section][usize::from(def.axis)];
                    let line = format!("{} = {value}\n", def.key);
                    assert!(section.contains(&line), "{line:?} not in {section:?}");
                }
            }
            let read_back = crate::parse_spec(&spec).unwrap().expand().unwrap();
            assert_eq!(read_back, vec![scenario]);
        }
    }

    #[test]
    fn membership_survives_the_spec_round_trip_and_stamps_the_id() {
        let mut builder = ScenarioBuilder::new();
        builder
            .set("membership", "hyparview")
            .set("active-view", "4")
            .set("passive-view", "16")
            .set("shuffle-period", "2")
            .set("probe-period", "3");
        let scenario = builder.finish().unwrap();
        assert!(scenario.scenario_id().contains("-mem@a4p16sh2pr3-s1"));
        let cells = crate::parse_spec(&scenario.to_spec())
            .unwrap()
            .expand()
            .unwrap();
        assert_eq!(cells, vec![scenario]);

        // The full-view default stamps nothing: ids are byte-identical to
        // pre-membership builds.
        let full = ScenarioBuilder::new().finish().unwrap();
        assert_eq!(full.membership, MembershipSpec::Full);
        assert!(!full.scenario_id().contains("mem@"));
        assert!(!full.to_spec().contains("membership"));
    }

    #[test]
    fn membership_params_require_the_hyparview_overlay() {
        for key in [
            "active-view",
            "passive-view",
            "shuffle-period",
            "probe-period",
        ] {
            let mut b = ScenarioBuilder::new();
            b.set(key, "4");
            let errors = b.finish().unwrap_err();
            assert!(
                errors
                    .iter()
                    .any(|e| e.to_string().contains("requires membership hyparview")),
                "{key}: {errors:?}"
            );
        }
        // Zero capacities and periods are config bugs the membership
        // crate's validator names.
        for key in [
            "active-view",
            "passive-view",
            "shuffle-period",
            "probe-period",
        ] {
            let mut b = ScenarioBuilder::new();
            b.set("membership", "hyparview");
            b.set(key, "0");
            assert!(b.finish().is_err(), "{key} = 0 must be rejected");
        }
        // Defaults fill the unset knobs.
        let mut b = ScenarioBuilder::new();
        b.set("membership", "hyparview");
        let scenario = b.finish().unwrap();
        assert_eq!(
            scenario.membership.to_config(),
            Some(MembershipConfig::default())
        );
    }

    #[test]
    fn dynamics_and_membership_keys_build_the_engines_own_configs() {
        // The keys set rates only; the downtimes are fixed here, and an
        // overlay with no view keys takes the membership crate's defaults.
        let mut b = ScenarioBuilder::new();
        b.set("churn-rate", "0.1")
            .set("fade-prob", "0.2")
            .set("membership", "hyparview");
        let scenario = b.finish().unwrap();
        let churn = Churn {
            rate: 0.1,
            rejoin: RejoinPolicy::Keep,
            mean_downtime: DEFAULT_MEAN_DOWNTIME_ROUNDS,
        };
        let fading = EdgeFading {
            fade_prob: 0.2,
            mean_downtime: 1.0,
        };
        assert_eq!(scenario.dynamics.churn, Some(churn));
        assert_eq!(scenario.dynamics.fading, Some(fading));
        assert_eq!(
            scenario.membership,
            MembershipSpec::HyParView(MembershipConfig::default())
        );
    }

    #[test]
    fn async_timing_survives_the_spec_round_trip_including_jitter() {
        let mut builder = ScenarioBuilder::new();
        builder
            .set("scheduler", "async")
            .set("drift", "0.2")
            .set("refresh-jitter", "0.5")
            .set("min-latency", "16")
            .set("max-latency", "128");
        let scenario = builder.finish().unwrap();
        let cells = crate::parse_spec(&scenario.to_spec())
            .unwrap()
            .expand()
            .unwrap();
        assert_eq!(cells, vec![scenario]);
    }
}
