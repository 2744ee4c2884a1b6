//! Typed experiment specifications and the [`ScenarioBuilder`].
//!
//! A [`Scenario`] is one fully validated point in the experiment space the
//! papers explore: topology × protocol × scheduler × dynamics × seed. Its
//! fields are enums and structs, not strings — `TopologySpec::Rgg {
//! radius }` instead of `topology: "rgg"` — so downstream code (the CLI,
//! grids, future Byzantine/tag-budget axes) extends the space by adding
//! variants, not by teaching every front-end a new magic string.
//!
//! Construction goes through [`ScenarioBuilder`], which accepts both typed
//! setters and stringly `key = value` assignments (the shared vocabulary of
//! CLI flags, spec files, and grid axes — see [`ASSIGNMENTS`]) and
//! **accumulates** structured [`SpecError`]s instead of failing on the
//! first problem, so a user fixing a spec sees every mistake at once.

use gossip_core::{NodeId, RggGeometry, Rng, TimingConfig, Topology};
use gossip_dynamics::{
    Churn, CompositeDynamics, DynamicsModel, EdgeFading, RejoinPolicy, Waypoint,
    DEFAULT_MEAN_DOWNTIME_ROUNDS, DEFAULT_SPEED_PER_ROUND,
};
use gossip_protocols::GossipProtocol;
use gossip_sim::{
    default_round_cap, random_sources, AsyncScheduler, MembershipConfig, RunInputs, Scheduler,
    SimConfig, SimResult, SyncScheduler,
};
use gossip_telemetry::{NoopProbe, Probe};

use crate::emit::RunMeta;
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

/// The gossip protocol of a scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProtocolSpec {
    /// Blind uniform random spread.
    Uniform,
    /// Advertisement-guided (productive) gossip.
    Advert,
}

impl ProtocolSpec {
    /// Canonical names, in the order help text lists them — aliased to
    /// the protocol crate's own registry so the two cannot drift (a test
    /// checks [`parse`](Self::parse) covers every entry).
    pub const NAMES: &'static [&'static str] = gossip_protocols::PROTOCOL_NAMES;

    /// Parse a protocol name.
    pub fn parse(name: &str) -> Option<ProtocolSpec> {
        match name {
            "uniform" => Some(ProtocolSpec::Uniform),
            "advert" => Some(ProtocolSpec::Advert),
            _ => None,
        }
    }

    /// The canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolSpec::Uniform => "uniform",
            ProtocolSpec::Advert => "advert",
        }
    }

    /// Instantiate the protocol, through the protocol crate's own
    /// registry.
    pub fn build(&self) -> Box<dyn GossipProtocol> {
        gossip_protocols::by_name(self.name())
            .expect("ProtocolSpec names are a subset of the protocol registry")
    }
}

/// The execution model of a scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SchedulerSpec {
    /// Synchronized rounds, optionally sharded over worker threads
    /// (thread count never changes results, only throughput).
    Sync { threads: usize },
    /// Event-driven virtual time with the given drift/latency
    /// distributions, executed by the time-sliced engine — optionally
    /// sharded over worker threads (thread count never changes results,
    /// only throughput).
    Async {
        timing: TimingConfig,
        threads: usize,
    },
}

impl SchedulerSpec {
    /// Canonical names, in the order help text lists them.
    pub const NAMES: &'static [&'static str] = &["sync", "async"];

    /// The canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerSpec::Sync { .. } => "sync",
            SchedulerSpec::Async { .. } => "async",
        }
    }

    /// Worker threads this spec will actually run with, after the
    /// [`effective_threads`] clamp.
    pub fn effective_threads(&self) -> usize {
        match self {
            SchedulerSpec::Sync { threads } | SchedulerSpec::Async { threads, .. } => {
                effective_threads(*threads).0
            }
        }
    }

    /// Instantiate the scheduler (thread count clamped to the machine).
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedulerSpec::Sync { threads } => {
                Box::new(SyncScheduler::with_threads(effective_threads(*threads).0))
            }
            SchedulerSpec::Async { timing, threads } => Box::new(AsyncScheduler {
                timing: *timing,
                threads: effective_threads(*threads).0,
            }),
        }
    }
}

/// Clamp a requested thread count to the machine's available parallelism.
/// Returns the effective count and, when clamping occurred, a warning for
/// the user. Results never depend on the clamp — the engine is
/// deterministic at any thread count — only throughput does.
pub fn effective_threads(requested: usize) -> (usize, Option<String>) {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if requested > available {
        (
            available,
            Some(format!(
                "--threads {requested} exceeds the machine's available parallelism; \
                 capping at {available} (results are identical, only throughput changes)"
            )),
        )
    } else {
        (requested, None)
    }
}

/// The churn half of a [`DynamicsSpec`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnSpec {
    /// Per-round departure probability, in `(0, 1)`.
    pub rate: f64,
    /// What a rejoining node remembers.
    pub rejoin: RejoinPolicy,
}

impl ChurnSpec {
    /// The churn model this spec builds (downtime uses the shared
    /// default).
    pub fn model(&self) -> Churn {
        Churn {
            rate: self.rate,
            rejoin: self.rejoin,
            mean_downtime: DEFAULT_MEAN_DOWNTIME_ROUNDS,
        }
    }
}

/// How (and whether) the network mutates mid-run. Any validated subset of
/// the three models composes; the merged mutation stream stays
/// seed-deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct DynamicsSpec {
    /// Node churn, if enabled.
    pub churn: Option<ChurnSpec>,
    /// Per-round edge fade probability, if fading is enabled.
    pub fade_prob: Option<f64>,
    /// Random-waypoint mobility over the RGG embedding.
    pub mobility: bool,
}

impl DynamicsSpec {
    /// Does this spec leave the topology frozen?
    pub fn is_static(&self) -> bool {
        self.churn.is_none() && self.fade_prob.is_none() && !self.mobility
    }

    /// The fading model implied by the spec, if fading is enabled.
    pub fn fading_model(&self) -> Option<EdgeFading> {
        self.fade_prob.map(|fade_prob| EdgeFading {
            fade_prob,
            mean_downtime: 1.0,
        })
    }

    /// Build the composite dynamics model: churn, fading, and mobility
    /// merged into one time-ordered mutation stream. `None` when static.
    pub fn build(&self, geometry: Option<&RggGeometry>) -> Option<Box<dyn DynamicsModel>> {
        let mut parts: Vec<Box<dyn DynamicsModel>> = Vec::new();
        if let Some(churn) = &self.churn {
            parts.push(Box::new(churn.model()));
        }
        if let Some(fading) = self.fading_model() {
            parts.push(Box::new(fading));
        }
        if self.mobility {
            let geometry = geometry
                .expect("spec validation only admits mobility with an RGG topology")
                .clone();
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
    HyParView {
        /// Active (gossip) view capacity per node.
        active: usize,
        /// Passive (reservoir) view capacity per node.
        passive: usize,
        /// Ticks between shuffle rounds (1 = every round).
        shuffle_period: u64,
        /// Ticks between failure-detector probes (1 = every round).
        probe_period: u64,
    },
}

impl MembershipSpec {
    /// Canonical names, in the order help text lists them.
    pub const NAMES: &'static [&'static str] = &["full", "hyparview"];

    /// The canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            MembershipSpec::Full => "full",
            MembershipSpec::HyParView { .. } => "hyparview",
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
            MembershipSpec::HyParView {
                active,
                passive,
                shuffle_period,
                probe_period,
            } => Some(MembershipConfig {
                active_size: active,
                passive_size: passive,
                shuffle_period,
                probe_period,
            }),
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
    pub protocol: ProtocolSpec,
    pub scheduler: SchedulerSpec,
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

/// A [`Scenario`] instantiated: the owner of everything the engine's
/// [`RunInputs`] borrow.
pub(crate) struct ScenarioParts {
    topology: Topology,
    protocol: Box<dyn GossipProtocol>,
    sources: Vec<NodeId>,
    seed: u64,
    dynamics: Option<Box<dyn DynamicsModel>>,
    membership: Option<MembershipConfig>,
}

impl ScenarioParts {
    /// The engine inputs for a run under `config`.
    pub(crate) fn inputs(&self, config: SimConfig) -> RunInputs<'_> {
        RunInputs {
            topology: &self.topology,
            protocol: self.protocol.as_ref(),
            sources: &self.sources,
            seed: self.seed,
            config,
            dynamics: self.dynamics.as_deref(),
            membership: self.membership.as_ref(),
        }
    }
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

    /// Does this scenario run over a mutating network?
    pub fn is_dynamic(&self) -> bool {
        !self.dynamics.is_static()
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
            SchedulerSpec::Sync { .. } => id.push_str("-sync"),
            // `threads` is execution-only (never changes results), so it
            // stays out of the id just like the sync thread count.
            SchedulerSpec::Async { timing, .. } => {
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
        if let Some(fade) = self.dynamics.fade_prob {
            id.push_str(&format!("-fade{fade}"));
        }
        if self.dynamics.mobility {
            id.push_str("-mobility");
        }
        if let MembershipSpec::HyParView {
            active,
            passive,
            shuffle_period,
            probe_period,
        } = &self.membership
        {
            id.push_str(&format!(
                "-mem@a{active}p{passive}sh{shuffle_period}pr{probe_period}"
            ));
        }
        id.push_str(&format!("-s{}", self.seed));
        id
    }

    /// Run this scenario end to end for its own seed (ignoring the sweep
    /// width; see [`sweep_timed_iter`](Self::sweep_timed_iter)). Static
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
        let parts = self.instantiate();
        let inputs = parts.inputs(self.sim_config());
        self.scheduler.build().run(&inputs, probe)
    }

    /// Build everything this scenario names for its own seed. `run` and
    /// `bench` both go through here, so they cannot disagree about which
    /// dynamics or membership overlay a scenario runs under.
    pub(crate) fn instantiate(&self) -> ScenarioParts {
        let (topology, geometry) = self.topology.build(self.nodes, self.seed);
        ScenarioParts {
            dynamics: self.dynamics.build(geometry.as_ref()),
            topology,
            protocol: self.protocol.build(),
            sources: self.sources(),
            seed: self.seed,
            membership: self.membership.to_config(),
        }
    }

    /// Run the configured sweep lazily: `seeds` consecutive seeds starting
    /// at `seed`, each a fully independent experiment (randomized
    /// topologies and source placement are re-drawn per seed), yielded in
    /// seed order with per-run wall-clock metadata — so consumers can
    /// stream one output line per run without buffering the sweep.
    pub fn sweep_timed_iter(&self) -> impl Iterator<Item = (SimResult, RunMeta)> + '_ {
        let threads = self.scheduler.effective_threads();
        (0..self.seeds as u64).map(move |offset| {
            let one = self.with_seed(self.seed.wrapping_add(offset));
            let started = Instant::now();
            let result = one.run();
            let meta = RunMeta {
                threads,
                wall_ms: started.elapsed().as_millis() as u64,
            };
            (result, meta)
        })
    }

    /// [`sweep_timed_iter`](Self::sweep_timed_iter) without the metadata,
    /// collected.
    pub fn run_sweep(&self) -> Vec<SimResult> {
        self.sweep_timed_iter().map(|(result, _)| result).collect()
    }

    /// Serialize this scenario as a spec file ([`crate::parse_spec`]
    /// reads it back to an equal scenario — the round-trip property the
    /// test suite enforces). Scheduler-irrelevant knobs (async timing
    /// under a sync scheduler) do not survive the typed spec, so they
    /// never appear here either.
    pub fn to_spec(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("[scenario]\n");
        let mut kv = |key: &str, value: String| {
            out.push_str(key);
            out.push_str(" = ");
            out.push_str(&value);
            out.push('\n');
        };
        kv("topology", self.topology.name().to_string());
        if let TopologySpec::Rgg { radius: Some(r) } = &self.topology {
            kv("radius", r.to_string());
        }
        kv("nodes", self.nodes.to_string());
        kv("protocol", self.protocol.name().to_string());
        kv("scheduler", self.scheduler.name().to_string());
        match &self.scheduler {
            SchedulerSpec::Sync { threads } => kv("threads", threads.to_string()),
            SchedulerSpec::Async { timing, threads } => {
                kv("threads", threads.to_string());
                kv("drift", timing.drift.to_string());
                kv("refresh-jitter", timing.refresh_jitter.to_string());
                kv("min-latency", timing.min_latency.to_string());
                kv("max-latency", timing.max_latency.to_string());
            }
        }
        kv("messages", self.messages.to_string());
        kv("seed", self.seed.to_string());
        kv("seeds", self.seeds.to_string());
        if let Some(cap) = self.max_rounds {
            kv("max-rounds", cap.to_string());
        }
        if let Some(churn) = &self.dynamics.churn {
            kv("churn-rate", churn.rate.to_string());
            kv("rejoin", churn.rejoin.name().to_string());
        }
        if let Some(fade) = self.dynamics.fade_prob {
            kv("fade-prob", fade.to_string());
        }
        if self.dynamics.mobility {
            kv("mobility", "true".to_string());
        }
        if let MembershipSpec::HyParView {
            active,
            passive,
            shuffle_period,
            probe_period,
        } = &self.membership
        {
            kv("membership", "hyparview".to_string());
            kv("active-view", active.to_string());
            kv("passive-view", passive.to_string());
            kv("shuffle-period", shuffle_period.to_string());
            kv("probe-period", probe_period.to_string());
        }
        out.push_str("\n[output]\n");
        out.push_str(&format!("format = {}\n", self.output.format.name()));
        if self.output.history {
            out.push_str("history = true\n");
        }
        out
    }
}

/// One entry of the shared assignment vocabulary: a canonical key, its
/// value shape, and its help text. CLI flags (`--key value`), spec-file
/// assignments (`key = value`), and grid axes (`key = v1, v2`) all speak
/// exactly this table, so the parser, the spec format, and the generated
/// help text cannot diverge.
#[derive(Clone, Copy, Debug)]
pub struct AssignmentDef {
    /// Canonical key (CLI flag name without the `--`).
    pub key: &'static str,
    /// Value placeholder for help text; `None` marks a boolean switch
    /// (spec files write `key = true`, the CLI just passes the flag).
    pub metavar: Option<&'static str>,
    /// Help text; embedded newlines become aligned continuation lines.
    pub help: &'static str,
    /// Accepted by `run`/`grid` (everything except the bench-only round
    /// budget).
    pub run: bool,
    /// Accepted by the `bench` subcommand.
    pub bench: bool,
    /// Usable as a grid axis (output knobs are not: a grid streams one
    /// format).
    pub axis: bool,
}

/// The shared assignment table. Order is the order help text lists flags.
pub const ASSIGNMENTS: &[AssignmentDef] = &[
    AssignmentDef {
        key: "topology",
        metavar: Some("line|ring|grid|complete|rgg"),
        help: "topology family [default: ring]\n(rgg = random_geometric)",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "nodes",
        metavar: Some("N"),
        help: "number of nodes [default: 100]",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "protocol",
        metavar: Some("uniform|advert"),
        help: "gossip protocol [default: uniform]",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "scheduler",
        metavar: Some("sync|async"),
        help: "execution model: synchronized rounds\nor event-driven virtual time [default: sync]",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "messages",
        metavar: Some("K"),
        help: "rumors to spread (>64 uses\nhashed advertisement tags) [default: 1]",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "seed",
        metavar: Some("S"),
        help: "RNG seed [default: 1]",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "seeds",
        metavar: Some("N"),
        help: "sweep N consecutive seeds starting at\nseed, one output line each [default: 1]",
        run: true,
        bench: false,
        axis: true,
    },
    AssignmentDef {
        key: "max-rounds",
        metavar: Some("R"),
        help: "round cap; the async scheduler reads it\nas the equivalent virtual-time cap\n[default: 100 + 60*N]",
        run: true,
        bench: false,
        axis: true,
    },
    AssignmentDef {
        key: "threads",
        metavar: Some("T"),
        help: "shard the sync round loop / sliced async\nevent loop over T worker threads (results\nare identical at any thread count; capped\nat the machine's available parallelism)\n[default: 1]",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "radius",
        metavar: Some("F"),
        help: "rgg only: fix the connection radius\ninstead of growing it to the connectivity\nthreshold (may disconnect the graph)",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "drift",
        metavar: Some("F"),
        help: "async: max relative clock drift,\n0 <= F < 1 [default: 0.1]",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "refresh-jitter",
        metavar: Some("F"),
        help: "async: per-refresh advertisement interval\njitter, 0 <= F < 1 [default: 0.25]",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "min-latency",
        metavar: Some("T"),
        help: "async: min connect/transfer latency in\nticks (1024 ticks = 1 round) [default: 32]",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "max-latency",
        metavar: Some("T"),
        help: "async: max connect/transfer latency in\nticks [default: 256]",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "churn-rate",
        metavar: Some("F"),
        help: "nodes churn: depart with per-round\nprobability F (geometric lifetimes),\n0 < F < 1 [default: off]",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "rejoin",
        metavar: Some("keep|lose|none"),
        help: "what a churned node remembers when it\nrejoins; 'none' means departed nodes\nnever return (requires churn-rate)\n[default: keep]",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "fade-prob",
        metavar: Some("F"),
        help: "edges flap: fade with per-round\nprobability F, 0 < F < 1 [default: off]",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "mobility",
        metavar: None,
        help: "random-waypoint mobility: nodes walk the\nunit square and re-derive radius edges\n(rgg topology only; incompatible\nwith fade-prob)",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "membership",
        metavar: Some("full|hyparview"),
        help: "neighborhoods the protocol gossips over:\nthe full underlay neighbor list, or a\nbounded HyParView-style partial view with\nSWIM-style failure detection [default: full]",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "active-view",
        metavar: Some("N"),
        help: "membership: active (gossip) view capacity\nper node (requires membership hyparview)\n[default: 5]",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "passive-view",
        metavar: Some("N"),
        help: "membership: passive reservoir capacity\nper node (requires membership hyparview)\n[default: 30]",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "shuffle-period",
        metavar: Some("R"),
        help: "membership: rounds between view shuffles\n(requires membership hyparview) [default: 1]",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "probe-period",
        metavar: Some("R"),
        help: "membership: rounds between failure-detector\nprobes (requires membership hyparview)\n[default: 1]",
        run: true,
        bench: true,
        axis: true,
    },
    AssignmentDef {
        key: "format",
        metavar: Some("json|csv"),
        help: "output format; csv emits a header row\nplus one row per run [default: json]",
        run: true,
        bench: false,
        axis: false,
    },
    AssignmentDef {
        key: "history",
        metavar: None,
        help: "include per-round stats in the JSON",
        run: true,
        bench: false,
        axis: false,
    },
    AssignmentDef {
        key: "rounds",
        metavar: Some("R"),
        help: "bench round budget: the engine runs\nexactly this many rounds (or fewer if\ngossip completes first) [default: 64]",
        run: false,
        bench: true,
        axis: false,
    },
];

/// Look up an assignment key in [`ASSIGNMENTS`].
pub fn assignment(key: &str) -> Option<&'static AssignmentDef> {
    ASSIGNMENTS.iter().find(|def| def.key == key)
}

/// Internal scheduler selector before the builder assembles a
/// [`SchedulerSpec`].
#[derive(Clone, Copy, Debug, PartialEq)]
enum SchedulerKind {
    Sync,
    Async,
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
    protocol: ProtocolSpec,
    scheduler: SchedulerKind,
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
    membership_hyparview: bool,
    active_view: Option<usize>,
    passive_view: Option<usize>,
    shuffle_period: Option<usize>,
    probe_period: Option<usize>,
    format: OutputFormat,
    history: bool,
    bench_rounds: Option<usize>,
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
            protocol: ProtocolSpec::Uniform,
            scheduler: SchedulerKind::Sync,
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
            membership_hyparview: false,
            active_view: None,
            passive_view: None,
            shuffle_period: None,
            probe_period: None,
            format: OutputFormat::Json,
            history: false,
            bench_rounds: None,
            errors: Vec::new(),
        }
    }

    // ---- typed setters -------------------------------------------------

    pub fn topology(mut self, topology: TopologySpec) -> Self {
        // An Rgg spec carries its radius authoritatively — including
        // `None` (the adaptive builder), which must clear any radius set
        // earlier rather than silently surviving it.
        if let TopologySpec::Rgg { radius } = topology {
            self.radius = radius;
        }
        self.topology = topology;
        self
    }

    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    pub fn protocol(mut self, protocol: ProtocolSpec) -> Self {
        self.protocol = protocol;
        self
    }

    pub fn sync_scheduler(mut self, threads: usize) -> Self {
        self.scheduler = SchedulerKind::Sync;
        self.threads = threads;
        self
    }

    pub fn async_scheduler(mut self, timing: TimingConfig) -> Self {
        self.scheduler = SchedulerKind::Async;
        self.timing = timing;
        self
    }

    pub fn messages(mut self, messages: usize) -> Self {
        self.messages = messages;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn seeds(mut self, seeds: usize) -> Self {
        self.seeds = seeds;
        self
    }

    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    pub fn churn(mut self, rate: f64, rejoin: RejoinPolicy) -> Self {
        self.churn_rate = Some(rate);
        self.rejoin = Some(rejoin);
        self
    }

    pub fn fading(mut self, fade_prob: f64) -> Self {
        self.fade_prob = Some(fade_prob);
        self
    }

    pub fn mobility(mut self, mobility: bool) -> Self {
        self.mobility = mobility;
        self
    }

    pub fn membership(mut self, membership: MembershipSpec) -> Self {
        match membership {
            MembershipSpec::Full => {
                self.membership_hyparview = false;
                self.active_view = None;
                self.passive_view = None;
                self.shuffle_period = None;
                self.probe_period = None;
            }
            MembershipSpec::HyParView {
                active,
                passive,
                shuffle_period,
                probe_period,
            } => {
                self.membership_hyparview = true;
                self.active_view = Some(active);
                self.passive_view = Some(passive);
                self.shuffle_period = Some(shuffle_period as usize);
                self.probe_period = Some(probe_period as usize);
            }
        }
        self
    }

    pub fn output(mut self, format: OutputFormat, history: bool) -> Self {
        self.format = format;
        self.history = history;
        self
    }

    /// The bench-only round budget, if `rounds` was assigned (consumed by
    /// the bench front-end; ignored by [`finish`](Self::finish)).
    pub fn bench_rounds(&self) -> Option<usize> {
        self.bench_rounds
    }

    /// The assignment errors accumulated so far (cross-field conflicts
    /// are only discovered in [`finish`](Self::finish)). Grids use this
    /// to report bad *base* assignments once, at grid level, instead of
    /// misattributing them to the first expanded cell.
    pub fn errors(&self) -> &[SpecError] {
        &self.errors
    }

    // ---- stringly assignment (the shared key = value vocabulary) -------

    /// Apply one `key = value` assignment from the shared vocabulary
    /// ([`ASSIGNMENTS`]). Boolean keys take `true`/`false`. Never fails;
    /// problems accumulate for [`finish`](Self::finish).
    pub fn set(&mut self, key: &str, value: &str) -> &mut Self {
        match key {
            "topology" => match TopologySpec::parse(value) {
                Some(spec) => self.topology = spec,
                None => self.unknown_value(key, value, TopologySpec::NAMES),
            },
            "nodes" => {
                if let Some(n) = self.num(key, value) {
                    self.nodes = n;
                    if n == 0 {
                        self.out_of_range(key, "must be at least 1");
                    } else if u32::try_from(n).is_err() {
                        // `NodeId` is a `u32` and every engine casts into it.
                        let bound = format!("must be at most {} (node ids are 32-bit)", u32::MAX);
                        self.out_of_range(key, &bound);
                    }
                }
            }
            "protocol" => match ProtocolSpec::parse(value) {
                Some(spec) => self.protocol = spec,
                None => self.unknown_value(key, value, ProtocolSpec::NAMES),
            },
            "scheduler" => match value {
                "sync" => self.scheduler = SchedulerKind::Sync,
                "async" => self.scheduler = SchedulerKind::Async,
                _ => self.unknown_value(key, value, SchedulerSpec::NAMES),
            },
            "messages" => {
                if let Some(k) = self.num(key, value) {
                    self.messages = k;
                    if k == 0 {
                        self.out_of_range(key, "must be at least 1");
                    }
                }
            }
            "seed" => match value.parse::<u64>() {
                Ok(seed) => self.seed = seed,
                Err(_) => self.bad_value(key, value, "a non-negative integer"),
            },
            "seeds" => {
                if let Some(n) = self.num(key, value) {
                    self.seeds = n;
                    if n == 0 {
                        self.out_of_range(key, "must be at least 1");
                    }
                }
            }
            "max-rounds" => {
                if let Some(r) = self.num(key, value) {
                    self.max_rounds = Some(r);
                }
            }
            "threads" => {
                if let Some(t) = self.num(key, value) {
                    self.threads = t;
                    if t == 0 {
                        self.out_of_range(
                            key,
                            "0 is meaningless: the round loop needs at least one worker",
                        );
                    }
                }
            }
            "radius" => {
                if let Some(r) = self.float(key, value) {
                    self.radius = Some(r);
                    if !(r > 0.0 && r.is_finite()) {
                        self.out_of_range(key, "the connection radius must be a positive number");
                    }
                }
            }
            "drift" => {
                if let Some(d) = self.float(key, value) {
                    self.timing.drift = d;
                }
            }
            "refresh-jitter" => {
                if let Some(j) = self.float(key, value) {
                    self.timing.refresh_jitter = j;
                }
            }
            "min-latency" => {
                if let Some(t) = self.num(key, value) {
                    self.timing.min_latency = t as u64;
                }
            }
            "max-latency" => {
                if let Some(t) = self.num(key, value) {
                    self.timing.max_latency = t as u64;
                }
            }
            "churn-rate" => {
                if let Some(rate) = self.float(key, value) {
                    self.churn_rate = Some(rate);
                }
            }
            "rejoin" => match RejoinPolicy::parse(value) {
                Some(policy) => self.rejoin = Some(policy),
                None => self.unknown_value(key, value, RejoinPolicy::NAMES),
            },
            "fade-prob" => {
                if let Some(p) = self.float(key, value) {
                    self.fade_prob = Some(p);
                }
            }
            "mobility" => {
                if let Some(b) = self.boolean(key, value) {
                    self.mobility = b;
                }
            }
            "membership" => match value {
                "full" => self.membership_hyparview = false,
                "hyparview" => self.membership_hyparview = true,
                _ => self.unknown_value(key, value, MembershipSpec::NAMES),
            },
            "active-view" => {
                if let Some(n) = self.num(key, value) {
                    self.active_view = Some(n);
                }
            }
            "passive-view" => {
                if let Some(n) = self.num(key, value) {
                    self.passive_view = Some(n);
                }
            }
            "shuffle-period" => {
                if let Some(n) = self.num(key, value) {
                    self.shuffle_period = Some(n);
                }
            }
            "probe-period" => {
                if let Some(n) = self.num(key, value) {
                    self.probe_period = Some(n);
                }
            }
            "format" => match OutputFormat::parse(value) {
                Some(format) => self.format = format,
                None => self.unknown_value(key, value, OutputFormat::NAMES),
            },
            "history" => {
                if let Some(b) = self.boolean(key, value) {
                    self.history = b;
                }
            }
            "rounds" => {
                if let Some(r) = self.num(key, value) {
                    self.bench_rounds = Some(r);
                    if r == 0 {
                        self.out_of_range(key, "must be at least 1");
                    }
                }
            }
            _ => self.errors.push(SpecError::UnknownKey {
                key: key.to_string(),
            }),
        }
        self
    }

    fn num(&mut self, key: &str, value: &str) -> Option<usize> {
        match value.parse::<usize>() {
            Ok(n) => Some(n),
            Err(_) => {
                self.bad_value(key, value, "a non-negative integer");
                None
            }
        }
    }

    fn float(&mut self, key: &str, value: &str) -> Option<f64> {
        match value.parse::<f64>() {
            Ok(f) => Some(f),
            Err(_) => {
                self.bad_value(key, value, "a number");
                None
            }
        }
    }

    fn boolean(&mut self, key: &str, value: &str) -> Option<bool> {
        match value {
            "true" => Some(true),
            "false" => Some(false),
            _ => {
                self.bad_value(key, value, "'true' or 'false'");
                None
            }
        }
    }

    fn bad_value(&mut self, key: &str, value: &str, expected: &'static str) {
        self.errors.push(SpecError::BadValue {
            key: key.to_string(),
            value: value.to_string(),
            expected,
        });
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
        let scheduler = match self.scheduler {
            SchedulerKind::Sync => SchedulerSpec::Sync {
                threads: self.threads,
            },
            SchedulerKind::Async => SchedulerSpec::Async {
                timing: self.timing,
                threads: self.threads,
            },
        };

        // Dynamics: the models' own validators decide what a usable rate
        // is, so no front-end can admit a config the engine panics on (an
        // explicit zero rate is rejected here, not silently ignored).
        let churn = self.churn_rate.map(|rate| ChurnSpec {
            rate,
            rejoin: self.rejoin.unwrap_or_default(),
        });
        if let Some(churn) = &churn {
            if let Err(e) = churn.model().validate() {
                errors.push(SpecError::OutOfRange {
                    key: "churn-rate".to_string(),
                    reason: e,
                });
            }
        } else if self.rejoin.is_some() {
            errors.push(SpecError::Conflict {
                reason: "rejoin requires churn-rate".to_string(),
            });
        }
        let dynamics = DynamicsSpec {
            churn,
            fade_prob: self.fade_prob,
            mobility: self.mobility,
        };
        if let Some(fading) = dynamics.fading_model() {
            if let Err(e) = fading.validate() {
                errors.push(SpecError::OutOfRange {
                    key: "fade-prob".to_string(),
                    reason: e,
                });
            }
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
        let membership = if self.membership_hyparview {
            let defaults = MembershipConfig::default();
            let spec = MembershipSpec::HyParView {
                active: self.active_view.unwrap_or(defaults.active_size),
                passive: self.passive_view.unwrap_or(defaults.passive_size),
                shuffle_period: self
                    .shuffle_period
                    .unwrap_or(defaults.shuffle_period as usize)
                    as u64,
                probe_period: self.probe_period.unwrap_or(defaults.probe_period as usize) as u64,
            };
            if let Some(cfg) = spec.to_config() {
                if let Err(e) = cfg.validate() {
                    errors.push(SpecError::OutOfRange {
                        key: "active-view/passive-view/shuffle-period/probe-period".to_string(),
                        reason: e,
                    });
                }
            }
            spec
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
            dynamics,
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
        // NAMES aliases the registry; parse must accept every entry and
        // name() must round-trip, so the enum and the registry cannot
        // drift apart.
        for &name in ProtocolSpec::NAMES {
            let spec = ProtocolSpec::parse(name)
                .unwrap_or_else(|| panic!("registry protocol '{name}' has no ProtocolSpec"));
            assert_eq!(spec.name(), name);
            assert_eq!(spec.build().name(), name);
        }
    }

    #[test]
    fn typed_rgg_spec_carries_its_radius_authoritatively() {
        let fixed = ScenarioBuilder::new()
            .topology(TopologySpec::Rgg { radius: Some(0.3) })
            .finish()
            .unwrap();
        assert_eq!(fixed.topology, TopologySpec::Rgg { radius: Some(0.3) });
        // Re-setting with an explicit None must clear the earlier radius,
        // not let it leak through.
        let adaptive = ScenarioBuilder::new()
            .topology(TopologySpec::Rgg { radius: Some(0.3) })
            .topology(TopologySpec::Rgg { radius: None })
            .finish()
            .unwrap();
        assert_eq!(adaptive.topology, TopologySpec::Rgg { radius: None });
    }

    #[test]
    fn membership_survives_the_spec_round_trip_and_stamps_the_id() {
        let scenario = ScenarioBuilder::new()
            .membership(MembershipSpec::HyParView {
                active: 4,
                passive: 16,
                shuffle_period: 2,
                probe_period: 3,
            })
            .finish()
            .unwrap();
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
    fn async_timing_survives_the_spec_round_trip_including_jitter() {
        let timing = gossip_core::TimingConfig {
            drift: 0.2,
            refresh_jitter: 0.5,
            min_latency: 16,
            max_latency: 128,
        };
        let scenario = ScenarioBuilder::new()
            .async_scheduler(timing)
            .finish()
            .unwrap();
        let cells = crate::parse_spec(&scenario.to_spec())
            .unwrap()
            .expand()
            .unwrap();
        assert_eq!(cells, vec![scenario]);
    }
}
