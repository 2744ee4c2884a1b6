//! Library half of the `gossip-sim` binary: a thin flag-parsing front-end
//! over the [`gossip_experiments`] crate, kept out of `main.rs` so
//! integration tests can drive the exact code path the binary runs.
//!
//! The CLI owns **no** experiment knowledge: every `--key value` flag is
//! one entry of the shared assignment vocabulary
//! ([`gossip_experiments::ASSIGNMENTS`]) fed verbatim into a
//! [`ScenarioBuilder`], or one row of a literal-flag table (`RUN_FLAGS`,
//! `GRID_FLAGS`: the execution-only knobs such as `--trace` and
//! `--cores`). One loop parses both, and the flag sections of [`usage`]
//! are generated from the same tables — so help text, the flag parser,
//! spec files, and grid axes cannot diverge. Validation lives entirely in
//! the builder's structured [`SpecError`](gossip_experiments::SpecError)s;
//! this crate only formats them.

use gossip_experiments::{
    assignment, effective_threads, join_errors, parse_spec, Axis, Grid, OutputFormat, Scenario,
    ScenarioBuilder, ASSIGNMENTS,
};

/// Outcome of argument parsing: run (or bench) a scenario sweep, expand
/// and run a grid, analyze output files, or print help.
// One Command exists per process; boxing the payloads to shrink the enum
// would be indirection for its own sake.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Command {
    Run {
        scenario: Scenario,
        /// `--trace FILE`: where the sweep's event stream goes. Like every
        /// literal flag it never enters the scenario or its `scenario_id`.
        trace: Option<String>,
        /// `bench`: every line ends in a `metrics` object of the run's
        /// clocks.
        metrics: bool,
    },
    /// A grid, already expanded into its validated cells (in the
    /// documented expansion order).
    Grid {
        scenarios: Vec<Scenario>,
        /// `--progress`: a per-cell heartbeat on stderr.
        progress: bool,
        /// `--cores N`: the cell pool's core budget, before the binary
        /// clamps it to the machine.
        cores: usize,
        /// `--checkpoint FILE`: one fsync'd record per completed cell.
        checkpoint: Option<String>,
        /// `--resume`: replay the checkpointed cells, run only the rest.
        resume: bool,
    },
    /// `analyze FILE...`: read run lines and trace streams, print the
    /// aggregate report (stdin when no files are given).
    Analyze(Vec<String>),
    Help,
}

/// The warning an invocation owes the user when a scenario of it asks for
/// more worker threads than the machine has — under either scheduler; the
/// clamp costs throughput only, never results. One per invocation: that of
/// the first over-subscribed scenario.
pub fn thread_clamp_warning(scenarios: &[Scenario]) -> Option<String> {
    scenarios
        .iter()
        .find_map(|scenario| effective_threads("--threads", scenario.scheduler.threads()).1)
}

/// Column where generated help text starts, matching the historical
/// hand-written layout.
const HELP_COL: usize = 48;

/// A flag the CLI keeps for itself instead of assigning it to the
/// scenario: an execution-only knob, so it never enters the builder or
/// a `scenario_id`.
struct Literal {
    key: &'static str,
    /// Value placeholder; `None` marks a switch.
    metavar: Option<&'static str>,
    help: &'static str,
}

/// The literal flags of a run or `bench`, listed after the assignments.
/// Every subcommand takes `--help` (and `-h`) before any other flag.
const RUN_FLAGS: &[Literal] = &[
    Literal {
        key: "trace",
        metavar: Some("FILE"),
        help: "stream every semantic event of every run to
FILE as schema-versioned JSONL (deterministic:
byte-identical at any thread count, results
unchanged); feed it to gossip-sim analyze",
    },
    Literal {
        key: "help",
        metavar: None,
        help: "print this help",
    },
];

/// The literal flags of `grid`; every other flag is a base assignment.
const GRID_FLAGS: &[Literal] = &[
    Literal {
        key: "spec",
        metavar: Some("FILE"),
        help: "spec file: [scenario] key = value base
assignments, [axis] key = v1, v2 sweep
axes (nesting order; last axis varies
fastest), [output] format/history",
    },
    Literal {
        key: "axis",
        metavar: Some("KEY=V1,V2,..."),
        help: "append one sweep axis (repeatable);
applied after the spec file's axes",
    },
    Literal {
        key: "cores",
        metavar: Some("N"),
        help: "global core budget for the cell pool,
capped at the machine's parallelism:
cells run on max(1, N / threads)
workers, started in cell order; stdout
stays byte-identical (modulo wall_ms)
to --cores 1 [default: 1]",
    },
    Literal {
        key: "checkpoint",
        metavar: Some("FILE"),
        help: "append one fsync'd JSONL record per
completed cell to FILE; a killed sweep
restarts from its checkpoint via --resume
instead of re-running finished cells",
    },
    Literal {
        key: "resume",
        metavar: None,
        help: "replay cells already recorded in the
--checkpoint file (verified against this
grid) and run only the remainder; the
combined stdout is byte-identical to an
uninterrupted run",
    },
    Literal {
        key: "progress",
        metavar: None,
        help: "per-cell heartbeat on stderr (done/total,
running count, ETA from the running
mean of completed-cell wall times,
per-worker active cell); stdout is
untouched",
    },
];

/// The full help text. The flag lines are generated from [`ASSIGNMENTS`]
/// and the literal-flag tables; only the framing prose is hand-written.
pub fn usage() -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(
        "gossip-sim: gossip experiments in the mobile telephone model

USAGE:
    gossip-sim [OPTIONS]
    gossip-sim grid [GRID OPTIONS] [OPTIONS]
    gossip-sim bench [OPTIONS]
    gossip-sim analyze [FILE...]

SUBCOMMANDS:
    grid     expand topology \u{d7} protocol \u{d7} scheduler \u{d7} \u{2026} axes into a full
             parameter grid and run every cell in one invocation, streaming
             one output line per run; each cell's result is byte-identical
             to the same scenario run standalone, at any --cores value
    bench    print run lines that end in a JSON metrics object: build and
             engine clocks, the engine's per-phase times and counters, its
             region load, and the spec that replays the line; defaults to a
             10^6-node advert ring capped at 64 rounds (JSON only)
    analyze  aggregate run lines and trace streams (files, or stdin when no
             files are given) into a plain-text report: rounds-to-completion
             percentiles per scenario, advert-vs-uniform speedup tables,
             dissemination-depth stats, and per-region load balance

GRID OPTIONS:
",
    );
    for flag in GRID_FLAGS {
        push_flag_lines(&mut out, flag.key, flag.metavar, flag.help);
    }
    out.push_str(
        "    plus every run option below as a base assignment shared by all cells
    (overriding the spec file's [scenario] section)

OPTIONS:
",
    );
    for def in ASSIGNMENTS {
        push_flag_lines(&mut out, def.key, def.metavar, def.help);
    }
    for flag in RUN_FLAGS {
        push_flag_lines(&mut out, flag.key, flag.metavar, flag.help);
    }
    out
}

/// Render one flag as aligned `    --key <METAVAR>   help` lines, with
/// embedded help newlines becoming aligned continuation lines.
fn push_flag_lines(out: &mut String, key: &str, metavar: Option<&str>, help: &str) {
    let flag = match metavar {
        Some(metavar) => format!("    --{key} <{metavar}>"),
        None => format!("    --{key}"),
    };
    let mut help_lines = help.lines();
    let first = help_lines.next().unwrap_or("");
    if flag.len() < HELP_COL {
        out.push_str(&format!("{flag:<HELP_COL$}{first}\n"));
    } else {
        out.push_str(&flag);
        out.push('\n');
        out.push_str(&" ".repeat(HELP_COL));
        out.push_str(first);
        out.push('\n');
    }
    for line in help_lines {
        out.push_str(&" ".repeat(HELP_COL));
        out.push_str(line);
        out.push('\n');
    }
}

/// Is this token the help flag?
fn is_help(arg: &str) -> bool {
    arg == "--help" || arg == "-h"
}

/// The one argument loop of `run`, `bench` and `grid`: each `--key` is one
/// of `literals` or an assignment of [`ASSIGNMENTS`], taking the next
/// token as its value unless it is a switch (`true`). Assignments go to
/// `assign` in argument order; the literal flags come back as `(key,
/// value)` pairs, or `None` when the list asks for help. An unknown flag
/// is an unknown `{command}argument`.
fn parse_flags(
    args: &[String],
    literals: &[Literal],
    command: &str,
    mut assign: impl FnMut(&'static str, String),
) -> Result<Option<Vec<(&'static str, String)>>, String> {
    let mut given = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if is_help(arg) {
            return Ok(None);
        }
        let key = arg.strip_prefix("--").unwrap_or_default();
        let literal = literals.iter().find(|flag| flag.key == key);
        let (key, metavar) = match (literal, assignment(key)) {
            (Some(flag), _) => (flag.key, flag.metavar),
            (None, Some(def)) => (def.key, def.metavar),
            (None, None) => return Err(format!("unknown {command}argument '{arg}' (try --help)")),
        };
        let value = match metavar {
            None => "true".to_string(),
            Some(_) => it
                .next()
                .cloned()
                .ok_or_else(|| format!("--{key} requires a value"))?,
        };
        match literal {
            Some(_) => given.push((key, value)),
            None => assign(key, value),
        }
    }
    Ok(Some(given))
}

/// The values `given` for literal `key`, in argument order.
fn values<'a>(given: &'a [(&str, String)], key: &'a str) -> impl Iterator<Item = &'a str> {
    given
        .iter()
        .filter(move |(k, _)| *k == key)
        .map(|(_, value)| value.as_str())
}

/// Parse CLI arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        // Bench's defaults: the 10^6-node advert ring the scale work
        // targets, for a 64-round budget.
        Some("bench") => {
            let mut builder = ScenarioBuilder::new();
            builder
                .set("nodes", "1000000")
                .set("protocol", "advert")
                .set("max-rounds", "64");
            parse_run_args(&args[1..], builder, true)
        }
        Some("grid") => parse_grid_args(&args[1..]),
        Some("analyze") => parse_analyze_args(&args[1..]),
        _ => parse_run_args(args, ScenarioBuilder::new(), false),
    }
}

/// Parse a run's arguments onto `builder`; with `metrics`, the lines are
/// bench lines, which are JSON-only.
fn parse_run_args(
    args: &[String],
    mut builder: ScenarioBuilder,
    metrics: bool,
) -> Result<Command, String> {
    let assign = |key, value: String| {
        builder.set(key, &value);
    };
    let Some(given) = parse_flags(args, RUN_FLAGS, "", assign)? else {
        return Ok(Command::Help);
    };
    let scenario = builder.finish().map_err(|errors| join_errors(&errors))?;
    if metrics && scenario.output.format == OutputFormat::Csv {
        return Err("bench lines end in a nested metrics object, which is JSON-only".to_string());
    }
    Ok(Command::Run {
        scenario,
        trace: values(&given, "trace").last().map(str::to_string),
        metrics,
    })
}

/// Parse the arguments of the `analyze` subcommand: just file paths (stdin
/// when none are given). Any `--flag` here is a mistake worth rejecting —
/// analyze takes no options.
fn parse_analyze_args(args: &[String]) -> Result<Command, String> {
    let mut paths = Vec::new();
    for arg in args {
        if is_help(arg) {
            return Ok(Command::Help);
        }
        if arg.starts_with('-') {
            return Err(format!("unknown analyze argument '{arg}' (try --help)"));
        }
        paths.push(arg.clone());
    }
    Ok(Command::Analyze(paths))
}

/// Parse the arguments of the `grid` subcommand: the [`GRID_FLAGS`], and
/// any run flags as base assignments overriding the spec file's
/// `[scenario]` section.
fn parse_grid_args(args: &[String]) -> Result<Command, String> {
    let mut base = Vec::new();
    let assign = |key, value| base.push((key, value));
    let Some(given) = parse_flags(args, GRID_FLAGS, "grid ", assign)? else {
        return Ok(Command::Help);
    };
    let cores = match values(&given, "cores").last() {
        None => 1,
        Some(raw) => match raw.parse() {
            Ok(0) => {
                return Err(
                    "--cores 0 is meaningless: the cell pool needs at least one core".to_string(),
                )
            }
            Ok(cores) => cores,
            Err(_) => return Err(format!("--cores '{raw}' is not a positive integer")),
        },
    };
    let checkpoint = values(&given, "checkpoint").last().map(str::to_string);
    let resume = values(&given, "resume").next().is_some();
    if resume && checkpoint.is_none() {
        return Err(
            "--resume replays a checkpoint file; pass --checkpoint FILE to name it".to_string(),
        );
    }
    let mut grid = match values(&given, "spec").last() {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("--spec {path}: cannot read spec file: {e}"))?;
            parse_spec(&text).map_err(|errors| join_errors(&errors))?
        }
        None => Grid::new(ScenarioBuilder::new()),
    };
    for (key, value) in &base {
        grid.base.set(key, value);
    }
    for raw in values(&given, "axis") {
        let (key, list) = raw
            .split_once('=')
            .ok_or_else(|| format!("--axis '{raw}': expected KEY=V1,V2,..."))?;
        grid.push_axis(Axis {
            key: key.trim().to_string(),
            values: list.split(',').map(|v| v.trim().to_string()).collect(),
        });
    }
    // Expand here, once: every axis and cell error exits before any
    // output is produced, and the binary runs exactly the cells the
    // parser validated.
    let scenarios = grid.expand().map_err(|e| e.to_string())?;
    let progress = values(&given, "progress").next().is_some();
    Ok(Command::Grid {
        scenarios,
        progress,
        cores,
        checkpoint,
        resume,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_dynamics::RejoinPolicy;
    use gossip_experiments::{
        AssignmentDef, DynamicsSpec, OutputFormat, Protocol, Scheduler, TopologySpec,
    };

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn parse_run(args: &[&str]) -> Scenario {
        match parse(args) {
            Ok(Command::Run { scenario, .. }) => scenario,
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn defaults_when_no_args() {
        assert_eq!(parse_run(&[]), Scenario::default());
    }

    #[test]
    fn full_flag_set_parses_into_typed_specs() {
        let scenario = parse_run(&[
            "--topology",
            "grid",
            "--nodes",
            "500",
            "--protocol",
            "advert",
            "--messages",
            "8",
            "--seed",
            "42",
            "--max-rounds",
            "1000",
            "--history",
        ]);
        assert_eq!(scenario.topology, TopologySpec::Grid);
        assert_eq!(scenario.nodes, 500);
        assert_eq!(scenario.protocol, Protocol::Advert);
        assert_eq!(scenario.messages, 8);
        assert_eq!(scenario.seed, 42);
        assert_eq!(scenario.max_rounds, Some(1000));
        assert!(scenario.output.history);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--topology", "torus"]).is_err());
        assert!(parse(&["--protocol", "psychic"]).is_err());
        assert!(parse(&["--nodes", "0"]).is_err());
        assert!(parse(&["--nodes", "many"]).is_err());
        assert!(parse(&["--messages", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--scheduler", "quantum"]).is_err());
        assert!(parse(&["--seeds", "0"]).is_err());
        assert!(parse(&["--drift", "1.0"]).is_err());
        assert!(parse(&["--drift", "-0.5"]).is_err());
        assert!(parse(&["--drift", "slow"]).is_err());
        assert!(parse(&["--min-latency", "300", "--max-latency", "200"]).is_err());
    }

    #[test]
    fn rejects_node_counts_past_the_node_id_range() {
        // `NodeId` is a `u32`; a larger count used to be accepted and then
        // never return. Flags, grid axes and spec files all assign through
        // `ScenarioBuilder::set`, so all three name the bound.
        let mut messages: Vec<String> = [
            &["--nodes", "5000000000"][..],
            &["--nodes", "4294967296"],
            &["bench", "--nodes", "4294967296"],
            &["grid", "--axis", "nodes=10,4294967296"],
        ]
        .iter()
        .map(|args| parse(args).unwrap_err())
        .collect();
        // What `grid --spec FILE` does once the file is read.
        let from_file = parse_spec("[scenario]\nnodes = 4294967296\n").unwrap();
        messages.push(from_file.expand().unwrap_err().to_string());
        for message in &messages {
            assert!(message.contains("nodes"), "{message}");
            assert!(message.contains("4294967295"), "{message}");
        }
        // The largest count inside the id range passes its key's check; a
        // run that large is then refused for its size instead.
        let largest = parse(&["--nodes", "4294967295"]).unwrap_err();
        assert!(!largest.contains("32-bit"), "{largest}");
        assert!(largest.contains("4294967296 words"), "{largest}");
    }

    #[test]
    fn refuses_scenarios_too_large_to_allocate() {
        // Each of these aborted (134) or panicked (101) allocating its
        // message matrix, source list or adjacency; each is refused before
        // anything is allocated, naming the bound or the size.
        for (args, named) in [
            (
                &["--nodes", "10", "--messages", "4294967296"][..],
                "message ids are 32-bit",
            ),
            (
                &["grid", "--nodes", "10", "--axis", "messages=1,4294967296"],
                "message ids are 32-bit",
            ),
            (
                &["--nodes", "64", "--messages", "18446744073709551615"],
                "message ids are 32-bit",
            ),
            (
                &["--nodes", "10", "--messages", "4294967295"],
                "4966055935 words",
            ),
            (
                &["--topology", "complete", "--nodes", "200000"],
                "39999800000 adjacency",
            ),
            (
                &["--nodes", "4194304", "--messages", "4096"],
                "268439552 words",
            ),
            (
                &["--topology", "complete", "--nodes", "16385"],
                "268451840 adjacency",
            ),
            (&["--nodes", "134217729"], "268435458 adjacency"),
            (
                &["--topology", "grid", "--nodes", "67108865"],
                "268435460 adjacency",
            ),
            (
                &["--topology", "rgg", "--radius", "1.5", "--nodes", "60000"],
                "3599940000 adjacency",
            ),
            // Adaptive: 94 expected neighbours at the starting radius.
            (
                &["--topology", "rgg", "--nodes", "3000000"],
                "282000000 adjacency",
            ),
            (
                &[
                    "--membership",
                    "hyparview",
                    "--nodes",
                    "100000",
                    "--passive-view",
                    "3000",
                ],
                "100000 x (5 + 3000) = 300500000 view slots",
            ),
        ] {
            let message = parse(args).unwrap_err();
            assert!(message.contains(named), "{args:?}: {message}");
        }
        // One step inside the bound, all still parse.
        parse_run(&["--nodes", "4194304", "--messages", "4032"]);
        parse_run(&["--topology", "complete", "--nodes", "16384"]);
        parse_run(&["--nodes", "134217728"]);
        parse_run(&["--topology", "grid", "--nodes", "67108864"]);
        parse_run(&["--topology", "rgg", "--nodes", "1000000"]);
        // A view never needs more than `nodes - 1` slots, so a huge
        // passive view on a small scenario stays small.
        parse_run(&[
            "--membership",
            "hyparview",
            "--nodes",
            "100",
            "--passive-view",
            "1000000000",
        ]);
    }

    #[test]
    fn errors_accumulate_rather_than_stopping_at_the_first() {
        let message = parse(&["--nodes", "0", "--churn-rate", "2.0"]).unwrap_err();
        assert!(message.contains("nodes"), "{message}");
        assert!(message.contains("churn"), "{message}");
    }

    #[test]
    fn dynamics_flags_parse() {
        let scenario = parse_run(&[
            "--churn-rate",
            "0.2",
            "--rejoin",
            "lose",
            "--fade-prob",
            "0.05",
        ]);
        let churn = scenario.dynamics.churn.expect("churn enabled");
        assert_eq!(churn.rate, 0.2);
        assert_eq!(churn.rejoin, RejoinPolicy::Lose);
        assert_eq!(scenario.dynamics.fading.map(|f| f.fade_prob), Some(0.05));
        assert_ne!(scenario.dynamics, DynamicsSpec::default());
        assert_eq!(Scenario::default().dynamics, DynamicsSpec::default());

        let scenario = parse_run(&["--topology", "rgg", "--mobility"]);
        let mobile = DynamicsSpec {
            mobility: true,
            ..DynamicsSpec::default()
        };
        assert_eq!(scenario.dynamics, mobile);

        let scenario = parse_run(&["--format", "csv"]);
        assert_eq!(scenario.output.format, OutputFormat::Csv);
    }

    #[test]
    fn radius_flag_is_rgg_only() {
        let scenario = parse_run(&["--topology", "rgg", "--radius", "0.2"]);
        assert_eq!(scenario.topology, TopologySpec::Rgg { radius: Some(0.2) });
        // The alias normalizes at parse time and still takes a radius.
        let aliased = parse_run(&["--topology", "random_geometric", "--radius", "0.2"]);
        assert_eq!(aliased.topology, scenario.topology);
        assert!(parse(&["--radius", "0.2"]).is_err(), "ring has no radius");
        assert!(parse(&["--topology", "rgg", "--radius", "0"]).is_err());
        assert!(parse(&["--topology", "rgg", "--radius", "-1"]).is_err());
        assert!(parse(&["--topology", "rgg", "--radius", "wide"]).is_err());
    }

    #[test]
    fn rejects_degenerate_dynamics_configs() {
        // Explicit zero-rate dynamics is a config bug, not a static run.
        assert!(parse(&["--churn-rate", "0"]).is_err());
        assert!(parse(&["--churn-rate", "0.0"]).is_err());
        assert!(parse(&["--fade-prob", "0"]).is_err());
        // Out-of-range and non-numeric rates.
        assert!(parse(&["--churn-rate", "1.0"]).is_err());
        assert!(parse(&["--churn-rate", "-0.1"]).is_err());
        assert!(parse(&["--churn-rate", "often"]).is_err());
        assert!(parse(&["--churn-rate", "NaN"]).is_err());
        assert!(parse(&["--fade-prob", "1.5"]).is_err());
        // Policy without churn, unknown policy, and model conflicts.
        assert!(parse(&["--rejoin", "keep"]).is_err());
        assert!(parse(&["--rejoin", "banana", "--churn-rate", "0.1"]).is_err());
        assert!(parse(&["--mobility"]).is_err(), "mobility needs rgg");
        assert!(parse(&["--mobility", "--topology", "grid"]).is_err());
        assert!(parse(&["--mobility", "--topology", "rgg", "--fade-prob", "0.1"]).is_err());
        // Output-format conflicts.
        assert!(parse(&["--format", "xml"]).is_err());
        assert!(parse(&["--format", "csv", "--history"]).is_err());
        // Degenerate node counts stay rejected alongside the new flags.
        assert!(parse(&["--nodes", "0", "--churn-rate", "0.1"]).is_err());
    }

    #[test]
    fn scheduler_and_timing_flags_parse() {
        let scenario = parse_run(&[
            "--scheduler",
            "async",
            "--seeds",
            "8",
            "--drift",
            "0.25",
            "--min-latency",
            "10",
            "--max-latency",
            "500",
        ]);
        assert_eq!(scenario.seeds, 8);
        let Scheduler::Async { timing, threads } = scenario.scheduler else {
            panic!("expected the async scheduler");
        };
        assert_eq!(timing.drift, 0.25);
        assert_eq!(timing.min_latency, 10);
        assert_eq!(timing.max_latency, 500);
        assert_eq!(threads, 1);
    }

    #[test]
    fn help_flag_wins() {
        assert!(matches!(
            parse(&["--nodes", "5", "--help"]),
            Ok(Command::Help)
        ));
        assert!(matches!(parse(&["bench", "--help"]), Ok(Command::Help)));
        assert!(matches!(parse(&["grid", "--help"]), Ok(Command::Help)));
    }

    #[test]
    fn threads_flag_parses_and_is_validated() {
        let scenario = parse_run(&["--threads", "4"]);
        assert_eq!(scenario.scheduler, Scheduler::Sync { threads: 4 });
        assert_eq!(
            Scenario::default().scheduler,
            Scheduler::Sync { threads: 1 }
        );
        assert!(parse(&["--threads", "0"]).is_err(), "zero workers rejected");
        assert!(parse(&["--threads", "many"]).is_err());
        // The time-sliced async engine shards over threads too.
        let scenario = parse_run(&["--threads", "2", "--scheduler", "async"]);
        assert!(matches!(
            scenario.scheduler,
            Scheduler::Async { threads: 2, .. }
        ));
    }

    #[test]
    fn over_subscribed_threads_warn_under_either_scheduler() {
        let too_many = usize::MAX.to_string();
        for scheduler in ["sync", "async"] {
            let mut cells = vec![parse_run(&["--scheduler", scheduler, "--threads", "1"])];
            assert_eq!(thread_clamp_warning(&cells), None);
            cells.push(parse_run(&[
                "--scheduler",
                scheduler,
                "--threads",
                &too_many,
            ]));
            let warning = thread_clamp_warning(&cells)
                .unwrap_or_else(|| panic!("{scheduler}: the clamp must not be silent"));
            assert!(warning.contains("capping at"), "{warning}");
            assert!(warning.contains(&too_many), "{warning}");
        }
        assert_eq!(thread_clamp_warning(&[]), None);
    }

    /// `args` parsed as a bench: a run whose lines carry metrics.
    fn parse_bench(args: &[&str]) -> Scenario {
        match parse(args) {
            Ok(Command::Run {
                scenario,
                metrics: true,
                ..
            }) => scenario,
            other => panic!("expected a bench run, got {other:?}"),
        }
    }

    #[test]
    fn bench_subcommand_parses() {
        let bench = parse_bench(&["bench"]);
        assert_eq!(bench.max_rounds, Some(64));
        assert_eq!(bench.nodes, 1_000_000);
        assert_eq!(bench.protocol, Protocol::Advert);
        assert!(matches!(
            parse(&[]),
            Ok(Command::Run { metrics: false, .. })
        ));

        let bench = parse_bench(&[
            "bench",
            "--topology",
            "grid",
            "--nodes",
            "5000",
            "--protocol",
            "uniform",
            "--threads",
            "2",
            "--max-rounds",
            "16",
            "--seed",
            "9",
            "--seeds",
            "3",
        ]);
        assert_eq!(bench.topology, TopologySpec::Grid);
        assert_eq!(bench.nodes, 5000);
        assert_eq!(bench.protocol, Protocol::Uniform);
        assert_eq!(bench.scheduler, Scheduler::Sync { threads: 2 });
        assert_eq!(bench.max_rounds, Some(16));
        assert_eq!((bench.seed, bench.seeds), (9, 3));

        // The dynamics and membership keys reach the bench scenario, with
        // the run front-end's validation.
        let bench = parse_bench(&[
            "bench",
            "--topology",
            "rgg",
            "--churn-rate",
            "0.05",
            "--rejoin",
            "keep",
            "--mobility",
            "--membership",
            "hyparview",
            "--active-view",
            "4",
        ]);
        assert!(bench.dynamics.mobility && bench.dynamics.churn.is_some());
        assert!(bench.scenario_id().contains("-mem@a4p30"));

        // Run's errors, word for word.
        for args in [
            &["--mobility"][..],
            &["--probe-period", "2"],
            &["--max-rounds", "many"],
            &["--threads", "0"],
            &["--topology", "torus"],
            &["--rounds", "8"],
        ] {
            let bench = parse(&[&["bench"][..], args].concat()).unwrap_err();
            assert_eq!(bench, parse(args).unwrap_err(), "{args:?}");
        }
        let csv = parse(&["bench", "--format", "csv"]).unwrap_err();
        assert!(csv.contains("JSON-only"), "{csv}");
    }

    #[test]
    fn grid_subcommand_parses_axes_and_base_flags() {
        let Ok(Command::Grid {
            scenarios: cells,
            progress,
            cores,
            checkpoint,
            resume,
        }) = parse(&[
            "grid",
            "--nodes",
            "40",
            "--seed",
            "3",
            "--axis",
            "topology=ring,grid",
            "--axis",
            "protocol=uniform,advert",
        ])
        else {
            panic!("expected Grid");
        };
        assert_eq!(cells.len(), 4);
        assert!(cells.iter().all(|s| s.nodes == 40 && s.seed == 3));
        assert!(!progress, "progress defaults off");
        assert_eq!(cores, 1, "serial by default");
        assert!(checkpoint.is_none() && !resume);

        let Ok(Command::Grid { progress, .. }) =
            parse(&["grid", "--progress", "--axis", "seed=1,2"])
        else {
            panic!("expected Grid");
        };
        assert!(progress);

        assert!(parse(&["grid", "--axis", "nonsense"]).is_err());
        assert!(parse(&["grid", "--axis", "warp=1,2"]).is_err());
        assert!(parse(&["grid", "--axis", "topology=torus"]).is_err());
        assert!(parse(&["grid", "--spec", "/nonexistent/file.spec"]).is_err());
        assert!(parse(&["grid", "--seeds"]).is_err());
    }

    #[test]
    fn grid_pool_flags_parse() {
        let Ok(Command::Grid {
            cores,
            checkpoint,
            resume,
            ..
        }) = parse(&[
            "grid",
            "--cores",
            "4",
            "--checkpoint",
            "cp.jsonl",
            "--resume",
            "--axis",
            "seed=1,2",
        ])
        else {
            panic!("expected Grid");
        };
        assert_eq!(cores, 4);
        assert_eq!(checkpoint.as_deref(), Some("cp.jsonl"));
        assert!(resume);

        // The pool knobs are execution-only: the expanded cells are the
        // same with or without them.
        let cells_of = |args: &[&str]| match parse(args) {
            Ok(Command::Grid { scenarios, .. }) => scenarios,
            other => panic!("expected Grid, got {other:?}"),
        };
        assert_eq!(
            cells_of(&["grid", "--cores", "8", "--axis", "seed=1,2"]),
            cells_of(&["grid", "--axis", "seed=1,2"])
        );

        assert!(parse(&["grid", "--cores"]).is_err(), "--cores needs N");
        assert!(parse(&["grid", "--cores", "0"]).is_err());
        assert!(parse(&["grid", "--cores", "many"]).is_err());
        assert!(parse(&["grid", "--checkpoint"]).is_err());
        assert!(
            parse(&["grid", "--resume", "--axis", "seed=1,2"]).is_err(),
            "--resume without --checkpoint has no file to replay"
        );
        assert!(
            parse(&["--cores", "4"]).is_err(),
            "the core budget is grid-only"
        );
        assert!(parse(&["bench", "--cores", "4"]).is_err());
    }

    #[test]
    fn soak_is_refused() {
        // An unknown argument like any other: the binary exits 2 on it.
        let message = parse(&["soak", "BENCH_a.json"]).unwrap_err();
        assert!(message.contains("unknown argument 'soak'"), "{message}");
        let usage = usage();
        assert!(!usage.contains("soak"), "{usage}");
        assert!(!usage.contains("SOAK OPTIONS"), "{usage}");
    }

    #[test]
    fn trace_flag_is_execution_only() {
        let Ok(Command::Run {
            scenario, trace, ..
        }) = parse(&["--nodes", "50", "--trace", "out.jsonl"])
        else {
            panic!("expected Run");
        };
        assert_eq!(trace.as_deref(), Some("out.jsonl"));
        // The traced scenario is the same scenario: --trace never reaches
        // the builder, so ids (and thus output lines) are unchanged.
        assert_eq!(scenario, parse_run(&["--nodes", "50"]));
        assert_eq!(parse_run(&["--nodes", "50"]).scenario_id(), {
            let Ok(Command::Run { scenario, .. }) = parse(&["--nodes", "50", "--trace", "t"])
            else {
                panic!("expected Run");
            };
            scenario.scenario_id()
        });

        assert!(parse(&["--trace"]).is_err(), "--trace requires a path");
        assert!(
            parse(&["grid", "--trace", "t"]).is_err(),
            "tracing a whole grid is not supported"
        );
        assert_eq!(
            parse_bench(&["bench", "--trace", "t"]),
            parse_bench(&["bench"])
        );
    }

    #[test]
    fn analyze_subcommand_parses() {
        let Ok(Command::Analyze(paths)) = parse(&["analyze", "a.jsonl", "b.jsonl"]) else {
            panic!("expected Analyze");
        };
        assert_eq!(paths, vec!["a.jsonl".to_string(), "b.jsonl".to_string()]);

        let Ok(Command::Analyze(paths)) = parse(&["analyze"]) else {
            panic!("expected Analyze");
        };
        assert!(paths.is_empty(), "no files means stdin");

        assert!(matches!(parse(&["analyze", "--help"]), Ok(Command::Help)));
        assert!(parse(&["analyze", "--frobnicate"]).is_err());
        assert!(parse(&["analyze", "-"]).is_err());
    }

    #[test]
    fn usage_is_generated_from_the_assignment_table() {
        let usage = usage();
        // Every key appears as a flag line.
        for def in ASSIGNMENTS {
            assert!(
                usage.contains(&format!("--{}", def.key)),
                "usage missing --{}",
                def.key
            );
        }
        // Conversely, every --flag token in the help is either a table
        // key or a row of a literal-flag table — so the help can never
        // advertise a flag the parser rejects.
        let literals: Vec<&Literal> = RUN_FLAGS.iter().chain(GRID_FLAGS).collect();
        for flag in &literals {
            assert!(usage.contains(&format!("--{}", flag.key)), "{}", flag.key);
        }
        for token in usage.split_whitespace() {
            let Some(key) = token.strip_prefix("--") else {
                continue;
            };
            let known = ASSIGNMENTS.iter().any(|d| d.key == key)
                || literals.iter().any(|flag| flag.key == key);
            assert!(known, "usage advertises unknown flag --{key}");
        }
        // And every flag round-trips through the parser with a
        // representative value.
        let sample = |def: &AssignmentDef| -> Vec<String> {
            let flag = format!("--{}", def.key);
            match def.metavar {
                None => vec![flag],
                Some(_) => {
                    let value = match def.key {
                        "topology" => "rgg",
                        "protocol" => "advert",
                        "scheduler" => "sync",
                        "rejoin" => "keep",
                        "membership" => "hyparview",
                        "format" => "json",
                        "drift" | "radius" | "churn-rate" | "fade-prob" | "refresh-jitter" => "0.1",
                        "min-latency" | "max-latency" => "100",
                        _ => "3",
                    };
                    vec![flag, value.to_string()]
                }
            }
        };
        for def in ASSIGNMENTS {
            let mut args: Vec<String> = vec!["--topology".into(), "rgg".into()];
            if def.key == "rejoin" {
                args.extend(["--churn-rate".into(), "0.1".into()]);
            }
            if matches!(
                def.key,
                "active-view" | "passive-view" | "shuffle-period" | "probe-period"
            ) {
                args.extend(["--membership".into(), "hyparview".into()]);
            }
            args.extend(sample(def));
            let parsed = parse_args(&args);
            assert!(parsed.is_ok(), "--{} failed to parse: {parsed:?}", def.key);
        }
    }
}
