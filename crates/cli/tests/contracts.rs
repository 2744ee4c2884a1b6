//! The binary's determinism contract: a run line depends on its scenario
//! alone — not on `--threads`, `--cores` or `--trace`, not on running
//! inside a grid, and not on a kill and resume. Each relation is one
//! function; each checked scenario is one row of [`ROWS`], holding the
//! flags CI has always checked it at and a small size for tier-1.
//!
//! `contracts_hold` runs every row at its small size. The ignored
//! `contracts_hold_at_ci_size` runs every row at full size; CI runs it in
//! the build that ships:
//!
//! ```sh
//! cargo test -p gossip-cli --release --test contracts -- --ignored
//! ```

mod common;

use common::{command, gossip_sim, root, strip};
use gossip_cli::{parse_args, Command};
use gossip_experiments::assignment;
use gossip_telemetry::json::{self, Value};

use std::fs;
use std::process::Stdio;
use std::time::{Duration, Instant};

/// What a grid relation strips: a cell's line differs from the same
/// scenario's only in its wall clock.
const GRID: &[&str] = &["wall_ms"];
/// What a thread or trace relation strips: the worker count too.
const RUN: &[&str] = &["wall_ms", "threads"];
/// What a bench relation strips: the bench's clocks too.
const BENCH: &[&str] = &["wall_ms", "threads", "metrics"];

/// The relation a row must satisfy, with the counts its CI step used.
enum Relation {
    /// [`threads_invariant`] at `--threads 1` against this count.
    ThreadsInvariant(&'static str),
    /// [`cores_invariant`]: the serial grid against `--cores` this.
    CoresInvariant(&'static str),
    /// [`grid_equals_standalone`].
    GridEqualsStandalone,
    /// [`resume_equals_uninterrupted`], the killed grids at `--cores`
    /// this.
    ResumeEqualsUninterrupted(&'static str),
    /// [`traced_equals_untraced`], traced at `--threads 1` and this.
    TracedEqualsUntraced(&'static str),
    /// [`bench_equals_run`], benched at `--threads 1` and this.
    BenchEqualsRun(&'static str),
    /// [`analyze_reports`] over the row's traced run and these sweeps.
    AnalyzeReports(Report),
    /// [`refused`], naming this size.
    Refused(&'static str),
}

/// What `analyze` must print for an [`Relation::AnalyzeReports`] row.
struct Report {
    /// Runs whose stdout is analyzed along with the row's trace.
    sweeps: &'static [&'static str],
    /// Substrings the report must contain.
    required: &'static [&'static str],
    /// Counts, each printed as `label N`, that must be positive.
    counts: &'static [&'static str],
    /// The least advert-vs-uniform p50 speedup on the sync ring.
    ring_speedup: Option<f64>,
}

/// One checked scenario.
struct Row {
    /// Names the row when it fails.
    name: &'static str,
    relation: Relation,
    /// The flags CI checks the row at. `$v` stands for the list
    /// `1,2,…,1000`.
    flags: &'static str,
    /// `--key value` pairs that replace `flags`' own in tier-1.
    small: &'static str,
    /// Dotted JSON paths that must be positive on every line the row
    /// checks.
    positive: &'static [&'static str],
}

const fn row(
    name: &'static str,
    relation: Relation,
    flags: &'static str,
    small: &'static str,
) -> Row {
    Row {
        name,
        relation,
        flags,
        small,
        positive: &[],
    }
}

impl Row {
    const fn positive(self, positive: &'static [&'static str]) -> Row {
        Row { positive, ..self }
    }
}

use Relation::*;

/// Waypoint mobility, churn and the HyParView overlay on an RGG.
macro_rules! mobile {
    () => {
        "--topology rgg --nodes 2000 --protocol advert --seed 42 --churn-rate 0.05 \
         --rejoin keep --mobility --membership hyparview"
    };
}

const ROWS: &[Row] = &[
    // Both engines on the acceptance ring, static and churned.
    row(
        "acceptance-sync",
        ThreadsInvariant("8"),
        "--topology ring --nodes 1000 --protocol advert --seed 42 --scheduler sync",
        "--nodes 300",
    ),
    row(
        "acceptance-async",
        ThreadsInvariant("8"),
        "--topology ring --nodes 1000 --protocol advert --seed 42 --scheduler async",
        "--nodes 200",
    ),
    row(
        "churn-sync",
        ThreadsInvariant("8"),
        "--topology ring --nodes 1000 --protocol advert --seed 42 --scheduler sync \
         --churn-rate 0.1 --rejoin keep",
        "--nodes 200",
    ),
    row(
        "churn-async",
        ThreadsInvariant("8"),
        "--topology ring --nodes 1000 --protocol advert --seed 42 --scheduler async \
         --churn-rate 0.1 --rejoin keep",
        "--nodes 200",
    ),
    // Waypoint mobility + churn + HyParView: a batch of kills, revives
    // and rewires lands before the topology settles its views once. Each
    // side is a fresh process, so a run-to-run difference fails too.
    row(
        "mobile-sync",
        ThreadsInvariant("8"),
        concat!(mobile!(), " --scheduler sync"),
        "--nodes 300",
    )
    .positive(&["dynamics.rewires"]),
    row(
        "views-sync",
        ThreadsInvariant("2"),
        concat!(
            mobile!(),
            " --scheduler sync --active-view 3 --passive-view 7"
        ),
        "--nodes 300",
    )
    .positive(&["dynamics.rewires"]),
    row(
        "mobile-async",
        ThreadsInvariant("2"),
        concat!(mobile!(), " --scheduler async"),
        "--nodes 300",
    )
    .positive(&["dynamics.rewires"]),
    row(
        "views-async",
        ThreadsInvariant("2"),
        concat!(
            mobile!(),
            " --scheduler async --active-view 3 --passive-view 7"
        ),
        "--nodes 300",
    )
    .positive(&["dynamics.rewires"]),
    // Proposal-heavy uniform sync, and the sliced engine static and
    // churning.
    row(
        "grid-uniform",
        ThreadsInvariant("8"),
        "--topology grid --nodes 20000 --protocol uniform --seed 3",
        "--nodes 400",
    ),
    row(
        "grid-advert-async",
        ThreadsInvariant("8"),
        "--topology grid --nodes 20000 --protocol advert --scheduler async --seed 3",
        "--nodes 400",
    ),
    row(
        "churn-ring-async",
        ThreadsInvariant("8"),
        "--topology ring --nodes 5000 --protocol advert --scheduler async --seed 3 \
         --churn-rate 0.1 --rejoin keep",
        "--nodes 200",
    ),
    // Degree ~60: most tag reads cross a region edge and take the
    // start-of-slice snapshot side.
    row(
        "rgg-advert-async",
        ThreadsInvariant("8"),
        "--topology rgg --nodes 3000 --protocol advert --scheduler async --max-rounds 40",
        "--nodes 300",
    ),
    // k = n > 64: tags are salted hashes of per-row digests.
    row(
        "hashed-sync",
        ThreadsInvariant("8"),
        "--topology grid --nodes 900 --messages 900 --protocol advert --scheduler sync --seed 3",
        "--nodes 100 --messages 100",
    ),
    row(
        "hashed-async",
        ThreadsInvariant("8"),
        "--topology grid --nodes 900 --messages 900 --protocol advert --scheduler async --seed 3",
        "--nodes 100 --messages 100",
    ),
    // The slice-bucketed event queue's two edges: whole chains at one
    // tick below the horizon, and handshakes beyond the bucket ring.
    row(
        "zero-latency-async",
        ThreadsInvariant("8"),
        "--topology ring --nodes 20000 --protocol advert --scheduler async \
         --min-latency 0 --max-latency 0",
        "--nodes 200",
    ),
    row(
        "far-latency-async",
        ThreadsInvariant("8"),
        "--topology ring --nodes 20000 --protocol advert --scheduler async \
         --max-latency 100000 --max-rounds 200",
        "--nodes 200",
    ),
    // The failure detector reclaiming dead peers' links keeps completion
    // reachable; its tick is serial, so no thread count may show.
    row(
        "membership-sync",
        ThreadsInvariant("8"),
        "--topology rgg --nodes 10000 --protocol advert --seed 42 --scheduler sync \
         --churn-rate 0.05 --rejoin keep --membership hyparview",
        "--nodes 300",
    ),
    row(
        "membership-async",
        ThreadsInvariant("8"),
        "--topology rgg --nodes 10000 --protocol advert --seed 42 --scheduler async \
         --churn-rate 0.05 --rejoin keep --membership hyparview",
        "--nodes 300",
    ),
    // The cell pool streams the serial grid's bytes.
    row(
        "grid-smoke-cores",
        CoresInvariant("4"),
        "grid --spec examples/grid-smoke.spec",
        "",
    ),
    row(
        "membership-axis-cores",
        CoresInvariant("4"),
        "grid --topology ring --nodes 2000 --protocol advert --seed 7 \
         --axis membership=full,hyparview --axis scheduler=sync,async",
        "--nodes 200",
    ),
    row(
        "grid-smoke-standalone",
        GridEqualsStandalone,
        "grid --spec examples/grid-smoke.spec",
        "",
    ),
    row(
        "kill-and-resume",
        ResumeEqualsUninterrupted("2"),
        "grid --nodes 12000 --protocol advert --axis seed=1,2,3,4,5,6",
        "--nodes 400",
    ),
    // A static sync ring writes four of the trace schema's rows; the
    // mobile churned overlay on the async engine writes thirteen; the
    // static async grid sends ~90k handshakes through both callers of
    // the sliced engine's one connection handler.
    row(
        "traced-ring",
        TracedEqualsUntraced("8"),
        "--topology ring --nodes 10000 --protocol advert --seed 7",
        "--nodes 200",
    ),
    row(
        "traced-mobile-async",
        TracedEqualsUntraced("8"),
        concat!(mobile!(), " --scheduler async --max-rounds 30"),
        "--nodes 300",
    ),
    row(
        "traced-grid-async",
        TracedEqualsUntraced("8"),
        "--topology grid --nodes 20000 --protocol uniform --scheduler async --max-rounds 10",
        "--nodes 400",
    ),
    // All four sync phases and the sliced loop run under 8 workers; the
    // mobile regime clocks the drain and the overlay tick in `sweep`. A
    // run defaults to uniform where bench defaults to advert, so the
    // mobile row names its protocol.
    row(
        "bench-ring",
        BenchEqualsRun("8"),
        "--topology ring --nodes 100000 --protocol advert --max-rounds 64 --seed 7",
        "--nodes 2000",
    ),
    row(
        "bench-ring-async",
        BenchEqualsRun("8"),
        "--topology ring --nodes 100000 --protocol advert --scheduler async \
         --max-rounds 64 --seed 7",
        "--nodes 2000",
    ),
    row(
        "bench-mobile-async",
        BenchEqualsRun("8"),
        "--topology rgg --nodes 2000 --protocol advert --churn-rate 0.05 --rejoin keep \
         --mobility --membership hyparview --scheduler async --max-rounds 8",
        "--nodes 300",
    )
    .positive(&["metrics.phase_ms.sweep", "rounds_executed"]),
    // The paper's headline: advert beats uniform by more than 2x on the
    // ring.
    row(
        "analyze-advert-vs-uniform",
        AnalyzeReports(Report {
            sweeps: &[
                "--topology ring --nodes 1000 --protocol advert --seed 1 --seeds 10",
                "--topology ring --nodes 1000 --protocol uniform --seed 1 --seeds 10",
            ],
            required: &[
                "rounds to completion",
                "p50",
                "advert vs uniform speedup",
                "region balance",
            ],
            counts: &[],
            ring_speedup: Some(2.0),
        }),
        "--topology ring --nodes 10000 --protocol advert --seed 7",
        "--nodes 100",
    ),
    row(
        "analyze-mobile-trace",
        AnalyzeReports(Report {
            sweeps: &[],
            required: &["membership events: join"],
            counts: &["sever", "mutate"],
            ring_speedup: None,
        }),
        concat!(mobile!(), " --scheduler async --max-rounds 30"),
        "--nodes 300",
    ),
    // Sizes are user input: each is a usage error before anything is
    // sized by it, not an allocator abort or a capacity-overflow panic.
    row(
        "refused-cells",
        Refused("1000 x 1000 x 1000 x 1000 x 1000 = 1000000000000000 cells"),
        "grid --axis seed=$v --axis nodes=$v --axis messages=$v --axis max-rounds=$v \
         --axis seeds=$v",
        "",
    ),
    row(
        "refused-cells-past-u64",
        Refused("more than 2^64 cells"),
        "grid --axis seed=$v --axis nodes=$v --axis messages=$v --axis max-rounds=$v \
         --axis seeds=$v --axis drift=$v --axis churn-rate=$v",
        "",
    ),
    row(
        "refused-runs",
        Refused("1000000000000 runs"),
        "grid --nodes 4 --seeds 1000000000000",
        "",
    ),
    row(
        "refused-messages",
        Refused("at most 4294967295"),
        "--nodes 10 --messages 4294967296",
        "",
    ),
    row(
        "refused-messages-axis",
        Refused("at most 4294967295"),
        "grid --nodes 10 --axis messages=1,4294967296",
        "",
    ),
    row(
        "refused-messages-u64",
        Refused("at most 4294967295"),
        "--nodes 64 --messages 18446744073709551615",
        "",
    ),
    row(
        "refused-complete",
        Refused("39999800000 adjacency entries"),
        "--topology complete --nodes 200000",
        "",
    ),
    row(
        "refused-rgg",
        Refused("3599940000 adjacency entries"),
        "--topology rgg --radius 1.5 --nodes 60000",
        "",
    ),
    row(
        "refused-views",
        Refused("300500000 view slots"),
        "--membership hyparview --nodes 100000 --passive-view 3000",
        "",
    ),
];

/// The arguments of `flags`, `$v` expanded, with `small`'s pairs
/// replacing their own keys' values when given.
fn expand(flags: &str, small: Option<&str>) -> Vec<String> {
    let v = (1..=1000)
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut args: Vec<String> = flags
        .split_whitespace()
        .map(|arg| arg.replace("$v", &v))
        .collect();
    let small: Vec<&str> = small.unwrap_or_default().split_whitespace().collect();
    for pair in small.chunks(2) {
        args = with(&args, pair[0], pair[1]);
    }
    args
}

/// `args` with flag `key` set to `value`: replaced where given, appended
/// otherwise.
fn with(args: &[String], key: &str, value: &str) -> Vec<String> {
    let mut args = args.to_vec();
    match args.iter().position(|arg| arg == key) {
        Some(at) => args[at + 1] = value.to_string(),
        None => args.extend([key.to_string(), value.to_string()]),
    }
    args
}

/// The stdout of a run of `args` that must exit 0.
fn run(args: &[String]) -> String {
    let (code, stdout, stderr) = gossip_sim(args, None);
    assert_eq!(code, Some(0), "gossip-sim {}: {stderr}", args.join(" "));
    stdout
}

/// Each line of `out` with `fields` stripped.
fn lines(out: &str, fields: &[&str]) -> Vec<String> {
    out.lines().map(|line| strip(line, fields)).collect()
}

/// The path of a scratch file of this process for `row`.
fn scratch(row: &str, what: &str) -> String {
    let name = format!("contracts-{}-{row}-{what}", std::process::id());
    std::env::temp_dir().join(name).display().to_string()
}

/// The bytes of file `path`, which is removed.
fn take(path: &str) -> Vec<u8> {
    let bytes = fs::read(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    fs::remove_file(path).unwrap();
    bytes
}

/// Run lines at `--threads 1` and `--threads {t}` are equal once
/// `wall_ms` and `threads` go, and when `args` trace, so are the two
/// trace files, byte for byte. Returns the 1-thread stdout.
fn threads_invariant(args: &[String], t: &str) -> String {
    let trace = args.iter().position(|arg| arg == "--trace");
    let side = |threads: &str| {
        let mut args = with(args, "--threads", threads);
        let trace = trace.map(|at| format!("{}.t{threads}", args[at + 1]));
        if let Some(path) = &trace {
            args = with(&args, "--trace", path);
        }
        (run(&args), trace.map(|path| take(&path)))
    };
    let (one, one_trace) = side("1");
    let (many, many_trace) = side(t);
    assert_eq!(lines(&one, RUN), lines(&many, RUN), "--threads 1 vs {t}");
    assert!(one_trace == many_trace, "trace bytes at --threads 1 vs {t}");
    one
}

/// The serial grid's stdout equals the cell pool's at `--cores {cores}`
/// once `wall_ms` goes.
fn cores_invariant(args: &[String], cores: &str) -> String {
    let serial = run(args);
    let pooled = run(&with(args, "--cores", cores));
    assert_eq!(
        lines(&serial, GRID),
        lines(&pooled, GRID),
        "--cores 1 vs {cores}"
    );
    serial
}

/// The `grid` invocation `args` prints what its cells print run
/// standalone, in order, once `wall_ms` goes. A cell's flags are its
/// `to_spec()`, so no nest order is written down twice.
fn grid_equals_standalone(args: &[String]) -> String {
    let mut at_root = args.to_vec();
    if let Some(at) = args.iter().position(|arg| arg == "--spec") {
        at_root[at + 1] = root().join(&args[at + 1]).display().to_string();
    }
    let Ok(Command::Grid { scenarios, .. }) = parse_args(&at_root) else {
        panic!("not a grid: {args:?}");
    };
    let grid = run(args);
    let standalone: String = scenarios
        .iter()
        .map(|cell| run(&spec_flags(&cell.to_spec())))
        .collect();
    assert_eq!(
        lines(&grid, GRID),
        lines(&standalone, GRID),
        "grid vs standalone"
    );
    grid
}

/// The run flags that say what the `key = value` lines of `spec` say.
fn spec_flags(spec: &str) -> Vec<String> {
    let mut flags = Vec::new();
    for (key, value) in spec.lines().filter_map(|line| line.split_once(" = ")) {
        let def = assignment(key).unwrap_or_else(|| panic!("unknown key {key}"));
        flags.push(format!("--{key}"));
        match def.metavar {
            Some(_) => flags.push(value.to_string()),
            None => assert_eq!(value, "true", "a switch is written only when on"),
        }
    }
    flags
}

/// A checkpointed grid killed twice mid-run at `--cores {cores}` — each
/// kill followed by a cut of the checkpoint's last 200 bytes, so the torn
/// tail path runs whether or not the kill landed mid-write — then resumed
/// to the end, prints what the uninterrupted grid does once `wall_ms`
/// goes. The uninterrupted grid's checkpoint, resumed as CSV, is refused:
/// the output format is outside the `scenario_id`.
fn resume_equals_uninterrupted(args: &[String], cores: &str, name: &str) -> String {
    let [reference_cp, cp] = ["reference.jsonl", "cp.jsonl"].map(|what| scratch(name, what));
    for path in [&reference_cp, &cp] {
        // A fresh --checkpoint refuses to overwrite a file.
        let _ = fs::remove_file(path);
    }
    let reference = run(&with(args, "--checkpoint", &reference_cp));
    let killed = with(&with(args, "--cores", cores), "--checkpoint", &cp);
    let mut resumed = killed.clone();
    resumed.push("--resume".to_string());
    kill_mid_run(&killed, &cp);
    kill_mid_run(&resumed, &cp);
    let out = run(&resumed);
    assert_eq!(
        lines(&reference, GRID),
        lines(&out, GRID),
        "resumed vs uninterrupted"
    );

    let mut as_csv = with(args, "--checkpoint", &reference_cp);
    as_csv.extend(["--resume", "--format", "csv"].map(String::from));
    let (code, stdout, stderr) = gossip_sim(&as_csv, None);
    assert_eq!(
        (code, stdout.as_str()),
        (Some(1), ""),
        "a CSV resume: {stderr}"
    );
    for path in [reference_cp, cp] {
        fs::remove_file(path).unwrap();
    }
    reference
}

/// Run `args` until its checkpoint `cp` holds two more whole records (or
/// it exits, or a minute passes), kill it, and cut 200 bytes off `cp`.
fn kill_mid_run(args: &[String], cp: &str) {
    let records = || {
        let bytes = fs::read(cp).unwrap_or_default();
        bytes.iter().filter(|&&b| b == b'\n').count()
    };
    let before = records();
    let mut child = command(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("the binary runs");
    let deadline = Instant::now() + Duration::from_secs(60);
    while records() <= before + 1 && Instant::now() < deadline {
        if let Some(status) = child.try_wait().unwrap() {
            assert!(status.success(), "gossip-sim {}: {status}", args.join(" "));
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // A grid that finished first has nothing left to kill; its resume
    // then replays every cell, which checks the same contract.
    let _ = child.kill();
    child.wait().unwrap();
    let file = fs::OpenOptions::new().write(true).open(cp).unwrap();
    let len = file.metadata().unwrap().len();
    let torn = len.checked_sub(200).expect("a record to tear");
    file.set_len(torn).unwrap();
}

/// Tracing leaves the run line alone: the untraced line equals the traced
/// one once `wall_ms` and `threads` go, and the traced run holds
/// [`threads_invariant`] trace bytes included.
fn traced_equals_untraced(args: &[String], t: &str, name: &str) -> String {
    let untraced = run(&with(args, "--threads", "1"));
    let trace = scratch(name, "trace.jsonl");
    let traced = threads_invariant(&with(args, "--trace", &trace), t);
    assert_eq!(
        lines(&untraced, RUN),
        lines(&traced, RUN),
        "traced vs untraced"
    );
    untraced
}

/// A bench line is its run line plus `metrics`: bench lines at
/// `--threads 1` and `{t}` and the run line agree once `wall_ms`,
/// `threads` and `metrics` go, and each bench line's `metrics.spec`, fed
/// to `grid --spec`, prints that run line again. Returns the 1-thread
/// bench stdout.
fn bench_equals_run(args: &[String], t: &str, name: &str) -> String {
    let bench =
        |threads| run(&[vec!["bench".to_string()], with(args, "--threads", threads)].concat());
    let one = bench("1");
    let many = bench(t);
    let plain = run(&with(args, "--threads", "1"));
    assert_eq!(
        lines(&one, BENCH),
        lines(&many, BENCH),
        "bench at --threads 1 vs {t}"
    );
    assert_eq!(
        lines(&one, BENCH),
        lines(&plain, RUN),
        "bench line vs run line"
    );
    let spec = scratch(name, "replay.spec");
    for line in one.lines() {
        let parsed = json::parse(line).unwrap();
        let text = parsed
            .get("metrics")
            .and_then(|metrics| metrics.get("spec"));
        let text = text.and_then(Value::as_str).filter(|text| !text.is_empty());
        fs::write(&spec, text.expect("a replayable metrics.spec")).unwrap();
        let replay = run(&["grid", "--spec", &spec].map(String::from));
        assert_eq!(
            lines(&replay, RUN),
            [strip(line, BENCH)],
            "replay of metrics.spec"
        );
    }
    fs::remove_file(spec).unwrap();
    one
}

/// `analyze` over the sweeps' lines and `args`' trace prints the
/// report's required substrings, its trace section, positive counts
/// and, when asked, the sync ring's speedup.
fn analyze_reports(args: &[String], report: &Report, small: Option<&str>, name: &str) -> String {
    let [sweeps, trace] = ["sweeps.jsonl", "trace.jsonl"].map(|what| scratch(name, what));
    let sweep_lines: String = report
        .sweeps
        .iter()
        .map(|flags| run(&expand(flags, small)))
        .collect();
    fs::write(&sweeps, &sweep_lines).unwrap();
    let traced = run(&with(args, "--trace", &trace));
    let (code, text, stderr) = gossip_sim(&["analyze", &sweeps, &trace], None);
    assert_eq!(code, Some(0), "{stderr}");
    let id = json::parse(traced.lines().next().unwrap()).unwrap();
    let id = id.get("scenario_id").and_then(Value::as_str).unwrap();
    let section = format!("trace {id}");
    for required in report.required.iter().copied().chain([section.as_str()]) {
        assert!(
            text.contains(required),
            "report lacks {required:?}:\n{text}"
        );
    }
    for label in report.counts {
        let count = text
            .split(&format!(" {label} "))
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|digits| digits.parse::<u64>().ok());
        assert!(
            count > Some(0),
            "report has no positive {label} count:\n{text}"
        );
    }
    if let Some(least) = report.ring_speedup {
        let speedup = text
            .lines()
            .find(|line| line.contains("ring-*-sync"))
            .and_then(|line| line.split_whitespace().nth(3))
            .and_then(|cell| cell.trim_end_matches('x').parse::<f64>().ok());
        assert!(
            speedup >= Some(least),
            "ring speedup below {least}x:\n{text}"
        );
    }
    for path in [sweeps, trace] {
        fs::remove_file(path).unwrap();
    }
    traced
}

/// `args` is a usage error: exit 2, naming `size` on stderr.
fn refused(args: &[String], size: &str) -> String {
    let (code, stdout, stderr) = gossip_sim(args, None);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains(size), "{stderr}");
    stdout
}

/// Whether the value at dotted `path` in JSON `line` is a positive
/// number.
fn is_positive(line: &str, path: &str) -> bool {
    let value = json::parse(line).unwrap();
    match path
        .split('.')
        .try_fold(&value, |value, key| value.get(key))
    {
        Some(Value::Int(n)) => *n > 0,
        Some(Value::Num(x)) => *x > 0.0,
        _ => false,
    }
}

impl Row {
    /// Check this row at CI size, or at its small size.
    fn check(&self, small: bool) {
        // Scratch files are named by row and size, so the two sizes may
        // run at once.
        let name = &format!("{}-{}", self.name, if small { "small" } else { "ci" });
        let small = small.then_some(self.small);
        let a = &expand(self.flags, small);
        let out = match &self.relation {
            ThreadsInvariant(threads) => threads_invariant(a, threads),
            CoresInvariant(cores) => cores_invariant(a, cores),
            GridEqualsStandalone => grid_equals_standalone(a),
            ResumeEqualsUninterrupted(cores) => resume_equals_uninterrupted(a, cores, name),
            TracedEqualsUntraced(threads) => traced_equals_untraced(a, threads, name),
            BenchEqualsRun(threads) => bench_equals_run(a, threads, name),
            AnalyzeReports(report) => analyze_reports(a, report, small, name),
            Refused(size) => refused(a, size),
        };
        for path in self.positive {
            assert!(!out.is_empty(), "no lines to read {path} from");
            for line in out.lines() {
                assert!(is_positive(line, path), "{path} is not positive in {line}");
            }
        }
    }
}

/// Check every row; panic naming the rows that fail.
fn hold(small: bool) {
    let failed: Vec<&str> = ROWS
        .iter()
        .filter(|row| {
            let broken = std::panic::catch_unwind(|| row.check(small)).is_err();
            if broken {
                eprintln!("row {} broken: the panic above", row.name);
            }
            broken
        })
        .map(|row| row.name)
        .collect();
    assert!(failed.is_empty(), "contracts broken in rows {failed:?}");
}

#[test]
fn contracts_hold() {
    hold(true);
}

#[test]
#[ignore = "CI size; CI runs it in release"]
fn contracts_hold_at_ci_size() {
    hold(false);
}

const LINE: &str = r#"{"schema":1,"completed":true,"rounds_executed":7,"threads":1,"wall_ms":3}"#;

#[test]
fn strip_cuts_exactly_the_named_fields() {
    let other = r#"{"schema":1,"completed":true,"rounds_executed":7,"threads":8,"wall_ms":90}"#;
    assert_eq!(strip(LINE, RUN), strip(other, RUN));
    assert_eq!(
        strip(LINE, GRID),
        r#"{"schema":1,"completed":true,"rounds_executed":7,"threads":1}"#
    );
    let bench = r#"{"schema":1,"threads":1,"wall_ms":3,"metrics":{"a":{"b":1},"spec":"x,\"}"}}"#;
    assert_eq!(strip(bench, BENCH), r#"{"schema":1}"#);
    assert_eq!(
        strip(bench, RUN),
        r#"{"schema":1,"metrics":{"a":{"b":1},"spec":"x,\"}"}}"#
    );
}

#[test]
fn strip_keeps_every_scenario_field() {
    for changed in [
        LINE.replace("\"completed\":true", "\"completed\":false"),
        LINE.replace("\"rounds_executed\":7", "\"rounds_executed\":8"),
    ] {
        assert_ne!(strip(LINE, BENCH), strip(&changed, BENCH));
    }
}

#[test]
#[should_panic(expected = "key \"rounds\" after `threads`")]
fn strip_refuses_an_unknown_key_after_threads() {
    strip(r#"{"schema":1,"threads":1,"rounds":[1],"wall_ms":3}"#, RUN);
}
