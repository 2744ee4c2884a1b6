//! `gossip-benchmark`: build `gossip-sim`, run the workloads, print every
//! metric by name with its unit. See `benchmark/README.md`.
//!
//! Run from the repository root:
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml
//! ```

use gossip_benchmark::cargo;
use gossip_benchmark::e2e::{self, Context, E2e};
use gossip_benchmark::metrics::{self, END_TO_END, PER_LAYER};
use gossip_benchmark::traced::{self, Traced};
use gossip_benchmark::workload::{self, Size, Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage: gossip-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--selfcheck]

  (no --workload)   every workload: the end-to-end pass, then the traced per-layer pass
  --workload NAME   one workload, one pass; the last stdout line is the result as JSON
  --trace 0|1       with --workload: 0 = end-to-end metrics (tracing off), 1 = per-layer metrics
  --seed N          workload seed [default: 42, the seed the output fingerprints are pinned for]
  --seconds S       how long each workload's end-to-end pass measures [default: 30]
  --smoke           tiny sizes, one sample each: checks the harness, measures nothing
  --selfcheck       two full end-to-end sets back to back; fails if any metric moved past its bound
";

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 30.0,
        trace: false,
        smoke: false,
        selfcheck: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(workload::find(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a non-negative integer")?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// Removes the per-invocation scratch directory however `main` ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_e2e(workload: &Workload, e2e: &E2e, pinned: Option<u64>) {
    println!(
        "workload {}  [end to end, tracing off, closed loop, one process at a time]",
        workload.name
    );
    // The metric is the best sample of the window; the rest of the
    // distribution is printed beside it.
    let [wall_s, node_rounds_per_s, setup_s, cpu_s, _] = e2e.values();
    println!(
        "  wall_s             {wall_s:.6} s fastest; median {}",
        e2e.wall_s.render("s")
    );
    println!(
        "  node_rounds_per_s  {node_rounds_per_s:.6} 1/s fastest; median {}",
        e2e.node_rounds_per_s.render("1/s")
    );
    println!(
        "  setup_s            {setup_s:.6} s fastest; median {}",
        e2e.setup_s.render("s")
    );
    println!(
        "  cpu_s              {cpu_s:.6} s least; median {}",
        e2e.cpu_s.render("s")
    );
    let floor = gossip_benchmark::child::own_peak_rss_mb().map_or(String::new(), |mb| {
        format!("; readings cannot go below the harness's own peak, {mb:.3} MB")
    });
    println!(
        "  peak_rss_mb        {:.3} MB (max over {} processes{floor})",
        e2e.peak_rss_mb, e2e.wall_s.n
    );
    println!(
        "  operations         attempted {} failed {}",
        e2e.attempted, e2e.failed
    );
    let pin = match (e2e.fingerprint, pinned) {
        (Some(f), Some(p)) if f == p => "matches the pinned value".to_string(),
        (Some(_), Some(p)) => format!("MISMATCH: pinned {p:016x}"),
        (_, None) => "no pin for this seed and size; repeats compared with each other".to_string(),
        (None, _) => "repeats disagree".to_string(),
    };
    println!(
        "  fingerprint        {} ({pin})",
        e2e.fingerprint
            .map_or("-".to_string(), |f| format!("{f:016x}"))
    );
    for error in &e2e.errors {
        println!("  ERROR {error}");
    }
}

fn print_traced(workload: &Workload, traced: &Traced, values: &[(&metrics::Metric, f64)]) {
    println!(
        "workload {}  [traced pass, in process, one sample each]",
        workload.name
    );
    for (metric, value) in values {
        if traced.values.contains_key(metric.name) {
            println!("  {:<40} {value:>16.6} {}", metric.name, metric.unit);
        }
    }
    let absent = values.len() - traced.values.len();
    println!("  ({absent} metrics of layers this workload does not exercise read 0)");
    println!(
        "  pipeline replica {:.6} s; self time by layer:",
        traced.pipeline_s
    );
    for (layer, secs, share) in &traced.shares {
        println!("    {layer:<12} {secs:>10.6} s  {:>5.1} %", share * 100.0);
    }
    println!(
        "  root span: children account for {:.1} % of its duration; spans in {}",
        traced.root_coverage * 100.0,
        traced.span_file.display()
    );
    for note in &traced.notes {
        println!("  note: {note}");
    }
}

/// Is `fingerprint` acceptable for this seed — equal to the pin when
/// there is one?
fn pin_holds(fingerprint: Option<u64>, pinned: Option<u64>) -> bool {
    fingerprint.is_some() && (pinned.is_none() || pinned == fingerprint)
}

/// The traced pass of one workload, ready to print as a result line.
struct LayerReport {
    /// Every per-layer metric, in table order (0 where not exercised).
    values: Vec<(&'static metrics::Metric, f64)>,
    /// The in-process result equals the binary's and the spans add up.
    correct: bool,
}

struct Harness {
    ctx: Context,
    /// The traced pass's binary; `None` when `layers/` does not build.
    layers: Option<PathBuf>,
    seed: u64,
    seconds: f64,
}

impl Harness {
    fn end_to_end(&self, workload: &Workload, seconds: f64) -> std::io::Result<(E2e, bool)> {
        let e2e = e2e::measure(&self.ctx, workload, self.seed, seconds)?;
        let pinned = e2e::pinned_fingerprint(workload, self.ctx.size, self.seed);
        print_e2e(workload, &e2e, pinned);
        let correct = e2e.correct() && pin_holds(e2e.fingerprint, pinned);
        Ok((e2e, correct))
    }

    /// The traced pass plus the `cli.*` metrics only the harness can
    /// take, checked against `e2e`: black-box runs of the same workload
    /// and seed.
    fn traced(&self, workload: &Workload, e2e: &E2e) -> std::io::Result<Option<LayerReport>> {
        let Some(layers) = &self.layers else {
            println!(
                "workload {}  [traced pass] absent: benchmark/layers does not build",
                workload.name
            );
            return Ok(None);
        };
        let mut traced = match traced::run(&self.ctx, layers, workload, self.seed)? {
            Ok(traced) => traced,
            Err(reason) => {
                println!("workload {}  [traced pass] FAILED: {reason}", workload.name);
                return Ok(None);
            }
        };
        for (name, value) in [
            ("cli.startup_s", self.ctx.startup_s()?),
            ("cli.stdout_bytes", e2e.stdout_bytes as f64),
            (
                "cli.process_overhead_s",
                e2e.wall_s.median - traced.pipeline_s,
            ),
        ] {
            traced.values.insert(name.to_string(), value);
        }
        let values: Vec<(&'static metrics::Metric, f64)> = PER_LAYER
            .iter()
            .map(|m| (m, traced.values.get(m.name).copied().unwrap_or(0.0)))
            .collect();
        print_traced(workload, &traced, &values);
        let mut correct = true;
        if traced.fingerprint != e2e.fingerprint || e2e.fingerprint.is_none() {
            println!(
                "  ERROR in-process result {:?} differs from the binary's {:?}",
                traced.fingerprint, e2e.fingerprint
            );
            correct = false;
        }
        if traced.root_coverage < 0.95 {
            println!(
                "  ERROR root span children cover only {:.1} %",
                traced.root_coverage * 100.0
            );
            correct = false;
        }
        Ok(Some(LayerReport { values, correct }))
    }

    /// `--workload NAME --trace 0`.
    fn driver_end_to_end(&self, workload: &Workload) -> std::io::Result<ExitCode> {
        let (e2e, correct) = self.end_to_end(workload, self.seconds)?;
        let values: Vec<(&metrics::Metric, f64)> = END_TO_END
            .iter()
            .map(|(m, _)| m)
            .zip(e2e.values())
            .collect();
        println!(
            "{}",
            metrics::result_line(correct, e2e.attempted, e2e.failed, &values)
        );
        Ok(ExitCode::SUCCESS)
    }

    /// `--workload NAME --trace 1`. The black-box side is the shortest
    /// end-to-end pass `measure` takes (a window of 0 s still runs the
    /// minimum number of pipelines); the traced pass counts as one more
    /// operation.
    fn driver_traced(&self, workload: &Workload) -> std::io::Result<ExitCode> {
        let (e2e, e2e_correct) = self.end_to_end(workload, 0.0)?;
        let Some(report) = self.traced(workload, &e2e)? else {
            // Without the layer half there is no per-layer result to print.
            return Ok(ExitCode::FAILURE);
        };
        println!(
            "{}",
            metrics::result_line(
                e2e_correct && report.correct,
                e2e.attempted + 1,
                e2e.failed + u64::from(!report.correct),
                &report.values
            )
        );
        Ok(ExitCode::SUCCESS)
    }

    /// No `--workload`: everything, for a person to read.
    fn everything(&self) -> std::io::Result<ExitCode> {
        let mut all_correct = true;
        for workload in WORKLOADS {
            let (e2e, correct) = self.end_to_end(workload, self.seconds)?;
            all_correct &= correct;
            match self.traced(workload, &e2e)? {
                Some(report) => all_correct &= report.correct,
                // A layer half that does not build is reported, not fatal;
                // one that builds and fails is.
                None => all_correct &= self.layers.is_none(),
            }
            println!();
        }
        println!(
            "{}",
            if all_correct {
                "all outputs correct"
            } else {
                "SOME OUTPUTS WERE WRONG (see ERROR lines)"
            }
        );
        Ok(if all_correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        })
    }

    /// `--selfcheck`: the benchmark's own noise test.
    fn selfcheck(&self) -> std::io::Result<ExitCode> {
        let mut sets: Vec<Vec<[f64; 5]>> = Vec::new();
        let mut ok = true;
        for set in 1..=2 {
            println!("== selfcheck set {set} of 2 ==");
            let mut values = Vec::new();
            for workload in WORKLOADS {
                let (e2e, correct) = self.end_to_end(workload, self.seconds)?;
                ok &= correct;
                values.push(e2e.values());
            }
            sets.push(values);
        }
        println!("== selfcheck: set 1, set 2, relative difference, bound ==");
        for (w, workload) in WORKLOADS.iter().enumerate() {
            for (m, (metric, bound)) in END_TO_END.iter().enumerate() {
                let (a, b) = (sets[0][w][m], sets[1][w][m]);
                let diff = (b - a).abs() / a;
                let verdict = if diff <= *bound {
                    "ok"
                } else {
                    "EXCEEDS BOUND"
                };
                ok &= diff <= *bound;
                println!(
                    "  {:<20} {:<18} {a:>16.6} {b:>16.6} {:>6.2} % (bound {:.0} %) {verdict}",
                    workload.name,
                    metric.name,
                    diff * 100.0,
                    bound * 100.0
                );
            }
        }
        println!(
            "{}",
            if ok {
                "selfcheck passed"
            } else {
                "selfcheck FAILED"
            }
        );
        Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        })
    }
}

fn run(args: Args) -> std::io::Result<ExitCode> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    // One core stays free for the harness, whatever started it and the
    // kernel: with every core running a barrier-synchronised engine
    // thread, each wake-up of anything else stalls the whole run.
    let threads = cores.saturating_sub(1).clamp(1, 4);
    let size = if args.smoke { Size::Smoke } else { Size::Bench };
    let stamp = format!(
        "logical cores {cores}, T = {threads}, {}, kernel {}, commit {}, size {}, seed {}",
        command_line("rustc", &["-V"]),
        std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or("unknown".to_string(), |s| s.trim().to_string()),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        size.name(),
        args.seed
    );
    println!("# gossip benchmark: {stamp}");

    if !cargo::build("Cargo.toml", &["-p", "gossip-cli"])? {
        eprintln!("error: gossip-sim does not build; run from the repository root");
        return Ok(ExitCode::FAILURE);
    }
    // Only the passes that print per-layer metrics need the layer half.
    let wants_layers = !args.selfcheck && (args.workload.is_none() || args.trace);
    let layers = (wants_layers && cargo::build("benchmark/layers/Cargo.toml", &[])?)
        .then(|| cargo::release_binary("benchmark/layers", "gossip-benchmark-layers"));

    let scratch = Scratch(Path::new("benchmark/out").join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)?;
    let harness = Harness {
        ctx: Context {
            sim: cargo::release_binary(".", "gossip-sim"),
            scratch: scratch.0.clone(),
            threads,
            size,
            stamp,
        },
        layers,
        seed: args.seed,
        seconds: args.seconds,
    };
    match (args.workload, args.selfcheck) {
        (_, true) => harness.selfcheck(),
        (Some(workload), _) if args.trace => harness.driver_traced(workload),
        (Some(workload), _) => harness.driver_end_to_end(workload),
        (None, _) => harness.everything(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
