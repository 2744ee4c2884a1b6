//! The harness's side of the traced pass: spawn the `layers/` package (the half that links the gossip crates) and read back what
//! it measured. The two halves talk through tab-separated stdout lines,
//! so the harness never links a gossip crate.

use crate::child::{self, Stdout};
use crate::e2e::Context;
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

const LAYERS_TIMEOUT: Duration = Duration::from_secs(150);

/// What the traced pass reported for one workload.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    /// Per-layer metrics that apply to this workload, by name.
    pub values: BTreeMap<String, f64>,
    /// Self time per layer inside the pipeline replica: `(layer,
    /// seconds, share of the pipeline)`, largest first.
    pub shares: Vec<(String, f64, f64)>,
    /// Duration of the in-process replica of the workload's pipeline.
    pub pipeline_s: f64,
    /// Share of the root span's duration its children account for.
    pub root_coverage: f64,
    /// Fingerprint of what the in-process run produced; must equal the
    /// black-box one.
    pub fingerprint: Option<u64>,
    pub notes: Vec<String>,
    pub span_file: PathBuf,
}

/// Run the traced pass of one workload. `Err(reason)` in the inner
/// result means the pass ran but failed one of its own checks.
pub fn run(
    ctx: &Context,
    layers: &Path,
    workload: &Workload,
    seed: u64,
) -> io::Result<Result<Traced, String>> {
    let span_file = Path::new("benchmark/out").join(format!("trace-{}.jsonl", workload.name));
    let mut command = Command::new(layers);
    command
        .args(["--workload", workload.name, "--size", ctx.size.name()])
        .args([
            "--seed",
            &seed.to_string(),
            "--threads",
            &ctx.threads.to_string(),
        ])
        .arg("--spans")
        .arg(&span_file)
        .arg("--scratch")
        .arg(&ctx.scratch)
        .args(["--stamp", &ctx.stamp]);
    let stderr = File::create(ctx.scratch.join("layers-stderr.txt"))?;
    let out = child::run(command, Stdout::Capture, stderr, LAYERS_TIMEOUT)?;
    if let Err(e) = out.status {
        let stderr =
            std::fs::read_to_string(ctx.scratch.join("layers-stderr.txt")).unwrap_or_default();
        return Ok(Err(format!(
            "traced pass {e}: {}",
            stderr.lines().last().unwrap_or("")
        )));
    }
    let mut traced = Traced {
        span_file,
        ..Traced::default()
    };
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        let number = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
        match (fields[0], fields.len()) {
            ("metric", 3) => {
                traced
                    .values
                    .insert(fields[1].to_string(), number(2).unwrap_or(0.0));
            }
            ("share", 4) => traced.shares.push((
                fields[1].to_string(),
                number(2).unwrap_or(0.0),
                number(3).unwrap_or(0.0),
            )),
            ("pipeline_s", 2) => traced.pipeline_s = number(1).unwrap_or(0.0),
            ("root_coverage", 2) => traced.root_coverage = number(1).unwrap_or(0.0),
            ("fingerprint", 2) => traced.fingerprint = u64::from_str_radix(fields[1], 16).ok(),
            ("note", 2) => traced.notes.push(fields[1].to_string()),
            _ => {
                return Ok(Err(format!(
                    "traced pass printed an unknown line: {line:.80}"
                )))
            }
        }
    }
    Ok(Ok(traced))
}
