//! What every binary-driving test shares: one way to run `gossip-sim`,
//! and one way to cut the execution-only members off its lines.

use std::ffi::OsStr;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// The workspace root.
pub fn root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// `gossip-sim` with `args`, run from the workspace root so spec paths
/// such as `examples/grid-smoke.spec` resolve as they do in the README.
pub fn command<S: AsRef<OsStr>>(args: &[S]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_gossip-sim"));
    command.args(args).current_dir(root());
    command
}

/// Run the binary with `args`, feeding it `stdin` when given (an empty
/// stdin otherwise): its exit code, stdout and stderr.
pub fn gossip_sim<S: AsRef<OsStr>>(
    args: &[S],
    stdin: Option<&[u8]>,
) -> (Option<i32>, String, String) {
    let mut child = command(args)
        .stdin(if stdin.is_some() {
            Stdio::piped()
        } else {
            Stdio::null()
        })
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary runs");
    let input = stdin.unwrap_or_default().to_vec();
    let mut pipe = child.stdin.take();
    // A writer of its own, so a child that fills its stdout pipe before
    // draining stdin cannot deadlock the test.
    let writer = std::thread::spawn(move || {
        if let Some(pipe) = pipe.as_mut() {
            pipe.write_all(&input).expect("stdin is written");
        }
    });
    let out = child.wait_with_output().expect("the binary exits");
    writer.join().unwrap();
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("UTF-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// The members a line may end in that depend on how it was executed,
/// not on its scenario: all three follow the scenario's members, in
/// this order, and `metrics` only on a bench line.
const EXECUTION_ONLY: [&str; 3] = ["threads", "wall_ms", "metrics"];

/// A JSON run line with the execution-only `fields` cut from its tail.
///
/// The tail starts at `threads`. Every member in it must be one of
/// [`EXECUTION_ONLY`]: any other key there panics, so a scenario member
/// that lands behind `threads` can never be cut unseen.
pub fn strip(line: &str, fields: &[&str]) -> String {
    let at = line
        .find(",\"threads\":")
        .unwrap_or_else(|| panic!("no `threads` member in {line:?}"));
    let (head, tail) = line.split_at(at);
    let mut tail = tail
        .strip_suffix('}')
        .unwrap_or_else(|| panic!("not one JSON object: {line:?}"));
    let mut out = head.to_string();
    while !tail.is_empty() {
        let (member, rest) = tail.split_at(member_len(tail));
        let key = member[2..].split('"').next().unwrap_or_default();
        assert!(
            EXECUTION_ONLY.contains(&key),
            "key {key:?} after `threads` in {line:?}"
        );
        if !fields.contains(&key) {
            out.push_str(member);
        }
        tail = rest;
    }
    out.push('}');
    out
}

/// Length of the `,"key":value` member that `tail` starts with: up to the
/// next comma outside every string, object and array.
fn member_len(tail: &str) -> usize {
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, c) in tail.char_indices().skip(1) {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            _ if in_string => {}
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            ',' if depth == 0 => return i,
            _ => {}
        }
    }
    tail.len()
}
