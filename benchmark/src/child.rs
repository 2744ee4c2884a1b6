//! Running one child process under the stopwatch: wall time from spawn
//! to stdout EOF and exit, CPU time and peak RSS from the kernel's own
//! accounting (`wait4`), and a timeout that turns a hang into a failed
//! operation.

use std::io::{self, Read};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `struct timeval` / `struct rusage` as Linux on 64-bit lays them out.
/// std already links libc, so declaring the two calls needs no crate.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// This process's own peak RSS (`VmHWM`), absent off Linux.
///
/// It matters because of how Linux accounts a spawned child: between the
/// spawn and its `exec` the child runs on the parent's address space,
/// and `exec` folds that address space's high-water mark into the
/// child's `ru_maxrss`. A child can therefore never read lower than the
/// harness's own peak — which is why the harness parses output line by
/// line and keeps nothing, and prints this floor next to every reading.
pub fn own_peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// What one child did.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Spawn → stdout EOF → exit.
    pub wall_s: f64,
    /// User + system CPU of the child.
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Captured stdout (empty when stdout was redirected to a file).
    pub stdout: Vec<u8>,
    /// `Ok` on exit code 0; otherwise why the operation failed.
    pub status: Result<(), String>,
}

/// Where the child's stdout goes.
pub enum Stdout {
    Capture,
    File(std::fs::File),
}

/// Run `command` to completion. stdin is closed; stderr goes to
/// `stderr` (a scratch file, so a chatty child can never block on a full
/// pipe nobody reads). A child still running after `timeout` is killed
/// and reported as failed.
pub fn run(
    mut command: Command,
    stdout: Stdout,
    stderr: std::fs::File,
    timeout: Duration,
) -> io::Result<Outcome> {
    command.stdin(Stdio::null()).stderr(stderr);
    let capture = match stdout {
        Stdout::Capture => {
            command.stdout(Stdio::piped());
            true
        }
        Stdout::File(file) => {
            command.stdout(file);
            false
        }
    };
    let started = Instant::now();
    let mut child = command.spawn()?;
    let pid = child.id() as i32;

    // The watchdog sleeps on a channel: dropping `alive` when the child
    // is reaped wakes it at once, so it costs nothing on the happy path.
    let (alive, reaped) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        let timed_out = reaped.recv_timeout(timeout) == Err(mpsc::RecvTimeoutError::Timeout);
        if timed_out {
            // SAFETY: plain syscall, no memory involved. The pid is our
            // own child: the main thread drops `alive` right after
            // reaping it, so at worst this fires microseconds after the
            // reap — far too soon for the kernel to have recycled the pid.
            unsafe { kill(pid, SIGKILL) };
        }
        timed_out
    });

    let mut captured = Vec::new();
    if capture {
        let mut pipe = child.stdout.take().expect("stdout was piped");
        pipe.read_to_end(&mut captured)?;
    }
    let (mut status, mut usage) = (0i32, Rusage::default());
    // SAFETY: both out-pointers are valid for writes of their types for
    // the duration of the call; `pid` is our own un-reaped child. The
    // `Child` handle is never waited on afterwards (dropping it does not
    // wait), so the pid is reaped exactly once.
    let reaped_pid = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall_s = started.elapsed().as_secs_f64();
    drop(alive);
    let timed_out = watchdog.join().expect("watchdog thread does not panic");
    if reaped_pid != pid {
        return Err(io::Error::last_os_error());
    }

    let seconds = |t: Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    // Linux wait status: low 7 bits = terminating signal, next byte = exit code.
    let (signal, code) = (status & 0x7f, (status >> 8) & 0xff);
    let status = if timed_out {
        Err(format!(
            "timed out after {} s and was killed",
            timeout.as_secs()
        ))
    } else if signal != 0 {
        Err(format!("killed by signal {signal}"))
    } else if code != 0 {
        Err(format!("exit code {code}"))
    } else {
        Ok(())
    };
    Ok(Outcome {
        wall_s,
        cpu_s: seconds(usage.utime) + seconds(usage.stime),
        peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
        stdout: captured,
        status,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::fs::File {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::File::create(dir.join(format!("test-{}-{name}.stderr", std::process::id())))
            .unwrap()
    }

    fn sh(script: &str) -> Command {
        let mut c = Command::new("sh");
        c.args(["-c", script]);
        c
    }

    #[test]
    fn captures_stdout_and_accounts_cpu_and_rss() {
        let out = run(
            sh("i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done; echo done"),
            Stdout::Capture,
            scratch("ok"),
            Duration::from_secs(30),
        )
        .unwrap();
        assert_eq!(out.status, Ok(()));
        assert_eq!(out.stdout, b"done\n");
        assert!(out.wall_s > 0.0 && out.cpu_s > 0.0 && out.cpu_s < out.wall_s + 1.0);
        assert!(out.peak_rss_mb > 0.1, "peak rss {} MB", out.peak_rss_mb);
    }

    #[test]
    fn nonzero_exit_and_timeout_become_failed_operations() {
        let out = run(
            sh("exit 3"),
            Stdout::Capture,
            scratch("exit"),
            Duration::from_secs(30),
        )
        .unwrap();
        assert_eq!(out.status, Err("exit code 3".to_string()));
        let out = run(
            sh("exec sleep 30"),
            Stdout::Capture,
            scratch("hang"),
            Duration::from_millis(200),
        )
        .unwrap();
        assert!(out.status.unwrap_err().contains("timed out"));
        assert!(out.wall_s < 10.0);
    }
}
