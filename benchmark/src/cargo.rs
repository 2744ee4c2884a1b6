//! Building the two things the harness runs — `gossip-sim` and the
//! `layers/` package — and finding the binaries afterwards.

use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where `cargo build` puts a package's binaries: the driver's
/// `CARGO_TARGET_DIR` when set, else the package's own `target/`.
pub fn release_binary(package_dir: &str, name: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| Path::new(package_dir).join("target"), PathBuf::from);
    target.join("release").join(name)
}

/// `cargo build --release` one package; `Ok(false)` when it does not
/// compile (cargo's own diagnostics go to stderr).
pub fn build(manifest: &str, extra: &[&str]) -> io::Result<bool> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--manifest-path", manifest])
        .args(extra)
        .status()?;
    Ok(status.success())
}
