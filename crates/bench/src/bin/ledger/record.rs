//! The shared header every output record carries, and the record files
//! `ledger compare` reads back.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;

/// Where records, span files and scratch directories go: `ledger/` in
/// Cargo's target directory, `CARGO_TARGET_DIR` or else `target` under the
/// working directory.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("ledger")
}

/// The commit the working directory is at, read from `.git` directly so
/// an export without git history reports `unknown` instead of whatever
/// repository happens to enclose it.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// git rev, host, core count, compiler, build profile, and the run's
/// settings.
pub fn header(seed: u64, seconds: f64, traced: bool) -> Json {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("git_rev", git_rev().into()),
        ("host", host.into()),
        ("nproc", (nproc as u64).into()),
        ("rustc", rustc_version().into()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("trace", Json::Bool(traced)),
        ("unix_ms", unix_ms().into()),
    ])
}

/// Writes `lines` to a fresh file under [`out_dir`] and returns its path.
pub fn write(stem: &str, ext: &str, lines: &[String]) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{stem}.{ext}", unix_ms()));
    let mut text = lines.join("\n");
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
