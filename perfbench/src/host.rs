//! Host fingerprint, process memory and the per-run scratch directory.

use std::path::{Path, PathBuf};
use std::process::Command;

use foundation::json::{Json, ToJson};

/// What a result was measured on: attached to every result record so
/// runs from different hosts, toolchains or thread settings are never
/// compared as if alike.
pub fn fingerprint(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let threads = std::env::var("FOUNDATION_THREADS").unwrap_or_else(|_| "unset".into());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    // only ask git inside a git checkout, so it never searches parents
    let git_rev =
        if Path::new(".git").exists() { command_line("git", &["rev-parse", "HEAD"]) } else { None }
            .unwrap_or_else(|| "none (not a git checkout)".into());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    Json::obj([
        ("nproc", (nproc as u64).to_json()),
        ("cpu", cpu.to_json()),
        ("foundation_threads", threads.to_json()),
        ("rustc", rustc.to_json()),
        ("git_rev", git_rev.to_json()),
        ("profile", profile.to_json()),
        ("seed", seed.to_json()),
    ])
}

/// First line of a command's standard output (the child is waited for).
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.lines().next().map(|l| l.trim().to_string())
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU ticks as `(stolen, total)` from the `cpu` line of
/// `/proc/stat`: time the hypervisor ran something else on this
/// machine's CPUs, against all accounted time. `(0, 0)` when unreadable.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| l.split_whitespace().take(8).filter_map(|f| f.parse().ok()).collect())
        .unwrap_or_default();
    if fields.len() < 8 {
        return (0, 0);
    }
    (fields[7], fields.iter().sum())
}

/// Parent of every run's scratch directory, relative to the working
/// directory (the benchmark writes nowhere else).
pub const SCRATCH_ROOT: &str = ".perfbench-tmp";

/// A per-run scratch directory (snapshot stores), removed on drop.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create `.perfbench-tmp/<tag>-<pid>` under the working directory.
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let path = Path::new(SCRATCH_ROOT).join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // the root goes too once no concurrent run still uses it
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}
