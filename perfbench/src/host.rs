//! Host self-description and process memory, read from `/proc`.

use crate::workload::Kind;
use rtosbench::Json;
use std::path::Path;
use std::process::Command;

/// The host facts every result carries, so that numbers taken on
/// different machines can be told apart.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// CPUs this process may run on (what `nproc` prints).
    pub nproc: usize,
    /// `std::thread::available_parallelism`, which also honours cgroup
    /// CPU quotas.
    pub available_parallelism: usize,
    /// First `model name` line of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// `HEAD` of the checkout, or `unknown` outside a git work tree.
    pub commit: String,
}

impl HostInfo {
    /// Probes the host.
    pub fn probe() -> HostInfo {
        HostInfo {
            nproc: nproc(),
            available_parallelism: available_parallelism(),
            cpu_model: cpu_model(),
            rustc: env!("PERFBENCH_RUSTC"),
            commit: commit(),
        }
    }

    /// The description as one JSON object, including the worker count of
    /// every workload and the seed of this run.
    pub fn to_json(&self, seed: u64) -> Json {
        let mut workers = Json::object();
        for kind in Kind::ALL {
            workers.push(kind.name(), kind.workers());
        }
        Json::object()
            .with("nproc", self.nproc)
            .with("available_parallelism", self.available_parallelism)
            .with("workers", workers)
            .with("cpu_model", self.cpu_model.as_str())
            .with("rustc", self.rustc)
            .with("commit", self.commit.as_str())
            .with("seed", seed)
    }
}

/// Worker threads the executor can use in parallel.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .map(|v| v.trim().to_string())
}

/// Counts the CPUs in the `Cpus_allowed_list` of this process.
fn nproc() -> usize {
    let Some(list) = status_field("Cpus_allowed_list:") else {
        return available_parallelism();
    };
    list.split(',')
        .map(|range| match range.split_once('-') {
            Some((a, b)) => match (a.parse::<usize>(), b.parse::<usize>()) {
                (Ok(a), Ok(b)) if b >= a => b - a + 1,
                _ => 0,
            },
            None => usize::from(range.parse::<usize>().is_ok()),
        })
        .sum()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `git rev-parse HEAD`, asked only when the working directory is itself
/// the top of a work tree (a checkout exported without `.git` reports
/// `unknown` rather than the commit of some enclosing repository).
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
///
/// # Errors
///
/// Fails when `/proc/self/status` has no readable `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let field = status_field("VmHWM:").ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = field
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM `{field}`: {e}"))?;
    Ok(kb / 1024.0)
}
