//! Host diagnostics recorded next to the numbers (never gated): hardware
//! threads, the share of CPU time the hypervisor stole during the run, and
//! the process's peak resident set.

use std::fs;

/// Hardware threads the process may run on.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Aggregate `(total, steal)` jiffies from the `cpu` line of `/proc/stat`,
/// or `None` where the file is unavailable.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted inside user/nice.
    let total = fields.iter().take(8).sum();
    let steal = fields.get(7).copied().unwrap_or(0);
    Some((total, steal))
}

/// Steal share of all CPU time between two [`cpu_jiffies`] snapshots
/// (0 when either is missing or no time passed).
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
