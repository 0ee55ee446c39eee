//! What every result records about where it was measured.

use std::process::Command;

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of `program args…`'s output, or `"unknown"`. The child is
/// waited for before this returns.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit being measured (`"unknown"` outside a git checkout).
pub fn commit() -> String {
    first_line("git", &["rev-parse", "--short=12", "HEAD"])
}

pub fn rustc_version() -> String {
    first_line("rustc", &["-V"])
}

/// This process's peak resident set (`VmHWM`), in MiB. 0 where `/proc`
/// is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
