//! The `host` layer: what the process costs the machine it runs on — peak
//! resident memory of this process and of reaped children — and the
//! environment a results file records.

use std::process::Command;

/// Peak resident set (`VmHWM`) of this process in MiB, from
/// `/proc/self/status`; 0 where that file does not exist.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The leading fields of Linux's `struct rusage` (x86-64 and aarch64 share
/// this layout): two `timeval`s, then `ru_maxrss`, then 13 more longs.
#[repr(C)]
struct RUsage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// `RUSAGE_CHILDREN` on Linux.
const RUSAGE_CHILDREN: i32 = -1;

/// Largest peak resident set among the children this process has waited
/// for so far, in MiB (`ru_maxrss` of `RUSAGE_CHILDREN`, which Linux
/// reports in KiB); 0 if the call fails.
#[cfg(target_os = "linux")]
pub fn children_peak_rss_mib() -> f64 {
    let mut ru = RUsage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage`-sized and -aligned
    // value (18 longs = 144 bytes on 64-bit Linux) and `getrusage` writes
    // nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    if rc == 0 {
        ru.ru_maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// Off Linux there is no portable reading; report 0.
#[cfg(not(target_os = "linux"))]
pub fn children_peak_rss_mib() -> f64 {
    0.0
}

/// Remove every `VLFS_*` variable from this process's environment, so
/// neither the libraries called in-process nor any child inherit a knob
/// (thread width, allocator mode, snapshot mode, seed) from the caller.
/// Must run before any thread is started.
pub fn scrub_env() {
    let doomed: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("VLFS_"))
        .collect();
    for k in doomed {
        std::env::remove_var(k);
    }
}

/// First line of a command's stdout, or "unknown" if it cannot run.
fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `rustc -V`.
pub fn rustc_version() -> String {
    first_line("rustc", &["-V"])
}

/// The checked-out commit ("unknown" outside a git checkout, as in the
/// driver's).
pub fn git_commit() -> String {
    first_line("git", &["rev-parse", "HEAD"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib() > 0.5);
        }
    }

    #[test]
    fn children_peak_rss_covers_a_reaped_child() {
        if cfg!(target_os = "linux") {
            let ok = Command::new("true")
                .status()
                .map(|s| s.success())
                .unwrap_or(false);
            if ok {
                assert!(children_peak_rss_mib() > 0.0);
            }
        }
    }
}
