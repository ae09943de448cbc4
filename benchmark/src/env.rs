//! The environment stamp every result file carries, and the process-level
//! probes (`/proc`) behind the CPU-time, memory and steal figures.

use crate::json::Json;
use std::fs;
use std::process::Command;

/// Everything that must match before two result sets may be compared.
/// The git commit and the steal ticks ride along but are not part of the
/// match: comparing two commits is the point, and steal is an observation.
pub fn stamp() -> Json {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
            .map(|v| v.trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let flags = field("flags");
    let has = |flag: &str| flags.split_whitespace().any(|f| f == flag);
    Json::obj(vec![
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu_model", Json::str(field("model name"))),
        ("sha_ni", Json::Bool(has("sha_ni"))),
        ("avx2", Json::Bool(has("avx2"))),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        ("rustflags", Json::str(env!("BENCH_RUSTFLAGS"))),
        (
            "rmem_default",
            Json::str(
                fs::read_to_string("/proc/sys/net/core/rmem_default")
                    .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            ),
        ),
        ("link", Json::str("loopback")),
        ("git_commit", Json::str(git_commit())),
    ])
}

/// The stamp fields that must agree for `compare` to proceed.
pub const MATCH_KEYS: [&str; 8] = [
    "nproc",
    "cpu_model",
    "sha_ni",
    "avx2",
    "rustc",
    "rustflags",
    "rmem_default",
    "link",
];

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // From the C library std already links; std itself exposes no CPU clock.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has consumed, all threads, *including threads
/// that already exited*, at nanosecond resolution.  Summing
/// `/proc/self/task/*/schedstat` would forget every short-lived client task
/// the runtime spawns per subscription — exactly the threads that verify
/// and reconstruct — and `/proc/self/stat` counts in 10 ms ticks, too coarse
/// for a half-second window.
pub fn process_cpu_s() -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable `timespec` of the layout 64-bit
    // Linux uses (two 64-bit fields), and the call writes nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    if status == 0 {
        now.tv_sec as f64 + now.tv_nsec as f64 / 1e9
    } else {
        ticked_cpu_s()
    }
}

/// The same figure from `utime + stime` of `/proc/self/stat`, in the
/// kernel's 10 ms ticks (`USER_HZ` is 100 on every Linux this runs on).
fn ticked_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) / 100.0
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Ticks the hypervisor ran someone else while this machine wanted a CPU
/// (the `steal` column of the aggregate `cpu` line of `/proc/stat`).
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .unwrap_or_default()
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stamp_has_every_match_key() {
        let stamp = stamp();
        for key in MATCH_KEYS {
            assert!(stamp.get(key).is_some(), "stamp lacks {key}");
        }
        assert!(stamp.get("git_commit").is_some());
    }

    #[test]
    fn cpu_time_grows_with_work() {
        let before = process_cpu_s();
        let mut x = 1u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let after = process_cpu_s();
        assert!(after >= before + 0.03, "x = {x}");
        // The tick-counting fallback tells the same story, a tick or two off.
        assert!((ticked_cpu_s() - after).abs() < 0.05);
        assert!(peak_rss_mb() > 0.5);
    }
}
