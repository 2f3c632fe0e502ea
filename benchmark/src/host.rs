//! What the benchmark records about the machine and the process: core
//! count, an anonymised CPU model, the git commit, process CPU time and
//! peak resident memory. Linux only; every reader degrades to a neutral
//! value elsewhere so the harness still runs.

use crate::json::Json;
use std::path::Path;

/// Logical CPUs available to this process (1 when undeterminable).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The `model name` line of `/proc/cpuinfo` — the hardware class, never
/// the host's identity.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .filter(|m| !m.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `{"nproc", "cpu_model"}` for reports.
pub fn host_json() -> Json {
    Json::obj([
        ("nproc", Json::from(nproc() as u64)),
        ("cpu_model", Json::str(cpu_model())),
    ])
}

fn git(repo: &Path, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(repo)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `{"commit", "dirty"}` of the checkout at `repo`; `"unknown"` where
/// there is no git (the driver's checkout is a plain directory).
pub fn git_json(repo: &Path) -> Json {
    let commit = git(repo, &["rev-parse", "HEAD"]).filter(|c| !c.is_empty());
    let dirty = git(repo, &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
    Json::obj([
        (
            "commit",
            Json::str(commit.unwrap_or_else(|| "unknown".into())),
        ),
        ("dirty", Json::from(dirty)),
    ])
}

/// User + system CPU seconds this process (all threads) has consumed:
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`, which the scheduler keeps to
/// the nanosecond. `/proc/self/stat` counts 10 ms ticks — a hundredth of a
/// one-second build, coarse enough for the fastest rep to read the same on
/// every run. 0 where the clock is missing.
pub fn cpu_seconds() -> f64 {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_long};
        #[repr(C)]
        struct Timespec {
            sec: c_long,
            nsec: c_long,
        }
        extern "C" {
            fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
        }
        const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs
        // on Linux), which is all `clock_gettime` touches.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return ts.sec as f64 + ts.nsec as f64 / 1e9;
        }
    }
    0.0
}

/// Restart the resident-set high-water mark (`VmHWM`) from the current
/// resident size, by writing `5` to `/proc/self/clear_refs` (Linux 4.0+).
/// Where that is refused the mark keeps covering the whole process, and a
/// warning says so: `peak_rss_mb` then includes the harness's set-up.
/// Returns whether the mark was reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointer and touches only
        // the allocator's own free lists, under the allocator's locks.
        unsafe { malloc_trim(0) };
    }
    let reset = std::fs::write("/proc/self/clear_refs", "5");
    if let Err(e) = &reset {
        eprintln!("warning: cannot reset VmHWM ({e}); peak_rss_mb covers set-up too");
    }
    reset.is_ok()
}

/// Peak resident set size since the last [`reset_peak_rss`] (`VmHWM`), in
/// MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_are_positive_on_linux() {
        // Burn a little CPU so at least one tick is charged.
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mib() > 0.0);
        // The mark restarts from the resident size, and rises again with it.
        let mut big = vec![1u8; 64 << 20];
        let high = peak_rss_mib();
        big.truncate(1);
        big.shrink_to_fit();
        if reset_peak_rss() {
            assert!(peak_rss_mib() < high - 32.0, "mark restarted");
            let big = std::hint::black_box(vec![1u8; 64 << 20]);
            assert!(peak_rss_mib() > high - 32.0, "mark follows new use");
            drop(big);
        }
        assert!(nproc() >= 1);
    }
}
