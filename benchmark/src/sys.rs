//! Process accounting read from the kernel: CPU time and high-water RSS of
//! this process, of children it has waited for, and of a live child.

use std::time::Duration;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets: two timevals, then fourteen
/// longs of which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout the
    // kernel fills in; `who` is one of the two constants the call accepts.
    let status = unsafe { getrusage(who, &mut usage) };
    assert_eq!(status, 0, "getrusage({who}) failed");
    usage
}

fn cpu_of(usage: &Rusage) -> Duration {
    let micros =
        (usage.utime.sec + usage.stime.sec) * 1_000_000 + usage.utime.usec + usage.stime.usec;
    Duration::from_micros(micros as u64)
}

/// User + system CPU time of this process, all threads.
pub fn self_cpu() -> Duration {
    cpu_of(&rusage(RUSAGE_SELF))
}

/// User + system CPU time of every child this process has waited for.
pub fn reaped_children_cpu() -> Duration {
    cpu_of(&rusage(RUSAGE_CHILDREN))
}

/// Largest high-water RSS among the children waited for so far, in MB.
pub fn reaped_children_peak_rss_mb() -> f64 {
    rusage(RUSAGE_CHILDREN).maxrss_kb as f64 / 1024.0
}

/// CPU time of the calling thread alone.
pub fn thread_cpu() -> Duration {
    let mut time = Timespec::default();
    // SAFETY: `time` is a live, writable `struct timespec`; the clock id is
    // the calling thread's own CPU clock, which always exists.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(thread cpu) failed");
    Duration::new(time.sec as u64, time.nsec as u32)
}

/// CPU time of a live process, summed over its threads from the
/// scheduler's nanosecond run-time counters (`/proc/<pid>/task/*/schedstat`).
pub fn live_process_cpu(pid: u32) -> std::io::Result<Duration> {
    let mut nanos = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        // A thread can exit between the listing and the read.
        let Ok(text) = std::fs::read_to_string(task?.path().join("schedstat")) else { continue };
        nanos += text.split_whitespace().next().and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    }
    Ok(Duration::from_nanos(nanos))
}

/// High-water RSS (`VmHWM`) of a live process in MB; `"self"` names this one.
pub fn peak_rss_mb(pid: &str) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other(format!("no VmHWM in /proc/{pid}/status")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_and_rss_is_positive() {
        let (process, thread) = (self_cpu(), thread_cpu());
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(self_cpu() > process);
        assert!(thread_cpu() > thread);
        assert!(peak_rss_mb("self").unwrap() > 0.5);
        assert!(live_process_cpu(std::process::id()).unwrap() > Duration::ZERO);
    }
}
