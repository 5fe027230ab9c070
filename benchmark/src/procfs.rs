//! Process CPU time and peak memory, read from `/proc/self`.
//!
//! Two CPU clocks, because neither alone serves every metric:
//!
//! * [`process_cpu_ns`] — `utime + stime` of `/proc/self/stat`. Counts
//!   threads that have already exited, so it is right for a measured
//!   window that server and generator threads come and go around; its
//!   10 ms tick is < 0.1 % of any window here.
//! * [`live_threads_cpu_ns`] — the sum of the scheduler's nanosecond
//!   run-time over the threads alive now. Right for the short idle
//!   measurement, where no thread exits and a tick would be 0.5 % of the
//!   reading. Falls back to the tick clock on kernels without schedstats.

use std::fs;

/// `USER_HZ`: the unit of `/proc/<pid>/stat` times. Fixed at 100 by the
/// Linux ABI on every architecture, whatever the kernel's own `HZ`.
const USER_HZ: u64 = 100;

/// `utime + stime` in nanoseconds out of a `/proc/<pid>/stat` line. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the *last* `)`.
pub fn parse_stat_cpu_ns(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / USER_HZ))
}

/// On-CPU nanoseconds out of a `schedstat` line (its first field).
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// `VmHWM` (peak resident set) in KiB out of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// CPU consumed by this process so far, exited threads included.
pub fn process_cpu_ns() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ns(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// CPU consumed so far by the threads alive right now, at nanosecond
/// resolution; the tick clock when the kernel offers no schedstats.
pub fn live_threads_cpu_ns() -> u64 {
    let sum = || -> Option<u64> {
        let mut total = 0u64;
        for entry in fs::read_dir("/proc/self/task").ok()? {
            let path = entry.ok()?.path().join("schedstat");
            // A thread may exit between readdir and read; skip it.
            if let Ok(text) = fs::read_to_string(path) {
                total += parse_schedstat_ns(&text)?;
            }
        }
        Some(total)
    };
    match sum() {
        Some(ns) if ns > 0 => ns,
        _ => process_cpu_ns(),
    }
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let kb = fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .expect("/proc/self/status carries VmHWM on Linux");
    kb as f64 / 1024.0
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_hostile_command_name() {
        // comm = "a b) (c", utime = 51, stime = 7.
        let line = "123 (a b) (c) S 1 123 123 0 -1 4194304 100 0 0 0 51 7 0 0 20 0 3 0 100 1000 50";
        assert_eq!(parse_stat_cpu_ns(line), Some(580_000_000));
        assert_eq!(parse_stat_cpu_ns("no parens here"), None);
        assert_eq!(parse_stat_cpu_ns("1 (x) S 1 2"), None);
    }

    #[test]
    fn schedstat_and_status_fields() {
        assert_eq!(
            parse_schedstat_ns("515816252 2034511 30\n"),
            Some(515_816_252)
        );
        assert_eq!(parse_schedstat_ns(""), None);
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1688 kB\nVmRSS:\t 1600 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1688));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readers_see_this_process_burn_cpu_and_memory() {
        let (c0, t0) = (process_cpu_ns(), live_threads_cpu_ns());
        let started = std::time::Instant::now();
        let mut x = 1u64;
        // Spin for 60 ms of wall time so even the 10 ms tick clock moves.
        while started.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(process_cpu_ns() > c0, "tick clock did not advance");
        assert!(live_threads_cpu_ns() > t0, "thread clock did not advance");
        assert!(peak_rss_mb() > 0.5);
        assert!(nproc() >= 1);
    }
}
