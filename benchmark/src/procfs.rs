//! Process and host counters read from `/proc` (Linux only; every reader
//! returns 0 where the file or field is missing, and the metric built on
//! it then reads 0 instead of failing the run).

use std::fs;

/// `/proc` reports CPU time in clock ticks of `USER_HZ`, which is 100 on
/// every Linux the benchmark targets.
const TICK_US: f64 = 10_000.0;

/// Process CPU time (`utime + stime`, all threads, exited ones included)
/// in microseconds.
pub fn process_cpu_us() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields are counted after the parenthesised command name, which may
    // itself contain spaces: utime and stime are the 14th and 15th fields.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick() + tick()) as f64 * TICK_US
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Voluntary context switches summed over the threads alive right now.
pub fn voluntary_ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| fs::read_to_string(task.path().join("status")).ok())
        .map(|status| status_field(&status, "voluntary_ctxt_switches:"))
        .sum()
}

/// The calling thread's own voluntary context switches; 0 without reading
/// anything when `wanted` is false, so a timed round pays nothing for it.
pub fn thread_voluntary_ctx_switches(wanted: bool) -> u64 {
    if !wanted {
        return 0;
    }
    let status = fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    status_field(&status, "voluntary_ctxt_switches:")
}

/// Resident set size in MiB.
pub fn rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmRSS:") as f64 / 1024.0
}

/// Host-wide `(steal, total)` ticks since boot.
pub fn host_steal_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal: guest time is already
    // inside user, so the first eight fields are the whole.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

/// Share of host CPU time stolen by the hypervisor since `before`.
pub fn steal_pct_since(before: (u64, u64)) -> f64 {
    let (steal, total) = host_steal_ticks();
    let span = total.saturating_sub(before.1);
    if span == 0 {
        return 0.0;
    }
    steal.saturating_sub(before.0) as f64 / span as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_return_plausible_values_on_linux() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(0u64);
        }
        assert!(process_cpu_us() >= 20_000.0);
        assert!(rss_mb() > 0.5);
        let (_, total) = host_steal_ticks();
        assert!(total > 0);
        assert!((0.0..=100.0).contains(&steal_pct_since((0, 0))));
        let _ = voluntary_ctx_switches();
    }

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmRSS:\t  2048 kB\nvoluntary_ctxt_switches:\t17\n";
        assert_eq!(status_field(status, "VmRSS:"), 2048);
        assert_eq!(status_field(status, "voluntary_ctxt_switches:"), 17);
        assert_eq!(status_field(status, "missing:"), 0);
    }
}
