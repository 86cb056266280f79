//! Gauges that let a run taken under interference be recognised from its
//! own output. Linux-only sources; elsewhere they read 0.

/// Nanoseconds this process has spent runnable but waiting for a core
/// (second field of `/proc/self/schedstat`), 0 when unavailable.
pub fn sched_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size in MB (`VmHWM` of `/proc/self/status`), 0 when
/// unavailable. Memory moved into set-up, or a second live copy of the
/// engine, shows here.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
