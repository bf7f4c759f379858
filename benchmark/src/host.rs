//! What the host tells us from outside the program: resident memory,
//! CPU time and the facts a reader needs to place a result (cores,
//! compiler, commit).

/// Peak resident set of this process (`VmHWM` of `/proc/self/status`),
/// MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process, all threads, read from
/// `/proc/self/stat` (fields 14 and 15, in 1/100 s ticks on Linux).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Compiler and commit as `run.sh` found them (the program cannot see
/// either by itself).
pub fn build_facts() -> (String, String) {
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    (var("BENCH_RUSTC"), var("BENCH_COMMIT"))
}
