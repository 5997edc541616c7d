//! Host probes: process CPU time, and a fixed CPU kernel that shows when
//! the host itself ran slower. The kernel's time is reported beside the
//! run and never used to rescale another metric.

use std::hint::black_box;
use std::time::Instant;

use crate::metrics::median;

/// User + system CPU seconds of the whole process (all threads), from
/// `/proc/self/stat` in 10 ms ticks.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, so the 12th and 13th after it.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// Milliseconds for one run of a fixed single-thread integer kernel
/// (median of five).
pub fn calib_ms() -> f64 {
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
            for _ in 0..black_box(4_000_000u32) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&runs).expect("five runs")
}
