//! Facts about the host: cores, last-level cache, memory high-water mark and
//! a one-thread STREAM triad.

use std::hint::black_box;
use std::time::Instant;

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Used when the host does not report its caches.
const FALLBACK_LLC_BYTES: usize = 32 << 20;

/// Size of the last-level cache in bytes, as Linux reports it for cpu0.
pub fn llc_bytes() -> usize {
    let mut best = (0u32, 0usize);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |file: &str| std::fs::read_to_string(format!("{dir}/{file}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let (digits, scale) = match size.chars().last() {
            Some('K') => (&size[..size.len() - 1], 1usize << 10),
            Some('M') => (&size[..size.len() - 1], 1 << 20),
            Some('G') => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        if let Ok(n) = digits.parse::<usize>() {
            if level > best.0 {
                best = (level, n * scale);
            }
        }
    }
    if best.1 == 0 {
        FALLBACK_LLC_BYTES
    } else {
        best.1
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Result of [`triad`].
pub struct Triad {
    /// Bytes of each of the three arrays.
    pub array_bytes: usize,
    /// Median one-thread bandwidth over the repetitions, GB/s (10^9 B/s),
    /// counting two reads and one write per element.
    pub gbs: f64,
}

/// One-thread STREAM triad `a = b + s·c` on `f64` arrays of at least
/// `min_array_bytes` each, repeated `reps` times.
pub fn triad(min_array_bytes: usize, reps: usize) -> Triad {
    let n = min_array_bytes.div_ceil(8);
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let s = black_box(3.0f64);
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&mut a);
        let secs = start.elapsed().as_secs_f64();
        rates.push(3.0 * 8.0 * n as f64 / secs / 1e9);
    }
    Triad {
        array_bytes: n * 8,
        gbs: crate::timing::median(&rates),
    }
}
