//! Host-speed calibration.
//!
//! On a shared host the speed of the machine changes in spells of seconds to
//! minutes as other tenants load the caches, the memory bus and the kernel:
//! on a 2-vCPU host the same replay ran anywhere from 67k to 159k events/s
//! within five minutes. [`calibrate`] times a fixed kernel that uses the
//! machine the way the monitor does, and the benchmark times it right before
//! every replay. Its time over [`REFERENCE_S`] is the host's slowdown at that
//! moment, and the end-to-end figures are expressed at reference speed by
//! dividing every measured time by it. In six noisy minutes the medians of a
//! workload's rate over 30-second stretches had an interquartile spread of
//! about a fifth of their median; scaled, two to three hundredths.
//!
//! The kernel uses only `std` and no rvmtl code, so no change to the program
//! moves it: a program that gets faster or slower shows in full.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// About the kernel's time on a quiet 2-vCPU host (x86-64, release build):
/// the speed every end-to-end time is expressed at.
pub const REFERENCE_S: f64 = 0.025;

/// Rounds of the kernel.
const ROUNDS: u64 = 8;
/// `available_parallelism` calls per round. The runtime makes this call
/// once per batch; on Linux it reads cgroup files, and that kernel time is
/// a quarter to a half of a replay's. It is two thirds of the kernel's time,
/// because this part followed the replays' slow spells most closely.
const PARALLELISM_CALLS: usize = 180;
/// Hash-map updates per round, over `KEYS` keys: the user-space side, with a
/// working set of about a megabyte like the monitor's arena and memo tables.
const UPDATES: u64 = 20_000;
const KEYS: u64 = 50_000;

/// Runs the fixed kernel once and returns how long it took.
pub fn calibrate() -> Duration {
    let start = Instant::now();
    let mut acc = 0u64;
    for round in 0..ROUNDS {
        for _ in 0..PARALLELISM_CALLS {
            acc += std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        }
        let mut map: HashMap<u64, u64> = HashMap::new();
        let mut x = round.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for i in 0..UPDATES {
            // xorshift64: a fixed pseudo-random key sequence per round.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *map.entry(x % KEYS).or_insert(0) += i;
        }
        let mut values: Vec<u64> = map.into_values().collect();
        values.sort_unstable();
        acc += values[values.len() / 2];
    }
    std::hint::black_box(acc);
    start.elapsed()
}

/// The host's slowdown against the reference: the kernel's time over
/// [`REFERENCE_S`] (above 1 when the host is slower than the reference).
pub fn slowdown() -> f64 {
    calibrate().as_secs_f64() / REFERENCE_S
}
