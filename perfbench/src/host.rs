//! A host-speed reference: a fixed arithmetic kernel in the benchmark's
//! own code (none of the program's), timed on every core at once while
//! the workload is paused. Its rate tracks how fast the machine runs at
//! that moment. On a shared machine that drifts with other tenants' load
//! by up to 1.7x over seconds to minutes.
//!
//! The benchmark samples the reference around every measured interval
//! and reports each end-to-end time and rate scaled to
//! [`REFERENCE_SPEED`]: a time `t` measured while the kernel ran at speed
//! `s` is reported as `t * s / REFERENCE_SPEED`, and a rate `r` as
//! `r * REFERENCE_SPEED / s`. The raw figures and the speeds are printed
//! in the notes before the result line.

use std::hint::black_box;
use std::time::Instant;

use crate::MAX_THREADS;

/// The speed the reported figures are scaled to, in kernel iterations per
/// microsecond: about what a 2-vCPU cloud VM reaches when its host is
/// quiet.
pub const REFERENCE_SPEED: f64 = 800.0;

/// Kernel iterations per sample (one to two milliseconds).
const ITERS: u64 = 1_000_000;

/// The reference kernel: a splitmix64 chain folded into a float sum.
fn kernel(seed: u64) -> f64 {
    let mut x = seed;
    let mut acc = 0.0f64;
    for _ in 0..ITERS {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc += (z >> 11) as f64 * 1e-16;
    }
    acc
}

/// Kernel iterations per microsecond on the calling thread.
pub fn thread_speed() -> f64 {
    let started = Instant::now();
    black_box(kernel(black_box(ITERS)));
    ITERS as f64 / (started.elapsed().as_secs_f64() * 1e6)
}

/// Kernel iterations per microsecond, averaged over one run of the kernel
/// on each of [`MAX_THREADS`] threads at once (every core busy, as while
/// the program trains or serves).
pub fn speed() -> f64 {
    let rates: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..MAX_THREADS)
            .map(|_| scope.spawn(thread_speed))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference kernel thread panicked"))
            .collect()
    });
    rates.iter().sum::<f64>() / rates.len() as f64
}

/// Factor that turns a time measured at `speed` into reference time
/// (divide a rate by it).
pub fn time_scale(speed: f64) -> f64 {
    speed / REFERENCE_SPEED
}

/// Reference-scaled seconds of an interval whose speed was sampled just
/// before (`before`) and just after (`after`) it.
pub fn scaled_secs(secs: f64, before: f64, after: f64) -> f64 {
    secs * time_scale((before + after) / 2.0)
}
