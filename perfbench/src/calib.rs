//! A fixed reference computation, timed beside the measured work, so that
//! the host's own speed drift can be divided out of host timings.
//!
//! On a shared virtual machine the host's effective speed drifts by tens
//! of percent over minutes (other tenants, frequency), which swamps any
//! change in the simulator. This loop is the benchmark's own code, so no
//! change to the simulator can move it: how long it takes right now says
//! how fast the host is right now. Host times on the result line are
//! scaled by [`REFERENCE_S`] ÷ that time, i.e. reported in seconds of a
//! host that runs the loop in exactly [`REFERENCE_S`].

use std::time::Instant;

/// Seconds the loop takes per thread on the reference host (an idle
/// 2-vCPU Intel Xeon virtual machine).
pub const REFERENCE_S: f64 = 0.02;

/// Working set per thread: 2 MiB, like the simulator's per-cell state
/// plus its decode cache, so cache pressure from other tenants slows
/// both alike.
const WORDS: usize = 1 << 18;

const STEPS: u32 = 6_000_000;

/// Runs the loop on `workers` threads at once, as the passes run their
/// cells, and returns the mean per-thread time in seconds.
pub fn measure(workers: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..workers.max(1))
            .map(|k| scope.spawn(move || reference_loop(k as u64)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("calibration thread panicked"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// Pseudo-random reads and writes over the working set with integer
/// mixing in between: branch-light, load-heavy, like an interpreter.
fn reference_loop(seed: u64) -> f64 {
    // Every page is written before the clock starts, so the timed loop
    // never takes a page fault, whatever the allocator hands back.
    let mut mem = vec![0u64; WORDS];
    mem.fill(seed | 1);
    let started = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15 ^ seed;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & (WORDS - 1);
        acc = acc.wrapping_add(mem[i]).rotate_left(5) ^ x;
        mem[i.wrapping_mul(7) & (WORDS - 1)] = acc;
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64()
}
