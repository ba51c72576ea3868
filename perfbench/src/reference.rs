//! A fixed reference kernel, independent of the repository's code, timed
//! next to every unit to measure how fast the machine is running right now.
//!
//! On a shared host the speed of one core can change by 2× within minutes
//! as other tenants come and go, and a wall-clock metric then follows the
//! host rather than the code. The end-to-end timings are therefore reported
//! at the reference speed: a wall time `t` measured while the kernel took
//! `r` seconds reads `t × REFERENCE_S / r`. A change to the repository
//! cannot move the kernel, so same-machine A/B comparisons keep their
//! meaning; the raw wall times are printed next to the normalized ones.

use std::collections::BinaryHeap;
use std::time::Instant;

/// The kernel's nominal duration: the normalized timings read as if every
/// kernel run had taken exactly this long.
pub const REFERENCE_S: f64 = 0.007;

/// Heap size of the kernel (an event-queue-like priority queue of 256 KiB).
const HEAP: usize = 1 << 15;
/// Pop/push pairs per kernel run.
const OPS: usize = 100_000;

/// Wall seconds of one kernel run: `OPS` pop/push pairs on a binary heap
/// of `HEAP` pseudo-random keys.
fn kernel_s(heap: &mut BinaryHeap<u64>) -> f64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    heap.clear();
    for _ in 0..HEAP {
        heap.push(next());
    }
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..OPS {
        let top = heap.pop().unwrap_or(0);
        acc = acc.wrapping_add(top);
        heap.push(next() ^ (top >> 3));
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// The machine's current speed: the median of five kernel runs, seconds.
pub fn measure_s() -> f64 {
    let mut heap = BinaryHeap::with_capacity(HEAP + 1);
    let mut runs: Vec<f64> = (0..5).map(|_| kernel_s(&mut heap)).collect();
    runs.sort_by(f64::total_cmp);
    runs[2]
}
