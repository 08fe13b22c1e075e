//! The reference job: a fixed piece of CPU work written in this crate, timed
//! around every round to measure how fast the host is running right then.
//!
//! On a shared machine the host's speed drifts by ±10% over tens of
//! seconds (other tenants contend for caches, memory bandwidth and
//! frequency headroom), which is more than the changes worth detecting.
//! Dividing a round's time by the reference job's time taken around it
//! cancels most of that drift. The job mixes what the simulator does —
//! dependent loads over a working set larger than L2, hashing with
//! data-dependent branches, square roots and a sort — and it lives in the
//! benchmark, so no change to the simulator can move it.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Slots in the pointer-chasing cycle (8 MiB of `u32`).
const SLOTS: usize = 1 << 21;

/// Steps through the cycle per job.
const STEPS: u64 = 300_000;

/// A single cycle through every slot (Sattolo's shuffle), built once.
fn cycle() -> &'static [u32] {
    static CYCLE: OnceLock<Vec<u32>> = OnceLock::new();
    CYCLE.get_or_init(|| {
        let mut next: Vec<u32> = (0..SLOTS as u32).collect();
        let mut s = 0x2545_f491_4f6c_dd1d_u64;
        for i in (1..SLOTS).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            next.swap(i, (s % i as u64) as usize);
        }
        next
    })
}

/// Wall seconds the reference job takes now (about 40 ms on a 2 GHz
/// core). The first call also builds the job's table.
#[must_use]
pub fn seconds() -> f64 {
    let cycle = cycle();
    let t0 = Instant::now();
    let (mut at, mut acc, mut x) = (0usize, 0u64, 1.0f64);
    for i in 0..STEPS {
        at = cycle[at] as usize;
        for _ in 0..8 {
            acc = (acc ^ at as u64 ^ i).wrapping_mul(0x517c_c1b7_2722_0a95).rotate_left(5);
            if acc & 3 == 0 {
                x = (x + (acc >> 11) as f64).sqrt();
            }
        }
    }
    let mut v: Vec<f64> = (0..20_000).map(|i| ((i * 7919) % 20_011) as f64 * x).collect();
    v.sort_by(f64::total_cmp);
    black_box((acc, v));
    t0.elapsed().as_secs_f64()
}
