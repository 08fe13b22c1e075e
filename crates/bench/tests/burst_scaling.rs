//! Scaling gate: a burst of events at one instant costs no more than
//! `n log n` time.
//!
//! Every push of a same-instant burst goes on the event queue's heap with
//! a key above all the others, so it sifts up zero levels, and each pop
//! costs O(log n). So 2^15 pushes (and the pops that drain them) must cost
//! less than [`MAX_RATIO`] times 2^12 of them: `n log n` code reads about
//! 10× (12–13× on a 2-CPU x86-64 host, the larger heap spilling out of
//! cache), a queue that shifts its whole contents per push about 64×.
//!
//! One `#[test]`, so no two timed runs overlap. Timing is meaningless in
//! an unoptimized build, so the test runs only in release:
//! `cargo test --release -p imobif-bench --test burst_scaling`.

use std::hint::black_box;
use std::time::Instant;

use imobif_netsim::{EventQueue, SimTime};

/// The small and the large burst, in events.
const SMALL: usize = 1 << 12;
const LARGE: usize = 1 << 15;
/// The largest large-over-small time ratio accepted (8 is linear).
const MAX_RATIO: f64 = 24.0;
/// Best-of-N repetitions per burst size and round.
const REPS: usize = 9;
/// Extra rounds the ratio may take before it fails.
const RETRIES: usize = 2;

/// A simulator-sized payload: a kernel event is about 100 bytes.
type Payload = [u64; 12];

/// Seconds to push `n` events at one instant, under the queue's rising
/// sequence, and pop them all. The queue is reused, so after the first
/// burst no push allocates.
fn burst_secs(q: &mut EventQueue<Payload>, n: usize) -> f64 {
    let at = SimTime::from_micros(1_000);
    let t0 = Instant::now();
    for i in 0..n {
        q.push(at, [i as u64; 12]);
    }
    let mut sum = 0u64;
    while let Some((_, e)) = q.pop() {
        sum = sum.wrapping_add(e[0]);
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(sum);
    secs
}

/// Best-of-[`REPS`] large-over-small ratio, sizes interleaved so a slow
/// patch of the host hits both.
fn ratio(q: &mut EventQueue<Payload>) -> f64 {
    let (mut small, mut large) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        small = small.min(burst_secs(q, SMALL));
        large = large.min(burst_secs(q, LARGE));
    }
    large / small
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing ratios run in release")]
fn a_same_instant_burst_costs_linear_time() {
    let mut q = EventQueue::new();
    burst_secs(&mut q, LARGE);
    let mut best = ratio(&mut q);
    for _ in 0..RETRIES {
        if best < MAX_RATIO {
            break;
        }
        best = best.min(ratio(&mut q));
    }
    assert!(
        best < MAX_RATIO,
        "2^15 same-instant pushes cost {best:.1}x 2^12 of them (>= {MAX_RATIO})"
    );
}
