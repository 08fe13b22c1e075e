//! A counting global allocator for the benchmark and the allocation gates.
//!
//! The simulator crates forbid `unsafe`, so allocation accounting lives
//! here in bench-only code: a binary installs [`CountingAlloc`] as its
//! `#[global_allocator]` and reads the counters around measured regions,
//! for example to prove the steady-state packet path allocates nothing.
//!
//! The counters in [`snapshot`] are process-wide, so they also count what
//! the test harness's own threads allocate meanwhile. A gate whose measured
//! region runs wholly on the calling thread reads [`thread_allocs`], which
//! counts that thread's allocations only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static CURRENT_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialized and without a destructor: reading it never
    // allocates, so the allocator may touch it.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counters read from the allocator at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Heap allocations performed so far (reallocations count once).
    pub allocs: u64,
    /// Bytes currently live.
    pub current_bytes: usize,
    /// High-water mark of live bytes.
    pub peak_bytes: usize,
}

impl AllocSnapshot {
    /// Allocations performed between `earlier` and `self`.
    #[must_use]
    pub fn allocs_since(&self, earlier: &AllocSnapshot) -> u64 {
        self.allocs - earlier.allocs
    }
}

/// Reads the current counters.
#[must_use]
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        current_bytes: CURRENT_BYTES.load(Ordering::Relaxed),
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
    }
}

/// Heap allocations the calling thread has performed so far
/// (reallocations count once), whatever other threads allocate.
#[must_use]
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Resets the peak-bytes high-water mark to the current live size, so a
/// measured region reports its own peak rather than setup's.
pub fn reset_peak() {
    PEAK_BYTES.store(CURRENT_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn count_alloc() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCS.with(|n| n.set(n.get() + 1));
}

fn on_alloc(size: usize) {
    count_alloc();
    let now = CURRENT_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
}

fn on_dealloc(size: usize) {
    CURRENT_BYTES.fetch_sub(size, Ordering::Relaxed);
}

/// A [`System`]-backed allocator that counts allocations and tracks the
/// live-bytes high-water mark.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counters are plain atomics and
// the bookkeeping allocates nothing itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Count a grow/shrink as one allocation event and move the
            // live-byte total by the delta.
            count_alloc();
            if new_size >= layout.size() {
                let now = CURRENT_BYTES.fetch_add(new_size - layout.size(), Ordering::Relaxed)
                    + (new_size - layout.size());
                PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
            } else {
                CURRENT_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install CountingAlloc, so drive the hooks
    // directly. One test, so no other test moves the shared counters.
    #[test]
    fn counters_track_alloc_and_peak() {
        let before = snapshot();
        on_alloc(1000);
        on_alloc(500);
        on_dealloc(500);
        let after = snapshot();
        assert_eq!(after.allocs_since(&before), 2);
        assert!(after.peak_bytes >= before.current_bytes + 1500);
        on_dealloc(1000);

        // The thread count sees this thread's allocations only.
        let mine = thread_allocs();
        std::thread::spawn(|| {
            on_alloc(64);
            on_dealloc(64);
        })
        .join()
        .unwrap();
        assert_eq!(thread_allocs(), mine, "another thread's allocation");
        on_alloc(64);
        on_dealloc(64);
        assert_eq!(thread_allocs(), mine + 1);
    }
}
