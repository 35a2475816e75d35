//! Heap-allocation accounting.
//!
//! [`CountingAllocator`] wraps the system allocator, counts every
//! allocation (and reallocation) and tracks the bytes live on the heap. The
//! `repro` binary installs it as its global allocator and `repro serve`
//! exports the counters as gauges of its service's registry
//! ([`register_metrics`]); `tests/alloc_free.rs`
//! installs it to hold the sweep hot path to zero allocations per scenario.
//!
//! The counters are process-global atomics with relaxed ordering: they cost
//! a few uncontended atomic operations per allocation, which is noise next to
//! the allocation itself, and reads are only ever approximate snapshots
//! around timed regions.
//!
//! Beside them runs a **per-thread** allocation counter
//! ([`thread_allocation_count`]): exact for the calling thread whatever
//! other threads allocate meanwhile, which is what lets tests sharing one
//! process assert "this region allocated nothing" without serialising.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from inside
    // the allocator neither allocates nor registers thread-exit work.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation of `size` bytes: the global and per-thread
/// counters, then the live/peak gauges.
fn track_alloc(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCATIONS.with(|count| count.set(count.get() + 1));
    let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    // Monotone max via CAS; races only ever under-report transiently.
    let mut peak = PEAK.load(Ordering::Relaxed);
    while live > peak {
        match PEAK.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(current) => peak = current,
        }
    }
}

/// A [`System`]-backed allocator that counts allocations.
///
/// Install in a binary with:
/// ```ignore
/// #[global_allocator]
/// static ALLOC: mp_bench::alloc_track::CountingAllocator = CountingAllocator;
/// ```
pub struct CountingAllocator;

// SAFETY: every method delegates to `System`; the counters do not affect
// allocator behaviour.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        track_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

/// Number of heap allocations since process start (0 if no
/// [`CountingAllocator`] is installed in this binary).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Number of heap allocations the **calling thread** has made since it
/// started (0 if no [`CountingAllocator`] is installed in this binary).
/// Unaffected by other threads; reading it does not allocate.
pub fn thread_allocation_count() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Bytes currently live on the heap (allocated minus freed; 0 if no
/// [`CountingAllocator`] is installed). The gauge the soak tests use to
/// assert the server's buffering stays *bounded*, not just that churn is
/// low.
pub fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of [`live_bytes`] since process start (or since the last
/// [`reset_peak`]).
pub fn peak_live_bytes() -> i64 {
    PEAK.load(Ordering::Relaxed)
}

/// Restart peak tracking from the current live level, so a test can measure
/// the high-water mark of one region of interest without inheriting an
/// earlier region's peak.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Register the allocator's gauges with `registry` — `alloc_live_bytes`,
/// `alloc_peak_bytes` (both tracking [`reset_peak`]) and
/// `alloc_allocations` — sampled at snapshot time, so the serve `metrics`
/// verb and the soak tests read the exact numbers this module reports.
/// Idempotent: re-registering replaces the sampled gauges with equivalents.
pub fn register_metrics(registry: &mp_obs::metrics::Registry) {
    registry.gauge_sampled("alloc_live_bytes", live_bytes);
    registry.gauge_sampled("alloc_peak_bytes", peak_live_bytes);
    registry.gauge_sampled("alloc_allocations", || allocation_count() as i64);
}

#[cfg(test)]
mod tests {
    // The allocator is only installed by binaries, so all the library can
    // test is that the counter API is callable and monotone.
    #[test]
    fn counters_are_monotone() {
        let (a, mine) = (super::allocation_count(), super::thread_allocation_count());
        let _v: Vec<u64> = (0..1000).collect();
        assert!(super::allocation_count() >= a);
        assert!(super::thread_allocation_count() >= mine);
    }

    #[test]
    fn registered_gauges_appear_in_the_registry_snapshot() {
        let registry = mp_obs::metrics::Registry::new();
        super::register_metrics(&registry);
        super::register_metrics(&registry); // idempotent
        let snapshot = registry.snapshot();
        assert!(snapshot.gauge("alloc_live_bytes").is_some());
        assert!(snapshot.gauge("alloc_peak_bytes").is_some());
        assert!(snapshot.gauge("alloc_allocations").is_some());
    }

    #[test]
    fn live_gauge_apis_are_callable_without_an_installed_allocator() {
        // The allocator is only installed by binaries; the library can only
        // check the gauge plumbing is consistent.
        super::reset_peak();
        assert!(super::peak_live_bytes() >= super::live_bytes() || super::live_bytes() == 0);
    }
}
