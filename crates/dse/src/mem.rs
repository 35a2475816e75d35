//! Large-allocation memory hints.
//!
//! A sweep's one big flat allocation is its record vector: 32 bytes a
//! scenario, 6.8 MB for the 214k scenarios of `repro dse`. The engine takes
//! it uninitialised (`Vec::with_capacity`), so it costs one `malloc` and no
//! pass of its own: the workers' writes are its first touch, spread over
//! every thread. A zeroed allocation would not be free. Its pages are the
//! kernel's lazy zero pages only while the allocator maps fresh memory;
//! from the second sweep on, it recycles the last sweep's freed block and
//! `calloc` memsets all of it on the calling thread before any worker
//! starts. On a 2-vCPU host a recycled 6.8 MB `calloc` took 0.30 ms (a
//! fresh `mmap`, 7 µs), in an uncached sweep of 0.91–0.98 ms; without the
//! fill the same sweep reads 0.51–0.65 ms.
//!
//! On hosts where transparent huge pages are in `madvise` mode (the common
//! distro default), asking for huge pages collapses thousands of 4 KiB
//! first-touch faults into a handful of 2 MiB ones. The hint is
//! best-effort: failures (and non-Linux targets) are ignored.
//!
//! Measured alone (EXPERIMENTS.md) on a 2-vCPU host whose THP modes read
//! `enabled` = `madvise` and `defrag` = `madvise`, so the hint is what gives
//! the vector huge pages at all. Without it, `dse_oneshot`, a fresh
//! `repro dse` process per op, read `op_p50_ms` +2.9 % and
//! `cpu_ms_per_mscen` +3.3 % over 20 layerbench pairs (worse in 17 and 19
//! of them); `sweep_cold`, whose in-process sweeps recycle a vector already
//! faulted in, stayed inside its spread. The hint pays on first-touch
//! memory only, which is what a one-shot sweep writes into.

/// Advise the kernel to back `[ptr, ptr + len)` with transparent huge pages.
/// No-op for small regions, on errors and on non-Linux targets.
#[cfg(target_os = "linux")]
pub(crate) fn advise_huge_pages<T>(ptr: *mut T, len_bytes: usize) {
    const MADV_HUGEPAGE: i32 = 14;
    const PAGE: usize = 4096;
    extern "C" {
        fn madvise(addr: *mut std::ffi::c_void, length: usize, advice: i32) -> i32;
    }
    if len_bytes < 2 * 1024 * 1024 {
        return;
    }
    // `madvise` wants a page-aligned start; align inward so the hint never
    // covers bytes outside the allocation.
    let addr = ptr as usize;
    let aligned = addr.next_multiple_of(PAGE);
    let end = addr + len_bytes;
    if end > aligned {
        // SAFETY: the range lies inside a live allocation owned by the
        // caller; MADV_HUGEPAGE never changes memory contents or validity.
        unsafe {
            madvise(aligned as *mut std::ffi::c_void, end - aligned, MADV_HUGEPAGE);
        }
    }
}

/// Advise the kernel to back `[ptr, ptr + len)` with transparent huge pages.
/// No-op for small regions, on errors and on non-Linux targets.
#[cfg(not(target_os = "linux"))]
pub(crate) fn advise_huge_pages<T>(_ptr: *mut T, _len_bytes: usize) {}
