//! Large-allocation memory hints.
//!
//! The sweep's one big flat allocation, the record vector, is tens of
//! megabytes of first-touch memory per run. On hosts where transparent huge
//! pages are in `madvise` mode (the common distro default), asking for huge
//! pages collapses thousands of 4 KiB first-touch faults into a handful of
//! 2 MiB ones, which is a measurable slice of a cold sweep's wall clock. The
//! hint is best-effort: failures (and non-Linux targets) are ignored.

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
