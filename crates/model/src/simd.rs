//! Runtime SIMD dispatch shared by every lane kernel in the workspace.
//!
//! The evaluation hot paths (mp-dse's `evaluate_batch_prepared`, mp-cmpsim's
//! timing walk, the cache-key hashing loop) each exist twice: a portable
//! scalar implementation — the *reference* — and an explicit-width lane
//! kernel using `core::arch` x86-64 intrinsics. Which one runs is decided
//! here, once per process, from runtime CPU feature detection: hosts without
//! the required lanes (or non-x86 targets) silently take the scalar path.
//! No compile-time feature flag is required for correctness.
//!
//! Lane kernels are bit-identical to the scalar reference (they perform the
//! same operations in the same association order, per the [`crate::prepared`]
//! parity contract), so switching levels never changes results — only
//! throughput. That invariant is what lets the forced-scalar override below
//! be a plain process-global: tests and A/B harnesses may toggle it at any
//! time without racing on correctness.
//!
//! ## Forcing the scalar path
//!
//! * environment: set `MP_SIMD_FORCE_SCALAR=1` (read once, at first dispatch);
//! * programmatic: [`set_forced_scalar`] — what the parity tests toggle to
//!   compare both paths inside one process.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Instruction-set level the lane kernels may use, decided at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar reference path. Always available.
    Scalar,
    /// 256-bit AVX2 lanes (4×f64 / 4×u64). x86-64 only, detected at runtime.
    Avx2,
}

/// Hardware capability, detected once per process.
fn detected() -> SimdLevel {
    static CELL: OnceLock<SimdLevel> = OnceLock::new();
    *CELL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    })
}

/// Whether the `MP_SIMD_FORCE_SCALAR` environment variable asked for the
/// scalar path. Read once; `"0"` and empty both mean "not forced".
fn env_forced_scalar() -> bool {
    static CELL: OnceLock<bool> = OnceLock::new();
    *CELL.get_or_init(|| {
        std::env::var("MP_SIMD_FORCE_SCALAR").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
    })
}

static FORCED_SCALAR: AtomicBool = AtomicBool::new(false);

/// Programmatically force (or un-force) the scalar path for the whole
/// process, overriding hardware detection. Safe to toggle at any time: both
/// paths are bit-identical, so in-flight work is unaffected beyond speed.
pub fn set_forced_scalar(forced: bool) {
    FORCED_SCALAR.store(forced, Ordering::Relaxed);
}

/// Whether the scalar path is currently forced (by environment or
/// [`set_forced_scalar`]).
pub fn forced_scalar() -> bool {
    env_forced_scalar() || FORCED_SCALAR.load(Ordering::Relaxed)
}

/// The level lane kernels should dispatch on *right now*: the detected
/// hardware level, downgraded to [`SimdLevel::Scalar`] while the forced
/// override is active.
pub fn level() -> SimdLevel {
    if forced_scalar() {
        SimdLevel::Scalar
    } else {
        detected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_scalar_overrides_detection() {
        // Whatever the hardware, forcing scalar must win, and un-forcing
        // must restore the detected level.
        let hw = detected();
        set_forced_scalar(true);
        assert_eq!(level(), SimdLevel::Scalar);
        set_forced_scalar(false);
        if !env_forced_scalar() {
            assert_eq!(level(), hw);
        }
    }

    #[test]
    fn non_x86_targets_report_scalar() {
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(detected(), SimdLevel::Scalar);
    }
}
