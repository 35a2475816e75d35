//! Runtime width dispatch for the one vectorised kernel in the workspace.
//!
//! mp-dse's `evaluate_batch_prepared` inner loop (paper Eq. 4/5 over the
//! sweep's design columns) is written once, in safe Rust, and compiled
//! twice: for the baseline ISA, and with AVX2 enabled so the compiler may
//! use 256-bit registers. Which instantiation runs is decided here, once per
//! process, from runtime CPU feature detection: hosts without AVX2 (or
//! non-x86 targets) silently take the baseline one. No compile-time feature
//! flag is required for correctness.
//!
//! Both instantiations come from the same source, `avx2` does not enable
//! fused multiply-add, and Rust never contracts or reassociates float
//! arithmetic, so switching levels never changes results — only throughput.
//! That invariant is what lets the forced-scalar override below be a plain
//! process-global: tests and A/B harnesses may toggle it at any time without
//! racing on correctness.
//!
//! ## Forcing the baseline instantiation
//!
//! * environment: set `MP_SIMD_FORCE_SCALAR=1` (read once, at first dispatch);
//! * programmatic: [`set_forced_scalar`] — what the parity tests toggle to
//!   compare both widths inside one process.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Instruction-set level the kernel may be compiled for, decided at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// The target's baseline ISA. Always available.
    Scalar,
    /// AVX2 enabled (256-bit registers, 4×f64). x86-64 only, detected at
    /// runtime.
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
/// baseline level. Read once; `"0"` and empty both mean "not forced".
fn env_forced_scalar() -> bool {
    static CELL: OnceLock<bool> = OnceLock::new();
    *CELL.get_or_init(|| {
        std::env::var("MP_SIMD_FORCE_SCALAR").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
    })
}

static FORCED_SCALAR: AtomicBool = AtomicBool::new(false);

/// Programmatically force (or un-force) the baseline level for the whole
/// process, overriding hardware detection. Safe to toggle at any time: both
/// levels are bit-identical, so in-flight work is unaffected beyond speed.
pub fn set_forced_scalar(forced: bool) {
    FORCED_SCALAR.store(forced, Ordering::Relaxed);
}

/// Whether the baseline level is currently forced (by environment or
/// [`set_forced_scalar`]).
pub fn forced_scalar() -> bool {
    env_forced_scalar() || FORCED_SCALAR.load(Ordering::Relaxed)
}

/// The level to dispatch on *right now*: the detected hardware level,
/// downgraded to [`SimdLevel::Scalar`] while the forced override is active.
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

    /// Holds in whichever process runs it: vacuous unless
    /// `MP_SIMD_FORCE_SCALAR` is set to something other than `0`, and then
    /// the dispatch must never pick the wide instantiation, whatever the
    /// programmatic override says.
    #[test]
    fn forcing_scalar_from_the_environment_pins_the_level() {
        let env = std::env::var("MP_SIMD_FORCE_SCALAR").unwrap_or_default();
        if env.is_empty() || env == "0" {
            return;
        }
        assert!(forced_scalar());
        assert_eq!(level(), SimdLevel::Scalar);
        set_forced_scalar(false);
        assert_eq!(level(), SimdLevel::Scalar, "the environment outranks un-forcing");
    }

    #[test]
    fn non_x86_targets_report_scalar() {
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(detected(), SimdLevel::Scalar);
    }
}
