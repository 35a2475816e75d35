//! Classic Amdahl's Law (paper Eq. 1).
//!
//! `speedup(p) = 1 / (s + f/p)` where `s` is the serial fraction, `f = 1 - s`
//! the parallel fraction and `p` the number of processors. In the limit the
//! speedup approaches `1 / s`.

use crate::error::{check_finite, check_fraction, check_positive, ModelError};

/// Speedup of an application with parallel fraction `f` on `p` identical
/// processors (paper Eq. 1).
///
/// # Errors
/// Returns an error if `f` is not a fraction or `p` is not strictly positive.
pub fn amdahl_speedup(f: f64, p: f64) -> Result<f64, ModelError> {
    let f = check_fraction("f", f)?;
    let p = check_positive("p", p)?;
    let s = 1.0 - f;
    check_finite("amdahl speedup", 1.0 / (s + f / p))
}

/// The asymptotic speedup limit `1 / s` as the processor count goes to
/// infinity. Returns `f64::INFINITY` for a fully parallel application.
///
/// # Errors
/// Returns an error if `f` is not a fraction.
pub fn amdahl_speedup_limit(f: f64) -> Result<f64, ModelError> {
    let f = check_fraction("f", f)?;
    let s = 1.0 - f;
    if s == 0.0 {
        Ok(f64::INFINITY)
    } else {
        Ok(1.0 / s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_processor_gives_unit_speedup() {
        for f in [0.0, 0.5, 0.99, 1.0] {
            assert!((amdahl_speedup(f, 1.0).unwrap() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fully_parallel_scales_linearly() {
        for p in [1.0, 2.0, 64.0, 1024.0] {
            assert!((amdahl_speedup(1.0, p).unwrap() - p).abs() < 1e-9);
        }
    }

    #[test]
    fn fully_serial_never_speeds_up() {
        for p in [1.0, 16.0, 4096.0] {
            assert!((amdahl_speedup(0.0, p).unwrap() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn one_percent_serial_limits_to_one_hundred() {
        // The introduction's example: a 1 % serial section caps speedup ~100.
        assert!((amdahl_speedup_limit(0.99).unwrap() - 100.0).abs() < 1e-9);
        let s1024 = amdahl_speedup(0.99, 1024.0).unwrap();
        assert!(s1024 < 100.0 && s1024 > 90.0);
    }

    #[test]
    fn speedup_is_monotone_in_processors() {
        let mut prev = 0.0;
        for p in 1..=512 {
            let s = amdahl_speedup(0.999, p as f64).unwrap();
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    fn speedup_is_monotone_in_parallel_fraction() {
        let mut prev = 0.0;
        for i in 0..=100 {
            let f = i as f64 / 100.0;
            let s = amdahl_speedup(f, 64.0).unwrap();
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(amdahl_speedup(1.5, 4.0).is_err());
        assert!(amdahl_speedup(0.5, 0.0).is_err());
        assert!(amdahl_speedup_limit(-0.1).is_err());
    }
}
