//! Single-core performance as a function of core area (`perf(r)`).
//!
//! The paper (following Hill & Marty and Borkar) assumes that a core built from
//! `r` base-core equivalents (BCE) delivers `sqrt(r)` times the performance of
//! a 1-BCE core — *Pollack's rule*. This module makes the performance model a
//! first-class, swappable component so the design-space studies can be re-run
//! under alternative area/performance assumptions (an ablation the paper's
//! Section V-D invites).

use serde::{Deserialize, Serialize};

use crate::error::{check_positive, ModelError};

/// Performance of a core occupying `r` BCE of chip area, relative to a 1-BCE core.
///
/// All variants satisfy `perf(1) == 1` so that speedups are expressed relative
/// to a single base core, exactly as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum PerfModel {
    /// Pollack's rule: `perf(r) = sqrt(r)`. The paper's default (Section V-D:
    /// "the performance of a core is proportional to the square root of the
    /// area").
    #[default]
    Pollack,
    /// Idealised linear scaling: `perf(r) = r`. Upper bound used for ablation;
    /// under this model big cores are never worse than many small ones.
    Linear,
    /// General power law: `perf(r) = r^exponent`. `Pollack` is `Power(0.5)` and
    /// `Linear` is `Power(1.0)`.
    Power(
        /// Exponent of the power law; typically in `(0, 1]`.
        f64,
    ),
    /// Diminishing-returns model `perf(r) = 1 + k·ln(r)` with `k > 0`,
    /// representing designs where extra area buys ever less single-thread
    /// performance.
    Logarithmic(
        /// Slope `k` of the logarithmic improvement.
        f64,
    ),
}

impl PerfModel {
    /// Evaluate `perf(r)` for a core of `r` BCE.
    ///
    /// # Errors
    /// Returns [`ModelError::NonPositive`] if `r <= 0` or is not finite.
    pub fn perf(&self, r: f64) -> Result<f64, ModelError> {
        let r = check_positive("r", r)?;
        let value = match self {
            PerfModel::Pollack => r.sqrt(),
            PerfModel::Linear => r,
            PerfModel::Power(exp) => r.powf(*exp),
            PerfModel::Logarithmic(k) => 1.0 + k * r.ln(),
        };
        if value.is_finite() && value > 0.0 {
            Ok(value)
        } else {
            Err(ModelError::NonFinite { what: "perf(r)" })
        }
    }

    /// A short, human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PerfModel::Pollack => "pollack-sqrt",
            PerfModel::Linear => "linear",
            PerfModel::Power(_) => "power",
            PerfModel::Logarithmic(_) => "logarithmic",
        }
    }

    /// Like [`PerfModel::name`], but parameterised variants carry their
    /// parameters, so distinct models always label distinctly
    /// (e.g. `"power(0.75)"`, `"logarithmic(0.5)"`).
    pub fn label(&self) -> String {
        match self {
            PerfModel::Power(exp) => format!("power({exp})"),
            PerfModel::Logarithmic(k) => format!("logarithmic({k})"),
            other => other.name().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pollack_matches_paper_examples() {
        // "a core made up of four BCEs performs twice as high as a single BCE"
        let m = PerfModel::Pollack;
        assert!((m.perf(4.0).unwrap() - 2.0).abs() < 1e-12);
        assert!((m.perf(16.0).unwrap() - 4.0).abs() < 1e-12);
        assert!((m.perf(1.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_models_normalised_at_one_bce() {
        for m in [
            PerfModel::Pollack,
            PerfModel::Linear,
            PerfModel::Power(0.7),
            PerfModel::Logarithmic(0.5),
        ] {
            assert!((m.perf(1.0).unwrap() - 1.0).abs() < 1e-12, "{m:?}");
        }
    }

    #[test]
    fn linear_and_power_one_agree() {
        for r in [1.0, 2.0, 7.5, 64.0] {
            let a = PerfModel::Linear.perf(r).unwrap();
            let b = PerfModel::Power(1.0).perf(r).unwrap();
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn pollack_is_power_half() {
        for r in [1.0, 4.0, 9.0, 256.0] {
            let a = PerfModel::Pollack.perf(r).unwrap();
            let b = PerfModel::Power(0.5).perf(r).unwrap();
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn perf_is_monotone_in_area() {
        for m in [
            PerfModel::Pollack,
            PerfModel::Linear,
            PerfModel::Power(0.3),
            PerfModel::Logarithmic(1.0),
        ] {
            let mut prev = 0.0;
            for r in 1..=64 {
                let p = m.perf(r as f64).unwrap();
                assert!(p > prev, "{m:?} not monotone at r={r}");
                prev = p;
            }
        }
    }

    #[test]
    fn invalid_area_is_rejected() {
        assert!(PerfModel::Pollack.perf(0.0).is_err());
        assert!(PerfModel::Pollack.perf(-4.0).is_err());
        assert!(PerfModel::Pollack.perf(f64::NAN).is_err());
    }

    #[test]
    fn default_is_pollack() {
        assert_eq!(PerfModel::default(), PerfModel::Pollack);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(PerfModel::Pollack.name(), "pollack-sqrt");
        assert_eq!(PerfModel::Linear.name(), "linear");
    }
}
