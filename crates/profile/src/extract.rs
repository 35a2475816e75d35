//! Extraction of the paper's model parameters from instrumented runs.
//!
//! Section V-A of the paper describes how the parameters are obtained:
//!
//! * `f` (and `s = 1 − f`) from the single-core run: serial time over total
//!   time, with initialisation excluded,
//! * `fcon` from the single-core time spent in serial sections *without*
//!   reduction operations,
//! * `fcred` (we call it `fred`, the single-core reduction fraction of serial
//!   time) from the single-core reduction time,
//! * `fored` from the *relative increase* of the reduction time over its
//!   single-core value when using multiple cores.
//!
//! [`extract_params`] reproduces exactly that procedure from a set of
//! [`RunProfile`]s, and the result converts into an [`mp_model::AppParams`]
//! ready to be fed to the analytical models.

use serde::{Deserialize, Serialize};

use mp_model::calibrate::{MeasuredRun, RunAccounting};
use mp_model::growth::GrowthFunction;
use mp_model::params::AppParams;
use mp_model::serial_time::fit_fored;

use crate::phase::RunProfile;

/// Parameters extracted from instrumented runs, in the paper's terms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtractedParams {
    /// Workload name.
    pub app: String,
    /// Parallel fraction `f` measured on the single-core run.
    pub f: f64,
    /// Serial fraction `s = 1 − f`.
    pub serial_fraction: f64,
    /// Constant fraction of the serial time, `fcon`.
    pub fcon: f64,
    /// Reduction fraction of the serial time, `fred`.
    pub fred: f64,
    /// Fitted reduction-overhead coefficient, `fored`.
    pub fored: f64,
    /// Normalised serial-section time per thread count (Figure 2(b)/(c) data).
    pub serial_growth: Vec<(usize, f64)>,
    /// Measured speedups per thread count, relative to the single-core run
    /// (Figure 2(a) data).
    pub speedups: Vec<(usize, f64)>,
}

impl ExtractedParams {
    /// Convert to the analytical-model parameter set. The critical-section
    /// fraction is reported as zero (the workloads use no locks on their hot
    /// paths, matching the paper's observation that critical sections are
    /// negligible).
    pub fn to_app_params(&self) -> AppParams {
        AppParams::new(
            self.app.clone(),
            self.f.clamp(0.0, 1.0),
            self.fcon.clamp(0.0, 1.0),
            self.fored.max(0.0),
            0.0,
        )
        .expect("extracted parameters are valid fractions")
    }
}

/// Normalised serial-section growth: serial time at each thread count divided
/// by the serial time of the single-thread profile (Figure 2(b)/(c)).
///
/// Profiles are matched by thread count; the baseline is the profile with
/// `threads == 1`. Returns an empty vector if no single-thread profile exists
/// or its serial time is zero.
pub fn serial_growth(profiles: &[RunProfile]) -> Vec<(usize, f64)> {
    let base = match profiles.iter().find(|p| p.threads == 1) {
        Some(b) if b.serial_time() > 0.0 => b.serial_time(),
        _ => return Vec::new(),
    };
    let mut series: Vec<(usize, f64)> =
        profiles.iter().map(|p| (p.threads, p.serial_time() / base)).collect();
    series.sort_by_key(|&(t, _)| t);
    series
}

/// Measured speedup at each thread count relative to the single-thread run
/// (total time excluding initialisation), i.e. the Figure 2(a) series.
pub fn speedup_series(profiles: &[RunProfile]) -> Vec<(usize, f64)> {
    let base = match profiles.iter().find(|p| p.threads == 1) {
        Some(b) if b.total_time() > 0.0 => b.total_time(),
        _ => return Vec::new(),
    };
    let mut series: Vec<(usize, f64)> = profiles
        .iter()
        .map(|p| (p.threads, base / p.total_time().max(f64::MIN_POSITIVE)))
        .collect();
    series.sort_by_key(|&(t, _)| t);
    series
}

/// Extract the full parameter set from section totals ([`MeasuredRun`]s) of
/// the same workload at different thread counts. This is the streaming core:
/// the phase scheduler's record sink aggregates straight into
/// [`MeasuredRun`]s, so extraction never needs the flat per-phase record
/// lists. A single-thread run must be present; multi-thread runs refine the
/// `fored` fit and populate the growth/speedup series.
///
/// `growth` selects the growth-function shape assumed when fitting `fored`
/// (the paper uses linear for all three applications).
pub fn extract_params_from_runs(
    app: &str,
    runs: &[MeasuredRun],
    growth: &GrowthFunction,
) -> Option<ExtractedParams> {
    // The Section V-A accounting (baseline fractions + series) is shared
    // with model calibration so the two paths cannot diverge.
    let accounting = RunAccounting::from_runs(runs).ok()?;
    let RunAccounting { f, serial_fraction, fcon, fred, serial_multipliers, speedups } = accounting;

    // Fit fored from the growth of the *serial* section, which is what the
    // paper plots; the fit solves multiplier(p) − 1 = fred·fored·grow(p).
    let fored = fit_fored(fred, growth, &serial_multipliers).unwrap_or(0.0);

    Some(ExtractedParams {
        app: app.to_string(),
        f,
        serial_fraction,
        fcon,
        fred,
        fored,
        serial_growth: serial_multipliers,
        speedups,
    })
}

/// Extract the full parameter set from a collection of profiles of the same
/// workload at different thread counts (the post-hoc adapter over
/// [`extract_params_from_runs`]).
pub fn extract_params(profiles: &[RunProfile], growth: &GrowthFunction) -> Option<ExtractedParams> {
    let base = profiles.iter().find(|p| p.threads == 1)?;
    let runs: Vec<MeasuredRun> = profiles.iter().map(RunProfile::to_measured_run).collect();
    extract_params_from_runs(&base.app, &runs, growth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::{PhaseKind, PhaseRecord};

    /// Build a synthetic profile following the extended model exactly:
    /// parallel time f/p, constant serial fcon_abs, reduction
    /// fred_abs·(1 + fored·(p−1)).
    fn synthetic_profile(app: &str, p: usize, f: f64, fcon: f64, fored: f64) -> RunProfile {
        let s = 1.0 - f;
        let fcon_abs = s * fcon;
        let fred_abs = s * (1.0 - fcon);
        let mut profile = RunProfile::new(app, p);
        let push = |profile: &mut RunProfile, kind, seconds| {
            profile.push(PhaseRecord::new(kind, "x", seconds, p))
        };
        push(&mut profile, PhaseKind::Init, 0.01);
        push(&mut profile, PhaseKind::Parallel, f / p as f64);
        push(&mut profile, PhaseKind::SerialConstant, fcon_abs);
        push(&mut profile, PhaseKind::Reduction, fred_abs * (1.0 + fored * (p as f64 - 1.0)));
        profile
    }

    fn synthetic_profiles(f: f64, fcon: f64, fored: f64) -> Vec<RunProfile> {
        [1usize, 2, 4, 8, 16]
            .iter()
            .map(|&p| synthetic_profile("synthetic", p, f, fcon, fored))
            .collect()
    }

    #[test]
    fn extraction_recovers_known_parameters() {
        let f = 0.99;
        let fcon = 0.6;
        let fored = 0.8;
        let profiles = synthetic_profiles(f, fcon, fored);
        let ex = extract_params(&profiles, &GrowthFunction::Linear).unwrap();
        assert!((ex.f - f).abs() < 1e-9, "f: {}", ex.f);
        assert!((ex.fcon - fcon).abs() < 1e-9, "fcon: {}", ex.fcon);
        assert!((ex.fred - (1.0 - fcon)).abs() < 1e-9);
        assert!((ex.fored - fored).abs() < 1e-6, "fored: {}", ex.fored);
    }

    #[test]
    fn extraction_roundtrips_into_app_params() {
        let profiles = synthetic_profiles(0.999, 0.57, 0.72);
        let ex = extract_params(&profiles, &GrowthFunction::Linear).unwrap();
        let params = ex.to_app_params();
        assert!((params.f - 0.999).abs() < 1e-9);
        assert!((params.split.fcon - 0.57).abs() < 1e-9);
        assert!((params.fored - 0.72).abs() < 1e-6);
    }

    #[test]
    fn serial_growth_is_normalised_to_single_thread() {
        let profiles = synthetic_profiles(0.99, 0.5, 1.0);
        let growth = serial_growth(&profiles);
        assert_eq!(growth[0], (1, 1.0));
        // At 16 threads: 0.5 + 0.5·(1 + 15) = 8.5
        let (_, g16) = growth.iter().find(|(t, _)| *t == 16).copied().unwrap();
        assert!((g16 - 8.5).abs() < 1e-9);
    }

    #[test]
    fn speedup_series_reflects_parallel_scaling() {
        let profiles = synthetic_profiles(0.999, 0.6, 0.1);
        let speedups = speedup_series(&profiles);
        let (_, s16) = speedups.iter().find(|(t, _)| *t == 16).copied().unwrap();
        assert!(s16 > 10.0 && s16 <= 16.0, "got {s16}");
        // Monotone increasing for this low-overhead configuration.
        for w in speedups.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn extraction_without_single_thread_run_is_none() {
        let profiles = vec![synthetic_profile("x", 4, 0.99, 0.5, 0.5)];
        assert!(extract_params(&profiles, &GrowthFunction::Linear).is_none());
        assert!(serial_growth(&profiles).is_empty());
        assert!(speedup_series(&profiles).is_empty());
    }

    #[test]
    fn zero_reduction_workload_extracts_zero_overhead() {
        // fcon = 1.0 → no reduction at all → fored must come out 0.
        let profiles = synthetic_profiles(0.99, 1.0, 0.0);
        let ex = extract_params(&profiles, &GrowthFunction::Linear).unwrap();
        assert_eq!(ex.fred, 0.0);
        assert_eq!(ex.fored, 0.0);
    }

    #[test]
    fn logarithmic_fit_recovers_log_grown_overhead() {
        // Build profiles whose reduction grows logarithmically and fit with the
        // matching growth function.
        let f = 0.99;
        let fcon = 0.4;
        let fored = 0.6;
        let s = 1.0 - f;
        let profiles: Vec<RunProfile> = [1usize, 2, 4, 8, 16]
            .iter()
            .map(|&p| {
                let mut profile = RunProfile::new("log-app", p);
                profile.push(PhaseRecord::new(PhaseKind::Parallel, "par", f / p as f64, p));
                profile.push(PhaseRecord::new(PhaseKind::SerialConstant, "ser", s * fcon, p));
                profile.push(PhaseRecord::new(
                    PhaseKind::Reduction,
                    "red",
                    s * (1.0 - fcon) * (1.0 + fored * (p as f64).log2()),
                    p,
                ));
                profile
            })
            .collect();
        let ex = extract_params(&profiles, &GrowthFunction::Logarithmic).unwrap();
        assert!((ex.fored - fored).abs() < 1e-6, "got {}", ex.fored);
    }
}
