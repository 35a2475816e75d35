//! Predicted serial-section growth (paper Figure 2(b) and 2(d)).
//!
//! Figure 2(b) plots the time spent in serial sections at `p` cores normalised
//! to the single-core serial-section time; the extended model predicts this as
//! `serial_multiplier(p) = fcon + fred·(1 + fored·grow(p))`. Figure 2(d)
//! divides that prediction by the multiplier observed in simulation
//! ([`crate::calibrate::RunAccounting`]'s series) to quantify accuracy.

use crate::extended::ExtendedModel;
use crate::growth::GrowthFunction;
use crate::params::AppParams;
use crate::perf::PerfModel;

/// Normalised serial-section time at `threads` cores predicted by the extended
/// model for the given parameters and growth function (Figure 2(b) per-point
/// value, = 1 at a single core).
pub fn serial_growth_factor(params: &AppParams, growth: &GrowthFunction, threads: f64) -> f64 {
    ExtendedModel::new(params.clone(), growth.clone(), PerfModel::Pollack)
        .serial_multiplier(threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_factor_is_one_at_single_core() {
        for p in AppParams::table2_all() {
            let v = serial_growth_factor(&p, &GrowthFunction::Linear, 1.0);
            assert!((v - 1.0).abs() < 1e-12, "{}", p.name);
        }
    }

    #[test]
    fn kmeans_sixteen_core_value_matches_hand_computation() {
        let params = AppParams::table2_kmeans();
        let v = serial_growth_factor(&params, &GrowthFunction::Linear, 16.0);
        assert!((v - 5.644).abs() < 1e-3);
    }

    #[test]
    fn hop_grows_more_slowly_in_multiplier_terms() {
        // hop has a small fred (12 %) so despite its large fored its serial
        // multiplier at 16 cores is smaller than kmeans'.
        let k = serial_growth_factor(&AppParams::table2_kmeans(), &GrowthFunction::Linear, 16.0);
        let h = serial_growth_factor(&AppParams::table2_hop(), &GrowthFunction::Linear, 16.0);
        assert!(h < k);
        assert!(h > 1.0);
    }
}
