//! Figures 4, 5 and 7 — the CMP design-space study under a 256-BCE budget —
//! as tables, plus the ACMP-vs-CMP summary. The curve families are
//! [`mp_model::explore::figure_curves`]; the variants of [`Figure`] describe
//! what each figure sweeps.

use mp_model::chip::ChipBudget;
use mp_model::explore::{best_asymmetric, best_symmetric, Figure};
use mp_model::extended::ExtendedModel;
use mp_model::growth::GrowthFunction;
use mp_model::params::AppClass;
use mp_model::perf::PerfModel;

use crate::report::TableRow;

/// Figure 4: symmetric-CMP speedup curves. One row per
/// (application class, growth function); the columns are per-core areas.
pub fn fig4_symmetric_design_space() -> Vec<TableRow> {
    super::figure_rows(Figure::Fig4, |_| "r")
}

/// Figure 5: asymmetric-CMP speedup curves. One row per
/// (application class, small-core area); the columns are large-core areas.
pub fn fig5_asymmetric_design_space() -> Vec<TableRow> {
    super::figure_rows(Figure::Fig5, |_| "rl")
}

/// Figure 7: communication-aware model for the non-embarrassingly-parallel,
/// moderate-constant class. The `symmetric` row sweeps the per-core area; the
/// `asymmetric[r=..]` rows sweep the large-core area.
pub fn fig7_communication_model() -> Vec<TableRow> {
    super::figure_rows(Figure::Fig7, |curve| if curve.label == "symmetric" { "r" } else { "rl" })
}

/// Headline comparison used in the paper's Section V-D/V-E discussion: best
/// symmetric vs best asymmetric speedup per application class under the
/// extended model, plus the ratio (the "ACMP advantage").
pub fn acmp_advantage_summary() -> Vec<TableRow> {
    let budget = ChipBudget::paper_default();
    AppClass::table3_all()
        .into_iter()
        .map(|class| {
            let model =
                ExtendedModel::new(class.params(), GrowthFunction::Linear, PerfModel::Pollack);
            let best_sym = best_symmetric(&model, budget).unwrap();
            let (best_r, best_asym) = best_asymmetric(&model, budget).unwrap();
            TableRow::new(class.name())
                .with("best_sym_speedup", best_sym.speedup)
                .with("best_sym_r", best_sym.area)
                .with("best_asym_speedup", best_asym.speedup)
                .with("best_asym_rl", best_asym.area)
                .with("best_asym_r", best_r)
                .with("acmp_advantage", best_asym.speedup / best_sym.speedup)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peak(row: &TableRow) -> (String, f64) {
        row.values
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .map(|(c, v)| (c.clone(), *v))
            .unwrap()
    }

    #[test]
    fn fig4_has_sixteen_curves_over_nine_areas() {
        let rows = fig4_symmetric_design_space();
        assert_eq!(rows.len(), 8 * 2);
        for row in &rows {
            assert_eq!(row.values.len(), 9);
        }
    }

    #[test]
    fn fig4_linear_growth_never_peaks_at_single_bce_cores() {
        for row in fig4_symmetric_design_space().iter().filter(|r| r.label.contains("[linear]")) {
            let (col, _) = peak(row);
            assert_ne!(col, "r=1", "{} should not peak at r=1", row.label);
        }
    }

    #[test]
    fn fig4_paper_peaks_match() {
        let rows = fig4_symmetric_design_space();
        // (0.999, moderate constant, low overhead, Linear): 104.5 at r=4.
        let row = rows.iter().find(|r| r.label == "emb/mod-con/low-ovh[linear]").unwrap();
        let (col, val) = peak(row);
        assert_eq!(col, "r=4");
        assert!((val - 104.5).abs() < 1.5, "got {val}");
        // (0.999, moderate constant, high overhead, Linear): 67.1 at r=8.
        let row = rows.iter().find(|r| r.label == "emb/mod-con/high-ovh[linear]").unwrap();
        let (col, val) = peak(row);
        assert_eq!(col, "r=8");
        assert!((val - 67.1).abs() < 1.5, "got {val}");
    }

    #[test]
    fn fig4_log_growth_prefers_small_cores_for_embarrassingly_parallel() {
        let rows = fig4_symmetric_design_space();
        for label in ["emb/high-con/low-ovh[log]", "emb/mod-con/low-ovh[log]"] {
            let row = rows.iter().find(|r| r.label == label).unwrap();
            let (col, _) = peak(row);
            assert_eq!(col, "r=1", "{label}");
        }
    }

    #[test]
    fn fig5_low_overhead_prefers_unit_small_cores() {
        let rows = fig5_asymmetric_design_space();
        // For low reduction overhead the r=1 curve should reach the highest
        // speedup among the three small-core choices (paper Fig. 5(a/b/e/f)).
        for class in ["emb/high-con/low-ovh", "non-emb/high-con/low-ovh"] {
            let best_per_r: Vec<f64> = [1, 4, 16]
                .iter()
                .map(|r| {
                    let row =
                        rows.iter().find(|row| row.label == format!("{class}[r={r}]")).unwrap();
                    peak(row).1
                })
                .collect();
            assert!(
                best_per_r[0] >= best_per_r[1] && best_per_r[0] >= best_per_r[2],
                "{class}: {best_per_r:?}"
            );
        }
    }

    #[test]
    fn fig5_high_overhead_nonemb_prefers_larger_small_cores() {
        let rows = fig5_asymmetric_design_space();
        // Paper Fig. 5(d)/(h): r = 4 beats r = 1.
        for class in ["non-emb/high-con/high-ovh", "non-emb/mod-con/high-ovh"] {
            let r1 = peak(rows.iter().find(|r| r.label == format!("{class}[r=1]")).unwrap()).1;
            let r4 = peak(rows.iter().find(|r| r.label == format!("{class}[r=4]")).unwrap()).1;
            assert!(r4 > r1, "{class}: r=4 ({r4}) should beat r=1 ({r1})");
        }
    }

    #[test]
    fn fig5_paper_values_match() {
        let rows = fig5_asymmetric_design_space();
        // Fig. 5(h) r=4: 43.3 ; r=1: 22.6. Fig. 5(d) r=4: 64.2.
        let v = peak(rows.iter().find(|r| r.label == "non-emb/mod-con/high-ovh[r=4]").unwrap()).1;
        assert!((v - 43.3).abs() < 1.5, "got {v}");
        let v = peak(rows.iter().find(|r| r.label == "non-emb/mod-con/high-ovh[r=1]").unwrap()).1;
        assert!((v - 22.6).abs() < 1.5, "got {v}");
        let v = peak(rows.iter().find(|r| r.label == "non-emb/high-con/high-ovh[r=4]").unwrap()).1;
        assert!((v - 64.2).abs() < 2.0, "got {v}");
    }

    #[test]
    fn fig7_peaks_match_paper() {
        let rows = fig7_communication_model();
        let sym = rows.iter().find(|r| r.label == "symmetric").unwrap();
        let (col, val) = peak(sym);
        assert_eq!(col, "r=8");
        assert!((val - 46.6).abs() < 2.0, "got {val}");

        let asym_r4 = rows.iter().find(|r| r.label == "asymmetric[r=4]").unwrap();
        let (_, val_r4) = peak(asym_r4);
        assert!((val_r4 - 51.6).abs() < 2.0, "got {val_r4}");
        let asym_r1 = rows.iter().find(|r| r.label == "asymmetric[r=1]").unwrap();
        let (_, val_r1) = peak(asym_r1);
        assert!(val_r4 > val_r1, "r=4 should edge out r=1");
    }

    #[test]
    fn acmp_advantage_shrinks_with_reduction_overhead() {
        let rows = acmp_advantage_summary();
        let adv = |label: &str| {
            rows.iter().find(|r| r.label == label).unwrap().get("acmp_advantage").unwrap()
        };
        assert!(adv("non-emb/high-con/low-ovh") > adv("non-emb/high-con/high-ovh"));
        assert!(adv("non-emb/mod-con/low-ovh") > adv("non-emb/mod-con/high-ovh"));
    }
}
