//! Figure 3: scalability prediction with and without reduction overhead.
//!
//! For each Table II application the paper compares the speedup predicted by
//! plain Amdahl's Law (constant serial fraction) against the extended model
//! (reduction overhead growing linearly), scaling out to 256 baseline cores.

use mp_model::explore::Figure;

use crate::report::TableRow;

/// Figure 3: one row per (application, model) pair, columns are the core
/// counts `p=1 … p=256`. The `amdahl` rows assume a constant serial section
/// (paper Eq. 1/2 with `r = 1`); the `with-reduction` rows use the extended
/// model (Eq. 4).
pub fn fig3_scalability_prediction() -> Vec<TableRow> {
    super::figure_rows(Figure::Fig3, |_| "p")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_model::params::AppParams;

    #[test]
    fn amdahl_rows_keep_rising_to_256_cores() {
        let rows = fig3_scalability_prediction();
        for row in rows.iter().filter(|r| r.label.ends_with("amdahl")) {
            let mut prev = 0.0;
            for (column, v) in &row.values {
                assert!(*v >= prev, "{} not monotone at {column}", row.label);
                prev = *v;
            }
            // Near-linear scaling at 256 cores for these tiny serial fractions.
            assert!(row.get("p=256").unwrap() > 190.0, "{}", row.label);
        }
    }

    #[test]
    fn extended_rows_taper_well_below_amdahl() {
        let rows = fig3_scalability_prediction();
        for params in AppParams::table2_all() {
            let amdahl = rows
                .iter()
                .find(|r| r.label == format!("{}-amdahl", params.name))
                .unwrap()
                .get("p=256")
                .unwrap();
            let extended = rows
                .iter()
                .find(|r| r.label == format!("{}-with-reduction", params.name))
                .unwrap()
                .get("p=256")
                .unwrap();
            assert!(
                extended < amdahl / 1.2,
                "{}: extended {extended} should be well below Amdahl {amdahl}",
                params.name
            );
        }
    }

    #[test]
    fn both_models_agree_at_one_core() {
        let rows = fig3_scalability_prediction();
        for row in &rows {
            assert!((row.get("p=1").unwrap() - 1.0).abs() < 1e-9, "{}", row.label);
        }
    }
}
