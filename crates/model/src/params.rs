//! Application parameters: the serial-fraction split of Figure 1/6 and the
//! concrete parameter sets of Tables II, III and IV.
//!
//! The paper characterises an application by:
//!
//! * `f` — the parallel fraction of single-core execution time,
//! * the split of the remaining serial fraction `s = 1 - f` into a constant
//!   part (`fcon`, fraction **of the serial time**) and a reduction part
//!   (`fred`, fraction **of the serial time**, `fcon + fred = 1`),
//! * `fored` — the reduction-overhead coefficient: the relative increase of the
//!   reduction time per unit of the growth function (so at `p` threads the
//!   reduction time is `fred·(1 + fored·grow(p))` of the serial time),
//! * optionally the fraction of time spent in critical sections (measured but
//!   excluded from the model, Section V-A).

use serde::{Deserialize, Serialize};

use crate::error::{check_fraction, ModelError};

/// Split of the serial section into its constant and reduction parts,
/// expressed as fractions of the serial time (paper Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SerialSplit {
    /// Constant serial fraction (of serial time), `fcon`.
    pub fcon: f64,
    /// Reduction fraction (of serial time), `fred = 1 - fcon`.
    pub fred: f64,
}

impl SerialSplit {
    /// Build a split from the constant fraction; the reduction part is the
    /// complement.
    ///
    /// # Errors
    /// Returns an error if `fcon` is not a fraction in `[0, 1]`.
    pub fn from_fcon(fcon: f64) -> Result<Self, ModelError> {
        let fcon = check_fraction("fcon", fcon)?;
        Ok(SerialSplit { fcon, fred: 1.0 - fcon })
    }

    /// Build a split from explicit constant and reduction fractions.
    ///
    /// # Errors
    /// Returns an error if either value is not a fraction or the two do not sum
    /// to one (within `1e-6`).
    pub fn new(fcon: f64, fred: f64) -> Result<Self, ModelError> {
        let fcon = check_fraction("fcon", fcon)?;
        let fred = check_fraction("fred", fred)?;
        let sum = fcon + fred;
        if (sum - 1.0).abs() > 1e-6 {
            return Err(ModelError::FractionSumInvalid { what: "serial split (fcon + fred)", sum });
        }
        Ok(SerialSplit { fcon, fred })
    }
}

/// Full analytical description of an application, in the paper's terms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppParams {
    /// Human-readable name (e.g. `"kmeans"`, `"emb/high-con/low-red"`).
    pub name: String,
    /// Parallel fraction `f` of single-core execution time.
    pub f: f64,
    /// Split of the serial fraction into constant and reduction parts.
    pub split: SerialSplit,
    /// Reduction-overhead coefficient `fored` (relative growth of the reduction
    /// time per unit of the growth function). Values above 1 are legal — the
    /// paper reports `155 %` for hop.
    pub fored: f64,
    /// Fraction of *total* single-core time spent in critical sections.
    /// Reported for completeness (Table II); not used by the model.
    pub critical_section: f64,
}

impl AppParams {
    /// Construct a validated parameter set.
    ///
    /// `fcon` is the constant fraction of the serial time, `fored` the
    /// reduction-overhead coefficient (may exceed 1), `critical_section` the
    /// fraction of total time spent in critical sections.
    ///
    /// # Errors
    /// Returns an error if `f`, `fcon` or `critical_section` are not fractions
    /// or `fored` is negative / non-finite.
    pub fn new(
        name: impl Into<String>,
        f: f64,
        fcon: f64,
        fored: f64,
        critical_section: f64,
    ) -> Result<Self, ModelError> {
        let f = check_fraction("f", f)?;
        let split = SerialSplit::from_fcon(fcon)?;
        if !fored.is_finite() || fored < 0.0 {
            return Err(ModelError::NonPositive { name: "fored", value: fored });
        }
        let critical_section = check_fraction("critical_section", critical_section)?;
        Ok(AppParams { name: name.into(), f, split, fored, critical_section })
    }

    /// The serial fraction `s = 1 - f` of single-core execution time.
    pub fn serial_fraction(&self) -> f64 {
        1.0 - self.f
    }

    /// Constant serial time as a fraction of total single-core time.
    pub fn fcon_abs(&self) -> f64 {
        self.serial_fraction() * self.split.fcon
    }

    /// Single-core reduction time as a fraction of total single-core time.
    pub fn fred_abs(&self) -> f64 {
        self.serial_fraction() * self.split.fred
    }

    /// Rename the parameter set (builder-style), keeping all values.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    // ---------------------------------------------------------------------
    // Table II — measured parameters of the MineBench clustering applications
    // (paper values; the workloads crate re-derives comparable numbers).
    // ---------------------------------------------------------------------

    /// Table II row for `kmeans`: serial 0.015 %, critical 0.004 %,
    /// `fored` 72 %, `fred` 43 %, `fcon` 57 %, `f` 0.99985.
    pub fn table2_kmeans() -> Self {
        AppParams::new("kmeans", 0.99985, 0.57, 0.72, 0.00004).expect("valid Table II row")
    }

    /// Table II row for `fuzzy`: serial 0.002 %, critical 0 %,
    /// `fored` 82 %, `fred` 35 %, `fcon` 65 %, `f` 0.99998.
    pub fn table2_fuzzy() -> Self {
        AppParams::new("fuzzy", 0.99998, 0.65, 0.82, 0.0).expect("valid Table II row")
    }

    /// Table II row for `hop`: serial 0.1 %, critical 0.0003 %,
    /// `fored` 155 %, `fred` 12 %, `fcon` 88 %, `f` 0.999.
    pub fn table2_hop() -> Self {
        AppParams::new("hop", 0.999, 0.88, 1.55, 0.000003).expect("valid Table II row")
    }

    /// All three Table II rows, in paper order.
    pub fn table2_all() -> Vec<Self> {
        vec![Self::table2_kmeans(), Self::table2_fuzzy(), Self::table2_hop()]
    }

    /// The paper's full application catalogue: the eight synthetic Table III
    /// classes followed by the three measured Table II applications. This is
    /// the application axis of the large design-space sweeps (`repro dse`,
    /// the benches and the examples), defined once so they all explore the
    /// same space.
    pub fn paper_catalog() -> Vec<Self> {
        let mut apps: Vec<AppParams> = AppClass::table3_all().iter().map(|c| c.params()).collect();
        apps.extend(Self::table2_all());
        apps
    }
}

/// One of the eight synthetic application classes of Table III, defined along
/// three dimensions: parallelism, constant fraction and reduction overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppClass {
    /// Embarrassingly parallel (`f = 0.999`) vs. non-embarrassingly parallel
    /// (`f = 0.99`).
    pub embarrassingly_parallel: bool,
    /// High constant fraction (`fcon = 90 %`) vs. moderate (`fcon = 60 %`).
    pub high_constant: bool,
    /// High reduction overhead (`fored = 80 %`) vs. low (`fored = 10 %`).
    pub high_reduction_overhead: bool,
}

impl AppClass {
    /// Parallel fraction for this class.
    pub fn f(&self) -> f64 {
        if self.embarrassingly_parallel {
            0.999
        } else {
            0.99
        }
    }

    /// Constant fraction of the serial time for this class.
    pub fn fcon(&self) -> f64 {
        if self.high_constant {
            0.9
        } else {
            0.6
        }
    }

    /// Reduction-overhead coefficient for this class.
    pub fn fored(&self) -> f64 {
        if self.high_reduction_overhead {
            0.8
        } else {
            0.1
        }
    }

    /// A descriptive name, e.g. `"emb/high-con/low-ovh"`.
    pub fn name(&self) -> String {
        format!(
            "{}/{}-con/{}-ovh",
            if self.embarrassingly_parallel { "emb" } else { "non-emb" },
            if self.high_constant { "high" } else { "mod" },
            if self.high_reduction_overhead { "high" } else { "low" },
        )
    }

    /// Convert the class to a concrete [`AppParams`] set.
    pub fn params(&self) -> AppParams {
        AppParams::new(self.name(), self.f(), self.fcon(), self.fored(), 0.0)
            .expect("Table III classes are always valid")
    }

    /// All eight classes, in the row order of Table III.
    pub fn table3_all() -> Vec<AppClass> {
        let mut rows = Vec::with_capacity(8);
        for &high_reduction_overhead in &[false, true] {
            for &high_constant in &[true, false] {
                for &embarrassingly_parallel in &[true, false] {
                    rows.push(AppClass {
                        embarrassingly_parallel,
                        high_constant,
                        high_reduction_overhead,
                    });
                }
            }
        }
        rows
    }
}

/// A Table IV data-set variant: attribute sizes plus the measured fractions the
/// paper reports for it.
///
/// [`DatasetVariant::table4_all`] is the workspace's one statement of each
/// paper data set's `N`, `D` and `C`: the generated data sets
/// (`mp_workloads::data::DatasetSpec`) and the simulated program shapes
/// (`mp_cmpsim::WorkloadShape`) are both built from its rows. Figure 2 and
/// Table II use the base rows, `kmeans-base`, `fuzzy-base` and
/// `hop-default`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetVariant {
    /// Label used in Table IV, e.g. `"kmeans-base"`.
    pub label: String,
    /// Which application the variant belongs to (`"kmeans"`, `"fuzzy"`, `"hop"`).
    pub application: String,
    /// Number of points `N` (for hop: particle count).
    pub points: usize,
    /// Number of dimensions `D` (0 where not applicable).
    pub dims: usize,
    /// Number of cluster centers `C` (0 where not applicable).
    pub centers: usize,
    /// Paper-reported parallel fraction `f`.
    pub f: f64,
    /// Paper-reported reduction fraction of serial time, `fred`.
    pub fred: f64,
    /// Paper-reported constant fraction of serial time, `fcon`.
    pub fcon: f64,
}

impl DatasetVariant {
    #[allow(clippy::too_many_arguments)]
    fn row(
        label: &str,
        application: &str,
        points: usize,
        dims: usize,
        centers: usize,
        f: f64,
        fred: f64,
        fcon: f64,
    ) -> Self {
        DatasetVariant {
            label: label.to_string(),
            application: application.to_string(),
            points,
            dims,
            centers,
            f,
            fred,
            fcon,
        }
    }

    /// All Table IV rows, in paper order.
    pub fn table4_all() -> Vec<Self> {
        vec![
            Self::row("kmeans-base", "kmeans", 17695, 9, 8, 0.99985, 0.43, 0.57),
            Self::row("kmeans-dim", "kmeans", 17695, 18, 8, 0.99984, 0.41, 0.59),
            Self::row("kmeans-point", "kmeans", 35390, 18, 8, 0.99992, 0.49, 0.51),
            Self::row("kmeans-center", "kmeans", 17695, 18, 32, 0.99984, 0.41, 0.59),
            Self::row("fuzzy-base", "fuzzy", 17695, 9, 8, 0.99998, 0.65, 0.35),
            Self::row("fuzzy-dim", "fuzzy", 17695, 18, 8, 0.99997, 0.61, 0.39),
            Self::row("fuzzy-point", "fuzzy", 35390, 18, 8, 0.99999, 0.59, 0.41),
            Self::row("fuzzy-center", "fuzzy", 17695, 18, 32, 0.99998, 0.61, 0.39),
            Self::row("hop-default", "hop", 61440, 3, 0, 0.9990, 0.12, 0.88),
            Self::row("hop-med", "hop", 491520, 3, 0, 0.9980, 0.15, 0.85),
        ]
    }

    /// The Table IV row labelled `label`, e.g. `"kmeans-base"`.
    ///
    /// # Panics
    ///
    /// If Table IV has no row of that label.
    pub fn table4(label: &str) -> Self {
        Self::table4_all()
            .into_iter()
            .find(|row| row.label == label)
            .unwrap_or_else(|| panic!("Table IV has no data set `{label}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_split_complements() {
        let s = SerialSplit::from_fcon(0.57).unwrap();
        assert!((s.fcon + s.fred - 1.0).abs() < 1e-12);
        assert!((s.fred - 0.43).abs() < 1e-12);
    }

    #[test]
    fn serial_split_rejects_inconsistent_pairs() {
        assert!(SerialSplit::new(0.6, 0.3).is_err());
        assert!(SerialSplit::new(0.6, 0.4).is_ok());
        assert!(SerialSplit::new(1.2, -0.2).is_err());
    }

    #[test]
    fn table2_rows_match_paper() {
        let k = AppParams::table2_kmeans();
        assert!((k.f - 0.99985).abs() < 1e-12);
        assert!((k.split.fcon - 0.57).abs() < 1e-12);
        assert!((k.split.fred - 0.43).abs() < 1e-12);
        assert!((k.fored - 0.72).abs() < 1e-12);

        let h = AppParams::table2_hop();
        assert!((h.serial_fraction() - 0.001).abs() < 1e-12);
        assert!(h.fored > 1.0, "hop has super-unity overhead coefficient");
    }

    #[test]
    fn absolute_fractions_scale_with_serial_fraction() {
        let k = AppParams::table2_kmeans();
        let s = k.serial_fraction();
        assert!((k.fcon_abs() - s * 0.57).abs() < 1e-15);
        assert!((k.fred_abs() - s * 0.43).abs() < 1e-15);
        assert!((k.fcon_abs() + k.fred_abs() - s).abs() < 1e-15);
    }

    #[test]
    fn app_params_rejects_bad_values() {
        assert!(AppParams::new("x", 1.5, 0.5, 0.1, 0.0).is_err());
        assert!(AppParams::new("x", 0.9, 1.5, 0.1, 0.0).is_err());
        assert!(AppParams::new("x", 0.9, 0.5, -0.1, 0.0).is_err());
        assert!(AppParams::new("x", 0.9, 0.5, 0.1, 2.0).is_err());
        assert!(AppParams::new("x", 0.9, 0.5, 0.1, 0.0).is_ok());
    }

    #[test]
    fn fored_above_one_is_allowed() {
        // hop's measured coefficient is 1.55.
        let p = AppParams::new("hop-like", 0.999, 0.88, 1.55, 0.0).unwrap();
        assert!((p.fored - 1.55).abs() < 1e-12);
    }

    #[test]
    fn table3_has_eight_distinct_classes() {
        let all = AppClass::table3_all();
        assert_eq!(all.len(), 8);
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i], all[j]);
            }
        }
    }

    #[test]
    fn table3_values_match_paper() {
        let c = AppClass {
            embarrassingly_parallel: true,
            high_constant: true,
            high_reduction_overhead: false,
        };
        assert_eq!(c.f(), 0.999);
        assert_eq!(c.fcon(), 0.9);
        assert_eq!(c.fored(), 0.1);
        let p = c.params();
        assert_eq!(p.f, 0.999);
        assert!((p.split.fred - 0.1).abs() < 1e-12);
    }

    #[test]
    fn table4_has_ten_rows_with_consistent_splits() {
        let rows = DatasetVariant::table4_all();
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!((r.fred + r.fcon - 1.0).abs() < 1e-9, "{}", r.label);
            assert!(r.f > 0.99 && r.f < 1.0, "{}", r.label);
        }
    }

    #[test]
    fn table4_base_rows_match_their_table2_rows() {
        let rows = DatasetVariant::table4_all();
        let row = |label: &str| rows.iter().find(|r| r.label == label).unwrap();
        for (label, paper) in
            [("kmeans-base", AppParams::table2_kmeans()), ("hop-default", AppParams::table2_hop())]
        {
            let r = row(label);
            assert_eq!(r.f, paper.f, "{label}");
            assert!((r.fred - paper.split.fred).abs() < 1e-12, "{label}");
            assert!((r.fcon - paper.split.fcon).abs() < 1e-12, "{label}");
        }
        // The named exception: Table IV gives fuzzy-base fred 65 % / fcon
        // 35 %, Table II gives fuzzy fcon 65 % / fred 35 %. Both are kept as
        // transcribed (EXPERIMENTS.md, Table IV); `f` agrees.
        let (fuzzy, paper) = (row("fuzzy-base"), AppParams::table2_fuzzy());
        assert_eq!(fuzzy.f, paper.f);
        assert!((fuzzy.fred - paper.split.fcon).abs() < 1e-12);
        assert!((fuzzy.fcon - paper.split.fred).abs() < 1e-12);
    }

    #[test]
    fn table4_point_scaling_increases_parallel_fraction() {
        let rows = DatasetVariant::table4_all();
        let base = rows.iter().find(|r| r.label == "kmeans-dim").unwrap();
        let point = rows.iter().find(|r| r.label == "kmeans-point").unwrap();
        assert!(point.f > base.f);
    }

    #[test]
    fn with_name_keeps_values() {
        let p = AppParams::table2_kmeans().with_name("renamed");
        assert_eq!(p.name, "renamed");
        assert!((p.f - 0.99985).abs() < 1e-12);
    }

    #[test]
    fn params_serialize_roundtrip() {
        let p = AppParams::table2_fuzzy();
        let json = serde_json::to_string(&p).unwrap();
        let back: AppParams = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
