//! Table I, Table III, Table IV and the Figure 6 split.

use mp_cmpsim::{MachineConfig, WorkloadShape};
use mp_model::params::{AppClass, AppParams, DatasetVariant};
use mp_profile::TableRow;

use super::characterization::simulated_accounting;

/// Table I: the simulated machine configuration.
pub fn table1_machine_config() -> Vec<TableRow> {
    let c = MachineConfig::table1_baseline();
    vec![
        TableRow::new("ops-per-cycle").with("value", c.ops_per_cycle),
        TableRow::new("l1-data-kb").with("value", c.l1_bytes as f64 / 1024.0),
        TableRow::new("l1-latency-cycles").with("value", c.l1_latency),
        TableRow::new("l2-mb").with("value", c.l2_bytes as f64 / (1024.0 * 1024.0)),
        TableRow::new("l2-latency-cycles").with("value", c.l2_latency),
        TableRow::new("memory-latency-cycles").with("value", c.mem_latency),
        TableRow::new("coherence-latency-cycles").with("value", c.coherence_latency),
        TableRow::new("line-bytes").with("value", c.line_bytes as f64),
        TableRow::new("noc-hop-latency-cycles").with("value", c.noc_hop_latency),
        TableRow::new("clock-ghz").with("value", c.frequency_hz / 1e9),
    ]
}

/// Table III: the eight application classes and their parameters.
pub fn table3_application_classes() -> Vec<TableRow> {
    AppClass::table3_all()
        .into_iter()
        .map(|class| {
            TableRow::new(class.name())
                .with("f", class.f())
                .with("fcon_pct", class.fcon() * 100.0)
                .with("fored_pct", class.fored() * 100.0)
        })
        .collect()
}

/// Figure 6 (and Figure 1): the split of the serial fraction for the Table II
/// applications, expressed as percentages of the serial time, plus the
/// communication-model split (computation/communication halves of the
/// reduction fraction).
pub fn fig6_reduction_split() -> Vec<TableRow> {
    AppParams::table2_all()
        .into_iter()
        .map(|p| {
            TableRow::new(p.name.clone())
                .with("fcon_pct", p.split.fcon * 100.0)
                .with("fred_pct", p.split.fred * 100.0)
                .with("fcomp_pct", p.split.fred * 50.0)
                .with("fcomm_pct", p.split.fred * 50.0)
                .with("fored_pct", p.fored * 100.0)
        })
        .collect()
}

/// Table IV: data-set sensitivity. Every paper variant is re-simulated with
/// its N/D/C attributes and the extracted `f`, `fred`, `fcon` are reported
/// next to the paper's values.
pub fn table4_dataset_sensitivity() -> Vec<TableRow> {
    DatasetVariant::table4_all()
        .into_iter()
        .map(|variant| {
            let shape = if variant.application == "hop" {
                let mut s = if variant.points > 100_000 {
                    WorkloadShape::hop_medium()
                } else {
                    WorkloadShape::hop_default()
                };
                s.points = variant.points;
                s
            } else {
                WorkloadShape::from_attributes(variant.points, variant.dims, variant.centers)
            };
            let accounting = simulated_accounting(&variant.application, &shape);
            TableRow::new(variant.label.clone())
                .with("f", accounting.f)
                .with("fred_pct", accounting.fred * 100.0)
                .with("fcon_pct", accounting.fcon * 100.0)
                .with("paper_f", variant.f)
                .with("paper_fred_pct", variant.fred * 100.0)
                .with("paper_fcon_pct", variant.fcon * 100.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_the_cache_hierarchy() {
        let rows = table1_machine_config();
        assert!(rows.iter().any(|r| r.label == "l1-data-kb" && r.get("value") == Some(64.0)));
        assert!(rows.iter().any(|r| r.label == "l2-mb" && r.get("value") == Some(4.0)));
    }

    #[test]
    fn table3_has_eight_rows_with_paper_values() {
        let rows = table3_application_classes();
        assert_eq!(rows.len(), 8);
        for row in &rows {
            let f = row.get("f").unwrap();
            assert!(f == 0.999 || f == 0.99);
            let fcon = row.get("fcon_pct").unwrap();
            assert!(fcon == 90.0 || fcon == 60.0);
            let fored = row.get("fored_pct").unwrap();
            assert!(fored == 10.0 || fored == 80.0);
        }
    }

    #[test]
    fn fig6_split_sums_to_one_hundred_percent() {
        for row in fig6_reduction_split() {
            let fcon = row.get("fcon_pct").unwrap();
            let fred = row.get("fred_pct").unwrap();
            assert!((fcon + fred - 100.0).abs() < 1e-9, "{}", row.label);
            let fcomp = row.get("fcomp_pct").unwrap();
            let fcomm = row.get("fcomm_pct").unwrap();
            assert!((fcomp + fcomm - fred).abs() < 1e-9, "{}", row.label);
        }
    }

    #[test]
    fn table4_point_scaling_increases_parallel_fraction() {
        let rows = table4_dataset_sensitivity();
        let f = |label: &str| rows.iter().find(|r| r.label == label).unwrap().get("f").unwrap();
        // Scaling the number of points increases f (merge work is independent
        // of N); scaling dims/centres leaves it roughly unchanged.
        assert!(f("kmeans-point") > f("kmeans-dim"));
        assert!(f("fuzzy-point") >= f("fuzzy-dim"));
        // All parallel fractions stay very close to 1, as in the paper.
        for row in &rows {
            assert!(row.get("f").unwrap() > 0.99, "{}", row.label);
        }
    }

    #[test]
    fn table4_has_all_paper_variants() {
        let rows = table4_dataset_sensitivity();
        assert_eq!(rows.len(), 10);
        for label in ["kmeans-base", "fuzzy-point", "hop-med"] {
            assert!(rows.iter().any(|r| r.label == label), "{label} missing");
        }
    }
}
