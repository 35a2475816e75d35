//! Streaming JSON / CSV export of sweep results.
//!
//! Both writers stream record by record into any [`std::io::Write`]. A row is
//! assembled in one reused `String` from cells spelled once per *axis value*
//! ([`ScenarioSpace::labels`], the escaped application names, each design's
//! `design,r,rl` cells) plus the record's three numbers, so an export
//! allocates nothing per record. The emitted field order and float formatting
//! are deterministic, so byte-identical sweeps export byte-identical files.

use std::fmt::Write as _;
use std::io::{self, Write};

use crate::engine::{EvalRecord, SweepStats};
use crate::scenario::{ChipSpec, ScenarioSpace};

/// Append `value` in its shortest round-trip spelling, or `missing` when it
/// is not finite (CSV leaves the cell empty; JSON has no NaN and says `null`).
fn push_float(row: &mut String, value: f64, missing: &str) {
    if value.is_finite() {
        write!(row, "{value}").expect("a String accepts every write");
    } else {
        row.push_str(missing);
    }
}

/// The `design`, `r` and `rl` cells of every design of `space`, each preceded
/// by its entry of `before` (the format's separator or key).
fn design_cells(space: &ScenarioSpace, before: [&str; 3], missing: &str) -> Vec<String> {
    let spell = |design: &ChipSpec| {
        let (kind, r, rl) = match *design {
            ChipSpec::Symmetric { r } => ("symmetric", r, f64::NAN),
            ChipSpec::Asymmetric { r, rl } => ("asymmetric", r, rl),
        };
        let mut cells = format!("{}{kind}{}", before[0], before[1]);
        push_float(&mut cells, r, missing);
        cells.push_str(before[2]);
        push_float(&mut cells, rl, missing);
        cells
    };
    space.designs().iter().map(spell).collect()
}

/// RFC-4180 quoting for free-form fields (application names are arbitrary
/// user strings; the remaining string columns are fixed identifiers).
fn csv_escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Stream the records as CSV (header + one row per record; invalid scenarios
/// get an empty speedup column).
pub fn write_csv<W: Write>(
    out: &mut W,
    space: &ScenarioSpace,
    records: &[EvalRecord],
) -> io::Result<()> {
    writeln!(
        out,
        "index,app,budget_bce,design,r,rl,cores,area,growth,perf,reduction,topology,speedup"
    )?;
    let labels = space.labels();
    let apps: Vec<String> = labels.app.iter().map(|name| csv_escape(name)).collect();
    let designs = design_cells(space, ["", ",", ","], "");
    let mut row = String::new();
    for record in records {
        let ix = space.decode(record.index);
        row.clear();
        write!(
            row,
            "{},{},{},{},",
            record.index, apps[ix.app], labels.budget[ix.budget], designs[ix.design],
        )
        .expect("a String accepts every write");
        push_float(&mut row, record.cores, "");
        row.push(',');
        push_float(&mut row, record.area, "");
        write!(
            row,
            ",{},{},{},{},",
            labels.growth[ix.growth],
            labels.perf[ix.perf],
            labels.reduction[ix.reduction],
            labels.topology[ix.topology],
        )
        .expect("a String accepts every write");
        push_float(&mut row, record.speedup, "");
        row.push('\n');
        out.write_all(row.as_bytes())?;
    }
    Ok(())
}

/// Stream the sweep as a JSON document: stats header plus a records array,
/// one object per line. Invalid speedups are emitted as `null` (JSON has no
/// NaN).
pub fn write_json<W: Write>(
    out: &mut W,
    space: &ScenarioSpace,
    records: &[EvalRecord],
    stats: &SweepStats,
) -> io::Result<()> {
    write!(
        out,
        "{{\"stats\":{},\"records\":[",
        serde_json::to_string(stats).expect("stats always serialise")
    )?;
    let labels = space.labels();
    let json_string = |name| serde_json::to_string(name).expect("strings serialise");
    let apps: Vec<String> = labels.app.iter().map(json_string).collect();
    let designs = design_cells(space, ["\"design\":\"", "\",\"r\":", ",\"rl\":"], "null");
    let mut row = String::new();
    for (i, record) in records.iter().enumerate() {
        let ix = space.decode(record.index);
        row.clear();
        write!(
            row,
            "{}\n{{\"index\":{},\"app\":{},\"budget_bce\":{},{},\"cores\":",
            if i == 0 { "" } else { "," },
            record.index,
            apps[ix.app],
            labels.budget[ix.budget],
            designs[ix.design],
        )
        .expect("a String accepts every write");
        push_float(&mut row, record.cores, "null");
        row.push_str(",\"area\":");
        push_float(&mut row, record.area, "null");
        write!(
            row,
            ",\"growth\":\"{}\",\"perf\":\"{}\",\"reduction\":\"{}\",\"topology\":\"{}\",\"speedup\":",
            labels.growth[ix.growth],
            labels.perf[ix.perf],
            labels.reduction[ix.reduction],
            labels.topology[ix.topology],
        )
        .expect("a String accepts every write");
        push_float(&mut row, record.speedup, "null");
        row.push('}');
        out.write_all(row.as_bytes())?;
    }
    writeln!(out, "\n]}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AnalyticBackend;
    use crate::engine::{Engine, SweepConfig};

    fn sweep() -> (ScenarioSpace, Vec<EvalRecord>, SweepStats) {
        let space = ScenarioSpace::new()
            .clear_designs()
            .add_symmetric_grid([1.0, 4.0, 512.0])
            .add_asymmetric_grid([1.0], [16.0]);
        let engine = Engine::new(1);
        let result = engine.sweep(&space, &AnalyticBackend, &SweepConfig::default());
        (space, result.records, result.stats)
    }

    /// The per-record spelling the table-driven writers replaced — decode the
    /// whole scenario, `format!` every cell — kept as their reference.
    fn oracle_rows(space: &ScenarioSpace, records: &[EvalRecord], json: bool) -> Vec<String> {
        let missing = if json { "null" } else { "" };
        let float = |v: f64| if v.is_finite() { format!("{v}") } else { missing.to_string() };
        let row = |record: &EvalRecord| {
            let s = space.scenario(record.index);
            let (kind, r, rl) = match s.design {
                ChipSpec::Symmetric { r } => ("symmetric", r, f64::NAN),
                ChipSpec::Asymmetric { r, rl } => ("asymmetric", r, rl),
            };
            let (index, budget, r, rl) = (record.index, s.budget.total_bce(), float(r), float(rl));
            let (cores, area, speedup) =
                (float(record.cores), float(record.area), float(record.speedup));
            let (growth, perf, reduction) = (s.growth.label(), s.perf.label(), s.reduction.name());
            let topology = format!("{:?}", s.topology);
            if json {
                let app = serde_json::to_string(&s.app.name).unwrap();
                format!(
                    "\n{{\"index\":{index},\"app\":{app},\"budget_bce\":{budget},\"design\":\"{kind}\",\"r\":{r},\"rl\":{rl},\"cores\":{cores},\"area\":{area},\"growth\":\"{growth}\",\"perf\":\"{perf}\",\"reduction\":\"{reduction}\",\"topology\":\"{topology}\",\"speedup\":{speedup}}}"
                )
            } else {
                let app = csv_escape(&s.app.name);
                format!("{index},{app},{budget},{kind},{r},{rl},{cores},{area},{growth},{perf},{reduction},{topology},{speedup}\n")
            }
        };
        records.iter().map(row).collect()
    }

    #[test]
    fn writers_match_the_per_record_oracle_byte_for_byte() {
        use mp_model::growth::GrowthFunction;
        use mp_model::params::AppParams;
        use mp_model::perf::PerfModel;
        use mp_model::topology::Topology;
        use mp_par::ReductionStrategy;
        // Every cell kind: empty / null `rl` (symmetric) and speedup (r = 512
        // fits neither budget), an app name needing CSV quoting and JSON
        // escapes, parameterised growth / perf labels, several values on the
        // reduction and topology axes.
        let space = ScenarioSpace::new()
            .with_apps(vec![
                AppParams::table2_kmeans().with_name("k,means \"v2\"\nnext"),
                AppParams::table2_hop(),
            ])
            .with_budgets(vec![64.0, 256.0])
            .clear_designs()
            .add_symmetric_grid([1.0, 2.5, 512.0])
            .add_asymmetric_grid([1.0, 4.0], [16.0])
            .with_growths(vec![GrowthFunction::Superlinear(1.55), GrowthFunction::Linear])
            .with_perfs(vec![PerfModel::Power(0.75), PerfModel::Pollack])
            .with_reductions(vec![ReductionStrategy::TreeLog, ReductionStrategy::SerialLinear])
            .with_topologies(vec![Topology::Torus2D, Topology::Mesh2D, Topology::Ideal]);
        let result = Engine::new(1).sweep(&space, &AnalyticBackend, &SweepConfig::default());
        assert!(result.records.iter().any(|r| !r.is_valid()), "the unfit design is swept");
        let n = result.records.len();
        // The whole sweep, and a window that neither starts at index 0 nor
        // on a design-run boundary.
        for records in [&result.records[..], &result.records[n / 3 + 1..n - 2]] {
            let mut csv = Vec::new();
            write_csv(&mut csv, &space, records).unwrap();
            let header =
                "index,app,budget_bce,design,r,rl,cores,area,growth,perf,reduction,topology,speedup\n";
            let expected = header.to_string() + &oracle_rows(&space, records, false).concat();
            assert_eq!(String::from_utf8(csv).unwrap(), expected);

            let mut json = Vec::new();
            write_json(&mut json, &space, records, &result.stats).unwrap();
            let expected = format!(
                "{{\"stats\":{},\"records\":[{}\n]}}\n",
                serde_json::to_string(&result.stats).unwrap(),
                oracle_rows(&space, records, true).join(","),
            );
            assert_eq!(String::from_utf8(json).unwrap(), expected);
        }
    }

    #[test]
    fn csv_has_header_and_one_row_per_record() {
        let (space, records, _) = sweep();
        let mut buf = Vec::new();
        write_csv(&mut buf, &space, &records).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + records.len());
        assert!(lines[0].starts_with("index,app,"));
        // The unfit r = 512 design exports an empty speedup cell.
        assert!(lines[3].ends_with(','));
        // The asymmetric design carries an rl value.
        assert!(lines[4].contains("asymmetric"));
    }

    #[test]
    fn json_parses_back_and_nan_becomes_null() {
        let (space, records, stats) = sweep();
        let mut buf = Vec::new();
        write_json(&mut buf, &space, &records, &stats).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let value = serde_json::parse(&text).unwrap();
        let map = value.as_map().unwrap();
        let parsed_records =
            map.iter().find(|(k, _)| k == "records").and_then(|(_, v)| v.as_arr()).unwrap();
        assert_eq!(parsed_records.len(), records.len());
        let unfit = parsed_records[2].as_map().unwrap();
        assert!(unfit.iter().find(|(k, _)| k == "speedup").unwrap().1.is_null());
    }

    #[test]
    fn exports_are_deterministic() {
        let (space, records, stats) = sweep();
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_csv(&mut a, &space, &records).unwrap();
        write_csv(&mut b, &space, &records).unwrap();
        assert_eq!(a, b);
        let mut c = Vec::new();
        let mut d = Vec::new();
        write_json(&mut c, &space, &records, &stats).unwrap();
        write_json(&mut d, &space, &records, &stats).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn csv_quotes_app_names_containing_delimiters() {
        use mp_model::params::AppParams;
        let space = ScenarioSpace::new()
            .with_apps(vec![AppParams::table2_kmeans().with_name("kmeans, \"tuned\"")]);
        let engine = Engine::new(1);
        let result = engine.sweep(&space, &AnalyticBackend, &SweepConfig::default());
        let mut buf = Vec::new();
        write_csv(&mut buf, &space, &result.records).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let row = text.lines().nth(1).unwrap();
        assert!(row.contains("\"kmeans, \"\"tuned\"\"\""), "row: {row}");
        // The one embedded comma sits inside the quoted field, so a naive
        // split sees exactly one extra column and an RFC-4180 reader sees the
        // correct count.
        let header_cols = text.lines().next().unwrap().split(',').count();
        let naive_cols = row.split(',').count();
        assert_eq!(naive_cols, header_cols + 1, "row: {row}");
    }
}
