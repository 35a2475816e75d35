//! Streaming JSON / CSV export of sweep results.
//!
//! Both formats are one writer over a `Format`, the literal text around a
//! row's thirteen cells. Eleven of those cells are functions of axis values,
//! not of the record, so a row is assembled by copying text spelled ahead:
//!
//! - `budget_bce, design, r, rl, cores, area` depend only on the (budget,
//!   design) pair — the two innermost axes of the index order — and are
//!   spelled once per pair when the writer starts. A record whose `cores` or
//!   `area` bits differ from the pair's is spelled cell by cell instead.
//! - `app` and `growth, perf, reduction, topology` are constant over a run of
//!   `budgets × designs` consecutive indices and are spelled again only where
//!   the run changes.
//! - The index and one shortest round-trip float, the speedup, are all that
//!   is spelled per record.
//!
//! Every float goes through one function, `push_float`, which spells it with
//! the crate's own shortest round-trip writer (`shortest`, Ryu laid out as
//! `Display` lays it out) instead of `core::fmt`. The tests hold the writers
//! to a per-record `format!` oracle, so `std` still defines the bytes.
//!
//! Rows collect in one buffer that goes to the underlying writer in pieces of
//! at least 256 KiB, so a file takes a few hundred `write` calls and
//! wants no `BufWriter`. Nothing is allocated per record. Field order and
//! float spelling are deterministic, so byte-identical sweeps export
//! byte-identical files.

use std::io::{self, Write};

use mp_model::chip::ChipBudget;

use crate::engine::{EvalRecord, SweepStats};
use crate::scenario::{ChipSpec, ScenarioSpace};
use crate::shortest::push_f64;

/// The writers hand rows to the underlying writer in pieces of at least this
/// many bytes (the last piece excepted).
const CHUNK: usize = 1 << 18;

/// The literal text one export format puts around a row's cells.
struct Format {
    /// Before each cell, in column order: index, app, budget_bce, design, r,
    /// rl, cores, area, growth, perf, reduction, topology, speedup.
    before: [&'static str; 13],
    /// After the speedup cell.
    after: &'static str,
    /// Between two rows.
    between: &'static str,
    /// A number that is not finite (CSV leaves the cell empty; JSON has no
    /// NaN and says `null`).
    missing: &'static str,
}

const CSV: Format = Format {
    before: ["", ",", ",", ",", ",", ",", ",", ",", ",", ",", ",", ",", ","],
    after: "\n",
    between: "",
    missing: "",
};

const JSON: Format = Format {
    before: [
        "\n{\"index\":",
        ",\"app\":",
        ",\"budget_bce\":",
        ",\"design\":\"",
        "\",\"r\":",
        ",\"rl\":",
        ",\"cores\":",
        ",\"area\":",
        ",\"growth\":\"",
        "\",\"perf\":\"",
        "\",\"reduction\":\"",
        "\",\"topology\":\"",
        "\",\"speedup\":",
    ],
    after: "}",
    between: ",",
    missing: "null",
};

/// Append `value` in its shortest round-trip spelling, or `missing` when it
/// is not finite.
fn push_float(buf: &mut Vec<u8>, value: f64, missing: &str) {
    if value.is_finite() {
        push_f64(buf, value);
    } else {
        buf.extend_from_slice(missing.as_bytes());
    }
}

/// Append `value` in decimal.
fn push_index(buf: &mut Vec<u8>, mut value: usize) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[start..]);
}

/// Append the `budget_bce` … `area` cells of `design` under the budget
/// spelled `budget`, with the `cores` and `area` values given.
fn push_chip(
    buf: &mut Vec<u8>,
    format: &Format,
    budget: &str,
    design: &ChipSpec,
    cores: f64,
    area: f64,
) {
    let (kind, r, rl) = match *design {
        ChipSpec::Symmetric { r } => ("symmetric", r, f64::NAN),
        ChipSpec::Asymmetric { r, rl } => ("asymmetric", r, rl),
    };
    for piece in [budget, format.before[3], kind] {
        buf.extend_from_slice(piece.as_bytes());
    }
    for (before, value) in format.before[4..8].iter().zip([r, rl, cores, area]) {
        buf.extend_from_slice(before.as_bytes());
        push_float(buf, value, format.missing);
    }
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

/// Stream `head`, one `format` row per record and `tail` into `out`. `apps`
/// holds the application names as the format spells them.
fn write_rows<W: Write>(
    out: &mut W,
    space: &ScenarioSpace,
    records: &[EvalRecord],
    format: &Format,
    apps: &[String],
    head: &str,
    tail: &str,
) -> io::Result<()> {
    let labels = space.labels();
    let before = &format.before;

    // The chip cells of every (budget, design) pair — pair `budget · designs
    // + design`, the index modulo `pairs` — are `chips[bounds[pair]..
    // bounds[pair + 1]]` and spell the `cores` / `area` bits `bits[pair]`.
    let designs = space.designs();
    let pairs = space.budgets().len() * designs.len();
    let mut chips = Vec::new();
    let mut bounds = vec![0];
    let mut bits = Vec::with_capacity(pairs);
    for (&budget_bce, budget) in space.budgets().iter().zip(&labels.budget) {
        for design in designs {
            let (cores, area) = (design.cores(ChipBudget::new(budget_bce)), design.area());
            push_chip(&mut chips, format, budget, design, cores, area);
            bounds.push(chips.len());
            bits.push((cores.to_bits(), area.to_bits()));
        }
    }

    // The current run's cells: `run[..split]` from `before[1]` up to the
    // budget, `run[split..]` from `before[8]` up to the speedup.
    let mut run = Vec::new();
    let mut split = 0;
    let mut current_run = None;

    let mut buf = Vec::with_capacity(2 * CHUNK);
    buf.extend_from_slice(head.as_bytes());
    let mut between = "";
    for record in records {
        let index = record.index;
        if current_run != Some(index / pairs) {
            let ix = space.decode(index);
            run.clear();
            for piece in [before[1], &apps[ix.app], before[2]] {
                run.extend_from_slice(piece.as_bytes());
            }
            split = run.len();
            for piece in [
                before[8],
                &labels.growth[ix.growth],
                before[9],
                &labels.perf[ix.perf],
                before[10],
                &labels.reduction[ix.reduction],
                before[11],
                &labels.topology[ix.topology],
                before[12],
            ] {
                run.extend_from_slice(piece.as_bytes());
            }
            current_run = Some(index / pairs);
        }

        buf.extend_from_slice(between.as_bytes());
        between = format.between;
        buf.extend_from_slice(before[0].as_bytes());
        push_index(&mut buf, index);
        buf.extend_from_slice(&run[..split]);
        let pair = index % pairs;
        if bits[pair] == (record.cores.to_bits(), record.area.to_bits()) {
            buf.extend_from_slice(&chips[bounds[pair]..bounds[pair + 1]]);
        } else {
            let budget = &labels.budget[pair / designs.len()];
            let design = &designs[pair % designs.len()];
            push_chip(&mut buf, format, budget, design, record.cores, record.area);
        }
        buf.extend_from_slice(&run[split..]);
        push_float(&mut buf, record.speedup, format.missing);
        buf.extend_from_slice(format.after.as_bytes());

        if buf.len() >= CHUNK {
            out.write_all(&buf)?;
            buf.clear();
        }
    }
    buf.extend_from_slice(tail.as_bytes());
    out.write_all(&buf)
}

/// Stream the records as CSV (header + one row per record; invalid scenarios
/// get an empty speedup column).
pub fn write_csv<W: Write>(
    out: &mut W,
    space: &ScenarioSpace,
    records: &[EvalRecord],
) -> io::Result<()> {
    let apps: Vec<String> = space.apps().iter().map(|app| csv_escape(&app.name)).collect();
    let head =
        "index,app,budget_bce,design,r,rl,cores,area,growth,perf,reduction,topology,speedup\n";
    write_rows(out, space, records, &CSV, &apps, head, "")
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
    let apps: Vec<String> = space
        .apps()
        .iter()
        .map(|app| serde_json::to_string(&app.name).expect("strings serialise"))
        .collect();
    let head = format!(
        "{{\"stats\":{},\"records\":[",
        serde_json::to_string(stats).expect("stats always serialise")
    );
    write_rows(out, space, records, &JSON, &apps, &head, "\n]}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AnalyticBackend;
    use crate::engine::{Engine, SweepConfig};
    use proptest::prelude::*;

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

    /// Both writers' bytes for `records` equal the oracle's.
    fn assert_oracle_bytes(space: &ScenarioSpace, records: &[EvalRecord], stats: &SweepStats) {
        let mut csv = Vec::new();
        write_csv(&mut csv, space, records).unwrap();
        let header =
            "index,app,budget_bce,design,r,rl,cores,area,growth,perf,reduction,topology,speedup\n";
        let expected = header.to_string() + &oracle_rows(space, records, false).concat();
        assert_eq!(String::from_utf8(csv).unwrap(), expected);

        let mut json = Vec::new();
        write_json(&mut json, space, records, stats).unwrap();
        let expected = format!(
            "{{\"stats\":{},\"records\":[{}\n]}}\n",
            serde_json::to_string(stats).unwrap(),
            oracle_rows(space, records, true).join(","),
        );
        assert_eq!(String::from_utf8(json).unwrap(), expected);
    }

    fn every_cell_kind() -> ScenarioSpace {
        use mp_model::growth::GrowthFunction;
        use mp_model::params::AppParams;
        use mp_model::perf::PerfModel;
        use mp_model::topology::Topology;
        use mp_par::ReductionStrategy;
        // Every cell kind: empty / null `rl` (symmetric) and speedup (r = 512
        // fits neither budget), an app name needing CSV quoting and JSON
        // escapes, parameterised growth / perf labels, several values on the
        // reduction and topology axes.
        ScenarioSpace::new()
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
            .with_topologies(vec![Topology::Torus2D, Topology::Mesh2D, Topology::Ideal])
    }

    #[test]
    fn writers_match_the_per_record_oracle_byte_for_byte() {
        let space = every_cell_kind();
        let result = Engine::new(1).sweep(&space, &AnalyticBackend, &SweepConfig::default());
        assert!(result.records.iter().any(|r| !r.is_valid()), "the unfit design is swept");
        let n = result.records.len();
        // The whole sweep, and a window that neither starts at index 0 nor
        // on a design-run boundary.
        for records in [&result.records[..], &result.records[n / 3 + 1..n - 2]] {
            assert_oracle_bytes(&space, records, &result.stats);
        }
    }

    /// A space built from drawn axis choices: application names assembled
    /// from pieces that need quoting or escaping, repeated and unfit budgets,
    /// symmetric and asymmetric designs of any size, and one or two values on
    /// each model axis (`axes[i]` picks them for axis `i`).
    fn arbitrary_space(
        names: &[Vec<usize>],
        budgets: &[usize],
        designs: &[(f64, f64, bool)],
        axes: &[usize],
    ) -> ScenarioSpace {
        use mp_model::growth::GrowthFunction;
        use mp_model::params::AppParams;
        use mp_model::perf::PerfModel;
        use mp_model::topology::Topology;
        use mp_par::ReductionStrategy;
        const PIECES: [&str; 8] = ["kmeans", ",", "\"", "\n", "\r", "é", "\\", " x"];
        const BUDGETS: [f64; 5] = [16.0, 64.0, 100.5, 256.0, 1000.0];
        fn pick<T: Clone>(values: &[T], choice: usize) -> Vec<T> {
            let first = choice % values.len();
            let mut picked = vec![values[first].clone()];
            if choice / values.len() % 2 == 1 {
                picked.push(values[(first + 1) % values.len()].clone());
            }
            picked
        }
        let apps = names
            .iter()
            .map(|pieces| {
                let name: String = pieces.iter().map(|&piece| PIECES[piece]).collect();
                AppParams::table2_hop().with_name(&name)
            })
            .collect();
        let designs = designs
            .iter()
            .map(|&(r, factor, asym)| match asym {
                true => ChipSpec::Asymmetric { r, rl: r * factor },
                false => ChipSpec::Symmetric { r },
            })
            .collect();
        let growths =
            [GrowthFunction::Constant, GrowthFunction::Linear, GrowthFunction::Superlinear(1.55)];
        let perfs = [PerfModel::Pollack, PerfModel::Power(0.75), PerfModel::Linear];
        let topologies = [Topology::Ideal, Topology::Mesh2D, Topology::Torus2D];
        ScenarioSpace::new()
            .with_apps(apps)
            .with_budgets(budgets.iter().map(|&b| BUDGETS[b]).collect())
            .with_designs(designs)
            .with_growths(pick(&growths, axes[0]))
            .with_perfs(pick(&perfs, axes[1]))
            .with_reductions(pick(&ReductionStrategy::all(), axes[2]))
            .with_topologies(pick(&topologies, axes[3]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any space, and any records, not only an engine's: out of index
        /// order, repeated, and with `cores` / `area` that disagree with their
        /// (budget, design) pair — NaN, infinite, negative zero or just
        /// different bits — export exactly the oracle's bytes.
        #[test]
        fn arbitrary_records_match_the_oracle(
            names in proptest::collection::vec(proptest::collection::vec(0usize..8, 1..5), 1..4),
            budgets in proptest::collection::vec(0usize..5, 1..4),
            designs in proptest::collection::vec(
                (0.5f64..600.0, 1.0f64..3.0, proptest::bool::ANY),
                1..7,
            ),
            axes in proptest::collection::vec(0usize..64, 4),
            picks in proptest::collection::vec(
                (0usize..1_000_000, 0u8..8, 0u8..8, 0u8..6),
                0..200,
            ),
        ) {
            let space = arbitrary_space(&names, &budgets, &designs, &axes);
            let result = Engine::new(1).sweep(&space, &AnalyticBackend, &SweepConfig::default());
            assert_oracle_bytes(&space, &result.records, &result.stats);
            let odd = |kind: u8, value: f64| match kind {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => -0.0,
                3 => f64::from_bits(value.to_bits() ^ 1),
                4 => -value * 3.5,
                _ => value,
            };
            let records: Vec<EvalRecord> = picks
                .iter()
                .map(|&(pick, cores, area, speedup)| {
                    let record = result.records[pick % space.len()];
                    EvalRecord {
                        cores: odd(cores, record.cores),
                        area: odd(area, record.area),
                        speedup: odd(speedup, record.speedup),
                        ..record
                    }
                })
                .collect();
            assert_oracle_bytes(&space, &records, &result.stats);
        }
    }

    /// A `Write` that records the size of every call it receives.
    #[derive(Default)]
    struct Calls {
        bytes: Vec<u8>,
        sizes: Vec<usize>,
    }

    impl Write for Calls {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.sizes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writers_hand_over_large_chunks() {
        let space = every_cell_kind().with_budgets((1..=40).map(|b| 16.0 * b as f64).collect());
        let result = Engine::new(1).sweep(&space, &AnalyticBackend, &SweepConfig::default());
        for json in [false, true] {
            let mut calls = Calls::default();
            if json {
                write_json(&mut calls, &space, &result.records, &result.stats).unwrap();
            } else {
                write_csv(&mut calls, &space, &result.records).unwrap();
            }
            let (last, pieces) = calls.sizes.split_last().unwrap();
            assert!(pieces.len() >= 2, "{} bytes in {} calls", calls.bytes.len(), pieces.len());
            assert!(pieces.iter().all(|&size| size >= CHUNK), "{:?}", calls.sizes);
            assert!(*last > 0 && *last < CHUNK + 4096, "{:?}", calls.sizes);
            assert_eq!(calls.sizes.iter().sum::<usize>(), calls.bytes.len());
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
