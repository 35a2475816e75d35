//! Experiment-report plumbing: serialisable rows and plain-text tables.
//!
//! The figure harness prints every reproduced table and figure as rows of
//! labelled numeric columns; this module holds the shared row type and a small
//! fixed-width text renderer so all experiments format identically.

use serde::{Deserialize, Serialize};

/// One row of an experiment table: a label plus named numeric columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableRow {
    /// Row label (e.g. the application or design-point name).
    pub label: String,
    /// Ordered `(column name, value)` pairs.
    pub values: Vec<(String, f64)>,
}

impl TableRow {
    /// Create a row with a label and no values.
    pub fn new(label: impl Into<String>) -> Self {
        TableRow { label: label.into(), values: Vec::new() }
    }

    /// Append a column (builder-style).
    pub fn with(mut self, column: impl Into<String>, value: f64) -> Self {
        self.values.push((column.into(), value));
        self
    }

    /// Look up a column value by name.
    pub fn get(&self, column: &str) -> Option<f64> {
        self.values.iter().find(|(c, _)| c == column).map(|(_, v)| *v)
    }
}

/// Render rows as a fixed-width text table. The header is the ordered union
/// of all rows' column names (first-seen order), so rows with differing column
/// sets — e.g. symmetric (`r=..`) and asymmetric (`rl=..`) sweeps in one
/// figure — render side by side, with `-` marking absent values. Values are
/// printed with `precision` decimals.
pub fn render_table(title: &str, rows: &[TableRow], precision: usize) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    if rows.is_empty() {
        out.push_str("(no rows)\n");
        return out;
    }
    let mut columns: Vec<&str> = Vec::new();
    for row in rows {
        for (c, _) in &row.values {
            if !columns.contains(&c.as_str()) {
                columns.push(c.as_str());
            }
        }
    }
    let label_width =
        rows.iter().map(|r| r.label.len()).chain(std::iter::once("label".len())).max().unwrap_or(5)
            + 2;
    let col_width = columns.iter().map(|c| c.len()).max().unwrap_or(8).max(precision + 6) + 2;

    out.push_str(&format!("{:<label_width$}", "label"));
    for c in &columns {
        out.push_str(&format!("{:>col_width$}", c));
    }
    out.push('\n');
    out.push_str(&"-".repeat(label_width + col_width * columns.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:<label_width$}", row.label));
        for c in &columns {
            match row.get(c) {
                Some(v) => out.push_str(&format!("{:>col_width$.precision$}", v)),
                None => out.push_str(&format!("{:>col_width$}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<TableRow> {
        vec![
            TableRow::new("kmeans").with("f", 0.99985).with("fred", 0.43),
            TableRow::new("fuzzy").with("f", 0.99998).with("fred", 0.35),
        ]
    }

    #[test]
    fn builder_and_get() {
        let r = TableRow::new("x").with("a", 1.0).with("b", 2.0);
        assert_eq!(r.get("a"), Some(1.0));
        assert_eq!(r.get("b"), Some(2.0));
        assert_eq!(r.get("c"), None);
    }

    #[test]
    fn render_contains_all_labels_and_columns() {
        let text = render_table("Table II", &rows(), 5);
        assert!(text.contains("Table II"));
        assert!(text.contains("kmeans"));
        assert!(text.contains("fuzzy"));
        assert!(text.contains("fred"));
        assert!(text.contains("0.99985"));
    }

    #[test]
    fn render_empty_table() {
        let text = render_table("empty", &[], 2);
        assert!(text.contains("(no rows)"));
    }

    #[test]
    fn missing_columns_render_as_dash() {
        let rows = vec![
            TableRow::new("a").with("x", 1.0).with("y", 2.0),
            TableRow::new("b").with("x", 3.0),
        ];
        let text = render_table("t", &rows, 1);
        assert!(text.contains('-'));
    }

    #[test]
    fn header_is_the_union_of_all_row_columns() {
        let rows =
            vec![TableRow::new("sym").with("r=1", 1.0), TableRow::new("asym").with("rl=2", 2.0)];
        let text = render_table("t", &rows, 1);
        assert!(text.contains("r=1"));
        assert!(text.contains("rl=2"));
        assert!(text.contains("2.0"));
    }

    #[test]
    fn rows_round_trip_through_one_line_of_json() {
        let json = serde_json::to_string(&rows()).unwrap();
        assert!(!json.contains('\n'), "{json}");
        let back: Vec<TableRow> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rows());
    }
}
