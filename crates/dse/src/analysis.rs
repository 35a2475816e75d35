//! Result analysis: top-k designs, per-axis optima and Pareto frontiers.

use serde::{Deserialize, Serialize};

use crate::engine::EvalRecord;
use crate::scenario::ScenarioSpace;

/// The cost axis of a 2-D Pareto study (speedup is always the benefit axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CostAxis {
    /// Minimise the number of cores (design complexity / power proxy).
    Cores,
    /// Minimise the swept core area (`r` / `rl`).
    Area,
}

impl CostAxis {
    /// The cost of one record on this axis.
    pub fn cost(&self, record: &EvalRecord) -> f64 {
        match self {
            CostAxis::Cores => record.cores,
            CostAxis::Area => record.area,
        }
    }

    /// Axis name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CostAxis::Cores => "cores",
            CostAxis::Area => "area",
        }
    }
}

/// The `k` highest-speedup records, best first (invalid records ignored;
/// ties broken toward fewer cores, then lower scenario index for
/// determinism).
pub fn top_k(records: &[EvalRecord], k: usize) -> Vec<EvalRecord> {
    let mut valid: Vec<EvalRecord> = records.iter().filter(|r| r.is_valid()).copied().collect();
    let rank = |a: &EvalRecord, b: &EvalRecord| {
        b.speedup
            .partial_cmp(&a.speedup)
            .expect("valid records are finite")
            .then(a.cores.partial_cmp(&b.cores).expect("cores are finite"))
            .then(a.index.cmp(&b.index))
    };
    // `rank` is a total order, so partitioning around the k-th element and
    // sorting only the head returns the same prefix as sorting everything.
    if k < valid.len() {
        valid.select_nth_unstable_by(k, rank);
        valid.truncate(k);
    }
    valid.sort_by(rank);
    valid
}

/// Whether record `a` Pareto-dominates record `b` on `(cost, speedup)`:
/// no worse on both axes and strictly better on at least one.
pub fn dominates(a: &EvalRecord, b: &EvalRecord, cost: CostAxis) -> bool {
    let (ca, cb) = (cost.cost(a), cost.cost(b));
    ca <= cb && a.speedup >= b.speedup && (ca < cb || a.speedup > b.speedup)
}

/// The Pareto frontier of the valid records on `(cost, speedup)`: the minimal
/// set that dominates-or-equals every evaluated point, ordered by increasing
/// cost (and therefore strictly increasing speedup).
pub fn pareto_frontier(records: &[EvalRecord], cost: CostAxis) -> Vec<EvalRecord> {
    let mut valid: Vec<EvalRecord> = records.iter().filter(|r| r.is_valid()).copied().collect();
    // Cheapest first; among equal costs the fastest first, then by index so
    // duplicate (cost, speedup) pairs resolve deterministically.
    valid.sort_by(|a, b| {
        cost.cost(a)
            .partial_cmp(&cost.cost(b))
            .expect("costs are finite")
            .then(b.speedup.partial_cmp(&a.speedup).expect("valid records are finite"))
            .then(a.index.cmp(&b.index))
    });
    let mut frontier: Vec<EvalRecord> = Vec::new();
    for record in valid {
        match frontier.last() {
            Some(last) if record.speedup <= last.speedup => {}
            _ => frontier.push(record),
        }
    }
    frontier
}

/// The best record for every value of the six strategy axes of `space`
/// (application, budget, growth, perf, reduction, topology): one entry per
/// (axis name, axis value label). Lets a report answer "best design per
/// application", "best per growth function", … in one pass. The design axis
/// is deliberately not enumerated — it is usually a fine grid of hundreds of
/// points, and "the best record per design" is the sweep itself; use
/// [`top_k`] or [`pareto_frontier`] to rank designs.
pub fn per_axis_optima(space: &ScenarioSpace, records: &[EvalRecord]) -> Vec<AxisOptimum> {
    let labels = space.labels();
    let axes: [(&str, &[String]); 6] = [
        ("app", &labels.app),
        ("budget", &labels.budget),
        ("growth", &labels.growth),
        ("perf", &labels.perf),
        ("reduction", &labels.reduction),
        ("topology", &labels.topology),
    ];
    // best[axis][value], in the order of `axes`.
    let mut best: Vec<Vec<Option<EvalRecord>>> =
        axes.iter().map(|(_, values)| vec![None; values.len()]).collect();
    for record in records.iter().filter(|r| r.is_valid()) {
        let ix = space.decode(record.index);
        let values = [ix.app, ix.budget, ix.growth, ix.perf, ix.reduction, ix.topology];
        for (slots, value) in best.iter_mut().zip(values) {
            if slots[value].map_or(true, |current| record.speedup > current.speedup) {
                slots[value] = Some(*record);
            }
        }
    }
    let mut optima = Vec::new();
    for ((axis, values), slots) in axes.into_iter().zip(best) {
        for (value, slot) in values.iter().zip(slots) {
            if let Some(record) = slot {
                optima.push(AxisOptimum { axis: axis.to_string(), value: value.clone(), record });
            }
        }
    }
    optima
}

/// The best record found for one value of one axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisOptimum {
    /// Axis name (`"app"`, `"budget"`, `"growth"`, `"perf"`, `"reduction"`,
    /// `"topology"`).
    pub axis: String,
    /// The axis value's label.
    pub value: String,
    /// The best record for that value.
    pub record: EvalRecord,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(index: usize, speedup: f64, cores: f64, area: f64) -> EvalRecord {
        EvalRecord { index, speedup, cores, area }
    }

    #[test]
    fn top_k_orders_and_filters() {
        let records = vec![
            record(0, 5.0, 64.0, 4.0),
            record(1, f64::NAN, 1.0, 256.0),
            record(2, 9.0, 32.0, 8.0),
            record(3, 7.0, 16.0, 16.0),
        ];
        let top = top_k(&records, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].index, 2);
        assert_eq!(top[1].index, 3);
    }

    #[test]
    fn top_k_breaks_speedup_ties_toward_fewer_cores() {
        let records = vec![record(0, 5.0, 64.0, 4.0), record(1, 5.0, 16.0, 16.0)];
        let top = top_k(&records, 1);
        assert_eq!(top[0].index, 1);
    }

    #[test]
    fn frontier_is_minimal_and_dominating() {
        let records = vec![
            record(0, 1.0, 1.0, 256.0),
            record(1, 4.0, 4.0, 64.0),
            record(2, 3.0, 4.0, 64.0), // dominated by 1 (same cores, slower)
            record(3, 6.0, 64.0, 4.0),
            record(4, 6.0, 256.0, 1.0), // dominated by 3 (same speedup, more cores)
            record(5, f64::NAN, 8.0, 32.0),
        ];
        let frontier = pareto_frontier(&records, CostAxis::Cores);
        let indices: Vec<usize> = frontier.iter().map(|r| r.index).collect();
        assert_eq!(indices, vec![0, 1, 3]);
        // Minimal: no frontier point dominates another.
        for a in &frontier {
            for b in &frontier {
                if a.index != b.index {
                    assert!(!dominates(a, b, CostAxis::Cores));
                }
            }
        }
        // Complete: every valid point is dominated-or-equal by some frontier point.
        for r in records.iter().filter(|r| r.is_valid()) {
            assert!(frontier.iter().any(|f| dominates(f, r, CostAxis::Cores)
                || (f.cores == r.cores && f.speedup == r.speedup)));
        }
    }

    #[test]
    fn frontier_cost_axis_changes_the_result() {
        let records = vec![record(0, 5.0, 64.0, 4.0), record(1, 4.0, 16.0, 16.0)];
        // On cores, both survive (cheaper-but-slower point is non-dominated).
        assert_eq!(pareto_frontier(&records, CostAxis::Cores).len(), 2);
        // On area, the r = 4 design is both cheaper and faster.
        assert_eq!(pareto_frontier(&records, CostAxis::Area).len(), 1);
    }
}
