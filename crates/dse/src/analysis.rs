//! Result analysis: top-k designs, per-axis optima and Pareto frontiers.
//!
//! The top-k and Pareto queries come twice. [`TopK`] and [`Pareto`] are
//! [`Reducer`]s — the production path: [`Engine::reduce_range`] folds them
//! per worker while it sweeps, so their memory is `k` records, or one record
//! per cost value, whatever the size of the space; `repro dse` and `repro
//! calibrate` fold their in-memory records through them as one partial.
//! [`top_k`] and [`pareto_frontier`] are the sort-based reference oracle the
//! reducers are checked against (the tests, `repro load`'s parity check, the
//! benchmark's answer check); nothing in production calls them.
//!
//! [`Engine::reduce_range`]: crate::engine::Engine::reduce_range

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use crate::engine::{EvalRecord, Reducer};
use crate::scenario::ScenarioSpace;

/// The cost axis of a 2-D Pareto study (speedup is always the benefit axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
///
/// The sort-based reference oracle of [`TopK`], which answers the same
/// question without copying every valid record.
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
///
/// The sort-based reference oracle of [`Pareto`], which answers the same
/// question without copying and sorting every valid record.
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

/// [`top_k`]'s ranking of valid records: speedup descending, then fewer
/// cores, then lower index — a total order, since indices are unique. The
/// tie-breaks are only computed for equal speedups, so rejecting a record
/// below the cut costs one comparison.
fn rank(a: &EvalRecord, b: &EvalRecord) -> Ordering {
    b.speedup
        .partial_cmp(&a.speedup)
        .expect("valid records are finite")
        .then_with(|| a.cores.partial_cmp(&b.cores).expect("cores are finite"))
        .then_with(|| a.index.cmp(&b.index))
}

/// A record in a [`TopK`] buffer, ordered so that the worse record is the
/// greater: the max-heap's top is the worst record kept.
#[derive(Debug, Clone, Copy)]
struct Ranked(EvalRecord);

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        rank(&self.0, &other.0)
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Ranked {}

/// The [`Reducer`] answering [`top_k`]: a bounded buffer of the best `k`
/// valid records seen, worst on top, so a record that does not make the cut
/// costs one comparison. It never holds more than `min(k, records folded)`
/// records, so an unbounded `k` (every valid record, sorted) is safe.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    kept: BinaryHeap<Ranked>,
}

impl TopK {
    /// A reducer keeping the `k` best records.
    pub fn new(k: usize) -> TopK {
        TopK { k, kept: BinaryHeap::new() }
    }

    fn offer(&mut self, record: EvalRecord) {
        if self.kept.len() < self.k {
            self.kept.push(Ranked(record));
        } else if self.kept.peek().is_some_and(|worst| rank(&record, &worst.0).is_lt()) {
            *self.kept.peek_mut().expect("the buffer is not empty") = Ranked(record);
        }
    }
}

impl Reducer for TopK {
    /// The kept records, best first — [`top_k`]'s answer.
    type Output = Vec<EvalRecord>;

    fn fold(&mut self, records: &[EvalRecord]) {
        for record in records.iter().filter(|r| r.is_valid()) {
            self.offer(*record);
        }
    }

    fn merge(&mut self, other: TopK) {
        for Ranked(record) in other.kept.into_vec() {
            self.offer(record);
        }
    }

    fn finish(self) -> Vec<EvalRecord> {
        self.kept.into_sorted_vec().into_iter().map(|Ranked(record)| record).collect()
    }
}

/// The [`Reducer`] answering [`pareto_frontier`]: the best record (speedup
/// descending, then lower index) of every cost cell, and at the end one sort
/// and staircase over those cells alone.
///
/// A record's cost is a function of its design and, for cores, its budget,
/// so the cells are indexed by design (area) or by (budget, design) (cores)
/// — the way the engine indexes its core-count table — and read off the
/// record's index without hashing. Keeping only each cell's best record is
/// exact: the records of a cell share one cost, and the sort-based scan
/// only ever pushes the best record of a cost.
#[derive(Debug, Clone)]
pub struct Pareto {
    cost: CostAxis,
    /// The best record per cell; an `EMPTY` placeholder until one arrives.
    best: Vec<EvalRecord>,
}

/// The placeholder of a cell nothing has reached: every valid record beats
/// it, and it is not valid itself.
const EMPTY: EvalRecord =
    EvalRecord { index: usize::MAX, speedup: f64::NEG_INFINITY, cores: 0.0, area: 0.0 };

impl Pareto {
    /// A reducer for the frontier on `cost` of records swept from `space`.
    pub fn new(space: &ScenarioSpace, cost: CostAxis) -> Pareto {
        // The design axis varies fastest and the budget axis next, so a
        // record's cell is its index modulo the cell count.
        let cells = match cost {
            CostAxis::Cores => space.designs().len() * space.budgets().len(),
            CostAxis::Area => space.designs().len(),
        };
        Pareto { cost, best: vec![EMPTY; cells.max(1)] }
    }
}

/// Whether `a` is the better record of a cost cell.
fn beats(a: &EvalRecord, b: &EvalRecord) -> bool {
    a.speedup > b.speedup || (a.speedup == b.speedup && a.index < b.index)
}

impl Reducer for Pareto {
    /// The frontier by increasing cost — [`pareto_frontier`]'s answer.
    type Output = Vec<EvalRecord>;

    fn fold(&mut self, records: &[EvalRecord]) {
        let cells = self.best.len();
        // Runs of consecutive indices step through the cells; only a jump
        // pays for a division.
        let mut last: Option<(usize, usize)> = None;
        for record in records {
            let cell = match last {
                Some((index, cell)) if record.index == index + 1 => {
                    if cell + 1 == cells {
                        0
                    } else {
                        cell + 1
                    }
                }
                _ => record.index % cells,
            };
            last = Some((record.index, cell));
            if record.is_valid() && beats(record, &self.best[cell]) {
                self.best[cell] = *record;
            }
        }
    }

    fn merge(&mut self, other: Pareto) {
        assert_eq!(self.best.len(), other.best.len(), "partials of one space");
        for (mine, theirs) in self.best.iter_mut().zip(other.best) {
            if beats(&theirs, mine) {
                *mine = theirs;
            }
        }
    }

    fn finish(self) -> Vec<EvalRecord> {
        let cost = self.cost;
        let mut best: Vec<EvalRecord> = self.best.into_iter().filter(|r| r.is_valid()).collect();
        best.sort_unstable_by(|a, b| {
            cost.cost(a)
                .partial_cmp(&cost.cost(b))
                .expect("costs are finite")
                .then_with(|| b.speedup.partial_cmp(&a.speedup).expect("valid records are finite"))
                .then_with(|| a.index.cmp(&b.index))
        });
        let mut frontier: Vec<EvalRecord> = Vec::new();
        for record in best {
            if frontier.last().map_or(true, |last| record.speedup > last.speedup) {
                frontier.push(record);
            }
        }
        frontier
    }
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

    /// Fold `records` backwards, one partial per record, and merge them.
    fn fold_singly<R: Reducer>(init: &R, records: &[EvalRecord]) -> R::Output {
        let mut merged = init.clone();
        for record in records.iter().rev() {
            let mut partial = init.clone();
            partial.fold(std::slice::from_ref(record));
            merged.merge(partial);
        }
        merged.finish()
    }

    #[test]
    fn top_k_reducer_breaks_ties_like_the_oracle() {
        // Equal speedups rank fewer cores first, then the lower index.
        let records = vec![
            record(0, 5.0, 64.0, 4.0),
            record(1, 5.0, 16.0, 16.0),
            record(2, 5.0, 16.0, 16.0),
            record(3, f64::NAN, 1.0, 256.0),
            record(4, 9.0, 32.0, 8.0),
        ];
        for k in [0, 1, 2, 3, 4, 5, usize::MAX] {
            assert_eq!(TopK::new(k).reduce(&records), top_k(&records, k), "k = {k}");
            assert_eq!(fold_singly(&TopK::new(k), &records), top_k(&records, k), "k = {k}");
        }
    }

    #[test]
    fn pareto_reducer_keeps_the_oracles_record_of_every_cost() {
        // Three designs: a record's area cell is its index modulo 3.
        let space = ScenarioSpace::new()
            .with_budgets(vec![64.0])
            .clear_designs()
            .add_symmetric_grid([1.0, 4.0, 16.0]);
        let records = vec![
            record(0, 2.0, 64.0, 1.0),
            record(1, 5.0, 16.0, 4.0),
            record(2, 5.0, 4.0, 16.0), // as fast as record 1, costlier
            record(3, 2.0, 64.0, 1.0), // ties record 0: the lower index wins
            record(4, 6.0, 16.0, 4.0),
            record(5, f64::NAN, 4.0, 16.0),
        ];
        let pareto = Pareto::new(&space, CostAxis::Area);
        let truth = pareto_frontier(&records, CostAxis::Area);
        assert_eq!(truth.iter().map(|r| r.index).collect::<Vec<_>>(), vec![0, 4]);
        assert_eq!(pareto.clone().reduce(&records), truth);
        assert_eq!(fold_singly(&pareto, &records), truth);
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
