//! Work-unit extraction: sizing a sweep's schedulable units from the live
//! per-scenario evaluation cost.
//!
//! The serving layer's work-stealing scheduler and the engine's cursor
//! layer ([`crate::engine::RangeCursor`]) split index ranges the same way:
//! contiguous, disjoint windows walked in index order, so copying each
//! unit's records to its offset in the answer is bit-identical to evaluating
//! the range in one piece. What this module adds is the *sizing* policy —
//! how many scenarios one unit should carry.
//!
//! Units are deliberately **coarse**. Yavits/Morad/Ginosar's synchronization
//! extension of Amdahl's law (PAPERS.md) is the design guide: every
//! steal/claim is a synchronization point, and with units much smaller than
//! the coordination cost the scheduler would spend its balance win on
//! queue traffic. Targeting a few milliseconds of evaluation per unit keeps
//! the steal rate orders of magnitude below the evaluation rate while still
//! giving an idle worker something to take within one unit's latency.

use std::ops::Range;

use crate::engine::RangeCursor;

/// Evaluation time one work unit should aim to carry, milliseconds.
/// A stolen unit re-balances load within roughly this latency; see the
/// module docs for why it is not smaller.
pub const TARGET_UNIT_MS: f64 = 4.0;

/// Floor on scenarios per unit, whatever the cost model claims — below
/// this the per-unit bookkeeping (queue hop, stats fan-in, result copy)
/// stops being negligible against the evaluation itself.
pub const MIN_UNIT_SCENARIOS: usize = 64;

/// Ceiling on scenarios per unit: one giant unit cannot be stolen, so a
/// cheap-per-scenario space must still decompose into enough units for the
/// idle shards to claim.
pub const MAX_UNIT_SCENARIOS: usize = 8192;

/// Scenarios per work unit for a backend evaluating one scenario in
/// `per_scenario_ms` milliseconds: `TARGET_UNIT_MS` worth of work, clamped
/// to `[MIN_UNIT_SCENARIOS, MAX_UNIT_SCENARIOS]`. A non-positive or
/// non-finite cost (an uncalibrated or polluted model) falls back to the
/// ceiling — oversized units degrade balance, never correctness.
pub fn unit_span(per_scenario_ms: f64) -> usize {
    if !per_scenario_ms.is_finite() || per_scenario_ms <= 0.0 {
        return MAX_UNIT_SCENARIOS;
    }
    let raw = TARGET_UNIT_MS / per_scenario_ms;
    if raw >= MAX_UNIT_SCENARIOS as f64 {
        return MAX_UNIT_SCENARIOS;
    }
    (raw as usize).clamp(MIN_UNIT_SCENARIOS, MAX_UNIT_SCENARIOS)
}

/// Split `range` into unit-sized work ranges, in index order. Walks the
/// same [`RangeCursor`] the streaming sweep path uses, so unit boundaries
/// and window boundaries are the same kind of object: contiguous, disjoint
/// and exhaustive over `range`. An empty range yields nothing; a range
/// shorter than `span` yields itself (a 1-scenario space is one unit — it
/// is never silently dropped).
pub fn split_units(range: Range<usize>, span: usize) -> Vec<Range<usize>> {
    assert!(span > 0, "unit span must be positive");
    let mut cursor = RangeCursor::new(range, span);
    let mut units = Vec::new();
    while let Some(unit) = cursor.next_window() {
        units.push(unit);
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_span_tracks_cost_within_clamps() {
        // 4 ms target over 1 ms/scenario → clamped up to the floor.
        assert_eq!(unit_span(1.0), MIN_UNIT_SCENARIOS);
        // The default seeded cost (2 µs) lands mid-range: 4 / 0.002 = 2000.
        assert_eq!(unit_span(0.002), 2000);
        // Very cheap scenarios hit the ceiling.
        assert_eq!(unit_span(1e-9), MAX_UNIT_SCENARIOS);
        // Degenerate models fall back to the ceiling, not a panic or 0.
        assert_eq!(unit_span(0.0), MAX_UNIT_SCENARIOS);
        assert_eq!(unit_span(-1.0), MAX_UNIT_SCENARIOS);
        assert_eq!(unit_span(f64::NAN), MAX_UNIT_SCENARIOS);
        assert_eq!(unit_span(f64::INFINITY), MAX_UNIT_SCENARIOS);
    }

    #[test]
    fn split_units_partitions_the_range_exactly() {
        let units = split_units(7..107, 30);
        assert_eq!(units, vec![7..37, 37..67, 67..97, 97..107]);
        // Exhaustive and disjoint: concatenation is the original range.
        let mut walked = 7;
        for unit in &units {
            assert_eq!(unit.start, walked);
            walked = unit.end;
        }
        assert_eq!(walked, 107);
    }

    #[test]
    fn degenerate_splits_yield_whole_or_nothing() {
        assert!(split_units(5..5, 64).is_empty(), "empty range yields no units");
        assert_eq!(split_units(0..1, 8192), vec![0..1], "a 1-scenario space is one unit");
        assert_eq!(split_units(3..10, 100), vec![3..10], "short ranges are one unit");
    }
}
