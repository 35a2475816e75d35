//! Merge Path: even-partition parallel merging of index-sorted record runs.
//!
//! **No production caller.** The serve layer's work units tile their range
//! exactly, so it assembles their results by ordered copy, not by a merge.
//! This module stays only because the repo's benchmark (`benchmark/`, which
//! a code PR may not edit) calls [`merge_runs`] and [`sequential_merge`] for
//! its `dse.merge.*` probes; delete it in the next benchmark-only PR.
//!
//! The **Merge Path** scheme ("Merge Path — A Visually Intuitive Approach to
//! Parallel Merging", Green, McColl & Bader): the merged output is cut into
//! `parts` equal-length segments, and for each segment boundary a binary
//! search finds the unique per-run split offsets such that every run
//! contributes exactly its in-order share. Segments are then merged
//! independently — in parallel when the input is large enough — and their
//! concatenation is, by construction, exactly the sequence a stable
//! sequential k-way merge would produce.
//!
//! **Stability / determinism.** Runs may share key values. Ties are broken
//! by run order: among equal keys, every element of an earlier run precedes
//! every element of a later run, matching the stable sequential merge bit
//! for bit. The partition search enforces this by splitting on a key
//! *value*: all elements with a smaller key land left of the boundary, and
//! the boundary's remainder within the equal-key group is distributed to
//! runs in order.

use crate::engine::EvalRecord;

/// Outputs below this many records are merged on the calling thread — the
/// per-segment thread spawn would cost more than it saves.
const PARALLEL_THRESHOLD: usize = 1 << 15;

/// The merge key of a record: its flat scenario index.
#[inline]
fn key(record: &EvalRecord) -> usize {
    record.index
}

/// Number of elements of `run` with key `< v` (runs are index-sorted, so
/// this is a binary search).
#[inline]
fn count_less(run: &[EvalRecord], v: usize) -> usize {
    run.partition_point(|r| key(r) < v)
}

/// Number of elements of `run` with key `<= v`.
#[inline]
fn count_less_eq(run: &[EvalRecord], v: usize) -> usize {
    run.partition_point(|r| key(r) <= v)
}

/// The Merge-Path partition point for output position `d` (the `d`-th
/// cross-diagonal): per-run offsets `off` with `sum(off) == d` such that
/// the first `off[i]` elements of run `i` are exactly run `i`'s
/// contribution to the first `d` merged records of a stable k-way merge.
///
/// Runs must each be sorted ascending by record index. `d` must be at most
/// the total length. Equal keys across runs split stably: the boundary
/// takes whole earlier-run groups before any element of a later run.
pub fn partition(runs: &[&[EvalRecord]], d: usize) -> Vec<usize> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    assert!(d <= total, "partition point {d} exceeds the {total}-record merge");
    if d == 0 {
        return vec![0; runs.len()];
    }
    if d == total {
        return runs.iter().map(|r| r.len()).collect();
    }
    // Binary search on the key *value*: the smallest key `v` such that at
    // least `d` records have key <= v. All records with key < v are left of
    // the boundary; the remainder of the d-prefix is filled from the
    // equal-key (== v) groups in run order, which is what makes the cut
    // agree with a stable sequential merge.
    let mut lo = 0usize; // smallest candidate key
    let mut hi = runs.iter().filter_map(|r| r.last()).map(key).max().unwrap_or(0);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let le: usize = runs.iter().map(|r| count_less_eq(r, mid)).sum();
        if le >= d {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let v = lo;
    let mut offsets: Vec<usize> = runs.iter().map(|r| count_less(r, v)).collect();
    let less: usize = offsets.iter().sum();
    let mut remainder = d - less;
    for (offset, run) in offsets.iter_mut().zip(runs) {
        let equal = count_less_eq(run, v) - *offset;
        let take = equal.min(remainder);
        *offset += take;
        remainder -= take;
    }
    debug_assert_eq!(remainder, 0, "equal-key groups must cover the boundary remainder");
    offsets
}

/// Stable sequential k-way merge by record index — the reference the
/// partitioned merge must reproduce bit for bit (and the segment kernel the
/// parallel path runs per partition).
pub fn sequential_merge(runs: &[&[EvalRecord]]) -> Vec<EvalRecord> {
    let total = runs.iter().map(|r| r.len()).sum();
    let mut out = Vec::with_capacity(total);
    merge_into(runs, &mut out);
    out
}

/// The linear k-way merge kernel: append the stable merge of `runs` to
/// `out`. Run count is the shard count (single digits), so a linear
/// min-scan per output record beats a heap.
fn merge_into(runs: &[&[EvalRecord]], out: &mut Vec<EvalRecord>) {
    let mut cursors = vec![0usize; runs.len()];
    let total: usize = runs.iter().map(|r| r.len()).sum();
    for _ in 0..total {
        let mut best: Option<usize> = None;
        for (i, run) in runs.iter().enumerate() {
            if cursors[i] < run.len() {
                let k = key(&run[cursors[i]]);
                // Strict `<` keeps ties on the earliest run: stability.
                if best.map_or(true, |b| k < key(&runs[b][cursors[b]])) {
                    best = Some(i);
                }
            }
        }
        let i = best.expect("total counts exactly the remaining records");
        out.push(runs[i][cursors[i]]);
        cursors[i] += 1;
    }
}

/// Merge `runs` (each sorted ascending by record index) into one
/// index-ordered vector via Merge-Path even partitioning: the output is cut
/// into at most `parts` equal segments whose boundaries are found with
/// [`partition`], and the segments are merged independently — on scoped
/// threads when the output is at least `PARALLEL_THRESHOLD` records,
/// inline otherwise. Bit-identical to [`sequential_merge`] in every case.
pub fn merge_runs(runs: &[&[EvalRecord]], parts: usize) -> Vec<EvalRecord> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    if total == 0 {
        return Vec::new();
    }
    // Single-run merges (one participating shard) are a straight copy.
    if runs.len() == 1 {
        return runs[0].to_vec();
    }
    let parts = parts.max(1).min(total);
    if parts == 1 || total < PARALLEL_THRESHOLD {
        return sequential_merge(runs);
    }
    // Even cross-diagonals: segment p covers output [total*p/parts,
    // total*(p+1)/parts), every segment within one record of total/parts.
    let boundaries: Vec<Vec<usize>> =
        (0..=parts).map(|p| partition(runs, total * p / parts)).collect();
    let mut out = Vec::with_capacity(total);
    std::thread::scope(|scope| {
        let segments: Vec<_> = boundaries
            .windows(2)
            .map(|pair| {
                let (from, to) = (&pair[0], &pair[1]);
                let slices: Vec<&[EvalRecord]> = runs
                    .iter()
                    .zip(from.iter().zip(to))
                    .map(|(run, (&f, &t))| &run[f..t])
                    .collect();
                scope.spawn(move || sequential_merge(&slices))
            })
            .collect();
        for segment in segments {
            out.extend_from_slice(&segment.join().expect("merge segments never panic"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(index: usize) -> EvalRecord {
        EvalRecord { index, speedup: index as f64, cores: 1.0, area: 1.0 }
    }

    fn runs_of(indices: &[&[usize]]) -> Vec<Vec<EvalRecord>> {
        indices.iter().map(|run| run.iter().map(|&i| rec(i)).collect()).collect()
    }

    fn check(indices: &[&[usize]], parts: usize) {
        let owned = runs_of(indices);
        let runs: Vec<&[EvalRecord]> = owned.iter().map(|r| r.as_slice()).collect();
        let want = sequential_merge(&runs);
        let got = merge_runs(&runs, parts);
        assert_eq!(got, want, "runs {indices:?} parts {parts}");
    }

    #[test]
    fn partition_splits_every_diagonal_consistently() {
        let owned = runs_of(&[&[0, 2, 4, 6, 8], &[1, 3, 5], &[], &[7, 9, 10, 11]]);
        let runs: Vec<&[EvalRecord]> = owned.iter().map(|r| r.as_slice()).collect();
        let total: usize = runs.iter().map(|r| r.len()).sum();
        let want = sequential_merge(&runs);
        for d in 0..=total {
            let offsets = partition(&runs, d);
            assert_eq!(offsets.iter().sum::<usize>(), d);
            // The prefix defined by the offsets merges to the reference's
            // d-prefix.
            let prefix: Vec<&[EvalRecord]> =
                runs.iter().zip(&offsets).map(|(run, &o)| &run[..o]).collect();
            assert_eq!(sequential_merge(&prefix), want[..d].to_vec(), "diagonal {d}");
        }
    }

    #[test]
    fn tied_keys_split_stably_across_runs() {
        // Duplicate indices across runs: stability means run order wins.
        let owned = runs_of(&[&[1, 5, 5, 9], &[5, 5, 7], &[5]]);
        let mut tagged = owned.clone();
        // Tag each record's speedup with its (run, slot) so bit-identity
        // detects any reordering among equal keys.
        for (run_index, run) in tagged.iter_mut().enumerate() {
            for (slot, record) in run.iter_mut().enumerate() {
                record.speedup = (run_index * 100 + slot) as f64;
            }
        }
        let runs: Vec<&[EvalRecord]> = tagged.iter().map(|r| r.as_slice()).collect();
        let want = sequential_merge(&runs);
        for parts in 1..=8 {
            let total: usize = runs.iter().map(|r| r.len()).sum();
            let boundaries: Vec<Vec<usize>> =
                (0..=parts).map(|p| partition(&runs, total * p / parts)).collect();
            let mut pieced = Vec::new();
            for pair in boundaries.windows(2) {
                let slices: Vec<&[EvalRecord]> = runs
                    .iter()
                    .zip(pair[0].iter().zip(&pair[1]))
                    .map(|(run, (&f, &t))| &run[f..t])
                    .collect();
                pieced.extend(sequential_merge(&slices));
            }
            assert_eq!(pieced, want, "parts {parts}");
        }
    }

    #[test]
    fn merge_runs_handles_degenerate_shapes() {
        check(&[], 4);
        check(&[&[]], 4);
        check(&[&[], &[], &[]], 3);
        check(&[&[42]], 2);
        check(&[&[], &[7], &[]], 5);
        check(&[&[0, 1, 2], &[3, 4, 5]], 2);
        check(&[&[3, 4, 5], &[0, 1, 2]], 2);
        // Heavily skewed sizes.
        let big: Vec<usize> = (0..500).map(|i| i * 2).collect();
        check(&[&big, &[1], &[999, 1001]], 7);
    }

    #[test]
    fn large_merges_cross_the_parallel_threshold_bit_identically() {
        // Interleaved disjoint bands large enough to take the threaded path.
        let a: Vec<usize> = (0..PARALLEL_THRESHOLD).map(|i| i * 3).collect();
        let b: Vec<usize> = (0..PARALLEL_THRESHOLD / 2).map(|i| i * 3 + 1).collect();
        let c: Vec<usize> = (0..PARALLEL_THRESHOLD / 4).map(|i| i * 3 + 2).collect();
        check(&[&a, &b, &c], 8);
    }
}
