//! Asserts the acceptance criterion of the columnar sweep path: after batch
//! setup, the analytic batched evaluation performs **zero** heap allocations
//! per scenario. The workspace's counting allocator (installed for this test
//! binary only) measures exact allocation counts around the hot loops.
//!
//! Windows are measured with the **per-thread** counter, so libtest's
//! sibling test threads cannot leak allocations into them. That sees every
//! allocation asserted on because every test evaluates on its calling
//! thread: backends and caches are called directly, and the one engine test
//! uses `Engine::new(1)`, which sweeps inline.

use mp_bench::alloc_track::{thread_allocation_count as allocations, CountingAllocator};
use mp_dse::prelude::*;
use mp_model::growth::GrowthFunction;
use mp_model::params::AppParams;
use mp_model::perf::PerfModel;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn space() -> ScenarioSpace {
    ScenarioSpace::new()
        .with_apps(AppParams::paper_catalog())
        .with_budgets(vec![128.0, 256.0])
        .clear_designs()
        .add_symmetric_grid((0..96).map(|i| 1.0 + i as f64))
        .add_asymmetric_grid([1.0, 4.0], [4.0, 16.0, 64.0])
        .with_growths(vec![
            GrowthFunction::Linear,
            GrowthFunction::Superlinear(1.55),
            GrowthFunction::Measured(vec![(1.0, 0.0), (8.0, 6.0)]),
        ])
        .with_perfs(vec![PerfModel::Pollack, PerfModel::Power(0.75)])
}

#[test]
fn analytic_batched_path_allocates_nothing_per_scenario() {
    let space = space();
    let tables = SpaceTables::new(&space);
    let n = space.len();
    let mut out = vec![f64::NAN; n];

    // Warm-up covering every batch once (faults, lazily-initialised state).
    for start in (0..n).step_by(1024) {
        let end = (start + 1024).min(n);
        AnalyticBackend.evaluate_batch_prepared(&space, &tables, start..end, &mut out[start..end]);
    }

    let before = allocations();
    for _ in 0..3 {
        for start in (0..n).step_by(1024) {
            let end = (start + 1024).min(n);
            AnalyticBackend.evaluate_batch_prepared(
                &space,
                &tables,
                start..end,
                &mut out[start..end],
            );
        }
    }
    let after = allocations();
    assert_eq!(after - before, 0, "analytic batched evaluation must not allocate");
    assert!(out.iter().any(|v| v.is_finite()), "sweep produced real results");
}

#[test]
fn cache_probe_and_insert_allocate_nothing_after_reserve() {
    let space = space();
    let tables = SpaceTables::new(&space);
    let n = space.len();
    let mut out = vec![f64::NAN; n];
    AnalyticBackend.evaluate_batch_prepared(&space, &tables, 0..n, &mut out);
    let keys: Vec<(u64, u64)> =
        (0..n).map(|i| space.scenario(i).canonical_key("analytic")).collect();

    let cache = EvalCache::new();
    cache.reserve(n);
    let before = allocations();
    cache.insert_batch(&keys, &out);
    for &key in &keys {
        assert!(cache.peek(key).is_some());
    }
    let after = allocations();
    assert_eq!(after - before, 0, "reserved cache traffic must not allocate");
}

#[test]
fn lane_and_forced_scalar_paths_both_allocate_nothing() {
    let space = space();
    let tables = SpaceTables::new(&space);
    let n = space.len();
    let mut lane_out = vec![f64::NAN; n];
    let mut scalar_out = vec![f64::NAN; n];

    // Warm-up arms the dispatch state (feature detection, env override) so
    // the counting windows measure only the evaluation itself.
    AnalyticBackend.evaluate_batch_prepared(&space, &tables, 0..n, &mut lane_out);

    let before = allocations();
    AnalyticBackend.evaluate_batch_prepared(&space, &tables, 0..n, &mut lane_out);
    assert_eq!(allocations() - before, 0, "lane path must not allocate");

    mp_model::simd::set_forced_scalar(true);
    let before = allocations();
    AnalyticBackend.evaluate_batch_prepared(&space, &tables, 0..n, &mut scalar_out);
    let scalar_allocs = allocations() - before;
    mp_model::simd::set_forced_scalar(false);
    assert_eq!(scalar_allocs, 0, "forced-scalar path must not allocate");

    // Same window, both kernels: the dispatch toggle changes throughput
    // only, never bits.
    for (i, (a, b)) in lane_out.iter().zip(&scalar_out).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "lane/scalar divergence at {i}");
    }
}

#[test]
fn batched_cache_probe_allocates_nothing_after_reserve() {
    let space = space();
    let tables = SpaceTables::new(&space);
    let n = space.len();
    let mut out = vec![f64::NAN; n];
    AnalyticBackend.evaluate_batch_prepared(&space, &tables, 0..n, &mut out);
    let keys: Vec<(u64, u64)> =
        (0..n).map(|i| space.scenario(i).canonical_key("analytic")).collect();
    let mut speedups = vec![f64::NAN; n];
    let mut holes = vec![false; n];

    let cache = EvalCache::new();
    cache.reserve(n);
    cache.insert_batch(&keys, &out);
    let before = allocations();
    let missing = cache.get_batch(&keys, &mut speedups, &mut holes);
    let after = allocations();
    assert_eq!(after - before, 0, "batched probe must not allocate");
    assert_eq!(missing, 0, "every inserted key must probe back");
    for (got, want) in speedups.iter().zip(&out) {
        assert_eq!(got.to_bits(), want.to_bits());
    }
}

/// A space and the same space with 16× the scenarios (more budgets and
/// perf models, the same designs).
fn small_and_large() -> (ScenarioSpace, ScenarioSpace) {
    let small = ScenarioSpace::new()
        .with_apps(AppParams::table2_all())
        .clear_designs()
        .add_symmetric_grid((0..24).map(|i| 1.0 + i as f64));
    let large = small.clone().with_budgets(vec![64.0, 128.0, 192.0, 256.0]).with_perfs(vec![
        PerfModel::Pollack,
        PerfModel::Power(0.75),
        PerfModel::Power(0.6),
        PerfModel::Linear,
    ]);
    assert_eq!(large.len(), 16 * small.len());
    (small, large)
}

#[test]
fn full_engine_sweep_allocations_do_not_scale_with_scenario_count() {
    // The engine may allocate during setup (records vector, tables, scratch)
    // but per-scenario allocation must be zero: growing the space 16× must
    // not grow the allocation count beyond the setup's own (bounded) needs.
    let (small, large) = small_and_large();
    let engine = Engine::new(1);
    let config = SweepConfig { batch_size: 64, use_cache: false };

    // Warm both shapes once so lazily-allocated state exists.
    engine.sweep(&small, &AnalyticBackend, &config);
    engine.sweep(&large, &AnalyticBackend, &config);

    let before_small = allocations();
    engine.sweep(&small, &AnalyticBackend, &config);
    let small_allocs = allocations() - before_small;

    let before_large = allocations();
    engine.sweep(&large, &AnalyticBackend, &config);
    let large_allocs = allocations() - before_large;

    // Setup allocations grow with axis lengths (tables, records buffer), not
    // with the scenario product: 16× the scenarios must cost far less than
    // 16× the allocations, and both counts stay tiny in absolute terms.
    assert!(
        large_allocs < small_allocs + 64,
        "sweep allocations scale with the space: {small_allocs} -> {large_allocs}"
    );
}

#[test]
fn fused_reduction_allocations_do_not_scale_with_scenario_count() {
    // The same bound for `reduce_range`: tables, scratch, the batch buffer
    // and the reducer's partial are setup; nothing is per scenario.
    let (small, large) = small_and_large();
    let engine = Engine::new(1);
    let config = SweepConfig { batch_size: 64, use_cache: false };
    let reduce = |space: &ScenarioSpace| {
        let handle = SweepHandle::new(space);
        let n = handle.len();
        let (top, _) = engine.reduce_range(&handle, &AnalyticBackend, &config, 0..n, TopK::new(10));
        let pareto = Pareto::new(space, CostAxis::Cores);
        let (pareto, _) = engine.reduce_range(&handle, &AnalyticBackend, &config, 0..n, pareto);
        (top.finish().len(), pareto.finish().len())
    };

    // Warm both shapes once so lazily-allocated state exists.
    reduce(&small);
    reduce(&large);

    let before_small = allocations();
    reduce(&small);
    let small_allocs = allocations() - before_small;

    let before_large = allocations();
    let (top, frontier) = reduce(&large);
    let large_allocs = allocations() - before_large;

    assert_eq!(top, 10);
    assert!(frontier > 0);
    assert!(
        large_allocs < small_allocs + 64,
        "reduction allocations scale with the space: {small_allocs} -> {large_allocs}"
    );
}

#[test]
fn export_allocations_do_not_scale_with_record_count() {
    // The writers spell every axis-dependent cell once per space and reuse
    // one row buffer, so exporting the same records twice over costs exactly
    // the allocations of exporting them once: none of them is per record.
    let space = space();
    let result = Engine::new(1).sweep(&space, &AnalyticBackend, &SweepConfig::default());
    let once = result.records.as_slice();
    let twice = [once, once].concat();
    let mut sink = std::io::sink();
    let mut allocs_of = |export: &mut dyn FnMut(&mut std::io::Sink)| {
        let before = allocations();
        export(&mut sink);
        allocations() - before
    };
    let csv = allocs_of(&mut |out| write_csv(out, &space, once).unwrap());
    let csv_twice = allocs_of(&mut |out| write_csv(out, &space, &twice).unwrap());
    assert_eq!(csv_twice, csv, "write_csv allocates per record");
    let json = allocs_of(&mut |out| write_json(out, &space, once, &result.stats).unwrap());
    let json_twice = allocs_of(&mut |out| write_json(out, &space, &twice, &result.stats).unwrap());
    assert_eq!(json_twice, json, "write_json allocates per record");
    assert!(csv < once.len() as u64 / 8, "axis tables, not rows: {csv} for {}", once.len());
}

/// `n` records from 0 streamed as `frames` chunk frames, then `SweepDone`.
fn streamed_sweep(records: &[EvalRecord], frames: usize) -> Vec<u8> {
    use mp_serve::protocol::{encode_chunk_frame, encode_line, Response, ResponseEnvelope};
    let mut wire = Vec::new();
    for slice in records.chunks(records.len() / frames) {
        encode_chunk_frame(&mut wire, 1, slice[0].index, slice);
    }
    let stats = SweepStats { scenarios: records.len(), ..SweepStats::default() };
    let done = ResponseEnvelope { id: 1, response: Response::SweepDone { stats } };
    wire.extend_from_slice(encode_line(&done).as_bytes());
    wire.push(b'\n');
    wire
}

fn records(n: usize) -> Vec<EvalRecord> {
    (0..n)
        .map(|index| EvalRecord { index, speedup: index as f64, cores: 4.0, area: f64::NAN })
        .collect()
}

#[test]
fn collecting_a_streamed_sweep_allocates_the_same_for_few_or_many_frames() {
    use mp_serve::client::collect_sweep;
    use mp_serve::protocol::ResponseDecoder;
    let n = 64 * 384;
    let records = records(n);
    let collect = |wire: &[u8]| {
        let before = allocations();
        let (got, _) =
            collect_sweep(&mut ResponseDecoder::new(), &mut &wire[..], 1, &(0..n)).unwrap();
        let taken = allocations() - before;
        assert_eq!(got.len(), n);
        assert!(got.iter().zip(&records).all(|(a, b)| a.speedup.to_bits() == b.speedup.to_bits()));
        taken
    };
    let (few, many) = (streamed_sweep(&records, 4), streamed_sweep(&records, 64));
    collect(&few);
    assert_eq!(
        collect(&few),
        collect(&many),
        "no allocation per frame: the frames decode straight onto the answer"
    );
}

#[test]
fn framing_a_window_into_its_reserved_buffer_allocates_nothing() {
    use mp_serve::protocol::{encode_chunk_frame, FRAME_RECORD_BYTES, MAX_FRAME_HEADER};
    let records = records(8192);
    for chunk in [8192, 1000, 1] {
        let frames = records.len().div_ceil(chunk);
        let mut out =
            Vec::with_capacity(frames * MAX_FRAME_HEADER + records.len() * FRAME_RECORD_BYTES);
        let before = allocations();
        for slice in records.chunks(chunk) {
            encode_chunk_frame(&mut out, 7, slice[0].index, slice);
        }
        assert_eq!(allocations() - before, 0, "{frames} frames of {chunk}");
        assert!(out.len() > records.len() * FRAME_RECORD_BYTES);
    }
}
