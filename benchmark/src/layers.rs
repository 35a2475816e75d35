//! The traced run: every layer's public functions called directly on the
//! workloads' own inputs and timed one layer at a time, then the selected
//! workload's ops replayed under spans with those calls attached as children.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mp_cmpsim::program::ReductionKind;
use mp_cmpsim::{kmeans_program, simulate_cycles, Machine, WorkloadShape};
use mp_dse::prelude::*;
use mp_model::growth::GrowthFunction;
use mp_model::params::AppParams;
use mp_model::perf::PerfModel;
use mp_model::prepared::PreparedModel;
use mp_serve::prelude::*;

use crate::child::{out_dir, TempDir};
use crate::stats::{median, tail};
use crate::trace::{self_ns, Tracer};
use crate::verify::Reference;
use crate::workloads::{Oracle, Rng, Workload, STREAM_CHUNK, TOP_K};
use crate::{json, spaces, spec};

/// The per-layer metrics of one traced run, by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Scenarios per call into a backend or the cache: the engine's batch size.
const BATCH: usize = 1024;

/// Call `f` at least `min_reps` times and until `budget` is spent; the
/// median duration of one call in seconds.
fn time(budget: Duration, min_reps: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || started.elapsed() < budget {
        let call = Instant::now();
        f();
        samples.push(call.elapsed().as_secs_f64());
    }
    median(&samples).expect("at least one call was timed")
}

/// Like [`time`], with untimed preparation before every call; what the call
/// returns is dropped after its clock has stopped.
fn time_prepared<P, R>(
    budget: Duration,
    min_reps: usize,
    mut prepare: impl FnMut() -> P,
    mut f: impl FnMut(P) -> R,
) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || started.elapsed() < budget {
        let prepared = prepare();
        let call = Instant::now();
        let returned = f(prepared);
        samples.push(call.elapsed().as_secs_f64());
        drop(returned);
    }
    median(&samples).expect("at least one call was timed")
}

/// The host-drift canary: a fixed 2^24-step integer fold that touches no
/// memory and calls nothing, so only the host can make it slower.
fn canary_ms(start: u64) -> f64 {
    let started = Instant::now();
    let mut x = black_box(start);
    for step in 0..(1u64 << 24) {
        x = (x ^ step).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(5);
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// One pass of `backend`'s prepared batch path over `handle`'s whole space,
/// in engine-sized batches on the calling thread.
fn backend_pass(handle: &SweepHandle<'_>, backend: &dyn EvalBackend, out: &mut [f64]) {
    let n = handle.len();
    let mut start = 0;
    while start < n {
        let end = (start + BATCH).min(n);
        backend.evaluate_batch_prepared(
            handle.space(),
            handle.tables(),
            start..end,
            &mut out[..end - start],
        );
        start = end;
    }
    black_box(&out);
}

struct Suite {
    /// `--seconds / 10`: every time budget below is stated for a 10 s run.
    scale: f64,
    threads: usize,
    metrics: Metrics,
    canary: Vec<f64>,
    canary_start: u64,
}

impl Suite {
    fn budget(&self, seconds_of_ten: f64) -> Duration {
        Duration::from_secs_f64(seconds_of_ten * self.scale)
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        *self.metrics.get(name).unwrap_or_else(|| panic!("`{name}` is measured before it is used"))
    }

    fn canary(&mut self) {
        self.canary.push(canary_ms(self.canary_start));
    }
}

/// What the replay of one `repro dse` run costs, stage by stage, in seconds.
type DseStages = Vec<(&'static str, f64)>;

/// Run the whole traced pass for `workload` and return every per-layer
/// metric. Writes `out/trace-<workload>.json`.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    threads: usize,
) -> Result<(Metrics, u64, u64), String> {
    let mut rng = Rng::new(seed);
    let mut suite = Suite {
        scale: seconds / 10.0,
        threads,
        metrics: Metrics::new(),
        canary: Vec::new(),
        canary_start: rng.next(),
    };
    let space = spaces::analytic();
    let handle = SweepHandle::new(&space);
    let analytic = Oracle::for_workload("sweep_cold");
    let reference = analytic.reference();
    let salt = AnalyticBackend.cache_salt();
    let keys: Vec<(u64, u64)> =
        (0..space.len()).map(|i| space.scenario(i).canonical_key(&salt)).collect();

    suite.canary();
    probe_small_layers(&mut suite, &space);
    probe_backends(&mut suite, &handle);
    probe_cache(&mut suite, &keys, reference);
    suite.canary();
    probe_engine(&mut suite, &handle, reference)?;
    probe_par_merge_obs(&mut suite, reference);
    probe_analysis_export(&mut suite, &space, reference);
    suite.canary();
    let stages = probe_dse(&mut suite, seed, &analytic)?;
    suite.canary();
    probe_service_and_codec(&mut suite, &space, reference)?;

    // The wire probes need a server: the selected workload's own when it is
    // a serve workload, `serve_stream`'s otherwise.
    let oracle = Oracle::for_workload(workload);
    let mut selected = Workload::setup(workload, seed, threads, &oracle)?;
    if selected.server.is_some() {
        probe_wire(&mut suite, &mut selected, &analytic)?;
    } else {
        let mut serve = Workload::setup("serve_stream", seed, threads, &analytic)?;
        probe_wire(&mut suite, &mut serve, &analytic)?;
    }
    let (attempted, failed) = trace_workload(&mut suite, &mut selected, &stages)?;
    drop(selected);
    suite.canary();

    let canary = median(&suite.canary).expect("the canary ran");
    suite.set("bench.canary_ms", canary);
    let build_s = std::env::var("LAYERBENCH_BUILD_S").ok().and_then(|s| s.parse().ok());
    suite.set("bench.build_s", build_s.unwrap_or(0.0));
    suite.set("bench.failed_share", failed as f64 / attempted as f64);
    for declared in &spec::PER_LAYER {
        if !suite.metrics.contains_key(declared.name) {
            return Err(format!("per-layer metric `{}` was not measured", declared.name));
        }
    }
    Ok((suite.metrics, attempted, failed))
}

/// The model's prepared evaluation, the table build and one simulator call.
fn probe_small_layers(suite: &mut Suite, space: &ScenarioSpace) {
    let app: &AppParams = &space.apps()[0];
    let growth = GrowthFunction::Linear;
    let model = PreparedModel::new(app, &growth, PerfModel::Pollack);
    let evals = space.designs().len() * space.budgets().len();
    let pass = time(suite.budget(0.1), 5, || {
        let mut sum = 0.0;
        for &budget in space.budgets() {
            for design in space.designs() {
                let speedup = match *design {
                    ChipSpec::Symmetric { r } => model.speedup_symmetric(budget, r),
                    ChipSpec::Asymmetric { r, rl } => model.speedup_asymmetric(budget, r, rl),
                };
                if speedup.is_finite() {
                    sum += speedup;
                }
            }
        }
        black_box(sum);
    });
    suite.set("model.prepared_ns_per_eval", pass * 1e9 / evals as f64);

    let build = time(suite.budget(0.1), 5, || {
        black_box(SweepHandle::new(space).len());
    });
    suite.set("dse.tables.build_ms", build * 1e3);

    let program = kmeans_program(&WorkloadShape::kmeans_base(), ReductionKind::SerialLinear);
    let machine = Machine::table1(16);
    let calls = 1_000;
    let pass = time(suite.budget(0.05), 5, || {
        for _ in 0..calls {
            black_box(simulate_cycles(black_box(&program), black_box(&machine)));
        }
    });
    suite.set("cmpsim.simulate_ns", pass * 1e9 / calls as f64);
}

fn probe_backends(suite: &mut Suite, analytic: &SweepHandle<'_>) {
    let mut out = vec![0.0f64; BATCH];
    let mut measure =
        |suite: &mut Suite, name, handle: &SweepHandle<'_>, backend: &dyn EvalBackend| {
            let pass = time(suite.budget(0.15), 3, || backend_pass(handle, backend, &mut out));
            suite.set(name, pass * 1e9 / handle.len() as f64);
        };
    measure(suite, "dse.backend.analytic_ns_per_scenario", analytic, &AnalyticBackend);
    let (space, backend) = spaces::measured();
    measure(suite, "dse.backend.measured_ns_per_scenario", &SweepHandle::new(&space), &backend);
    let space = spaces::comm();
    measure(
        suite,
        "dse.backend.comm_ns_per_scenario",
        &SweepHandle::new(&space),
        &CommBackend::new(),
    );
    let space = spaces::sim();
    measure(
        suite,
        "dse.backend.sim_ns_per_scenario",
        &SweepHandle::new(&space),
        &SimBackend::new(),
    );
}

fn probe_cache(suite: &mut Suite, keys: &[(u64, u64)], reference: &Reference) {
    let n = keys.len();
    let speedups: Vec<f64> = reference.records.iter().map(|r| r.speedup).collect();
    let insert_all = |cache: &EvalCache| {
        for (keys, speedups) in keys.chunks(BATCH).zip(speedups.chunks(BATCH)) {
            cache.insert_batch(keys, speedups);
        }
    };

    // The caches are handed back so that freeing their tables is not timed.
    let reserve = time_prepared(suite.budget(0.1), 3, EvalCache::new, |cache| {
        cache.reserve(n);
        cache
    });
    suite.set("dse.cache.reserve_ms", reserve * 1e3);

    let insert = time_prepared(
        suite.budget(0.2),
        3,
        || EvalCache::with_capacity(n),
        |cache| {
            insert_all(&cache);
            cache
        },
    );
    suite.set("dse.cache.insert_ns_per_key", insert * 1e9 / n as f64);

    let cache = EvalCache::with_capacity(n);
    insert_all(&cache);
    let mut found = vec![0.0f64; BATCH];
    let mut holes = vec![false; BATCH];
    let mut probe = |keys: &[(u64, u64)]| {
        let mut missing = 0;
        for keys in keys.chunks(BATCH) {
            holes[..keys.len()].fill(false);
            missing += cache.get_batch(keys, &mut found[..keys.len()], &mut holes[..keys.len()]);
        }
        missing
    };
    let hit =
        time(suite.budget(0.15), 3, || assert_eq!(probe(keys), 0, "every stored key is found"));
    suite.set("dse.cache.probe_hit_ns_per_key", hit * 1e9 / n as f64);
    // Absent keys that land in the same shards and the same full tables.
    let absent: Vec<(u64, u64)> =
        keys.iter().map(|k| (k.0 ^ 0x5bd1_e995_0000_0000, !k.1)).collect();
    let miss =
        time(suite.budget(0.15), 3, || assert_eq!(probe(&absent), n, "no absent key is found"));
    suite.set("dse.cache.probe_miss_ns_per_key", miss * 1e9 / n as f64);

    // Persistence is slow enough that one call of each is the sample.
    let mut json = String::new();
    let save = time(Duration::ZERO, 1, || json = cache.save_json());
    suite.set("dse.cache.save_json_ms", save * 1e3);
    suite.set("dse.cache.json_bytes", json.len() as f64);
    let load = time_prepared(Duration::ZERO, 1, EvalCache::new, |fresh| {
        assert_eq!(fresh.load_json(&json).ok(), Some(n), "the saved JSON loads back");
        fresh
    });
    suite.set("dse.cache.load_json_ms", load * 1e3);
    drop(json);
    let mut segment = Vec::new();
    let save = time(suite.budget(0.1), 1, || segment = cache.save_segment());
    suite.set("dse.cache.save_segment_ms", save * 1e3);
    suite.set("dse.cache.segment_bytes", segment.len() as f64);
    let load = time_prepared(suite.budget(0.1), 1, EvalCache::new, |fresh| {
        assert_eq!(fresh.load_segment(&segment).ok(), Some(n), "the saved segment loads back");
        fresh
    });
    suite.set("dse.cache.load_segment_ms", load * 1e3);
}

fn probe_engine(
    suite: &mut Suite,
    handle: &SweepHandle<'_>,
    reference: &Reference,
) -> Result<(), String> {
    let n = handle.len();
    let cached = SweepConfig::default();
    let uncached = SweepConfig { use_cache: false, ..cached };
    let per_scenario = |seconds: f64| seconds * 1e9 / n as f64;
    let names = [
        (
            1,
            "dse.engine.uncached_1t_ns_per_scenario",
            "dse.engine.cold_1t_ns_per_scenario",
            "dse.engine.warm_1t_ns_per_scenario",
        ),
        (
            suite.threads,
            "dse.engine.uncached_ns_per_scenario",
            "dse.engine.cold_ns_per_scenario",
            "dse.engine.warm_ns_per_scenario",
        ),
    ];
    for (threads, uncached_name, cold_name, warm_name) in names {
        let cold = time(suite.budget(0.25), 3, || {
            black_box(
                Engine::new(threads)
                    .sweep_range(handle, &AnalyticBackend, &cached, 0..n)
                    .records
                    .len(),
            );
        });
        suite.set(cold_name, per_scenario(cold));
        let engine = Engine::new(threads);
        let first = engine.sweep_range(handle, &AnalyticBackend, &cached, 0..n);
        if !reference.matches(&first.records) {
            return Err(format!("{threads}-thread engine sweep differs from the reference"));
        }
        let mut stats = first.stats;
        let warm = time(suite.budget(0.2), 3, || {
            stats = engine.sweep_range(handle, &AnalyticBackend, &cached, 0..n).stats;
        });
        suite.set(warm_name, per_scenario(warm));
        suite.set(
            "dse.cache.hit_share",
            stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses) as f64,
        );
        let bypass = time(suite.budget(0.15), 5, || {
            black_box(engine.sweep_range(handle, &AnalyticBackend, &uncached, 0..n).records.len());
        });
        suite.set(uncached_name, per_scenario(bypass));
    }
    for (scaling, one, all) in [
        ("dse.engine.uncached_scaling", names[0].1, names[1].1),
        ("dse.engine.cold_scaling", names[0].2, names[1].2),
        ("dse.engine.warm_scaling", names[0].3, names[1].3),
    ] {
        suite.set(scaling, suite.get(one) / suite.get(all));
    }
    // What the engine adds on one thread, where the parts add up: key fold,
    // record fill and hand-off.
    let cache = (suite.get("dse.cache.reserve_ms") * 1e6) / n as f64
        + suite.get("dse.cache.insert_ns_per_key");
    let own = suite.get(names[0].2) - suite.get("dse.backend.analytic_ns_per_scenario") - cache;
    suite.set("dse.engine.self_ns_per_scenario", own);
    Ok(())
}

fn probe_par_merge_obs(suite: &mut Suite, reference: &Reference) {
    let pool = mp_par::ThreadPool::new(suite.threads);
    let trips = 200;
    let pass = time(suite.budget(0.05), 5, || {
        for _ in 0..trips {
            pool.execute_batch_and_wait((0..suite.threads).map(|_| || {}).collect());
        }
    });
    suite.set("par.pool_roundtrip_us", pass * 1e6 / trips as f64);

    // Equal contiguous bands, which is what the shards hand the planner.
    let parts = suite.threads.max(2);
    let n = reference.records.len();
    let runs: Vec<&[EvalRecord]> = reference.records.chunks(n.div_ceil(parts)).collect();
    let merge = time(suite.budget(0.1), 3, || {
        black_box(merge_runs(&runs, parts).len());
    });
    suite.set("dse.merge.ns_per_record", merge * 1e9 / n as f64);
    let sequential = time(suite.budget(0.1), 3, || {
        black_box(sequential_merge(&runs).len());
    });
    suite.set("dse.merge.sequential_ns_per_record", sequential * 1e9 / n as f64);

    let registry = mp_obs::metrics::Registry::new();
    let counter = registry.counter("layerbench_counter");
    let histogram = registry.histogram_ms("layerbench_ms");
    let updates = 100_000u64;
    let pass = time(suite.budget(0.03), 5, || {
        for i in 0..updates {
            counter.add(black_box(i));
        }
    });
    suite.set("obs.counter_add_ns", pass * 1e9 / updates as f64);
    let pass = time(suite.budget(0.03), 5, || {
        for i in 0..updates {
            histogram.record(black_box(0.01 * (i % 4096) as f64));
        }
    });
    suite.set("obs.histogram_record_ns", pass * 1e9 / updates as f64);
}

fn probe_analysis_export(suite: &mut Suite, space: &ScenarioSpace, reference: &Reference) {
    let records = &reference.records;
    let top = time(suite.budget(0.15), 3, || {
        black_box(top_k(records, TOP_K).len());
    });
    suite.set("dse.analysis.top_k_ms", top * 1e3);
    let pareto = time(suite.budget(0.15), 3, || {
        black_box(pareto_frontier(records, CostAxis::Cores).len());
    });
    suite.set("dse.analysis.pareto_ms", pareto * 1e3);
    let per_axis = time(suite.budget(0.15), 3, || {
        black_box(per_axis_optima(space, records).len());
    });
    suite.set("dse.analysis.per_axis_ms", per_axis * 1e3);

    // In-memory sinks: formatting alone, no disk.
    let stats = some_sweep_stats(space);
    let mut sink: Vec<u8> = Vec::with_capacity(64 << 20);
    let csv = time(Duration::ZERO, 1, || {
        sink.clear();
        write_csv(&mut sink, space, records).expect("writing to memory cannot fail");
    });
    suite.set("dse.export.csv_ms", csv * 1e3);
    suite.set("dse.export.csv_bytes", sink.len() as f64);
    let json = time(Duration::ZERO, 1, || {
        sink.clear();
        write_json(&mut sink, space, records, &stats).expect("writing to memory cannot fail");
    });
    suite.set("dse.export.json_ms", json * 1e3);
    suite.set("dse.export.json_bytes", sink.len() as f64);
}

/// A genuine `SweepStats` value (of a one-scenario sweep), for the JSON
/// writer's header and the `SweepDone` line that closes a streamed sweep.
fn some_sweep_stats(space: &ScenarioSpace) -> SweepStats {
    let handle = SweepHandle::new(space);
    Engine::new(1).sweep_range(&handle, &AnalyticBackend, &SweepConfig::default(), 0..1).stats
}

/// One real `repro dse` child, then the same run replayed stage by stage in
/// this process through the public functions `repro dse` calls.
fn probe_dse(suite: &mut Suite, seed: u64, oracle: &Oracle) -> Result<DseStages, String> {
    let mut child = Workload::setup("dse_oneshot", seed, suite.threads, oracle)?;
    let ops = (suite.scale.round() as usize).max(1);
    let mut latencies = Vec::new();
    for _ in 0..ops {
        let round = child.run_round(Duration::ZERO, &mut [Tracer::off()]);
        if let Some(error) = round.errors.first() {
            return Err(format!("dse_oneshot: {error}"));
        }
        latencies.extend(round.latencies_ms);
    }
    drop(child);
    let op_ms = median(&latencies).expect("one op ran");

    let tmp = TempDir::new("replay").map_err(|e| format!("cannot create a temp dir: {e}"))?;
    let mut stages = DseStages::new();
    let mut stage = |name, started: Instant| stages.push((name, started.elapsed().as_secs_f64()));
    let t = Instant::now();
    let rebuilt = mp_bench::dse_cmd::experiment_space(false);
    stage("bench.space_build", t);
    let t = Instant::now();
    let engine = Engine::with_all_cores();
    let config = SweepConfig::default();
    let first = engine.sweep(&rebuilt, &AnalyticBackend, &config);
    stage("dse.engine cold sweep", t);
    let t = Instant::now();
    let second = engine.sweep(&rebuilt, &AnalyticBackend, &config);
    let identical = first
        .records
        .iter()
        .zip(&second.records)
        .all(|(a, b)| a.index == b.index && a.speedup.to_bits() == b.speedup.to_bits());
    stage("dse.engine warm sweep", t);
    if !identical {
        return Err("replayed re-sweep diverged from the first pass".to_string());
    }
    let t = Instant::now();
    black_box(top_k(&first.records, TOP_K).len());
    black_box(per_axis_optima(&rebuilt, &first.records).len());
    black_box(pareto_frontier(&first.records, CostAxis::Cores).len());
    stage("dse.analysis", t);
    let t = Instant::now();
    mp_bench::dse_cmd::export_sweep(&tmp.0, &rebuilt, &first)
        .map_err(|e| format!("export_sweep: {e}"))?;
    stage("bench.export_sweep", t);
    suite.set("bench.export_sweep_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let json = engine.cache().save_json();
    stage("dse.cache.save_json", t);
    let t = Instant::now();
    std::fs::write(tmp.0.join("cache-analytic.json"), json)
        .map_err(|e| format!("cache write: {e}"))?;
    stage("bench.cache_write", t);
    let t = Instant::now();
    drop((first, second, engine));
    stage("bench.teardown", t);

    let replayed_ms: f64 = stages.iter().map(|(_, s)| s * 1e3).sum();
    let sweeps_ms: f64 = stages
        .iter()
        .filter(|(name, _)| name.starts_with("dse.engine"))
        .map(|(_, s)| s * 1e3)
        .sum();
    suite.set("bench.dse_op_ms", op_ms);
    suite.set("bench.dse_residual_ms", op_ms - replayed_ms);
    suite.set("bench.dse_sweeps_share", sweeps_ms / op_ms);
    Ok(stages)
}

/// The service in this process (no wire), then the codec on the chunks a
/// streamed sweep of the space is made of.
fn probe_service_and_codec(
    suite: &mut Suite,
    space: &ScenarioSpace,
    reference: &Reference,
) -> Result<(), String> {
    let n = space.len();
    let config = ServiceConfig { shards: 2, threads_per_shard: 1, ..ServiceConfig::default() };
    let service = SweepService::new(Arc::new(AnalyticBackend), &config);
    let handle = service
        .resolve_handle(&SpaceSpec::Explicit(space.clone()))
        .map_err(|e| format!("{e:?}"))?;
    let sweep = || service.sweep_handle(&handle, None).map_err(|e| format!("service sweep: {e:?}"));
    if !reference.matches(&sweep()?.records) {
        return Err("in-process service sweep differs from the reference".to_string());
    }
    let served = time(suite.budget(0.3), 3, || {
        black_box(sweep().map(|r| r.records.len()).unwrap_or(0));
    });
    suite.set("serve.service.sweep_ns_per_scenario", served * 1e9 / n as f64);
    // The same warm sweep on one engine with as many threads as the service has.
    let engine = Engine::new(config.shards * config.threads_per_shard);
    let tables = SweepHandle::new(space);
    let warm = || {
        black_box(
            engine
                .sweep_range(&tables, &AnalyticBackend, &SweepConfig::default(), 0..n)
                .records
                .len(),
        )
    };
    warm();
    let direct = time(suite.budget(0.2), 3, || {
        warm();
    });
    suite.set("serve.service.overhead_ns_per_scenario", (served - direct) * 1e9 / n as f64);
    drop(engine);
    // The path a streamed sweep takes inside the server: a ticket whose
    // windows are pulled one chunk at a time.
    let streamed = time(suite.budget(0.3), 3, || {
        let mut ticket = service
            .begin_sweep_handle(Arc::clone(&handle), 0..n, STREAM_CHUNK)
            .expect("the sweep is admitted");
        let mut records = 0;
        while let Some(window) = service.next_window(&mut ticket).expect("the window evaluates") {
            records += window.len();
        }
        assert_eq!(records, n);
    });
    suite.set("serve.service.stream_ns_per_scenario", streamed * 1e9 / n as f64);
    drop(service);

    let chunks: Vec<(usize, &[EvalRecord])> = reference
        .records
        .chunks(STREAM_CHUNK)
        .enumerate()
        .map(|(i, c)| (i * STREAM_CHUNK, c))
        .collect();
    let mut lines: Vec<String> = Vec::new();
    let encode = time(suite.budget(0.15), 3, || {
        lines = chunks.iter().map(|&(start, chunk)| encode_chunk_line(7, start, chunk)).collect();
    });
    suite.set("serve.protocol.encode_ns_per_record", encode * 1e9 / n as f64);
    let bytes: usize = lines.iter().map(|line| line.len() + 1).sum();
    suite.set("serve.protocol.bytes_per_record", bytes as f64 / n as f64);
    // The client's read path: the byte stream arrives in 64 KiB reads and is
    // cut back into lines before any line is parsed.
    let stream: Vec<u8> = lines.iter().flat_map(|line| line.bytes().chain([b'\n'])).collect();
    let frame = time(suite.budget(0.1), 3, || {
        let mut decoder = LineDecoder::new(usize::MAX / 2);
        let mut framed = 0;
        for read in stream.chunks(64 * 1024) {
            decoder.push(read);
            while let Some(line) = decoder.next_line() {
                framed += line.map(|l| l.len() + 1).unwrap_or(0);
            }
        }
        assert_eq!(framed, stream.len());
    });
    suite.set("serve.protocol.frame_ns_per_record", frame * 1e9 / n as f64);
    drop(stream);
    let mut decoded: Vec<Response> = Vec::new();
    let decode = time(suite.budget(0.15), 3, || {
        decoded = lines
            .iter()
            .map(|line| decode_chunk_line(line).expect("a chunk line decodes").response)
            .collect();
    });
    suite.set("serve.protocol.decode_ns_per_record", decode * 1e9 / n as f64);
    decoded.push(Response::SweepDone { stats: some_sweep_stats(space) });
    let assemble = time_prepared(
        suite.budget(0.15),
        3,
        || decoded.clone(),
        |responses| {
            let (records, _) =
                assemble_sweep(responses, &(0..n)).expect("the decoded chunks assemble");
            black_box(records.len());
        },
    );
    suite.set("serve.client.assemble_ns_per_record", assemble * 1e9 / n as f64);

    let request = Request::Sweep {
        space: SpaceSpec::Prepared { id: "0123456789abcdef".to_string() },
        start: 0,
        end: n,
        chunk: STREAM_CHUNK,
    };
    let line = encode_line(&RequestEnvelope { id: 7, request });
    let calls = 1_000;
    let pass = time(suite.budget(0.05), 5, || {
        for _ in 0..calls {
            black_box(decode_line::<RequestEnvelope>(black_box(&line)).is_ok());
        }
    });
    suite.set("serve.protocol.request_decode_us", pass * 1e6 / calls as f64);
    Ok(())
}

/// The server's counters, read through the `metrics` verb.
struct ServerCounters {
    counters: BTreeMap<String, f64>,
    /// `(sum, bucket counts)` per histogram.
    histograms: BTreeMap<String, (f64, Vec<f64>)>,
}

impl ServerCounters {
    fn read(client: &mut Client) -> Result<ServerCounters, String> {
        let (text, _) = client.metrics().map_err(|e| format!("metrics verb: {e}"))?;
        let tree = serde_json::parse(&text).map_err(|e| format!("metrics JSON: {e}"))?;
        let section = |key: &str| json::get(&tree, key).map(json::members).unwrap_or_default();
        let counters = section("counters")
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect();
        let histograms = section("histograms")
            .iter()
            .map(|(name, histogram)| {
                let buckets = match json::get(histogram, "buckets") {
                    Some(json::Value::Arr(buckets)) => {
                        buckets.iter().map(|b| json::number(b, "count").unwrap_or(0.0)).collect()
                    }
                    _ => Vec::new(),
                };
                (name.clone(), (json::number(histogram, "sum").unwrap_or(0.0), buckets))
            })
            .collect();
        Ok(ServerCounters { counters, histograms })
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    fn histogram(&self, name: &str) -> (f64, Vec<f64>) {
        self.histograms.get(name).cloned().unwrap_or_default()
    }
}

/// Median of a latency histogram's growth between two reads: the upper bound
/// of the bucket the middle new sample fell into.
fn histogram_p50_ms(before: &[f64], after: &[f64]) -> f64 {
    let grown: Vec<f64> =
        after.iter().enumerate().map(|(i, a)| a - before.get(i).copied().unwrap_or(0.0)).collect();
    let total: f64 = grown.iter().sum();
    let mut seen = 0.0;
    for (bucket, count) in grown.iter().enumerate() {
        seen += count;
        if *count > 0.0 && seen * 2.0 >= total {
            let bounds = mp_obs::hist::LATENCY_BOUNDS_MS;
            return bounds[bucket.min(bounds.len() - 1)];
        }
    }
    0.0
}

/// The layer calls one streamed sweep is made of, as `(span, metric)`: what
/// the wire op's time is compared against, and the children its span gets.
/// The first `SERVER_SIDE` run in the server, the rest in the client.
const SERVER_SIDE: usize = 2;
const STREAM_LAYERS: [(&str, &str); 5] = [
    ("serve.service.stream", "serve.service.stream_ns_per_scenario"),
    ("serve.protocol.encode", "serve.protocol.encode_ns_per_record"),
    ("serve.protocol.frame", "serve.protocol.frame_ns_per_record"),
    ("serve.protocol.decode", "serve.protocol.decode_ns_per_record"),
    ("serve.client.assemble", "serve.client.assemble_ns_per_record"),
];

/// Over the wire against the child server: ping, one connection streaming
/// (where client, codec and service costs add up), then all callers together
/// with the server's own counters read before and after.
fn probe_wire(suite: &mut Suite, serve: &mut Workload, oracle: &Oracle) -> Result<(), String> {
    let n = serve.scenarios_per_op as f64;
    let server = serve.server.as_ref().expect("serve workloads own a server");
    let mut control = server.connect()?;
    let pings = 200;
    let pass = time(suite.budget(0.05), 3, || {
        for _ in 0..pings {
            black_box(control.ping().is_ok());
        }
    });
    suite.set("serve.server.ping_us", pass * 1e6 / pings as f64);

    // One connection, streaming: the op whose parts are replayed above.
    let mut stream = Workload::stream_on(server, oracle)?;
    let alone = stream.run_round(suite.budget(0.6), &mut [Tracer::off()]);
    if let Some(error) = alone.errors.first() {
        return Err(format!("serve_stream on one connection: {error}"));
    }
    drop(stream);
    let per_record = alone.op_p50_ms() * 1e6 / n;
    suite.set("serve.server.stream_ns_per_record", per_record);
    // Server and client are two processes: the server evaluates and encodes
    // the next window while the client frames and decodes the last one, so
    // the op waits for the slower side, not for their sum.
    let side =
        |layers: &[(&str, &str)]| layers.iter().map(|(_, metric)| suite.get(metric)).sum::<f64>();
    let slower_side = side(&STREAM_LAYERS[..SERVER_SIDE]).max(side(&STREAM_LAYERS[SERVER_SIDE..]));
    suite.set("serve.server.wire_residual_ns_per_record", per_record - slower_side);

    let before = ServerCounters::read(&mut control)?;
    let mut tracers: Vec<Tracer> = (0..serve.callers()).map(|_| Tracer::off()).collect();
    let together = serve.run_round(suite.budget(2.0), &mut tracers);
    let after = ServerCounters::read(&mut control)?;
    if let Some(error) = together.errors.first() {
        return Err(format!("{}: {error}", serve.name));
    }
    let ops = together.attempted as f64;
    let delta = |name: &str| after.counter(name) - before.counter(name);
    suite.set("serve.client.op_p50_ms", together.op_p50_ms());
    let (percentile, value) = tail(&together.latencies_ms).unwrap_or((50.0, together.op_p50_ms()));
    suite.set("serve.client.op_tail_ms", value);
    suite.set("serve.client.op_tail_percentile", percentile);
    suite.set("serve.client.busy_retries", together.busy_retries as f64);
    // The two `metrics` requests themselves wake the loop; they are not ops.
    suite.set("serve.server.epoll_wakeups_per_op", delta("serve_epoll_wakeups") / ops);
    suite.set("serve.server.read_pauses", delta("serve_read_pauses"));
    let (_, waits_before) = before.histogram("serve_queue_wait_ms");
    let (_, waits_after) = after.histogram("serve_queue_wait_ms");
    suite.set("serve.server.queue_wait_p50_ms", histogram_p50_ms(&waits_before, &waits_after));
    let units = delta("sched_units_total");
    suite.set("serve.sched.units_per_op", units / ops);
    suite.set(
        "serve.sched.stolen_share",
        if units > 0.0 { delta("sched_units_stolen") / units } else { 0.0 },
    );
    // Scenario results handed to a follower of a coalesced evaluation, out
    // of all scenarios answered.
    suite.set("serve.planner.coalesced_share", delta("planner_shared_scenarios") / (ops * n));
    let merge_ms = after.histogram("planner_merge_ms").0 - before.histogram("planner_merge_ms").0;
    suite.set("serve.planner.merge_ms_per_op", merge_ms / ops);
    Ok(())
}

/// Run the selected workload's op on one caller, first untraced and then
/// under spans, attach the replayed layer calls as children, and write the
/// chrome trace. Returns `(attempted, failed)` of the traced ops.
fn trace_workload(
    suite: &mut Suite,
    workload: &mut Workload,
    stages: &DseStages,
) -> Result<(u64, u64), String> {
    let slice = suite.budget(0.5);
    let plain = workload.run_round(slice, &mut [Tracer::off()]);
    let mut tracers = [Tracer::on()];
    let traced = workload.run_round(slice, &mut tracers);
    let [mut tracer] = tracers;
    for error in plain.errors.iter().chain(&traced.errors) {
        eprintln!("layerbench: {}: {error}", workload.name);
    }
    if plain.latencies_ms.is_empty() || traced.latencies_ms.is_empty() {
        return Err(format!("{}: no traced op succeeded", workload.name));
    }
    suite.set("bench.trace_overhead_share", traced.op_p50_ms() / plain.op_p50_ms() - 1.0);

    let n = workload.scenarios_per_op as f64;
    let ns = |suite: &Suite, name: &str| (suite.get(name) * n) as u64;
    let ms = |suite: &Suite, name: &str| (suite.get(name) * 1e6) as u64;
    let parents: Vec<(usize, String)> =
        tracer.spans.iter().enumerate().map(|(i, s)| (i, s.name.clone())).collect();
    for (index, name) in parents {
        let children: Vec<(&str, u64)> = match (workload.name, name.as_str()) {
            ("sweep_cold", "dse.engine") => vec![
                ("dse.cache.reserve", ms(suite, "dse.cache.reserve_ms")),
                ("dse.backend.analytic", ns(suite, "dse.backend.analytic_ns_per_scenario")),
                ("dse.cache.insert_batch", ns(suite, "dse.cache.insert_ns_per_key")),
            ],
            ("sweep_warm", "dse.engine") => {
                vec![("dse.cache.get_batch", ns(suite, "dse.cache.probe_hit_ns_per_key"))]
            }
            ("sweep_uncached", "dse.engine") => {
                vec![("dse.backend.analytic", ns(suite, "dse.backend.analytic_ns_per_scenario"))]
            }
            ("sweep_sim", "dse.engine") => vec![
                ("dse.backend.sim", ns(suite, "dse.backend.sim_ns_per_scenario")),
                ("dse.cache.insert_batch", ns(suite, "dse.cache.insert_ns_per_key")),
            ],
            ("dse_oneshot", "dse_oneshot") => {
                stages.iter().map(|&(stage, s)| (stage, (s * 1e9) as u64)).collect()
            }
            ("serve_stream", "serve_stream") => {
                STREAM_LAYERS.iter().map(|&(span, metric)| (span, ns(suite, metric))).collect()
            }
            ("serve_topk", "serve_topk top_k") => vec![
                ("serve.service.sweep", ns(suite, "serve.service.sweep_ns_per_scenario")),
                ("dse.analysis.top_k", ms(suite, "dse.analysis.top_k_ms")),
            ],
            ("serve_topk", "serve_topk pareto") => vec![
                ("serve.service.sweep", ns(suite, "serve.service.sweep_ns_per_scenario")),
                ("dse.analysis.pareto", ms(suite, "dse.analysis.pareto_ms")),
            ],
            _ => Vec::new(),
        };
        for (child, duration_ns) in children {
            tracer.replayed_child(index, child, duration_ns);
        }
    }

    let roots = tracer.roots();
    let total: u64 = roots.iter().map(|&r| tracer.spans[r].duration_ns()).sum();
    let own: u64 = roots.iter().map(|&r| self_ns(&tracer.spans, r)).sum();
    suite.set("bench.named_share", 1.0 - own as f64 / total as f64);

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", workload.name));
    std::fs::write(&path, tracer.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "layerbench: wrote {} ({} spans, {} ops)",
        path.display(),
        tracer.spans.len(),
        roots.len()
    );
    Ok((plain.attempted + traced.attempted, plain.failed + traced.failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_median_reads_only_the_growth_between_two_snapshots() {
        // Old samples sit in the first bucket; the three new ones are in
        // buckets 2, 2 and 5.
        let before = [100.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let after = [100.0, 0.0, 2.0, 0.0, 0.0, 1.0];
        assert_eq!(histogram_p50_ms(&before, &after), mp_obs::hist::LATENCY_BOUNDS_MS[2]);
        assert_eq!(histogram_p50_ms(&before, &before), 0.0);
    }

    #[test]
    fn time_runs_the_minimum_number_of_calls() {
        let mut calls = 0;
        let seconds = time(Duration::ZERO, 4, || calls += 1);
        assert_eq!(calls, 4);
        assert!(seconds >= 0.0);
        let mut prepared = 0;
        time_prepared(Duration::ZERO, 2, || prepared += 1, |_| {});
        assert_eq!(prepared, 2);
    }
}
