//! The seven workloads: how each is set up, what one op is, how its answer
//! is verified, and the closed loop that drives it for a round.
//!
//! Every caller waits for its reply before it sends the next request, and an
//! op's clocks stop before its answer is checked: the time and CPU spent on
//! verification are measured on the side and taken out of the round.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mp_dse::prelude::*;
use mp_serve::prelude::*;

use crate::child::{repro_path, ServeChild, TempDir};
use crate::trace::{Open, Tracer};
use crate::verify::{digest_bytes, same_records, Reference};
use crate::{json, spaces, sys};

/// Load-generating threads and connections: `min(nproc, 4)`.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(4)
}

/// SplitMix64: the benchmark's only source of seeded choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// What one op produced: how long the caller waited, how many scenarios the
/// verified answer covered (or why it failed), and what checking it cost.
pub struct OpOutcome {
    pub latency: Duration,
    pub verified: Result<usize, String>,
    pub verify_cpu: Duration,
    pub busy_retries: u64,
}

/// Stop the op's clock and close its root span, then check its answer.
fn settle<A>(
    started: Instant,
    tracer: &mut Tracer,
    root: Open,
    answer: Result<A, String>,
    check: impl FnOnce(A) -> Result<usize, String>,
) -> OpOutcome {
    let latency = started.elapsed();
    tracer.end(root);
    let cpu = sys::thread_cpu();
    let verified = answer.and_then(check);
    OpOutcome { latency, verified, verify_cpu: sys::thread_cpu() - cpu, busy_retries: 0 }
}

/// One closed-loop caller of a workload.
pub trait Caller: Send {
    fn op(&mut self, ordinal: u64, tracer: &mut Tracer) -> OpOutcome;
}

/// Whose high-water RSS a workload reports: the process doing the work.
enum RssOf {
    /// This process, read when set-up (with its warm-up op) is done. From
    /// then on the allocator serves the 6.8 MB record vectors from its heap
    /// and keeps one or two dead ones around, run by run, which moves the
    /// high-water mark by 25–40 % without the code asking for a byte more.
    ThisProcess { after_setup_mb: f64 },
    /// The children: the live `repro serve` child when the workload has
    /// one, else the largest of the `repro dse` children waited for.
    Children,
}

pub struct Workload {
    pub name: &'static str,
    /// Scenarios one verified op answers (the space length).
    pub scenarios_per_op: usize,
    // Field order is drop order: connections close before the server is
    // asked to shut down.
    callers: Vec<Box<dyn Caller>>,
    ordinals: Vec<u64>,
    pub server: Option<ServeChild>,
    rss: RssOf,
}

/// One round of one workload, with verification already taken out.
#[derive(Debug, Default, Clone)]
pub struct Round {
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub busy_retries: u64,
    pub scenarios: u64,
    /// Seconds callers spent waiting on ops, averaged over the callers.
    pub busy_s: f64,
    /// CPU of this process, its reaped children and its live server child.
    pub cpu_s: f64,
    pub errors: Vec<String>,
}

impl Round {
    pub fn scenarios_per_s(&self) -> f64 {
        self.scenarios as f64 / self.busy_s
    }

    pub fn op_p50_ms(&self) -> f64 {
        crate::stats::median(&self.latencies_ms).unwrap_or(0.0)
    }

    pub fn cpu_ms_per_mscen(&self) -> f64 {
        self.cpu_s * 1e3 / (self.scenarios as f64 / 1e6)
    }
}

/// What a workload's answers are checked against: the per-scenario
/// reference over its space and, for `serve_topk`, the two short answers
/// derived from it. It is the benchmark's own oracle, not work done on the
/// system under test, so a run computes it once and every set-up shares it.
pub struct Oracle {
    reference: Arc<Reference>,
    top: Arc<Vec<EvalRecord>>,
    frontier: Arc<Vec<EvalRecord>>,
}

impl Oracle {
    pub fn for_workload(name: &str) -> Oracle {
        let reference = Arc::new(match name {
            "sweep_sim" => Reference::compute(&spaces::sim(), &SimBackend::new()),
            _ => Reference::compute(&spaces::analytic(), &AnalyticBackend),
        });
        let (top, frontier) = match name {
            "serve_topk" => (
                top_k(&reference.records, TOP_K),
                pareto_frontier(&reference.records, CostAxis::Cores),
            ),
            _ => (Vec::new(), Vec::new()),
        };
        Oracle { reference, top: Arc::new(top), frontier: Arc::new(frontier) }
    }

    pub fn reference(&self) -> &Reference {
        &self.reference
    }
}

impl Workload {
    /// Build everything `name` needs before its first measured op — spaces,
    /// tables, engines, the server child with its connections and prepared
    /// space — and run one verified warm-up op on every caller.
    pub fn setup(
        name: &str,
        seed: u64,
        threads: usize,
        oracle: &Oracle,
    ) -> Result<Workload, String> {
        let mut rng = Rng::new(seed);
        let mut workload = match name {
            "dse_oneshot" => setup_dse_oneshot(&mut rng, oracle)?,
            "sweep_cold" => setup_sweep(SweepKind::Cold, threads, oracle),
            "sweep_warm" => setup_sweep(SweepKind::Warm, threads, oracle),
            "sweep_uncached" => setup_sweep(SweepKind::Uncached, threads, oracle),
            "sweep_sim" => setup_sweep(SweepKind::Sim, threads, oracle),
            "serve_stream" => setup_serve(ServeOp::Stream, threads, &mut rng, oracle)?,
            "serve_topk" => setup_serve(ServeOp::TopK, threads, &mut rng, oracle)?,
            other => return Err(format!("unknown workload `{other}`")),
        };
        for caller in &mut workload.callers {
            caller.op(0, &mut Tracer::off()).verified.map_err(|e| format!("warm-up: {e}"))?;
        }
        if let RssOf::ThisProcess { after_setup_mb } = &mut workload.rss {
            *after_setup_mb = sys::peak_rss_mb("self").unwrap_or(0.0);
        }
        Ok(workload)
    }

    pub fn callers(&self) -> usize {
        self.callers.len()
    }

    fn tree_cpu(&self) -> Duration {
        let server =
            self.server.as_ref().map(|s| sys::live_process_cpu(s.pid()).unwrap_or_default());
        sys::self_cpu() + sys::reaped_children_cpu() + server.unwrap_or_default()
    }

    pub fn peak_rss_mb(&self) -> f64 {
        match (&self.rss, &self.server) {
            (RssOf::ThisProcess { after_setup_mb }, _) => *after_setup_mb,
            (RssOf::Children, Some(server)) => {
                sys::peak_rss_mb(&server.pid().to_string()).unwrap_or(0.0)
            }
            (RssOf::Children, None) => sys::reaped_children_peak_rss_mb(),
        }
    }

    /// Drive the first `tracers.len()` callers in a closed loop for `length`
    /// (at least one op each), one tracer per caller.
    pub fn run_round(&mut self, length: Duration, tracers: &mut [Tracer]) -> Round {
        let active = tracers.len().min(self.callers.len());
        let cpu_before = self.tree_cpu();
        let deadline = Instant::now() + length;
        let lanes = self.callers.iter_mut().zip(&mut self.ordinals).zip(tracers.iter_mut());
        let samples: Vec<Round> = if active == 1 {
            lanes.take(1).map(|((c, o), t)| drive(c.as_mut(), o, t, deadline)).collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = lanes
                    .take(active)
                    .map(|((c, o), t)| scope.spawn(move || drive(c.as_mut(), o, t, deadline)))
                    .collect();
                handles.into_iter().map(|h| h.join().expect("caller thread panicked")).collect()
            })
        };
        let cpu = self.tree_cpu().saturating_sub(cpu_before);
        let mut round = Round::default();
        let mut verify_cpu = 0.0;
        for sample in samples {
            round.latencies_ms.extend(sample.latencies_ms);
            round.attempted += sample.attempted;
            round.failed += sample.failed;
            round.busy_retries += sample.busy_retries;
            round.scenarios += sample.scenarios;
            round.busy_s += sample.busy_s / active as f64;
            verify_cpu += sample.cpu_s;
            round.errors.extend(sample.errors);
        }
        round.cpu_s = (cpu.as_secs_f64() - verify_cpu).max(0.0);
        round
    }
}

/// One caller's closed loop; `cpu_s` of the returned sample is the CPU this
/// caller spent on verification.
fn drive(
    caller: &mut dyn Caller,
    ordinal: &mut u64,
    tracer: &mut Tracer,
    deadline: Instant,
) -> Round {
    let mut sample = Round::default();
    loop {
        *ordinal += 1;
        tracer.set_op(*ordinal);
        let outcome = caller.op(*ordinal, tracer);
        sample.attempted += 1;
        sample.busy_retries += outcome.busy_retries;
        sample.cpu_s += outcome.verify_cpu.as_secs_f64();
        sample.busy_s += outcome.latency.as_secs_f64();
        match outcome.verified {
            Ok(scenarios) => {
                sample.scenarios += scenarios as u64;
                sample.latencies_ms.push(outcome.latency.as_secs_f64() * 1e3);
            }
            Err(error) => {
                sample.failed += 1;
                sample.errors.push(format!("op {ordinal}: {error}"));
            }
        }
        if Instant::now() >= deadline {
            return sample;
        }
    }
}

// ---------------------------------------------------------------- dse_oneshot

/// Rows of `sweep.csv` whose speedup is parsed back and compared with the
/// reference on every op.
const SAMPLED_ROWS: usize = 64;

struct DseOneshot {
    repro: PathBuf,
    tmp: TempDir,
    reference: Arc<Reference>,
    sampled_rows: Vec<usize>,
    /// Digest of the first op's `sweep.csv`; every later op must repeat it.
    csv_digest: Option<u64>,
}

fn setup_dse_oneshot(rng: &mut Rng, oracle: &Oracle) -> Result<Workload, String> {
    let reference = Arc::clone(&oracle.reference);
    let scenarios_per_op = reference.records.len();
    let mut sampled_rows: Vec<usize> =
        (0..SAMPLED_ROWS).map(|_| (rng.next() % scenarios_per_op as u64) as usize).collect();
    sampled_rows.sort_unstable();
    let tmp = TempDir::new("dse").map_err(|e| format!("cannot create a temp dir: {e}"))?;
    let caller =
        DseOneshot { repro: repro_path()?, tmp, reference, sampled_rows, csv_digest: None };
    Ok(Workload {
        name: "dse_oneshot",
        scenarios_per_op,
        callers: vec![Box::new(caller)],
        ordinals: vec![0],
        server: None,
        rss: RssOf::Children,
    })
}

impl DseOneshot {
    fn check(
        &mut self,
        output: std::process::Output,
        dir: &std::path::Path,
    ) -> Result<usize, String> {
        let stderr = String::from_utf8_lossy(&output.stderr);
        if !output.status.success() {
            return Err(format!("repro dse exited with {}: {stderr}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("");
        let report =
            serde_json::parse(line).map_err(|e| format!("unparseable report `{line}`: {e}"))?;
        let n = self.reference.records.len();
        if json::get(&report, "identical").and_then(|v| v.as_bool()) != Some(true) {
            return Err(format!("report does not say \"identical\":true: {line}"));
        }
        if json::number(&report, "scenarios") != Some(n as f64) {
            return Err(format!("report does not cover {n} scenarios: {line}"));
        }
        let csv = std::fs::read(dir.join("sweep.csv")).map_err(|e| format!("sweep.csv: {e}"))?;
        let rows: Vec<&[u8]> = csv.split(|&b| b == b'\n').collect();
        // Header, one row per scenario, and the empty piece after the last newline.
        if rows.len() != n + 2 {
            return Err(format!(
                "sweep.csv has {} rows for {n} scenarios",
                rows.len().saturating_sub(2)
            ));
        }
        for &index in &self.sampled_rows {
            let row =
                std::str::from_utf8(rows[index + 1]).map_err(|e| format!("row {index}: {e}"))?;
            let expected = self.reference.records[index].speedup;
            let speedup = match row.rsplit(',').next().unwrap_or("") {
                "" => f64::NAN,
                text => text.parse::<f64>().map_err(|e| format!("row {index} speedup: {e}"))?,
            };
            let same =
                speedup.to_bits() == expected.to_bits() || (speedup.is_nan() && expected.is_nan());
            if !row.starts_with(&format!("{index},")) || !same {
                return Err(format!(
                    "sweep.csv row {index} is `{row}`, expected speedup {expected}"
                ));
            }
        }
        let digest = digest_bytes(&csv);
        if *self.csv_digest.get_or_insert(digest) != digest {
            return Err("sweep.csv differs from the first op's export".to_string());
        }
        Ok(n)
    }
}

impl Caller for DseOneshot {
    fn op(&mut self, ordinal: u64, tracer: &mut Tracer) -> OpOutcome {
        let dir = self.tmp.0.join(format!("op-{ordinal}"));
        let root = tracer.begin("dse_oneshot");
        let started = Instant::now();
        let output = Command::new(&self.repro)
            .args(["dse", "--json", "--out"])
            .arg(&dir)
            .output()
            .map_err(|e| format!("failed to run repro dse: {e}"));
        let outcome = settle(started, tracer, root, output, |output| self.check(output, &dir));
        let _ = std::fs::remove_dir_all(&dir);
        outcome
    }
}

// ------------------------------------------------------------------ sweep_*

#[derive(Clone, Copy, PartialEq, Eq)]
enum SweepKind {
    /// Tables, a fresh engine and a full sweep, every op.
    Cold,
    /// Re-sweep on the kept engine: every scenario is a cache hit.
    Warm,
    /// Re-sweep on the kept engine with the cache switched off.
    Uncached,
    /// A fresh engine over the simulator's space, prepared handle kept.
    Sim,
}

impl SweepKind {
    fn workload(self) -> &'static str {
        match self {
            SweepKind::Cold => "sweep_cold",
            SweepKind::Warm => "sweep_warm",
            SweepKind::Uncached => "sweep_uncached",
            SweepKind::Sim => "sweep_sim",
        }
    }
}

struct SweepCaller {
    kind: SweepKind,
    threads: usize,
    handle: SweepHandle<'static>,
    backend: Arc<dyn EvalBackend + Send + Sync>,
    /// The engine the warm and uncached workloads keep between ops.
    engine: Engine,
    reference: Arc<Reference>,
}

fn setup_sweep(kind: SweepKind, threads: usize, oracle: &Oracle) -> Workload {
    let (space, backend): (_, Arc<dyn EvalBackend + Send + Sync>) = match kind {
        SweepKind::Sim => (spaces::sim(), Arc::new(SimBackend::new())),
        _ => (spaces::analytic(), Arc::new(AnalyticBackend)),
    };
    let scenarios_per_op = space.len();
    let caller = SweepCaller {
        kind,
        threads,
        handle: SweepHandle::owned(space),
        backend,
        engine: Engine::new(threads),
        reference: Arc::clone(&oracle.reference),
    };
    Workload {
        name: kind.workload(),
        scenarios_per_op,
        callers: vec![Box::new(caller)],
        ordinals: vec![0],
        server: None,
        rss: RssOf::ThisProcess { after_setup_mb: 0.0 },
    }
}

impl Caller for SweepCaller {
    fn op(&mut self, _ordinal: u64, tracer: &mut Tracer) -> OpOutcome {
        let n = self.handle.len();
        let backend = self.backend.as_ref();
        let cached = SweepConfig::default();
        let root = tracer.begin(self.kind.workload());
        let started = Instant::now();
        let result = match self.kind {
            SweepKind::Cold => {
                let span = tracer.begin("dse.tables");
                let handle = SweepHandle::new(self.handle.space());
                tracer.end(span);
                let span = tracer.begin("dse.engine");
                let result = Engine::new(self.threads).sweep_range(&handle, backend, &cached, 0..n);
                tracer.end(span);
                result
            }
            SweepKind::Sim => {
                let span = tracer.begin("dse.engine");
                let result =
                    Engine::new(self.threads).sweep_range(&self.handle, backend, &cached, 0..n);
                tracer.end(span);
                result
            }
            SweepKind::Warm | SweepKind::Uncached => {
                let config = SweepConfig { use_cache: self.kind == SweepKind::Warm, ..cached };
                let span = tracer.begin("dse.engine");
                let result = self.engine.sweep_range(&self.handle, backend, &config, 0..n);
                tracer.end(span);
                result
            }
        };
        settle(started, tracer, root, Ok(result), |result| {
            if self.reference.matches(&result.records) {
                Ok(n)
            } else {
                Err("sweep records differ from the per-scenario reference".to_string())
            }
        })
    }
}

// ------------------------------------------------------------------ serve_*

/// Records per streamed chunk of `serve_stream`.
pub const STREAM_CHUNK: usize = 8192;
/// Records `serve_topk` asks for.
pub const TOP_K: usize = 10;
/// How often a `busy` answer is retried before the op counts as failed.
const BUSY_RETRIES: u32 = 8;

#[derive(Clone, Copy, PartialEq, Eq)]
enum ServeOp {
    Stream,
    TopK,
}

struct ServeCaller {
    op: ServeOp,
    client: Client,
    prepared_id: String,
    /// Seeded: whether this caller's even ops are `top_k` or `pareto`.
    phase: u64,
    reference: Arc<Reference>,
    top: Arc<Vec<EvalRecord>>,
    frontier: Arc<Vec<EvalRecord>>,
}

/// `count` connections to `server`, each with the analytic space prepared,
/// as callers of `op`; also the space length.
fn serve_callers(
    server: &ServeChild,
    op: ServeOp,
    count: usize,
    rng: &mut Rng,
    oracle: &Oracle,
) -> Result<(Vec<Box<dyn Caller>>, usize), String> {
    let space = spaces::analytic();
    let mut callers: Vec<Box<dyn Caller>> = Vec::new();
    for _ in 0..count {
        let mut client = server.connect()?;
        let (prepared_id, scenarios) =
            client.prepare(&space).map_err(|e| format!("prepare: {e}"))?;
        if scenarios != space.len() {
            return Err(format!("server prepared {scenarios} of {} scenarios", space.len()));
        }
        callers.push(Box::new(ServeCaller {
            op,
            client,
            prepared_id,
            phase: rng.next() & 1,
            reference: Arc::clone(&oracle.reference),
            top: Arc::clone(&oracle.top),
            frontier: Arc::clone(&oracle.frontier),
        }));
    }
    Ok((callers, space.len()))
}

fn setup_serve(
    op: ServeOp,
    threads: usize,
    rng: &mut Rng,
    oracle: &Oracle,
) -> Result<Workload, String> {
    let server = ServeChild::spawn()?;
    let (callers, scenarios_per_op) = serve_callers(&server, op, threads, rng, oracle)?;
    Ok(Workload {
        name: match op {
            ServeOp::Stream => "serve_stream",
            ServeOp::TopK => "serve_topk",
        },
        scenarios_per_op,
        ordinals: vec![0; callers.len()],
        callers,
        server: Some(server),
        rss: RssOf::Children,
    })
}

impl Workload {
    /// One more streaming connection to a server some other workload owns
    /// (its CPU and RSS are not this workload's to report).
    pub fn stream_on(server: &ServeChild, oracle: &Oracle) -> Result<Workload, String> {
        let (callers, scenarios_per_op) =
            serve_callers(server, ServeOp::Stream, 1, &mut Rng::new(0), oracle)?;
        Ok(Workload {
            name: "serve_stream",
            scenarios_per_op,
            ordinals: vec![0],
            callers,
            server: None,
            rss: RssOf::ThisProcess { after_setup_mb: 0.0 },
        })
    }
}

/// Run `request`, retrying while the server answers `busy`.
fn retry_busy<T>(
    retries: &mut u64,
    mut request: impl FnMut() -> Result<T, ClientError>,
) -> Result<T, String> {
    let mut attempt = 0;
    loop {
        match request() {
            Ok(answer) => return Ok(answer),
            Err(error) if error.is_busy() && attempt < BUSY_RETRIES => {
                attempt += 1;
                *retries += 1;
                std::thread::sleep(Duration::from_millis(2 << attempt));
            }
            Err(error) => return Err(error.to_string()),
        }
    }
}

impl Caller for ServeCaller {
    fn op(&mut self, ordinal: u64, tracer: &mut Tracer) -> OpOutcome {
        let n = self.reference.records.len();
        let (client, id) = (&mut self.client, self.prepared_id.as_str());
        let mut busy_retries = 0;
        let mut outcome = match self.op {
            ServeOp::Stream => {
                let root = tracer.begin("serve_stream");
                let started = Instant::now();
                let answer =
                    retry_busy(&mut busy_retries, || client.sweep_prepared(id, 0..n, STREAM_CHUNK));
                settle(started, tracer, root, answer, |(records, _stats)| {
                    if self.reference.matches(&records) {
                        Ok(n)
                    } else {
                        Err("streamed records differ from the per-scenario reference".to_string())
                    }
                })
            }
            ServeOp::TopK => {
                let want_top = (ordinal + self.phase).is_multiple_of(2);
                let root =
                    tracer.begin(if want_top { "serve_topk top_k" } else { "serve_topk pareto" });
                let started = Instant::now();
                let answer = retry_busy(&mut busy_retries, || {
                    if want_top {
                        client.top_k_prepared(id, TOP_K)
                    } else {
                        client.pareto_prepared(id, CostAxis::Cores)
                    }
                });
                let expected = if want_top { &self.top } else { &self.frontier };
                settle(started, tracer, root, answer, |records| {
                    if same_records(&records, expected) {
                        Ok(n)
                    } else {
                        Err(format!(
                            "{} answer differs from the reference",
                            if want_top { "top_k" } else { "pareto" }
                        ))
                    }
                })
            }
        };
        outcome.busy_retries = busy_retries;
        outcome
    }
}
