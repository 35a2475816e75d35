//! The lock-free metrics registry: sharded [`Counter`]s, [`Gauge`]s and
//! log-bucketed histograms behind get-or-create names, with mergeable
//! [`Snapshot`]s that print as JSON or Prometheus exposition text.
//!
//! The hot path is free of locks by construction: counters are relaxed
//! `fetch_add`s on cache-line-padded thread-hashed shards, gauges are a
//! single relaxed atomic, histograms shard the same way (see
//! [`Histogram`]). Lookups by name and snapshots take the registry mutex,
//! so callers keep the returned `Arc` as a plain handle. Nothing here is
//! process-wide: a registry belongs to whoever builds it (in this
//! workspace, each sweep engine), and so does the span [`Profiler`] it
//! carries.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{Histogram, HistogramSnapshot, LATENCY_BOUNDS_MS};
use crate::profile::{thread_lane, Profiler};

/// Increment shards per counter; enough that the handful of threads a
/// 1-CPU-to-few-CPU host runs rarely collide on a cache line.
const COUNTER_SHARDS: usize = 8;

/// The calling thread's shard slot in `0..shards`. Slots follow the
/// threads' [`thread_lane`]s, handed out in first-use order, so up to
/// `shards` concurrent threads get distinct cache lines.
pub(crate) fn thread_shard(shards: usize) -> usize {
    thread_lane() as usize % shards
}

/// A padded atomic cell: one per shard, one per cache line.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// A monotonically increasing counter, sharded across cache lines.
pub struct Counter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Counter {
        Counter { shards: std::array::from_fn(|_| PaddedU64(AtomicU64::new(0))) }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[thread_shard(COUNTER_SHARDS)].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total across all shards.
    pub fn value(&self) -> u64 {
        self.shards.iter().map(|shard| shard.0.load(Ordering::Relaxed)).sum()
    }
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::new()
    }
}

/// What backs a gauge: a stored atomic, or a callback sampled at snapshot
/// time (for values another subsystem already maintains, like the
/// allocator's live-byte count).
enum GaugeKind {
    Stored(AtomicI64),
    Sampled(Box<dyn Fn() -> i64 + Send + Sync>),
}

/// An instantaneous value: add/sub on a single relaxed atomic, or
/// sampled from a callback at snapshot time.
pub struct Gauge {
    kind: GaugeKind,
}

impl Gauge {
    /// A stored gauge at zero.
    pub fn new() -> Gauge {
        Gauge { kind: GaugeKind::Stored(AtomicI64::new(0)) }
    }

    /// A gauge whose value is sampled from `f` at read time.
    pub fn sampled(f: impl Fn() -> i64 + Send + Sync + 'static) -> Gauge {
        Gauge { kind: GaugeKind::Sampled(Box::new(f)) }
    }

    /// Add `delta` (no-op for sampled gauges).
    #[inline]
    pub fn add(&self, delta: i64) {
        if let GaugeKind::Stored(cell) = &self.kind {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Subtract `delta` (no-op for sampled gauges).
    #[inline]
    pub fn sub(&self, delta: i64) {
        self.add(-delta);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        match &self.kind {
            GaugeKind::Stored(cell) => cell.load(Ordering::Relaxed),
            GaugeKind::Sampled(f) => f(),
        }
    }
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge::new()
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Vec<(String, Arc<Counter>)>,
    gauges: Vec<(String, Arc<Gauge>)>,
    histograms: Vec<(String, Arc<Histogram>)>,
}

impl RegistryInner {
    fn find<T>(list: &[(String, Arc<T>)], name: &str) -> Option<Arc<T>> {
        list.iter().find(|(n, _)| n == name).map(|(_, v)| Arc::clone(v))
    }
}

/// A named collection of metrics, owned by one component (a sweep engine,
/// in this workspace) and shared by reference with those that register
/// into it, plus the span [`Profiler`] they all record into.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
    profiler: Profiler,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The span recorder of everything that registers here, dark until
    /// [`Profiler::set_enabled`] arms it.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Get or create the counter `name`. Cache the handle — lookup takes
    /// the registry mutex.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("obs registry poisoned");
        if let Some(found) = RegistryInner::find(&inner.counters, name) {
            return found;
        }
        let counter = Arc::new(Counter::new());
        inner.counters.push((name.to_string(), Arc::clone(&counter)));
        counter
    }

    /// Get or create the stored gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("obs registry poisoned");
        if let Some(found) = RegistryInner::find(&inner.gauges, name) {
            return found;
        }
        let gauge = Arc::new(Gauge::new());
        inner.gauges.push((name.to_string(), Arc::clone(&gauge)));
        gauge
    }

    /// Register (or replace) the sampled gauge `name`, reading its value
    /// from `f` at snapshot time.
    pub fn gauge_sampled(&self, name: &str, f: impl Fn() -> i64 + Send + Sync + 'static) {
        let mut inner = self.inner.lock().expect("obs registry poisoned");
        let gauge = Arc::new(Gauge::sampled(f));
        if let Some(slot) = inner.gauges.iter_mut().find(|(n, _)| n == name) {
            slot.1 = gauge;
        } else {
            inner.gauges.push((name.to_string(), gauge));
        }
    }

    /// Get or create the histogram `name` over `bounds`.
    ///
    /// # Panics
    /// If `name` already exists with different bounds.
    pub fn histogram(&self, name: &str, bounds: &'static [f64]) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("obs registry poisoned");
        if let Some(found) = RegistryInner::find(&inner.histograms, name) {
            assert_eq!(found.bounds(), bounds, "histogram `{name}` re-registered with new bounds");
            return found;
        }
        let histogram = Arc::new(Histogram::new(bounds));
        inner.histograms.push((name.to_string(), Arc::clone(&histogram)));
        histogram
    }

    /// Get or create the latency histogram `name` ([`LATENCY_BOUNDS_MS`]
    /// buckets).
    pub fn histogram_ms(&self, name: &str) -> Arc<Histogram> {
        self.histogram(name, &LATENCY_BOUNDS_MS)
    }

    /// Log a warning: one `[mp-obs] warn(<component>): <message>` line on
    /// stderr plus an increment of this registry's `warnings_total` counter
    /// and of `warnings_total_<component>`, so operational degradations (a
    /// corrupt cache spill skipped, a checkpoint manifest refused) are both
    /// human-visible and scrape-visible. Warnings mean the process degraded
    /// gracefully — code that would *fail* should return an error instead.
    pub fn warn(&self, component: &str, message: &str) {
        self.counter("warnings_total").inc();
        self.counter(&format!("warnings_total_{component}")).inc();
        eprintln!("[mp-obs] warn({component}): {message}");
    }

    /// A point-in-time view of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("obs registry poisoned");
        let mut counters: Vec<(String, u64)> =
            inner.counters.iter().map(|(n, c)| (n.clone(), c.value())).collect();
        let mut gauges: Vec<(String, i64)> =
            inner.gauges.iter().map(|(n, g)| (n.clone(), g.value())).collect();
        let mut histograms: Vec<(String, HistogramSnapshot)> =
            inner.histograms.iter().map(|(n, h)| (n.clone(), h.snapshot())).collect();
        drop(inner);
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot { counters, gauges, histograms }
    }
}

/// A point-in-time view of a [`Registry`], detached from the live metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, total)` per counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` per histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Snapshot {
    /// The counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The snapshot as a JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{name:{"count":..,"sum":..,"buckets":[..]}}}`.
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, value)| format!("\"{}\":{value}", escape_json(name)))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(name, value)| format!("\"{}\":{value}", escape_json(name)))
            .collect();
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|(name, hist)| {
                format!(
                    "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":{}}}",
                    escape_json(name),
                    hist.count(),
                    hist.sum,
                    hist.json_buckets(),
                )
            })
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            histograms.join(","),
        )
    }

    /// The snapshot as Prometheus exposition text: counters as `counter`,
    /// gauges as `gauge`, histograms as cumulative `_bucket`/`_sum`/`_count`
    /// series. Metric names are sanitised to `[a-zA-Z0-9_:]`.
    pub fn to_prometheus(&self) -> String {
        fn sanitise(name: &str) -> String {
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() || c == ':' { c } else { '_' })
                .collect()
        }
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = sanitise(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let name = sanitise(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, hist) in &self.histograms {
            let name = sanitise(name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (bucket, &count) in hist.counts.iter().enumerate() {
                cumulative += count;
                let le = hist
                    .bounds
                    .get(bucket)
                    .map(|b| b.to_string())
                    .unwrap_or_else(|| "+Inf".to_string());
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n", hist.sum));
            out.push_str(&format!("{name}_count {cumulative}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_across_threads() {
        let registry = Registry::new();
        let counter = registry.counter("hits");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(counter.value(), 80_000);
        assert_eq!(registry.snapshot().counter("hits"), Some(80_000));
    }

    #[test]
    fn gauges_store_and_sample() {
        let registry = Registry::new();
        let stored = registry.gauge("depth");
        stored.add(5);
        stored.sub(2);
        registry.gauge_sampled("sampled", || 42);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("depth"), Some(3));
        assert_eq!(snap.gauge("sampled"), Some(42));
        // Re-registering a sampled gauge replaces the callback.
        registry.gauge_sampled("sampled", || 7);
        assert_eq!(registry.snapshot().gauge("sampled"), Some(7));
    }

    #[test]
    fn get_or_create_returns_the_same_instance() {
        let registry = Registry::new();
        registry.counter("a").add(3);
        registry.counter("a").add(4);
        assert_eq!(registry.snapshot().counter("a"), Some(7));
        registry.histogram_ms("h").record(1.0);
        registry.histogram_ms("h").record(2.0);
        assert_eq!(registry.snapshot().histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn each_registry_records_spans_into_its_own_dark_profiler() {
        let (a, b) = (Registry::new(), Registry::new());
        drop(a.profiler().span("batch 0..1", "engine", 0));
        assert!(a.profiler().is_empty(), "dark until armed");
        a.profiler().set_enabled(true);
        drop(a.profiler().span("batch 0..1", "engine", 0));
        assert_eq!(a.profiler().len(), 1);
        assert!(b.profiler().is_empty() && !b.profiler().is_enabled(), "B is untouched");
    }

    #[test]
    fn warnings_count_in_total_and_per_component() {
        let registry = Registry::new();
        registry.warn("jobs", "one");
        registry.warn("jobs", "two");
        registry.warn("serve", "three");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("warnings_total"), Some(3));
        assert_eq!(snap.counter("warnings_total_jobs"), Some(2));
        assert_eq!(snap.counter("warnings_total_serve"), Some(1));
    }

    #[test]
    fn snapshot_prints_json_and_prometheus() {
        let registry = Registry::new();
        registry.counter("requests_total").add(3);
        registry.gauge("queue_depth").add(2);
        registry.histogram_ms("request_ms").record(0.3);
        let snap = registry.snapshot();

        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"requests_total\":3"));
        assert!(json.contains("\"queue_depth\":2"));
        assert!(json.contains("\"request_ms\":{\"count\":1"));

        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("requests_total 3"));
        assert!(text.contains("queue_depth 2"));
        assert!(text.contains("request_ms_bucket{le=\"0.25\"} 0"));
        assert!(text.contains("request_ms_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("request_ms_count 1"));
    }

    #[test]
    fn snapshot_is_sorted_and_json_escapes_names() {
        let registry = Registry::new();
        registry.counter("zeta").inc();
        registry.counter("alpha").inc();
        registry.counter("weird\"name").inc();
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(snap.to_json().contains("weird\\\"name"));
    }
}
