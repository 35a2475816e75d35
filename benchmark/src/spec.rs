//! The benchmark's declared surface: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root states the same
//! lists for the driver; a unit test keeps the two in step.

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload: its name, why it exists, and the length of one of its five
/// rounds in a full `run.sh` set.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub round_seconds: u64,
}

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "dse_oneshot",
        why: "The outermost thing a user runs, `repro dse --json`: export and cache persistence are about 70 % of it, the sweeps 3 %, so kernel or cache-probe work should barely move it.",
        round_seconds: 4,
    },
    WorkloadSpec {
        name: "sweep_cold",
        why: "Tables + fresh engine + full analytic sweep: cache writes (reserve, insert_batch) are about 90 % of it and the kernel 1 %; cache-admission work must show here.",
        round_seconds: 3,
    },
    WorkloadSpec {
        name: "sweep_warm",
        why: "Re-sweep on a kept engine, 100 % hits: the same cache used for reads, so a layout that speeds inserts but slows probes, or a bypass that recomputes hits, shows here.",
        round_seconds: 3,
    },
    WorkloadSpec {
        name: "sweep_uncached",
        why: "Cache bypassed: kernel, table columns, record fill and pool hand-off; kernel and scheduler work shows here, and the prediction for any cache change is flat.",
        round_seconds: 2,
    },
    WorkloadSpec {
        name: "sweep_sim",
        why: "The expensive backend on a cold cache: cmpsim is a third of each scenario's CPU, the largest backend share of any workload; adjudicates whether the simulator keeps the cache.",
        round_seconds: 2,
    },
    WorkloadSpec {
        name: "serve_stream",
        why: "Full streamed sweep over the wire from T connections to a child `repro serve`: chunk encode, framing and decode are about two thirds of it; codec, reactor and client work shows here.",
        round_seconds: 3,
    },
    WorkloadSpec {
        name: "serve_topk",
        why: "Same service, ten records back (top_k and pareto alternating): the codec does nothing, so codec changes must be flat while analysis, planner and scheduler changes show.",
        round_seconds: 3,
    },
];

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; per-layer metrics carry none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None }
}

/// What a user of the stack sees. The same five names are measured on every
/// workload. (`failed_share` is not among them: the result line carries
/// `attempted` and `failed` themselves, and it is also printed as the
/// per-layer metric `bench.failed_share`.)
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("scenarios_per_s", "scenarios/s", Better::Higher, 0.25),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("cpu_ms_per_mscen", "ms/Mscen", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// Single-layer numbers from the traced run; the prefix is the module.
pub const PER_LAYER: [MetricSpec; 72] = [
    layer("model.prepared_ns_per_eval", "ns", Lower),
    layer("dse.tables.build_ms", "ms", Lower),
    layer("dse.backend.analytic_ns_per_scenario", "ns", Lower),
    layer("dse.backend.measured_ns_per_scenario", "ns", Lower),
    layer("dse.backend.comm_ns_per_scenario", "ns", Lower),
    layer("dse.backend.sim_ns_per_scenario", "ns", Lower),
    layer("cmpsim.simulate_ns", "ns", Lower),
    layer("dse.cache.reserve_ms", "ms", Lower),
    layer("dse.cache.insert_ns_per_key", "ns", Lower),
    layer("dse.cache.probe_hit_ns_per_key", "ns", Lower),
    layer("dse.cache.probe_miss_ns_per_key", "ns", Lower),
    layer("dse.cache.hit_share", "ratio", Higher),
    layer("dse.cache.save_json_ms", "ms", Lower),
    layer("dse.cache.load_json_ms", "ms", Lower),
    layer("dse.cache.save_segment_ms", "ms", Lower),
    layer("dse.cache.load_segment_ms", "ms", Lower),
    layer("dse.cache.json_bytes", "bytes", Lower),
    layer("dse.cache.segment_bytes", "bytes", Lower),
    layer("dse.engine.uncached_ns_per_scenario", "ns", Lower),
    layer("dse.engine.cold_ns_per_scenario", "ns", Lower),
    layer("dse.engine.warm_ns_per_scenario", "ns", Lower),
    layer("dse.engine.uncached_1t_ns_per_scenario", "ns", Lower),
    layer("dse.engine.cold_1t_ns_per_scenario", "ns", Lower),
    layer("dse.engine.warm_1t_ns_per_scenario", "ns", Lower),
    layer("dse.engine.uncached_scaling", "ratio", Higher),
    layer("dse.engine.cold_scaling", "ratio", Higher),
    layer("dse.engine.warm_scaling", "ratio", Higher),
    layer("dse.engine.self_ns_per_scenario", "ns", Lower),
    layer("par.pool_roundtrip_us", "us", Lower),
    layer("dse.merge.ns_per_record", "ns", Lower),
    layer("dse.merge.sequential_ns_per_record", "ns", Lower),
    layer("dse.analysis.top_k_ms", "ms", Lower),
    layer("dse.analysis.pareto_ms", "ms", Lower),
    layer("dse.analysis.per_axis_ms", "ms", Lower),
    layer("dse.export.csv_ms", "ms", Lower),
    layer("dse.export.json_ms", "ms", Lower),
    layer("dse.export.csv_bytes", "bytes", Lower),
    layer("dse.export.json_bytes", "bytes", Lower),
    layer("bench.export_sweep_ms", "ms", Lower),
    layer("bench.dse_op_ms", "ms", Lower),
    layer("bench.dse_residual_ms", "ms", Lower),
    layer("bench.dse_sweeps_share", "ratio", Lower),
    layer("bench.build_s", "s", Lower),
    layer("bench.canary_ms", "ms", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("bench.named_share", "ratio", Higher),
    layer("bench.failed_share", "ratio", Lower),
    layer("serve.service.sweep_ns_per_scenario", "ns", Lower),
    layer("serve.service.overhead_ns_per_scenario", "ns", Lower),
    layer("serve.service.stream_ns_per_scenario", "ns", Lower),
    layer("serve.protocol.encode_ns_per_record", "ns", Lower),
    layer("serve.protocol.frame_ns_per_record", "ns", Lower),
    layer("serve.protocol.decode_ns_per_record", "ns", Lower),
    layer("serve.protocol.bytes_per_record", "bytes", Lower),
    layer("serve.protocol.request_decode_us", "us", Lower),
    layer("serve.client.assemble_ns_per_record", "ns", Lower),
    layer("serve.client.op_p50_ms", "ms", Lower),
    layer("serve.client.op_tail_ms", "ms", Lower),
    layer("serve.client.op_tail_percentile", "%", Higher),
    layer("serve.client.busy_retries", "count", Lower),
    layer("serve.server.ping_us", "us", Lower),
    layer("serve.server.stream_ns_per_record", "ns", Lower),
    layer("serve.server.wire_residual_ns_per_record", "ns", Lower),
    layer("serve.server.epoll_wakeups_per_op", "count", Lower),
    layer("serve.server.read_pauses", "count", Lower),
    layer("serve.server.queue_wait_p50_ms", "ms", Lower),
    layer("serve.sched.units_per_op", "count", Lower),
    layer("serve.sched.stolen_share", "ratio", Lower),
    layer("serve.planner.coalesced_share", "ratio", Higher),
    layer("serve.planner.merge_ms_per_op", "ms", Lower),
    layer("obs.counter_add_ns", "ns", Lower),
    layer("obs.histogram_record_ns", "ns", Lower),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_stay_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
    }

    fn field<'a>(map: &'a Value, key: &str) -> &'a Value {
        crate::json::get(map, key).unwrap_or_else(|| panic!("no `{key}` in {map:?}"))
    }

    fn items(value: &Value) -> &[Value] {
        match value {
            Value::Arr(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_this_surface() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let json = serde_json::parse(&text).expect("BENCHMARK.json parses");

        let workloads = items(field(&json, "workloads"));
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (declared, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(declared, "name").as_str(), Some(spec.name));
            assert_eq!(field(declared, "why").as_str(), Some(spec.why));
        }
        for (key, specs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let declared = items(field(&json, key));
            assert_eq!(declared.len(), specs.len(), "{key}");
            for (declared, spec) in declared.iter().zip(specs) {
                assert_eq!(field(declared, "name").as_str(), Some(spec.name));
                assert_eq!(field(declared, "unit").as_str(), Some(spec.unit), "{}", spec.name);
                assert_eq!(
                    field(declared, "better").as_str(),
                    Some(spec.better.as_str()),
                    "{}",
                    spec.name
                );
                if let Some(bound) = spec.bound {
                    assert_eq!(field(declared, "bound").as_f64(), Some(bound), "{}", spec.name);
                }
            }
        }
        let paths: Vec<&str> =
            items(field(&json, "paths")).iter().filter_map(Value::as_str).collect();
        assert_eq!(paths, ["benchmark"]);
        let seconds = field(&json, "run_seconds").as_f64().expect("run_seconds is a number");
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
