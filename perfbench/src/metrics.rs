//! Metric names and units (the ones `BENCHMARK.json` declares) and the
//! result line the benchmark prints.

use crate::workloads::ALL_TRACES;

/// End-to-end metrics: every untraced run prints all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("refs_per_s", "refs/s"),
    ("ulc_refs_per_s", "refs/s"),
    ("unilru_refs_per_s", "refs/s"),
    ("indlru_refs_per_s", "refs/s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metric `run.py` adds from the two builds' rates.
pub const TRACING_OVERHEAD: &str = "bench.tracing_overhead";

/// Per-layer metrics, in `BENCHMARK.json` order. The traced run prints
/// all of them except [`TRACING_OVERHEAD`]; a metric whose layer the
/// workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    add("trace.gen_s".into(), "s");
    for t in ALL_TRACES {
        add(format!("trace.gen_s.{}", t.name()), "s");
    }
    add("trace.footprint_blocks".into(), "blocks");
    add("trace.exclusive_ref_frac".into(), "fraction");
    add("cache.lru_ns_per_ref".into(), "ns/ref");
    for r in ["dyn_over_mono", "over_bare", "warmup_over_steady"] {
        add(format!("hierarchy.simulate.{r}"), "ratio");
    }
    for p in ["unilru", "indlru", "mq"] {
        for l in 0..3 {
            add(format!("hierarchy.{p}.hit_frac.l{l}"), "fraction");
        }
        for b in 0..2 {
            add(format!("hierarchy.{p}.demotions_per_ref.b{b}"), "1/ref");
        }
    }
    add("hierarchy.plane.msgs_per_ref".into(), "1/ref");
    add("hierarchy.plane.batches_per_ref".into(), "1/ref");
    add("hierarchy.plane.faulty0_over_reliable".into(), "ratio");
    add("hierarchy.plane.drop_frac".into(), "fraction");
    add("hierarchy.plane.reorder_frac".into(), "fraction");
    add("hierarchy.plane.rpc_failures_per_kref".into(), "1/kref");
    for l in 0..3 {
        add(format!("core.ulc.hit_frac.l{l}"), "fraction");
    }
    for b in 0..2 {
        add(format!("core.ulc.demotions_per_ref.b{b}"), "1/ref");
    }
    add("core.ulc.l0_private_hit_frac".into(), "fraction");
    add("core.stack.share".into(), "fraction");
    add("core.ulc.recovery_over_faulty0".into(), "ratio");
    add("core.ulc.reconcile_rounds_per_kref".into(), "1/kref");
    add("core.ulc.stale_status_per_kref".into(), "1/kref");
    add("core.parallel.sh1_over_serial".into(), "ratio");
    add("core.parallel.sh2_over_sh1".into(), "ratio");
    add("obs.overhead".into(), "ratio");
    add("obs.events_per_ref".into(), "1/ref");
    add("obs.events_dropped_frac".into(), "fraction");
    add("obs.rpcs_per_ref".into(), "1/ref");
    add("obs.span_cost.p50".into(), "cost");
    add("obs.span_cost.p99".into(), "cost");
    add("alloc.warmup_per_ref".into(), "1/ref");
    add("alloc.steady_per_ref".into(), "1/ref");
    add("bench.control_ns_per_op".into(), "ns/op");
    add(TRACING_OVERHEAD.into(), "ratio");
    m
}

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .or_else(|| {
            per_layer()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
}

/// One result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
///
/// # Panics
///
/// Panics if a metric is undeclared or not finite — both are benchmark
/// bugs, not measurements.
pub fn result_json(attempted: usize, failed: usize, metrics: &[(String, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = unit_of(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
            assert!(value.is_finite(), "{name} = {value}");
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0,
        attempted,
        failed,
        body.join(",")
    )
}
