//! The benchmark's own tests: declared metrics, span accounting, tiny
//! runs of every workload and the digest check.

use serde::Value;
use ulc_perfbench::digest::{digest, Pins};
use ulc_perfbench::metrics::{per_layer, result_json, END_TO_END, TRACING_OVERHEAD};
use ulc_perfbench::run::{run, DigestCheck, Options, Report};
use ulc_perfbench::workloads::{derive, Workload, ALL, DEFAULT_SEED};

/// References per trace in the tiny runs.
const TINY: usize = 12_000;

fn tiny(workload: Workload, layers: bool, digests: DigestCheck) -> Report {
    let mut o = Options::new(workload);
    o.refs = TINY;
    o.seconds = 0.0;
    o.setup_reps = 1;
    o.layers = layers;
    o.digests = digests;
    run(o)
}

fn field<'v>(v: &'v Value, name: &str) -> &'v Value {
    v.as_object()
        .and_then(|f| f.iter().find(|(k, _)| k == name))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing field {name}"))
}

/// `(name, unit)` of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let spec = serde_json::parse(text).expect("BENCHMARK.json parses");
    field(&spec, list)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| field(m, k).as_str().expect("string").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn declared_metrics_match_benchmark_json() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared("per_layer"), layers);
    let workloads = serde_json::parse(include_str!("../../BENCHMARK.json")).expect("parses");
    let names: Vec<&str> = field(&workloads, "workloads")
        .as_array()
        .expect("list")
        .iter()
        .map(|w| field(w, "name").as_str().expect("name"))
        .collect();
    assert_eq!(names, ALL.map(Workload::name));
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let r = tiny(Workload::MultiShared, true, DigestCheck::Off);
    let mut metrics = r.end_to_end();
    let names: Vec<String> = metrics.iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(
        names,
        declared("end_to_end")
            .into_iter()
            .map(|(n, _)| n)
            .collect::<Vec<_>>()
    );
    let layer_names: Vec<String> = r.layer_metrics.iter().map(|(n, _)| n.clone()).collect();
    let want: Vec<String> = declared("per_layer")
        .into_iter()
        .map(|(n, _)| n)
        .filter(|n| n != TRACING_OVERHEAD)
        .collect();
    assert_eq!(layer_names, want);

    metrics.extend(r.layer_metrics.iter().cloned());
    let line = serde_json::parse(&result_json(r.attempted(), r.failed(), &metrics)).expect("json");
    let keys: Vec<&str> = line
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let all = declared("end_to_end")
        .into_iter()
        .chain(declared("per_layer"));
    for (name, unit) in all.filter(|(n, _)| n != TRACING_OVERHEAD) {
        let m = field(field(&line, "metrics"), &name);
        assert_eq!(field(m, "unit").as_str(), Some(unit.as_str()), "{name}");
        assert!(field(m, "value").as_f64().is_some(), "{name}");
    }
}

#[test]
fn span_self_times_are_non_negative_and_sum_to_the_root() {
    let r = tiny(Workload::MultiPrivate, true, DigestCheck::Off);
    let spans = r.spans.spans();
    assert!(spans.len() > 10);
    assert!(
        spans.iter().all(|s| s.end_ns >= s.start_ns),
        "every span closed"
    );
    let own = r.spans.self_ns();
    assert!(own.iter().all(|&ns| ns >= 0), "negative self time");
    let root = (spans[0].end_ns - spans[0].start_ns) as i64;
    assert_eq!(own.iter().sum::<i64>(), root);
    for name in [
        "setup", "check", "rounds", "ladder", "warm-up", "steady", "bare", "sharded1",
    ] {
        assert!(spans.iter().any(|s| s.name == name), "no {name} span");
    }
    let tree = serde_json::parse(&r.spans.to_json()).expect("span tree is JSON");
    assert_eq!(
        field(&tree, "name").as_str(),
        Some("workload multi-private")
    );
}

#[test]
fn tiny_run_of_every_workload_passes_every_check() {
    for w in ALL {
        // Default seed: the traces must also equal `ulc_trace::synthetic`.
        let r = tiny(w, false, DigestCheck::Auto);
        assert_eq!(r.failed(), 0, "{}: {:?}", w.name(), r.failures);
        assert_eq!(r.attempted(), w.cells().len());
        for (name, v) in r.end_to_end() {
            assert!(v > 0.0, "{}: {name} = {v}", w.name());
        }
    }
    let r = tiny(Workload::MultiFaulty, true, DigestCheck::Off);
    assert_eq!(r.failed(), 0, "{:?}", r.failures);
}

#[test]
fn another_seed_changes_the_traces_and_still_passes() {
    let mut o = Options::new(Workload::MultiShared);
    o.refs = TINY;
    o.seconds = 0.0;
    o.setup_reps = 1;
    o.seed = 7;
    let r = run(o);
    assert_eq!(r.failed(), 0, "{:?}", r.failures);
    let base = tiny(Workload::MultiShared, false, DigestCheck::Off);
    assert_ne!(r.traces[0].full, base.traces[0].full);
    assert_eq!(derive(0x5eed10, DEFAULT_SEED), 0x5eed10);
}

#[test]
fn corrupted_pinned_digest_fails_exactly_that_cell() {
    let w = Workload::MultiShared;
    let clean = tiny(w, false, DigestCheck::Off);
    let mut pins = Pins::default();
    for (label, s) in clean.labels.iter().zip(&clean.stats) {
        pins.set(w.name(), label, digest(s));
    }
    assert_eq!(tiny(w, false, DigestCheck::Table(pins.clone())).failed(), 0);

    let victim = &clean.labels[2];
    let good = pins.get(w.name(), victim).expect("pinned");
    pins.set(w.name(), victim, good ^ 1);
    let r = tiny(w, false, DigestCheck::Table(pins));
    assert_eq!(r.failed(), 1);
    assert_eq!(&r.failures[0].0, victim);
    assert!(r.failures[0].1.contains("pinned"), "{}", r.failures[0].1);
}

#[test]
fn pinned_table_covers_every_cell() {
    let pins = Pins::pinned();
    assert_eq!(Pins::parse(&pins.render()), pins);
    for w in ALL {
        for c in w.cells() {
            assert!(
                pins.get(w.name(), &c.label(w)).is_some(),
                "{} {}",
                w.name(),
                c.label(w)
            );
        }
    }
}
