//! Trace-generation micro-benchmark: one case per Figure 6 and Figure 7
//! `synthetic` constructor at 500 k references.
//!
//! Generation is the first layer of the evaluation's cost ladder
//! (trace generation, interning, `simulate`, protocol step, plane, obs).
//! Every generator here should be O(log n) or better per reference, so a
//! case that slows by an order of magnitude flags an O(n) step, such as a
//! `Vec` splice per reference.
//!
//! Run with `cargo bench -p ulc-bench --bench generators`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ulc_trace::{blocks_for_mib, synthetic, Trace};

const REFS: usize = 500_000;

/// A `synthetic` constructor taking the reference count.
type Generator = fn(usize) -> Trace;

/// `openmail` at the Figure 7 footprint, scaled as `fig7::workloads` does.
fn openmail(refs: usize) -> Trace {
    synthetic::openmail(refs, blocks_for_mib(18_600) / 16)
}

/// `db2` at the Figure 7 footprint, scaled as `fig7::workloads` does.
fn db2(refs: usize) -> Trace {
    synthetic::db2_multi(refs, blocks_for_mib(5_200) / 8)
}

fn bench_generators(c: &mut Criterion) {
    let cases: [(&str, Generator); 8] = [
        ("fig6/random", synthetic::random_large),
        ("fig6/zipf", synthetic::zipf_large),
        ("fig6/httpd", synthetic::httpd_single),
        ("fig6/dev1", synthetic::dev1),
        ("fig6/tpcc1", synthetic::tpcc1),
        ("fig7/httpd", synthetic::httpd_multi),
        ("fig7/openmail", openmail),
        ("fig7/db2", db2),
    ];
    let mut group = c.benchmark_group("generate");
    group.throughput(Throughput::Elements(REFS as u64));
    for (name, generate) in cases {
        group.bench_function(name, |b| b.iter(|| generate(REFS)));
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(5);
    targets = bench_generators
}
criterion_main!(benches);
