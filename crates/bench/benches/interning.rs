//! E9 micro-benchmark: `UniLruStack` per-reference cost with interned
//! dense tables vs the hashed reference representation.
//!
//! The macro-level counterpart (full `simulate` runs, all protocols) is
//! `ulc_bench::throughput`, driven by `sweep --bench-json=`. This bench
//! isolates the structure the rework targets: the uniLRUstack's
//! block → node table, which every access touches at least once.
//! `loop-20k` and `zipf` take the direct tier; `httpd-multi` (file-set
//! ids, `(file << 32) | offset`) takes the file arena.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ulc_core::UniLruStack;
use ulc_trace::patterns::{LoopingPattern, Pattern};
use ulc_trace::{synthetic, BlockId, TableMode};

fn bench_stack_table_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("stack_table_mode");
    let refs = 60_000usize;
    for (name, trace) in [
        ("loop-20k", LoopingPattern::new(20_000).generate(refs)),
        ("zipf", synthetic::zipf_small(refs)),
        ("httpd-multi", synthetic::httpd_multi(refs)),
    ] {
        let blocks: Vec<BlockId> = trace.iter().map(|r| r.block).collect();
        group.throughput(Throughput::Elements(refs as u64));
        for (mode_name, mode) in [("interned", TableMode::Dense), ("hashed", TableMode::Hashed)] {
            group.bench_with_input(
                BenchmarkId::new(mode_name, name),
                &blocks,
                |b, blocks| {
                    b.iter(|| {
                        let mut stack =
                            UniLruStack::new_with_mode(vec![8_000, 16_000], mode);
                        let mut hits = 0u64;
                        for &blk in blocks {
                            if stack.access(blk).found.level().is_some() {
                                hits += 1;
                            }
                        }
                        hits
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_stack_table_modes
}
criterion_main!(benches);
