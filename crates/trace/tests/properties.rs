//! Property-based tests for the workload generators and the block
//! interner.

use proptest::prelude::*;
use ulc_trace::multi::interleave;
use ulc_trace::patterns::{
    FileSetPattern, LoopingPattern, Pattern, SequentialPattern, TemporalPattern, UniformPattern,
    WorkingSetDriftPattern, ZipfPattern,
};
use ulc_trace::{
    BlockId, BlockInterner, BlockMap, TableMode, Trace, TraceStats, Zipf, DIRECT_LIMIT, FILE_LIMIT,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every seeded generator is a pure function of its parameters.
    #[test]
    fn generators_are_deterministic(seed in 0u64..1_000, len in 1usize..300) {
        let a = UniformPattern::new(100, seed).generate(len);
        let b = UniformPattern::new(100, seed).generate(len);
        prop_assert_eq!(a, b);
        let a = ZipfPattern::new(100, 1.0, seed).generate(len);
        let b = ZipfPattern::new(100, 1.0, seed).generate(len);
        prop_assert_eq!(a, b);
        let a = TemporalPattern::new(50, 0.9, seed).generate(len);
        let b = TemporalPattern::new(50, 0.9, seed).generate(len);
        prop_assert_eq!(a, b);
        let a = WorkingSetDriftPattern::new(200, 20, seed).generate(len);
        let b = WorkingSetDriftPattern::new(200, 20, seed).generate(len);
        prop_assert_eq!(a, b);
    }

    /// Generators never step outside their declared footprint.
    #[test]
    fn footprints_are_respected(
        n in 1u64..200,
        seed in 0u64..100,
        len in 1usize..500,
    ) {
        let mut p = UniformPattern::new(n, seed);
        for _ in 0..len {
            prop_assert!(p.next_block().raw() < n);
        }
        let mut p = ZipfPattern::new(n, 1.0, seed).scrambled(seed + 1);
        for _ in 0..len {
            prop_assert!(p.next_block().raw() < n);
        }
        let mut p = LoopingPattern::new(n);
        for _ in 0..len {
            prop_assert!(p.next_block().raw() < n);
        }
    }

    /// A loop of length n visits every block exactly once per n steps.
    #[test]
    fn loop_is_a_permutation_per_cycle(n in 1u64..100, cycles in 1usize..5) {
        let trace = LoopingPattern::new(n).generate(n as usize * cycles);
        let stats = TraceStats::compute(&trace);
        prop_assert_eq!(stats.unique_blocks as u64, n);
        prop_assert_eq!(stats.max_block_refs, cycles);
    }

    /// Zipf probabilities are non-increasing in rank.
    #[test]
    fn zipf_pmf_is_monotone(n in 2usize..300, theta in 0.0f64..3.0) {
        let z = Zipf::new(n, theta);
        for r in 1..n {
            prop_assert!(z.pmf(r) <= z.pmf(r - 1) + 1e-12);
        }
    }

    /// File-set reads: every emitted block belongs to the file set, and
    /// offsets within each file never exceed the file's size.
    #[test]
    fn file_set_reads_stay_inside_files(
        files in 1u32..40,
        seed in 0u64..50,
        len in 1usize..400,
    ) {
        let total = files as u64 * 4;
        let mut p = FileSetPattern::new(files, total, 1.0, seed);
        let mut max_seen = std::collections::HashMap::new();
        for _ in 0..len {
            let b = p.next_block();
            prop_assert!(b.file().index() < files);
            let e = max_seen.entry(b.file()).or_insert(0u32);
            *e = (*e).max(b.offset());
        }
        #[expect(clippy::disallowed_methods, reason = "a sum is order-independent")]
        let sum_bound: u64 = max_seen.values().map(|&m| m as u64 + 1).sum();
        prop_assert!(sum_bound <= total + files as u64);
    }

    /// Warm-up split is exact and order preserving.
    #[test]
    fn warmup_split_partitions_trace(blocks in proptest::collection::vec(0u64..50, 0..200)) {
        let t: Trace = blocks.iter().map(|&b| ulc_trace::BlockId::new(b)).collect();
        let (w, m) = t.split_warmup();
        prop_assert_eq!(w.len() + m.len(), t.len());
        prop_assert_eq!(w.len(), t.len() / 10);
        let rejoined: Vec<_> = w.iter().chain(m.iter()).collect();
        for (a, b) in rejoined.iter().zip(t.iter()) {
            prop_assert_eq!(*a, b);
        }
    }

    /// A non-wrapping sequential sweep never repeats a block.
    #[test]
    fn sequential_sweep_never_repeats(start in 0u64..1000, len in 1usize..300) {
        let t = SequentialPattern::new(start, 10).generate(len);
        prop_assert_eq!(t.unique_blocks(), len);
    }

    /// The interner round-trips an arbitrary block stream: every
    /// reference resolves back to the block it was interned from, equal
    /// blocks share one index, distinct blocks never collide, and the
    /// dense index space is exactly `0..len`.
    #[test]
    fn interner_round_trips_arbitrary_streams(
        blocks in proptest::collection::vec(0u64..500, 0..400),
    ) {
        let mut interner = BlockInterner::new();
        let mut first_index = std::collections::HashMap::new();
        for &raw in &blocks {
            let block = BlockId::new(raw);
            let idx = interner.intern(block);
            prop_assert_eq!(interner.resolve(idx), Some(block));
            prop_assert_eq!(interner.get(block), Some(idx));
            let expect = *first_index.entry(raw).or_insert(idx);
            prop_assert_eq!(idx, expect, "same block must keep its index");
        }
        prop_assert_eq!(interner.len(), first_index.len());
        for idx in 0..interner.len() as u32 {
            let b = interner.resolve(idx).expect("dense index space has no holes");
            prop_assert_eq!(interner.get(b), Some(idx));
        }
        prop_assert_eq!(interner.resolve(interner.len() as u32), None);
    }

    /// Indices assigned so far never change as more blocks are interned
    /// incrementally, and incremental interning of a multi-client
    /// interleaved trace agrees with the one-shot `from_trace` build.
    #[test]
    fn interner_indices_are_stable_under_incremental_insertion(
        loops in proptest::collection::vec(2u64..40, 1..5),
        len in 1usize..300,
        seed in 0u64..100,
    ) {
        let patterns: Vec<Box<dyn Pattern>> = loops
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                Box::new(LoopingPattern::new(n).with_base(i as u64 * 1000)) as Box<dyn Pattern>
            })
            .collect();
        let trace = interleave(patterns, None, len, seed);
        let (oneshot, ids) = BlockInterner::from_trace(&trace);
        prop_assert_eq!(ids.len(), trace.len());

        let mut incremental = BlockInterner::new();
        let mut snapshots: Vec<(BlockId, u32)> = Vec::new();
        for (r, &expect) in trace.iter().zip(&ids) {
            let idx = incremental.intern(r.block);
            prop_assert_eq!(idx, expect, "incremental and one-shot builds agree");
            // Every index handed out earlier must still resolve the same.
            for &(b, i) in &snapshots {
                prop_assert_eq!(incremental.get(b), Some(i));
                prop_assert_eq!(incremental.resolve(i), Some(b));
            }
            if snapshots.len() < 64 {
                snapshots.push((r.block, idx));
            }
        }
        prop_assert_eq!(incremental.len(), oneshot.len());
    }

    /// Dense and hashed `BlockMap`s stay observationally equal under an
    /// arbitrary insert/remove/clear script over ids from every dense
    /// tier and its boundaries, including runs of rising offsets in one
    /// file (which relocate its arena region).
    #[test]
    fn block_map_modes_agree_under_arbitrary_scripts(
        ops in proptest::collection::vec((0u8..5, block_map_id(), 1u32..40), 0..300),
    ) {
        let mut dense: BlockMap<u64> = BlockMap::new(TableMode::Dense);
        let mut hashed: BlockMap<u64> = BlockMap::new(TableMode::Hashed);
        for (i, &(op, raw, run)) in ops.iter().enumerate() {
            let b = BlockId::new(raw);
            match op {
                0 => {
                    prop_assert_eq!(dense.insert(b, i as u64), hashed.insert(b, i as u64));
                }
                1 => {
                    // A run of rising offsets in `raw`'s file.
                    for k in 0..u64::from(run) {
                        let b = BlockId::new(raw.wrapping_add(k));
                        prop_assert_eq!(dense.insert(b, k), hashed.insert(b, k));
                    }
                }
                2 => {
                    prop_assert_eq!(dense.remove(b), hashed.remove(b));
                }
                3 if run == 1 => {
                    dense.clear();
                    hashed.clear();
                }
                _ => {
                    prop_assert_eq!(dense.get(b), hashed.get(b));
                    prop_assert_eq!(dense.contains_key(b), hashed.contains_key(b));
                }
            }
            prop_assert_eq!(dense.len(), hashed.len());
        }
        let mut d: Vec<(BlockId, u64)> = dense.iter().map(|(b, &v)| (b, v)).collect();
        let mut h: Vec<(BlockId, u64)> = hashed.iter().map(|(b, &v)| (b, v)).collect();
        d.sort_unstable();
        h.sort_unstable();
        prop_assert_eq!(&d, &h);
        // Re-inserting the same entries into cleared maps must give the
        // same contents again.
        dense.clear();
        hashed.clear();
        prop_assert!(dense.is_empty());
        for &(b, v) in d.iter().rev() {
            prop_assert_eq!(dense.insert(b, v), hashed.insert(b, v));
        }
        let mut d2: Vec<(BlockId, u64)> = dense.iter().map(|(b, &v)| (b, v)).collect();
        d2.sort_unstable();
        prop_assert_eq!(d2, h);
    }
}

/// Raw block ids spread over every `BlockMap` tier and its boundaries:
/// small direct ids, the last direct id and the first id past it, file
/// indices up to and past `FILE_LIMIT`, offsets up to and past
/// `DIRECT_LIMIT`, and `u64::MAX`.
fn block_map_id() -> impl Strategy<Value = u64> {
    const EDGES: [u64; 3] = [DIRECT_LIMIT - 1, DIRECT_LIMIT, u64::MAX];
    const FILES: [u64; 5] = [0, 1, 2, FILE_LIMIT - 1, FILE_LIMIT];
    const FAR_OFFSETS: [u64; 2] = [DIRECT_LIMIT - 1, DIRECT_LIMIT];
    let near = || (0usize..FILES.len(), 0u64..24).prop_map(|(f, o)| (FILES[f] << 32) | o);
    prop_oneof![
        0u64..60,
        (0usize..EDGES.len()).prop_map(|i| EDGES[i]),
        near(),
        near(),
        // Rare (about one draw per script): a far offset inside the file
        // tier opens a 2 M-slot region.
        (0usize..FILES.len() * 40, 0usize..FAR_OFFSETS.len()).prop_map(|(f, o)| {
            match FILES.get(f) {
                Some(&file) => (file << 32) | FAR_OFFSETS[o],
                None => f as u64,
            }
        }),
    ]
}
