//! Protocol-level invariant proptests for the multi-level hierarchy.
//!
//! These drive arbitrary Retrieve/Demote sequences through the ULC
//! protocol and the hierarchy simulators and assert the structural laws
//! the paper relies on: a block is resident at one level at most
//! (exclusive caching), reported demotion counts conserve the actual
//! downward block transfers, and no level ever exceeds its capacity.
//!
//! Run with `cargo test --features debug_invariants -q`: the feature
//! additionally makes every mutating access self-validate through the
//! structures' internal `check_invariants` (tick-sampled), so these
//! streams double as fuzzers for the deep validators. The explicit
//! assertions below hold with or without the feature.

use std::collections::HashMap;

use proptest::collection::vec;
use proptest::prelude::*;
use ulc::core::{ClaimRule, UlcConfig, UlcMulti, UlcMultiConfig, UlcSingle};
use ulc::hierarchy::{MultiLevelPolicy, UniLru, UniLruVariant};
use ulc::trace::{BlockId, ClientId};

fn capacities() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        vec(1usize..6, 2..3),
        vec(1usize..6, 3..4),
        vec(1usize..5, 4..5),
    ]
}

/// Snapshot of which level holds each block, from the public stack view.
fn residency(s: &UlcSingle) -> HashMap<u64, usize> {
    let mut map = HashMap::new();
    for l in 0..s.stack().num_levels() {
        for b in s.stack().level_blocks(l) {
            let prev = map.insert(b.raw(), l);
            assert_eq!(prev, None, "block {b} resident at two levels");
        }
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exclusive caching + capacity bounds: after every reference, each
    /// level holds at most its capacity and no block appears at two
    /// levels (`residency` panics on a duplicate).
    #[test]
    fn ulc_single_levels_stay_disjoint_and_bounded(
        caps in capacities(),
        blocks in vec(0u64..48, 1..300),
    ) {
        let mut ulc = UlcSingle::new(UlcConfig::new(caps.clone()));
        for &blk in &blocks {
            ulc.access(ClientId::SINGLE, BlockId::new(blk));
            for (l, &cap) in caps.iter().enumerate() {
                prop_assert!(ulc.stack().level_blocks(l).len() <= cap, "level {} over capacity", l);
            }
            residency(&ulc);
        }
        ulc.check_invariants();
    }

    /// Demotion conservation: the per-boundary counts the protocol
    /// reports equal the downward level transfers observable by diffing
    /// the residency map across the access. Evictions and upward moves
    /// (promotions) contribute nothing; a demotion from level `f` to
    /// level `t` counts once at every boundary in between.
    #[test]
    fn demotion_counts_conserve_observed_transfers(
        caps in capacities(),
        blocks in vec(0u64..32, 1..250),
    ) {
        let mut ulc = UlcSingle::new(UlcConfig::new(caps.clone()));
        let mut before = residency(&ulc);
        for &blk in &blocks {
            let out = ulc.access(ClientId::SINGLE, BlockId::new(blk));
            let after = residency(&ulc);
            let mut expect = vec![0u32; caps.len() - 1];
            #[expect(
                clippy::iter_over_hash_type,
                reason = "the expected demotion counts are a sum; order-independent"
            )]
            for (&b, &f) in &before {
                if let Some(&t) = after.get(&b) {
                    if b != blk && t > f {
                        for boundary in &mut expect[f..t] {
                            *boundary += 1;
                        }
                    }
                }
            }
            prop_assert_eq!(&out.demotions, &expect, "block {}", blk);
            before = after;
        }
    }

    /// Multi-client ULC under both claim rules: hits come from the two
    /// observable levels, every access reports exactly one boundary, the
    /// server never exceeds capacity, and the per-client allocation view
    /// partitions it. With `debug_invariants` on, each access also
    /// re-proves exclusive caching and demotion conservation internally.
    #[test]
    fn multi_client_retrieve_demote_interleavings_stay_sound(
        clients in 1usize..4,
        client_cap in 1usize..5,
        server_cap in 1usize..8,
        strict in any::<bool>(),
        refs in vec((0u32..4, 0u64..24), 1..250),
    ) {
        let rule = if strict { ClaimRule::PaperStrict } else { ClaimRule::DynamicPartition };
        let config = UlcMultiConfig::uniform(clients, client_cap, server_cap)
            .with_claim_rule(rule);
        let mut ulc = UlcMulti::new(config);
        for &(c, b) in &refs {
            let out = ulc.access(ClientId::new(c % clients as u32), BlockId::new(b));
            prop_assert!(out.hit_level.is_none_or(|l| l < 2));
            prop_assert_eq!(out.demotions.len(), 1);
            prop_assert!(ulc.server_len() <= server_cap);
            let owned: usize = ulc.server_allocation().iter().sum();
            prop_assert_eq!(owned, ulc.server_len());
        }
        ulc.check_invariants();
    }

    /// The uniLRU hierarchy accepts any client interleaving under every
    /// insertion variant and keeps its structural invariants (shared
    /// levels disjoint, capacities respected — checked internally).
    #[test]
    fn uni_lru_hierarchy_survives_any_interleaving(
        variant_idx in 0usize..3,
        refs in vec((0u32..3, 0u64..32), 1..250),
    ) {
        let variant = [
            UniLruVariant::MruInsert,
            UniLruVariant::LruInsert,
            UniLruVariant::Adaptive,
        ][variant_idx];
        let mut uni = UniLru::multi_client(vec![2, 2, 2], vec![5], variant);
        for &(c, b) in &refs {
            let out = uni.access(ClientId::new(c), BlockId::new(b));
            prop_assert!(out.hit_level.is_none_or(|l| l < 2));
        }
        uni.check_invariants();
    }
}
