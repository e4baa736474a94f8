//! Differential oracle suite for the dense block-table rework.
//!
//! Every protocol that keeps per-block state in a
//! [`BlockMap`](ulc_trace::BlockMap) is run twice over every workload:
//! once in the default `TableMode::Dense` (interned flat tables, dense
//! queue array) and once in `TableMode::Hashed` over the retained
//! map-backed reference path
//! ([`MapReliablePlane`](ulc_hierarchy::reference::MapReliablePlane)).
//! The two runs must produce **bit-identical** full
//! [`SimStats`](ulc_hierarchy::SimStats) — hit counts per level, demotion
//! counts per boundary, misses, and every fault-summary counter including
//! the representation-independent `delivery_batches` tally. This is the
//! proof that the throughput rework perturbed no figure.

use ulc_core::{UlcConfig, UlcMulti, UlcMultiConfig, UlcSingle};
use ulc_hierarchy::plane::FaultyPlane;
use ulc_hierarchy::reference::MapReliablePlane;
use ulc_hierarchy::{
    simulate, DemotionBuffer, EvictionBased, IndLru, MultiLevelPolicy, SimStats, UniLru,
    UniLruVariant,
};
use ulc_trace::{synthetic, TableMode, Trace};

mod common;
use common::{multi_client_workloads, single_client_workloads};

/// Runs the interned protocol and its map-backed reference twin over
/// `trace` and asserts the full `SimStats` structs are bit-identical.
fn assert_identical<D, H>(name: &str, trace: &Trace, mut dense: D, mut hashed: H)
where
    D: MultiLevelPolicy,
    H: MultiLevelPolicy,
{
    let warmup = trace.warmup_len();
    let sd: SimStats = simulate(&mut dense, trace, warmup);
    let sh: SimStats = simulate(&mut hashed, trace, warmup);
    common::assert_stats_bit_identical(name, &sd, &sh);
}

#[test]
fn uni_lru_variants_match_reference_on_every_workload() {
    for (name, trace) in single_client_workloads() {
        for variant in [
            UniLruVariant::MruInsert,
            UniLruVariant::LruInsert,
            UniLruVariant::Adaptive,
        ] {
            let caps = [400usize, 400, 400];
            let dense = UniLru::multi_client(vec![caps[0]], caps[1..].to_vec(), variant);
            let hashed = UniLru::multi_client_with_mode(
                vec![caps[0]],
                caps[1..].to_vec(),
                variant,
                TableMode::Hashed,
            )
            .with_plane(MapReliablePlane::new());
            assert_identical(&format!("uniLRU/{variant:?}/{name}"), &trace, dense, hashed);
        }
    }
}

#[test]
fn ind_lru_matches_map_backed_plane_on_every_workload() {
    // IndLru keeps no per-block table, so this leg isolates the dense
    // queue array of the live ReliablePlane against the retained
    // map-backed plane.
    for (name, trace) in single_client_workloads() {
        let dense = IndLru::single_client(vec![400, 400, 400]);
        let hashed =
            IndLru::single_client(vec![400, 400, 400]).with_plane(MapReliablePlane::new());
        assert_identical(&format!("indLRU/{name}"), &trace, dense, hashed);
    }
}

#[test]
fn eviction_based_matches_reference_on_every_workload() {
    for (name, trace) in single_client_workloads() {
        for latency in [0u64, 7] {
            let dense = EvictionBased::new(vec![400], 800, latency);
            let hashed =
                EvictionBased::new_with_mode(vec![400], 800, latency, TableMode::Hashed)
                    .with_plane(MapReliablePlane::new());
            assert_identical(
                &format!("evict-reload/{latency}/{name}"),
                &trace,
                dense,
                hashed,
            );
        }
    }
}

#[test]
fn demotion_buffered_uni_lru_matches_reference() {
    for (name, trace) in single_client_workloads() {
        let dense = DemotionBuffer::new(UniLru::single_client(vec![400, 400]), 16, 0.2);
        let hashed = DemotionBuffer::new(
            UniLru::multi_client_with_mode(
                vec![400],
                vec![400],
                UniLruVariant::MruInsert,
                TableMode::Hashed,
            )
            .with_plane(MapReliablePlane::new()),
            16,
            0.2,
        );
        assert_identical(&format!("buffered/{name}"), &trace, dense, hashed);
    }
}

#[test]
fn ulc_single_matches_reference_on_every_workload() {
    for (name, trace) in single_client_workloads() {
        let dense = UlcSingle::new(UlcConfig::new(vec![400, 400, 400]));
        let hashed =
            UlcSingle::new_with_mode(UlcConfig::new(vec![400, 400, 400]), TableMode::Hashed);
        assert_identical(&format!("ULC-single/{name}"), &trace, dense, hashed);
    }
}

#[test]
fn ulc_multi_matches_reference_on_every_workload() {
    for (name, trace, clients) in multi_client_workloads() {
        let config = UlcMultiConfig::uniform(clients, 256, 2048);
        let dense = UlcMulti::new(config.clone());
        let hashed = UlcMulti::new_with_mode(config, TableMode::Hashed)
            .with_plane(MapReliablePlane::new());
        assert_identical(&format!("ULC/{name}"), &trace, dense, hashed);
    }
}

#[test]
fn faulty_plane_runs_match_reference_tables_exactly() {
    // Under an actively faulty plane the RNG stream (drops, duplicates,
    // delays, a crash) is a pure function of the scenario, independent of
    // the table representation — so Dense and Hashed tables must still
    // produce bit-identical stats, recovery counters included.
    let scenario = common::crashy_mild_scenario();

    let tm = synthetic::httpd_multi(30_000);
    let dense = UlcMulti::new(UlcMultiConfig::uniform(7, 256, 2048))
        .with_plane(FaultyPlane::new(scenario.clone()));
    let hashed =
        UlcMulti::new_with_mode(UlcMultiConfig::uniform(7, 256, 2048), TableMode::Hashed)
            .with_plane(FaultyPlane::new(scenario.clone()));
    assert_identical("ULC/faulty/httpd", &tm, dense, hashed);

    let t = synthetic::cs(30_000);
    let dense = UniLru::single_client(vec![500, 500, 500])
        .with_plane(FaultyPlane::new(scenario.clone()));
    let hashed = UniLru::multi_client_with_mode(
        vec![500],
        vec![500, 500],
        UniLruVariant::MruInsert,
        TableMode::Hashed,
    )
    .with_plane(FaultyPlane::new(scenario));
    assert_identical("uniLRU/faulty/cs", &t, dense, hashed);
}
