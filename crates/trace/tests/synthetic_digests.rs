//! Pinned digests of every `ulc_trace::synthetic` constructor.
//!
//! Each trace is folded FNV-1a style over its block ids (and, for the
//! multi-client traces, separately over its client ids) at a fixed size. A
//! generator rewrite that changes one RNG draw, one stack order or one
//! client interleaving fails here, long before the full-size simulation
//! digests of the benchmark notice. The values were recorded from the
//! `Vec`-stack generators that the O(log n) depth stack replaced, so they
//! also pin that bit-identity.

use ulc_trace::{synthetic, Trace};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(values: impl Iterator<Item = u64>) -> u64 {
    values.fold(FNV_OFFSET, |x, v| (x ^ v).wrapping_mul(FNV_PRIME))
}

/// Asserts that `trace` holds `refs` references whose block ids fold to
/// `blocks` and whose client ids fold to `clients` (`None`: one client).
fn check(name: &str, trace: &Trace, refs: usize, blocks: u64, clients: Option<u64>) {
    assert_eq!(trace.len(), refs, "{name}: length");
    let got = fnv(trace.iter().map(|r| r.block.raw()));
    assert_eq!(got, blocks, "{name}: block digest 0x{got:016x}");
    match clients {
        None => assert_eq!(trace.num_clients(), 1, "{name}: clients"),
        Some(want) => {
            let got = fnv(trace.iter().map(|r| u64::from(r.client.index())));
            assert_eq!(got, want, "{name}: client digest 0x{got:016x}");
        }
    }
}

#[test]
fn small_suite_is_pinned() {
    const REFS: usize = 30_000;
    let pinned: [(&str, Trace, u64); 6] = [
        ("cs", synthetic::cs(REFS), 0x2e03_ee34_1ba4_fd35),
        ("glimpse", synthetic::glimpse(REFS), 0x1e38_a1a9_da45_a735),
        (
            "zipf_small",
            synthetic::zipf_small(REFS),
            0xc345_5b17_dd16_697f,
        ),
        (
            "random_small",
            synthetic::random_small(REFS),
            0x65c3_c349_6524_ccf6,
        ),
        ("sprite", synthetic::sprite(REFS), 0x7d96_1043_ad98_20fb),
        (
            "multi_small",
            synthetic::multi_small(REFS),
            0x66d7_e760_31d0_f06d,
        ),
    ];
    for (name, trace, blocks) in &pinned {
        check(name, trace, REFS, *blocks, None);
    }
}

#[test]
fn figure6_suite_is_pinned() {
    const REFS: usize = 100_000;
    let pinned: [(&str, Trace, u64); 5] = [
        (
            "random_large",
            synthetic::random_large(REFS),
            0x5cb6_57ce_8afd_c0d5,
        ),
        (
            "zipf_large",
            synthetic::zipf_large(REFS),
            0x2d08_0ba0_fa43_16f9,
        ),
        (
            "httpd_single",
            synthetic::httpd_single(REFS),
            0xe90b_df87_31a0_7b6d,
        ),
        ("dev1", synthetic::dev1(REFS), 0x7012_c66e_a9fb_3273),
        ("tpcc1", synthetic::tpcc1(REFS), 0x7e33_7818_fca7_7ac1),
    ];
    for (name, trace, blocks) in &pinned {
        check(name, trace, REFS, *blocks, None);
    }
}

/// `dev1` at the benchmark's and the sweep's default sizes: long enough
/// for the window to drift across much of the universe and for the depth
/// stack to rebuild its slot space many times over.
#[test]
fn dev1_is_pinned_at_benchmark_sizes() {
    for (refs, blocks) in [
        (500_000, 0xe02f_be4d_5616_ba0c),
        (2_000_000, 0xfdd9_c75c_4384_b6cd),
    ] {
        check("dev1", &synthetic::dev1(refs), refs, blocks, None);
    }
}

#[test]
fn figure7_suite_is_pinned() {
    const REFS: usize = 60_000;
    let pinned: [(&str, Trace, u64, u64); 3] = [
        (
            "httpd_multi",
            synthetic::httpd_multi(REFS),
            0x0ed9_463d_e87e_9840,
            0xf9e2_0f7d_0948_c00c,
        ),
        (
            "openmail",
            synthetic::openmail(REFS, 150_000),
            0xf496_1a4a_d41f_4f58,
            0x4e62_31f0_ed46_d617,
        ),
        (
            "db2_multi",
            synthetic::db2_multi(REFS, 85_000),
            0xee04_9b7b_f380_d336,
            0x6570_3c15_0360_b141,
        ),
    ];
    for (name, trace, blocks, clients) in &pinned {
        check(name, trace, REFS, *blocks, Some(*clients));
    }
}
