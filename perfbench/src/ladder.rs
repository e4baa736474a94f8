//! The layer ladder of the traced run: extra passes over the same cells
//! that take one layer away (or add one) at a time, plus the counts each
//! layer reports, folded into the per-layer metrics.
//!
//! Every `*_over_*` metric is a ratio of rates (references per second)
//! measured in this process; `obs.overhead` and `core.stack.share` are
//! ratios of host times. Where the figures' own `dyn` driver is one side
//! of a ratio, its time is the cell's median timed round.

use crate::run::{median, sharded_caps, Failure, Report};
use crate::spans::Spans;
use crate::workloads::{ulc_multi, Engine, Protocol, Shape, ALL_TRACES};
use std::hint::black_box;
use ulc_cache::LruCache;
use ulc_core::{AccessScratch, ShardedReplayer, UniLruStack};
use ulc_hierarchy::{
    simulate, AccessOutcome, FaultScenario, FaultSummary, FaultyPlane, MultiLevelPolicy,
};
use ulc_obs::{CounterId, HistId, Pow2Histogram, POW2_BUCKETS};
use ulc_trace::epoch::ReplayPlan;
use ulc_trace::Trace;

/// Event-ring slots of the recorder the `obs` pass attaches.
const RING_CAPACITY: usize = 4096;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Lower bound of the power-of-two bucket holding the `pct`-th
/// percentile (ceiling rank), or 0 for an empty histogram.
fn percentile(h: &Pow2Histogram, pct: u64) -> f64 {
    let rank = (h.count() * pct).div_ceil(100).max(1);
    let mut seen = 0;
    for i in 0..POW2_BUCKETS {
        seen += h.bucket(i);
        if seen >= rank {
            return Pow2Histogram::bounds(i).0 as f64;
        }
    }
    0.0
}

/// Summed host times and counts of the ladder passes.
#[derive(Default)]
struct Sums {
    dyn_s: f64,
    mono_s: f64,
    bare_s: f64,
    obs_s: f64,
    lru_s: f64,
    lru_refs: usize,
    stack_s: f64,
    stack_ulc_s: f64,
    reliable_s: f64,
    faulty0_s: f64,
    mild_s: f64,
    serial_s: f64,
    sh1_s: f64,
    sh2_s: f64,
    private_hits: u64,
    ulc_steady_refs: u64,
    events: u64,
    events_dropped: u64,
    accesses: u64,
    rpcs: u64,
    span_cost: Pow2Histogram,
}

/// Runs the ladder over `r`'s traces and cells and returns the per-layer
/// metrics (all of [`crate::metrics::per_layer`] but the tracing
/// overhead) and any cell that failed a ladder check.
pub fn run(r: &Report, spans: &mut Spans) -> (Vec<(String, f64)>, Vec<Failure>) {
    let mut failures = Vec::new();
    let mut sums = Sums::default();

    for p in &r.traces {
        let (_, s) = spans.time(&format!("lru {}", p.kind.name()), || {
            let mut lru = LruCache::new(p.kind.shape().aggregate());
            for rec in p.full.iter() {
                black_box(lru.access(rec.block).is_hit());
            }
        });
        sums.lru_s += s;
        sums.lru_refs += p.full.len();
    }

    for (i, c) in r.cells.iter().enumerate() {
        let p = &r.traces[c.trace];
        let shape = p.kind.shape();
        let warm = p.warm.len();
        spans.enter(&format!("cell {}", r.labels[i]));

        // The same-run control: this cell's median timed round.
        let t_dyn = median(
            &r.rounds
                .iter()
                .map(|round| round[i].warm_s + round[i].steady_s)
                .collect::<Vec<_>>(),
        );
        sums.dyn_s += t_dyn;
        let mut e = c.build(shape);
        let (_, t_mono) = spans.time("mono", || e.simulate_mono(&p.full, warm));
        sums.mono_s += t_mono;
        let mut e = c.build(shape);
        let (_, t) = spans.time("bare", || bare_loop(e.as_dyn(), &p.full));
        sums.bare_s += t;

        let mut e = c.build(shape);
        let levels = e.as_dyn().num_levels();
        e.obs_mut().enable(levels, RING_CAPACITY);
        let (_, t) = spans.time("obs", || simulate(e.as_dyn(), &p.full, warm));
        sums.obs_s += t;
        let obs = e.obs_mut();
        obs.finish();
        if let Some(rec) = obs.recorder() {
            sums.events += rec.log().len() as u64 + rec.log().dropped();
            sums.events_dropped += rec.log().dropped();
            sums.accesses += rec.metrics().counter(CounterId::Accesses);
            sums.rpcs += rec.metrics().counter(CounterId::Rpcs);
            sums.span_cost.merge(rec.metrics().hist(HistId::SpanCost));
        }

        if c.scheme.protocol() == Protocol::Ulc {
            let mut e = c.build(shape);
            let plan = ReplayPlan::build(&p.full);
            let (hits, _) = spans.time("private hits", || {
                private_l0_hits(&mut e, &p.full, &plan, warm)
            });
            sums.private_hits += hits;
            sums.ulc_steady_refs += p.steady.len() as u64;

            match shape {
                Shape::Single { per_level } => {
                    let (_, t) = spans.time("stack", || {
                        let mut stack = UniLruStack::new(vec![per_level; 3]);
                        let mut scratch = AccessScratch::new();
                        for rec in p.full.iter() {
                            black_box(stack.access_into(rec.block, &mut scratch));
                        }
                    });
                    sums.stack_s += t;
                    sums.stack_ulc_s += t_dyn;
                }
                Shape::Multi {
                    clients,
                    client_blocks,
                    server_blocks,
                } => {
                    let caps = vec![client_blocks; clients];
                    let (reliable, t_rel) = spans.time("reliable", || {
                        simulate(&mut ulc_multi(caps.clone(), server_blocks), &p.full, warm)
                    });
                    let zero = FaultyPlane::new(FaultScenario::zero(r.options.seed));
                    let mut f0 = ulc_multi(caps.clone(), server_blocks).with_plane(zero);
                    let (faulty0, t_f0) =
                        spans.time("faulty0", || simulate(&mut f0, &p.full, warm));
                    sums.reliable_s += t_rel;
                    sums.faulty0_s += t_f0;
                    if faulty0 != reliable {
                        failures.push((
                            r.labels[i].clone(),
                            "zero-fault plane differs from reliable".into(),
                        ));
                    }
                    if c.faulty {
                        sums.mild_s += t_dyn;
                    }
                }
            }

            if let Some((caps, server_blocks)) = sharded_caps(c, shape) {
                let serial = &r.stats[i];
                let mut sharded_run = |shards: usize, spans: &mut Spans| {
                    let mut replayer = ShardedReplayer::new(&p.full, shards);
                    let mut policy = ulc_multi(caps.clone(), server_blocks);
                    let (stats, t) = spans.time(&format!("sharded{shards}"), || {
                        replayer.replay(&mut policy, &p.full, warm)
                    });
                    if stats != *serial {
                        failures.push((
                            r.labels[i].clone(),
                            format!("sharded replay ({shards} threads) differs from serial"),
                        ));
                    }
                    t
                };
                sums.sh1_s += sharded_run(1, spans);
                sums.sh2_s += sharded_run(2, spans);
                sums.serial_s += t_mono;
            }
        }
        spans.exit();
    }

    (metrics(r, &sums), failures)
}

/// `access_into` over the whole trace with no prefetch hints and no
/// statistics: what `simulate` adds on top of the protocol step.
fn bare_loop(policy: &mut dyn MultiLevelPolicy, trace: &Trace) {
    let mut out = AccessOutcome::miss(policy.num_levels().saturating_sub(1));
    for rec in trace.iter() {
        policy.access_into(rec.client, rec.block, &mut out);
    }
    black_box(&out);
}

/// Steady-phase L0 hits on statically exclusive blocks.
fn private_l0_hits(e: &mut Engine, trace: &Trace, plan: &ReplayPlan, warm: usize) -> u64 {
    let policy = e.as_dyn();
    let mut out = AccessOutcome::miss(policy.num_levels().saturating_sub(1));
    let mut hits = 0;
    for (i, rec) in trace.iter().enumerate() {
        policy.access_into(rec.client, rec.block, &mut out);
        if i >= warm && out.hit_level == Some(0) && plan.is_exclusive(i) {
            hits += 1;
        }
    }
    hits
}

/// Hit fractions per level and demotions per reference per boundary,
/// over the first timed run of every cell of `proto`.
fn level_fracs(r: &Report, proto: Protocol) -> ([f64; 3], [f64; 2]) {
    let mut refs = 0u64;
    let mut hits = [0u64; 3];
    let mut dem = [0u64; 2];
    for (c, s) in r.cells.iter().zip(&r.stats) {
        if c.scheme.protocol() != proto {
            continue;
        }
        refs += s.references;
        for (h, &x) in hits.iter_mut().zip(&s.hits_by_level) {
            *h += x;
        }
        for (d, &x) in dem.iter_mut().zip(&s.demotions_by_boundary) {
            *d += x;
        }
    }
    let f = |x: u64| ratio(x as f64, refs as f64);
    (hits.map(f), dem.map(f))
}

fn metrics(r: &Report, s: &Sums) -> Vec<(String, f64)> {
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| m.push((name.to_string(), v));

    // trace
    let kinds: Vec<_> = r.traces.iter().map(|p| p.kind).collect();
    let reps = r.gen_s.first().map_or(0, Vec::len);
    let totals: Vec<f64> = (0..reps)
        .map(|k| r.gen_s.iter().map(|g| g[k]).sum())
        .collect();
    put("trace.gen_s", median(&totals));
    for t in ALL_TRACES {
        let v = kinds
            .iter()
            .position(|&k| k == t)
            .map_or(0.0, |i| median(&r.gen_s[i]));
        put(&format!("trace.gen_s.{}", t.name()), v);
    }
    let refs_all: usize = r.traces.iter().map(|p| p.full.len()).sum();
    put(
        "trace.footprint_blocks",
        r.traces
            .iter()
            .map(|p| p.full.unique_blocks())
            .sum::<usize>() as f64,
    );
    let exclusive: f64 = r
        .traces
        .iter()
        .map(|p| ReplayPlan::build(&p.full).exclusive_fraction() * p.full.len() as f64)
        .sum();
    put(
        "trace.exclusive_ref_frac",
        ratio(exclusive, refs_all as f64),
    );

    // cache
    put(
        "cache.lru_ns_per_ref",
        ratio(s.lru_s * 1e9, s.lru_refs as f64),
    );

    // hierarchy
    put("hierarchy.simulate.dyn_over_mono", ratio(s.mono_s, s.dyn_s));
    put("hierarchy.simulate.over_bare", ratio(s.bare_s, s.dyn_s));
    let (mut warm_refs, mut steady_refs) = (0usize, 0usize);
    for c in &r.cells {
        warm_refs += r.traces[c.trace].warm.len();
        steady_refs += r.traces[c.trace].steady.len();
    }
    let warm_over_steady: Vec<f64> = r
        .rounds
        .iter()
        .map(|round| {
            let w: f64 = round.iter().map(|t| t.warm_s).sum();
            let st: f64 = round.iter().map(|t| t.steady_s).sum();
            ratio(ratio(warm_refs as f64, w), ratio(steady_refs as f64, st))
        })
        .collect();
    put(
        "hierarchy.simulate.warmup_over_steady",
        median(&warm_over_steady),
    );
    for (proto, name) in [
        (Protocol::UniLru, "unilru"),
        (Protocol::IndLru, "indlru"),
        (Protocol::Mq, "mq"),
    ] {
        let (hits, dem) = level_fracs(r, proto);
        for (l, h) in hits.iter().enumerate() {
            put(&format!("hierarchy.{name}.hit_frac.l{l}"), *h);
        }
        for (b, d) in dem.iter().enumerate() {
            put(&format!("hierarchy.{name}.demotions_per_ref.b{b}"), *d);
        }
    }
    let mut run_refs = 0u64;
    let mut f = FaultSummary::default();
    let mut ulc_refs = 0u64;
    let mut ulc_f = FaultSummary::default();
    for (c, st) in r.cells.iter().zip(&r.stats) {
        let n = r.traces[c.trace].full.len() as u64;
        run_refs += n;
        add_faults(&mut f, &st.faults);
        if c.scheme.protocol() == Protocol::Ulc {
            ulc_refs += n;
            add_faults(&mut ulc_f, &st.faults);
        }
    }
    let per_ref = |x: u64| ratio(x as f64, run_refs as f64);
    put("hierarchy.plane.msgs_per_ref", per_ref(f.messages_sent));
    put(
        "hierarchy.plane.batches_per_ref",
        per_ref(f.delivery_batches),
    );
    put(
        "hierarchy.plane.faulty0_over_reliable",
        ratio(s.reliable_s, s.faulty0_s),
    );
    put(
        "hierarchy.plane.drop_frac",
        ratio(f.messages_dropped as f64, f.messages_sent as f64),
    );
    put(
        "hierarchy.plane.reorder_frac",
        ratio(f.messages_reordered as f64, f.messages_delivered as f64),
    );
    put(
        "hierarchy.plane.rpc_failures_per_kref",
        1e3 * per_ref(f.rpc_failures),
    );

    // core
    let (hits, dem) = level_fracs(r, Protocol::Ulc);
    for (l, h) in hits.iter().enumerate() {
        put(&format!("core.ulc.hit_frac.l{l}"), *h);
    }
    for (b, d) in dem.iter().enumerate() {
        put(&format!("core.ulc.demotions_per_ref.b{b}"), *d);
    }
    put(
        "core.ulc.l0_private_hit_frac",
        ratio(s.private_hits as f64, s.ulc_steady_refs as f64),
    );
    put("core.stack.share", ratio(s.stack_s, s.stack_ulc_s));
    put(
        "core.ulc.recovery_over_faulty0",
        if s.mild_s > 0.0 {
            ratio(s.faulty0_s, s.mild_s)
        } else {
            0.0
        },
    );
    let per_kref = |x: u64| 1e3 * ratio(x as f64, ulc_refs as f64);
    put(
        "core.ulc.reconcile_rounds_per_kref",
        per_kref(ulc_f.reconciliation_rounds),
    );
    put(
        "core.ulc.stale_status_per_kref",
        per_kref(ulc_f.stale_status_hits),
    );
    put("core.parallel.sh1_over_serial", ratio(s.serial_s, s.sh1_s));
    put("core.parallel.sh2_over_sh1", ratio(s.sh1_s, s.sh2_s));

    // obs
    put("obs.overhead", ratio(s.obs_s, s.dyn_s));
    put(
        "obs.events_per_ref",
        ratio(s.events as f64, s.accesses as f64),
    );
    put(
        "obs.events_dropped_frac",
        ratio(s.events_dropped as f64, s.events as f64),
    );
    put("obs.rpcs_per_ref", ratio(s.rpcs as f64, s.accesses as f64));
    put("obs.span_cost.p50", percentile(&s.span_cost, 50));
    put("obs.span_cost.p99", percentile(&s.span_cost, 99));

    // alloc (first timed round)
    let first = &r.rounds[0];
    let warm_allocs: u64 = first.iter().map(|t| t.warm_allocs).sum();
    let steady_allocs: u64 = first.iter().map(|t| t.steady_allocs).sum();
    put(
        "alloc.warmup_per_ref",
        ratio(warm_allocs as f64, warm_refs as f64),
    );
    put(
        "alloc.steady_per_ref",
        ratio(steady_allocs as f64, steady_refs as f64),
    );
    put("bench.control_ns_per_op", r.control_ns_per_op());
    m
}

fn add_faults(acc: &mut FaultSummary, f: &FaultSummary) {
    acc.messages_sent += f.messages_sent;
    acc.messages_delivered += f.messages_delivered;
    acc.messages_dropped += f.messages_dropped;
    acc.messages_reordered += f.messages_reordered;
    acc.rpc_failures += f.rpc_failures;
    acc.reconciliation_rounds += f.reconciliation_rounds;
    acc.stale_status_hits += f.stale_status_hits;
    acc.delivery_batches += f.delivery_batches;
}
