//! Differential oracle for the stack-depth generators.
//!
//! `TemporalPattern` and `WorkingSetDriftPattern` keep their recency stack
//! on an O(log n) indexed list. The models below are the original `Vec`
//! stacks — `remove(depth)` then `insert(0, id)` — with the depth sampler
//! written out inline (normaliser and logarithm recomputed per draw).
//! Driven from one seed, model and generator must emit the same blocks.
//! Streams run well past twice the stack size, so the indexed list
//! exhausts and rebuilds its slot space several times mid-stream.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use ulc_trace::patterns::{Pattern, TemporalPattern, WorkingSetDriftPattern};
use ulc_trace::seeded_rng;

/// The truncated-geometric depth draw over `0..n` with decay `q`.
fn depth(rng: &mut StdRng, n: usize, q: f64) -> usize {
    let u: f64 = rng.gen();
    let scale = 1.0 - q.powi(n as i32);
    let d = ((1.0 - u * scale).ln() / q.ln()).floor() as usize;
    d.min(n - 1)
}

/// The `Vec`-stack drifting working-set generator.
struct VecDrift {
    universe: u64,
    window: u64,
    window_start: u64,
    stack: Vec<u64>,
    q: f64,
    burst: Option<(u64, u64)>,
    burst_prob: f64,
    drift_prob: f64,
    rng: StdRng,
}

impl VecDrift {
    fn next(&mut self) -> u64 {
        if let Some((remaining, cursor)) = self.burst.take() {
            if remaining > 1 {
                self.burst = Some((remaining - 1, cursor + 1));
            }
            return cursor % self.universe;
        }
        if self.rng.gen::<f64>() < self.burst_prob {
            let len = self.rng.gen_range(32..256u64);
            let start = self.rng.gen_range(0..self.universe);
            self.burst = Some((len - 1, start + 1));
            return start % self.universe;
        }
        if self.rng.gen::<f64>() < self.drift_prob {
            let step = self.rng.gen_range(1..=self.window / 8 + 1);
            self.window_start = (self.window_start + step) % self.universe;
        }
        let d = depth(&mut self.rng, self.stack.len(), self.q);
        let offset = self.stack.remove(d);
        self.stack.insert(0, offset);
        (self.window_start + offset) % self.universe
    }
}

/// The `Vec`-stack temporally clustered generator.
struct VecTemporal {
    stack: Vec<u64>,
    q: f64,
    base: u64,
    rng: StdRng,
}

impl VecTemporal {
    fn next(&mut self) -> u64 {
        let d = depth(&mut self.rng, self.stack.len(), self.q);
        let block = self.stack.remove(d);
        self.stack.insert(0, block);
        self.base + block
    }
}

/// A strategy that always yields `v`.
fn just(v: f64) -> impl Strategy<Value = f64> {
    (0u8..1).prop_map(move |_| v)
}

/// A probability that is 0, 1 or anything between, with the edges common.
fn rate() -> impl Strategy<Value = f64> {
    prop_oneof![just(0.0), just(1.0), 0.0..1.0f64]
}

/// A window over `universe` blocks: 1, the whole universe, or any size
/// between, each a third of the time.
fn window_of(universe: u64, pick: u8, raw: u64) -> u64 {
    match pick {
        0 => 1,
        1 => universe,
        _ => 1 + raw % universe,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn drift_matches_the_vec_stack_model(
        universe in 1u64..400,
        window_pick in 0u8..3,
        window_raw in any::<u64>(),
        q in 0.01..0.999f64,
        burst_prob in rate(),
        drift_prob in rate(),
        seed in any::<u64>(),
        extra in 0usize..2_000,
    ) {
        let window = window_of(universe, window_pick, window_raw);
        let mut model = VecDrift {
            universe,
            window,
            window_start: 0,
            stack: (0..window).collect(),
            q,
            burst: None,
            burst_prob,
            drift_prob,
            rng: seeded_rng(seed),
        };
        let mut p = WorkingSetDriftPattern::new(universe, window, seed)
            .with_rates(burst_prob, drift_prob)
            .with_depth_decay(q);
        // Slot space is 2·max(window, 16) and rebuilds to 4·window, so
        // once most references land in the window (low burst rate),
        // 8·window + 64 of them rebuild the list at least twice.
        for i in 0..8 * window as usize + 64 + extra {
            prop_assert_eq!(p.next_block().raw(), model.next(), "reference {}", i);
        }
    }

    #[test]
    fn temporal_matches_the_vec_stack_model(
        n in prop_oneof![1u64..2, 1u64..400],
        q in 0.01..0.999f64,
        base in 0u64..1_000_000,
        seed in any::<u64>(),
        extra in 0usize..2_000,
    ) {
        let mut model = VecTemporal {
            stack: (0..n).collect(),
            q,
            base,
            rng: seeded_rng(seed),
        };
        let mut p = TemporalPattern::new(n, q, seed).with_base(base);
        for i in 0..8 * n as usize + 64 + extra {
            prop_assert_eq!(p.next_block().raw(), model.next(), "reference {}", i);
        }
    }
}
