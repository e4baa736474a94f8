//! Drifting working-set pattern (`dev1`-like desktop workload).
//!
//! The paper's `dev1` trace is 15 days of desktop use — editor, compiler,
//! IDE, browser, email — over a 600 MB data set with only ~100 K references
//! (§4.2). The defining property is a modest, temporally clustered working
//! set that *drifts* across a much larger universe as the user switches
//! activities, plus occasional sequential bursts (builds, file copies).
//!
//! In-window references come from a stack-depth sampler over the window's
//! offsets, the same step as [`super::TemporalPattern`]: draw a depth
//! biased toward the top, reference the offset found there and move it to
//! the front. On the shared `DepthStack` each step is O(log window);
//! drift and bursts are O(1).

use super::depth_stack::DepthStack;
use super::Pattern;
use crate::{seeded_rng, BlockId};
use rand::rngs::StdRng;
use rand::Rng;

/// Temporally clustered references inside a window that slowly slides over
/// a large block universe, with occasional sequential bursts.
///
/// Each reference costs O(log window): the in-window recency stack is an
/// indexed list, so the sampled depth is found and moved to the front
/// without shifting the rest of the window.
///
/// # Examples
///
/// ```
/// use ulc_trace::patterns::{Pattern, WorkingSetDriftPattern};
///
/// let mut p = WorkingSetDriftPattern::new(10_000, 500, 13);
/// assert!(p.next_block().raw() < 10_000);
/// ```
#[derive(Clone, Debug)]
pub struct WorkingSetDriftPattern {
    universe: u64,
    window: u64,
    window_start: u64,
    /// Recency stack *within* the window (block offsets relative to start),
    /// with the depth sampler.
    stack: DepthStack,
    /// Remaining length of an in-progress sequential burst, and its cursor.
    burst: Option<(u64, u64)>,
    /// Probability of starting a burst at any reference.
    burst_prob: f64,
    /// Probability of the window drifting by one block at any reference.
    drift_prob: f64,
    rng: StdRng,
}

impl WorkingSetDriftPattern {
    /// A working set of `window` blocks drifting over `universe` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or larger than `universe`.
    pub fn new(universe: u64, window: u64, seed: u64) -> Self {
        assert!(window > 0, "working set must be non-empty");
        assert!(window <= universe, "working set must fit in the universe");
        WorkingSetDriftPattern {
            universe,
            window,
            window_start: 0,
            stack: DepthStack::new(window as usize, 0.97),
            burst: None,
            burst_prob: 0.002,
            drift_prob: 0.02,
            rng: seeded_rng(seed),
        }
    }

    /// Overrides the burst and drift probabilities.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    #[must_use]
    pub fn with_rates(mut self, burst_prob: f64, drift_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&burst_prob), "probability range");
        assert!((0.0..=1.0).contains(&drift_prob), "probability range");
        self.burst_prob = burst_prob;
        self.drift_prob = drift_prob;
        self
    }

    /// Overrides the in-window stack-depth decay `q` (default 0.97).
    /// Values close to 1 flatten the distribution, spreading re-references
    /// across the whole window.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1)`.
    #[must_use]
    pub fn with_depth_decay(mut self, q: f64) -> Self {
        self.stack.set_decay(q);
        self
    }

    /// Size of the whole block universe.
    pub fn footprint(&self) -> u64 {
        self.universe
    }
}

impl Pattern for WorkingSetDriftPattern {
    fn next_block(&mut self) -> BlockId {
        // Continue an in-progress sequential burst first.
        if let Some((remaining, cursor)) = self.burst.take() {
            if remaining > 1 {
                self.burst = Some((remaining - 1, cursor + 1));
            }
            return BlockId::new(cursor % self.universe);
        }
        // Maybe start a burst somewhere random in the universe.
        if self.rng.gen::<f64>() < self.burst_prob {
            let len = self.rng.gen_range(32..256u64);
            let start = self.rng.gen_range(0..self.universe);
            self.burst = Some((len - 1, start + 1));
            return BlockId::new(start % self.universe);
        }
        // Maybe drift the window forward by a step.
        if self.rng.gen::<f64>() < self.drift_prob {
            let step = self.rng.gen_range(1..=self.window / 8 + 1);
            self.window_start = (self.window_start + step) % self.universe;
        }
        // Clustered access within the window.
        let offset = self.stack.next(&mut self.rng) as u64;
        BlockId::new((self.window_start + offset) % self.universe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_in_universe() {
        let mut p = WorkingSetDriftPattern::new(1000, 100, 1);
        for _ in 0..10_000 {
            assert!(p.next_block().raw() < 1000);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = WorkingSetDriftPattern::new(5000, 200, 3).generate(2000);
        let b = WorkingSetDriftPattern::new(5000, 200, 3).generate(2000);
        assert_eq!(a, b);
    }

    #[test]
    fn drift_covers_more_than_the_initial_window() {
        let t = WorkingSetDriftPattern::new(50_000, 500, 5).generate(100_000);
        assert!(
            t.unique_blocks() > 1000,
            "unique = {}: window should drift",
            t.unique_blocks()
        );
    }

    #[test]
    fn without_drift_or_bursts_stays_in_window() {
        let mut p = WorkingSetDriftPattern::new(1000, 50, 7).with_rates(0.0, 0.0);
        for _ in 0..5000 {
            assert!(p.next_block().raw() < 50);
        }
    }

    #[test]
    fn bursts_produce_sequential_runs() {
        let mut p = WorkingSetDriftPattern::new(100_000, 100, 11).with_rates(1.0, 0.0);
        // With burst_prob = 1 the first reference starts a burst.
        let a = p.next_block().raw();
        let b = p.next_block().raw();
        assert_eq!(b, (a + 1) % 100_000);
    }
}
