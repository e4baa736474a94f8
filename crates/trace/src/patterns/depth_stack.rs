//! The stack-depth sampler shared by the clustered generators.
//!
//! Both [`super::TemporalPattern`] and [`super::WorkingSetDriftPattern`]
//! produce LRU-friendly streams the same way: keep an LRU stack of ids,
//! draw a depth biased toward the top, reference the id found there and
//! move it to the front. [`DepthStack`] is that step, on an O(log n)
//! indexed recency list instead of an O(n) `Vec` splice.

use crate::TruncatedGeometric;
use rand::Rng;
use ulc_cache::RecencyList;

/// An LRU stack over ids `0..n`, seeded in id order (id 0 on top), that
/// serves truncated-geometric stack depths.
///
/// Each [`DepthStack::next`] costs O(log n) and makes one depth draw. The
/// ids it returns are those of a `Vec` stack seeded with
/// `(0..n).collect()` that answers each draw with `remove(depth)` and
/// `insert(0, id)`; `tests/generator_oracle.rs` holds it to that.
#[derive(Clone, Debug)]
pub(crate) struct DepthStack {
    /// Ids ordered by recency; rank 0 is most recent.
    stack: RecencyList,
    depth: TruncatedGeometric,
}

impl DepthStack {
    /// A stack over ids `0..n` with depth decay `q`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `q` is outside `(0, 1)`.
    pub(crate) fn new(n: usize, q: f64) -> Self {
        let depth = TruncatedGeometric::new(n, q);
        let mut stack = RecencyList::new(n);
        for id in (0..n).rev() {
            stack.move_to_front(id);
        }
        DepthStack { stack, depth }
    }

    /// Replaces the depth decay, keeping the current stack order.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1)`.
    pub(crate) fn set_decay(&mut self, q: f64) {
        self.depth = TruncatedGeometric::new(self.stack.len(), q);
    }

    /// Draws a depth, moves the id found there to the front and returns it.
    pub(crate) fn next<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        let depth = self.depth.sample(rng);
        let id = self.stack.select(depth).expect("depth within stack");
        self.stack.move_to_front(id);
        id
    }
}
