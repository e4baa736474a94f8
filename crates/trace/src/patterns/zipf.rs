//! Zipf-like access pattern (the paper's `zipf` trace).
//!
//! "In trace zipf only a few blocks are frequently accessed. Formally, the
//! probability of a reference to the *i*th block is proportional to 1/i.
//! Zipf-like access patterns … are typical for file references in Web
//! servers" (§2.2).

use super::Pattern;
use crate::{seeded_rng, BlockId, Zipf};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Draws blocks from a Zipf distribution over `0..n`.
///
/// By default rank `r` maps to block id `r` (block 0 hottest). With
/// [`ZipfPattern::scrambled`] the rank→block mapping is a seeded random
/// permutation, so popularity is not correlated with id order — closer to a
/// real web-server file set.
///
/// # Examples
///
/// ```
/// use ulc_trace::patterns::{Pattern, ZipfPattern};
///
/// let mut p = ZipfPattern::new(1000, 1.0, 7);
/// assert!(p.next_block().raw() < 1000);
/// ```
#[derive(Clone, Debug)]
pub struct ZipfPattern {
    dist: Zipf,
    mapping: Option<Vec<u64>>,
    base: u64,
    rng: StdRng,
}

impl ZipfPattern {
    /// Zipf(θ = `theta`) references over blocks `0..n`, seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is negative or non-finite.
    pub fn new(n: u64, theta: f64, seed: u64) -> Self {
        ZipfPattern {
            dist: Zipf::new(n as usize, theta),
            mapping: None,
            base: 0,
            rng: seeded_rng(seed),
        }
    }

    /// Scrambles the rank→block mapping with a seeded permutation.
    #[must_use]
    pub fn scrambled(mut self, seed: u64) -> Self {
        let mut mapping: Vec<u64> = (0..self.dist.len() as u64).collect();
        mapping.shuffle(&mut seeded_rng(seed));
        self.mapping = Some(mapping);
        self
    }

    /// Offsets every generated block id by `base`.
    #[must_use]
    pub fn with_base(mut self, base: u64) -> Self {
        self.base = base;
        self
    }

    /// Number of distinct blocks that can be referenced.
    pub fn footprint(&self) -> u64 {
        self.dist.len() as u64
    }
}

impl Pattern for ZipfPattern {
    fn next_block(&mut self) -> BlockId {
        let rank = self.dist.sample(&mut self.rng);
        let id = match &self.mapping {
            Some(m) => m[rank],
            None => rank as u64,
        };
        BlockId::new(self.base + id)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests assert over whole count tables; order cannot leak"
)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_under_seed() {
        let a = ZipfPattern::new(500, 1.0, 3).generate(100);
        let b = ZipfPattern::new(500, 1.0, 3).generate(100);
        assert_eq!(a, b);
    }

    #[test]
    fn head_dominates_tail() {
        let t = ZipfPattern::new(10_000, 1.0, 5).generate(50_000);
        let head = t.iter().filter(|r| r.block.raw() < 100).count();
        let tail = t.iter().filter(|r| r.block.raw() >= 5_000).count();
        assert!(
            head > 5 * tail,
            "head = {head}, tail = {tail}: Zipf head should dominate"
        );
    }

    #[test]
    fn scrambled_preserves_footprint_and_skew() {
        let mut p = ZipfPattern::new(1000, 1.0, 5).scrambled(6);
        let t = p.generate(50_000);
        let mut counts = std::collections::HashMap::new();
        for r in &t {
            assert!(r.block.raw() < 1000);
            *counts.entry(r.block).or_insert(0usize) += 1;
        }
        // The hottest block still receives ~ 1/H(1000) ~ 13% of references.
        let max = *counts.values().max().unwrap();
        assert!(max > 50_000 / 20, "max = {max}");
    }

    #[test]
    fn scrambled_moves_the_hot_block() {
        // With very high skew almost all references hit the hottest block;
        // the scramble should (with overwhelming probability for this seed)
        // move it away from id 0.
        let mut p = ZipfPattern::new(1000, 3.0, 1).scrambled(99);
        let t = p.generate(1000);
        let zero_hits = t.iter().filter(|r| r.block.raw() == 0).count();
        assert!(zero_hits < 100);
    }
}
