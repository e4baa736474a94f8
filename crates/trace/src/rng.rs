//! Deterministic random sampling helpers for workload generation.
//!
//! Every synthetic workload in this workspace is seeded, so a given trace
//! constructor always produces the same reference stream. This module also
//! hosts the in-repo Zipf sampler (the paper's `zipf` trace references block
//! `i` with probability proportional to `1/i`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates the deterministic RNG used by all generators in this crate.
///
/// # Examples
///
/// ```
/// use rand::Rng;
/// let mut a = ulc_trace::seeded_rng(42);
/// let mut b = ulc_trace::seeded_rng(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples ranks `0..n` with probability proportional to `1/(rank+1)^theta`.
///
/// Sampling is inverse-CDF over a precomputed cumulative table, O(log n) per
/// draw. `theta = 1.0` gives the classic Zipf distribution used by the
/// paper's `zipf` trace, "typical for file references in Web servers".
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let zipf = ulc_trace::Zipf::new(100, 1.0);
/// let mut rng = ulc_trace::seeded_rng(1);
/// let r = zipf.sample(&mut rng);
/// assert!(r < 100);
/// ```
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        assert!(
            theta >= 0.0 && theta.is_finite(),
            "Zipf exponent must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating point drift: the last entry must be 1.0 so
        // every uniform draw lands inside the table.
        *cdf.last_mut().expect("non-empty cdf") = 1.0;
        Zipf { cdf }
    }

    /// Returns the number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if the sampler has exactly one rank (degenerate).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws one rank in `0..self.len()`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Returns the probability mass of `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }
}

/// Samples a geometric-like stack depth in `0..n`: depth `d` has weight
/// `q^d`. Used by the temporally-clustered (LRU-friendly, `sprite`-like)
/// generator where recently used blocks are most likely to be reused.
///
/// The sample is produced by inverse transform on the truncated geometric
/// distribution, O(1) per draw.
///
/// # Examples
///
/// ```
/// let g = ulc_trace::TruncatedGeometric::new(100, 0.9);
/// let mut rng = ulc_trace::seeded_rng(1);
/// assert!(g.sample(&mut rng) < 100);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct TruncatedGeometric {
    n: usize,
    /// `1 - q^n`: the CDF's normaliser.
    scale: f64,
    /// `ln q`.
    ln_q: f64,
}

impl TruncatedGeometric {
    /// Builds a sampler over depths `0..n` with decay `q` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `q` is outside `(0, 1)`.
    pub fn new(n: usize, q: f64) -> Self {
        assert!(n > 0, "support must be non-empty");
        assert!(q > 0.0 && q < 1.0, "decay must lie in (0, 1)");
        // `powi` for every `n` it can take, so draws stay bit-identical;
        // beyond `i32::MAX` an `as i32` cast would wrap negative.
        let q_pow_n = match i32::try_from(n) {
            Ok(exp) => q.powi(exp),
            Err(_) => q.powf(n as f64),
        };
        TruncatedGeometric {
            n,
            scale: 1.0 - q_pow_n,
            ln_q: q.ln(),
        }
    }

    /// Draws one depth in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        // CDF(d) = (1 - q^(d+1)) / (1 - q^n); invert for uniform u.
        let u: f64 = rng.gen();
        let d = ((1.0 - u * self.scale).ln() / self.ln_q).floor() as usize;
        d.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_under_seed() {
        let z = Zipf::new(1000, 1.0);
        let a: Vec<usize> = {
            let mut rng = seeded_rng(7);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = seeded_rng(7);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn zipf_rank_zero_is_hottest() {
        let z = Zipf::new(100, 1.0);
        let mut rng = seeded_rng(11);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let hottest = counts[0];
        assert!(hottest > counts[10]);
        assert!(hottest > counts[99]);
        // 1/H(100) ~ 0.19; allow broad tolerance.
        let p0 = hottest as f64 / 20_000.0;
        assert!((0.12..0.27).contains(&p0), "p0 = {p0}");
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(50, 0.8);
        let sum: f64 = (0..50).map(|r| z.pmf(r)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for r in 0..4 {
            assert!((z.pmf(r) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_samples_stay_in_range() {
        let z = Zipf::new(3, 2.0);
        let mut rng = seeded_rng(3);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zipf_rejects_empty_support() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn geometric_prefers_small_depths() {
        let g = TruncatedGeometric::new(100, 0.9);
        let mut rng = seeded_rng(5);
        let mut small = 0usize;
        let n = 10_000;
        for _ in 0..n {
            if g.sample(&mut rng) < 10 {
                small += 1;
            }
        }
        // P(depth < 10) = (1 - 0.9^10)/(1 - 0.9^100) ~ 0.65.
        let frac = small as f64 / n as f64;
        assert!((0.55..0.75).contains(&frac), "frac = {frac}");
    }

    #[test]
    fn geometric_support_beyond_i32_keeps_its_shape() {
        // Cast `as i32`, this `n` wraps negative: `q^n` turns infinite
        // and every draw collapses to depth 0.
        let n = i32::MAX as usize + 2;
        let g = TruncatedGeometric::new(n, 0.5);
        assert!(g.scale.is_finite() && g.scale > 0.0, "scale = {}", g.scale);
        let mut rng = seeded_rng(13);
        let draws = 10_000;
        let deep = (0..draws).filter(|_| g.sample(&mut rng) >= 1).count();
        // P(depth >= 1) = q = 0.5.
        let frac = deep as f64 / draws as f64;
        assert!((0.45..0.55).contains(&frac), "frac = {frac}");
    }

    #[test]
    fn geometric_samples_stay_in_range() {
        let g = TruncatedGeometric::new(5, 0.5);
        let mut rng = seeded_rng(9);
        for _ in 0..1000 {
            assert!(g.sample(&mut rng) < 5);
        }
    }
}
