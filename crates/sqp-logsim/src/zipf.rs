//! Discrete sampling: Zipf ranks and arbitrary weighted choices.
//!
//! Query and intent popularity on the web is famously Zipfian; the simulator
//! uses a table-based inverse-CDF sampler (exact, O(log n) per draw) rather
//! than approximate rejection schemes, because vocabulary sizes here are at
//! most a few tens of thousands.

use sqp_common::rng::Rng;

/// Sampler over `{0, …, n-1}` from a cumulative distribution table.
#[derive(Clone, Debug)]
pub(crate) struct CumulativeSampler {
    cum: Vec<f64>,
}

impl CumulativeSampler {
    /// Build from unnormalized non-negative weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty or sums to zero.
    pub(crate) fn from_weights(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "empty weight vector");
        let mut cum = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "invalid weight {w}");
            acc += w;
            cum.push(acc);
        }
        assert!(acc > 0.0, "weights sum to zero");
        // Normalize so the last entry is exactly 1.0.
        for c in &mut cum {
            *c /= acc;
        }
        *cum.last_mut().unwrap() = 1.0;
        Self { cum }
    }

    /// Zipf(θ) over `n` ranks: weight of rank r (0-based) ∝ 1/(r+1)^θ.
    pub(crate) fn zipf(n: usize, theta: f64) -> Self {
        assert!(n > 0);
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-theta)).collect();
        Self::from_weights(&weights)
    }

    /// Draw one outcome index.
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random::<f64>();
        self.index_of(u)
    }

    /// Outcome whose CDF interval contains `u` ∈ [0,1).
    pub(crate) fn index_of(&self, u: f64) -> usize {
        match self
            .cum
            .binary_search_by(|c| c.partial_cmp(&u).expect("NaN in CDF"))
        {
            Ok(i) => (i + 1).min(self.cum.len() - 1),
            Err(i) => i.min(self.cum.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_common::rng::StdRng;

    /// The mass the sampler gives outcome `i`: one step of its CDF.
    pub(super) fn mass(s: &CumulativeSampler, i: usize) -> f64 {
        s.cum[i] - if i == 0 { 0.0 } else { s.cum[i - 1] }
    }

    #[test]
    fn respects_weights_roughly() {
        let s = CumulativeSampler::from_weights(&[1.0, 3.0]);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 2];
        for _ in 0..20_000 {
            counts[s.sample(&mut rng)] += 1;
        }
        let frac = counts[1] as f64 / 20_000.0;
        assert!((frac - 0.75).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn zipf_is_monotone_decreasing() {
        let s = CumulativeSampler::zipf(100, 1.0);
        for i in 1..100 {
            assert!(mass(&s, i) <= mass(&s, i - 1) + 1e-15);
        }
    }

    #[test]
    fn zipf_head_mass() {
        // For n = 1000, θ = 1.0, rank 1 has mass 1/H_1000 ≈ 0.1338.
        let s = CumulativeSampler::zipf(1000, 1.0);
        let h: f64 = (1..=1000).map(|r| 1.0 / r as f64).sum();
        assert!((mass(&s, 0) - 1.0 / h).abs() < 1e-12);
    }

    #[test]
    fn index_of_boundaries() {
        let s = CumulativeSampler::from_weights(&[1.0, 1.0]);
        assert_eq!(s.index_of(0.0), 0);
        assert_eq!(s.index_of(0.49), 0);
        assert_eq!(s.index_of(0.51), 1);
        assert_eq!(s.index_of(0.9999999), 1);
    }

    #[test]
    fn single_outcome_always_zero() {
        let s = CumulativeSampler::from_weights(&[5.0]);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "weights sum to zero")]
    fn zero_weights_panic() {
        CumulativeSampler::from_weights(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "empty weight vector")]
    fn empty_weights_panic() {
        CumulativeSampler::from_weights(&[]);
    }

    #[test]
    fn deterministic_given_seed() {
        let s = CumulativeSampler::zipf(50, 1.2);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..20).map(|_| s.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(99), draw(99));
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::tests::mass;
    use super::*;
    use sqp_common::rng::StdRng;

    fn rand_weights(rng: &mut StdRng) -> Vec<f64> {
        let n = rng.random_range(1usize..40);
        (0..n).map(|_| 0.01 + rng.random::<f64>() * 9.99).collect()
    }

    #[test]
    fn probabilities_sum_to_one() {
        for case in 0..128u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let s = CumulativeSampler::from_weights(&rand_weights(&mut rng));
            let sum: f64 = (0..s.cum.len()).map(|i| mass(&s, i)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "case {case}");
        }
    }

    #[test]
    fn index_always_in_range() {
        for case in 0..128u64 {
            let mut rng = StdRng::seed_from_u64(300 + case);
            let s = CumulativeSampler::from_weights(&rand_weights(&mut rng));
            for _ in 0..16 {
                let u: f64 = rng.random();
                assert!(s.index_of(u) < s.cum.len(), "case {case}");
            }
        }
    }
}
