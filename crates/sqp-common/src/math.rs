//! Base-10 information-theoretic helpers.
//!
//! Footnote 2 of the paper: *"log base 10 is adopted through the paper"*. All
//! entropies, KL divergences and log-losses in this workspace therefore use
//! `log10`, which is what makes the published toy-example numbers (e.g.
//! D_KL = 0.3449) reproducible to four decimals.

/// Shannon entropy in base 10 of a (possibly unnormalized) positive weight
/// vector. Zero-weight entries are skipped (0·log 0 ≡ 0).
///
/// Returns 0 for empty or single-outcome distributions.
pub(crate) fn entropy_base10(weights: &[f64]) -> f64 {
    let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0;
    for &w in weights {
        if w > 0.0 {
            let p = w / total;
            h -= p * p.log10();
        }
    }
    h
}

/// Entropy (base 10) of integer counts, convenience for counting maps.
pub fn entropy_of_counts<I: IntoIterator<Item = u64>>(counts: I) -> f64 {
    let v: Vec<f64> = counts.into_iter().map(|c| c as f64).collect();
    entropy_base10(&v)
}

/// Kullback–Leibler divergence D_KL(P ‖ Q) in base 10.
///
/// `p` and `q` are parallel probability vectors. Terms with `p[i] == 0`
/// contribute nothing; a term with `p[i] > 0` and `q[i] == 0` is handled by
/// flooring `q[i]` at `q_floor` (the caller decides how unobserved mass is
/// smoothed — the PST growth criterion passes fully-supported distributions).
pub fn kl_divergence_base10(p: &[f64], q: &[f64], q_floor: f64) -> f64 {
    debug_assert_eq!(p.len(), q.len());
    let mut d = 0.0;
    for (&pi, &qi) in p.iter().zip(q) {
        if pi > 0.0 {
            let qi = qi.max(q_floor);
            d += pi * (pi / qi).log10();
        }
    }
    d
}

/// Gaussian probability density `N(x; 0, σ²)` used for the MVMM mixture
/// weight `w(D,T)` (Eq. 4 of the paper): `exp(-x²/2σ²) / (σ√(2π))`.
#[inline]
pub fn gaussian_pdf(x: f64, sigma: f64) -> f64 {
    debug_assert!(sigma > 0.0);
    let z = x / sigma;
    (-0.5 * z * z).exp() / (sigma * (2.0 * std::f64::consts::PI).sqrt())
}

/// First derivative of [`gaussian_pdf`] with respect to σ (analytic, used by
/// the Newton fit of the MVMM mixture parameters).
#[inline]
pub fn gaussian_pdf_dsigma(x: f64, sigma: f64) -> f64 {
    let g = gaussian_pdf(x, sigma);
    g * (x * x / (sigma * sigma * sigma) - 1.0 / sigma)
}

/// Second derivative of [`gaussian_pdf`] with respect to σ.
#[inline]
pub fn gaussian_pdf_d2sigma(x: f64, sigma: f64) -> f64 {
    let g = gaussian_pdf(x, sigma);
    let a = x * x / (sigma * sigma * sigma) - 1.0 / sigma; // g'/g
    let a_prime = -3.0 * x * x / (sigma * sigma * sigma * sigma) + 1.0 / (sigma * sigma);
    g * (a * a + a_prime)
}

/// Average log-loss rate of Eq. (1): `-(1/|T|) Σ_t (1/|s_t|) Σ_j log10 P(q_j |
/// prefix)`. `seq_logps` carries, per test sequence, `(len, Σ log10 P)`.
pub fn average_log_loss(seq_logps: &[(usize, f64)]) -> f64 {
    if seq_logps.is_empty() {
        return 0.0;
    }
    let sum: f64 = seq_logps
        .iter()
        .filter(|(len, _)| *len >= 2)
        .map(|(len, lp)| lp / *len as f64)
        .sum();
    -sum / seq_logps.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn entropy_of_uniform_two_outcomes() {
        // H = log10(2) ≈ 0.30103
        assert!(close(
            entropy_base10(&[1.0, 1.0]),
            std::f64::consts::LOG10_2,
            1e-9
        ));
    }

    #[test]
    fn entropy_paper_java_example() {
        // Paper §I: "Java" followed by "Sun Java" 60 times and "Java island"
        // 40 times → entropy 0.29.
        let h = entropy_of_counts([60, 40]);
        assert!(close(h, 0.29, 0.005), "h = {h}");
        // Given context "Indonesia": 9 vs 1 → entropy 0.14.
        let h2 = entropy_of_counts([9, 1]);
        assert!(close(h2, 0.14, 0.005), "h2 = {h2}");
    }

    #[test]
    fn entropy_degenerate_cases() {
        assert_eq!(entropy_base10(&[]), 0.0);
        assert_eq!(entropy_base10(&[5.0]), 0.0);
        assert_eq!(entropy_base10(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn kl_paper_toy_numbers() {
        // Table II toy corpus: KL(P(·|q0) ‖ P(·|q1q0)) with
        // P(·|q0) = (0.9, 0.1) and P(·|q1q0) = (0.3, 0.7) → 0.3449.
        let d = kl_divergence_base10(&[0.9, 0.1], &[0.3, 0.7], 0.0);
        assert!(close(d, 0.3449, 1e-4), "d = {d}");
        // KL(P(·|q1) ‖ P(·|q0q1)) with (0.8, 0.2) vs (0.5, 0.5) → 0.0837.
        let d2 = kl_divergence_base10(&[0.8, 0.2], &[0.5, 0.5], 0.0);
        assert!(close(d2, 0.0837, 1e-4), "d2 = {d2}");
    }

    #[test]
    fn kl_is_zero_for_identical() {
        let p = [0.25, 0.25, 0.5];
        assert!(kl_divergence_base10(&p, &p, 0.0).abs() < 1e-12);
    }

    #[test]
    fn kl_nonnegative_on_grid() {
        for i in 1..10 {
            for j in 1..10 {
                let p = [i as f64 / 10.0, 1.0 - i as f64 / 10.0];
                let q = [j as f64 / 10.0, 1.0 - j as f64 / 10.0];
                assert!(kl_divergence_base10(&p, &q, 0.0) >= -1e-12);
            }
        }
    }

    #[test]
    fn gaussian_pdf_peak_and_symmetry() {
        let g0 = gaussian_pdf(0.0, 1.0);
        assert!(close(g0, 0.3989422804, 1e-9));
        assert!(close(
            gaussian_pdf(1.5, 2.0),
            gaussian_pdf(-1.5, 2.0),
            1e-15
        ));
        assert!(gaussian_pdf(3.0, 1.0) < g0);
    }

    #[test]
    fn gaussian_derivatives_match_finite_differences() {
        let (x, sigma, h) = (1.3, 0.9, 1e-6);
        let fd1 = (gaussian_pdf(x, sigma + h) - gaussian_pdf(x, sigma - h)) / (2.0 * h);
        assert!(close(gaussian_pdf_dsigma(x, sigma), fd1, 1e-6));
        let fd2 =
            (gaussian_pdf_dsigma(x, sigma + h) - gaussian_pdf_dsigma(x, sigma - h)) / (2.0 * h);
        assert!(close(gaussian_pdf_d2sigma(x, sigma), fd2, 1e-5));
    }

    #[test]
    fn average_log_loss_simple() {
        // One sequence of length 2 with P = 0.1 for its single prediction:
        // loss = -(1/1) * (log10(0.1)/2) = 0.5
        let l = average_log_loss(&[(2, (0.1f64).log10())]);
        assert!(close(l, 0.5, 1e-12));
        assert_eq!(average_log_loss(&[]), 0.0);
    }
}
