//! Newton iteration for the MVMM mixture parameters — §IV-C.3 of the paper.
//!
//! The mixture weight of component D is a zero-mean Gaussian of the context
//! disparity `d` with learnable deviation σ_D (Eq. 4). The σ vector is chosen
//! to minimize KL(P ‖ P̂_w) over training sequences, i.e. to maximize
//!
//! f(σ) = Σ_T  P(X_T) · log10 Σ_D  g(σ_D; d_{T,D}) · P̂_D(X_T)      (Eq. 9)
//!
//! The paper prescribes the classical Newton step σ ← σ − H⁻¹∇f (Eq. 10);
//! we implement it with an analytic gradient/Hessian, projection onto
//! [σ_min, σ_max], and a backtracking gradient-ascent fallback for steps the
//! quadratic model gets wrong (Newton on a non-concave region can point
//! downhill).

#![allow(clippy::needless_range_loop)] // dense matrix math reads best indexed

use sqp_common::math::{gaussian_pdf, gaussian_pdf_d2sigma, gaussian_pdf_dsigma};
use sqp_common::FxHashMap;

/// Optimizer configuration.
#[derive(Clone, Copy, Debug)]
pub struct FitConfig {
    /// Maximum Newton/gradient iterations.
    pub max_iters: usize,
    /// Convergence threshold on objective improvement.
    pub tol: f64,
    /// Initial σ for every component.
    pub sigma_init: f64,
    /// Lower projection bound (σ must stay positive).
    pub sigma_min: f64,
    /// Upper projection bound.
    pub sigma_max: f64,
    /// Cap on the number of training sequences used for the fit.
    pub max_fit_sequences: usize,
}

impl Default for FitConfig {
    fn default() -> Self {
        Self {
            max_iters: 60,
            tol: 1e-10,
            sigma_init: 1.0,
            sigma_min: 0.05,
            sigma_max: 64.0,
            max_fit_sequences: 2_000,
        }
    }
}

/// Result of the σ fit.
#[derive(Clone, Debug)]
pub struct FitOutcome {
    /// Fitted deviations, one per mixture component.
    pub sigmas: Vec<f64>,
    /// Final objective value (Eq. 9, base-10 logs).
    pub objective: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// True when the improvement fell below tolerance before `max_iters`.
    pub converged: bool,
    /// How many iterations accepted the pure Newton step.
    pub newton_steps: usize,
}

const LN10: f64 = std::f64::consts::LN_10;

/// The fit's inputs, with each component's disparities deduplicated.
/// Disparities are small integers (`|s| − 1 − matched`), so a σ evaluates
/// the Gaussian and its derivatives once per component and distinct
/// disparity instead of once per sequence. Every sum keeps the order of the
/// per-sequence form, so the result is the same to the bit.
struct Fit<'a> {
    p: &'a [f64],
    a: &'a [Vec<f64>],
    /// `values[k]`: component k's distinct disparities.
    values: Vec<Vec<f64>>,
    /// `at[t * kn + k]`: where `d[t][k]` sits in `values[k]`.
    at: Vec<u32>,
    kn: usize,
}

impl<'a> Fit<'a> {
    fn new(p: &'a [f64], a: &'a [Vec<f64>], d: &[Vec<f64>]) -> Self {
        let kn = a.first().map_or(0, Vec::len);
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); kn];
        let mut seen: Vec<FxHashMap<u64, u32>> = vec![FxHashMap::default(); kn];
        let mut at = Vec::with_capacity(p.len() * kn);
        for row in &d[..p.len()] {
            for (k, &x) in row[..kn].iter().enumerate() {
                let next = values[k].len() as u32;
                let index = *seen[k].entry(x.to_bits()).or_insert(next);
                if index == next {
                    values[k].push(x);
                }
                at.push(index);
            }
        }
        Self {
            p,
            a,
            values,
            at,
            kn,
        }
    }

    /// `f(x, σ_k)` for every component k and each of its distinct
    /// disparities x.
    fn table(&self, sigma: &[f64], f: fn(f64, f64) -> f64) -> Vec<Vec<f64>> {
        self.values
            .iter()
            .zip(sigma)
            .map(|(values, &s)| values.iter().map(|&x| f(x, s)).collect())
            .collect()
    }

    /// `table[k]` at sequence t's disparity for component k.
    fn term(&self, table: &[Vec<f64>], t: usize, k: usize) -> f64 {
        table[k][self.at[t * self.kn + k] as usize]
    }

    /// Σ_k a_tk · g(σ_k; d_tk), the mixture probability of sequence t.
    fn mixture(&self, pdf: &[Vec<f64>], t: usize) -> f64 {
        (0..self.kn)
            .map(|k| self.a[t][k] * self.term(pdf, t, k))
            .sum()
    }

    fn objective(&self, sigma: &[f64]) -> f64 {
        let pdf = self.table(sigma, gaussian_pdf);
        let mut f = 0.0;
        for t in 0..self.p.len() {
            f += self.p[t] * self.mixture(&pdf, t).max(1e-300).log10();
        }
        f
    }

    fn gradient(&self, sigma: &[f64]) -> Vec<f64> {
        let (p, a, kn) = (self.p, self.a, self.kn);
        let pdf = self.table(sigma, gaussian_pdf);
        let dpdf = self.table(sigma, gaussian_pdf_dsigma);
        let mut g = vec![0.0; kn];
        for t in 0..p.len() {
            let m = self.mixture(&pdf, t).max(1e-300);
            for k in 0..kn {
                g[k] += p[t] * a[t][k] * self.term(&dpdf, t, k) / (m * LN10);
            }
        }
        g
    }

    fn hessian(&self, sigma: &[f64]) -> Vec<Vec<f64>> {
        let (p, a, kn) = (self.p, self.a, self.kn);
        let pdf = self.table(sigma, gaussian_pdf);
        let dpdf = self.table(sigma, gaussian_pdf_dsigma);
        let d2pdf = self.table(sigma, gaussian_pdf_d2sigma);
        let mut h = vec![vec![0.0; kn]; kn];
        // a_tk · g′(σ_k; d_tk) of the current sequence, one buffer for all.
        let mut g_vals = vec![0.0; kn];
        for t in 0..p.len() {
            for (k, g) in g_vals.iter_mut().enumerate() {
                *g = a[t][k] * self.term(&dpdf, t, k);
            }
            let m = self.mixture(&pdf, t).max(1e-300);
            for k in 0..kn {
                for l in 0..kn {
                    let mut v = -g_vals[k] * g_vals[l] / (m * m);
                    if k == l {
                        v += a[t][k] * self.term(&d2pdf, t, k) / m;
                    }
                    h[k][l] += p[t] * v / LN10;
                }
            }
        }
        h
    }
}

/// Solve `A x = b` by Gaussian elimination with partial pivoting.
/// Returns `None` for (near-)singular systems.
pub fn solve_linear(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let (pivot_row, pivot_val) = (col..n)
            .map(|r| (r, a[r][col].abs()))
            .max_by(|x, y| x.1.partial_cmp(&y.1).unwrap())?;
        if pivot_val < 1e-12 {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        // Eliminate below.
        for r in col + 1..n {
            let factor = a[r][col] / a[col][col];
            for c in col..n {
                a[r][c] -= factor * a[col][c];
            }
            b[r] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for c in row + 1..n {
            acc -= a[row][c] * x[c];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

fn project(sigma: &mut [f64], cfg: &FitConfig) {
    for s in sigma {
        *s = s.clamp(cfg.sigma_min, cfg.sigma_max);
    }
}

/// Fit the mixture deviations.
///
/// * `p[t]` — empirical probability of training sequence t (normalized);
/// * `a[t][k]` — generative probability `P̂_k(X_t)` of sequence t under
///   component k (Eq. 3, with escape);
/// * `d[t][k]` — context disparity (edit distance to the matched state).
pub fn fit_mixture_sigmas(
    p: &[f64],
    a: &[Vec<f64>],
    d: &[Vec<f64>],
    cfg: &FitConfig,
) -> FitOutcome {
    let kn = a.first().map(|row| row.len()).unwrap_or(0);
    let mut sigma = vec![cfg.sigma_init; kn];
    project(&mut sigma, cfg);
    if p.is_empty() || kn == 0 {
        return FitOutcome {
            objective: 0.0,
            sigmas: sigma,
            iterations: 0,
            converged: true,
            newton_steps: 0,
        };
    }

    let fit = Fit::new(p, a, d);
    let mut f = fit.objective(&sigma);
    let mut newton_steps = 0;
    let mut iterations = 0;
    let mut converged = false;

    for _ in 0..cfg.max_iters {
        iterations += 1;
        let g = fit.gradient(&sigma);
        let h = fit.hessian(&sigma);

        // Newton candidate: σ − H⁻¹ ∇f (Eq. 10).
        let mut improved = false;
        if let Some(step) = solve_linear(h, g.clone()) {
            let mut cand: Vec<f64> = sigma.iter().zip(&step).map(|(s, dx)| s - dx).collect();
            project(&mut cand, cfg);
            let fc = fit.objective(&cand);
            if fc > f {
                if (fc - f).abs() < cfg.tol {
                    sigma = cand;
                    f = fc;
                    converged = true;
                    newton_steps += 1;
                    break;
                }
                sigma = cand;
                f = fc;
                newton_steps += 1;
                improved = true;
            }
        }

        if !improved {
            // Backtracking gradient ascent.
            let mut eta = 1.0;
            let mut accepted = false;
            for _ in 0..30 {
                let mut cand: Vec<f64> = sigma.iter().zip(&g).map(|(s, gi)| s + eta * gi).collect();
                project(&mut cand, cfg);
                let fc = fit.objective(&cand);
                if fc > f + 1e-15 {
                    if (fc - f).abs() < cfg.tol {
                        converged = true;
                    }
                    sigma = cand;
                    f = fc;
                    accepted = true;
                    break;
                }
                eta *= 0.5;
            }
            if !accepted {
                converged = true; // no ascent direction improves: at an optimum
                break;
            }
            if converged {
                break;
            }
        }
    }

    FitOutcome {
        sigmas: sigma,
        objective: f,
        iterations,
        converged,
        newton_steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_linear_identity() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let x = solve_linear(a, vec![3.0, -2.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_linear_general() {
        // [2 1; 1 3] x = [5; 10] → x = [1; 3]… check: 2+3=5 ✓, 1+9=10 ✓.
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let x = solve_linear(a, vec![5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn solve_linear_needs_pivoting() {
        // Zero on the initial pivot position.
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let x = solve_linear(a, vec![2.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_linear_singular_returns_none() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve_linear(a, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn fit_recovers_preference_for_matching_component() {
        // Two components: component 0 always matches exactly (d = 0) with
        // high sequence probability; component 1 always has disparity 3 and
        // lower probability. The fit should find σ that favour component 0:
        // small σ0 concentrates mass at d = 0 where its evidence lives.
        let n = 40;
        let p = vec![1.0 / n as f64; n];
        let a: Vec<Vec<f64>> = (0..n).map(|_| vec![0.4, 0.05]).collect();
        let d: Vec<Vec<f64>> = (0..n).map(|_| vec![0.0, 3.0]).collect();
        let out = fit_mixture_sigmas(&p, &a, &d, &FitConfig::default());
        assert!(out.iterations >= 1);
        // At d = 0 the Gaussian pdf grows as σ shrinks: expect σ0 pinned low.
        assert!(
            out.sigmas[0] < out.sigmas[1] + 1e-9,
            "sigmas = {:?}",
            out.sigmas
        );
        // Objective must have improved over the starting point.
        let start = vec![FitConfig::default().sigma_init; 2];
        assert!(out.objective >= Fit::new(&p, &a, &d).objective(&start) - 1e-12);
    }

    #[test]
    fn fit_is_deterministic() {
        let p = vec![0.5, 0.5];
        let a = vec![vec![0.3, 0.2], vec![0.1, 0.4]];
        let d = vec![vec![0.0, 1.0], vec![2.0, 0.0]];
        let o1 = fit_mixture_sigmas(&p, &a, &d, &FitConfig::default());
        let o2 = fit_mixture_sigmas(&p, &a, &d, &FitConfig::default());
        assert_eq!(o1.sigmas, o2.sigmas);
        assert_eq!(o1.objective, o2.objective);
    }

    #[test]
    fn fit_respects_bounds() {
        let cfg = FitConfig {
            sigma_min: 0.5,
            sigma_max: 2.0,
            ..FitConfig::default()
        };
        let p = vec![1.0];
        let a = vec![vec![0.9]];
        let d = vec![vec![0.0]];
        let out = fit_mixture_sigmas(&p, &a, &d, &cfg);
        assert!(out.sigmas[0] >= 0.5 - 1e-12);
        assert!(out.sigmas[0] <= 2.0 + 1e-12);
    }

    #[test]
    fn empty_inputs() {
        let out = fit_mixture_sigmas(&[], &[], &[], &FitConfig::default());
        assert!(out.converged);
        assert!(out.sigmas.is_empty());
    }

    #[test]
    fn objective_monotone_over_iterations() {
        // Indirect check: running with max_iters = 1 can never beat
        // max_iters = 60.
        let n = 20;
        let p = vec![1.0 / n as f64; n];
        let a: Vec<Vec<f64>> = (0..n)
            .map(|t| vec![0.1 + 0.01 * (t % 5) as f64, 0.3, 0.05])
            .collect();
        let d: Vec<Vec<f64>> = (0..n).map(|t| vec![(t % 3) as f64, 1.0, 2.0]).collect();
        let short = fit_mixture_sigmas(
            &p,
            &a,
            &d,
            &FitConfig {
                max_iters: 1,
                ..FitConfig::default()
            },
        );
        let long = fit_mixture_sigmas(&p, &a, &d, &FitConfig::default());
        assert!(long.objective >= short.objective - 1e-12);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let p = vec![0.6, 0.4];
        let a = vec![vec![0.3, 0.2], vec![0.15, 0.4]];
        let d = vec![vec![0.0, 2.0], vec![1.0, 0.0]];
        let sigma = vec![0.8, 1.3];
        let fit = Fit::new(&p, &a, &d);
        let g = fit.gradient(&sigma);
        let h = 1e-6;
        for k in 0..2 {
            let mut up = sigma.clone();
            up[k] += h;
            let mut down = sigma.clone();
            down[k] -= h;
            let fd = (fit.objective(&up) - fit.objective(&down)) / (2.0 * h);
            assert!(
                (g[k] - fd).abs() < 1e-6,
                "component {k}: {} vs {}",
                g[k],
                fd
            );
        }
    }

    #[test]
    fn hessian_matches_finite_differences() {
        let p = vec![0.6, 0.4];
        let a = vec![vec![0.3, 0.2], vec![0.15, 0.4]];
        let d = vec![vec![0.0, 2.0], vec![1.0, 0.0]];
        let sigma = vec![0.8, 1.3];
        let fit = Fit::new(&p, &a, &d);
        let hess = fit.hessian(&sigma);
        let h = 1e-5;
        for k in 0..2 {
            for l in 0..2 {
                let mut up = sigma.clone();
                up[l] += h;
                let mut down = sigma.clone();
                down[l] -= h;
                let fd = (fit.gradient(&up)[k] - fit.gradient(&down)[k]) / (2.0 * h);
                assert!(
                    (hess[k][l] - fd).abs() < 1e-5,
                    "H[{k}][{l}]: {} vs {}",
                    hess[k][l],
                    fd
                );
            }
        }
    }
}
