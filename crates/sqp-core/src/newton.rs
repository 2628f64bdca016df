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

/// Newton/gradient iterations at most.
const MAX_ITERS: usize = 60;
/// Convergence threshold on objective improvement.
const TOL: f64 = 1e-10;
/// Initial σ for every component.
const SIGMA_INIT: f64 = 1.0;
/// Lower projection bound (σ must stay positive).
pub(crate) const SIGMA_MIN: f64 = 0.05;
/// Upper projection bound.
pub(crate) const SIGMA_MAX: f64 = 64.0;

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
pub(crate) fn solve_linear(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
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

fn project(sigma: &mut [f64]) {
    for s in sigma {
        *s = s.clamp(SIGMA_MIN, SIGMA_MAX);
    }
}

/// Fit the mixture deviations.
///
/// * `p[t]` — empirical probability of training sequence t (normalized);
/// * `a[t][k]` — generative probability `P̂_k(X_t)` of sequence t under
///   component k (Eq. 3, with escape);
/// * `d[t][k]` — context disparity (edit distance to the matched state).
///
/// Returns one σ per component, each within `[SIGMA_MIN, SIGMA_MAX]`.
pub(crate) fn fit_mixture_sigmas(p: &[f64], a: &[Vec<f64>], d: &[Vec<f64>]) -> Vec<f64> {
    let kn = a.first().map(|row| row.len()).unwrap_or(0);
    let mut sigma = vec![SIGMA_INIT; kn];
    project(&mut sigma);
    if p.is_empty() || kn == 0 {
        return sigma;
    }

    let fit = Fit::new(p, a, d);
    let mut f = fit.objective(&sigma);
    let mut converged = false;

    for _ in 0..MAX_ITERS {
        let g = fit.gradient(&sigma);
        let h = fit.hessian(&sigma);

        // Newton candidate: σ − H⁻¹ ∇f (Eq. 10).
        let mut improved = false;
        if let Some(step) = solve_linear(h, g.clone()) {
            let mut cand: Vec<f64> = sigma.iter().zip(&step).map(|(s, dx)| s - dx).collect();
            project(&mut cand);
            let fc = fit.objective(&cand);
            if fc > f {
                if (fc - f).abs() < TOL {
                    sigma = cand;
                    break;
                }
                sigma = cand;
                f = fc;
                improved = true;
            }
        }

        if !improved {
            // Backtracking gradient ascent.
            let mut eta = 1.0;
            let mut accepted = false;
            for _ in 0..30 {
                let mut cand: Vec<f64> = sigma.iter().zip(&g).map(|(s, gi)| s + eta * gi).collect();
                project(&mut cand);
                let fc = fit.objective(&cand);
                if fc > f + 1e-15 {
                    if (fc - f).abs() < TOL {
                        converged = true;
                    }
                    sigma = cand;
                    f = fc;
                    accepted = true;
                    break;
                }
                eta *= 0.5;
            }
            // No ascent direction improves: at an optimum.
            if !accepted || converged {
                break;
            }
        }
    }

    sigma
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
        let sigmas = fit_mixture_sigmas(&p, &a, &d);
        // At d = 0 the Gaussian pdf grows as σ shrinks: expect σ0 pinned low.
        assert!(sigmas[0] < sigmas[1] + 1e-9, "sigmas = {sigmas:?}");
        // Objective must have improved over the starting point.
        let fit = Fit::new(&p, &a, &d);
        assert!(fit.objective(&sigmas) > fit.objective(&[SIGMA_INIT; 2]));
    }

    #[test]
    fn fit_is_deterministic() {
        let p = vec![0.5, 0.5];
        let a = vec![vec![0.3, 0.2], vec![0.1, 0.4]];
        let d = vec![vec![0.0, 1.0], vec![2.0, 0.0]];
        let o1 = fit_mixture_sigmas(&p, &a, &d);
        let o2 = fit_mixture_sigmas(&p, &a, &d);
        assert_eq!(o1, o2);
    }

    #[test]
    fn fit_respects_bounds() {
        // Evidence only at d = 0 drives σ toward 0 and evidence only far
        // away drives it up: both stop at a bound.
        let p = vec![1.0];
        let near = fit_mixture_sigmas(&p, &[vec![0.9]], &[vec![0.0]]);
        assert_eq!(near, [SIGMA_MIN]);
        let far = fit_mixture_sigmas(&p, &[vec![0.9, 0.9]], &[vec![1e4, 0.0]]);
        assert!(
            far.iter().all(|s| (SIGMA_MIN..=SIGMA_MAX).contains(s)),
            "{far:?}"
        );
    }

    #[test]
    fn empty_inputs() {
        assert!(fit_mixture_sigmas(&[], &[], &[]).is_empty());
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
