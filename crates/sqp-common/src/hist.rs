//! Integer-keyed histograms.
//!
//! Used for the session-length distributions (Figures 5 and 7 of the paper)
//! and the aggregated-session frequency spectrum behind the power-law plot
//! (Figure 6).

use std::collections::BTreeMap;

/// A histogram over `u64` keys with `u64` weights.
///
/// Backed by a `BTreeMap` so iteration is in key order, which is what the
/// figure printers need.
#[derive(Default, Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: BTreeMap<u64, u64>,
    total: u64,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `weight` observations of `key`.
    pub fn add(&mut self, key: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        *self.buckets.entry(key).or_insert(0) += weight;
        self.total += weight;
    }

    /// Add a single observation of `key`.
    pub fn observe(&mut self, key: u64) {
        self.add(key, 1);
    }

    /// Weight in `key`'s bucket.
    pub fn count(&self, key: u64) -> u64 {
        self.buckets.get(&key).copied().unwrap_or(0)
    }

    /// Iterate `(key, weight)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().map(|(&k, &v)| (k, v))
    }

    /// Weighted mean of the keys (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: f64 = self.iter().map(|(k, v)| k as f64 * v as f64).sum();
        sum / self.total as f64
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        let mut h = Histogram::new();
        for k in iter {
            h.observe(k);
        }
        h
    }
}

/// Least-squares slope of `log10(y)` vs `log10(x)` — the power-law exponent
/// estimate used for Figure 6 (rank/frequency of aggregated sessions).
///
/// Returns `None` when fewer than two usable points exist.
pub fn log_log_slope(points: &[(f64, f64)]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.log10(), y.log10()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_counting() {
        let mut h = Histogram::new();
        h.observe(2);
        h.observe(2);
        h.add(3, 5);
        assert_eq!(h.count(2), 2);
        assert_eq!(h.count(3), 5);
        assert_eq!(h.count(9), 0);
        assert_eq!(h.iter().collect::<Vec<_>>(), vec![(2, 2), (3, 5)]);
    }

    #[test]
    fn zero_weight_is_noop() {
        let mut h = Histogram::new();
        h.add(1, 0);
        assert_eq!(h.iter().count(), 0);
    }

    #[test]
    fn mean_and_cumulative() {
        let h: Histogram = [1u64, 1, 2, 4].into_iter().collect();
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn iteration_in_key_order() {
        let mut h = Histogram::new();
        h.observe(5);
        h.observe(1);
        h.observe(3);
        let keys: Vec<u64> = h.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 3, 5]);
    }

    #[test]
    fn slope_of_exact_power_law() {
        // y = 100 * x^-2
        let pts: Vec<(f64, f64)> = (1..50)
            .map(|i| (i as f64, 100.0 * (i as f64).powf(-2.0)))
            .collect();
        let slope = log_log_slope(&pts).unwrap();
        assert!((slope + 2.0).abs() < 1e-9, "slope = {slope}");
    }

    #[test]
    fn slope_requires_two_points() {
        assert!(log_log_slope(&[]).is_none());
        assert!(log_log_slope(&[(1.0, 1.0)]).is_none());
        assert!(log_log_slope(&[(0.0, 1.0), (0.0, 2.0)]).is_none());
    }
}
