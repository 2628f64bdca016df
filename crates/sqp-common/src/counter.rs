//! Counting maps.
//!
//! Thin ergonomic layer over [`FxHashMap`] for the frequency counting that
//! dominates model training: next-query distributions, pair counts,
//! aggregated session frequencies.

use crate::hash::FxHashMap;
use std::hash::Hash;

/// A multiset: key → occurrence count.
#[derive(Clone, Debug)]
pub struct Counter<K: Eq + Hash> {
    map: FxHashMap<K, u64>,
    total: u64,
}

impl<K: Eq + Hash> Default for Counter<K> {
    fn default() -> Self {
        Self {
            map: FxHashMap::default(),
            total: 0,
        }
    }
}

impl<K: Eq + Hash> Counter<K> {
    /// Empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `weight` occurrences of `key`.
    pub fn add(&mut self, key: K, weight: u64) {
        if weight == 0 {
            return;
        }
        *self.map.entry(key).or_insert(0) += weight;
        self.total += weight;
    }

    /// Add one occurrence.
    pub fn observe(&mut self, key: K) {
        self.add(key, 1);
    }

    /// Count for `key` (0 when absent).
    pub fn get<Q>(&self, key: &Q) -> u64
    where
        K: std::borrow::Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.get(key).copied().unwrap_or(0)
    }

    /// Sum of all counts.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no key has been observed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate `(key, count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.map.iter().map(|(k, &v)| (k, v))
    }

    /// Probability of `key` under the empirical distribution.
    pub fn probability<Q>(&self, key: &Q) -> f64
    where
        K: std::borrow::Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        if self.total == 0 {
            0.0
        } else {
            self.get(key) as f64 / self.total as f64
        }
    }
}

impl<K: Eq + Hash + Clone> Counter<K> {
    /// Merge counts from another counter.
    pub fn merge(&mut self, other: &Counter<K>) {
        for (k, v) in other.iter() {
            self.add(k.clone(), v);
        }
    }
}

impl<K: Eq + Hash> FromIterator<K> for Counter<K> {
    fn from_iter<T: IntoIterator<Item = K>>(iter: T) -> Self {
        let mut c = Counter::new();
        for k in iter {
            c.observe(k);
        }
        c
    }
}

impl<K: Eq + Hash + Ord + Clone> Counter<K> {
    /// Entries sorted by descending count, ties by ascending key.
    pub fn sorted_desc(&self) -> Vec<(K, u64)> {
        let mut v: Vec<(K, u64)> = self.iter().map(|(k, c)| (k.clone(), c)).collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_total() {
        let mut c: Counter<&str> = Counter::new();
        c.observe("java");
        c.observe("java");
        c.add("sun java", 3);
        assert_eq!(c.get("java"), 2);
        assert_eq!(c.get("sun java"), 3);
        assert_eq!(c.get("missing"), 0);
        assert_eq!(c.total(), 5);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn probability_sums_to_one() {
        let c: Counter<u32> = [1u32, 1, 2, 3].into_iter().collect();
        let p: f64 = [1u32, 2, 3].iter().map(|k| c.probability(k)).sum();
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probability_of_empty_counter() {
        let c: Counter<u32> = Counter::new();
        assert_eq!(c.probability(&1), 0.0);
        assert!(c.is_empty());
    }

    #[test]
    fn merge_adds() {
        let a: Counter<u32> = [1u32, 2].into_iter().collect();
        let mut b: Counter<u32> = [2u32].into_iter().collect();
        b.merge(&a);
        assert_eq!(b.get(&1), 1);
        assert_eq!(b.get(&2), 2);
        assert_eq!(b.total(), 3);
    }

    #[test]
    fn sorted_desc_breaks_ties_by_key() {
        let mut c: Counter<u32> = Counter::new();
        c.add(5, 2);
        c.add(1, 2);
        c.add(9, 7);
        assert_eq!(c.sorted_desc(), vec![(9, 7), (1, 2), (5, 2)]);
    }

    #[test]
    fn zero_weight_add_is_noop() {
        let mut c: Counter<u32> = Counter::new();
        c.add(1, 0);
        assert!(c.is_empty());
        assert_eq!(c.total(), 0);
    }
}
