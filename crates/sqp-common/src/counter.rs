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
    pub(crate) fn observe(&mut self, key: K) {
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

    /// Iterate `(key, count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.map.iter().map(|(k, &v)| (k, v))
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
        assert_eq!(c.iter().count(), 2);
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
        assert_eq!(c.iter().count(), 0);
        assert_eq!(c.total(), 0);
    }
}
