//! Deterministic top-k selection.
//!
//! Every recommender returns the k highest-scoring candidate queries. Ties
//! must break deterministically (by ascending id) so that experiments are
//! reproducible bit-for-bit across runs and platforms.

use crate::QueryId;
use std::cmp::Ordering;

/// A scored recommendation candidate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scored {
    /// Candidate query.
    pub query: QueryId,
    /// Model score (higher is better); NaN is not permitted.
    pub score: f64,
}

impl Scored {
    /// Construct a candidate.
    pub fn new(query: QueryId, score: f64) -> Self {
        debug_assert!(!score.is_nan(), "NaN score for {query}");
        Self { query, score }
    }
}

/// Total order: higher score first, ties by ascending query id.
fn cmp_desc(a: &Scored, b: &Scored) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.query.cmp(&b.query))
}

/// Keep the top `k` of `items`, ordered best-first, in place — so a model
/// that pools its candidates in the caller's buffer ranks them there.
///
/// Uses a full sort for small inputs and a bounded selection otherwise;
/// output ordering is always the deterministic total order above.
pub fn top_k_into(items: &mut Vec<Scored>, k: usize) {
    if k > 0 && items.len() > k * 4 && items.len() > 64 {
        // Partial selection first to avoid sorting the long tail.
        items.select_nth_unstable_by(k - 1, cmp_desc);
        items.truncate(k);
    }
    items.sort_unstable_by(cmp_desc);
    items.truncate(k);
}

/// Top-k over `(QueryId, u64)` count pairs — the common case when ranking
/// next-query candidates straight from frequency counts.
pub fn top_k_counts<I: IntoIterator<Item = (QueryId, u64)>>(counts: I, k: usize) -> Vec<Scored> {
    let mut items: Vec<Scored> = counts
        .into_iter()
        .map(|(q, c)| Scored::new(q, c as f64))
        .collect();
    top_k_into(&mut items, k);
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(q: u32, score: f64) -> Scored {
        Scored::new(QueryId(q), score)
    }

    fn top_k(mut items: Vec<Scored>, k: usize) -> Vec<Scored> {
        top_k_into(&mut items, k);
        items
    }

    #[test]
    fn orders_by_score_desc() {
        let out = top_k(vec![s(1, 0.2), s(2, 0.9), s(3, 0.5)], 3);
        let ids: Vec<u32> = out.iter().map(|x| x.query.0).collect();
        assert_eq!(ids, vec![2, 3, 1]);
    }

    #[test]
    fn ties_break_by_ascending_id() {
        let out = top_k(vec![s(9, 1.0), s(3, 1.0), s(5, 1.0)], 2);
        let ids: Vec<u32> = out.iter().map(|x| x.query.0).collect();
        assert_eq!(ids, vec![3, 5]);
    }

    #[test]
    fn truncates_to_k() {
        let items: Vec<Scored> = (0..100).map(|i| s(i, i as f64)).collect();
        let out = top_k(items, 5);
        assert_eq!(out.len(), 5);
        assert_eq!(out[0].query.0, 99);
        assert_eq!(out[4].query.0, 95);
    }

    #[test]
    fn k_zero_and_empty() {
        assert!(top_k(vec![s(1, 1.0)], 0).is_empty());
        assert!(top_k(Vec::new(), 5).is_empty());
    }

    #[test]
    fn counts_helper() {
        let out = top_k_counts([(QueryId(7), 3u64), (QueryId(2), 10)], 1);
        assert_eq!(out[0].query.0, 2);
        assert_eq!(out[0].score, 10.0);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use crate::rng::{Rng, StdRng};

    #[test]
    fn equals_full_sort_prefix() {
        for case in 0..128u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.random_range(0usize..200);
            let k = rng.random_range(0usize..16);
            // Deduplicate ids to keep the expected order well-defined.
            let mut seen = std::collections::HashSet::new();
            let items: Vec<Scored> = (0..n)
                .map(|_| (rng.random_range(0u32..64), rng.random_range(0u64..50)))
                .filter(|(q, _)| seen.insert(*q))
                .map(|(q, c)| Scored::new(QueryId(q), c as f64))
                .collect();

            let mut expect = items.clone();
            expect.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap()
                    .then_with(|| a.query.cmp(&b.query))
            });
            expect.truncate(k);

            let mut got = items;
            top_k_into(&mut got, k);
            assert_eq!(got, expect, "case {case}");
        }
    }

    #[test]
    fn output_is_sorted_and_bounded() {
        for case in 0..128u64 {
            let mut rng = StdRng::seed_from_u64(1000 + case);
            let n = rng.random_range(0usize..300);
            let k = rng.random_range(1usize..10);
            let items: Vec<Scored> = (0..n)
                .map(|_| {
                    Scored::new(
                        QueryId(rng.random_range(0u32..1000)),
                        rng.random::<f64>() * 100.0,
                    )
                })
                .collect();
            let mut out = items;
            top_k_into(&mut out, k);
            assert!(out.len() <= k, "case {case}");
            for w in out.windows(2) {
                assert!(w[0].score >= w[1].score, "case {case}");
            }
        }
    }
}
