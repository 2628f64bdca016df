//! Complementary ranking metrics: MRR and hit-rate@k.
//!
//! The paper reports NDCG (Eq. 11) and the user-study precision/recall; MRR
//! and hit-rate are the other two staples of next-item recommendation and
//! make the library useful beyond the reproduction (and give the integration
//! tests a second, independent lens on the same orderings).

use sqp_common::QueryId;
use sqp_core::Recommender;
use sqp_sessions::GroundTruth;

/// Reciprocal rank of the best ground-truth continuation in `predicted`
/// (0 when absent). "Best" = the truth's top-1 query.
pub(crate) fn reciprocal_rank(predicted: &[QueryId], truth_top: QueryId) -> f64 {
    predicted
        .iter()
        .position(|&q| q == truth_top)
        .map(|pos| 1.0 / (pos + 1) as f64)
        .unwrap_or(0.0)
}

/// Did any of the ground-truth top-n continuations appear in `predicted`?
pub(crate) fn any_hit(predicted: &[QueryId], truth: &[(QueryId, u64)]) -> bool {
    predicted
        .iter()
        .any(|p| truth.iter().any(|&(t, _)| t == *p))
}

/// Support-weighted mean reciprocal rank over covered contexts.
pub fn mean_reciprocal_rank(model: &dyn Recommender, gt: &GroundTruth, k: usize) -> f64 {
    let mut acc = 0.0;
    let mut support = 0u64;
    for e in &gt.entries {
        let recs = model.recommend(&e.context, k);
        if recs.is_empty() {
            continue;
        }
        let predicted: Vec<QueryId> = recs.iter().map(|r| r.query).collect();
        acc += e.support as f64 * reciprocal_rank(&predicted, e.top[0].0);
        support += e.support;
    }
    if support == 0 {
        0.0
    } else {
        acc / support as f64
    }
}

/// Support-weighted hit rate (any truth continuation in the top-k) over
/// covered contexts.
pub fn hit_rate(model: &dyn Recommender, gt: &GroundTruth, k: usize) -> f64 {
    let mut hits = 0u64;
    let mut support = 0u64;
    for e in &gt.entries {
        let recs = model.recommend(&e.context, k);
        if recs.is_empty() {
            continue;
        }
        let predicted: Vec<QueryId> = recs.iter().map(|r| r.query).collect();
        support += e.support;
        if any_hit(&predicted, &e.top) {
            hits += e.support;
        }
    }
    if support == 0 {
        0.0
    } else {
        hits as f64 / support as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_common::seq;
    use sqp_core::Adjacency;
    use sqp_sessions::Aggregated;

    fn q(i: u32) -> QueryId {
        QueryId(i)
    }

    #[test]
    fn reciprocal_rank_positions() {
        assert_eq!(reciprocal_rank(&[q(5)], q(5)), 1.0);
        assert_eq!(reciprocal_rank(&[q(1), q(5)], q(5)), 0.5);
        assert!((reciprocal_rank(&[q(1), q(2), q(5)], q(5)) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(reciprocal_rank(&[q(1), q(2)], q(5)), 0.0);
        assert_eq!(reciprocal_rank(&[], q(5)), 0.0);
    }

    #[test]
    fn any_hit_logic() {
        let truth = vec![(q(1), 5u64), (q(2), 3)];
        assert!(any_hit(&[q(9), q(2)], &truth));
        assert!(!any_hit(&[q(9), q(8)], &truth));
        assert!(!any_hit(&[], &truth));
    }

    #[test]
    fn mrr_and_hit_rate_on_trained_model() {
        let corpus = vec![(seq(&[0, 1]), 10), (seq(&[0, 2]), 5), (seq(&[3, 4]), 2)];
        let adj = Adjacency::train(&corpus);
        let gt = GroundTruth::build(&Aggregated::from_weighted(corpus), 5);
        // Adjacency reproduces its own training distribution perfectly.
        assert!((mean_reciprocal_rank(&adj, &gt, 5) - 1.0).abs() < 1e-12);
        assert!((hit_rate(&adj, &gt, 5) - 1.0).abs() < 1e-12);
        // With k = 1 the second continuation of [0] cannot be hit, but the
        // top one can: MRR@1 stays 1 on covered contexts.
        assert!((mean_reciprocal_rank(&adj, &gt, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_ground_truth() {
        let corpus = vec![(seq(&[0, 1]), 1)];
        let adj = Adjacency::train(&corpus);
        let empty = GroundTruth::build(&Aggregated::default(), 5);
        assert_eq!(mean_reciprocal_rank(&adj, &empty, 5), 0.0);
        assert_eq!(hit_rate(&adj, &empty, 5), 0.0);
    }

    #[test]
    fn orderings_agree_with_ndcg_on_synthetic_corpus() {
        // A model ranking the truth top-1 first must dominate one ranking it
        // last, under both NDCG and MRR.
        let corpus = vec![(seq(&[0, 1]), 8), (seq(&[0, 2]), 4)];
        let gt = GroundTruth::build(&Aggregated::from_weighted(corpus.clone()), 5);
        let adj = Adjacency::train(&corpus);
        let mrr = mean_reciprocal_rank(&adj, &gt, 5);
        let ndcg = crate::overall_ndcg(&adj, &gt, 5);
        assert!(mrr > 0.9 && ndcg > 0.9);
    }
}
