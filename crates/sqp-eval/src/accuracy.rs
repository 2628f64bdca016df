//! Accuracy evaluation: NDCG@{1,3,5} per context length (Figures 8 and 9).
//!
//! Convention (matching the paper's separate reporting of accuracy and
//! coverage): NDCG is averaged — support-weighted — over the contexts the
//! model *covers*; uncovered contexts are excluded here and accounted for by
//! the coverage metric instead. This is what lets the N-gram model show high
//! accuracy (Fig 8) while its coverage collapses (Fig 11).

use crate::ndcg::ndcg_at;
use sqp_common::QueryId;
use sqp_core::Recommender;
use sqp_sessions::GroundTruth;

/// Accuracy of one model at one context length.
#[derive(Clone, Debug)]
pub struct AccuracyPoint {
    /// Context length (number of past queries).
    pub context_len: usize,
    /// Support-weighted mean NDCG@1 over covered contexts.
    pub ndcg1: f64,
    /// Support-weighted mean NDCG@3.
    pub ndcg3: f64,
    /// Support-weighted mean NDCG@5.
    pub ndcg5: f64,
    /// Distinct covered contexts contributing.
    pub covered_contexts: usize,
    /// Support mass of the covered contexts.
    pub covered_support: u64,
}

/// Evaluate a model over ground truth contexts of lengths `1..=max_len`.
pub fn evaluate_accuracy(
    model: &dyn Recommender,
    gt: &GroundTruth,
    max_len: usize,
) -> Vec<AccuracyPoint> {
    let mut out = Vec::with_capacity(max_len);
    for len in 1..=max_len {
        let mut w1 = 0.0;
        let mut w3 = 0.0;
        let mut w5 = 0.0;
        let mut support = 0u64;
        let mut contexts = 0usize;
        for e in gt.by_length(len) {
            let recs = model.recommend(&e.context, 5);
            if recs.is_empty() {
                continue;
            }
            let predicted: Vec<QueryId> = recs.iter().map(|s| s.query).collect();
            let w = e.support as f64;
            w1 += w * ndcg_at(&predicted, &e.top, 1);
            w3 += w * ndcg_at(&predicted, &e.top, 3);
            w5 += w * ndcg_at(&predicted, &e.top, 5);
            support += e.support;
            contexts += 1;
        }
        let denom = support.max(1) as f64;
        out.push(AccuracyPoint {
            context_len: len,
            ndcg1: w1 / denom,
            ndcg3: w3 / denom,
            ndcg5: w5 / denom,
            covered_contexts: contexts,
            covered_support: support,
        });
    }
    out
}

/// Support-weighted overall NDCG@n across all covered contexts (no length
/// grouping) — a convenient scalar for regression tests.
pub fn overall_ndcg(model: &dyn Recommender, gt: &GroundTruth, n: usize) -> f64 {
    let mut acc = 0.0;
    let mut support = 0u64;
    for e in &gt.entries {
        let recs = model.recommend(&e.context, 5);
        if recs.is_empty() {
            continue;
        }
        let predicted: Vec<QueryId> = recs.iter().map(|s| s.query).collect();
        acc += e.support as f64 * ndcg_at(&predicted, &e.top, n);
        support += e.support;
    }
    if support == 0 {
        0.0
    } else {
        acc / support as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_common::seq;
    use sqp_core::{Adjacency, Vmm, VmmConfig};
    use sqp_sessions::Aggregated;

    fn corpus() -> Vec<(sqp_common::QuerySeq, u64)> {
        vec![
            (seq(&[0, 1]), 30),
            (seq(&[0, 2]), 10),
            (seq(&[0, 1, 2]), 5),
            (seq(&[3, 0, 1]), 4),
        ]
    }

    fn truth() -> GroundTruth {
        GroundTruth::build(&Aggregated::from_weighted(corpus()), 5)
    }

    #[test]
    fn adjacency_scores_well_on_its_own_distribution() {
        let adj = Adjacency::train(&corpus());
        let pts = evaluate_accuracy(&adj, &truth(), 3);
        assert_eq!(pts.len(), 3);
        // Length-1 contexts: [0] and [3]; Adjacency ranks 1 above 2 for [0],
        // matching the truth: NDCG should be 1.
        assert!(pts[0].ndcg1 > 0.99, "ndcg1 = {}", pts[0].ndcg1);
        assert!(pts[0].covered_contexts >= 2);
    }

    #[test]
    fn vmm_at_least_matches_adjacency_here() {
        let adj = Adjacency::train(&corpus());
        let vmm = Vmm::train(&corpus(), VmmConfig::with_epsilon(0.0));
        let a = overall_ndcg(&adj, &truth(), 5);
        let v = overall_ndcg(&vmm, &truth(), 5);
        assert!(v >= a - 1e-9, "vmm {v} < adj {a}");
    }

    #[test]
    fn uncovered_contexts_are_excluded() {
        // A model covering nothing has zero covered contexts, NDCG 0.
        struct Never;
        impl Recommender for Never {
            fn name(&self) -> &str {
                "never"
            }
            fn recommend_into(
                &self,
                _: &[sqp_common::QueryId],
                _: usize,
                out: &mut Vec<sqp_common::topk::Scored>,
            ) {
                out.clear();
            }
            fn covers(&self, _: &[sqp_common::QueryId]) -> bool {
                false
            }
            fn memory_bytes(&self) -> usize {
                0
            }
        }
        let pts = evaluate_accuracy(&Never, &truth(), 2);
        for p in &pts {
            assert_eq!(p.covered_contexts, 0);
            assert_eq!(p.ndcg5, 0.0);
        }
        assert_eq!(overall_ndcg(&Never, &truth(), 5), 0.0);
    }

    #[test]
    fn support_weighting_prefers_heavy_contexts() {
        // A model that only answers the heavy context [0] must outscore one
        // that only answers the light context [3,0] at the same accuracy…
        // proxied by comparing covered_support.
        let adj = Adjacency::train(&corpus());
        let pts = evaluate_accuracy(&adj, &truth(), 2);
        assert!(pts[0].covered_support > pts[1].covered_support);
    }
}
