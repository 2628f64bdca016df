//! Coverage evaluation (Figures 10–11) and the unpredictability-reason
//! breakdown (Table VI).
//!
//! Coverage is the support-weighted fraction of test contexts for which a
//! model can produce any recommendation.

use sqp_common::FxHashMap;
use sqp_core::{NGram, Recommender};
use sqp_sessions::{GroundTruth, QueryTrainingIndex, UnpredictableReason};

/// Coverage of one model at one context length.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoveragePoint {
    /// Context length.
    pub(crate) context_len: usize,
    /// Support mass of covered contexts.
    pub covered_support: u64,
    /// Total support mass at this length.
    pub total_support: u64,
}

impl CoveragePoint {
    /// Covered fraction in \[0,1\].
    pub fn fraction(&self) -> f64 {
        if self.total_support == 0 {
            0.0
        } else {
            self.covered_support as f64 / self.total_support as f64
        }
    }
}

/// Coverage per context length `1..=max_len`.
pub fn coverage_by_length(
    model: &dyn Recommender,
    gt: &GroundTruth,
    max_len: usize,
) -> Vec<CoveragePoint> {
    let mut out = Vec::with_capacity(max_len);
    for len in 1..=max_len {
        let mut covered = 0u64;
        let mut total = 0u64;
        for e in gt.by_length(len) {
            total += e.support;
            if model.covers(&e.context) {
                covered += e.support;
            }
        }
        out.push(CoveragePoint {
            context_len: len,
            covered_support: covered,
            total_support: total,
        });
    }
    out
}

/// Overall support-weighted coverage (Figure 10's single bar per method).
pub fn overall_coverage(model: &dyn Recommender, gt: &GroundTruth) -> f64 {
    let mut covered = 0u64;
    let mut total = 0u64;
    for e in &gt.entries {
        total += e.support;
        if model.covers(&e.context) {
            covered += e.support;
        }
    }
    if total == 0 {
        0.0
    } else {
        covered as f64 / total as f64
    }
}

/// Reason counts for one model family (Table VI, measured).
#[derive(Clone, Debug, Default)]
pub struct ReasonCounts {
    /// Support-weighted count per reason.
    pub(crate) counts: FxHashMap<UnpredictableReason, u64>,
    /// Support mass of covered (predictable) contexts.
    pub covered: u64,
    /// Total support mass.
    pub total: u64,
}

impl ReasonCounts {
    fn add(&mut self, reason: Option<UnpredictableReason>, support: u64) {
        self.total += support;
        match reason {
            None => self.covered += support,
            Some(r) => *self.counts.entry(r).or_insert(0) += support,
        }
    }

    /// Support-weighted count of a reason.
    pub fn get(&self, r: UnpredictableReason) -> u64 {
        self.counts.get(&r).copied().unwrap_or(0)
    }
}

/// Measured Table VI: for each model family, why test contexts were
/// unpredictable. The *current query* is the last query of each context; the
/// N-gram additionally fails when the full context is not a trained state.
pub fn reason_analysis(
    gt: &GroundTruth,
    index: &QueryTrainingIndex,
    ngram: &NGram,
) -> Vec<(&'static str, ReasonCounts)> {
    let mut cooc = ReasonCounts::default();
    let mut adj = ReasonCounts::default();
    let mut vmm = ReasonCounts::default();
    let mut ng = ReasonCounts::default();

    for e in &gt.entries {
        let q = *e.context.last().expect("contexts are non-empty");
        let s = e.support;
        cooc.add(index.classify_cooccurrence(q), s);
        let ordered = index.classify(q);
        adj.add(ordered, s);
        vmm.add(ordered, s); // VMM/MVMM coverage is structurally Adjacency's
        let ngram_reason = match ordered {
            Some(r) => Some(r),
            None if !ngram.has_state(&e.context) => Some(UnpredictableReason::ContextNotTrained),
            None => None,
        };
        ng.add(ngram_reason, s);
    }

    vec![
        ("Co-occ.", cooc),
        ("Adj.", adj),
        ("VMM/MVMM", vmm),
        ("N-gram", ng),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_common::seq;
    use sqp_core::{Adjacency, Cooccurrence, Vmm, VmmConfig};
    use sqp_sessions::Aggregated;

    fn train_corpus() -> Vec<(sqp_common::QuerySeq, u64)> {
        vec![
            (seq(&[0, 1]), 10), // 0 followed; 1 last-only
            (seq(&[2]), 5),     // singleton-only
        ]
    }

    fn test_truth() -> GroundTruth {
        // Test contexts: [0] (covered by Adj), [1] (last-only), [2]
        // (singleton-only), [7] (new query), [0,1] length-2.
        GroundTruth::build(
            &Aggregated::from_weighted(vec![
                (seq(&[0, 1]), 8),
                (seq(&[1, 0]), 4),
                (seq(&[2, 0]), 2),
                (seq(&[7, 0]), 1),
                (seq(&[0, 1, 0]), 1),
            ]),
            5,
        )
    }

    #[test]
    fn coverage_numbers() {
        let adj = Adjacency::train(&train_corpus());
        let gt = test_truth();
        // Length-1 contexts and supports: [0]:9, [1]:4, [2]:2, [7]:1 → only
        // [0] covered ⇒ 9/16.
        let pts = coverage_by_length(&adj, &gt, 2);
        assert_eq!(pts[0].total_support, 16);
        assert_eq!(pts[0].covered_support, 9);
        assert!((pts[0].fraction() - 9.0 / 16.0).abs() < 1e-12);
        // Length-2 context [0,1]: last query 1 is never followed ⇒ uncovered.
        assert_eq!(pts[1].covered_support, 0);
    }

    #[test]
    fn cooccurrence_covers_more() {
        let adj = Adjacency::train(&train_corpus());
        let co = Cooccurrence::train(&train_corpus());
        let gt = test_truth();
        assert!(overall_coverage(&co, &gt) > overall_coverage(&adj, &gt));
    }

    #[test]
    fn vmm_coverage_equals_adjacency() {
        // Fig 10's observation, verified end-to-end.
        let adj = Adjacency::train(&train_corpus());
        let vmm = Vmm::train(&train_corpus(), VmmConfig::with_epsilon(0.05));
        let gt = test_truth();
        let a = coverage_by_length(&adj, &gt, 2);
        let v = coverage_by_length(&vmm, &gt, 2);
        assert_eq!(a, v);
    }

    #[test]
    fn reason_table_structure() {
        let gt = test_truth();
        let index =
            sqp_sessions::QueryTrainingIndex::build(&Aggregated::from_weighted(train_corpus()), 3);
        let ngram = sqp_core::NGram::train(&train_corpus());
        let rows = reason_analysis(&gt, &index, &ngram);
        assert_eq!(rows.len(), 4);
        use UnpredictableReason::*;

        let cooc = &rows[0].1;
        // Co-occ fails only on new ([7]:1) and singleton ([2]:2) queries.
        assert_eq!(cooc.get(NewQuery), 1);
        assert_eq!(cooc.get(OnlySingletonSessions), 2);
        assert_eq!(cooc.get(OnlyLastPosition), 0);
        // Contexts ending in 1 are covered for Co-occ: [1]:4 and [0,1]:1,
        // plus [0]:9 ⇒ covered = 14.
        assert_eq!(cooc.covered, 14);

        let adj = &rows[1].1;
        assert_eq!(adj.get(OnlyLastPosition), 5); // [1]:4 + [0,1]:1
        assert_eq!(adj.covered, 9);

        let ng = &rows[3].1;
        // N-gram additionally drops covered contexts that are not trained
        // prefix states: [0] is a state; nothing else qualifies.
        assert_eq!(ng.covered + ng.counts.values().sum::<u64>(), ng.total);
        assert!(ng.covered <= adj.covered);
        assert!(ng.get(ContextNotTrained) > 0 || ng.covered == adj.covered);
    }

    #[test]
    fn empty_ground_truth() {
        let adj = Adjacency::train(&train_corpus());
        let gt = GroundTruth::build(&Aggregated::default(), 5);
        assert_eq!(overall_coverage(&adj, &gt), 0.0);
        let pts = coverage_by_length(&adj, &gt, 2);
        assert_eq!(pts[0].fraction(), 0.0);
    }
}
