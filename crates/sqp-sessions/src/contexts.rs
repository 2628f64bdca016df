//! Training contexts and test ground truth — the paper's §V-A.5/6.
//!
//! From an aggregated session `[q1..q5]` with frequency 10, four prefix
//! contexts are derived — `[q1]`, `[q1,q2]`, `[q1,q2,q3]`, `[q1..q4]` — each
//! supporting the prediction of the following query with weight 10. The same
//! construction over the *test* corpus, keeping the top-n next queries per
//! context, is the ground truth for the accuracy experiments.

use crate::aggregate::Aggregated;
use sqp_common::{Counter, FxHashMap, QueryId, QuerySeq};

/// Prefix-context table: context → next-query counts.
#[derive(Clone, Debug, Default)]
pub(crate) struct ContextTable {
    map: FxHashMap<QuerySeq, Counter<QueryId>>,
}

impl ContextTable {
    /// Build from aggregated sessions.
    pub(crate) fn build(agg: &Aggregated) -> Self {
        let mut map: FxHashMap<QuerySeq, Counter<QueryId>> = FxHashMap::default();
        for (s, f) in &agg.sessions {
            for i in 1..s.len() {
                let ctx: QuerySeq = s[..i].into();
                map.entry(ctx).or_default().add(s[i], *f);
            }
        }
        ContextTable { map }
    }

    /// Iterate `(context, next-query counter)` pairs (arbitrary order).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&QuerySeq, &Counter<QueryId>)> {
        self.map.iter()
    }
}

/// One evaluable test context with its top-n continuation ranking.
#[derive(Clone, Debug)]
pub struct GroundTruthEntry {
    /// The user context (session prefix).
    pub context: QuerySeq,
    /// How many test sessions contain this context (evaluation weight).
    pub support: u64,
    /// Top-n next queries by test frequency, best first. Ratings for NDCG
    /// are assigned positionally: 5, 4, 3, 2, 1.
    pub top: Vec<(QueryId, u64)>,
}

/// Ground truth for the accuracy/coverage experiments.
#[derive(Clone, Debug, Default)]
pub struct GroundTruth {
    /// Entries sorted by (context length, context) for determinism.
    pub entries: Vec<GroundTruthEntry>,
}

impl GroundTruth {
    /// Build from the (reduced) test corpus, keeping `n` continuations per
    /// context (the paper sets n = 5).
    pub fn build(test: &Aggregated, n: usize) -> Self {
        let table = ContextTable::build(test);
        let mut entries: Vec<GroundTruthEntry> = table
            .iter()
            .map(|(ctx, counter)| {
                let ranked =
                    sqp_common::topk::top_k_counts(counter.iter().map(|(&q, c)| (q, c)), n);
                GroundTruthEntry {
                    context: ctx.clone(),
                    support: counter.total(),
                    top: ranked.iter().map(|s| (s.query, s.score as u64)).collect(),
                }
            })
            .collect();
        entries.sort_unstable_by(|a, b| {
            a.context
                .len()
                .cmp(&b.context.len())
                .then_with(|| a.context.cmp(&b.context))
        });
        GroundTruth { entries }
    }

    /// Entries with a given context length.
    pub fn by_length(&self, len: usize) -> impl Iterator<Item = &GroundTruthEntry> {
        self.entries.iter().filter(move |e| e.context.len() == len)
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no context has ground truth.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_common::seq;

    fn corpus() -> Aggregated {
        Aggregated::from_weighted(vec![
            (seq(&[0, 1, 2]), 10),
            (seq(&[0, 1, 3]), 6),
            (seq(&[0, 2]), 4),
            (seq(&[4]), 9),
        ])
    }

    #[test]
    fn prefix_contexts_carry_session_frequency() {
        let table = ContextTable::build(&corpus());
        // Context [0]: next 1 (10+6=16), next 2 (4).
        let c0 = table.map.get(&seq(&[0])).unwrap();
        assert_eq!(c0.get(&sqp_common::QueryId(1)), 16);
        assert_eq!(c0.get(&sqp_common::QueryId(2)), 4);
        // Context [0,1]: next 2 (10), next 3 (6).
        let c01 = table.map.get(&seq(&[0, 1])).unwrap();
        assert_eq!(c01.get(&sqp_common::QueryId(2)), 10);
        assert_eq!(c01.get(&sqp_common::QueryId(3)), 6);
        // Length-1 sessions contribute no contexts.
        assert!(!table.map.contains_key(&seq(&[4])));
        assert_eq!(table.map.len(), 2);
    }

    #[test]
    fn contexts_are_prefixes_only() {
        let table = ContextTable::build(&corpus());
        // [1] appears mid-session but never as a prefix context.
        assert!(!table.map.contains_key(&seq(&[1])));
    }

    #[test]
    fn ground_truth_ranks_by_frequency() {
        let gt = GroundTruth::build(&corpus(), 5);
        let e0 = gt
            .entries
            .iter()
            .find(|e| e.context.as_ref() == seq(&[0]).as_ref())
            .unwrap();
        assert_eq!(e0.support, 20);
        assert_eq!(e0.top[0].0 .0, 1);
        assert_eq!(e0.top[0].1, 16);
        assert_eq!(e0.top[1].0 .0, 2);
    }

    #[test]
    fn ground_truth_truncates_to_n() {
        let many = Aggregated::from_weighted(
            (1..=8u32)
                .map(|i| (seq(&[0, i]), u64::from(10 - i)))
                .collect(),
        );
        let gt = GroundTruth::build(&many, 5);
        assert_eq!(gt.entries.len(), 1);
        assert_eq!(gt.entries[0].top.len(), 5);
        assert_eq!(gt.entries[0].top[0].0 .0, 1); // highest frequency
    }

    #[test]
    fn ground_truth_sorted_and_filterable_by_length() {
        let gt = GroundTruth::build(&corpus(), 5);
        assert_eq!(gt.by_length(1).count(), 1);
        assert_eq!(gt.by_length(2).count(), 1);
        assert_eq!(gt.entries.last().map(|e| e.context.len()), Some(2));
        for w in gt.entries.windows(2) {
            assert!(w[0].context.len() <= w[1].context.len());
        }
    }

    #[test]
    fn empty_corpus_gives_empty_truth() {
        let gt = GroundTruth::build(&Aggregated::default(), 5);
        assert_eq!(gt.len(), 0);
    }
}
