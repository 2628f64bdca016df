//! The Co-occurrence pair-wise baseline.
//!
//! §V-B of the paper: *"Given a test query q, this method computes a ranked
//! list of queries that co-occurs with q in the training set"* — the approach
//! of Huang et al. for real-time term suggestion. Order inside the session is
//! ignored, which buys this baseline the best raw coverage (Fig 10) at the
//! cost of the worst accuracy (Fig 8).

use crate::model::{Recommender, WeightedSessions};
use crate::pairs::PairTable;
use sqp_common::topk::Scored;
use sqp_common::{Counter, FxHashMap, QueryId};

/// Co-occurrence model: `q → queries sharing a session with q`, ranked.
pub struct Cooccurrence {
    /// `pub(crate)` so [`crate::persist`] can round-trip the count table.
    pub(crate) pairs: PairTable,
}

impl Cooccurrence {
    /// Count all ordered position pairs `(s[i], s[j])`, `i ≠ j`, of distinct
    /// queries within each session, weighted by session frequency. Both
    /// directions are counted, so lookups are symmetric.
    pub fn train(sessions: &WeightedSessions) -> Self {
        let mut counts: FxHashMap<QueryId, Counter<QueryId>> = FxHashMap::default();
        for (s, f) in sessions {
            for i in 0..s.len() {
                for j in 0..s.len() {
                    if i != j && s[i] != s[j] {
                        counts.entry(s[i]).or_default().add(s[j], *f);
                    }
                }
            }
        }
        Cooccurrence {
            pairs: PairTable::rank(counts),
        }
    }
}

impl Recommender for Cooccurrence {
    fn name(&self) -> &str {
        "Co-occ."
    }

    fn recommend_into(&self, context: &[QueryId], k: usize, out: &mut Vec<Scored>) {
        self.pairs.recommend_into(context, k, out);
    }

    fn covers(&self, context: &[QueryId]) -> bool {
        self.pairs.covers(context)
    }

    fn memory_bytes(&self) -> usize {
        self.pairs.heap_bytes()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_common::seq;

    fn model() -> Cooccurrence {
        Cooccurrence::train(&[
            (seq(&[0, 1, 2]), 2), // pairs: 0-1, 0-2, 1-2 (both directions)
            (seq(&[2, 0]), 1),    // 2-0
            (seq(&[5]), 4),       // no pairs
        ])
    }

    #[test]
    fn symmetric_counts() {
        let m = model();
        let zero: Vec<_> = m.pairs.row(QueryId(0)).to_vec();
        // 0 with 1 (weight 2), 0 with 2 (weight 2 + 1 = 3).
        assert_eq!(zero, vec![(QueryId(2), 3), (QueryId(1), 2)]);
        let two: Vec<_> = m.pairs.row(QueryId(2)).to_vec();
        assert_eq!(two, vec![(QueryId(0), 3), (QueryId(1), 2)]);
    }

    #[test]
    fn order_is_ignored() {
        // 2 appears only at the last position in session [0,1,2] — Adjacency
        // cannot predict from it, but Co-occurrence can.
        let m = model();
        assert!(m.covers(&seq(&[2])));
        let recs = m.recommend(&seq(&[2]), 5);
        assert_eq!(recs[0].query, QueryId(0));
    }

    #[test]
    fn repeated_queries_do_not_self_pair() {
        let m = Cooccurrence::train(&[(seq(&[7, 7]), 3)]);
        assert!(m.pairs.row(QueryId(7)).is_empty());
    }

    #[test]
    fn singleton_sessions_contribute_nothing() {
        let m = model();
        assert!(m.recommend(&seq(&[5]), 5).is_empty());
        assert!(!m.covers(&seq(&[5])));
    }

    #[test]
    fn recommend_respects_k_and_empty_context() {
        let m = model();
        assert_eq!(m.recommend(&seq(&[0]), 1).len(), 1);
        assert!(m.recommend(&[], 3).is_empty());
    }

    #[test]
    fn coverage_superset_of_adjacency() {
        // Structural property from the paper's Table VI: anything Adjacency
        // covers, Co-occurrence covers too.
        let sessions = vec![
            (seq(&[0, 1, 2]), 5),
            (seq(&[3, 4]), 2),
            (seq(&[9]), 1),
            (seq(&[4, 3]), 1),
        ];
        let adj = crate::adjacency::Adjacency::train(&sessions);
        let co = Cooccurrence::train(&sessions);
        for q in 0..10u32 {
            let ctx = seq(&[q]);
            if adj.covers(&ctx) {
                assert!(co.covers(&ctx), "q{q} covered by Adj but not Co-occ");
            }
        }
    }
}
