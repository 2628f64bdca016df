//! The Adjacency pair-wise baseline.
//!
//! §V-B of the paper: *"Given a test query q, this method computes a ranked
//! list of queries that immediately follows q in the training set"* — the
//! approach of Jones et al. for query substitution. Only the most recent
//! query of the context is consulted; all earlier history is discarded.

use crate::model::{Recommender, WeightedSessions};
use crate::pairs::PairTable;
use sqp_common::topk::Scored;
use sqp_common::{Counter, FxHashMap, QueryId};

/// Adjacency model: `q → ranked successors of q`.
pub struct Adjacency {
    /// `pub(crate)` so [`crate::persist`] can round-trip the count table.
    pub(crate) pairs: PairTable,
}

impl Adjacency {
    /// Count adjacent pairs at every session position.
    pub fn train(sessions: &WeightedSessions) -> Self {
        let mut counts: FxHashMap<QueryId, Counter<QueryId>> = FxHashMap::default();
        for (s, f) in sessions {
            for w in s.windows(2) {
                counts.entry(w[0]).or_default().add(w[1], *f);
            }
        }
        Adjacency {
            pairs: PairTable::rank(counts),
        }
    }
}

impl Recommender for Adjacency {
    fn name(&self) -> &str {
        "Adj."
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

    fn model() -> Adjacency {
        Adjacency::train(&[
            (seq(&[0, 1, 2]), 5), // 0→1, 1→2
            (seq(&[0, 2]), 3),    // 0→2
            (seq(&[3]), 9),       // no pairs
        ])
    }

    #[test]
    fn counts_adjacent_pairs_weighted() {
        let m = model();
        assert_eq!(m.pairs.row(QueryId(0)), &[(QueryId(1), 5), (QueryId(2), 3)]);
        assert_eq!(m.pairs.row(QueryId(1)), &[(QueryId(2), 5)]);
        assert!(m.pairs.row(QueryId(2)).is_empty());
        assert!(m.pairs.row(QueryId(3)).is_empty());
    }

    #[test]
    fn recommend_uses_last_query_only() {
        let m = model();
        let recs = m.recommend(&seq(&[9, 9, 0]), 5);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].query, QueryId(1));
        assert_eq!(recs[1].query, QueryId(2));
    }

    #[test]
    fn truncates_to_k() {
        let m = model();
        assert_eq!(m.recommend(&seq(&[0]), 1).len(), 1);
    }

    #[test]
    fn uncovered_cases() {
        let m = model();
        assert!(m.recommend(&seq(&[2]), 5).is_empty()); // only at last position
        assert!(m.recommend(&seq(&[3]), 5).is_empty()); // singleton sessions
        assert!(m.recommend(&seq(&[42]), 5).is_empty()); // unknown
        assert!(m.recommend(&[], 5).is_empty());
        assert!(!m.covers(&seq(&[2])));
        assert!(m.covers(&seq(&[1])));
    }

    #[test]
    fn ties_break_by_ascending_id() {
        let m = Adjacency::train(&[(seq(&[0, 5]), 2), (seq(&[0, 3]), 2)]);
        assert_eq!(m.pairs.row(QueryId(0)), &[(QueryId(3), 2), (QueryId(5), 2)]);
    }

    #[test]
    fn memory_grows_with_vocabulary() {
        let small = model();
        let big = Adjacency::train(
            &(0..200u32)
                .map(|i| (seq(&[i, i + 1000]), 1))
                .collect::<Vec<_>>(),
        );
        assert!(big.memory_bytes() > small.memory_bytes());
    }
}
