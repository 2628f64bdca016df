//! Per-query training statistics for the unpredictability analysis
//! (the paper's Table VI).
//!
//! Table VI lists "the main reasons for which a test query q cannot be
//! predicted given user context s" — here `q` is the *current* query (the
//! last query of the context) and "predicted" means the model can produce
//! any recommendation list at all:
//!
//! * (1) `q` never occurs in the (reduced) training data — kills every model;
//! * (2) `q` occurs only in training sessions of length one — it co-occurs
//!   with nothing and follows/precedes nothing;
//! * (3) `q` only appears at the **last** position of training sessions — it
//!   is never followed by anything, so Adjacency/VMM/MVMM/N-gram have no
//!   continuation evidence, while Co-occurrence still works;
//! * (4) the whole context is not a trained N-gram state (N-gram only; a
//!   property of the context, classified by the evaluator).

use crate::aggregate::Aggregated;
use sqp_common::QueryId;

/// Why a model cannot produce a prediction (Table VI).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnpredictableReason {
    /// (1) the query is new — it never occurs in the (reduced) training data.
    NewQuery,
    /// (2) the query occurs only in training sessions of length one.
    OnlySingletonSessions,
    /// (3) the query only appears at the last position of training sessions.
    OnlyLastPosition,
    /// (4) the user context is not a trained N-gram state (N-gram only).
    ContextNotTrained,
}

impl UnpredictableReason {
    /// Table VI row label.
    pub fn label(self) -> &'static str {
        match self {
            UnpredictableReason::NewQuery => "(1) q is a new query",
            UnpredictableReason::OnlySingletonSessions => {
                "(2) q only appears in training sessions of length one"
            }
            UnpredictableReason::OnlyLastPosition => {
                "(3) q only appears at the last position of training sessions"
            }
            UnpredictableReason::ContextNotTrained => {
                "(4) user context s is not a trained N-gram state"
            }
        }
    }

    /// All reason codes, in Table VI order.
    pub const ALL: [UnpredictableReason; 4] = [
        UnpredictableReason::NewQuery,
        UnpredictableReason::OnlySingletonSessions,
        UnpredictableReason::OnlyLastPosition,
        UnpredictableReason::ContextNotTrained,
    ];
}

/// Occurrence statistics for every query in the (reduced) training corpus.
#[derive(Clone, Debug)]
pub struct QueryTrainingIndex {
    /// Total weighted occurrences per query id.
    total: Vec<u64>,
    /// Occurrences inside sessions of length ≥ 2.
    in_multi: Vec<u64>,
    /// Occurrences at a non-last position of a length ≥ 2 session, i.e. the
    /// query is observed being *followed* by something.
    followed: Vec<u64>,
    /// Occurrences at positions ≥ 1, i.e. the query is observed as a
    /// *successor* (it can be the target of a recommendation).
    as_successor: Vec<u64>,
}

impl QueryTrainingIndex {
    /// Build over the (reduced) training corpus. `n_queries` must cover every
    /// id interned at build time; later (test-only) ids are reported as new.
    pub fn build(train: &Aggregated, n_queries: usize) -> Self {
        let mut idx = QueryTrainingIndex {
            total: vec![0; n_queries],
            in_multi: vec![0; n_queries],
            followed: vec![0; n_queries],
            as_successor: vec![0; n_queries],
        };
        for (s, f) in &train.sessions {
            for (pos, q) in s.iter().enumerate() {
                let i = q.index();
                idx.total[i] += f;
                if s.len() >= 2 {
                    idx.in_multi[i] += f;
                    if pos + 1 < s.len() {
                        idx.followed[i] += f;
                    }
                    if pos >= 1 {
                        idx.as_successor[i] += f;
                    }
                }
            }
        }
        idx
    }

    /// Structural reason no session-ordered model (Adjacency, VMM, MVMM,
    /// N-gram) can predict anything when the current query is `q`, or `None`
    /// when prediction is possible in principle. Reasons are checked in
    /// Table VI order (1) → (3).
    pub fn classify(&self, q: QueryId) -> Option<UnpredictableReason> {
        let i = q.index();
        if i >= self.total.len() || self.total[i] == 0 {
            return Some(UnpredictableReason::NewQuery);
        }
        if self.in_multi[i] == 0 {
            return Some(UnpredictableReason::OnlySingletonSessions);
        }
        if self.followed[i] == 0 {
            return Some(UnpredictableReason::OnlyLastPosition);
        }
        None
    }

    /// Like [`classify`](Self::classify) but for Co-occurrence, which ignores
    /// order: only reasons (1) and (2) apply.
    pub fn classify_cooccurrence(&self, q: QueryId) -> Option<UnpredictableReason> {
        let i = q.index();
        if i >= self.total.len() || self.total[i] == 0 {
            return Some(UnpredictableReason::NewQuery);
        }
        if self.in_multi[i] == 0 {
            return Some(UnpredictableReason::OnlySingletonSessions);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregated;
    use sqp_common::{seq, QueryId};

    fn corpus() -> Aggregated {
        Aggregated::from_weighted(vec![
            (seq(&[0, 1, 2]), 5), // 0 leads, 1 mid, 2 last
            (seq(&[3]), 7),       // singleton only
            (seq(&[4, 2]), 2),    // 4 leads, 2 last again
        ])
    }

    #[test]
    fn occurrence_accounting() {
        let idx = QueryTrainingIndex::build(&corpus(), 6);
        assert_eq!(idx.total[0], 5);
        assert_eq!(idx.total[2], 7);
        assert_eq!(idx.total[3], 7);
        assert_eq!(idx.total[5], 0);
        assert_eq!(idx.total.len(), 6);
    }

    #[test]
    fn followed_and_successor_counts() {
        let idx = QueryTrainingIndex::build(&corpus(), 6);
        assert_eq!(idx.followed[0], 5);
        assert_eq!(idx.followed[1], 5);
        assert_eq!(idx.followed[2], 0); // always last
        assert_eq!(idx.as_successor[2], 7);
        assert_eq!(idx.as_successor[0], 0);
    }

    #[test]
    fn classify_reasons_in_order() {
        let idx = QueryTrainingIndex::build(&corpus(), 6);
        use UnpredictableReason::*;
        // 5 never occurs; 9 out of range.
        assert_eq!(idx.classify(QueryId(5)), Some(NewQuery));
        assert_eq!(idx.classify(QueryId(9)), Some(NewQuery));
        // 3 only in a singleton session.
        assert_eq!(idx.classify(QueryId(3)), Some(OnlySingletonSessions));
        // 2 appears only at last positions: never followed.
        assert_eq!(idx.classify(QueryId(2)), Some(OnlyLastPosition));
        // 0, 1, 4 are followed by something: predictable.
        assert_eq!(idx.classify(QueryId(0)), None);
        assert_eq!(idx.classify(QueryId(1)), None);
        assert_eq!(idx.classify(QueryId(4)), None);
    }

    #[test]
    fn cooccurrence_ignores_position() {
        let idx = QueryTrainingIndex::build(&corpus(), 6);
        use UnpredictableReason::*;
        // 2 is fine for co-occurrence (it co-occurs with 0, 1, 4)…
        assert_eq!(idx.classify_cooccurrence(QueryId(2)), None);
        // …but singleton-only and unseen queries still fail.
        assert_eq!(
            idx.classify_cooccurrence(QueryId(3)),
            Some(OnlySingletonSessions)
        );
        assert_eq!(idx.classify_cooccurrence(QueryId(5)), Some(NewQuery));
    }

    #[test]
    fn reason_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            UnpredictableReason::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
