//! The naive variable-length N-gram model — §IV-A of the paper.
//!
//! For a user who has issued `i−1` queries, the `i`-gram model is selected
//! and the **entire** context must match a trained state. Training states are
//! the session *prefix* contexts of §V-A.5 ("Aggregating Training Contexts"):
//! from `[q1..q5]` with frequency 10 come the states `[q1]`, `[q1,q2]`,
//! `[q1,q2,q3]`, `[q1..q4]`, each predicting its following query with support
//! 10. Sticking to the maximum-length context is what gives this model its
//! slightly higher precision and its catastrophic coverage decay (Fig 11).
//!
//! The model is its prefix trie: the count of prefix `q1..qk` followed by
//! `q` is the count of the prefix `q1..qk·q`, so the continuations of a
//! state are its node's children, best first by the trie's rank (count
//! descending, ties by ascending id).

use crate::model::{Recommender, SequenceScorer, WeightedSessions};
use sqp_common::arena::{FlatSessions, Starts, SuffixTrie};
use sqp_common::topk::Scored;
use sqp_common::QueryId;
use std::sync::Arc;

/// Variable-length N-gram model over full prefix contexts.
pub struct NGram {
    /// The trie of session prefixes, every node's total its at-start
    /// count. `pub(crate)` so [`crate::persist`] can round-trip it.
    pub(crate) trie: Arc<SuffixTrie>,
}

impl NGram {
    /// Train the family of N-gram models (one per context length) in one
    /// count of every session prefix.
    pub fn train(sessions: &WeightedSessions) -> Self {
        let flat = FlatSessions::new(sessions.iter().map(|(s, f)| (&s[..], *f)));
        // A state is at most one query shorter than its session.
        let states = flat.longest().saturating_sub(1) as u32;
        let every_id = 0..u32::MAX;
        let trie = SuffixTrie::count(&flat, states, &[every_id], Starts::SessionStart);
        NGram {
            trie: Arc::new(trie),
        }
    }

    /// The trie node of `context` when it is a trained state: a non-empty
    /// prefix some session continues.
    fn state(&self, context: &[QueryId]) -> Option<u32> {
        if context.is_empty() {
            return None;
        }
        self.trie
            .window(context)
            .filter(|&node| self.trie.cont_total(node) > 0)
    }

    /// Whether `context` is a trained state (Table VI reason 4 checks this).
    pub fn has_state(&self, context: &[QueryId]) -> bool {
        self.state(context).is_some()
    }
}

impl Recommender for NGram {
    fn name(&self) -> &str {
        "N-gram"
    }

    fn recommend_into(&self, context: &[QueryId], k: usize, out: &mut Vec<Scored>) {
        out.clear();
        if let Some(node) = self.state(context) {
            let (keys, totals) = self.trie.continuations(node);
            let best = self.trie.rank(node).iter().take(k).map(|&i| i as usize);
            out.extend(best.map(|i| Scored::new(keys[i], totals[i] as f64)));
        }
    }

    fn covers(&self, context: &[QueryId]) -> bool {
        self.has_state(context)
    }

    fn memory_bytes(&self) -> usize {
        self.trie.heap_bytes()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl SequenceScorer for NGram {
    fn sequence_log10_prob(&self, seq: &[QueryId]) -> f64 {
        let mut lp = 0.0;
        for i in 1..seq.len() {
            let state = self.state(&seq[..i]);
            match state.and_then(|node| Some((node, self.trie.child(node, seq[i])?))) {
                Some((node, next)) => {
                    let (c, t) = (self.trie.total(next), self.trie.cont_total(node));
                    lp += (c as f64 / t as f64).log10();
                }
                // Untrained state or unseen continuation: the naive N-gram
                // simply has no estimate; charge a floor so log-loss stays
                // finite and comparable.
                None => lp += (1e-9f64).log10(),
            }
        }
        lp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_common::seq;

    /// The ranked continuations of an exact state, read off the trie.
    fn continuations(m: &NGram, context: &[QueryId]) -> Vec<(QueryId, u64)> {
        let Some(node) = m.state(context) else {
            return Vec::new();
        };
        let (keys, totals) = m.trie.continuations(node);
        let best = m.trie.rank(node).iter().map(|&i| i as usize);
        best.map(|i| (keys[i], totals[i])).collect()
    }

    fn model() -> NGram {
        NGram::train(&[
            (seq(&[0, 1, 2]), 6), // states [0]→1, [0,1]→2
            (seq(&[0, 2]), 2),    // state [0]→2
            (seq(&[1, 2, 3, 4]), 1),
        ])
    }

    #[test]
    fn prefix_states_only() {
        let m = model();
        // [0] trained with both continuations.
        assert_eq!(
            continuations(&m, &seq(&[0])),
            [(QueryId(1), 6), (QueryId(2), 2)]
        );
        // [1] appears mid-session in [0,1,2] but IS a prefix of [1,2,3,4].
        assert_eq!(continuations(&m, &seq(&[1])), [(QueryId(2), 1)]);
        // [1,2] is a prefix state of the long session.
        assert_eq!(continuations(&m, &seq(&[1, 2])), [(QueryId(3), 1)]);
        // But [2] alone is never a prefix.
        assert!(!m.has_state(&seq(&[2])));
    }

    #[test]
    fn full_context_must_match() {
        let m = model();
        // The user context [5,0] is not a trained state even though [0] is:
        // the naive model "sticks to the maximum length context".
        assert!(m.recommend(&seq(&[5, 0]), 5).is_empty());
        assert!(!m.covers(&seq(&[5, 0])));
        // Exact state matches work at any order.
        assert_eq!(m.recommend(&seq(&[0, 1]), 5)[0].query, QueryId(2));
        assert_eq!(m.recommend(&seq(&[1, 2, 3]), 5)[0].query, QueryId(4));
    }

    #[test]
    fn max_order_reported() {
        let m = model();
        // A state is at most one query shorter than the longest session.
        assert_eq!(m.trie.window_len(), 3);
        // [0],[1],[0,1],[1,2],[1,2,3]
        let states = (1..m.trie.len() as u32).filter(|&n| m.trie.cont_total(n) > 0);
        assert_eq!(states.count(), 5);
        // Every node counts sessions that start with its prefix.
        for node in 0..m.trie.len() as u32 {
            assert_eq!(m.trie.at_start(node), m.trie.total(node));
        }
    }

    #[test]
    fn empty_context_uncovered() {
        let m = model();
        assert!(m.recommend(&[], 5).is_empty());
        assert!(!m.covers(&[]));
    }

    #[test]
    fn sequence_log_prob() {
        let m = model();
        // P(1|[0]) = 6/8, P(2|[0,1]) = 1.
        let lp = m.sequence_log10_prob(&seq(&[0, 1, 2]));
        assert!((lp - (0.75f64).log10()).abs() < 1e-12);
        // Unknown transitions hit the floor.
        let lp2 = m.sequence_log10_prob(&seq(&[2, 0]));
        assert!(lp2 <= (1e-9f64).log10() + 1e-9);
    }

    #[test]
    fn respects_k() {
        let m = model();
        assert_eq!(m.recommend(&seq(&[0]), 1).len(), 1);
        assert_eq!(m.recommend(&seq(&[0]), 10).len(), 2);
    }
}
