//! The pre-arena window counter, kept as a reference implementation.
//!
//! This is the hashmap-of-owned-sequences algorithm the arena suffix trie
//! replaced: every O(L²) window of every session is materialized as an owned
//! `Box<[QueryId]>` key and re-hashed in full. It exists for equivalence
//! testing: the trie counter must reproduce these counts exactly
//! (`tests/counting_equivalence.rs`).

use sqp_common::{Counter, FxHashMap, FxHashSet, QueryId, QuerySeq};

/// Counts for one window under the baseline layout.
#[derive(Clone, Debug, Default)]
pub(crate) struct BaselineEntry {
    /// Weighted occurrences of the window anywhere in a session.
    pub total: u64,
    /// Weighted occurrences at the very start of a session.
    pub at_start: u64,
    /// Weighted counts of the query immediately following the window.
    pub next: Counter<QueryId>,
}

/// The baseline counter: one owned-key hashmap entry per distinct window.
#[derive(Debug)]
pub(crate) struct BaselineWindowCounts {
    /// Window → statistics.
    pub entries: FxHashMap<QuerySeq, BaselineEntry>,
    /// Prior (root) distribution: weighted occurrences of every query.
    pub root_next: Counter<QueryId>,
    /// Number of distinct queries in the corpus.
    pub n_queries: usize,
    /// Total weighted sessions.
    pub total_sessions: u64,
    /// Total weighted query occurrences.
    pub total_occurrences: u64,
    /// Longest window length counted.
    pub max_len: usize,
}

impl BaselineWindowCounts {
    /// Count windows of length `1..=max_len` over weighted sessions,
    /// exactly as the seed implementation did.
    pub(crate) fn build(sessions: &[(QuerySeq, u64)], max_len: Option<usize>) -> Self {
        let longest = sessions.iter().map(|(s, _)| s.len()).max().unwrap_or(0);
        let max_len = max_len.unwrap_or(longest).min(longest.max(1));

        let mut entries: FxHashMap<QuerySeq, BaselineEntry> = FxHashMap::default();
        let mut root_next = Counter::new();
        let mut distinct: FxHashSet<QueryId> = FxHashSet::default();
        let mut total_sessions = 0u64;
        let mut total_occurrences = 0u64;

        for (s, f) in sessions {
            total_sessions += f;
            for &q in s.iter() {
                distinct.insert(q);
                root_next.add(q, *f);
                total_occurrences += f;
            }
            for start in 0..s.len() {
                let limit = max_len.min(s.len() - start);
                for win_len in 1..=limit {
                    let w: QuerySeq = s[start..start + win_len].into();
                    let e = entries.entry(w).or_default();
                    e.total += f;
                    if start == 0 {
                        e.at_start += f;
                    }
                    if start + win_len < s.len() {
                        e.next.add(s[start + win_len], *f);
                    }
                }
            }
        }

        BaselineWindowCounts {
            entries,
            root_next,
            n_queries: distinct.len(),
            total_sessions,
            total_occurrences,
            max_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_common::seq;

    #[test]
    fn matches_the_seed_toy_numbers() {
        // The Table II corpus, inlined (sqp-core is a sibling dependency).
        let corpus: Vec<(QuerySeq, u64)> = vec![
            (seq(&[1, 0, 0]), 3),
            (seq(&[1, 0, 1]), 7),
            (seq(&[0, 0]), 78),
            (seq(&[1, 0]), 5),
            (seq(&[0, 1, 0]), 1),
            (seq(&[0, 1, 1]), 1),
            (seq(&[1, 1]), 3),
            (seq(&[0]), 10),
        ];
        let c = BaselineWindowCounts::build(&corpus, None);
        let e = &c.entries[&seq(&[1, 0])];
        assert_eq!(e.next.get(&QueryId(0)), 3);
        assert_eq!(e.next.get(&QueryId(1)), 7);
        assert_eq!(e.total, 16);
        assert_eq!(e.at_start, 15);
        assert_eq!(c.total_occurrences, 218);
        assert_eq!(c.total_sessions, 108);
    }
}
