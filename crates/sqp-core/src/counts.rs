//! Suffix-window counting for VMM training, on the arena suffix trie.
//!
//! VMM statistics are counted over **windows at any session position**, not
//! just session prefixes. This is forced by the paper's own toy example
//! (Table II → Fig 3): P(q0|q1) = 0.8 only holds if the mid-session
//! occurrences of `q1` in `q0q1q0` / `q0q1q1` are counted — prefix-only
//! counting would give 0.833. Each window records its total occurrences, how
//! often it occurs at a session start (the `‖[e,s]‖` events of Eq. 6), and —
//! implicitly, as its trie children — the distribution of queries that
//! follow it.
//!
//! The counts live in a [`SuffixTrie`], counted level by level straight
//! into its canonical layout ([`SuffixTrie::count`]): the sessions are
//! copied once into one flat id buffer, a window is its start position in
//! it, and a session of length L costs O(L·min(L, D+1)) steps of sorting
//! small groups with **zero per-window allocations** and no hashing,
//! instead of the old hashmap's owned `Box<[QueryId]>` key per window.
//!
//! Counting splits the work **by first query**, not by session. A split by
//! session was tried and measured slower than one thread: on aggregated
//! sessions nearly every window is distinct, so the shards' tries shared
//! almost nothing and merging them re-inserted every edge. Here each part
//! is a contiguous range of root keys with about equal window starts, and
//! it counts only the windows that begin in its range — every window's
//! subtree belongs to exactly one part, and all parts read the one shared
//! buffer. Canonical ids ascend by (depth, path) and a path starts with its
//! root key, so the parts are already in final order depth by depth:
//! [`SuffixTrie::count`] only relabels ids, and nothing is
//! merged. One part is the range of every id and needs no join.

use sqp_common::arena::{FlatSessions, Starts, SuffixTrie};
use sqp_common::threads;
use sqp_common::{QueryId, QuerySeq};
use std::ops::Range;
use std::sync::Arc;

/// All window statistics of a training corpus up to a maximum window length.
#[derive(Debug)]
pub struct WindowCounts {
    /// Shared, not copied: every model trained off these counts keeps this
    /// same arena as its distributions and its escape table.
    trie: Arc<SuffixTrie>,
    /// Number of distinct queries in the corpus — the paper's |Q|.
    pub n_queries: usize,
    /// Total weighted sessions.
    pub total_sessions: u64,
    /// Total weighted query occurrences.
    pub total_occurrences: u64,
    /// Longest window length counted.
    pub max_len: usize,
}

impl WindowCounts {
    /// Count windows of length `1..=max_len` over weighted sessions.
    /// `max_len = None` counts every possible window (unbounded VMM).
    pub fn build(sessions: &[(QuerySeq, u64)], max_len: Option<usize>) -> Self {
        Self::build_in_parts(sessions, max_len, None)
    }

    /// [`WindowCounts::build`] on `parts` parts — counting passes `None`,
    /// as many as the host and [`MIN_POSITIONS_PER_PART`] allow. The trie
    /// does not depend on the number: tests force it.
    pub(crate) fn build_in_parts(
        sessions: &[(QuerySeq, u64)],
        max_len: Option<usize>,
        parts: Option<usize>,
    ) -> Self {
        let flat = FlatSessions::new(sessions.iter().map(|(s, f)| (&s[..], *f)));
        let longest = flat.longest();
        let max_len = max_len.unwrap_or(longest).min(longest.max(1));

        // Window starts per first query: what a part counts, and so what the
        // ranges are dealt by.
        let mut starts: Vec<usize> = Vec::new();
        for q in flat.ids() {
            let q = q.index();
            if q >= starts.len() {
                starts.resize(q + 1, 0);
            }
            starts[q] += 1;
        }
        let parts =
            parts.unwrap_or_else(|| threads::parts(flat.ids().len(), MIN_POSITIONS_PER_PART));
        let ranges = deal_ranges(&starts, parts);

        // Depth max_len+1 nodes carry the continuation counts of
        // depth-max_len windows (a window's next-query distribution is its
        // children's totals).
        let trie = SuffixTrie::count(&flat, max_len as u32, &ranges, Starts::Anywhere);

        let (root_keys, root_counts) = trie.continuations(SuffixTrie::ROOT);
        let n_queries = root_keys.len();
        let total_occurrences = root_counts.iter().sum();
        WindowCounts {
            trie: Arc::new(trie),
            n_queries,
            total_sessions: sessions.iter().map(|(_, f)| f).sum(),
            total_occurrences,
            max_len,
        }
    }

    /// [`WindowCounts::build`]. `_parallel` is ignored — counting sizes its
    /// own parts (see the module docs) — and this entry point stays only
    /// because `benchmark/` calls it; the next `benchmark` PR drops it.
    pub fn build_with(
        sessions: &[(QuerySeq, u64)],
        max_len: Option<usize>,
        _parallel: bool,
    ) -> Self {
        Self::build(sessions, max_len)
    }

    /// Trie node ids of the candidate windows of at most `max_len` queries
    /// (`None`: every counted window), in (length, sequence) order.
    pub fn candidate_nodes(
        &self,
        min_support: u64,
        max_len: Option<usize>,
    ) -> impl Iterator<Item = u32> + '_ {
        let min_support = min_support.max(1);
        self.trie
            .window_ids(max_len)
            .filter(move |&n| self.trie.cont_total(n) >= min_support)
    }

    /// Escape probability of Eq. (6) for an *unobserved* context
    /// `s = [q1, s']`:
    ///
    /// `P̂(escape|s) = ‖[e,s']‖ / (Σ_q ‖[q,s']‖ + ‖[e,s']‖)`
    ///
    /// `‖[e,s']‖` counts occurrences of `s'` at a session start (nothing
    /// precedes it) and `Σ_q ‖[q,s']‖` its occurrences preceded by some
    /// query, so the denominator is just the total occurrences of `s'`. The
    /// value is floored at 1e-6 so a mixture component is penalised, never
    /// annihilated; unobserved `s'` escapes freely (probability 1).
    pub fn escape_prob(&self, s: &[QueryId]) -> f64 {
        escape_prob_in(&self.trie, self.total_sessions, self.total_occurrences, s)
    }

    /// The corpus totals a model trained off these counts keeps: sessions,
    /// query occurrences and |Q| (at least 1, the smoothing universe).
    pub(crate) fn totals(&self) -> (u64, u64, usize) {
        (
            self.total_sessions,
            self.total_occurrences,
            self.n_queries.max(1),
        )
    }

    /// Number of distinct observed windows.
    pub fn window_count(&self) -> usize {
        self.trie.window_count()
    }

    /// Borrow the underlying arena.
    pub fn trie(&self) -> &SuffixTrie {
        &self.trie
    }

    /// Another handle to the arena — what a trained VMM keeps: its states'
    /// distributions and its escape table (total / at-start counts per
    /// window, Eq. 6) are this trie's rows.
    pub fn shared_trie(&self) -> Arc<SuffixTrie> {
        Arc::clone(&self.trie)
    }
}

/// Fewest window starts a counting part is worth a thread for: at ≈ 0.1 µs
/// a start (its windows sorted level by level) this is ≈ 3 ms of work
/// against a thread start of tens of µs, the part's own scan of the id
/// buffer, and its share of the join, which writes every part's columns
/// into the joined trie on one thread.
const MIN_POSITIONS_PER_PART: usize = 1 << 15;

/// Deal the ids `0..starts.len()` into `parts` contiguous, ascending ranges
/// of about equal window starts (`starts[q]` of them begin with query `q`).
/// Ranges may be empty; together they cover every id.
fn deal_ranges(starts: &[usize], parts: usize) -> Vec<Range<u32>> {
    let total: usize = starts.iter().sum();
    let mut ranges = Vec::with_capacity(parts);
    let (mut lo, mut dealt) = (0, 0);
    for p in 1..=parts {
        let goal = total * p / parts;
        let mut hi = lo;
        while hi < starts.len() && dealt < goal {
            dealt += starts[hi];
            hi += 1;
        }
        ranges.push(lo as u32..hi as u32);
        lo = hi;
    }
    ranges
}

/// Escape probability over a bare trie — shared by [`WindowCounts`] and the
/// trained [`crate::Mvmm`], which keeps only the trie and applies each
/// component's depth bound itself.
pub(crate) fn escape_prob_in(
    trie: &SuffixTrie,
    total_sessions: u64,
    total_occurrences: u64,
    s: &[QueryId],
) -> f64 {
    debug_assert!(!s.is_empty());
    let suffix = &s[1..];
    if suffix.is_empty() {
        // s' = e: sessions are the "starts", occurrences the total.
        let den = total_occurrences + total_sessions;
        if den == 0 {
            return 1.0;
        }
        return (total_sessions as f64 / den as f64).max(1e-6);
    }
    match trie.window(suffix) {
        None => 1.0,
        Some(node) if trie.total(node) == 0 => 1.0,
        Some(node) => (trie.at_start(node) as f64 / trie.total(node) as f64).max(1e-6),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::toy::toy_corpus;
    use sqp_common::seq;

    /// A named corpus and the depth bound to count it at.
    pub(crate) type SplitCorpus = (&'static str, Vec<(QuerySeq, u64)>, Option<usize>);

    /// Corpora with their depth bounds, each a different shape of split:
    /// Fig. 3's toy corpus (two first queries, so 3 and 5 parts leave some
    /// empty); a simulated log at three depth bounds; a corpus of one
    /// repeated query, so one part holds every window; and one whose two
    /// first queries are far apart, so the parts between them are empty.
    pub(crate) fn split_corpora() -> Vec<SplitCorpus> {
        let logs = sqp_logsim::generate(&sqp_logsim::SimConfig::small(4_000, 400, 11));
        let p = sqp_sessions::process(&logs, &sqp_sessions::PipelineConfig::default());
        let simulated = p.train.aggregated.sessions;
        let one_query: Vec<(QuerySeq, u64)> = (1..7)
            .map(|len| (vec![QueryId(3); len].into(), len as u64 * 5))
            .collect();
        let two_queries = vec![
            (seq(&[7, 900, 7]), 4),
            (seq(&[900, 7]), 2),
            (seq(&[7, 7, 900, 900]), 1),
        ];
        vec![
            ("toy", toy_corpus(), None),
            ("simulated, depth 1", simulated.clone(), Some(1)),
            ("simulated, depth 3", simulated.clone(), Some(3)),
            ("simulated, unbounded", simulated, None),
            ("one query", one_query, None),
            ("two far-apart queries", two_queries, None),
        ]
    }

    #[test]
    fn the_part_count_cannot_change_the_trie() {
        for (name, sessions, max_len) in split_corpora() {
            let whole = WindowCounts::build_in_parts(&sessions, max_len, Some(1));
            let vocabulary = sessions
                .iter()
                .flat_map(|(s, _)| s.iter())
                .map(|q| q.0 as usize + 1)
                .max()
                .unwrap_or(0);
            for parts in [None, Some(2), Some(3), Some(5)] {
                let split = WindowCounts::build_in_parts(&sessions, max_len, parts);
                let trie = split.trie();
                assert_eq!(trie, whole.trie(), "{name}: {parts:?} parts");
                assert_eq!(
                    (
                        split.n_queries,
                        split.total_sessions,
                        split.total_occurrences
                    ),
                    (
                        whole.n_queries,
                        whole.total_sessions,
                        whole.total_occurrences
                    ),
                    "{name}: {parts:?} parts"
                );
                let (parents, keys, totals, at_start) = trie.columns();
                let loaded = SuffixTrie::from_columns(
                    trie.window_len() as u32,
                    vocabulary,
                    parents.to_vec(),
                    keys.to_vec(),
                    totals.to_vec(),
                    at_start.to_vec(),
                )
                .expect("a joined trie's columns are canonical");
                assert_eq!(&loaded, trie, "{name}: {parts:?} parts");
            }
        }
    }

    #[test]
    fn ranges_cover_every_id_in_order() {
        let starts = [3, 0, 0, 9, 1, 0, 4];
        for parts in 1..=9 {
            let ranges = deal_ranges(&starts, parts);
            assert_eq!(ranges.len(), parts);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[parts - 1].end, starts.len() as u32);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "{parts} parts");
            }
        }
        // Two parts split 17 starts at the first id reaching half of them.
        assert_eq!(deal_ranges(&starts, 2)[0], 0..4);
    }

    #[test]
    fn toy_conditional_q1q0() {
        // Paper: P(q0|[q1,q0]) = 3/10.
        let c = WindowCounts::build(&toy_corpus(), None);
        let node = c.trie().window(&seq(&[1, 0])).unwrap();
        assert_eq!(
            c.trie().continuations(node),
            (&seq(&[0, 1])[..], &[3, 7][..])
        );
        assert_eq!(c.trie().cont_total(node), 10);
    }

    #[test]
    fn toy_conditional_single_queries_use_all_positions() {
        let c = WindowCounts::build(&toy_corpus(), None);
        let next = |w: &[u32]| c.trie().continuations(c.trie().window(&seq(w)).unwrap());
        // P(·|q1): q1→q0 16 times, q1→q1 4 times (0.8 / 0.2 in the paper).
        assert_eq!(next(&[1]), (&seq(&[0, 1])[..], &[16, 4][..]));
        // P(·|q0): q0→q0 81, q0→q1 9 (0.9 / 0.1 in the paper).
        assert_eq!(next(&[0]), (&seq(&[0, 1])[..], &[81, 9][..]));
    }

    /// The windows of the candidate nodes, in their (length, sequence) order.
    fn candidates(c: &WindowCounts, min_support: u64) -> Vec<QuerySeq> {
        let mut path = Vec::new();
        c.candidate_nodes(min_support, None)
            .map(|node| {
                c.trie().path(node, &mut path);
                path.as_slice().into()
            })
            .collect()
    }

    #[test]
    fn toy_candidate_set_matches_paper() {
        // Paper: without filtering, S′ = {q1q0, q0q1, q0, q1}.
        let c = WindowCounts::build(&toy_corpus(), None);
        let expect: Vec<QuerySeq> = vec![seq(&[0]), seq(&[1]), seq(&[0, 1]), seq(&[1, 0])];
        assert_eq!(candidates(&c, 1), expect);
    }

    #[test]
    fn root_prior_counts_every_occurrence() {
        let c = WindowCounts::build(&toy_corpus(), None);
        let root = c.trie().continuations(SuffixTrie::ROOT);
        assert_eq!(root, (&seq(&[0, 1])[..], &[187, 31][..]));
        assert_eq!(c.total_occurrences, 218);
        assert_eq!(c.total_sessions, 108);
        assert_eq!(c.n_queries, 2);
        // Best first: q0 (187) before q1 (31).
        assert_eq!(c.trie().rank(SuffixTrie::ROOT), &[0, 1]);
    }

    #[test]
    fn bounded_counting_truncates_windows() {
        let c = WindowCounts::build(&[(seq(&[0, 1, 2, 3]), 1)], Some(2));
        assert!(c.trie().window(&seq(&[0, 1])).is_some());
        assert!(c.trie().window(&seq(&[0, 1, 2])).is_none());
        assert_eq!(c.max_len, 2);
        // Length-2 windows still know their continuations.
        let node = c.trie().window(&seq(&[1, 2])).unwrap();
        assert_eq!(c.trie().continuations(node), (&seq(&[3])[..], &[1][..]));
    }

    #[test]
    fn at_start_only_counts_session_prefixes() {
        let c = WindowCounts::build(&toy_corpus(), None);
        // [0] starts sessions q0q0 (78), q0q1q0 (1), q0q1q1 (1), q0 (10) = 90;
        // occurs 187 times total.
        let t = c.trie();
        let n0 = t.window(&seq(&[0])).unwrap();
        assert_eq!(t.at_start(n0), 90);
        assert_eq!(t.total(n0), 187);
        // [1,0] starts q1q0q0 (3), q1q0q1 (7), q1q0 (5) = 15.
        let n10 = t.window(&seq(&[1, 0])).unwrap();
        assert_eq!(t.at_start(n10), 15);
        assert_eq!(t.total(n10), 16); // plus [0,1,0]'s suffix occurrence
    }

    #[test]
    fn escape_probability_formula() {
        let c = WindowCounts::build(&toy_corpus(), None);
        // escape([q, 0]) for unobserved [q,0]: s' = [0]:
        // at_start(0)/total(0) = 90/187.
        let esc = c.escape_prob(&seq(&[9, 0]));
        assert!((esc - 90.0 / 187.0).abs() < 1e-12);
        // Unobserved suffix ⇒ free escape.
        assert_eq!(c.escape_prob(&seq(&[9, 8])), 1.0);
        // Single-query context: sessions / (occurrences + sessions).
        let esc1 = c.escape_prob(&seq(&[9]));
        assert!((esc1 - 108.0 / (218.0 + 108.0)).abs() < 1e-12);
    }

    #[test]
    fn min_support_filters_candidates() {
        let c = WindowCounts::build(&toy_corpus(), None);
        let cands = candidates(&c, 5);
        // [0,1] has continuation support 2 (<5) and drops out.
        assert!(!cands.contains(&seq(&[0, 1])));
        assert!(cands.contains(&seq(&[1, 0])));
    }

    #[test]
    fn empty_corpus() {
        let c = WindowCounts::build(&[], None);
        assert_eq!(c.n_queries, 0);
        assert_eq!(c.window_count(), 0);
        assert!(candidates(&c, 1).is_empty());
    }

    #[test]
    fn next_sorted_is_id_ordered_and_borrowed() {
        let c = WindowCounts::build(&toy_corpus(), None);
        let (keys, counts) = c.trie().continuations(c.trie().window(&seq(&[1])).unwrap());
        assert_eq!(keys, &[QueryId(0), QueryId(1)]);
        assert_eq!(counts, &[16, 4]);
    }
}
