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
//! The counts live in a [`SuffixTrie`]: a session of length L costs
//! O(L·min(L, D+1)) constant-time trie steps with **zero per-window
//! allocations**, instead of the old hashmap's owned `Box<[QueryId]>` key
//! per window.
//!
//! Counting splits the work **by first query**, not by session. A split by
//! session was tried and measured slower than one thread: on aggregated
//! sessions nearly every window is distinct, so the shards' tries shared
//! almost nothing and merging them re-inserted every edge. Here each part
//! is a contiguous range of root keys with about equal window starts, and
//! its builder counts only the windows that begin in its range — every
//! window's subtree belongs to exactly one part. Canonical ids ascend by
//! (depth, path) and a path starts with its root key, so the frozen parts
//! are already in final order depth by depth: [`SuffixTrie::join`] only
//! relabels ids, and nothing is merged. One part is the range of every id.

use sqp_common::arena::{SuffixTrie, TrieBuilder};
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

/// A borrowed view of one counted window (a candidate PST context).
#[derive(Clone, Copy, Debug)]
pub struct WindowEntry<'a> {
    trie: &'a SuffixTrie,
    node: u32,
}

impl<'a> WindowEntry<'a> {
    /// Weighted occurrences of the window anywhere in a session.
    #[inline]
    pub fn total(&self) -> u64 {
        self.trie.total(self.node)
    }

    /// Weighted occurrences at the very start of a session.
    #[inline]
    pub fn at_start(&self) -> u64 {
        self.trie.at_start(self.node)
    }

    /// Total weighted continuation mass (occurrences followed by a query).
    #[inline]
    pub fn next_total(&self) -> u64 {
        self.trie.cont_total(self.node)
    }

    /// Weighted count of `q` immediately following the window.
    #[inline]
    pub fn next_count(&self, q: QueryId) -> u64 {
        let (keys, counts) = self.trie.continuations(self.node);
        keys.binary_search(&q).map(|i| counts[i]).unwrap_or(0)
    }

    /// Continuation distribution as parallel id-sorted slices
    /// `(queries, counts)`, borrowed from the arena.
    #[inline]
    pub fn next_sorted(&self) -> (&'a [QueryId], &'a [u64]) {
        self.trie.continuations(self.node)
    }

    /// Iterate `(query, count)` continuations in ascending id order.
    pub fn next_iter(&self) -> impl Iterator<Item = (QueryId, u64)> + 'a {
        let (keys, counts) = self.trie.continuations(self.node);
        keys.iter().copied().zip(counts.iter().copied())
    }

    /// Continuations sorted by descending count, ties by ascending id.
    pub fn next_sorted_desc(&self) -> Vec<(QueryId, u64)> {
        let mut v: Vec<(QueryId, u64)> = self.next_iter().collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// The trie node backing this window.
    #[inline]
    pub fn node(&self) -> u32 {
        self.node
    }
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
        let longest = sessions.iter().map(|(s, _)| s.len()).max().unwrap_or(0);
        let max_len = max_len.unwrap_or(longest).min(longest.max(1));
        // Depth max_len+1 nodes carry the continuation counts of
        // depth-max_len windows (a window's next-query distribution is its
        // children's totals).
        let depth_limit = max_len + 1;

        // Window starts per first query: what a part's builder will count,
        // and so what the ranges are dealt by and each builder is sized to.
        let mut starts: Vec<usize> = Vec::new();
        for q in sessions.iter().flat_map(|(s, _)| s.iter()) {
            let q = q.0 as usize;
            if q >= starts.len() {
                starts.resize(q + 1, 0);
            }
            starts[q] += 1;
        }
        let positions: usize = starts.iter().sum();
        let parts = parts.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(positions / MIN_POSITIONS_PER_PART)
                .max(1)
        });
        let ranges = deal_ranges(&starts, parts);

        let count = |(first, positions): &(Range<u32>, usize)| {
            let mut builder = TrieBuilder::with_edge_capacity(*positions);
            for (s, f) in sessions {
                builder.count_session(s, *f, depth_limit, first.clone());
            }
            builder.freeze(max_len as u32)
        };
        let mut frozen: Vec<SuffixTrie> = std::thread::scope(|scope| {
            let helpers: Vec<_> = ranges[1..]
                .iter()
                .map(|range| scope.spawn(move || count(range)))
                .collect();
            let mut frozen = Vec::with_capacity(ranges.len());
            frozen.push(count(&ranges[0]));
            frozen.extend(
                helpers
                    .into_iter()
                    .map(|h| h.join().expect("window counting panicked")),
            );
            frozen
        });
        let trie = match frozen.len() {
            1 => frozen.pop().expect("one part"),
            _ => SuffixTrie::join(&frozen),
        };

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

    /// Counts for a window, if observed.
    #[inline]
    pub fn entry(&self, window: &[QueryId]) -> Option<WindowEntry<'_>> {
        self.trie.window(window).map(|node| WindowEntry {
            trie: &self.trie,
            node,
        })
    }

    /// View of a window by trie node id.
    #[inline]
    pub fn entry_at(&self, node: u32) -> WindowEntry<'_> {
        WindowEntry {
            trie: &self.trie,
            node,
        }
    }

    /// The prior next-query distribution (root of the PST) as id-sorted
    /// parallel slices: every query with its total weighted occurrences.
    pub fn root_continuations(&self) -> (&[QueryId], &[u64]) {
        self.trie.continuations(SuffixTrie::ROOT)
    }

    /// The root prior sorted by descending count, ties by ascending id.
    pub fn root_counts_desc(&self) -> Vec<(QueryId, u64)> {
        self.entry_at(SuffixTrie::ROOT).next_sorted_desc()
    }

    /// Maximum-likelihood conditional distribution `P(·|window)` as sorted
    /// `(query, count)` pairs; empty when the window has no continuation.
    pub fn ml_counts(&self, window: &[QueryId]) -> Vec<(QueryId, u64)> {
        self.entry(window)
            .map(|e| e.next_sorted_desc())
            .unwrap_or_default()
    }

    /// Candidate PST contexts: observed windows with continuation evidence of
    /// at least `min_support`, sorted by (length, sequence) so growth is
    /// deterministic and parents precede children. The trie's canonical BFS
    /// layout *is* that order — no sort happens here.
    pub fn candidates(&self, min_support: u64) -> Vec<QuerySeq> {
        let min_support = min_support.max(1);
        let mut path = Vec::with_capacity(self.max_len);
        self.candidate_nodes(min_support)
            .map(|node| {
                self.trie.path(node, &mut path);
                path.as_slice().into()
            })
            .collect()
    }

    /// Trie node ids of the candidate windows, in (length, sequence) order.
    pub fn candidate_nodes(&self, min_support: u64) -> impl Iterator<Item = u32> + '_ {
        let min_support = min_support.max(1);
        self.trie
            .window_nodes()
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
/// a start (one root step and a few edge probes) this is ≈ 3 ms of work
/// against a thread start of tens of µs and a second pass over the corpus.
const MIN_POSITIONS_PER_PART: usize = 1 << 15;

/// Deal the ids `0..starts.len()` into `parts` contiguous, ascending ranges
/// of about equal window starts (`starts[q]` of them begin with query `q`),
/// each with the starts it holds. Ranges may be empty; together they cover
/// every id.
fn deal_ranges(starts: &[usize], parts: usize) -> Vec<(Range<u32>, usize)> {
    let total: usize = starts.iter().sum();
    let mut ranges = Vec::with_capacity(parts);
    let (mut lo, mut dealt) = (0, 0);
    for p in 1..=parts {
        let goal = total * p / parts;
        let (mut hi, mut held) = (lo, 0);
        while hi < starts.len() && dealt + held < goal {
            held += starts[hi];
            hi += 1;
        }
        ranges.push((lo as u32..hi as u32, held));
        dealt += held;
        lo = hi;
    }
    ranges
}

/// Escape probability over a bare trie — shared by [`WindowCounts`] and the
/// trained [`crate::Vmm`], which keeps only the trie.
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
                let rows =
                    SuffixTrie::from_parts(trie.window_len() as u32, vocabulary, trie.parts())
                        .expect("a joined trie flattens to canonical rows");
                assert_eq!(&rows, trie, "{name}: {parts:?} parts");
            }
        }
    }

    #[test]
    fn ranges_cover_every_id_in_order() {
        let starts = [3, 0, 0, 9, 1, 0, 4];
        for parts in 1..=9 {
            let ranges = deal_ranges(&starts, parts);
            assert_eq!(ranges.len(), parts);
            assert_eq!(ranges[0].0.start, 0);
            assert_eq!(ranges[parts - 1].0.end, starts.len() as u32);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].0.end, pair[1].0.start, "{parts} parts");
            }
            for (range, held) in &ranges {
                let counted: usize = range.clone().map(|q| starts[q as usize]).sum();
                assert_eq!(counted, *held, "{parts} parts");
            }
        }
        // Two parts split 17 starts at the first id reaching half of them.
        assert_eq!(deal_ranges(&starts, 2)[0], (0..4, 12));
    }

    #[test]
    fn toy_conditional_q1q0() {
        // Paper: P(q0|[q1,q0]) = 3/10.
        let c = WindowCounts::build(&toy_corpus(), None);
        let e = c.entry(&seq(&[1, 0])).unwrap();
        assert_eq!(e.next_count(QueryId(0)), 3);
        assert_eq!(e.next_count(QueryId(1)), 7);
        assert_eq!(e.next_total(), 10);
    }

    #[test]
    fn toy_conditional_single_queries_use_all_positions() {
        let c = WindowCounts::build(&toy_corpus(), None);
        // P(·|q1): q1→q0 16 times, q1→q1 4 times (0.8 / 0.2 in the paper).
        let e1 = c.entry(&seq(&[1])).unwrap();
        assert_eq!(e1.next_count(QueryId(0)), 16);
        assert_eq!(e1.next_count(QueryId(1)), 4);
        // P(·|q0): q0→q0 81, q0→q1 9 (0.9 / 0.1 in the paper).
        let e0 = c.entry(&seq(&[0])).unwrap();
        assert_eq!(e0.next_count(QueryId(0)), 81);
        assert_eq!(e0.next_count(QueryId(1)), 9);
    }

    #[test]
    fn toy_candidate_set_matches_paper() {
        // Paper: without filtering, S′ = {q1q0, q0q1, q0, q1}.
        let c = WindowCounts::build(&toy_corpus(), None);
        let cands = c.candidates(1);
        let expect: Vec<QuerySeq> = vec![seq(&[0]), seq(&[1]), seq(&[0, 1]), seq(&[1, 0])];
        assert_eq!(cands, expect);
    }

    #[test]
    fn root_prior_counts_every_occurrence() {
        let c = WindowCounts::build(&toy_corpus(), None);
        let root = c.entry_at(sqp_common::SuffixTrie::ROOT);
        assert_eq!(root.next_count(QueryId(0)), 187);
        assert_eq!(root.next_count(QueryId(1)), 31);
        assert_eq!(c.total_occurrences, 218);
        assert_eq!(c.total_sessions, 108);
        assert_eq!(c.n_queries, 2);
        assert_eq!(
            c.root_counts_desc(),
            vec![(QueryId(0), 187), (QueryId(1), 31)]
        );
    }

    #[test]
    fn bounded_counting_truncates_windows() {
        let c = WindowCounts::build(&[(seq(&[0, 1, 2, 3]), 1)], Some(2));
        assert!(c.entry(&seq(&[0, 1])).is_some());
        assert!(c.entry(&seq(&[0, 1, 2])).is_none());
        assert_eq!(c.max_len, 2);
        // Length-2 windows still know their continuations.
        assert_eq!(c.entry(&seq(&[1, 2])).unwrap().next_count(QueryId(3)), 1);
    }

    #[test]
    fn at_start_only_counts_session_prefixes() {
        let c = WindowCounts::build(&toy_corpus(), None);
        // [0] starts sessions q0q0 (78), q0q1q0 (1), q0q1q1 (1), q0 (10) = 90;
        // occurs 187 times total.
        let e = c.entry(&seq(&[0])).unwrap();
        assert_eq!(e.at_start(), 90);
        assert_eq!(e.total(), 187);
        // [1,0] starts q1q0q0 (3), q1q0q1 (7), q1q0 (5) = 15.
        let e10 = c.entry(&seq(&[1, 0])).unwrap();
        assert_eq!(e10.at_start(), 15);
        assert_eq!(e10.total(), 16); // plus [0,1,0]'s suffix occurrence
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
        let cands = c.candidates(5);
        // [0,1] has continuation support 2 (<5) and drops out.
        assert!(!cands.contains(&seq(&[0, 1])));
        assert!(cands.contains(&seq(&[1, 0])));
    }

    #[test]
    fn empty_corpus() {
        let c = WindowCounts::build(&[], None);
        assert_eq!(c.n_queries, 0);
        assert_eq!(c.window_count(), 0);
        assert!(c.candidates(1).is_empty());
    }

    #[test]
    fn next_sorted_is_id_ordered_and_borrowed() {
        let c = WindowCounts::build(&toy_corpus(), None);
        let (keys, counts) = c.entry(&seq(&[1])).unwrap().next_sorted();
        assert_eq!(keys, &[QueryId(0), QueryId(1)]);
        assert_eq!(counts, &[16, 4]);
    }
}
