//! The Prediction Suffix Tree (PST): a state index over the window trie.
//!
//! A PST state *is* a window of the training corpus, i.e. a node of the
//! frozen [`SuffixTrie`] the counts were collected in, and its next-query
//! distribution *is* that node's child row. So the tree stores no context
//! and no count: per state it keeps the trie node, the parent state and one
//! run of `(next-older query → state)` edges, in three flat arrays beside a
//! shared [`Arc<SuffixTrie>`]. The best-first order of a state's
//! continuations is the trie's too, so every model over one trie shares a
//! single ranking. A model is the trie, read to its own depth bound, plus
//! the set of nodes that are states; [`Pst::from_states`] is the only
//! constructor, for a model just trained and for one read from disk alike.
//!
//! States are labelled with contexts read chronologically; the parent of
//! state `[q1,…,ql]` is its *suffix* `[q2,…,ql]` — walking down from the
//! root prepends ever-older queries.
//!
//! The constructor also lays out what serving reads, derived from the trie
//! and never written to a file: each state's *answer* — its observed
//! continuations best first with their smoothed probabilities, exactly what
//! [`NodeDist::observed`] yields — as one run of a flat [`Scored`] array,
//! and a dense root table from query id to depth-1 state. A suggest is one
//! load from that table for the newest query, a binary-searched edge run
//! for each older one (O(D·log m), the paper's prediction-time bound), and
//! a copy of the front of the matched state's run: no hashing, no
//! division, no allocation. That costs 16 B per observed continuation of a
//! state and 4 B per query id up to the largest with a depth-1 state:
//! +1.1 MB on the 7 947-state benchmark model over its 7.3 MB trie.

use sqp_common::arena::SuffixTrie;
use sqp_common::topk::Scored;
use sqp_common::QueryId;
use std::sync::Arc;

/// The smoothed next-query distribution of one PST state — a borrowed view
/// of the state's trie row, nothing owned.
///
/// Smoothing follows §IV-B.1(c): each unobserved query receives the constant
/// 1/|Q|, then the whole distribution is renormalized. With m observed
/// queries out of |Q| the normalizer is `Z = 1 + (|Q|−m)/|Q|`; when every
/// query is observed (the toy example) Z = 1 and the ML estimates survive
/// untouched.
///
/// The raw ML counts are the trie's id-sorted child keys and totals, so
/// `prob` is an O(log m) binary search; the trie's rank run gives the
/// best-first order `Pst::answer` lays out once.
#[derive(Clone, Copy, Debug)]
pub struct NodeDist<'a> {
    /// Observed continuations, ascending by query id.
    queries: &'a [QueryId],
    /// Their raw ML counts, parallel to `queries`.
    counts: &'a [u64],
    /// Indexes into `queries`, best first (descending count, ties by
    /// ascending id).
    rank: &'a [u32],
    /// Total observed continuation mass.
    total: u64,
    /// Smoothing normalizer Z.
    z: f64,
    /// Smoothed probability of each individual unobserved query.
    unobserved_prob: f64,
}

impl<'a> NodeDist<'a> {
    fn new(
        queries: &'a [QueryId],
        counts: &'a [u64],
        rank: &'a [u32],
        total: u64,
        n_queries: usize,
    ) -> Self {
        debug_assert_eq!(queries.len(), counts.len());
        debug_assert_eq!(queries.len(), rank.len());
        let m = queries.len();
        let nq = n_queries.max(m).max(1);
        let z = 1.0 + (nq - m) as f64 / nq as f64;
        let unobserved_prob = if total == 0 {
            // No evidence at all: uniform.
            1.0 / nq as f64
        } else {
            (1.0 / nq as f64) / z
        };
        NodeDist {
            queries,
            counts,
            rank,
            total,
            z,
            unobserved_prob,
        }
    }

    #[inline]
    fn smooth(&self, count: u64) -> f64 {
        (count as f64 / self.total.max(1) as f64) / self.z
    }

    /// Smoothed `P(q | this context)` — O(log m) binary search.
    #[inline]
    pub fn prob(&self, q: QueryId) -> f64 {
        match self.queries.binary_search(&q) {
            Ok(i) => self.smooth(self.counts[i]),
            Err(_) => self.unobserved_prob,
        }
    }

    /// Observed continuations `(query, smoothed prob)`, best first.
    pub(crate) fn observed(&self) -> impl Iterator<Item = (QueryId, f64)> + 'a {
        let dist = *self;
        dist.rank.iter().map(move |&i| {
            let i = i as usize;
            (dist.queries[i], dist.smooth(dist.counts[i]))
        })
    }
}

/// One state's slots in the flat arrays. A run ends where the next state's
/// begins; a sentinel entry closes the last one.
#[derive(Clone, Copy, Debug)]
struct State {
    /// The trie node whose window is this state's context.
    node: u32,
    /// The state of the one-shorter suffix (the root's is itself).
    parent: u32,
    first_edge: u32,
    first_answer: u32,
}

/// The prediction suffix tree. State `0` is the root (the empty context);
/// the others follow in ascending trie-node order, which is
/// (length, sequence) order, so a parent always precedes its children.
#[derive(Clone, Debug)]
pub struct Pst {
    trie: Arc<SuffixTrie>,
    /// The paper's |Q|, for smoothing.
    n_queries: usize,
    /// `len() + 1` entries: the states, then the sentinel.
    states: Vec<State>,
    /// Per state, its child edges' next-older queries, ascending…
    edge_queries: Vec<QueryId>,
    /// …and the states they lead to.
    edge_states: Vec<u32>,
    /// Per state, its observed continuations best first with their smoothed
    /// probabilities: [`NodeDist::observed`], laid out once.
    answers: Vec<Scored>,
    /// Per query id, the root's child state along it ([`NO_STATE`] for
    /// none), up to the largest id with one.
    root_states: Vec<u32>,
}

/// A `root_states` entry for a query with no depth-1 state.
const NO_STATE: u32 = u32::MAX;

/// Why a node list is not the state set of any PST over a given trie — what
/// [`Pst::from_states`] returns instead of building from it. The list may
/// come from disk, so each property the trainer guarantees is checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StateListError {
    /// An id is not larger than the one before it.
    NotAscending {
        /// The offending id.
        node: u32,
    },
    /// An id is the root, past the trie's last node, or a continuation-only
    /// node deeper than the trie's window length.
    NotAWindow {
        /// The offending id.
        node: u32,
    },
    /// A state's one-shorter suffix is not a state. The newest-first walk
    /// would stop before reaching the state, so the set must be
    /// suffix-closed.
    SuffixMissing {
        /// The state whose suffix is absent.
        node: u32,
    },
}

impl std::fmt::Display for StateListError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            StateListError::NotAscending { node } => {
                write!(f, "state {node} is not strictly after its predecessor")
            }
            StateListError::NotAWindow { node } => {
                write!(f, "state {node} is not a window node of the trie")
            }
            StateListError::SuffixMissing { node } => {
                write!(f, "the one-shorter suffix of state {node} is not a state")
            }
        }
    }
}

impl std::error::Error for StateListError {}

impl Pst {
    /// The tree whose non-root states are the windows `nodes` of `trie`.
    /// `nodes` must ascend strictly, name window nodes only (depth 1 to
    /// `max_len`, or to the trie's window length when that is shorter or
    /// `max_len` is `None`) and be suffix-closed; `n_queries` is the
    /// universe size |Q| the distributions are smoothed over.
    pub(crate) fn from_states(
        trie: Arc<SuffixTrie>,
        n_queries: usize,
        max_len: Option<usize>,
        nodes: &[u32],
    ) -> Result<Self, StateListError> {
        // Canonical ids ascend by depth, so the windows are one id run.
        let windows = trie.window_ids(max_len);
        let mut previous = SuffixTrie::ROOT;
        for &node in nodes {
            if node <= previous {
                return Err(if node == SuffixTrie::ROOT {
                    StateListError::NotAWindow { node }
                } else {
                    StateListError::NotAscending { node }
                });
            }
            if !windows.contains(&node) {
                return Err(StateListError::NotAWindow { node });
            }
            previous = node;
        }
        let state_of = |node: u32| {
            if node == SuffixTrie::ROOT {
                Some(0)
            } else {
                nodes.binary_search(&node).ok().map(|i| i as u32 + 1)
            }
        };

        // Every non-root state hangs off its suffix's state by its oldest
        // query; sorted, the edges are the CSR runs in state order.
        let mut edges: Vec<(u32, QueryId, u32)> = Vec::with_capacity(nodes.len());
        let mut path = Vec::new();
        for (i, &node) in nodes.iter().enumerate() {
            trie.path(node, &mut path);
            let parent = trie
                .find(&path[1..])
                .and_then(state_of)
                .ok_or(StateListError::SuffixMissing { node })?;
            edges.push((parent, path[0], i as u32 + 1));
        }
        edges.sort_unstable();

        let mut states = Vec::with_capacity(nodes.len() + 2);
        let mut next_edge = 0usize;
        for (state, node) in std::iter::once(SuffixTrie::ROOT)
            .chain(nodes.iter().copied())
            .enumerate()
        {
            let first_edge = next_edge;
            while edges.get(next_edge).is_some_and(|e| e.0 as usize == state) {
                next_edge += 1;
            }
            states.push(State {
                node,
                parent: 0,
                first_edge: first_edge as u32,
                first_answer: 0,
            });
        }
        debug_assert_eq!(next_edge, edges.len());
        states.push(State {
            node: SuffixTrie::ROOT,
            parent: 0,
            first_edge: edges.len() as u32,
            first_answer: 0,
        });
        for &(parent, _, child) in &edges {
            states[child as usize].parent = parent;
        }

        // The root's edges are the depth-1 states, ascending by query.
        let root_edges = &edges[..states[1].first_edge as usize];
        let width = root_edges.last().map_or(0, |e| e.1.index() + 1);
        let mut root_states = vec![NO_STATE; width];
        for &(_, q, child) in root_edges {
            root_states[q.index()] = child;
        }

        let n_states = nodes.len() + 1;
        let answer_len = states[..n_states]
            .iter()
            .map(|s| trie.rank(s.node).len())
            .sum();
        let mut pst = Pst {
            trie,
            n_queries,
            states,
            edge_queries: edges.iter().map(|e| e.1).collect(),
            edge_states: edges.iter().map(|e| e.2).collect(),
            answers: Vec::with_capacity(answer_len),
            root_states,
        };
        let mut answers = std::mem::take(&mut pst.answers);
        for state in 0..n_states {
            pst.states[state].first_answer = answers.len() as u32;
            let ranked = pst.dist(state as u32).observed();
            answers.extend(ranked.map(|(q, p)| Scored::new(q, p)));
        }
        pst.states[n_states].first_answer = answers.len() as u32;
        pst.answers = answers;
        Ok(pst)
    }

    /// Number of states, including the root (the paper's PST size metric).
    pub fn len(&self) -> usize {
        self.states.len() - 1
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// The window trie the states index.
    pub fn trie(&self) -> &Arc<SuffixTrie> {
        &self.trie
    }

    /// The trie nodes of the non-root states, ascending — the list
    /// [`Pst::from_states`] rebuilds this tree from.
    pub(crate) fn state_nodes(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.states[1..self.len()].iter().map(|s| s.node)
    }

    /// The context labelling `state` (empty at the root), oldest query
    /// first, written into `out` (cleared first).
    pub fn context_into(&self, state: u32, out: &mut Vec<QueryId>) {
        self.trie.path(self.states[state as usize].node, out);
    }

    /// The state of `state`'s one-shorter suffix (the root's is the root).
    pub(crate) fn parent(&self, state: u32) -> u32 {
        self.states[state as usize].parent
    }

    /// Next-query distribution of `state`.
    #[inline]
    pub fn dist(&self, state: u32) -> NodeDist<'_> {
        let node = self.states[state as usize].node;
        let (queries, counts) = self.trie.continuations(node);
        NodeDist::new(
            queries,
            counts,
            self.trie.rank(node),
            self.trie.cont_total(node),
            self.n_queries,
        )
    }

    /// The observed continuations of `state`, best first, with their
    /// smoothed probabilities: `dist(state).observed()`, bit for bit.
    #[inline]
    pub(crate) fn answer(&self, state: u32) -> &[Scored] {
        let lo = self.states[state as usize].first_answer as usize;
        let hi = self.states[state as usize + 1].first_answer as usize;
        &self.answers[lo..hi]
    }

    /// The state one query older than `state` along `q`, if any, by a
    /// binary search of `state`'s edge run.
    #[inline]
    pub(crate) fn child_of(&self, state: u32, q: QueryId) -> Option<u32> {
        let lo = self.states[state as usize].first_edge as usize;
        let hi = self.states[state as usize + 1].first_edge as usize;
        self.edge_queries[lo..hi]
            .binary_search(&q)
            .ok()
            .map(|i| self.edge_states[lo + i])
    }

    /// The states on the newest-first walk of `context` below the root:
    /// the i-th is its suffix of length i + 1. The first step is one load
    /// from the root table, each deeper one a [`Pst::child_of`] search.
    #[inline]
    pub(crate) fn suffix_states<'c>(
        &'c self,
        context: &'c [QueryId],
    ) -> impl Iterator<Item = u32> + 'c {
        let mut older = context.iter().rev();
        let first = older
            .next()
            .and_then(|q| self.root_states.get(q.index()))
            .filter(|&&state| state != NO_STATE)
            .copied();
        std::iter::successors(first, move |&state| {
            older.next().and_then(|&q| self.child_of(state, q))
        })
    }

    /// Longest suffix of `context` that is a state: returns `(state,
    /// matched length)`; `(0, 0)` means only the root matches.
    #[inline]
    pub(crate) fn longest_suffix(&self, context: &[QueryId]) -> (u32, usize) {
        let mut found = (0, 0);
        for (state, matched) in self.suffix_states(context).zip(1..) {
            found = (state, matched);
        }
        found
    }

    /// True when `context` is exactly a state of the tree.
    pub fn contains(&self, context: &[QueryId]) -> bool {
        self.find(context).is_some()
    }

    /// The state labelled exactly `context`, if present.
    pub(crate) fn find(&self, context: &[QueryId]) -> Option<u32> {
        let (state, matched) = self.longest_suffix(context);
        (matched == context.len()).then_some(state)
    }

    /// Heap bytes of the index, its ranked answers and its root table; the
    /// trie it points into is shared and accounted by whoever holds it.
    pub fn heap_bytes(&self) -> usize {
        self.states.capacity() * std::mem::size_of::<State>()
            + self.edge_queries.capacity() * std::mem::size_of::<QueryId>()
            + self.edge_states.capacity() * std::mem::size_of::<u32>()
            + self.answers.capacity() * std::mem::size_of::<Scored>()
            + self.root_states.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::WindowCounts;
    use crate::toy::toy_corpus;
    use sqp_common::seq;

    /// The root distribution of a corpus of one-query sessions: query `q`
    /// observed `c` times for each `(q, c)`, smoothed over `nq` queries.
    fn dist_tree(pairs: &[(u32, u64)], nq: usize) -> Pst {
        let sessions: Vec<_> = pairs.iter().map(|&(q, c)| (seq(&[q]), c)).collect();
        let counts = WindowCounts::build(&sessions, None);
        Pst::from_states(counts.shared_trie(), nq, None, &[]).unwrap()
    }

    fn toy_trie() -> Arc<SuffixTrie> {
        WindowCounts::build(&toy_corpus(), None).shared_trie()
    }

    fn nodes_of(trie: &SuffixTrie, contexts: &[&[u32]]) -> Vec<u32> {
        let mut nodes: Vec<u32> = contexts
            .iter()
            .map(|c| trie.window(&seq(c)).expect("an observed window"))
            .collect();
        nodes.sort_unstable();
        nodes
    }

    fn toy_tree() -> Pst {
        // Figure 3: root, q0, q1, q1q0.
        let trie = toy_trie();
        let nodes = nodes_of(&trie, &[&[0], &[1], &[1, 0]]);
        Pst::from_states(trie, 2, None, &nodes).unwrap()
    }

    fn context_of(pst: &Pst, state: u32) -> Vec<QueryId> {
        let mut out = Vec::new();
        pst.context_into(state, &mut out);
        out
    }

    #[test]
    fn node_count_includes_root() {
        assert_eq!(toy_tree().len(), 4);
        assert!(!toy_tree().is_empty());
        assert_eq!(toy_tree().state_nodes().len(), 3);
    }

    #[test]
    fn longest_suffix_walks_from_newest_to_oldest() {
        let pst = toy_tree();
        // [q0,q1,q0]: suffix [q1,q0] matches (length 2).
        let (idx, matched) = pst.longest_suffix(&seq(&[0, 1, 0]));
        assert_eq!(matched, 2);
        assert_eq!(context_of(&pst, idx), seq(&[1, 0]).to_vec());
        // [q1,q1]: only [q1] matches.
        let (idx, matched) = pst.longest_suffix(&seq(&[1, 1]));
        assert_eq!(matched, 1);
        assert_eq!(context_of(&pst, idx), seq(&[1]).to_vec());
        // Unknown query: root only.
        let (idx, matched) = pst.longest_suffix(&seq(&[9]));
        assert_eq!((idx, matched), (0, 0));
    }

    #[test]
    fn contains_and_find() {
        let pst = toy_tree();
        assert!(pst.contains(&seq(&[1, 0])));
        assert!(!pst.contains(&seq(&[0, 1])));
        assert!(pst.contains(&[]));
        assert!(pst.find(&seq(&[0])).is_some());
        assert!(pst.find(&seq(&[0, 0])).is_none());
    }

    #[test]
    fn parents_are_one_shorter_suffixes() {
        let pst = toy_tree();
        let q1q0 = pst.find(&seq(&[1, 0])).unwrap();
        assert_eq!(pst.parent(q1q0), pst.find(&seq(&[0])).unwrap());
        assert_eq!(pst.parent(pst.find(&seq(&[1])).unwrap()), 0);
        assert_eq!(pst.parent(0), 0);
    }

    #[test]
    fn state_distributions_are_the_trie_rows() {
        // Figure 3's numbers, read through the index: no count was copied.
        let pst = toy_tree();
        let d = pst.dist(pst.find(&seq(&[1, 0])).unwrap());
        assert_eq!((d.queries, d.counts), (&seq(&[0, 1])[..], &[3u64, 7][..]));
        assert_eq!(d.total, 10);
        let root = pst.dist(0);
        assert_eq!(root.counts, &[187, 31]);
    }

    #[test]
    fn state_lists_the_trainer_cannot_produce_are_rejected() {
        // Windows up to two queries, so depth 3 is continuation evidence.
        let trie = WindowCounts::build(&toy_corpus(), Some(2)).shared_trie();
        let build = |nodes: &[u32]| Pst::from_states(trie.clone(), 2, None, nodes).map(|p| p.len());
        let q0 = trie.window(&seq(&[0])).unwrap();
        let q1 = trie.window(&seq(&[1])).unwrap();
        let q1q0 = trie.window(&seq(&[1, 0])).unwrap();
        assert_eq!(build(&[q0, q1, q1q0]), Ok(4));

        // [1,0] requires [0] first.
        assert_eq!(
            build(&[q1, q1q0]),
            Err(StateListError::SuffixMissing { node: q1q0 })
        );
        assert_eq!(
            build(&[q1, q0]),
            Err(StateListError::NotAscending { node: q0 })
        );
        assert_eq!(
            build(&[q0, q0]),
            Err(StateListError::NotAscending { node: q0 })
        );
        assert_eq!(
            build(&[SuffixTrie::ROOT, q0]),
            Err(StateListError::NotAWindow { node: 0 })
        );
        // Past the windows: a continuation-only node, then no node at all.
        let beyond = trie.window_count() as u32 + 1;
        assert!(
            (beyond as usize) < trie.len(),
            "the toy trie has a deeper level"
        );
        for node in [beyond, trie.len() as u32, u32::MAX] {
            assert_eq!(build(&[q0, node]), Err(StateListError::NotAWindow { node }));
        }
    }

    #[test]
    fn smoothing_full_support_is_ml() {
        // Both queries observed, |Q| = 2 ⇒ Z = 1, ML probabilities.
        let pst = dist_tree(&[(0, 81), (1, 9)], 2);
        let d = pst.dist(0);
        assert!((d.prob(QueryId(0)) - 0.9).abs() < 1e-12);
        assert!((d.prob(QueryId(1)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn smoothing_partial_support_renormalizes() {
        // One of four queries observed: Z = 1 + 3/4 = 1.75.
        let pst = dist_tree(&[(0, 10)], 4);
        let d = pst.dist(0);
        let p_obs = d.prob(QueryId(0));
        let p_un = d.prob(QueryId(3));
        assert!((p_obs - 1.0 / 1.75).abs() < 1e-12);
        assert!((p_un - 0.25 / 1.75).abs() < 1e-12);
        // Total mass: observed + 3 unobserved = 1.
        assert!((p_obs + 3.0 * p_un - 1.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_orders_by_probability() {
        let pst = dist_tree(&[(5, 70), (2, 20), (9, 10)], 10);
        let ids: Vec<u32> = pst.answer(0).iter().map(|s| s.query.0).collect();
        assert_eq!(ids, vec![5, 2, 9]);
        assert_eq!(pst.answer(0)[0].score, pst.dist(0).prob(QueryId(5)));
    }

    #[test]
    fn raw_counts_are_id_sorted() {
        let pst = dist_tree(&[(9, 10), (2, 20), (5, 70)], 10);
        let d = pst.dist(0);
        let ids: Vec<u32> = d.queries.iter().map(|q| q.0).collect();
        assert_eq!(ids, vec![2, 5, 9]);
        // Best-first iteration still ranks by probability.
        let ranked: Vec<u32> = d.observed().map(|(q, _)| q.0).collect();
        assert_eq!(ranked, vec![5, 2, 9]);
        // Equal counts rank by ascending id.
        let tied = dist_tree(&[(7, 4), (3, 4), (5, 9)], 10);
        let ranked: Vec<u32> = tied.dist(0).observed().map(|(q, _)| q.0).collect();
        assert_eq!(ranked, vec![5, 3, 7]);
    }

    #[test]
    fn empty_dist() {
        let pst = dist_tree(&[], 5);
        let d = pst.dist(0);
        assert_eq!(d.total, 0);
        assert!((d.prob(QueryId(0)) - 0.2).abs() < 1e-12); // uniform
        assert_eq!(d.observed().count(), 0);
        assert!(pst.answer(0).is_empty());
    }

    /// The newest-first walk that searches every edge run, the root's too.
    fn reference_walk(pst: &Pst, context: &[QueryId]) -> (u32, usize) {
        let (mut state, mut matched) = (0, 0);
        for &q in context.iter().rev() {
            let Some(child) = pst.child_of(state, q) else {
                break;
            };
            (state, matched) = (child, matched + 1);
        }
        (state, matched)
    }

    #[test]
    fn the_serve_layout_is_the_distributions_and_the_edge_walk() {
        use crate::persist::{model_from_bytes, model_to_bytes};
        use crate::{Mvmm, MvmmConfig, Recommender, Vmm, VmmConfig};
        use sqp_common::rng::{Rng, StdRng};

        let logs = sqp_logsim::generate(&sqp_logsim::SimConfig::small(4_000, 100, 44));
        let pipeline = sqp_sessions::PipelineConfig {
            reduction_threshold: 0,
        };
        let p = sqp_sessions::process(&logs, &pipeline);
        let (sessions, vocabulary) = (&p.train.aggregated.sessions, p.interner.len());

        let mut models: Vec<Box<dyn Recommender>> = [0.0, 0.05, 0.1]
            .into_iter()
            .map(|e| Box::new(Vmm::train(sessions, VmmConfig::with_epsilon(e))) as _)
            .collect();
        let depth_mixture = MvmmConfig::depth_mixture(&[(2, 0.1), (3, 0.2), (2, 0.0)]);
        for config in [MvmmConfig::epsilon_sweep(), depth_mixture] {
            models.push(Box::new(Mvmm::train(sessions, &config)));
        }
        for i in 0..models.len() {
            let (kind, bytes) = model_to_bytes(models[i].as_ref()).unwrap();
            models.push(model_from_bytes(kind, bytes, vocabulary).unwrap());
        }

        for model in &models {
            let any = model.as_any().unwrap();
            let pst = match any.downcast_ref::<Vmm>() {
                Some(vmm) => vmm.pst(),
                None => any.downcast_ref::<Mvmm>().unwrap().pst(),
            };
            for state in 0..pst.len() as u32 {
                let laid_out = pst
                    .answer(state)
                    .iter()
                    .map(|s| (s.query, s.score.to_bits()));
                let observed = pst.dist(state).observed().map(|(q, p)| (q, p.to_bits()));
                assert!(laid_out.eq(observed), "state {state} of {}", model.name());
            }

            // Contexts: suffixes of training sessions, some with a random
            // id spliced in, random ids around the vocabulary's end, and
            // the largest id.
            let mut rng = StdRng::seed_from_u64(pst.len() as u64);
            let (mut unrooted, mut past_end, mut deep) = (0, 0, 0);
            for _ in 0..10_000 {
                let (session, _) = &sessions[rng.random_range(0..sessions.len())];
                let end = rng.random_range(0..=session.len());
                let mut context = session[end - rng.random_range(0..=end.min(5))..end].to_vec();
                if !context.is_empty() && rng.random_bool(0.3) {
                    let at = rng.random_range(0..context.len());
                    context[at] = match rng.random_range(0..3u32) {
                        0 => QueryId(u32::MAX),
                        _ => QueryId(rng.random_range(0..vocabulary as u32 + 4)),
                    };
                }
                let expected = reference_walk(pst, &context);
                assert_eq!(pst.longest_suffix(&context), expected, "{context:?}");
                if let Some(&newest) = context.last() {
                    if newest.index() >= vocabulary {
                        past_end += 1;
                    } else if expected.1 == 0 {
                        unrooted += 1;
                    }
                }
                deep += usize::from(expected.1 >= 2);
            }
            let name = model.name();
            assert!(
                unrooted > 0 && past_end > 0 && deep > 0,
                "{name}: every kind of walk"
            );
            assert_eq!(pst.longest_suffix(&[]), (0, 0));
        }
    }

    #[test]
    fn heap_bytes_grow_with_nodes() {
        let small = Pst::from_states(toy_trie(), 2, None, &[]).unwrap();
        assert!(toy_tree().heap_bytes() > small.heap_bytes());
    }
}
