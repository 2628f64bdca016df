//! The Variable Memory Markov model learned via a Prediction Suffix Tree —
//! §IV-B of the paper.
//!
//! Training (three stages, §IV-B.1):
//! * **(a)** extract candidate suffix contexts `S′` from the window trie
//!   (length ≤ D, continuation support ≥ the filter threshold);
//! * **(b)** grow the PST: every length-1 candidate is added; a longer
//!   candidate `s` is added — together with all its suffixes, keeping the
//!   state set suffix-closed — iff `D_KL(P(·|parent(s)) ‖ P(·|s)) > ε`
//!   in base 10, where `parent(s) = s[1..]`. Both the divergence direction
//!   and the log base are pinned by the paper's published numbers
//!   (0.3449 / 0.0837 for the Table II corpus). The divergence is computed
//!   by a merged walk over the two id-sorted continuation slices borrowed
//!   from the arena — no per-candidate hash map is built — and, being a
//!   pure function of one candidate, runs on every core; the states are
//!   then marked in canonical order, so the set is the same on any thread
//!   count;
//! * **(c)** smooth every node distribution with the constant 1/|Q| for
//!   unobserved queries and renormalize — at read time, from the trie row
//!   the state points at ([`crate::pst::NodeDist`]); nothing is stored.
//!
//! What training produces is therefore a *set of trie nodes*: the trained
//! model is the window trie it was counted in, shared and not copied, plus
//! the [`Pst`] index over the nodes that became states. Prediction walks
//! the longest matching suffix in O(D·log m) with no allocation. The
//! context-escape mechanism of Eq. (5)–(6) reads the same trie.

use crate::counts::{escape_prob_in, WindowCounts};
use crate::model::{Recommender, SequenceScorer, WeightedSessions};
use crate::pst::{Pst, StateListError};
use sqp_common::arena::SuffixTrie;
use sqp_common::topk::Scored;
use sqp_common::QueryId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// VMM training parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VmmConfig {
    /// PST growth threshold ε; 0 admits every candidate, +∞ degenerates to
    /// the Adjacency-like 2-gram (Fig 4 of the paper).
    pub epsilon: f64,
    /// Context-length bound D; `None` = unbounded ("infinite order").
    pub max_depth: Option<usize>,
    /// Minimum continuation support for a candidate context.
    pub min_support: u64,
    /// Ignored: window counting runs on one thread (see
    /// [`crate::counts`]), and PST growth sizes its own divergence-test
    /// threads from the host and the candidate count. The field and
    /// [`VmmConfig::parallel`] stay only because `benchmark/` sets them;
    /// the next `benchmark` PR drops both.
    pub parallel: bool,
}

impl Default for VmmConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.05,
            max_depth: None,
            min_support: 1,
            parallel: false,
        }
    }
}

impl VmmConfig {
    /// Convenience: unbounded VMM with the given ε.
    pub fn with_epsilon(epsilon: f64) -> Self {
        Self {
            epsilon,
            ..Self::default()
        }
    }

    /// Convenience: D-bounded VMM with the given ε.
    pub fn bounded(max_depth: usize, epsilon: f64) -> Self {
        Self {
            epsilon,
            max_depth: Some(max_depth),
            ..Self::default()
        }
    }

    /// Set the (ignored) `parallel` field.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Display name in the paper's style: "VMM (0.05)", "2-bounded VMM (0.1)".
    pub fn display_name(&self) -> String {
        match self.max_depth {
            Some(d) => format!("{d}-bounded VMM ({})", self.epsilon),
            None => format!("VMM ({})", self.epsilon),
        }
    }
}

/// A trained VMM.
pub struct Vmm {
    /// The states, and through them the frozen window trie: child rows are
    /// the distributions, per-window (total, at-start) counts drive the
    /// escape probabilities of Eq. (6).
    pub(crate) pst: Pst,
    pub(crate) total_sessions: u64,
    pub(crate) total_occurrences: u64,
    pub(crate) n_queries: usize,
    pub(crate) config: VmmConfig,
    pub(crate) name: String,
}

/// `D_KL(P ‖ Q)` in base 10 by a merged walk over two id-sorted count
/// slices. `P` is the parent's continuation distribution; queries the child
/// never observed are floored at `q_floor`.
fn kl_counts_base10(
    parent: (&[QueryId], &[u64]),
    parent_total: u64,
    child: (&[QueryId], &[u64]),
    child_total: u64,
    q_floor: f64,
) -> f64 {
    let (pk, pc) = parent;
    let (ck, cc) = child;
    let pt = parent_total as f64;
    let ct = child_total as f64;
    let mut d = 0.0;
    let mut j = 0usize;
    for (i, &q) in pk.iter().enumerate() {
        while j < ck.len() && ck[j] < q {
            j += 1;
        }
        let child_count = if j < ck.len() && ck[j] == q { cc[j] } else { 0 };
        let p = pc[i] as f64 / pt;
        if p > 0.0 {
            let qv = (child_count as f64 / ct).max(q_floor);
            d += p * (p / qv).log10();
        }
    }
    d
}

/// Does candidate `node` diverge from its PST parent `parent` by more than
/// `epsilon`? A node or parent without continuation evidence never does.
fn diverges(trie: &SuffixTrie, parent: u32, node: u32, epsilon: f64) -> bool {
    let parent_total = trie.cont_total(parent);
    let child_total = trie.cont_total(node);
    if parent_total == 0 || child_total == 0 {
        return false;
    }
    // Floor for parent-supported queries the child never observed: one
    // pseudo-count relative to the child's evidence. A global 1/|Q| floor
    // would blow the divergence up for every low-evidence candidate
    // (log10 |Q| per missing query), making ε inoperative; the paper's toy
    // corpus has full support at every node, so this choice leaves its
    // pinned numbers untouched.
    let q_floor = 1.0 / (child_total as f64 + 1.0);
    let d = kl_counts_base10(
        trie.continuations(parent),
        parent_total,
        trie.continuations(node),
        child_total,
        q_floor,
    );
    d > epsilon
}

/// Fewest divergence tests a growth thread is worth starting for: a test
/// averages ≈ 0.1 µs, so this is ≈ 0.4 ms of work against a thread start
/// of tens of µs.
const MIN_CANDIDATES_PER_THREAD: usize = 1 << 12;

impl Vmm {
    /// Train on weighted sessions.
    pub fn train(sessions: &WeightedSessions, config: VmmConfig) -> Self {
        Self::train_with_counts(&WindowCounts::build(sessions, config.max_depth), config)
    }

    /// Train from pre-built window counts. The counts **must** have been
    /// built with the same `max_depth` as `config` — mixtures use this to
    /// count the corpus once and train many components off the shared trie
    /// (the ε threshold only affects stage (b), not the counts), which
    /// every one of them then holds a handle to.
    pub fn train_with_counts(counts: &WindowCounts, config: VmmConfig) -> Self {
        Self::from_parts(
            counts.shared_trie(),
            &Self::grow_pst(counts, config, None),
            counts.total_sessions,
            counts.total_occurrences,
            counts.n_queries.max(1),
            config,
        )
        .expect("stage (b) marks a suffix-closed set of windows")
    }

    /// The model whose states are the windows `states` of `trie` — the one
    /// constructor, for the trainer's state set and for one read from disk.
    pub(crate) fn from_parts(
        trie: Arc<SuffixTrie>,
        states: &[u32],
        total_sessions: u64,
        total_occurrences: u64,
        n_queries: usize,
        config: VmmConfig,
    ) -> Result<Self, StateListError> {
        Ok(Vmm {
            pst: Pst::from_states(trie, n_queries, states)?,
            total_sessions,
            total_occurrences,
            n_queries,
            name: config.display_name(),
            config,
        })
    }

    /// Stages (a) + (b): candidate extraction and KL growth. Returns the
    /// trie nodes chosen as states, ascending. The divergence tests run on
    /// `threads` threads — training passes `None`, as many as the host and
    /// [`MIN_CANDIDATES_PER_THREAD`] allow — and the state set does not
    /// depend on the count: each test is a pure function of its candidate,
    /// and the marking pass reads the verdicts in canonical order.
    pub(crate) fn grow_pst(
        counts: &WindowCounts,
        config: VmmConfig,
        threads: Option<usize>,
    ) -> Vec<u32> {
        let trie = counts.trie();

        // Link pass, in (length, sequence) order — the trie's canonical id
        // order — so a node's trie parent is linked before it. `link[n]` is
        // the node of n's window minus its oldest query: the PST parent,
        // whose distribution the KL test compares against. With
        // path(n) = path(p)·q it is `child(link[p], q)`, and p is itself a
        // candidate (its continuation support counts n), so links fill in
        // as the walk goes. Depth-1 candidates are states outright; every
        // longer one is a test.
        let n_windows = trie.window_count() + 1;
        let mut link = vec![SuffixTrie::ROOT; n_windows];
        let mut state = vec![false; n_windows];
        let mut tests = Vec::new();
        for node in counts.candidate_nodes(config.min_support) {
            if trie.depth(node) == 1 {
                state[node as usize] = true;
                continue;
            }
            link[node as usize] = trie
                .child(link[trie.parent(node) as usize], trie.key(node))
                .expect("suffix of an observed window is observed");
            tests.push(node);
        }

        // Divergence tests: bit `i % 64` of `verdicts[i / 64]` says whether
        // `tests[i]` diverges from its PST parent by more than ε. Blocks of
        // one word go to whichever thread asks next — a depth-2 test
        // against a large depth-1 row costs many deeper ones, so equal
        // contiguous shares would not finish together.
        let threads = threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(tests.len() / MIN_CANDIDATES_PER_THREAD)
                .max(1)
        });
        let n_blocks = tests.len().div_ceil(64);
        // Only hands out block numbers; the verdicts travel through `join`.
        let cursor = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                let block = cursor.fetch_add(1, Ordering::Relaxed);
                if block >= n_blocks {
                    return done;
                }
                let lo = block * 64;
                let bits = tests[lo..(lo + 64).min(tests.len())]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &node)| diverges(trie, link[node as usize], node, config.epsilon))
                    .fold(0u64, |bits, (i, _)| bits | 1 << i);
                done.push((block, bits));
            }
        };
        let mut verdicts = vec![0u64; n_blocks];
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
            let mine = work();
            for done in helpers
                .into_iter()
                .map(|h| h.join().expect("divergence tests panicked"))
                .chain([mine])
            {
                for (block, bits) in done {
                    verdicts[block] = bits;
                }
            }
        });

        // Marking pass, in canonical order: a diverging candidate joins
        // with its whole suffix chain. The marked set stays suffix-closed,
        // which lets a chain walk stop at the first state it meets.
        for (i, &node) in tests.iter().enumerate() {
            if verdicts[i / 64] >> (i % 64) & 1 == 1 {
                let mut suffix = node;
                while suffix != SuffixTrie::ROOT && !state[suffix as usize] {
                    state[suffix as usize] = true;
                    suffix = link[suffix as usize];
                }
            }
        }
        (1..n_windows as u32)
            .filter(|&n| state[n as usize])
            .collect()
    }

    /// Number of PST nodes including the root (Table VII metric).
    pub fn node_count(&self) -> usize {
        self.pst.len()
    }

    /// The underlying tree.
    pub fn pst(&self) -> &Pst {
        &self.pst
    }

    /// The frozen window trie the states index (distributions and escape
    /// table). Mixture components trained off one count share one.
    pub fn window_trie(&self) -> &Arc<SuffixTrie> {
        self.pst.trie()
    }

    /// Training configuration.
    pub fn config(&self) -> &VmmConfig {
        &self.config
    }

    /// |Q| seen at training time.
    pub fn n_queries(&self) -> usize {
        self.n_queries
    }

    /// Longest suffix of `context` that is a (non-root) state: `(state,
    /// matched length)` — the state's context is the last `matched` queries
    /// of `context`.
    pub fn match_state(&self, context: &[QueryId]) -> Option<(u32, usize)> {
        let (idx, matched) = self.pst.longest_suffix(context);
        (matched > 0).then_some((idx, matched))
    }

    /// Escape probability of Eq. (6) for context `s` (see
    /// [`WindowCounts::escape_prob`] for the derivation).
    pub fn escape_prob(&self, s: &[QueryId]) -> f64 {
        escape_prob_in(
            self.pst.trie(),
            self.total_sessions,
            self.total_occurrences,
            s,
        )
    }

    /// `P(q | context)` by longest-suffix matching **without** escape — the
    /// single-VMM convention (renormalization cancels escape, §IV-C.2(b)).
    /// Falls back to the root prior when nothing matches.
    pub fn cond_prob(&self, context: &[QueryId], q: QueryId) -> f64 {
        let (idx, _) = self.pst.longest_suffix(context);
        self.pst.dist(idx).prob(q)
    }

    /// `P̂(q | context)` with the context-escape recursion of Eq. (5):
    /// unmatched contexts pay the escape penalty while trimming their oldest
    /// query, which is what lets the MVMM discount partially-matching
    /// components.
    pub fn cond_prob_escaped(&self, context: &[QueryId], q: QueryId) -> f64 {
        let mut s = context;
        let mut factor = 1.0;
        loop {
            if s.is_empty() {
                return factor * self.pst.dist(0).prob(q);
            }
            if let Some(idx) = self.pst.find(s) {
                return factor * self.pst.dist(idx).prob(q);
            }
            factor *= self.escape_prob(s);
            s = &s[1..];
        }
    }

    /// `log10 P̂_D(sequence)` with escape (Eq. 3), used by the MVMM fit.
    pub fn sequence_log10_prob_escaped(&self, seq: &[QueryId]) -> f64 {
        let mut lp = 0.0;
        for i in 1..seq.len() {
            lp += self
                .cond_prob_escaped(&seq[..i], seq[i])
                .max(1e-300)
                .log10();
        }
        lp
    }

    /// Top-k into a caller-owned buffer (cleared first). With a reused
    /// buffer the whole serve path — suffix match, distribution lookup,
    /// top-k — performs **zero heap allocations**.
    pub fn recommend_into(&self, context: &[QueryId], k: usize, out: &mut Vec<Scored>) {
        out.clear();
        let Some((mut idx, _)) = self.match_state(context) else {
            return;
        };
        // Walk toward the root if a state lacks evidence: the growth rule
        // never marks such a window, a state list read from disk may.
        loop {
            let dist = self.pst.dist(idx);
            if !dist.is_empty() {
                dist.top_k_into(k, out);
                return;
            }
            idx = self.pst.parent(idx);
            if idx == 0 {
                return;
            }
        }
    }
}

impl Recommender for Vmm {
    fn name(&self) -> &str {
        &self.name
    }

    /// Top-`k` by longest-suffix state matching.
    ///
    /// # Examples
    ///
    /// ```
    /// use sqp_core::{Recommender, Vmm, VmmConfig};
    /// use sqp_core::toy::toy_corpus;
    /// use sqp_common::{seq, QueryId};
    ///
    /// let vmm = Vmm::train(&toy_corpus(), VmmConfig::with_epsilon(0.1));
    /// // §IV-B.2: after [q1, q0] the state q1q0 predicts q1 (P = 0.7).
    /// let top = vmm.recommend(&seq(&[1, 0]), 1);
    /// assert_eq!(top[0].query, QueryId(1));
    /// assert!((top[0].score - 0.7).abs() < 1e-12);
    /// ```
    fn recommend(&self, context: &[QueryId], k: usize) -> Vec<Scored> {
        let mut out = Vec::new();
        self.recommend_into(context, k, &mut out);
        out
    }

    fn recommend_into(&self, context: &[QueryId], k: usize, out: &mut Vec<Scored>) {
        Vmm::recommend_into(self, context, k, out);
    }

    fn covers(&self, context: &[QueryId]) -> bool {
        self.match_state(context).is_some()
    }

    fn memory_bytes(&self) -> usize {
        self.pst.heap_bytes() + self.pst.trie().heap_bytes()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl SequenceScorer for Vmm {
    fn sequence_log10_prob(&self, seq: &[QueryId]) -> f64 {
        let mut lp = 0.0;
        for i in 1..seq.len() {
            lp += self.cond_prob(&seq[..i], seq[i]).max(1e-300).log10();
        }
        lp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{toy_corpus, toy_test_sequence, TOY_EPSILON, TOY_TEST_SEQUENCE_PROB};
    use sqp_common::seq;

    fn toy_vmm() -> Vmm {
        Vmm::train(&toy_corpus(), VmmConfig::with_epsilon(TOY_EPSILON))
    }

    #[test]
    fn figure3_state_set() {
        let m = toy_vmm();
        // Paper: S = {q1q0, q0, q1} (+ root e) with ε = 0.1.
        assert_eq!(m.node_count(), 4);
        assert!(m.pst().contains(&seq(&[0])));
        assert!(m.pst().contains(&seq(&[1])));
        assert!(m.pst().contains(&seq(&[1, 0])));
        assert!(!m.pst().contains(&seq(&[0, 1]))); // D_KL = 0.0837 < 0.1
    }

    #[test]
    fn figure3_node_probabilities() {
        let m = toy_vmm();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(m.cond_prob(&seq(&[0]), QueryId(0)), 0.9));
        assert!(close(m.cond_prob(&seq(&[0]), QueryId(1)), 0.1));
        assert!(close(m.cond_prob(&seq(&[1]), QueryId(0)), 0.8));
        assert!(close(m.cond_prob(&seq(&[1]), QueryId(1)), 0.2));
        assert!(close(m.cond_prob(&seq(&[1, 0]), QueryId(0)), 0.3));
        assert!(close(m.cond_prob(&seq(&[1, 0]), QueryId(1)), 0.7));
        // Root prior: 187/218, 31/218.
        assert!(close(m.cond_prob(&[], QueryId(0)), 187.0 / 218.0));
        assert!(close(m.cond_prob(&[], QueryId(1)), 31.0 / 218.0));
    }

    #[test]
    fn paper_test_sequence_probability() {
        // 1 × 0.1 × 0.8 × 0.7 × 0.2 × 0.8 from §IV-B.2.
        let m = toy_vmm();
        let lp = m.sequence_log10_prob(&toy_test_sequence());
        assert!(
            (lp - TOY_TEST_SEQUENCE_PROB.log10()).abs() < 1e-10,
            "lp = {lp}, expected {}",
            TOY_TEST_SEQUENCE_PROB.log10()
        );
    }

    #[test]
    fn paper_recommendation_examples() {
        // §IV-B.2: after q0 recommend q0; after [q1,q0] recommend q1.
        let m = toy_vmm();
        assert_eq!(m.recommend(&seq(&[0]), 1)[0].query, QueryId(0));
        assert_eq!(m.recommend(&seq(&[1, 0]), 1)[0].query, QueryId(1));
    }

    #[test]
    fn epsilon_extremes_match_figure4() {
        // ε = +∞: Adjacency-like 2-gram (only length-1 states).
        let wide = Vmm::train(&toy_corpus(), VmmConfig::with_epsilon(f64::INFINITY));
        assert_eq!(wide.node_count(), 3); // root + q0 + q1
                                          // ε = 0: infinitely bounded VMM — every candidate becomes a state.
        let full = Vmm::train(&toy_corpus(), VmmConfig::with_epsilon(0.0));
        assert_eq!(full.node_count(), 5); // root + q0 + q1 + q1q0 + q0q1
        assert!(full.pst().contains(&seq(&[0, 1])));
    }

    #[test]
    fn intermediate_epsilon_rejects_q1q0() {
        // 0.3449 < 0.5 ⇒ even q1q0 is rejected.
        let m = Vmm::train(&toy_corpus(), VmmConfig::with_epsilon(0.5));
        assert_eq!(m.node_count(), 3);
        assert!(!m.pst().contains(&seq(&[1, 0])));
    }

    #[test]
    fn depth_bound_caps_states() {
        let m = Vmm::train(&toy_corpus(), VmmConfig::bounded(1, 0.0));
        assert_eq!(m.node_count(), 3);
        assert_eq!(m.config().max_depth, Some(1));
        assert_eq!(m.name(), "1-bounded VMM (0)");
    }

    #[test]
    fn min_support_prunes_candidates() {
        // [0,1] has continuation support 2; a threshold of 5 removes it even
        // at ε = 0.
        let m = Vmm::train(
            &toy_corpus(),
            VmmConfig {
                epsilon: 0.0,
                min_support: 5,
                ..VmmConfig::default()
            },
        );
        assert!(!m.pst().contains(&seq(&[0, 1])));
        assert!(m.pst().contains(&seq(&[1, 0])));
    }

    #[test]
    fn paper_escape_example_q1q1() {
        // §IV-C.1(b): user submits q1q1; the state used is q1. The escape
        // probability is ‖[e,q1]‖ / ‖q1‖ = 18/31.
        let m = toy_vmm();
        assert!(!m.pst().contains(&seq(&[1, 1])));
        let esc = m.escape_prob(&seq(&[1, 1]));
        assert!((esc - 18.0 / 31.0).abs() < 1e-12, "esc = {esc}");
        let p = m.cond_prob_escaped(&seq(&[1, 1]), QueryId(0));
        assert!((p - (18.0 / 31.0) * 0.8).abs() < 1e-12);
        // Without escape the same context just uses state q1.
        assert!((m.cond_prob(&seq(&[1, 1]), QueryId(0)) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn escaped_prob_equals_plain_on_exact_states() {
        let m = toy_vmm();
        for ctx in [seq(&[0]), seq(&[1]), seq(&[1, 0])] {
            for q in [QueryId(0), QueryId(1)] {
                assert!((m.cond_prob(&ctx, q) - m.cond_prob_escaped(&ctx, q)).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn unknown_context_is_uncovered() {
        let m = toy_vmm();
        assert!(m.recommend(&seq(&[42]), 5).is_empty());
        assert!(!m.covers(&seq(&[42])));
        assert!(m.recommend(&[], 5).is_empty());
        // Context disparity is fine as long as the last query is known.
        assert!(m.covers(&seq(&[42, 0])));
    }

    #[test]
    fn coverage_matches_adjacency_structurally() {
        // Fig 10: VMM coverage == Adjacency coverage.
        let corpus = toy_corpus();
        let vmm = Vmm::train(&corpus, VmmConfig::with_epsilon(0.05));
        let adj = crate::adjacency::Adjacency::train(&corpus);
        for q in 0..4u32 {
            for q2 in 0..4u32 {
                let ctx = seq(&[q, q2]);
                assert_eq!(
                    vmm.covers(&ctx),
                    adj.covers(&ctx),
                    "coverage mismatch on {ctx:?}"
                );
            }
        }
    }

    #[test]
    fn conditional_distributions_sum_to_one() {
        let m = toy_vmm();
        for ctx in [&[][..], &seq(&[0]), &seq(&[1]), &seq(&[1, 0])] {
            let total: f64 = (0..2).map(|q| m.cond_prob(ctx, QueryId(q))).sum();
            assert!((total - 1.0).abs() < 1e-9, "ctx {ctx:?} sums to {total}");
        }
    }

    #[test]
    fn deterministic_training() {
        let a = toy_vmm();
        let b = toy_vmm();
        assert_eq!(a.node_count(), b.node_count());
        let ra = a.recommend(&seq(&[1, 0]), 5);
        let rb = b.recommend(&seq(&[1, 0]), 5);
        assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.query, y.query);
            assert_eq!(x.score, y.score);
        }
    }

    #[test]
    fn memory_accounting_positive_and_monotone() {
        let small = toy_vmm();
        let full = Vmm::train(&toy_corpus(), VmmConfig::with_epsilon(0.0));
        assert!(small.memory_bytes() > 0);
        assert!(full.memory_bytes() >= small.memory_bytes());
    }

    #[test]
    fn empty_training_data() {
        let m = Vmm::train(&[], VmmConfig::default());
        assert_eq!(m.node_count(), 1);
        assert!(m.recommend(&seq(&[0]), 5).is_empty());
    }

    /// The state list growth picks on `counts` is the same whatever number
    /// of threads runs the divergence tests — forced here, far below the
    /// per-thread floor — and it is the list training keeps.
    fn same_states_on_any_thread_count(counts: &WindowCounts, config: VmmConfig) -> Vec<u32> {
        let states = Vmm::grow_pst(counts, config, None);
        for threads in [1, 2, 3, 5] {
            assert_eq!(
                Vmm::grow_pst(counts, config, Some(threads)),
                states,
                "{threads} threads, {config:?}"
            );
        }
        let trained: Vec<u32> = Vmm::train_with_counts(counts, config)
            .pst()
            .state_nodes()
            .collect();
        assert_eq!(trained, states, "{config:?}");
        states
    }

    #[test]
    fn the_thread_count_cannot_change_a_model() {
        // Fig. 3: q0, q1 and q1q0.
        let toy = WindowCounts::build(&toy_corpus(), None);
        let states = same_states_on_any_thread_count(&toy, VmmConfig::with_epsilon(TOY_EPSILON));
        assert_eq!(states.len(), 3);

        let logs = sqp_logsim::generate(&sqp_logsim::SimConfig::small(4_000, 400, 11));
        let p = sqp_sessions::process(&logs, &sqp_sessions::PipelineConfig::default());
        let sessions = &p.train.aggregated.sessions;
        let unbounded = WindowCounts::build(sessions, None);
        for epsilon in [0.0, 0.05, 0.5, f64::INFINITY] {
            for min_support in [1, 3] {
                let config = VmmConfig {
                    epsilon,
                    min_support,
                    ..VmmConfig::default()
                };
                same_states_on_any_thread_count(&unbounded, config);
            }
        }

        let sweep = crate::MvmmConfig::epsilon_sweep().components;
        let depths = crate::MvmmConfig::depth_mixture(&[(2, 0.1), (3, 0.2)]).components;
        for config in sweep.into_iter().chain(depths) {
            let counts = WindowCounts::build(sessions, config.max_depth);
            same_states_on_any_thread_count(&counts, config);
        }
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use sqp_common::rng::{Rng, StdRng};
    use sqp_common::QuerySeq;

    fn arbitrary_corpus(rng: &mut StdRng) -> Vec<(QuerySeq, u64)> {
        let n = rng.random_range(1usize..25);
        let mut map = std::collections::HashMap::new();
        for _ in 0..n {
            let len = rng.random_range(1usize..5);
            let s: QuerySeq = (0..len)
                .map(|_| QueryId(rng.random_range(0u32..6)))
                .collect();
            *map.entry(s).or_insert(0u64) += rng.random_range(1u64..20);
        }
        map.into_iter().collect()
    }

    #[test]
    fn state_set_is_suffix_closed() {
        for case in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let corpus = arbitrary_corpus(&mut rng);
            let eps = rng.random::<f64>() * 0.2;
            let m = Vmm::train(&corpus, VmmConfig::with_epsilon(eps));
            let mut context = Vec::new();
            for state in 0..m.node_count() as u32 {
                m.pst().context_into(state, &mut context);
                let mut s: &[QueryId] = &context;
                while !s.is_empty() {
                    assert!(m.pst().contains(s), "case {case}: suffix {s:?} missing");
                    s = &s[1..];
                }
            }
        }
    }

    #[test]
    fn escape_probs_in_unit_interval() {
        for case in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(100 + case);
            let corpus = arbitrary_corpus(&mut rng);
            let m = Vmm::train(&corpus, VmmConfig::default());
            for q1 in 0..7u32 {
                for q2 in 0..7u32 {
                    let e = m.escape_prob(&sqp_common::seq(&[q1, q2]));
                    assert!((0.0..=1.0).contains(&e), "case {case}: escape {e}");
                }
            }
        }
    }

    #[test]
    fn conditionals_sum_to_one() {
        for case in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(200 + case);
            let corpus = arbitrary_corpus(&mut rng);
            let m = Vmm::train(&corpus, VmmConfig::with_epsilon(0.01));
            // The smoothed distribution sums to 1 over the query universe Q
            // actually observed in training (ids need not be dense).
            let universe: std::collections::BTreeSet<QueryId> =
                corpus.iter().flat_map(|(s, _)| s.iter().copied()).collect();
            assert_eq!(universe.len(), m.n_queries(), "case {case}");
            // Check a handful of contexts, including unmatched ones.
            for ctx in [&[][..], &sqp_common::seq(&[0]), &sqp_common::seq(&[1, 2])] {
                let total: f64 = universe.iter().map(|&q| m.cond_prob(ctx, q)).sum();
                assert!(
                    (total - 1.0).abs() < 1e-6,
                    "case {case}: ctx {ctx:?} -> {total}"
                );
            }
        }
    }

    #[test]
    fn recommendations_sorted_and_bounded() {
        for case in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(300 + case);
            let corpus = arbitrary_corpus(&mut rng);
            let k = rng.random_range(1usize..6);
            let m = Vmm::train(&corpus, VmmConfig::default());
            for q in 0..6u32 {
                let recs = m.recommend(&sqp_common::seq(&[q]), k);
                assert!(recs.len() <= k, "case {case}");
                for w in recs.windows(2) {
                    assert!(w[0].score >= w[1].score, "case {case}");
                }
            }
        }
    }
}
