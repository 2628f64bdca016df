//! The Variable Memory Markov model learned via a Prediction Suffix Tree —
//! §IV-B of the paper.
//!
//! Training (three stages, §IV-B.1):
//! * **(a)** extract candidate suffix contexts `S′` from the window trie
//!   (length ≤ D, continuation support ≥ the filter threshold). The trie
//!   may be counted deeper than D — a mixture's is counted once for all
//!   its bounds — and the model reads it to D, when its states are
//!   validated;
//! * **(b)** grow the PST: every length-1 candidate is added; a longer
//!   candidate `s` is added — together with all its suffixes, keeping the
//!   state set suffix-closed — iff `D_KL(P(·|parent(s)) ‖ P(·|s)) > ε`
//!   in base 10, where `parent(s) = s[1..]`. Both the divergence direction
//!   and the log base are pinned by the paper's published numbers
//!   (0.3449 / 0.0837 for the Table II corpus). A candidate's continuations
//!   are a subset of its parent's (every `s·c` contains `s[1..]·c`), so
//!   the divergence splits into sums over the parent's row — computed once
//!   per parent — and a sum over the candidate's own row: a test costs the
//!   candidate's row, not its parent's. That value decides only when it
//!   lies further from ε than a stated rounding bound
//!   (`divergence_from_sums`); otherwise, and for short parent rows, the
//!   exact merged walk over the two id-sorted slices decides, so every
//!   verdict is the walk's. Tests are pure functions of one candidate and
//!   run on every core; the states are then marked in canonical order, so
//!   the set is the same on any thread count;
//! * **(c)** smooth every node distribution with the constant 1/|Q| for
//!   unobserved queries and renormalize — from the trie row the state
//!   points at ([`crate::pst::NodeDist`]); no probability is stored in a
//!   file.
//!
//! What training produces is therefore a *set of trie nodes*: the trained
//! model is the window trie it was counted in, shared and not copied, plus
//! the [`Pst`] index over the nodes that became states. Building that index
//! lays out each state's smoothed continuations once, best first, and a
//! root table from query id to depth-1 state, so a prediction is one load
//! for the newest query, a binary-searched edge run for each older one
//! (O(D·log m)) and a copy of the front of the matched state's ranked run
//! ([`Pst::answer`]), with no allocation. The
//! context-escape mechanism of Eq. (5)–(6), which only a mixture applies
//! (§IV-C.2), reads the same trie ([`crate::Mvmm`]).

use crate::counts::WindowCounts;
use crate::model::{Recommender, SequenceScorer, WeightedSessions};
use crate::pst::{Pst, StateListError};
use sqp_common::arena::SuffixTrie;
use sqp_common::threads::{map_blocks_on_threads, parts};
use sqp_common::topk::Scored;
use sqp_common::QueryId;
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
    /// Ignored: window counting sizes its own parts (see
    /// [`crate::counts`]) and PST growth its own divergence-test threads,
    /// each from the host and the amount of work. The field and
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
    /// the distributions.
    pub(crate) pst: Pst,
    /// The corpus totals: sessions, query occurrences and |Q|.
    pub(crate) totals: (u64, u64, usize),
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

/// The parent half of the divergence identity (see [`diverges`]): over the
/// parent's row, with p = count / parent total, `A = Σ p·log10 p` and
/// `S = Σ p`, summed in row order and skipping p = 0 as the exact walk
/// does.
#[derive(Clone, Copy, Debug)]
struct RowSums {
    plogp: f64,
    mass: f64,
}

impl RowSums {
    fn of(trie: &SuffixTrie, node: u32) -> Self {
        let pt = trie.cont_total(node) as f64;
        let mut sums = RowSums {
            plogp: 0.0,
            mass: 0.0,
        };
        for &c in trie.continuations(node).1 {
            let p = c as f64 / pt;
            if p > 0.0 {
                sums.plogp += p * p.log10();
                sums.mass += p;
            }
        }
        sums
    }
}

/// Parent rows shorter than this keep the exact walk: their sums would
/// cost about what the walks they replace cost. Chosen by the CPU time of
/// training on the 200 000-session benchmark corpus at cuts of 1, 2, 4, 8,
/// 16 and 32 (2-core host): 4 was lowest, 2 and 8 within 5 %, 1 and 16
/// ≈ 30 % above it.
const MIN_SUMMED_ROW: usize = 4;

/// The divergence from the parent's [`RowSums`] and the child's row alone,
/// and a bound on how far it may lie from [`kl_counts_base10`]'s value:
/// `(D′, bound)`, or `None` when the child's row is not a sub-row of the
/// parent's (never for a candidate and its PST parent).
///
/// With f = `q_floor`, qv_q = max(c_q / child_total, f) and P, C the
/// parent's and the child's rows, every q ∈ P \ C has qv_q = f, so
///
/// `D = Σ_P p·log10(p / qv) = A − log10(f)·S − Σ_C p_q·log10(qv_q / f)`,
///
/// one `log10` per child entry. The bound: with u = 2⁻⁵³, every p, qv and
/// f carries relative error ≤ 3u (two conversions and a division), and
/// `log10` is taken to be within 4 ulp (relative 8u). Per term that is an
/// absolute error ≤ u·p·(4.4 + 12.1·|log10 of the term's argument|) on the
/// exact walk and the same shape on each of the three sums here, and a
/// sum of n terms adds at most 1.01·n·u·Σ|terms|. Let
/// `M = |A| + |log10 f|·S + Σ_C p·log10(qv/f)`. Then Σ_P p·|log10(p/qv)| ≤ M
/// (because |log10 qv| ≤ |log10 f|), each of |A|, |log10 f|·S and the
/// child sum is ≤ M, and S ≤ M / log10 2 (f ≤ 1/2), which folds the
/// additive per-term errors into M. Summed over both evaluations:
///
/// `|D′ − D| ≤ (2.02·|P| + 1.01·|C| + 73)·u·M`.
///
/// The bound returned, `5·(|P| + |C| + 32)·u·M` with M as computed, is
/// more than twice that, which covers second-order terms and M's own
/// rounding.
fn divergence_from_sums(
    parent: (&[QueryId], &[u64]),
    parent_total: u64,
    sums: RowSums,
    child: (&[QueryId], &[u64]),
    child_total: u64,
    q_floor: f64,
) -> Option<(f64, f64)> {
    let (pk, pc) = parent;
    let (ck, cc) = child;
    let pt = parent_total as f64;
    let ct = child_total as f64;
    let mut child_sum = 0.0;
    let mut j = 0usize;
    for (&q, &c) in ck.iter().zip(cc) {
        j += pk[j..].partition_point(|&k| k < q);
        if pk.get(j) != Some(&q) {
            return None;
        }
        let p = pc[j] as f64 / pt;
        if p > 0.0 {
            let qv = (c as f64 / ct).max(q_floor);
            child_sum += p * (qv / q_floor).log10();
        }
    }
    let log_floor = q_floor.log10();
    let d = sums.plogp - log_floor * sums.mass - child_sum;
    let magnitude = -sums.plogp - log_floor * sums.mass + child_sum;
    let terms = (pk.len() + ck.len() + 32) as f64;
    Some((d, 5.0 * terms * (f64::EPSILON / 2.0) * magnitude))
}

/// Does candidate `node` diverge from its PST parent `parent` by more than
/// `epsilon`? A node or parent without continuation evidence never does.
///
/// With the parent row's `sums` the verdict comes from
/// [`divergence_from_sums`] whenever D′ lies further from ε than its
/// bound — then D′ and the exact walk's D fall on the same side of ε.
/// Otherwise, and for rows without sums, [`kl_counts_base10`] decides: it
/// is the one exact reference. `undecided` counts the tests the sums could
/// not settle.
fn diverges(
    trie: &SuffixTrie,
    parent: u32,
    node: u32,
    epsilon: f64,
    sums: Option<RowSums>,
    undecided: &mut usize,
) -> bool {
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
    let parent_row = trie.continuations(parent);
    let child_row = trie.continuations(node);
    if let Some(sums) = sums {
        let fast = divergence_from_sums(
            parent_row,
            parent_total,
            sums,
            child_row,
            child_total,
            q_floor,
        );
        match fast {
            Some((d, bound)) if (d - epsilon).abs() > bound => return d > epsilon,
            _ => *undecided += 1,
        }
    }
    kl_counts_base10(parent_row, parent_total, child_row, child_total, q_floor) > epsilon
}

/// Fewest divergence tests a growth thread is worth starting for. On the
/// 200 000-session benchmark corpus stage (b) takes ≈ 25 ms of CPU, of
/// which ≈ 15 ms are its 93 250 tests once the link pass and the parent
/// sums are taken out: ≈ 0.16 µs a test (one `log10` per child entry, or a
/// short parent's walk). This is ≈ 0.65 ms of work against a thread start
/// of tens of µs.
const MIN_CANDIDATES_PER_THREAD: usize = 1 << 12;

impl Vmm {
    /// Train on weighted sessions.
    pub fn train(sessions: &WeightedSessions, config: VmmConfig) -> Self {
        Self::train_with_counts(&WindowCounts::build(sessions, config.max_depth), config)
    }

    /// Train from pre-built window counts, reading their windows up to
    /// `config.max_depth`: counts to that depth or deeper give the model
    /// [`Vmm::train`] gives.
    pub fn train_with_counts(counts: &WindowCounts, config: VmmConfig) -> Self {
        let states = Self::grow_pst(counts, config, None).0;
        Self::from_parts(counts.shared_trie(), &states, counts.totals(), config)
            .expect("stage (b) marks a suffix-closed set of windows")
    }

    /// The model whose states are the windows `states` of `trie`, read to
    /// `config.max_depth` — the one constructor, for the trainer's state
    /// set and for one read from disk.
    pub(crate) fn from_parts(
        trie: Arc<SuffixTrie>,
        states: &[u32],
        totals: (u64, u64, usize),
        config: VmmConfig,
    ) -> Result<Self, StateListError> {
        Ok(Vmm {
            pst: Pst::from_states(trie, totals.2, config.max_depth, states)?,
            totals,
            name: config.display_name(),
            config,
        })
    }

    /// Stages (a) + (b): candidate extraction and KL growth. Returns the
    /// trie nodes chosen as states, ascending, and how many tests the
    /// parent sums left to the exact walk because D′ lay within its
    /// rounding bound of ε. The parent sums and the divergence tests run on
    /// `threads` threads — training passes `None`, as many as the host and
    /// [`MIN_CANDIDATES_PER_THREAD`] allow — and the state set does not
    /// depend on the count: each sum and each test is a pure function of
    /// its row, and the marking pass reads the verdicts in canonical order.
    pub(crate) fn grow_pst(
        counts: &WindowCounts,
        config: VmmConfig,
        threads: Option<usize>,
    ) -> (Vec<u32>, usize) {
        let trie = counts.trie();

        // Link pass, in (length, sequence) order — the trie's canonical id
        // order — so a node's trie parent is linked before it. `link[n]` is
        // the node of n's window minus its oldest query: the PST parent,
        // whose distribution the KL test compares against. With
        // path(n) = path(p)·q it is `child(link[p], q)`, and p is itself a
        // candidate (its continuation support counts n), so links fill in
        // as the walk goes. Depth-1 candidates are states outright; every
        // longer one is a test.
        let n_windows = trie.window_ids(config.max_depth).end as usize;
        let mut link = vec![SuffixTrie::ROOT; n_windows];
        let mut state = vec![false; n_windows];
        let mut tests = Vec::new();
        for node in counts.candidate_nodes(config.min_support, config.max_depth) {
            if trie.parent(node) == SuffixTrie::ROOT {
                state[node as usize] = true;
                continue;
            }
            link[node as usize] = trie
                .child(link[trie.parent(node) as usize], trie.key(node))
                .expect("suffix of an observed window is observed");
            tests.push(node);
        }

        let threads = threads.unwrap_or_else(|| parts(tests.len(), MIN_CANDIDATES_PER_THREAD));

        // Parent sums, once per distinct PST parent whose row is long
        // enough to pay for them: `slot[parent]` indexes `sums`, and
        // `NO_SUMS` lies past its end.
        const NO_SUMS: u32 = u32::MAX;
        let mut slot = vec![NO_SUMS; n_windows];
        let mut summed = Vec::new();
        for &node in &tests {
            let parent = link[node as usize];
            if slot[parent as usize] == NO_SUMS
                && trie.continuations(parent).0.len() >= MIN_SUMMED_ROW
            {
                slot[parent as usize] = summed.len() as u32;
                summed.push(parent);
            }
        }
        let sums: Vec<RowSums> =
            map_blocks_on_threads(summed.len().div_ceil(64), threads, |block| {
                let lo = block * 64;
                summed[lo..(lo + 64).min(summed.len())]
                    .iter()
                    .map(|&parent| RowSums::of(trie, parent))
                    .collect::<Vec<_>>()
            })
            .concat();

        // Divergence tests: bit `i % 64` of `verdicts[i / 64].0` says
        // whether `tests[i]` diverges from its PST parent by more than ε;
        // `.1` counts the block's tests the sums could not settle. Blocks
        // go to whichever thread asks next: a depth-2 test against a large
        // depth-1 row costs many deeper ones.
        let verdicts = map_blocks_on_threads(tests.len().div_ceil(64), threads, |block| {
            let lo = block * 64;
            let mut undecided = 0;
            let mut bits = 0u64;
            for (i, &node) in tests[lo..(lo + 64).min(tests.len())].iter().enumerate() {
                let parent = link[node as usize];
                let sums = sums.get(slot[parent as usize] as usize).copied();
                if diverges(trie, parent, node, config.epsilon, sums, &mut undecided) {
                    bits |= 1 << i;
                }
            }
            (bits, undecided)
        });

        // Marking pass, in canonical order: a diverging candidate joins
        // with its whole suffix chain. The marked set stays suffix-closed,
        // which lets a chain walk stop at the first state it meets.
        for (i, &node) in tests.iter().enumerate() {
            if verdicts[i / 64].0 >> (i % 64) & 1 == 1 {
                let mut suffix = node;
                while suffix != SuffixTrie::ROOT && !state[suffix as usize] {
                    state[suffix as usize] = true;
                    suffix = link[suffix as usize];
                }
            }
        }
        let states = (1..n_windows as u32)
            .filter(|&n| state[n as usize])
            .collect();
        (states, verdicts.iter().map(|v| v.1).sum())
    }

    /// Number of PST nodes including the root (Table VII metric).
    pub fn node_count(&self) -> usize {
        self.pst.len()
    }

    /// The underlying tree.
    pub fn pst(&self) -> &Pst {
        &self.pst
    }

    /// The frozen window trie the states index: its child rows are the
    /// distributions.
    pub fn window_trie(&self) -> &Arc<SuffixTrie> {
        self.pst.trie()
    }

    /// Training configuration.
    pub fn config(&self) -> &VmmConfig {
        &self.config
    }

    /// |Q| seen at training time.
    pub fn n_queries(&self) -> usize {
        self.totals.2
    }

    /// Longest suffix of `context` that is a (non-root) state: `(state,
    /// matched length)` — the state's context is the last `matched` queries
    /// of `context`.
    pub fn match_state(&self, context: &[QueryId]) -> Option<(u32, usize)> {
        let (idx, matched) = self.pst.longest_suffix(context);
        (matched > 0).then_some((idx, matched))
    }

    /// `P(q | context)` by longest-suffix matching **without** escape — the
    /// single-VMM convention (renormalization cancels escape, §IV-C.2(b)).
    /// Falls back to the root prior when nothing matches.
    pub fn cond_prob(&self, context: &[QueryId], q: QueryId) -> f64 {
        let (idx, _) = self.pst.longest_suffix(context);
        self.pst.dist(idx).prob(q)
    }
}

impl Recommender for Vmm {
    fn name(&self) -> &str {
        &self.name
    }

    /// Top-`k` by longest-suffix state matching: the first `k` entries of
    /// the matched state's ranked answer. With a reused buffer the whole
    /// serve path performs **zero heap allocations**.
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
    fn recommend_into(&self, context: &[QueryId], k: usize, out: &mut Vec<Scored>) {
        out.clear();
        let Some((mut idx, _)) = self.match_state(context) else {
            return;
        };
        // Walk toward the root if a state lacks evidence: the growth rule
        // never marks such a window, a state list read from disk may.
        loop {
            let answer = self.pst.answer(idx);
            if !answer.is_empty() {
                out.extend_from_slice(&answer[..k.min(answer.len())]);
                return;
            }
            idx = self.pst.parent(idx);
            if idx == 0 {
                return;
            }
        }
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

    /// A one-component mixture of `config`: its weight is 1 wherever it
    /// matches, so its scores are the escaped conditionals of Eq. (5).
    fn one_component(config: VmmConfig) -> crate::Mvmm {
        let cfg = crate::MvmmConfig {
            components: vec![config],
            fit: crate::FitConfig::default(),
        };
        crate::Mvmm::train(&toy_corpus(), &cfg)
    }

    /// The escaped conditional `P̂(q | ctx)` from a one-component mixture.
    fn escaped(m: &crate::Mvmm, ctx: &[QueryId], q: QueryId) -> f64 {
        let top = m.recommend(ctx, 2);
        top.iter().find(|s| s.query == q).expect("observed").score
    }

    #[test]
    fn paper_escape_example_q1q1() {
        // §IV-C.1(b): user submits q1q1; the state used is q1. The escape
        // probability is ‖[e,q1]‖ / ‖q1‖ = 18/31.
        let m = toy_vmm();
        assert!(!m.pst().contains(&seq(&[1, 1])));
        let esc = WindowCounts::build(&toy_corpus(), None).escape_prob(&seq(&[1, 1]));
        assert!((esc - 18.0 / 31.0).abs() < 1e-12, "esc = {esc}");
        let mixture = one_component(VmmConfig::with_epsilon(TOY_EPSILON));
        let p = escaped(&mixture, &seq(&[1, 1]), QueryId(0));
        assert!((p - (18.0 / 31.0) * 0.8).abs() < 1e-12);
        // Without escape the same context just uses state q1.
        assert!((m.cond_prob(&seq(&[1, 1]), QueryId(0)) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn escaped_prob_equals_plain_on_exact_states() {
        let m = toy_vmm();
        let mixture = one_component(VmmConfig::with_epsilon(TOY_EPSILON));
        for ctx in [seq(&[0]), seq(&[1]), seq(&[1, 0])] {
            for q in [QueryId(0), QueryId(1)] {
                assert!((m.cond_prob(&ctx, q) - escaped(&mixture, &ctx, q)).abs() < 1e-15);
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
        let states = Vmm::grow_pst(counts, config, None).0;
        for threads in [1, 2, 3, 5] {
            assert_eq!(
                Vmm::grow_pst(counts, config, Some(threads)).0,
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

    /// [`kl_counts_base10`] of `node` against `parent` as growth calls it;
    /// `None` without continuation evidence.
    fn exact_divergence(trie: &SuffixTrie, parent: u32, node: u32) -> Option<f64> {
        let (pt, ct) = (trie.cont_total(parent), trie.cont_total(node));
        (pt > 0 && ct > 0).then(|| {
            let q_floor = 1.0 / (ct as f64 + 1.0);
            kl_counts_base10(
                trie.continuations(parent),
                pt,
                trie.continuations(node),
                ct,
                q_floor,
            )
        })
    }

    /// The state list growth must keep, decided by the exact walk alone,
    /// each candidate's PST parent found by path rather than by link.
    fn exact_states(counts: &WindowCounts, config: VmmConfig) -> Vec<u32> {
        let trie = counts.trie();
        let mut state = vec![false; trie.window_count() + 1];
        let mut path = Vec::new();
        for node in counts.candidate_nodes(config.min_support, config.max_depth) {
            trie.path(node, &mut path);
            let joins = path.len() == 1 || {
                let parent = trie.window(&path[1..]).expect("a suffix is a window");
                exact_divergence(trie, parent, node).is_some_and(|d| d > config.epsilon)
            };
            if joins {
                for k in 0..path.len() {
                    state[trie.window(&path[k..]).expect("a suffix is a window") as usize] = true;
                }
            }
        }
        (1..state.len() as u32)
            .filter(|&n| state[n as usize])
            .collect()
    }

    /// Every divergence test of `counts` under `config`, given its parent's
    /// sums whatever the row's length, reaches the exact walk's verdict, and
    /// growth keeps the exact state list. Returns how many tests the sums
    /// left undecided.
    fn fast_verdicts_are_exact(counts: &WindowCounts, config: VmmConfig) -> usize {
        let trie = counts.trie();
        let mut undecided = 0;
        let mut path = Vec::new();
        for node in counts.candidate_nodes(config.min_support, config.max_depth) {
            trie.path(node, &mut path);
            if path.len() == 1 {
                continue;
            }
            let parent = trie.window(&path[1..]).expect("a suffix is a window");
            let sums = Some(RowSums::of(trie, parent));
            assert_eq!(
                diverges(trie, parent, node, config.epsilon, sums, &mut undecided),
                exact_divergence(trie, parent, node).is_some_and(|d| d > config.epsilon),
                "{path:?} under {config:?}"
            );
        }
        assert_eq!(
            Vmm::grow_pst(counts, config, None).0,
            exact_states(counts, config),
            "{config:?}"
        );
        undecided
    }

    #[test]
    fn the_fast_divergence_decision_is_the_exact_one() {
        for (name, sessions, max_len) in crate::counts::tests::split_corpora() {
            let counts = WindowCounts::build(&sessions, max_len);
            for epsilon in [0.0, 0.01, 0.05, 0.5, f64::INFINITY] {
                for min_support in [1, 3] {
                    let config = VmmConfig {
                        epsilon,
                        min_support,
                        max_depth: max_len,
                        ..VmmConfig::default()
                    };
                    let undecided = fast_verdicts_are_exact(&counts, config);
                    if epsilon == 0.05 {
                        assert_eq!(undecided, 0, "{name}: {config:?}");
                    }
                }
            }
        }

        let logs = sqp_logsim::generate(&sqp_logsim::SimConfig::small(4_000, 400, 11));
        let p = sqp_sessions::process(&logs, &sqp_sessions::PipelineConfig::default());
        let sessions = &p.train.aggregated.sessions;
        let sweep = crate::MvmmConfig::epsilon_sweep().components;
        let depths = crate::MvmmConfig::depth_mixture(&[(2, 0.1), (3, 0.2)]).components;
        for config in sweep.into_iter().chain(depths) {
            fast_verdicts_are_exact(&WindowCounts::build(sessions, config.max_depth), config);
        }
    }

    #[test]
    fn epsilon_at_a_divergence_takes_the_exact_walk() {
        let logs = sqp_logsim::generate(&sqp_logsim::SimConfig::small(4_000, 400, 11));
        let p = sqp_sessions::process(&logs, &sqp_sessions::PipelineConfig::default());
        let counts = WindowCounts::build(&p.train.aggregated.sessions, None);
        let trie = counts.trie();
        // A depth-2 candidate [a, b] whose parent [b] has a row long
        // enough to be summed, and a divergence above zero.
        let d = counts
            .candidate_nodes(1, None)
            .filter(|&n| trie.depth(n) == 2)
            .find_map(|node| {
                let parent = trie.child(SuffixTrie::ROOT, trie.key(node))?;
                let d = exact_divergence(trie, parent, node)?;
                (trie.continuations(parent).0.len() >= MIN_SUMMED_ROW && d > 0.0).then_some(d)
            })
            .expect("the simulated corpus has such a candidate");
        let config = VmmConfig::with_epsilon(d);
        let (states, undecided) = Vmm::grow_pst(&counts, config, None);
        assert!(undecided >= 1, "ε = {d} was decided without the exact walk");
        assert_eq!(states, exact_states(&counts, config));
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
    fn the_divergence_from_sums_stays_inside_its_bound() {
        let mut checked = 0;
        for case in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(400 + case);
            // Wider vocabularies and weights than `arbitrary_corpus`, so
            // rows are long and counts reach far past 2^32.
            let vocabulary = rng.random_range(2u32..40);
            let max_weight = 1u64 << rng.random_range(1u32..50);
            let corpus: Vec<(QuerySeq, u64)> = (0..rng.random_range(1usize..60))
                .map(|_| {
                    let len = rng.random_range(1usize..8);
                    let s: QuerySeq = (0..len)
                        .map(|_| QueryId(rng.random_range(0..vocabulary)))
                        .collect();
                    (s, rng.random_range(1..=max_weight))
                })
                .collect();
            let counts = WindowCounts::build(&corpus, None);
            let trie = counts.trie();
            let mut path = Vec::new();
            for node in counts
                .candidate_nodes(1, None)
                .filter(|&n| trie.depth(n) > 1)
            {
                trie.path(node, &mut path);
                let parent = trie.window(&path[1..]).expect("a suffix is a window");
                let (pt, ct) = (trie.cont_total(parent), trie.cont_total(node));
                let q_floor = 1.0 / (ct as f64 + 1.0);
                let exact = kl_counts_base10(
                    trie.continuations(parent),
                    pt,
                    trie.continuations(node),
                    ct,
                    q_floor,
                );
                let (fast, bound) = divergence_from_sums(
                    trie.continuations(parent),
                    pt,
                    RowSums::of(trie, parent),
                    trie.continuations(node),
                    ct,
                    q_floor,
                )
                .expect("a candidate's row is a sub-row of its parent's");
                assert!(
                    (fast - exact).abs() <= bound,
                    "case {case}, {path:?}: |{fast} - {exact}| > {bound}"
                );
                checked += 1;
            }
        }
        assert!(checked > 1_000, "only {checked} candidates checked");
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
            let counts = WindowCounts::build(&corpus, None);
            for q1 in 0..7u32 {
                for q2 in 0..7u32 {
                    let e = counts.escape_prob(&sqp_common::seq(&[q1, q2]));
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
