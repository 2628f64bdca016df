//! Katz-style back-off N-gram — reference \[18\] of the paper.
//!
//! §IV-B introduces the VMM as "a variation of back-off N-gram"; this module
//! implements the original variation point so the two can be compared (the
//! paper's §VI asks for a study of "all the different N-gram variations").
//!
//! Differences from the naive [`crate::NGram`]:
//! * contexts are counted at **any** session position (like the VMM), not
//!   just as session prefixes;
//! * an unmatched context **backs off** to its suffix instead of failing,
//!   paying an absolute-discount penalty.
//!
//! Differences from the [`crate::Vmm`]:
//! * no KL growth criterion — every observed context up to the order bound
//!   becomes a state;
//! * back-off mass comes from absolute discounting (δ per observed
//!   continuation type), not from the session-start escape of Eq. (6).

use crate::counts::WindowCounts;
use crate::model::{Recommender, SequenceScorer, WeightedSessions};
use sqp_common::arena::SuffixTrie;
use sqp_common::topk::Scored;
use sqp_common::QueryId;
use std::sync::Arc;

/// Back-off N-gram configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BackoffConfig {
    /// Maximum context length (the model's N − 1). `None` = unbounded.
    pub max_order: Option<usize>,
    /// Absolute discount δ ∈ (0, 1) subtracted from every observed
    /// continuation count to fund the back-off mass.
    pub discount: f64,
    /// Minimum continuation support for a context to become a state.
    pub min_support: u64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        Self {
            max_order: Some(4),
            discount: 0.5,
            min_support: 1,
        }
    }
}

/// The trained back-off model: its window counts and its config, nothing
/// else. A state is a window of at most `max_order` queries with at least
/// `max(min_support, 1)` continuations; its observed continuations are its
/// node's children (counts in `total`, best first by `rank`, their sum the
/// node's `cont_total`), and the unigram floor is the root's children.
pub struct BackoffNgram {
    /// Fields are `pub(crate)` so [`crate::persist`] can round-trip them.
    pub(crate) trie: Arc<SuffixTrie>,
    pub(crate) config: BackoffConfig,
}

impl BackoffNgram {
    /// Train on weighted sessions.
    pub fn train(sessions: &WeightedSessions, config: BackoffConfig) -> Self {
        BackoffNgram {
            trie: WindowCounts::build(sessions, config.max_order).shared_trie(),
            config,
        }
    }

    /// Number of stored context states (excluding the unigram floor).
    pub fn state_count(&self) -> usize {
        let windows = self.trie.window_ids(self.config.max_order);
        windows.filter(|&node| self.supported(node)).count()
    }

    /// Whether the window at `node` has the continuations a state needs.
    fn supported(&self, node: u32) -> bool {
        self.trie.cont_total(node) >= self.config.min_support.max(1)
    }

    /// The trie node of `context` when it is a state.
    fn state(&self, context: &[QueryId]) -> Option<u32> {
        if self.config.max_order.is_some_and(|d| context.len() > d) {
            return None;
        }
        self.trie
            .window(context)
            .filter(|&node| self.supported(node))
    }

    /// Longest suffix of `context` that is a state, if any.
    pub fn longest_suffix<'a>(&self, context: &'a [QueryId]) -> Option<&'a [QueryId]> {
        (0..context.len())
            .map(|start| &context[start..])
            .find(|suffix| self.state(suffix).is_some())
    }

    /// Discounted probability of an observed continuation of `node`, 0 if
    /// unobserved.
    fn discounted_prob(&self, node: u32, q: QueryId) -> f64 {
        self.trie.child(node, q).map_or(0.0, |c| {
            (self.trie.total(c) as f64 - self.config.discount).max(0.0)
                / self.trie.cont_total(node) as f64
        })
    }

    /// Mass reserved for backing off: δ · (#continuation types) / total.
    fn backoff_mass(&self, node: u32) -> f64 {
        let types = self.trie.continuations(node).0.len();
        (self.config.discount * types as f64 / self.trie.cont_total(node) as f64).clamp(0.0, 1.0)
    }

    /// Katz-style conditional probability with recursive back-off.
    pub fn cond_prob(&self, context: &[QueryId], q: QueryId) -> f64 {
        let mut factor = 1.0;
        let mut ctx = context;
        // Skip over-order prefixes outright (they carry no evidence).
        if let Some(d) = self.config.max_order {
            if ctx.len() > d {
                ctx = &ctx[ctx.len() - d..];
            }
        }
        while !ctx.is_empty() {
            // An unobserved context backs off freely.
            if let Some(node) = self.state(ctx) {
                let p = self.discounted_prob(node, q);
                if p > 0.0 {
                    return factor * p;
                }
                factor *= self.backoff_mass(node).max(1e-12);
            }
            ctx = &ctx[1..];
        }
        // Unigram floor with 1/|Q| smoothing for unseen queries.
        let root = SuffixTrie::ROOT;
        let total = self.trie.cont_total(root);
        let n_queries = self.trie.continuations(root).0.len().max(1);
        let count = self.trie.child(root, q).map_or(0, |c| self.trie.total(c));
        let p = if total == 0 {
            1.0 / n_queries as f64
        } else if count > 0 {
            count as f64 / total as f64
        } else {
            1.0 / (total as f64 * n_queries as f64)
        };
        factor * p
    }
}

impl Recommender for BackoffNgram {
    fn name(&self) -> &str {
        "Backoff N-gram"
    }

    fn recommend_into(&self, context: &[QueryId], k: usize, out: &mut Vec<Scored>) {
        out.clear();
        // Coverage semantics consistent with the other ordered models: the
        // current query must have continuation evidence somewhere.
        let Some(suffix) = self.longest_suffix(context) else {
            return;
        };
        // Candidates: continuations observed at the matched state plus, if
        // short, at its own suffixes (back-off can surface them), pooled in
        // `out` and ranked there.
        let mut s = suffix;
        while !s.is_empty() {
            if let Some(node) = self.state(s) {
                let keys = self.trie.continuations(node).0;
                for &i in self.trie.rank(node).iter().take(k * 4) {
                    out.push(Scored::new(keys[i as usize], 0.0));
                }
            }
            s = &s[1..];
        }
        out.sort_unstable_by_key(|c| c.query);
        out.dedup_by_key(|c| c.query);
        for c in out.iter_mut() {
            c.score = self.cond_prob(context, c.query);
        }
        sqp_common::topk::top_k_into(out, k);
    }

    fn covers(&self, context: &[QueryId]) -> bool {
        self.longest_suffix(context).is_some()
    }

    fn memory_bytes(&self) -> usize {
        self.trie.heap_bytes()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl SequenceScorer for BackoffNgram {
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
    use crate::toy::toy_corpus;
    use sqp_common::seq;

    fn model() -> BackoffNgram {
        BackoffNgram::train(&toy_corpus(), BackoffConfig::default())
    }

    #[test]
    fn window_states_are_stored() {
        let m = model();
        // The toy candidate set: [0], [1], [0,1], [1,0].
        assert_eq!(m.state_count(), 4);
        assert!(m.state(&seq(&[1, 0])).is_some());
        assert!(m.state(&seq(&[0, 1])).is_some()); // no KL pruning here
    }

    #[test]
    fn discounted_probabilities_sum_below_one_on_observed() {
        let m = model();
        // State [1,0]: counts (q1:7, q0:3), δ = 0.5 ⇒ 6.5/10 + 2.5/10 = 0.9;
        // back-off mass = 2·0.5/10 = 0.1.
        let p1 = m.cond_prob(&seq(&[1, 0]), QueryId(1));
        let p0 = m.cond_prob(&seq(&[1, 0]), QueryId(0));
        assert!((p1 - 0.65).abs() < 1e-12, "p1 = {p1}");
        assert!((p0 - 0.25).abs() < 1e-12, "p0 = {p0}");
    }

    #[test]
    fn backoff_pays_discount_mass() {
        let m = model();
        // Query 2 never follows [1,0]; 2 is unseen entirely, so the chain
        // backs off through [0] to the unigram floor:
        // mass([1,0]) = 0.5·2/10 = 0.1; mass([0]) = 0.5·2/90 = 1/90;
        // unigram floor = 1/(218·|Q|) with |Q| = 2.
        let p = m.cond_prob(&seq(&[1, 0]), QueryId(2));
        let floor = 1.0 / (218.0 * 2.0);
        assert!((p - 0.1 * (1.0 / 90.0) * floor).abs() < 1e-15, "p = {p}");
        assert!(p > 0.0);
    }

    #[test]
    fn conditional_sums_to_roughly_one() {
        // Observed mass + backoff×(suffix dist) telescopes to ~1 over the
        // full universe; check with the two real queries (unseen queries add
        // the tiny smoothing remainder).
        let m = model();
        let total: f64 = (0..2).map(|q| m.cond_prob(&seq(&[1, 0]), QueryId(q))).sum();
        assert!(total <= 1.0 + 1e-9);
        assert!(total > 0.85, "total = {total}");
    }

    #[test]
    fn recommend_matches_vmm_on_exact_state() {
        let m = model();
        let recs = m.recommend(&seq(&[1, 0]), 2);
        assert_eq!(recs[0].query, QueryId(1)); // same winner as the paper's PST
    }

    #[test]
    fn backs_off_on_unseen_context() {
        let m = model();
        // Context [1,1] is not a state (no continuation evidence), but its
        // suffix [1] is — the model still answers, like the VMM.
        let recs = m.recommend(&seq(&[1, 1]), 1);
        assert_eq!(recs[0].query, QueryId(0)); // P(q0|q1) dominates
        assert!(m.covers(&seq(&[1, 1])));
        assert!(!m.covers(&seq(&[9])));
    }

    #[test]
    fn max_order_truncates_long_contexts() {
        let m = BackoffNgram::train(
            &toy_corpus(),
            BackoffConfig {
                max_order: Some(1),
                ..BackoffConfig::default()
            },
        );
        assert_eq!(m.state_count(), 2); // only [0] and [1]
                                        // A length-3 context still answers through its last query.
        assert!(!m.recommend(&seq(&[0, 1, 0]), 3).is_empty());
    }

    #[test]
    fn coverage_equals_vmm_and_adjacency() {
        let corpus = toy_corpus();
        let bo = BackoffNgram::train(&corpus, BackoffConfig::default());
        let vmm = crate::Vmm::train(&corpus, crate::VmmConfig::with_epsilon(0.05));
        for a in 0..3u32 {
            for b in 0..3u32 {
                let ctx = seq(&[a, b]);
                assert_eq!(bo.covers(&ctx), vmm.covers(&ctx), "{ctx:?}");
            }
        }
    }

    #[test]
    fn sequence_scoring_is_finite() {
        let m = model();
        let lp = m.sequence_log10_prob(&seq(&[0, 1, 0, 1, 1, 0]));
        assert!(lp.is_finite());
        assert!(lp < 0.0);
    }

    #[test]
    fn empty_corpus() {
        let m = BackoffNgram::train(&[], BackoffConfig::default());
        assert_eq!(m.state_count(), 0);
        assert!(m.recommend(&seq(&[0]), 5).is_empty());
    }
}
