//! A discrete Hidden Markov Model over query sessions — the paper's §VI
//! future work realized: *"modeling hidden states that represent true user
//! intent, which could be an underlying semantic concept"*.
//!
//! Hidden states play the role of latent intents; emissions are queries;
//! transitions model intent drift within a session. Training is classic
//! Baum–Welch (scaled forward–backward EM) over the weighted aggregated
//! sessions; prediction propagates the forward belief one step and ranks
//! queries by expected emission probability:
//!
//! `P(q_next | q_1..q_t) ∝ Σ_l ( Σ_k α_t(k)·A[k][l] ) · B[l][q_next]`
//!
//! The paper leaves open "whether more sophisticated models can further
//! raise the performance bar"; the `ext_future_models` experiment answers
//! it on the simulator. The model has no `ModelKind` and no persisted
//! form: it exists for that experiment alone.

#![allow(clippy::needless_range_loop)] // dense matrix math reads best indexed

use sqp_common::mem::HASH_ENTRY_OVERHEAD;
use sqp_common::rng::{Rng, StdRng};
use sqp_common::topk::Scored;
use sqp_common::{FxHashMap, FxHashSet, QueryId};
use sqp_core::{Recommender, SequenceScorer, WeightedSessions};

/// HMM training configuration.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HmmConfig {
    /// Number of hidden intent states.
    pub(crate) n_states: usize,
    /// Baum–Welch iterations.
    pub(crate) iterations: usize,
    /// Cap on training sequences (most frequent first) for tractability.
    pub(crate) max_sequences: usize,
    /// RNG seed for the parameter initialization.
    pub(crate) seed: u64,
    /// Dirichlet-style pseudo-count added to every re-estimated parameter.
    pub(crate) smoothing: f64,
}

impl Default for HmmConfig {
    fn default() -> Self {
        Self {
            n_states: 16,
            iterations: 12,
            max_sequences: 3_000,
            seed: 17,
            smoothing: 0.05,
        }
    }
}

/// The trained model.
pub(crate) struct Hmm {
    n_states: usize,
    /// Initial state distribution π.
    start: Vec<f64>,
    /// Transition matrix A, row-stochastic.
    trans: Vec<Vec<f64>>,
    /// Sparse emission distributions B, one map per state.
    emit: Vec<FxHashMap<QueryId, f64>>,
    /// Per-state emissions sorted descending (for candidate generation).
    emit_sorted: Vec<Box<[(QueryId, f64)]>>,
    /// Emission floor for queries unseen by a state.
    emit_floor: f64,
    /// Queries observed in training (coverage gate).
    vocabulary: FxHashSet<QueryId>,
    /// Final training log10-likelihood per EM iteration: a diagnostic the
    /// experiment does not print and the tests hold non-decreasing.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) log_likelihood_trace: Vec<f64>,
}

impl Hmm {
    /// Train with Baum–Welch.
    pub(crate) fn train(sessions: &WeightedSessions, config: HmmConfig) -> Self {
        let k = config.n_states.max(1);
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Training corpus: the most frequent multi-query sessions.
        let mut corpus: Vec<(&[QueryId], f64)> = sessions
            .iter()
            .filter(|(s, _)| s.len() >= 2)
            .map(|(s, f)| (s.as_ref(), *f as f64))
            .collect();
        corpus.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(b.0)));
        corpus.truncate(config.max_sequences);

        let mut vocabulary: FxHashSet<QueryId> = FxHashSet::default();
        for (s, _) in &corpus {
            vocabulary.extend(s.iter().copied());
        }
        let n_queries = vocabulary.len().max(1);
        let emit_floor = 1.0 / (n_queries as f64 * 50.0);

        // Random row-stochastic initialization.
        let random_dist = |n: usize, rng: &mut StdRng| -> Vec<f64> {
            let mut v: Vec<f64> = (0..n).map(|_| 0.2 + rng.random::<f64>()).collect();
            let total: f64 = v.iter().sum();
            v.iter_mut().for_each(|x| *x /= total);
            v
        };
        let mut start = random_dist(k, &mut rng);
        let mut trans: Vec<Vec<f64>> = (0..k).map(|_| random_dist(k, &mut rng)).collect();
        let vocab_list: Vec<QueryId> = {
            let mut v: Vec<QueryId> = vocabulary.iter().copied().collect();
            v.sort_unstable();
            v
        };
        let mut emit: Vec<FxHashMap<QueryId, f64>> = (0..k)
            .map(|_| {
                let mut m = FxHashMap::default();
                let mut total = 0.0;
                for &q in &vocab_list {
                    let w = 0.05 + rng.random::<f64>();
                    m.insert(q, w);
                    total += w;
                }
                m.values_mut().for_each(|x| *x /= total);
                m
            })
            .collect();

        let mut log_likelihood_trace = Vec::with_capacity(config.iterations);
        for _iter in 0..config.iterations {
            // Accumulators with pseudo-count smoothing.
            let mut acc_start = vec![config.smoothing; k];
            let mut acc_trans = vec![vec![config.smoothing; k]; k];
            let mut acc_emit: Vec<FxHashMap<QueryId, f64>> =
                (0..k).map(|_| FxHashMap::default()).collect();
            let mut acc_state = vec![config.smoothing * n_queries as f64; k];
            let mut ll = 0.0;

            for (s, weight) in &corpus {
                let t_len = s.len();
                let e = |state: usize, t: usize| -> f64 {
                    emit[state].get(&s[t]).copied().unwrap_or(emit_floor)
                };

                // Scaled forward pass.
                let mut alpha = vec![vec![0.0; k]; t_len];
                let mut scale = vec![0.0f64; t_len];
                for j in 0..k {
                    alpha[0][j] = start[j] * e(j, 0);
                    scale[0] += alpha[0][j];
                }
                scale[0] = scale[0].max(1e-300);
                alpha[0].iter_mut().for_each(|x| *x /= scale[0]);
                for t in 1..t_len {
                    for j in 0..k {
                        let mut a = 0.0;
                        for i in 0..k {
                            a += alpha[t - 1][i] * trans[i][j];
                        }
                        alpha[t][j] = a * e(j, t);
                        scale[t] += alpha[t][j];
                    }
                    scale[t] = scale[t].max(1e-300);
                    alpha[t].iter_mut().for_each(|x| *x /= scale[t]);
                }
                ll += weight * scale.iter().map(|s| s.log10()).sum::<f64>();

                // Scaled backward pass.
                let mut beta = vec![vec![0.0; k]; t_len];
                beta[t_len - 1].iter_mut().for_each(|x| *x = 1.0);
                for t in (0..t_len - 1).rev() {
                    for i in 0..k {
                        let mut b = 0.0;
                        for j in 0..k {
                            b += trans[i][j] * e(j, t + 1) * beta[t + 1][j];
                        }
                        beta[t][i] = b / scale[t + 1];
                    }
                }

                // Posteriors.
                for t in 0..t_len {
                    let mut norm = 0.0;
                    for i in 0..k {
                        norm += alpha[t][i] * beta[t][i];
                    }
                    let norm = norm.max(1e-300);
                    for i in 0..k {
                        let gamma = alpha[t][i] * beta[t][i] / norm * weight;
                        if t == 0 {
                            acc_start[i] += gamma;
                        }
                        acc_state[i] += gamma;
                        *acc_emit[i].entry(s[t]).or_insert(0.0) += gamma;
                    }
                    if t + 1 < t_len {
                        let mut xi_norm = 0.0;
                        for i in 0..k {
                            for j in 0..k {
                                xi_norm += alpha[t][i] * trans[i][j] * e(j, t + 1) * beta[t + 1][j];
                            }
                        }
                        let xi_norm = xi_norm.max(1e-300);
                        for i in 0..k {
                            for j in 0..k {
                                let xi = alpha[t][i] * trans[i][j] * e(j, t + 1) * beta[t + 1][j]
                                    / xi_norm
                                    * weight;
                                acc_trans[i][j] += xi;
                            }
                        }
                    }
                }
            }
            log_likelihood_trace.push(ll);

            // M step.
            let start_total: f64 = acc_start.iter().sum();
            start = acc_start.iter().map(|x| x / start_total).collect();
            for i in 0..k {
                let row_total: f64 = acc_trans[i].iter().sum();
                trans[i] = acc_trans[i].iter().map(|x| x / row_total).collect();
                let state_total = acc_state[i].max(1e-300);
                let mut new_emit = FxHashMap::default();
                for &q in &vocab_list {
                    let c = acc_emit[i].get(&q).copied().unwrap_or(0.0) + config.smoothing;
                    new_emit.insert(q, c / state_total);
                }
                emit[i] = new_emit;
            }
        }

        let emit_sorted: Vec<Box<[(QueryId, f64)]>> = emit
            .iter()
            .map(|m| {
                let mut v: Vec<(QueryId, f64)> = m.iter().map(|(&q, &p)| (q, p)).collect();
                v.sort_unstable_by(|a, b| {
                    b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0))
                });
                v.into_boxed_slice()
            })
            .collect();

        Hmm {
            n_states: k,
            start,
            trans,
            emit,
            emit_sorted,
            emit_floor,
            vocabulary,
            log_likelihood_trace,
        }
    }

    /// Forward belief over hidden states after observing `context`
    /// (normalized); `None` when the context is empty.
    pub(crate) fn belief(&self, context: &[QueryId]) -> Option<Vec<f64>> {
        if context.is_empty() {
            return None;
        }
        let e = |state: usize, q: QueryId| -> f64 {
            self.emit[state].get(&q).copied().unwrap_or(self.emit_floor)
        };
        let mut alpha: Vec<f64> = (0..self.n_states)
            .map(|j| self.start[j] * e(j, context[0]))
            .collect();
        let norm: f64 = alpha.iter().sum::<f64>().max(1e-300);
        alpha.iter_mut().for_each(|x| *x /= norm);
        for &q in &context[1..] {
            let mut next = vec![0.0; self.n_states];
            for (j, nj) in next.iter_mut().enumerate() {
                for i in 0..self.n_states {
                    *nj += alpha[i] * self.trans[i][j];
                }
                *nj *= e(j, q);
            }
            let norm: f64 = next.iter().sum::<f64>().max(1e-300);
            next.iter_mut().for_each(|x| *x /= norm);
            alpha = next;
        }
        Some(alpha)
    }

    /// `P(q | context)` by one-step belief propagation.
    pub(crate) fn cond_prob(&self, context: &[QueryId], q: QueryId) -> f64 {
        let Some(alpha) = self.belief(context) else {
            return 0.0;
        };
        let mut p = 0.0;
        for j in 0..self.n_states {
            let mut prior = 0.0;
            for i in 0..self.n_states {
                prior += alpha[i] * self.trans[i][j];
            }
            p += prior * self.emit[j].get(&q).copied().unwrap_or(self.emit_floor);
        }
        p
    }
}

impl Recommender for Hmm {
    fn name(&self) -> &str {
        "HMM"
    }

    fn recommend_into(&self, context: &[QueryId], k: usize, out: &mut Vec<Scored>) {
        out.clear();
        // Coverage gate aligned with the other models: the current query
        // must be known; an HMM could always emit *something*, but scoring
        // hallucinations against unseen queries is not a recommendation.
        let Some(&last) = context.last() else {
            return;
        };
        if !self.vocabulary.contains(&last) {
            return;
        }
        let Some(alpha) = self.belief(context) else {
            return;
        };
        // Predicted state prior.
        let mut prior = vec![0.0; self.n_states];
        for (j, pj) in prior.iter_mut().enumerate() {
            for i in 0..self.n_states {
                *pj += alpha[i] * self.trans[i][j];
            }
        }
        // Candidates: top emissions of the most probable states, pooled in
        // `out` and ranked there.
        let mut by_weight: Vec<usize> = (0..self.n_states).collect();
        by_weight.sort_unstable_by(|&a, &b| prior[b].partial_cmp(&prior[a]).unwrap());
        for &j in by_weight.iter().take(4) {
            for &(q, _) in self.emit_sorted[j].iter().take(k * 4) {
                out.push(Scored::new(q, 0.0));
            }
        }
        out.sort_unstable_by_key(|c| c.query);
        out.dedup_by_key(|c| c.query);
        for c in out.iter_mut() {
            let mut p = 0.0;
            for j in 0..self.n_states {
                p += prior[j]
                    * self.emit[j]
                        .get(&c.query)
                        .copied()
                        .unwrap_or(self.emit_floor);
            }
            c.score = p;
        }
        sqp_common::topk::top_k_into(out, k);
    }

    fn covers(&self, context: &[QueryId]) -> bool {
        context.last().is_some_and(|q| self.vocabulary.contains(q))
    }

    fn memory_bytes(&self) -> usize {
        let dense = self.n_states * self.n_states * 8 + self.n_states * 8;
        let emissions: usize = self
            .emit
            .iter()
            .map(|m| m.len() * (std::mem::size_of::<QueryId>() + 8 + HASH_ENTRY_OVERHEAD))
            .sum();
        let sorted: usize = self
            .emit_sorted
            .iter()
            .map(|v| v.len() * std::mem::size_of::<(QueryId, f64)>())
            .sum();
        dense + emissions + sorted + self.vocabulary.len() * (4 + HASH_ENTRY_OVERHEAD)
    }
}

impl SequenceScorer for Hmm {
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
    use sqp_common::seq;
    use sqp_core::{Vmm, VmmConfig};
    use sqp_eval::overall_ndcg;

    /// Two disjoint "intents": queries {0,1,2} chain together, queries
    /// {10,11,12} chain together; the HMM should separate them.
    fn two_cluster_corpus() -> Vec<(sqp_common::QuerySeq, u64)> {
        vec![
            (seq(&[0, 1, 2]), 40),
            (seq(&[1, 0, 2]), 30),
            (seq(&[2, 1]), 20),
            (seq(&[10, 11, 12]), 40),
            (seq(&[11, 10, 12]), 30),
            (seq(&[12, 11]), 20),
        ]
    }

    fn small_cfg() -> HmmConfig {
        HmmConfig {
            n_states: 4,
            iterations: 25,
            max_sequences: 100,
            seed: 3,
            smoothing: 0.01,
        }
    }

    #[test]
    fn em_likelihood_is_nondecreasing() {
        let hmm = Hmm::train(&two_cluster_corpus(), small_cfg());
        let trace = &hmm.log_likelihood_trace;
        assert!(trace.len() >= 2);
        for w in trace.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-6,
                "likelihood decreased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn separates_clusters_in_prediction() {
        let hmm = Hmm::train(&two_cluster_corpus(), small_cfg());
        // After seeing cluster-A queries, cluster-A continuations must
        // dominate cluster-B ones.
        let ctx = seq(&[0, 1]);
        let p_in = hmm.cond_prob(&ctx, QueryId(2));
        let p_out = hmm.cond_prob(&ctx, QueryId(12));
        assert!(
            p_in > p_out * 3.0,
            "cluster separation too weak: {p_in} vs {p_out}"
        );
        // And the top recommendation stays in-cluster.
        let top = hmm.recommend(&ctx, 3);
        assert!(top[0].query.0 < 10, "top = {:?}", top[0].query);
    }

    #[test]
    fn belief_is_a_distribution() {
        let hmm = Hmm::train(&two_cluster_corpus(), small_cfg());
        for ctx in [seq(&[0]), seq(&[0, 1]), seq(&[10, 11, 12])] {
            let b = hmm.belief(&ctx).unwrap();
            assert_eq!(b.len(), 4);
            let total: f64 = b.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            assert!(b.iter().all(|&x| x >= 0.0));
        }
        assert!(hmm.belief(&[]).is_none());
    }

    #[test]
    fn coverage_requires_known_last_query() {
        let hmm = Hmm::train(&two_cluster_corpus(), small_cfg());
        assert!(hmm.covers(&seq(&[0])));
        assert!(!hmm.covers(&seq(&[99])));
        assert!(hmm.recommend(&seq(&[99]), 5).is_empty());
        assert!(hmm.recommend(&[], 5).is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Hmm::train(&two_cluster_corpus(), small_cfg());
        let b = Hmm::train(&two_cluster_corpus(), small_cfg());
        assert_eq!(a.log_likelihood_trace, b.log_likelihood_trace);
        let ra = a.recommend(&seq(&[0, 1]), 5);
        let rb = b.recommend(&seq(&[0, 1]), 5);
        assert_eq!(
            ra.iter().map(|r| r.query).collect::<Vec<_>>(),
            rb.iter().map(|r| r.query).collect::<Vec<_>>()
        );
    }

    #[test]
    fn transition_rows_are_stochastic() {
        let hmm = Hmm::train(&two_cluster_corpus(), small_cfg());
        for row in &hmm.trans {
            let total: f64 = row.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
        let start_total: f64 = hmm.start.iter().sum();
        assert!((start_total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn respects_k_and_order() {
        let hmm = Hmm::train(&two_cluster_corpus(), small_cfg());
        let recs = hmm.recommend(&seq(&[0]), 2);
        assert!(recs.len() <= 2);
        for w in recs.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn memory_positive() {
        let hmm = Hmm::train(&two_cluster_corpus(), small_cfg());
        assert!(hmm.memory_bytes() > 0);
    }

    #[test]
    fn single_state_degenerates_to_unigram() {
        let hmm = Hmm::train(
            &two_cluster_corpus(),
            HmmConfig {
                n_states: 1,
                ..small_cfg()
            },
        );
        // With one state, P(q|ctx) is context-independent.
        let p1 = hmm.cond_prob(&seq(&[0]), QueryId(2));
        let p2 = hmm.cond_prob(&seq(&[10, 11]), QueryId(2));
        assert!((p1 - p2).abs() < 1e-9);
    }

    /// A simulated corpus, processed — the workload the HMM's experiment
    /// runs on, at test size.
    fn processed() -> sqp_sessions::ProcessedLogs {
        let logs = sqp_logsim::generate(&sqp_logsim::SimConfig::small(15_000, 4_000, 123));
        sqp_sessions::process(&logs, &sqp_sessions::PipelineConfig::default())
    }

    #[test]
    fn hmm_learns_but_trails_explicit_context_models() {
        let p = processed();
        let sessions = &p.train.aggregated.sessions;
        let gt = &p.ground_truth;

        let hmm = Hmm::train(
            sessions,
            HmmConfig {
                n_states: 8,
                iterations: 6,
                max_sequences: 800,
                ..HmmConfig::default()
            },
        );
        // EM monotonicity on real data.
        for w in hmm.log_likelihood_trace.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "EM likelihood decreased");
        }
        // The HMM predicts something meaningful…
        let n_hmm = overall_ndcg(&hmm, gt, 5);
        assert!(n_hmm > 0.05, "HMM NDCG {n_hmm} is noise-level");
        // …but the paper-lineup VMM stays ahead (the §VI answer).
        let vmm = Vmm::train(sessions, VmmConfig::with_epsilon(0.05));
        assert!(
            overall_ndcg(&vmm, gt, 5) > n_hmm,
            "explicit-context model should lead on sparse sessions"
        );
    }

    #[test]
    fn hmm_sequence_scoring_is_well_behaved() {
        let p = processed();
        let sessions = &p.train.aggregated.sessions;
        let hmm = Hmm::train(
            sessions,
            HmmConfig {
                n_states: 4,
                iterations: 4,
                max_sequences: 300,
                ..HmmConfig::default()
            },
        );
        for (s, _) in sessions.iter().take(50).filter(|(s, _)| s.len() >= 2) {
            let lp = hmm.sequence_log10_prob(s);
            assert!(lp.is_finite());
            assert!(lp <= 0.0, "sequence log-prob {lp} > 0");
        }
    }
}
