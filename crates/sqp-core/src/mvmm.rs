//! The Mixture Variable Memory Markov model (MVMM) — §IV-C of the paper.
//!
//! Multiple VMM components (different ε and/or depth bounds D) are trained
//! independently — in parallel, as the paper notes the K models can be — off
//! one window trie, counted once at the deepest bound: a trie counted to
//! depth D holds, as its first rows, the count to every shallower bound,
//! and each component reads it to its own. So the mixture in memory is
//! that trie once plus K state indexes (§V-F.2: the deployed MVMM is barely
//! larger than one VMM). They are combined at prediction time with
//! weights
//!
//! `w(D,T) = N(d; 0, σ_D²)` (Eq. 4)
//!
//! where `d` is the edit distance between the live context and the PST state
//! the component matched, and the σ vector is learned offline by the Newton
//! iteration of `newton.rs` (Eq. 7–10). Escaped conditional probabilities
//! (Eq. 5–6) penalize partially matching components, which is precisely what
//! makes the mixture prefer components whose memory bound fits the context.

use crate::counts::WindowCounts;
use crate::model::{Recommender, SequenceScorer, WeightedSessions};
use crate::newton::{fit_mixture_sigmas, FitConfig};
use crate::vmm::{Vmm, VmmConfig};
use sqp_common::math::gaussian_pdf;
use sqp_common::threads::map_on_threads;
use sqp_common::topk::Scored;
use sqp_common::{QueryId, QuerySeq};
use std::sync::Arc;

/// MVMM training parameters.
#[derive(Clone, Debug)]
pub struct MvmmConfig {
    /// The VMM components to mix.
    pub components: Vec<VmmConfig>,
    /// Newton-fit parameters for the mixture deviations.
    pub fit: FitConfig,
}

impl Default for MvmmConfig {
    fn default() -> Self {
        Self::epsilon_sweep()
    }
}

impl MvmmConfig {
    /// The paper's §V-D headline mixture: 11 unbounded VMMs with
    /// ε ∈ {0.00, 0.01, …, 0.10}.
    pub fn epsilon_sweep() -> Self {
        Self {
            components: (0..=10)
                .map(|i| VmmConfig::with_epsilon(i as f64 * 0.01))
                .collect(),
            fit: FitConfig::default(),
        }
    }

    /// A depth mixture (the Table VII example mixes 2-bounded VMM(0.1) with
    /// 3-bounded VMM(0.2)).
    pub fn depth_mixture(specs: &[(usize, f64)]) -> Self {
        Self {
            components: specs
                .iter()
                .map(|&(d, e)| VmmConfig::bounded(d, e))
                .collect(),
            fit: FitConfig::default(),
        }
    }

    /// A small mixture for tests/benches.
    pub fn small() -> Self {
        Self {
            components: vec![
                VmmConfig::with_epsilon(0.0),
                VmmConfig::with_epsilon(0.05),
                VmmConfig::with_epsilon(0.1),
            ],
            fit: FitConfig {
                max_fit_sequences: 300,
                ..FitConfig::default()
            },
        }
    }
}

/// A trained MVMM.
pub struct Mvmm {
    components: Vec<Vmm>,
    sigmas: Vec<f64>,
}

impl Mvmm {
    /// Train all components and fit the mixture deviations.
    ///
    /// # Panics
    /// Panics when `cfg.components` is empty.
    pub fn train(sessions: &WeightedSessions, cfg: &MvmmConfig) -> Self {
        assert!(
            !cfg.components.is_empty(),
            "MVMM needs at least one component"
        );

        // Count the corpus once, to the deepest bound (`None`, unbounded,
        // when any component is), and train every component off that one
        // trie on a thread of its own: each reads it to its own bound.
        let deepest = cfg
            .components
            .iter()
            .try_fold(0, |deepest, c| c.max_depth.map(|d| d.max(deepest)));
        let counts = WindowCounts::build(sessions, deepest);
        let components = map_on_threads(&cfg.components, |c| Vmm::train_with_counts(&counts, *c));

        // Select the fit corpus: the most frequent multi-query sessions.
        let mut multi: Vec<&(QuerySeq, u64)> =
            sessions.iter().filter(|(s, _)| s.len() >= 2).collect();
        multi.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        multi.truncate(cfg.fit.max_fit_sequences);
        let mass: u64 = multi.iter().map(|(_, f)| f).sum();

        let (mut p, mut a, mut d) = (Vec::new(), Vec::new(), Vec::new());
        for (s, f) in &multi {
            p.push(*f as f64 / mass.max(1) as f64);
            let ctx = &s[..s.len() - 1];
            let mut a_row = Vec::with_capacity(components.len());
            let mut d_row = Vec::with_capacity(components.len());
            for comp in &components {
                a_row.push(10f64.powf(comp.sequence_log10_prob_escaped(s)).max(1e-300));
                d_row.push(Self::disparity(comp, ctx));
            }
            a.push(a_row);
            d.push(d_row);
        }

        let sigmas = fit_mixture_sigmas(&p, &a, &d, &cfg.fit).sigmas;
        Self::from_parts(components, sigmas).expect("one fitted deviation per trained component")
    }

    /// The mixture of `components` weighted by `sigmas` — the one
    /// constructor, for a mixture just fitted and for one read from disk.
    pub(crate) fn from_parts(components: Vec<Vmm>, sigmas: Vec<f64>) -> Result<Self, String> {
        if components.is_empty() {
            return Err("a mixture needs at least one component".into());
        }
        if sigmas.len() != components.len() {
            return Err(format!(
                "{} deviations for {} components",
                sigmas.len(),
                components.len()
            ));
        }
        if let Some(bad) = sigmas.iter().find(|s| !(s.is_finite() && **s > 0.0)) {
            return Err(format!(
                "mixture deviation {bad} is not finite and positive"
            ));
        }
        // Training and loading hand every component one trie: what the
        // payload writes once and `memory_bytes` counts once.
        debug_assert!(components
            .iter()
            .all(|c| Arc::ptr_eq(c.window_trie(), components[0].window_trie())));
        Ok(Mvmm { components, sigmas })
    }

    /// Edit distance between the context and the non-root state a component
    /// matched (the `d(T)` of Eq. 4), `None` when only the root matches.
    /// The matched state is a suffix of the context, and the edit distance
    /// from a sequence to one of its suffixes is the length of what was cut.
    fn matched_disparity(comp: &Vmm, ctx: &[QueryId]) -> Option<f64> {
        comp.match_state(ctx)
            .map(|(_, matched)| (ctx.len() - matched) as f64)
    }

    /// [`matched_disparity`](Self::matched_disparity) with the root counted
    /// as the empty state.
    fn disparity(comp: &Vmm, ctx: &[QueryId]) -> f64 {
        Self::matched_disparity(comp, ctx).unwrap_or(ctx.len() as f64)
    }

    /// The trained components.
    pub fn components(&self) -> &[Vmm] {
        &self.components
    }

    /// Fitted mixture deviations (one per component).
    pub fn sigmas(&self) -> &[f64] {
        &self.sigmas
    }

    /// Normalized weights of the matched components for a context; `None` for
    /// unmatched components.
    pub fn component_weights(&self, ctx: &[QueryId]) -> Vec<Option<f64>> {
        let raw: Vec<Option<f64>> = self
            .components
            .iter()
            .zip(&self.sigmas)
            .map(|(comp, &sigma)| {
                Self::matched_disparity(comp, ctx).map(|d| gaussian_pdf(d, sigma))
            })
            .collect();
        let total: f64 = raw.iter().flatten().sum();
        if total <= 0.0 {
            return raw.iter().map(|w| w.map(|_| 0.0)).collect();
        }
        raw.iter().map(|w| w.map(|v| v / total)).collect()
    }

    /// Number of distinct states across all components, counting the shared
    /// root once — the size of the *merged* PST the paper deploys ("each node
    /// requires just 4 extra bits" to record its source models, §V-F.2).
    ///
    /// A union of node ids of the one trie every component reads.
    pub fn merged_state_count(&self) -> usize {
        let mut nodes: Vec<u32> = self
            .components
            .iter()
            .flat_map(|c| c.pst().state_nodes())
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len() + 1
    }

    /// The window trie every component reads.
    pub(crate) fn window_trie(&self) -> &Arc<sqp_common::SuffixTrie> {
        self.components[0].window_trie()
    }
}

impl Recommender for Mvmm {
    fn name(&self) -> &str {
        "MVMM"
    }

    fn recommend_into(&self, context: &[QueryId], k: usize, out: &mut Vec<Scored>) {
        out.clear();
        if k == 0 || context.is_empty() {
            return;
        }
        let weights = self.component_weights(context);
        if weights.iter().all(Option::is_none) {
            return;
        }

        // Candidate pool: the matched state's observed continuations from
        // every matched component.
        let mut candidates: sqp_common::FxHashSet<QueryId> = Default::default();
        for (comp, w) in self.components.iter().zip(&weights) {
            if w.is_some() {
                if let Some((idx, _)) = comp.match_state(context) {
                    for (q, _) in comp.pst().dist(idx).observed().take(k * 4) {
                        candidates.insert(q);
                    }
                }
            }
        }

        // Re-rank by the weighted escaped conditionals (§IV-C.3).
        let scored: Vec<Scored> = candidates
            .into_iter()
            .map(|q| {
                let mut score = 0.0;
                for (comp, w) in self.components.iter().zip(&weights) {
                    if let Some(w) = w {
                        score += w * comp.cond_prob_escaped(context, q);
                    }
                }
                Scored::new(q, score)
            })
            .collect();
        out.extend(sqp_common::topk::top_k(scored, k));
    }

    fn covers(&self, context: &[QueryId]) -> bool {
        self.components.iter().any(|c| c.covers(context))
    }

    /// Heap bytes of the object as held: the shared trie once, plus every
    /// component's state index.
    fn memory_bytes(&self) -> usize {
        let indexes: usize = self.components.iter().map(|c| c.pst().heap_bytes()).sum();
        self.window_trie().heap_bytes() + indexes
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl SequenceScorer for Mvmm {
    fn sequence_log10_prob(&self, seq: &[QueryId]) -> f64 {
        if seq.len() < 2 {
            return 0.0;
        }
        let ctx = &seq[..seq.len() - 1];
        // Weights over ALL components (unmatched ⇒ disparity = |ctx|), per
        // Eq. (2)/(4).
        let raw: Vec<f64> = self
            .components
            .iter()
            .zip(&self.sigmas)
            .map(|(comp, &sigma)| gaussian_pdf(Self::disparity(comp, ctx), sigma))
            .collect();
        let total: f64 = raw.iter().sum();
        if total <= 0.0 {
            return -300.0;
        }
        let mix: f64 = self
            .components
            .iter()
            .zip(&raw)
            .map(|(comp, w)| (w / total) * 10f64.powf(comp.sequence_log10_prob_escaped(seq)))
            .sum();
        mix.max(1e-300).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::toy_corpus;
    use sqp_common::seq;

    fn toy_mvmm() -> Mvmm {
        Mvmm::train(&toy_corpus(), &MvmmConfig::small())
    }

    #[test]
    fn trains_all_components_and_sigmas() {
        let m = toy_mvmm();
        assert_eq!(m.components().len(), 3);
        assert_eq!(m.sigmas().len(), 3);
        for &s in m.sigmas() {
            assert!(s > 0.0 && s.is_finite());
        }
    }

    #[test]
    fn recommendation_agrees_with_components_on_exact_states() {
        let m = toy_mvmm();
        // All components agree: after [q1,q0] recommend q1 (P = 0.7).
        let recs = m.recommend(&seq(&[1, 0]), 2);
        assert_eq!(recs[0].query, QueryId(1));
        // After [q0] recommend q0 (P = 0.9).
        assert_eq!(m.recommend(&seq(&[0]), 1)[0].query, QueryId(0));
    }

    #[test]
    fn weights_are_normalized_over_matched_components() {
        let m = toy_mvmm();
        let w = m.component_weights(&seq(&[1, 0]));
        let total: f64 = w.iter().flatten().sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
    }

    #[test]
    fn coverage_is_union_of_components() {
        let m = toy_mvmm();
        assert!(m.covers(&seq(&[0])));
        assert!(m.covers(&seq(&[42, 1]))); // partial match on last query
        assert!(!m.covers(&seq(&[42]))); // unknown last query
        assert!(m.recommend(&seq(&[42]), 5).is_empty());
    }

    #[test]
    fn merged_state_count_bounds() {
        let m = toy_mvmm();
        let max_single = m.components().iter().map(|c| c.node_count()).max().unwrap();
        let sum: usize = m.components().iter().map(|c| c.node_count()).sum();
        let merged = m.merged_state_count();
        assert!(merged >= max_single);
        assert!(merged <= sum);
    }

    #[test]
    fn merged_memory_well_below_component_sum() {
        // Table VII: the MVMM "only requires marginally more memory compared
        // to the standard VMM models".
        let m = toy_mvmm();
        let sum: usize = m.components().iter().map(|c| c.memory_bytes()).sum();
        assert!(m.memory_bytes() < sum);
        assert!(m.memory_bytes() > 0);
    }

    #[test]
    fn memory_is_the_shared_trie_once_plus_the_state_indexes() {
        // A narrow vocabulary: the benchmark corpus's ratio of windows to
        // distinct queries (≈ 25) at a size a debug build trains quickly.
        let mut sim = sqp_logsim::SimConfig::small(8_000, 100, 5);
        sim.vocab.n_roots = 3;
        // Unreduced, as a snapshot trains: rare sessions keep their windows.
        let segmented = sqp_sessions::segment_default(&sqp_logsim::generate(&sim).train);
        let aggregated = sqp_sessions::aggregate(&segmented, &mut sqp_common::Interner::new());
        let sessions = &aggregated.sessions;

        let mut cfg = MvmmConfig::epsilon_sweep();
        cfg.fit.max_fit_sequences = 100;
        let sweep = Mvmm::train(sessions, &cfg);
        assert_eq!(sweep.components().len(), 11);
        let first = sweep.components()[0].window_trie();
        for comp in sweep.components() {
            assert!(Arc::ptr_eq(first, comp.window_trie()), "{}", comp.name());
        }
        let indexes: usize = sweep
            .components()
            .iter()
            .map(|c| c.pst().heap_bytes())
            .sum();
        assert_eq!(sweep.memory_bytes(), first.heap_bytes() + indexes);
        let largest = sweep
            .components()
            .iter()
            .map(|c| c.memory_bytes())
            .max()
            .unwrap();
        assert!(
            2 * sweep.memory_bytes() < 3 * largest,
            "eleven components hold {} B, the largest alone {largest} B",
            sweep.memory_bytes()
        );

        // One trie for every depth bound, counted at the deepest and shared
        // by every component.
        let depths = Mvmm::train(
            sessions,
            &MvmmConfig::depth_mixture(&[(2, 0.1), (3, 0.2), (2, 0.0)]),
        );
        let c = depths.components();
        let trie = c[1].window_trie();
        assert!(c.iter().all(|c| Arc::ptr_eq(trie, c.window_trie())));
        let indexes: usize = c.iter().map(|c| c.pst().heap_bytes()).sum();
        assert_eq!(depths.memory_bytes(), trie.heap_bytes() + indexes);
        // Each component reads the deeper trie to its own bound, and answers
        // as the same config trained alone does, bit for bit.
        let contexts: Vec<&[QueryId]> = sessions.iter().take(200).map(|(s, _)| &s[..]).collect();
        for comp in c {
            let alone = Vmm::train(sessions, *comp.config());
            for &s in &contexts {
                let (a, b) = (comp.recommend(s, 5), alone.recommend(s, 5));
                let bits = |r: &[Scored]| -> Vec<(QueryId, u64)> {
                    r.iter().map(|r| (r.query, r.score.to_bits())).collect()
                };
                assert_eq!(bits(&a), bits(&b), "{}: {s:?}", comp.name());
                for &q in s {
                    assert_eq!(
                        comp.cond_prob_escaped(s, q).to_bits(),
                        alone.cond_prob_escaped(s, q).to_bits(),
                        "{}: {s:?} → {q:?}",
                        comp.name()
                    );
                }
                assert_eq!(
                    comp.sequence_log10_prob_escaped(s).to_bits(),
                    alone.sequence_log10_prob_escaped(s).to_bits(),
                    "{}: {s:?}",
                    comp.name()
                );
            }
        }
    }

    #[test]
    fn merged_states_are_counted_by_context_across_depth_bounds() {
        // A window has one node id in every trie counted from one corpus,
        // so the id union is the union of contexts.
        let logs = sqp_logsim::generate(&sqp_logsim::SimConfig::small(2_000, 200, 6));
        let p = sqp_sessions::process(&logs, &sqp_sessions::PipelineConfig::default());
        let m = Mvmm::train(
            &p.train.aggregated.sessions,
            &MvmmConfig::depth_mixture(&[(1, 0.0), (2, 0.05), (3, 0.0)]),
        );
        let mut contexts = sqp_common::FxHashSet::<Vec<QueryId>>::default();
        let mut context = Vec::new();
        for comp in m.components() {
            for state in 0..comp.node_count() as u32 {
                comp.pst().context_into(state, &mut context);
                contexts.insert(context.clone());
            }
        }
        assert_eq!(m.merged_state_count(), contexts.len());
        assert!(m.merged_state_count() > m.components()[0].node_count());
    }

    #[test]
    fn disparity_is_the_edit_distance_to_the_matched_state() {
        let m = toy_mvmm();
        let mut state = Vec::new();
        for ctx in [
            seq(&[1, 0]),
            seq(&[0, 1, 0]),
            seq(&[1, 1]),
            seq(&[9, 9, 0]),
            seq(&[9]),
        ] {
            for comp in m.components() {
                let (idx, _) = comp.pst().longest_suffix(&ctx);
                comp.pst().context_into(idx, &mut state);
                assert_eq!(
                    Mvmm::disparity(comp, &ctx),
                    sqp_common::dist::levenshtein(&ctx, &state) as f64,
                    "{ctx:?} against {state:?}"
                );
            }
        }
    }

    #[test]
    fn sequence_scoring_is_a_proper_mixture() {
        let m = toy_mvmm();
        let s = seq(&[1, 0, 1]);
        let mix = m.sequence_log10_prob(&s);
        // The mixture probability lies within the range of the component
        // probabilities (convex combination).
        let comp_lps: Vec<f64> = m
            .components()
            .iter()
            .map(|c| c.sequence_log10_prob_escaped(&s))
            .collect();
        let lo = comp_lps.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = comp_lps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            mix >= lo - 1e-9 && mix <= hi + 1e-9,
            "{lo} <= {mix} <= {hi}"
        );
    }

    #[test]
    fn respects_k_and_sorted_scores() {
        let m = toy_mvmm();
        let recs = m.recommend(&seq(&[0]), 1);
        assert_eq!(recs.len(), 1);
        let recs2 = m.recommend(&seq(&[1]), 2);
        for w in recs2.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_component_list_panics() {
        let cfg = MvmmConfig {
            components: vec![],
            fit: FitConfig::default(),
        };
        Mvmm::train(&toy_corpus(), &cfg);
    }

    #[test]
    fn depth_mixture_config() {
        let cfg = MvmmConfig::depth_mixture(&[(2, 0.1), (3, 0.2)]);
        assert_eq!(cfg.components.len(), 2);
        assert_eq!(cfg.components[0].max_depth, Some(2));
        let m = Mvmm::train(&toy_corpus(), &cfg);
        assert!(m.merged_state_count() >= 1);
    }
}
