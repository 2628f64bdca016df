//! The Mixture Variable Memory Markov model (MVMM) — §IV-C of the paper.
//!
//! Multiple VMM components (different ε and/or depth bounds D) are trained
//! independently — in parallel, as the paper notes the K models can be — off
//! one window trie, counted once at the deepest bound, which each reads to
//! its own. The mixture keeps the union of their state sets, the merged PST
//! the paper deploys (§V-F.2): one [`Pst`] and a component mask per state.
//! Each component's set is suffix-closed, so one newest-to-oldest walk down
//! the union finds every component's longest matched state — the deepest
//! state on the path with its bit set — and, once per context rather than
//! per candidate, its escape factor. The components are combined at
//! prediction time with weights
//!
//! `w(D,T) = N(d; 0, σ_D²)` (Eq. 4)
//!
//! where `d` is the edit distance between the live context and the PST state
//! the component matched, and the σ vector is learned offline by the Newton
//! iteration of `newton.rs` (Eq. 7–10). Escaped conditional probabilities
//! (Eq. 5–6) penalize partially matching components, which is precisely what
//! makes the mixture prefer components whose memory bound fits the context.

use crate::counts::{escape_prob_in, WindowCounts};
use crate::model::{Recommender, SequenceScorer, WeightedSessions};
use crate::newton::{fit_mixture_sigmas, FitConfig};
use crate::pst::{NodeDist, Pst};
use crate::vmm::{Vmm, VmmConfig};
use sqp_common::arena::SuffixTrie;
use sqp_common::math::gaussian_pdf;
use sqp_common::threads::map_on_threads;
use sqp_common::topk::{top_k_into, Scored};
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

/// Most components a mixture holds: a state's mask has one bit for each.
const MAX_COMPONENTS: usize = 16;

/// A trained MVMM: the merged PST, and per component its config and its
/// fitted deviation.
pub struct Mvmm {
    /// The union of the components' state sets, over the one window trie.
    pub(crate) pst: Pst,
    /// Per state of `pst`, bit k set ⇔ the state is one of component k's;
    /// the root is every component's.
    pub(crate) masks: Vec<u16>,
    pub(crate) configs: Vec<VmmConfig>,
    pub(crate) sigmas: Vec<f64>,
    /// The corpus totals: sessions, query occurrences and |Q|.
    pub(crate) totals: (u64, u64, usize),
}

/// What one walk down the merged PST finds for a context, per component:
/// its longest matched state and that state's distribution and length, and
/// the escape factor (Eq. 5) paid for the older queries it did not match.
struct Walk<'a> {
    state: [u32; MAX_COMPONENTS],
    dist: [NodeDist<'a>; MAX_COMPONENTS],
    matched: [usize; MAX_COMPONENTS],
    factor: [f64; MAX_COMPONENTS],
}

impl Mvmm {
    /// Train all components and fit the mixture deviations.
    ///
    /// # Panics
    /// Panics when `cfg.components` is empty or holds more than 16.
    pub fn train(sessions: &WeightedSessions, cfg: &MvmmConfig) -> Self {
        let k = cfg.components.len();
        assert!(k > 0, "MVMM needs at least one component");
        assert!(k <= MAX_COMPONENTS, "at most 16 components");

        // Count the corpus once, to the deepest bound, and grow each
        // component's states off that trie on a thread of its own. Keep
        // their union, and per window the components it is a state of.
        let mut bounds = cfg.components.iter().map(|c| c.max_depth);
        let deepest = bounds.try_fold(0, |deepest, d| d.map(|d| d.max(deepest)));
        let counts = WindowCounts::build(sessions, deepest);
        let state_sets = map_on_threads(&cfg.components, |c| Vmm::grow_pst(&counts, *c, None).0);
        let mut window_masks = vec![0u16; counts.trie().window_ids(deepest).end as usize];
        for (bit, states) in state_sets.iter().enumerate() {
            for &node in states {
                window_masks[node as usize] |= 1 << bit;
            }
        }
        let (mut nodes, mut masks) = (Vec::new(), vec![0]);
        for (node, &mask) in (0..).zip(&window_masks).filter(|(_, &mask)| mask != 0) {
            nodes.push(node);
            masks.push(mask);
        }
        masks.shrink_to_fit();
        let (trie, configs, sigmas) = (counts.shared_trie(), cfg.components.clone(), vec![1.0; k]);
        let mut mixture = Self::from_parts(trie, &nodes, masks, counts.totals(), configs, sigmas)
            .expect("a union of suffix-closed state sets, each within its bound");

        // Select the fit corpus: the most frequent multi-query sessions.
        let mut multi: Vec<&(QuerySeq, u64)> =
            sessions.iter().filter(|(s, _)| s.len() >= 2).collect();
        multi.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        multi.truncate(cfg.fit.max_fit_sequences);
        let mass: u64 = multi.iter().map(|(_, f)| f).sum();

        let (mut p, mut a, mut d) = (Vec::new(), Vec::new(), Vec::new());
        for (s, f) in &multi {
            p.push(*f as f64 / mass.max(1) as f64);
            let (lp, walk) = mixture.component_log10_probs(s);
            a.push(lp.map(|lp| 10f64.powf(lp).max(1e-300))[..k].to_vec());
            d.push(walk.matched.map(|m| (s.len() - 1 - m) as f64)[..k].to_vec());
        }

        mixture.sigmas = fit_mixture_sigmas(&p, &a, &d, &cfg.fit).sigmas;
        assert!(
            mixture.sigmas.iter().all(|s| s.is_finite() && *s > 0.0),
            "the fit bounds every deviation by its FitConfig"
        );
        mixture
    }

    /// The mixture whose merged PST has the windows `nodes` of `trie` for
    /// states and `masks` for their components (the root's first, which is
    /// overwritten) — the one constructor, for a mixture just trained and
    /// for one read from disk. It checks what the trainer guarantees: each
    /// component's states are a suffix-closed set within its depth bound.
    pub(crate) fn from_parts(
        trie: Arc<SuffixTrie>,
        nodes: &[u32],
        mut masks: Vec<u16>,
        totals: (u64, u64, usize),
        configs: Vec<VmmConfig>,
        sigmas: Vec<f64>,
    ) -> Result<Self, String> {
        let k = configs.len();
        if k == 0 {
            return Err("a mixture needs at least one component".into());
        }
        if k > MAX_COMPONENTS {
            return Err(format!("{k} components; a state mask holds at most 16"));
        }
        if let Some(bad) = sigmas.iter().find(|s| !(s.is_finite() && **s > 0.0)) {
            return Err(format!("deviation {bad} is not finite and positive"));
        }
        // Each state is checked against its components' bounds below.
        let pst = Pst::from_states(trie, totals.2, None, nodes).map_err(|e| e.to_string())?;
        masks[0] = ((1u32 << k) - 1) as u16;
        for (state, &node) in (1..).zip(nodes) {
            let mask = masks[state as usize];
            let depth = pst.trie().depth(node);
            let too_deep = |c: usize| configs[c].max_depth.is_some_and(|d| depth > d);
            let why = if mask == 0 {
                "belongs to no component".to_string()
            } else if mask >> k != 0 {
                format!("names component {} of {k}", mask.ilog2())
            } else if mask & !masks[pst.parent(state) as usize] != 0 {
                "has a component its one-shorter suffix lacks".to_string()
            } else if let Some(c) = (0..k).find(|&c| mask >> c & 1 == 1 && too_deep(c)) {
                format!("is deeper than component {c}'s bound")
            } else {
                continue;
            };
            return Err(format!("state {node} {why}"));
        }
        Ok(Mvmm {
            pst,
            masks,
            configs,
            sigmas,
            totals,
        })
    }

    /// Walk `context` newest query first down the merged PST — each state
    /// on the path is the longest match so far of the components in its
    /// mask — then price each component's escape (Eq. 5): the product,
    /// longest suffix first, of the escape probabilities (Eq. 6) of the
    /// suffixes longer than its matched state. A suffix whose escape reads
    /// a window past a component's bound escapes it with probability
    /// exactly 1, so the components share one value per suffix and skip it
    /// where it lies out of their bound.
    fn walk(&self, context: &[QueryId]) -> Walk<'_> {
        let k = self.configs.len();
        let (mut states, mut matched) = ([0u32; MAX_COMPONENTS], [0usize; MAX_COMPONENTS]);
        for (state, depth) in self.pst.suffix_states(context).zip(1..) {
            for c in (0..k).filter(|&c| self.masks[state as usize] >> c & 1 == 1) {
                (states[c], matched[c]) = (state, depth);
            }
        }
        let mut factor = [1.0; MAX_COMPONENTS];
        let shortest = matched[..k].iter().min().copied().unwrap_or(0);
        let (trie, (sessions, occurrences, _)) = (self.pst.trie(), self.totals);
        for len in (shortest + 1..=context.len()).rev() {
            let suffix = &context[context.len() - len..];
            let escape = escape_prob_in(trie, sessions, occurrences, suffix);
            for (c, config) in self.configs.iter().enumerate() {
                let out_of_bound = len > 1 && config.max_depth.is_some_and(|d| len - 1 > d);
                if matched[c] < len && !out_of_bound {
                    factor[c] *= escape;
                }
            }
        }
        let mut dist = [self.pst.dist(0); MAX_COMPONENTS];
        for c in (0..k).filter(|&c| matched[c] > 0) {
            dist[c] = self.pst.dist(states[c]);
        }
        Walk {
            state: states,
            dist,
            matched,
            factor,
        }
    }

    /// The weights `N(d; 0, σ²)` (Eq. 4) of the components `walk` matched
    /// for a context of `len` queries, normalized over them, and 0 for the
    /// rest; `None` when it matched none, so the context is not covered.
    /// `d(T)`, the edit distance from the context to the matched state (a
    /// suffix of it), is the length of what was cut.
    fn matched_weights(&self, walk: &Walk, len: usize) -> Option<[f64; MAX_COMPONENTS]> {
        let k = self.configs.len();
        let mut weights = [0.0; MAX_COMPONENTS];
        for c in (0..k).filter(|&c| walk.matched[c] > 0) {
            weights[c] = gaussian_pdf((len - walk.matched[c]) as f64, self.sigmas[c]);
        }
        let total: f64 = weights[..k].iter().sum();
        for w in &mut weights[..k] {
            *w = if total <= 0.0 { 0.0 } else { *w / total };
        }
        walk.matched[..k].iter().any(|&m| m > 0).then_some(weights)
    }

    /// Per component, `log10 P̂(seq)` with escape (Eq. 3) — one walk per
    /// prefix context — and the walk of the last context.
    fn component_log10_probs(&self, seq: &[QueryId]) -> ([f64; MAX_COMPONENTS], Walk<'_>) {
        let mut log10_probs = [0.0; MAX_COMPONENTS];
        let mut last = self.walk(&[]);
        for i in 1..seq.len() {
            last = self.walk(&seq[..i]);
            for (c, lp) in log10_probs[..self.configs.len()].iter_mut().enumerate() {
                let prob = last.factor[c] * last.dist[c].prob(seq[i]);
                *lp += prob.max(1e-300).log10();
            }
        }
        (log10_probs, last)
    }

    /// The components' configs, in mixture order.
    pub fn configs(&self) -> &[VmmConfig] {
        &self.configs
    }

    /// Fitted mixture deviations (one per component).
    pub fn sigmas(&self) -> &[f64] {
        &self.sigmas
    }

    /// The merged PST: the union of the components' states.
    pub fn pst(&self) -> &Pst {
        &self.pst
    }

    /// Number of distinct states across all components, counting the shared
    /// root once — the size of the *merged* PST the paper deploys ("each node
    /// requires just 4 extra bits" to record its source models, §V-F.2).
    pub fn merged_state_count(&self) -> usize {
        self.pst.len()
    }
}

impl Recommender for Mvmm {
    fn name(&self) -> &str {
        "MVMM"
    }

    fn recommend_into(&self, context: &[QueryId], k: usize, out: &mut Vec<Scored>) {
        out.clear();
        let walk = self.walk(context);
        let Some(weights) = self.matched_weights(&walk, context.len()) else {
            return;
        };
        let matched = || (0..self.configs.len()).filter(|&c| walk.matched[c] > 0);
        // Components often match the state the one before them matched.
        let repeat = |c: usize| c > 0 && walk.state[c] == walk.state[c - 1];

        // Candidate pool, in `out`: the front of each matched state's ranked
        // answer.
        for c in matched().filter(|&c| !repeat(c)) {
            let answer = self.pst.answer(walk.state[c]);
            let pool = &answer[..answer.len().min(k * 4)];
            out.extend(pool.iter().map(|s| Scored::new(s.query, 0.0)));
        }
        out.sort_unstable_by_key(|s| s.query);
        out.dedup_by_key(|s| s.query);

        // Re-rank by the weighted escaped conditionals (§IV-C.3), component
        // by component in mixture order.
        for candidate in out.iter_mut() {
            let (mut score, mut prob) = (0.0, 0.0);
            for c in matched() {
                if !repeat(c) {
                    prob = walk.dist[c].prob(candidate.query);
                }
                score += weights[c] * (walk.factor[c] * prob);
            }
            candidate.score = score;
        }
        top_k_into(out, k);
    }

    fn covers(&self, context: &[QueryId]) -> bool {
        // Every state of the union is some component's.
        self.pst.longest_suffix(context).1 > 0
    }

    /// Heap bytes of the object as held: the trie, the merged PST and its
    /// mask column.
    fn memory_bytes(&self) -> usize {
        self.pst.trie().heap_bytes()
            + self.pst.heap_bytes()
            + self.masks.capacity() * std::mem::size_of::<u16>()
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
        let (log10_probs, walk) = self.component_log10_probs(seq);
        // Weights over ALL components (unmatched ⇒ disparity = |ctx|), per
        // Eq. (2)/(4).
        let k = self.configs.len();
        let mut raw = [0.0; MAX_COMPONENTS];
        for (c, w) in raw[..k].iter_mut().enumerate() {
            *w = gaussian_pdf((seq.len() - 1 - walk.matched[c]) as f64, self.sigmas[c]);
        }
        let total: f64 = raw[..k].iter().sum();
        if total <= 0.0 {
            return -300.0;
        }
        let mix: f64 = raw[..k]
            .iter()
            .zip(&log10_probs)
            .map(|(w, lp)| (w / total) * 10f64.powf(*lp))
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

    /// The trie nodes of component `c`'s states: the merged states with
    /// its bit set.
    fn states_of(m: &Mvmm, c: usize) -> Vec<u32> {
        m.pst
            .state_nodes()
            .zip(&m.masks[1..])
            .filter(|(_, mask)| *mask >> c & 1 == 1)
            .map(|(node, _)| node)
            .collect()
    }

    #[test]
    fn trains_all_components_and_sigmas() {
        let m = toy_mvmm();
        assert_eq!(m.configs().len(), 3);
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
        let ctx = seq(&[1, 0]);
        let w = m.matched_weights(&m.walk(&ctx), ctx.len()).unwrap();
        let total: f64 = w.iter().sum();
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
        let alone: Vec<Vmm> = m
            .configs()
            .iter()
            .map(|c| Vmm::train(&toy_corpus(), *c))
            .collect();
        let max_single = alone.iter().map(|c| c.node_count()).max().unwrap();
        let sum: usize = alone.iter().map(|c| c.node_count()).sum();
        let merged = m.merged_state_count();
        assert!(merged >= max_single);
        assert!(merged <= sum);
    }

    #[test]
    fn merged_memory_well_below_component_sum() {
        // Table VII: the MVMM "only requires marginally more memory compared
        // to the standard VMM models".
        let m = toy_mvmm();
        let sum: usize = m
            .configs()
            .iter()
            .map(|c| Vmm::train(&toy_corpus(), *c).memory_bytes())
            .sum();
        assert!(m.memory_bytes() < sum);
        assert!(m.memory_bytes() > 0);
    }

    /// A narrow vocabulary: the benchmark corpus's ratio of windows to
    /// distinct queries (≈ 25) at a size a debug build trains quickly.
    /// Unreduced, as a snapshot trains: rare sessions keep their windows.
    fn narrow_sessions() -> Vec<(QuerySeq, u64)> {
        let mut sim = sqp_logsim::SimConfig::small(8_000, 100, 5);
        sim.vocab.n_roots = 3;
        let segmented = sqp_sessions::segment_default(&sqp_logsim::generate(&sim).train);
        sqp_sessions::aggregate(&segmented, &mut sqp_common::Interner::new()).sessions
    }

    #[test]
    fn memory_is_the_trie_plus_the_merged_pst_and_its_masks() {
        let sessions = narrow_sessions();
        let mut cfg = MvmmConfig::epsilon_sweep();
        cfg.fit.max_fit_sequences = 100;
        let sweep = Mvmm::train(&sessions, &cfg);
        let trie = sweep.pst().trie();
        assert_eq!(
            sweep.memory_bytes(),
            trie.heap_bytes() + sweep.pst().heap_bytes() + 2 * sweep.masks.capacity()
        );
        // Less than the one trie plus a state index per component.
        let counts = WindowCounts::build(&sessions, None);
        let alone: Vec<Vmm> = cfg
            .components
            .iter()
            .map(|c| Vmm::train_with_counts(&counts, *c))
            .collect();
        let indexes: usize = alone.iter().map(|c| c.pst().heap_bytes()).sum();
        assert!(sweep.memory_bytes() < trie.heap_bytes() + indexes);
        let largest = alone.iter().map(|c| c.memory_bytes()).max().unwrap();
        assert!(
            2 * sweep.memory_bytes() < 3 * largest,
            "eleven components hold {} B, the largest alone {largest} B",
            sweep.memory_bytes()
        );
    }

    #[test]
    fn memory_is_the_shared_trie_once_plus_the_state_indexes() {
        // One trie for every depth bound, counted at the deepest and read
        // by every component to its own.
        let sessions = narrow_sessions();
        let mut cfg = MvmmConfig::depth_mixture(&[(2, 0.1), (3, 0.2), (2, 0.0)]);
        cfg.fit.max_fit_sequences = 100;
        let depths = Mvmm::train(&sessions, &cfg);
        let trie = depths.pst().trie();
        let deepest = WindowCounts::build(&sessions, Some(3));
        assert_eq!(trie.heap_bytes(), deepest.trie().heap_bytes());
        assert_eq!(
            depths.memory_bytes(),
            trie.heap_bytes() + depths.pst().heap_bytes() + 2 * depths.masks.capacity()
        );
        let alone: Vec<Vmm> = cfg
            .components
            .iter()
            .map(|c| Vmm::train(&sessions, *c))
            .collect();
        let indexes: usize = alone.iter().map(|c| c.pst().heap_bytes()).sum();
        assert!(depths.memory_bytes() < trie.heap_bytes() + indexes);

        // Each component prices a context as the same config alone does,
        // bit for bit: its matched state, its distribution there, and the
        // escape it pays on its own trie.
        let contexts: Vec<&[QueryId]> = sessions.iter().take(200).map(|(s, _)| &s[..]).collect();
        for (c, config) in cfg.components.iter().enumerate() {
            let single = Mvmm::train(
                &sessions,
                &MvmmConfig {
                    components: vec![*config],
                    fit: cfg.fit,
                },
            );
            let name = config.display_name();
            for &s in &contexts {
                let (walk, own) = (depths.walk(s), single.walk(s));
                let matched = alone[c].match_state(s).map_or(0, |(_, m)| m);
                assert_eq!(walk.matched[c], matched, "{name}: {s:?}");
                assert_eq!(own.matched[0], matched, "{name}: {s:?}");
                assert_eq!(
                    walk.factor[c].to_bits(),
                    own.factor[0].to_bits(),
                    "{name}: {s:?}"
                );
                for &q in s {
                    assert_eq!(
                        walk.dist[c].prob(q).to_bits(),
                        alone[c].cond_prob(s, q).to_bits(),
                        "{name}: {s:?} → {q:?}"
                    );
                }
                assert_eq!(
                    depths.component_log10_probs(s).0[c].to_bits(),
                    single.component_log10_probs(s).0[0].to_bits(),
                    "{name}: {s:?}"
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
        let sessions = &p.train.aggregated.sessions;
        let cfg = MvmmConfig::depth_mixture(&[(1, 0.0), (2, 0.05), (3, 0.0)]);
        let m = Mvmm::train(sessions, &cfg);
        let alone: Vec<Vmm> = cfg
            .components
            .iter()
            .map(|c| Vmm::train(sessions, *c))
            .collect();
        let mut contexts = sqp_common::FxHashSet::<Vec<QueryId>>::default();
        let mut context = Vec::new();
        for comp in &alone {
            for state in 0..comp.node_count() as u32 {
                comp.pst().context_into(state, &mut context);
                contexts.insert(context.clone());
            }
        }
        assert_eq!(m.merged_state_count(), contexts.len());
        assert!(m.merged_state_count() > alone[0].node_count());
    }

    #[test]
    fn each_mask_bit_is_its_component_trained_alone() {
        // A window has one node id in every trie counted from one corpus,
        // so a component trained alone, on a trie counted to its own bound,
        // names the same nodes as its bit in the merged PST.
        let sessions = narrow_sessions();
        let mut sweep = MvmmConfig::epsilon_sweep();
        sweep.fit.max_fit_sequences = 100;
        let depths = MvmmConfig::depth_mixture(&[(2, 0.1), (3, 0.2), (2, 0.0)]);
        for cfg in [sweep, depths] {
            let m = Mvmm::train(&sessions, &cfg);
            let mut largest = 0;
            for (c, config) in cfg.components.iter().enumerate() {
                let alone = Vmm::train(&sessions, *config);
                let expected: Vec<u32> = alone.pst().state_nodes().collect();
                assert_eq!(states_of(&m, c), expected, "{}", config.display_name());
                largest = largest.max(alone.node_count());
            }
            // The ε sweep nests in its ε = 0 component; the depth bounds
            // do not nest.
            let nested = cfg.components.iter().all(|c| c.max_depth.is_none());
            assert_eq!(m.merged_state_count() == largest, nested);
        }
    }

    #[test]
    fn disparity_is_the_edit_distance_to_the_matched_state() {
        let m = toy_mvmm();
        let alone: Vec<Vmm> = m
            .configs()
            .iter()
            .map(|c| Vmm::train(&toy_corpus(), *c))
            .collect();
        let mut state = Vec::new();
        for ctx in [
            seq(&[1, 0]),
            seq(&[0, 1, 0]),
            seq(&[1, 1]),
            seq(&[9, 9, 0]),
            seq(&[9]),
        ] {
            let walk = m.walk(&ctx);
            for (c, comp) in alone.iter().enumerate() {
                let (idx, _) = comp.pst().longest_suffix(&ctx);
                comp.pst().context_into(idx, &mut state);
                assert_eq!(
                    ctx.len() - walk.matched[c],
                    sqp_common::dist::levenshtein(&ctx, &state),
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
        let comp_lps = &m.component_log10_probs(&s).0[..m.configs().len()];
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
