//! Session and raw-log generation.
//!
//! A session is a random walk over the topic forest whose steps are drawn
//! from the seven reformulation patterns. Three mechanisms shape the corpus
//! statistics the paper reports:
//!
//! 1. **Zipf intent popularity** — a permuted Zipf over topics makes a few
//!    intents extremely common (head queries) and most rare (tail).
//! 2. **Canonical walk variants** — each intent owns a small set of walks
//!    whose RNG is seeded by `(intent, variant)`; most sessions replay one of
//!    them. Popular intents therefore yield *identical* sessions over and
//!    over, which is exactly what produces the power-law aggregated-session
//!    frequency spectrum of Figure 6.
//! 3. **Shared canonical walks across epochs** — the walk seed does not
//!    depend on the epoch, so the test month re-issues many training
//!    sessions (plus fresh walks and test-only topics), giving the partial
//!    train/test overlap that the coverage experiments need.

use crate::config::SimConfig;
use crate::patterns::PatternType;
use crate::record::{Click, RawLogRecord};
use crate::vocab::{TopicId, Vocabulary};
use crate::zipf::CumulativeSampler;
use sqp_common::hash::fx_hash_one;
use sqp_common::rng::{Rng, StdRng};
use sqp_common::FxHashMap;

/// A generated session together with its ground-truth annotations.
#[derive(Clone, Debug)]
pub struct GeneratedSession {
    /// Query surfaces in order.
    pub queries: Vec<String>,
    /// Ground-truth pattern label of each transition
    /// (`labels.len() == queries.len() - 1`).
    pub(crate) labels: Vec<PatternType>,
}

impl GeneratedSession {
    /// Session-level pattern label: the label of the first transition (the
    /// convention we use when regenerating Figure 1). `None` for single-query
    /// sessions.
    pub fn dominant_label(&self) -> Option<PatternType> {
        self.labels.first().copied()
    }
}

/// Ground truth retained alongside the raw logs (vocabulary relations drive
/// the user-study oracle; session labels validate the pattern classifier).
#[derive(Clone, Debug)]
pub struct SimTruth {
    /// The vocabulary forest used by both epochs.
    pub vocabulary: Vocabulary,
    /// Training-epoch sessions with annotations.
    pub train_sessions: Vec<GeneratedSession>,
    /// Test-epoch sessions with annotations.
    pub test_sessions: Vec<GeneratedSession>,
}

/// Output of [`generate`]: raw logs for both epochs plus ground truth.
#[derive(Clone, Debug)]
pub struct SimulatedLogs {
    /// Raw training-epoch records (the paper's 120 days), time-ordered.
    pub train: Vec<RawLogRecord>,
    /// Raw test-epoch records (the paper's following 30 days), time-ordered.
    pub test: Vec<RawLogRecord>,
    /// Generator ground truth.
    pub truth: SimTruth,
}

const DAY: u64 = 86_400;
/// Training epoch length: the paper uses the first 120 days of its log.
pub(crate) const TRAIN_EPOCH_DAYS: u64 = 120;

struct Samplers {
    length: CumulativeSampler,
    /// Full seven-pattern mixture, used for the first transition.
    pattern_first: CumulativeSampler,
    /// Mixture for later transitions: spelling-change mass is redistributed,
    /// because a typo+fix pair is modelled at the session start (the paper's
    /// own examples — "goggle ⇒ google", "youtub ⇒ youtube" — are openers).
    pattern_rest: CumulativeSampler,
    topic_zipf: CumulativeSampler,
    variant_zipf: CumulativeSampler,
    /// Zipf-rank → topic mapping (a seeded permutation of train topics).
    topic_order: Vec<TopicId>,
    /// Zipf over the test-only topics (novel queries are head-heavy too —
    /// a breaking news topic is novel *and* popular; concentration lets
    /// novel sessions survive the frequency-based data reduction).
    novelty_zipf: Option<CumulativeSampler>,
    novelty_order: Vec<TopicId>,
}

impl Samplers {
    fn build(vocab: &Vocabulary, cfg: &SimConfig, rng: &mut StdRng) -> Self {
        let mut rest = cfg.session.pattern_weights;
        rest[PatternType::SpellingChange.index()] = 0.0;

        let mut topic_order: Vec<TopicId> = vocab.train_topics().to_vec();
        // Fisher–Yates with the master rng so popularity is independent of
        // tree construction order.
        for i in (1..topic_order.len()).rev() {
            let j = rng.random_range(0..=i);
            topic_order.swap(i, j);
        }

        let mut novelty_order: Vec<TopicId> = vocab.test_only_topics().to_vec();
        for i in (1..novelty_order.len()).rev() {
            let j = rng.random_range(0..=i);
            novelty_order.swap(i, j);
        }
        let novelty_zipf = if novelty_order.is_empty() {
            None
        } else {
            Some(CumulativeSampler::zipf(
                novelty_order.len(),
                cfg.session.zipf_theta,
            ))
        };

        Samplers {
            length: CumulativeSampler::from_weights(&cfg.session.length_weights),
            pattern_first: CumulativeSampler::from_weights(&cfg.session.pattern_weights),
            pattern_rest: CumulativeSampler::from_weights(&rest),
            topic_zipf: CumulativeSampler::zipf(topic_order.len(), cfg.session.zipf_theta),
            variant_zipf: CumulativeSampler::zipf(
                cfg.session.walk_variants.max(1),
                cfg.session.variant_theta,
            ),
            topic_order,
            novelty_zipf,
            novelty_order,
        }
    }
}

fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.random::<f64>();
    -mean * (1.0 - u).ln()
}

/// Walk state: which topic we are on and which surface form we last emitted.
struct WalkState {
    topic: TopicId,
    surface: String,
}

fn apply_pattern(
    vocab: &Vocabulary,
    state: &WalkState,
    pattern: PatternType,
    pool: &[TopicId],
    rng: &mut StdRng,
) -> Option<(TopicId, String)> {
    match pattern {
        PatternType::RepeatedQuery => Some((state.topic, state.surface.clone())),
        PatternType::Specialization => {
            let children = vocab.children(state.topic);
            if children.is_empty() {
                None
            } else {
                let c = children[rng.random_range(0..children.len())];
                Some((c, vocab.canonical(c).to_owned()))
            }
        }
        PatternType::Generalization => vocab
            .parent(state.topic)
            .map(|p| (p, vocab.canonical(p).to_owned())),
        PatternType::ParallelMovement => {
            let sibs = vocab.siblings(state.topic);
            if sibs.is_empty() {
                None
            } else {
                let s = sibs[rng.random_range(0..sibs.len())];
                Some((s, vocab.canonical(s).to_owned()))
            }
        }
        PatternType::SynonymSubstitution => vocab.synonym(state.topic).map(|alt| {
            let next = if state.surface == vocab.canonical(state.topic) {
                alt.to_owned()
            } else {
                vocab.canonical(state.topic).to_owned()
            };
            (state.topic, next)
        }),
        PatternType::Other => {
            // Unrelated jump: a random topic from a different tree.
            for _ in 0..8 {
                let t = pool[rng.random_range(0..pool.len())];
                if !vocab.same_root(t, state.topic) {
                    return Some((t, vocab.canonical(t).to_owned()));
                }
            }
            None
        }
        // Spelling change is handled specially by the walk (it rewrites the
        // previous query into a typo); it is never applied as a forward step.
        PatternType::SpellingChange => None,
    }
}

/// Fallback preference when a sampled pattern is inapplicable at the current
/// node. Chains are pattern-specific so the realized mixture keeps the
/// configured shape: order-sensitive draws fall back to order-sensitive
/// moves (a specialization at a leaf becomes a generalization, not a random
/// jump), and `RepeatedQuery` — always applicable — terminates every chain.
fn fallback_chain(p: PatternType) -> &'static [PatternType] {
    use PatternType::*;
    match p {
        Specialization => &[Generalization, ParallelMovement, Other, RepeatedQuery],
        Generalization => &[Specialization, ParallelMovement, Other, RepeatedQuery],
        ParallelMovement => &[Specialization, Generalization, Other, RepeatedQuery],
        SynonymSubstitution => &[RepeatedQuery],
        Other => &[RepeatedQuery],
        RepeatedQuery | SpellingChange => &[RepeatedQuery],
    }
}

/// One scripted or noisy transition from `state`: sample a pattern with
/// `rng`, apply it (with fallbacks), return `(topic, surface, label)`.
fn walk_step(
    vocab: &Vocabulary,
    state: &WalkState,
    samplers: &Samplers,
    pool: &[TopicId],
    rng: &mut StdRng,
) -> (TopicId, String, PatternType) {
    let sampled = PatternType::ALL[samplers.pattern_rest.sample(rng)];
    if let Some((t, s)) = apply_pattern(vocab, state, sampled, pool, rng) {
        return (t, s, sampled);
    }
    for &fb in fallback_chain(sampled) {
        if let Some((t, s)) = apply_pattern(vocab, state, fb, pool, rng) {
            return (t, s, fb);
        }
    }
    unreachable!("RepeatedQuery is always applicable");
}

/// Generate a session of exactly `len` queries.
///
/// `rng` drives the scripted walk (seeded per canonical variant, so walks
/// sharing `(intent, variant)` share query *prefixes* across different
/// lengths). `noise` optionally injects per-transition deviations drawn from
/// an independent stream, leaving the scripted stream untouched for
/// noiseless replays.
fn gen_walk(
    vocab: &Vocabulary,
    intent: TopicId,
    len: usize,
    samplers: &Samplers,
    pool: &[TopicId],
    rng: &mut StdRng,
    mut noise: Option<(&mut StdRng, f64)>,
) -> (Vec<String>, Vec<PatternType>) {
    let mut queries = vec![vocab.canonical(intent).to_owned()];
    let mut labels = Vec::with_capacity(len.saturating_sub(1));
    let mut state = WalkState {
        topic: intent,
        surface: queries[0].clone(),
    };

    for step in 0..len.saturating_sub(1) {
        if step == 0 {
            // The opener may be a typo + fix pair (the paper's own spelling
            // examples are session openers: "goggle ⇒ google").
            let sampled = PatternType::ALL[samplers.pattern_first.sample(rng)];
            if sampled == PatternType::SpellingChange {
                let fixed = state.surface.clone();
                queries[0] = vocab.misspell(&fixed, rng);
                queries.push(fixed);
                labels.push(PatternType::SpellingChange);
                continue; // state unchanged: back on the canonical surface
            }
            // Not a spelling opener: apply the sampled pattern directly
            // (sharing the fallback machinery of walk_step).
            let (topic, surface, label) =
                if let Some((t, s)) = apply_pattern(vocab, &state, sampled, pool, rng) {
                    (t, s, sampled)
                } else {
                    let mut found = None;
                    for &fb in fallback_chain(sampled) {
                        if let Some((t, s)) = apply_pattern(vocab, &state, fb, pool, rng) {
                            found = Some((t, s, fb));
                            break;
                        }
                    }
                    found.expect("RepeatedQuery is always applicable")
                };
            queries.push(surface.clone());
            labels.push(label);
            state = WalkState { topic, surface };
            continue;
        }

        // Later transitions: scripted, unless the noise stream fires.
        let noisy = match &mut noise {
            Some((nrng, p)) => nrng.random_bool(*p),
            None => false,
        };
        let (topic, surface, label) = if noisy {
            let (nrng, _) = noise.as_mut().unwrap();
            walk_step(vocab, &state, samplers, pool, nrng)
        } else {
            walk_step(vocab, &state, samplers, pool, rng)
        };
        queries.push(surface.clone());
        labels.push(label);
        state = WalkState { topic, surface };
    }
    (queries, labels)
}

struct EpochParams {
    start: u64,
    n_sessions: usize,
    is_test: bool,
}

#[allow(clippy::too_many_arguments)]
fn gen_epoch(
    vocab: &Vocabulary,
    cfg: &SimConfig,
    samplers: &Samplers,
    params: EpochParams,
    rng: &mut StdRng,
) -> (Vec<GeneratedSession>, Vec<RawLogRecord>) {
    let n_machines = if cfg.traffic.n_machines > 0 {
        cfg.traffic.n_machines
    } else {
        (params.n_sessions / 20).max(50)
    };
    // Walk pools: the train epoch never touches test-only topics.
    let train_pool: Vec<TopicId> = vocab.train_topics().to_vec();
    let all_pool: Vec<TopicId> = vocab.iter().map(|t| t.id).collect();

    let mut machine_clock: FxHashMap<u64, u64> = FxHashMap::default();
    let mut sessions = Vec::with_capacity(params.n_sessions);
    let mut records = Vec::with_capacity(params.n_sessions * 3);

    for _ in 0..params.n_sessions {
        let machine = rng.random_range(0..n_machines as u64);

        // Pick the intent.
        let intent = match &samplers.novelty_zipf {
            Some(nz) if params.is_test && rng.random_bool(cfg.session.test_novelty_prob) => {
                samplers.novelty_order[nz.sample(rng)]
            }
            _ => samplers.topic_order[samplers.topic_zipf.sample(rng)],
        };

        let pool: &[TopicId] = if params.is_test {
            &all_pool
        } else {
            &train_pool
        };

        // Session length comes from the main stream so the length
        // distribution matches the configuration exactly (Fig 5); walks
        // sharing a canonical variant then share query prefixes.
        let len = samplers.length.sample(rng) + 1;

        // Canonical variant or fresh walk.
        let (queries, labels) = if rng.random_bool(1.0 - cfg.session.fresh_walk_prob) {
            let variant = samplers.variant_zipf.sample(rng) as u32;
            let walk_seed = cfg.seed ^ fx_hash_one(&(intent.0, variant));
            let mut walk_rng = StdRng::seed_from_u64(walk_seed);
            let noise = Some((&mut *rng, cfg.session.walk_noise));
            gen_walk(vocab, intent, len, samplers, pool, &mut walk_rng, noise)
        } else {
            gen_walk(vocab, intent, len, samplers, pool, rng, None)
        };

        // Timestamps.
        let start = match machine_clock.get(&machine) {
            None => params.start + rng.random_range(0..3 * DAY),
            Some(&last) => {
                last + cfg.traffic.inter_gap_min_secs
                    + exp_sample(rng, cfg.traffic.inter_gap_mean_secs) as u64
            }
        };
        let mut t = start;
        for (i, q) in queries.iter().enumerate() {
            let gap = (exp_sample(rng, cfg.traffic.intra_gap_mean_secs) as u64 + 5)
                .min(cfg.traffic.intra_gap_cap_secs);
            let n_clicks = rng.random_range(0..=cfg.traffic.max_clicks);
            let root = vocab.topic(vocab.topic(intent).root).query.clone();
            let host = root.split(' ').next().unwrap_or("site").to_owned();
            let mut clicks = Vec::with_capacity(n_clicks);
            for c in 0..n_clicks {
                // Clicks land strictly inside the gap to the next query so
                // the 30-minute rule never splits a session at a click.
                let offset = 3 + (gap.saturating_sub(5)) * (c as u64 + 1) / (n_clicks as u64 + 1);
                clicks.push(Click {
                    url: format!("www.{host}.com/{}/{c}", intent.0),
                    timestamp: t + offset,
                });
            }
            records.push(RawLogRecord {
                machine_id: machine,
                timestamp: t,
                query: q.clone(),
                clicks,
            });
            if i + 1 < queries.len() {
                t += gap;
            }
        }
        let last_activity = records.last().map(|r| r.last_activity()).unwrap_or(t);
        machine_clock.insert(machine, last_activity.max(t));

        sessions.push(GeneratedSession { queries, labels });
    }

    // Emit a realistic, globally time-ordered stream.
    records.sort_by_key(|r| (r.timestamp, r.machine_id));
    (sessions, records)
}

/// Run the full simulation: build the vocabulary, generate both epochs.
pub fn generate(cfg: &SimConfig) -> SimulatedLogs {
    let vocabulary = Vocabulary::build(&cfg.vocab, cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed_0002);
    let samplers = Samplers::build(&vocabulary, cfg, &mut rng);

    let (train_sessions, train) = gen_epoch(
        &vocabulary,
        cfg,
        &samplers,
        EpochParams {
            start: 0,
            n_sessions: cfg.train_sessions,
            is_test: false,
        },
        &mut rng,
    );
    let (test_sessions, test) = gen_epoch(
        &vocabulary,
        cfg,
        &samplers,
        EpochParams {
            start: TRAIN_EPOCH_DAYS * DAY,
            n_sessions: cfg.test_sessions,
            is_test: true,
        },
        &mut rng,
    );

    SimulatedLogs {
        train,
        test,
        truth: SimTruth {
            vocabulary,
            train_sessions,
            test_sessions,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn small_logs() -> SimulatedLogs {
        generate(&SimConfig::small(2_000, 500, 99))
    }

    #[test]
    fn generates_requested_session_counts() {
        let logs = small_logs();
        assert_eq!(logs.truth.train_sessions.len(), 2_000);
        assert_eq!(logs.truth.test_sessions.len(), 500);
        assert!(!logs.train.is_empty());
        assert!(!logs.test.is_empty());
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate(&SimConfig::small(300, 100, 5));
        let b = generate(&SimConfig::small(300, 100, 5));
        assert_eq!(a.train.len(), b.train.len());
        for (x, y) in a.train.iter().zip(&b.train) {
            assert_eq!(x, y);
        }
        let c = generate(&SimConfig::small(300, 100, 6));
        assert_ne!(
            a.train.iter().map(|r| r.query.clone()).collect::<Vec<_>>(),
            c.train.iter().map(|r| r.query.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn labels_have_transition_arity() {
        let logs = small_logs();
        for s in logs
            .truth
            .train_sessions
            .iter()
            .chain(&logs.truth.test_sessions)
        {
            assert_eq!(s.labels.len(), s.queries.len() - 1);
            assert!(!s.queries.is_empty());
        }
    }

    #[test]
    fn record_stream_is_time_ordered() {
        let logs = small_logs();
        for w in logs.train.windows(2) {
            assert!(w[0].timestamp <= w[1].timestamp);
        }
    }

    #[test]
    fn record_count_matches_query_count() {
        let logs = small_logs();
        let total_queries: usize = logs
            .truth
            .train_sessions
            .iter()
            .map(|s| s.queries.len())
            .sum();
        assert_eq!(logs.train.len(), total_queries);
    }

    #[test]
    fn ground_truth_labels_are_structurally_consistent() {
        let logs = small_logs();
        let v = &logs.truth.vocabulary;
        for s in &logs.truth.train_sessions {
            for (i, &label) in s.labels.iter().enumerate() {
                let (a, b) = (&s.queries[i], &s.queries[i + 1]);
                match label {
                    PatternType::RepeatedQuery => assert_eq!(a, b),
                    PatternType::SpellingChange => {
                        assert_ne!(a, b);
                        assert!(sqp_common::dist::levenshtein_str(a, b) <= 2);
                        // The fix is a real surface, the typo is not.
                        assert!(v.topic_of_surface(b).is_some());
                        assert!(v.topic_of_surface(a).is_none());
                    }
                    PatternType::Specialization => {
                        let ta = v.topic_of_surface(a);
                        let tb = v.topic_of_surface(b).unwrap();
                        if let Some(ta) = ta {
                            assert_eq!(v.parent(tb), Some(ta));
                        }
                    }
                    PatternType::Generalization => {
                        let ta = v.topic_of_surface(a).unwrap();
                        let tb = v.topic_of_surface(b).unwrap();
                        assert_eq!(v.parent(ta), Some(tb));
                    }
                    PatternType::ParallelMovement => {
                        let ta = v.topic_of_surface(a).unwrap();
                        let tb = v.topic_of_surface(b).unwrap();
                        assert_eq!(v.parent(ta), v.parent(tb));
                        assert_ne!(ta, tb);
                    }
                    PatternType::SynonymSubstitution => {
                        let ta = v.topic_of_surface(a).unwrap();
                        let tb = v.topic_of_surface(b).unwrap();
                        assert_eq!(ta, tb);
                        assert_ne!(a, b);
                    }
                    PatternType::Other => {}
                }
            }
        }
    }

    #[test]
    fn aggregated_sessions_show_heavy_repetition() {
        // Canonical walk variants must make popular sessions repeat — the
        // precondition for the paper's Figure 6 power law.
        let logs = generate(&SimConfig::small(5_000, 100, 123));
        let mut counts: std::collections::HashMap<Vec<String>, u64> = Default::default();
        for s in &logs.truth.train_sessions {
            *counts.entry(s.queries.clone()).or_insert(0) += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(
            max >= 20,
            "most frequent aggregated session only {max} times"
        );
        assert!(counts.len() > 100, "too little diversity: {}", counts.len());
    }

    #[test]
    fn test_epoch_contains_novel_queries() {
        let logs = generate(&SimConfig::small(3_000, 3_000, 77));
        let train_q: std::collections::HashSet<&str> =
            logs.train.iter().map(|r| r.query.as_str()).collect();
        let novel = logs
            .test
            .iter()
            .filter(|r| !train_q.contains(r.query.as_str()))
            .count();
        assert!(novel > 0, "test epoch has no novel queries");
    }

    #[test]
    fn test_epoch_overlaps_training() {
        let logs = generate(&SimConfig::small(3_000, 3_000, 77));
        let train_q: std::collections::HashSet<&str> =
            logs.train.iter().map(|r| r.query.as_str()).collect();
        let seen = logs
            .test
            .iter()
            .filter(|r| train_q.contains(r.query.as_str()))
            .count();
        assert!(
            seen as f64 / logs.test.len() as f64 > 0.5,
            "test epoch barely overlaps training: {seen}/{}",
            logs.test.len()
        );
    }

    #[test]
    fn pattern_mixture_roughly_matches_config() {
        let logs = generate(&SimConfig::small(20_000, 100, 2024));
        let mut counts = [0usize; 7];
        let mut total = 0usize;
        for s in &logs.truth.train_sessions {
            if let Some(l) = s.dominant_label() {
                counts[l.index()] += 1;
                total += 1;
            }
        }
        // Spelling-change share among multi-query sessions should be near its
        // configured first-transition weight (8%).
        let spelling = counts[PatternType::SpellingChange.index()] as f64 / total as f64;
        assert!(
            (0.04..0.14).contains(&spelling),
            "spelling share {spelling}"
        );
        // Every pattern type should occur.
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 0, "pattern {:?} never generated", PatternType::ALL[i]);
        }
    }
}
