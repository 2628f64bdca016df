//! Simulator configuration.
//!
//! The defaults are calibrated against the statistics the paper reports for
//! its 150-day commercial log: mean session length 2–3 queries (§I cites
//! 2.85/2.31/2.31 from Jansen et al.), order-sensitive reformulation patterns
//! at 34.34% of sessions (Fig 1), power-law aggregated-session frequencies
//! (Fig 6), and a test epoch containing queries never seen in training
//! (Table VI reason 1).

/// Shape of the synthetic topic-tree vocabulary.
#[derive(Clone, Debug)]
pub struct VocabConfig {
    /// Number of root topics (head concepts like "nokia n73", "kidney stones").
    pub n_roots: usize,
    /// Minimum children per non-leaf topic.
    pub branch_min: usize,
    /// Maximum children per non-leaf topic (inclusive).
    pub branch_max: usize,
    /// Maximum tree depth (root = 0). Specialization chains are at most this long.
    pub max_depth: usize,
    /// Probability that an interior/leaf topic receives an internal subtree at
    /// each level (controls tree sparsity).
    pub expand_prob: f64,
    /// Fraction of topics given an alternate surface form (synonym/acronym).
    pub synonym_frac: f64,
    /// Fraction of *additional* root topics that exist only in the test epoch
    /// (fresh queries, exercising coverage failures).
    pub test_only_root_frac: f64,
}

impl Default for VocabConfig {
    fn default() -> Self {
        Self {
            n_roots: 150,
            branch_min: 2,
            branch_max: 4,
            max_depth: 4,
            expand_prob: 0.9,
            synonym_frac: 0.35,
            test_only_root_frac: 0.15,
        }
    }
}

/// Session-walk behaviour.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Unnormalized weights over the paper's seven reformulation patterns, in
    /// [`crate::patterns::PatternType::ALL`] order: spelling change, parallel
    /// movement, generalization, specialization, synonym substitution,
    /// repeated query, other.
    ///
    /// Default puts the order-sensitive trio (spelling + generalization +
    /// specialization) at 34.34%, matching Fig 1.
    pub(crate) pattern_weights: [f64; 7],
    /// Unnormalized probabilities of session lengths 1, 2, 3, … .
    pub(crate) length_weights: Vec<f64>,
    /// Zipf exponent for intent (topic) popularity.
    pub(crate) zipf_theta: f64,
    /// Number of canonical walk variants per intent; repeated sessions reuse
    /// them, producing the power-law aggregated-session spectrum of Fig 6.
    pub(crate) walk_variants: usize,
    /// Zipf exponent over walk variants.
    pub(crate) variant_theta: f64,
    /// Probability that a session takes a fresh random walk instead of a
    /// canonical variant (the long tail of unique sessions).
    pub(crate) fresh_walk_prob: f64,
    /// Per-transition probability that a canonical walk deviates from its
    /// script (an "exploration" step). Noise is what gives deep contexts
    /// non-zero prediction entropy (Fig 2) and makes long test contexts
    /// diverge from training prefixes (the N-gram coverage collapse, Fig 11).
    pub(crate) walk_noise: f64,
    /// Probability that a *test-epoch* session targets a test-only topic.
    pub(crate) test_novelty_prob: f64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            // spelling, parallel, generalize, specialize, synonym, repeat, other
            pattern_weights: [0.0800, 0.1600, 0.0834, 0.1800, 0.0700, 0.1700, 0.2566],
            // Mean ≈ 2.2, matching the paper's 2–3 range, with a visible tail
            // of sessions longer than 4 queries (Fig 5).
            length_weights: vec![0.42, 0.27, 0.15, 0.08, 0.045, 0.02, 0.01, 0.005],
            zipf_theta: 1.05,
            walk_variants: 12,
            variant_theta: 1.4,
            fresh_walk_prob: 0.30,
            walk_noise: 0.15,
            test_novelty_prob: 0.22,
        }
    }
}

/// Raw-log emission behaviour (timestamps, machines, clicks).
#[derive(Clone, Debug)]
pub struct TrafficConfig {
    /// Number of distinct machines (users). 0 ⇒ derived as n_sessions / 20.
    pub(crate) n_machines: usize,
    /// Mean seconds between queries inside a session (exponential).
    pub(crate) intra_gap_mean_secs: f64,
    /// Hard cap on intra-session gaps, kept safely below the 30-minute
    /// segmentation cutoff.
    pub(crate) intra_gap_cap_secs: u64,
    /// Minimum seconds between two sessions of the same machine, kept safely
    /// above the cutoff so segmentation can recover session boundaries.
    pub(crate) inter_gap_min_secs: u64,
    /// Mean of the additional exponential inter-session gap.
    pub(crate) inter_gap_mean_secs: f64,
    /// Maximum clicks recorded after a query.
    pub(crate) max_clicks: usize,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            n_machines: 0,
            intra_gap_mean_secs: 95.0,
            intra_gap_cap_secs: 20 * 60,
            inter_gap_min_secs: 35 * 60,
            inter_gap_mean_secs: 6.0 * 3600.0,
            max_clicks: 3,
        }
    }
}

/// Top-level simulation config: vocabulary + sessions + traffic + scale.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Vocabulary shape.
    pub vocab: VocabConfig,
    /// Session-walk behaviour.
    pub session: SessionConfig,
    /// Raw-log emission behaviour.
    pub traffic: TrafficConfig,
    /// Number of sessions in the training epoch (the paper's 120 days).
    pub train_sessions: usize,
    /// Number of sessions in the test epoch (the paper's 30 days).
    pub test_sessions: usize,
    /// Master seed; every derived stream is deterministic in this.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            vocab: VocabConfig::default(),
            session: SessionConfig::default(),
            traffic: TrafficConfig::default(),
            train_sessions: 200_000,
            test_sessions: 50_000,
            seed: 42,
        }
    }
}

impl SimConfig {
    /// A small corpus for tests and benchmarks.
    pub fn small(train_sessions: usize, test_sessions: usize, seed: u64) -> Self {
        Self {
            vocab: VocabConfig {
                n_roots: 40,
                ..VocabConfig::default()
            },
            train_sessions,
            test_sessions,
            seed,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pattern_mix_matches_paper_order_sensitivity() {
        let w = SessionConfig::default().pattern_weights;
        let total: f64 = w.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // spelling (0) + generalization (2) + specialization (3) = 34.34%
        let order_sensitive = w[0] + w[2] + w[3];
        assert!((order_sensitive - 0.3434).abs() < 1e-9);
    }

    #[test]
    fn default_length_mean_in_paper_range() {
        let w = SessionConfig::default().length_weights;
        let total: f64 = w.iter().sum();
        let mean: f64 = w
            .iter()
            .enumerate()
            .map(|(i, p)| (i + 1) as f64 * p / total)
            .sum();
        assert!((2.0..3.0).contains(&mean), "mean session length {mean}");
    }

    #[test]
    fn traffic_gaps_respect_segmentation_cutoff() {
        let t = TrafficConfig::default();
        assert!(t.intra_gap_cap_secs < 30 * 60);
        assert!(t.inter_gap_min_secs > 30 * 60);
    }
}
