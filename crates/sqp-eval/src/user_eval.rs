//! The user-study protocol of §V-H (Table VIII, Figures 13–14), with the
//! labeler oracle standing in for the paper's 30 volunteers.
//!
//! Step 1: sample test query sequences — 500 per context length 1–4 in the
//! paper — and collect each method's top-5 predictions.
//! Step 2: label every predicted query approved/rejected.
//! Step 3: pool the unique approved queries as the user-centric ground truth
//! and report per-method precision (approved/predicted), recall
//! (approved/pool), and per-position precision.

use crate::labeler::LabelerOracle;
use sqp_common::rng::{Rng, StdRng};
use sqp_common::{FxHashSet, Interner, QueryId};
use sqp_core::Recommender;
use sqp_logsim::Vocabulary;
use sqp_sessions::{GroundTruth, GroundTruthEntry};

/// Protocol parameters (paper defaults).
#[derive(Clone, Debug)]
pub struct UserEvalConfig {
    /// Sequences sampled per context length (paper: 500).
    pub per_length: usize,
    /// Context lengths sampled (paper: 1–4).
    pub lengths: Vec<usize>,
    /// Predictions requested per method (paper: 5).
    pub top_n: usize,
    /// Sampling seed.
    pub seed: u64,
    /// Also approve predictions that appear in the context's data-centric
    /// top-5 ground truth (a labeler would recognize popular continuations).
    pub approve_truth_top: bool,
}

impl Default for UserEvalConfig {
    fn default() -> Self {
        Self {
            per_length: 500,
            lengths: vec![1, 2, 3, 4],
            top_n: 5,
            seed: 42,
            approve_truth_top: true,
        }
    }
}

/// Per-method outcome (one column of Table VIII + Figures 13–14).
#[derive(Clone, Debug)]
pub struct MethodUserEval {
    /// Method display name.
    pub name: String,
    /// Total predicted queries (Table VIII row 1).
    pub predicted: u64,
    /// Approved predicted queries (Table VIII row 2).
    pub approved: u64,
    /// Predictions per rank position (0-based index = position − 1).
    pub position_predicted: Vec<u64>,
    /// Approvals per rank position.
    pub position_approved: Vec<u64>,
}

impl MethodUserEval {
    /// Overall precision (Fig 13a).
    pub fn precision(&self) -> f64 {
        if self.predicted == 0 {
            0.0
        } else {
            self.approved as f64 / self.predicted as f64
        }
    }

    /// Recall against the pooled unique approved queries (Fig 13b).
    pub fn recall(&self, pool_size: usize) -> f64 {
        if pool_size == 0 {
            0.0
        } else {
            self.approved as f64 / pool_size as f64
        }
    }

    /// Precision at a 1-based rank position (Fig 14).
    pub fn precision_at_position(&self, pos: usize) -> f64 {
        let idx = pos - 1;
        let p = self.position_predicted.get(idx).copied().unwrap_or(0);
        let a = self.position_approved.get(idx).copied().unwrap_or(0);
        if p == 0 {
            0.0
        } else {
            a as f64 / p as f64
        }
    }
}

/// Full user-study outcome.
#[derive(Clone, Debug)]
pub struct UserEvalResult {
    /// Per-method rows, in the order models were passed.
    pub methods: Vec<MethodUserEval>,
    /// Unique approved queries across all methods (paper: 9,489).
    pub pool_size: usize,
    /// Contexts actually sampled.
    pub sampled_contexts: usize,
}

/// Sample up to `n` items deterministically without replacement.
fn sample_indices(len: usize, n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..len).collect();
    let take = n.min(len);
    for i in 0..take {
        let j = rng.random_range(i..len);
        idx.swap(i, j);
    }
    idx.truncate(take);
    idx
}

/// Run the protocol over trained models.
pub fn run_user_eval(
    models: &[&dyn Recommender],
    gt: &GroundTruth,
    interner: &Interner,
    vocab: &Vocabulary,
    cfg: &UserEvalConfig,
) -> UserEvalResult {
    let oracle = LabelerOracle::new(vocab);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Step 1: sample contexts per length.
    let mut sampled: Vec<&GroundTruthEntry> = Vec::new();
    for &len in &cfg.lengths {
        let pool: Vec<&GroundTruthEntry> = gt.by_length(len).collect();
        for i in sample_indices(pool.len(), cfg.per_length, &mut rng) {
            sampled.push(pool[i]);
        }
    }

    // Steps 2–3: predict, label, pool.
    let mut methods: Vec<MethodUserEval> = models
        .iter()
        .map(|m| MethodUserEval {
            name: m.name().to_owned(),
            predicted: 0,
            approved: 0,
            position_predicted: vec![0; cfg.top_n],
            position_approved: vec![0; cfg.top_n],
        })
        .collect();
    // The pooled ground truth holds unique approved (context, query) pairs —
    // "duplicated queries were removed" in the paper's step 3. A method's
    // approved set is a subset of the pool, so recall is well-defined ≤ 1.
    let mut pool: FxHashSet<(sqp_common::QuerySeq, QueryId)> = FxHashSet::default();

    for e in &sampled {
        let last = *e.context.last().expect("non-empty context");
        let last_str = interner.resolve(last);
        for (mi, model) in models.iter().enumerate() {
            let recs = model.recommend(&e.context, cfg.top_n);
            for (pos, rec) in recs.iter().enumerate() {
                methods[mi].predicted += 1;
                methods[mi].position_predicted[pos] += 1;
                let pred_str = interner.resolve(rec.query);
                let in_truth_top =
                    cfg.approve_truth_top && e.top.iter().any(|&(q, _)| q == rec.query);
                if in_truth_top || oracle.approve(last_str, pred_str) {
                    methods[mi].approved += 1;
                    methods[mi].position_approved[pos] += 1;
                    pool.insert((e.context.clone(), rec.query));
                }
            }
        }
    }

    UserEvalResult {
        methods,
        pool_size: pool.len(),
        sampled_contexts: sampled.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_core::{Adjacency, Cooccurrence, NGram};
    use sqp_sessions::{process, PipelineConfig};

    fn setup() -> (sqp_sessions::ProcessedLogs, sqp_logsim::SimulatedLogs) {
        let logs = sqp_logsim::generate(&sqp_logsim::SimConfig::small(6_000, 4_000, 2025));
        let cfg = PipelineConfig {
            reduction_threshold: 1,
        };
        let processed = process(&logs, &cfg);
        (processed, logs)
    }

    #[test]
    fn protocol_end_to_end() {
        let (p, logs) = setup();
        let sessions = &p.train.aggregated.sessions;
        let adj = Adjacency::train(sessions);
        let co = Cooccurrence::train(sessions);
        let ng = NGram::train(sessions);
        let models: Vec<&dyn Recommender> = vec![&adj, &co, &ng];
        let cfg = UserEvalConfig {
            per_length: 100,
            ..UserEvalConfig::default()
        };
        let res = run_user_eval(
            &models,
            &p.ground_truth,
            &p.interner,
            &logs.truth.vocabulary,
            &cfg,
        );
        assert_eq!(res.methods.len(), 3);
        assert!(res.sampled_contexts > 100);
        assert!(res.pool_size > 0);
        for m in &res.methods {
            assert!(m.predicted >= m.approved);
            let prec = m.precision();
            assert!((0.0..=1.0).contains(&prec), "{}: {prec}", m.name);
            // Position counts sum to totals.
            assert_eq!(m.position_predicted.iter().sum::<u64>(), m.predicted);
            assert_eq!(m.position_approved.iter().sum::<u64>(), m.approved);
        }
        // Ordered models should have decent precision on this synthetic data.
        let adj_row = &res.methods[0];
        assert!(
            adj_row.precision() > 0.4,
            "Adj precision {}",
            adj_row.precision()
        );
    }

    #[test]
    fn sampling_is_deterministic() {
        let (p, logs) = setup();
        let sessions = &p.train.aggregated.sessions;
        let adj = Adjacency::train(sessions);
        let models: Vec<&dyn Recommender> = vec![&adj];
        let cfg = UserEvalConfig {
            per_length: 50,
            ..UserEvalConfig::default()
        };
        let r1 = run_user_eval(
            &models,
            &p.ground_truth,
            &p.interner,
            &logs.truth.vocabulary,
            &cfg,
        );
        let r2 = run_user_eval(
            &models,
            &p.ground_truth,
            &p.interner,
            &logs.truth.vocabulary,
            &cfg,
        );
        assert_eq!(r1.methods[0].predicted, r2.methods[0].predicted);
        assert_eq!(r1.methods[0].approved, r2.methods[0].approved);
        assert_eq!(r1.pool_size, r2.pool_size);
    }

    #[test]
    fn sample_indices_bounds_and_uniqueness() {
        let mut rng = StdRng::seed_from_u64(3);
        let idx = sample_indices(10, 4, &mut rng);
        assert_eq!(idx.len(), 4);
        let set: std::collections::HashSet<_> = idx.iter().collect();
        assert_eq!(set.len(), 4);
        // Requesting more than available returns everything.
        let all = sample_indices(3, 10, &mut rng);
        assert_eq!(all.len(), 3);
        assert!(sample_indices(0, 5, &mut rng).is_empty());
    }

    #[test]
    fn metrics_arithmetic() {
        let m = MethodUserEval {
            name: "x".into(),
            predicted: 7892,
            approved: 4803,
            position_predicted: vec![4803, 3089, 0, 0, 0],
            position_approved: vec![4000, 803, 0, 0, 0],
        };
        // The paper's own Co-occ numbers: 60.86% precision, 50.62% recall.
        assert!((m.precision() - 0.6086).abs() < 1e-4);
        assert!((m.recall(9489) - 0.5062).abs() < 1e-4);
        assert!((m.precision_at_position(1) - 4000.0 / 4803.0).abs() < 1e-12);
        assert_eq!(m.precision_at_position(5), 0.0);
    }
}
