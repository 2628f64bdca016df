//! The recommender abstraction shared by all five methods, and the one
//! list of models there is to train.

use crate::persist::ModelKind;
use crate::{
    Adjacency, BackoffConfig, BackoffNgram, Cooccurrence, Mvmm, MvmmConfig, NGram, Vmm, VmmConfig,
};
use sqp_common::topk::Scored;
use sqp_common::{QueryId, QuerySeq};

/// Weighted training sessions: each distinct query sequence with its
/// aggregated frequency (the output of the `sqp-sessions` pipeline).
pub type WeightedSessions = [(QuerySeq, u64)];

/// A trained query-prediction model.
///
/// An empty recommendation means the context is *not covered* — the model
/// has no evidence to predict from (the paper's coverage metric counts
/// exactly this).
pub trait Recommender: Send + Sync {
    /// Short display name ("Adj.", "Co-occ.", "N-gram", "VMM (0.05)", "MVMM").
    fn name(&self) -> &str;

    /// Top-`k` next-query candidates for `context`, best first, into a
    /// caller-owned buffer (cleared first), so serving loops reuse one
    /// allocation across calls. Every model ranks here and only here.
    fn recommend_into(&self, context: &[QueryId], k: usize, out: &mut Vec<Scored>);

    /// [`recommend_into`](Recommender::recommend_into) into a new list.
    fn recommend(&self, context: &[QueryId], k: usize) -> Vec<Scored> {
        let mut out = Vec::new();
        self.recommend_into(context, k, &mut out);
        out
    }

    /// Approximate owned heap bytes (Table VII).
    fn memory_bytes(&self) -> usize;

    /// True when the model can produce at least one recommendation for
    /// `context` — the paper's coverage, answered without ranking.
    fn covers(&self, context: &[QueryId]) -> bool;

    /// Concrete-type escape hatch for the snapshot persistence layer
    /// ([`crate::persist`]): a model that wants to be savable behind a
    /// `&dyn Recommender` returns `Some(self)` so the persister can
    /// downcast to its [`crate::persist::ModelKind`]. The default (`None`)
    /// marks the model as not persistable — [`crate::persist::model_to_bytes`]
    /// then reports an unsupported-model error instead of guessing.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Models that assign probabilities to whole query sequences (the sequence
/// models: N-gram, VMM, MVMM). Used for the log-loss analysis of Eq. (1).
pub trait SequenceScorer {
    /// `log10 P(sequence)` with the first query given (footnote 3 of the
    /// paper: `P(q1) = 1`).
    fn sequence_log10_prob(&self, seq: &[QueryId]) -> f64;
}

/// Which model to train: the kind and its configuration, no data.
#[derive(Clone, Debug)]
pub enum ModelSpec {
    /// The paper's MVMM (default: the 11-component ε sweep).
    Mvmm(MvmmConfig),
    /// A single VMM.
    Vmm(VmmConfig),
    /// The Adjacency baseline (smallest footprint).
    Adjacency,
    /// The Co-occurrence baseline (best raw coverage).
    Cooccurrence,
    /// The naive variable-length N-gram over full prefix contexts.
    NGram,
    /// The Katz-style back-off N-gram.
    Backoff(BackoffConfig),
}

impl Default for ModelSpec {
    fn default() -> Self {
        ModelSpec::Mvmm(MvmmConfig::epsilon_sweep())
    }
}

impl ModelSpec {
    /// The tag a model trained from this spec is saved under. Total: every
    /// spec trains a model with an on-disk form.
    pub fn kind(&self) -> ModelKind {
        match self {
            ModelSpec::Mvmm(_) => ModelKind::Mvmm,
            ModelSpec::Vmm(_) => ModelKind::Vmm,
            ModelSpec::Adjacency => ModelKind::Adjacency,
            ModelSpec::Cooccurrence => ModelKind::Cooccurrence,
            ModelSpec::NGram => ModelKind::NGram,
            ModelSpec::Backoff(_) => ModelKind::Backoff,
        }
    }

    /// Display label: the trained model's [`Recommender::name`].
    pub fn label(&self) -> String {
        match self {
            ModelSpec::Mvmm(_) => "MVMM".into(),
            ModelSpec::Vmm(c) => c.display_name(),
            ModelSpec::Adjacency => "Adj.".into(),
            ModelSpec::Cooccurrence => "Co-occ.".into(),
            ModelSpec::NGram => "N-gram".into(),
            ModelSpec::Backoff(_) => "Backoff N-gram".into(),
        }
    }

    /// Train the model on weighted sessions, in any order: every model
    /// comes out the same whatever the order of `sessions`.
    pub fn train(&self, sessions: &WeightedSessions) -> Box<dyn Recommender> {
        match self {
            ModelSpec::Mvmm(c) => Box::new(Mvmm::train(sessions, c)),
            ModelSpec::Vmm(c) => Box::new(Vmm::train(sessions, *c)),
            ModelSpec::Adjacency => Box::new(Adjacency::train(sessions)),
            ModelSpec::Cooccurrence => Box::new(Cooccurrence::train(sessions)),
            ModelSpec::NGram => Box::new(NGram::train(sessions)),
            ModelSpec::Backoff(c) => Box::new(BackoffNgram::train(sessions, *c)),
        }
    }
}
