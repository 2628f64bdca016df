//! Standard model suite: the five methods of the paper's benchmark, plus
//! helpers to train any subset uniformly.

use sqp_core::{ModelSpec, MvmmConfig, Recommender, VmmConfig, WeightedSessions};

/// A faster line-up for tests and smoke runs (3-component MVMM).
pub fn quick_lineup() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Adjacency,
        ModelSpec::Cooccurrence,
        ModelSpec::NGram,
        ModelSpec::Vmm(VmmConfig::with_epsilon(0.05)),
        ModelSpec::Mvmm(MvmmConfig::small()),
    ]
}

/// Train every spec, returning `(label, model)` pairs.
pub fn train_models(
    specs: &[ModelSpec],
    sessions: &WeightedSessions,
) -> Vec<(String, Box<dyn Recommender>)> {
    specs
        .iter()
        .map(|s| (s.label(), s.train(sessions)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_core::toy::toy_corpus;

    #[test]
    fn all_kinds_train_on_toy_corpus() {
        let corpus = toy_corpus();
        let backoff = ModelSpec::Backoff(sqp_core::BackoffConfig::default());
        for spec in quick_lineup().into_iter().chain([backoff]) {
            let model = spec.train(&corpus);
            assert_eq!(model.name(), spec.label());
            // All models can answer for context [q0] on the toy corpus.
            let recs = model.recommend(&sqp_common::seq(&[0]), 5);
            assert!(!recs.is_empty(), "{} returned nothing", spec.label());
        }
    }

    #[test]
    fn train_models_preserves_order() {
        let corpus = toy_corpus();
        let specs = quick_lineup();
        let trained = train_models(&specs, &corpus);
        assert_eq!(trained.len(), specs.len());
        for ((label, model), spec) in trained.iter().zip(&specs) {
            assert_eq!(label, &spec.label());
            assert_eq!(model.name(), spec.label());
        }
    }
}
