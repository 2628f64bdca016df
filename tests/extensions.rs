//! Integration test: the beyond-paper subsystems — back-off N-gram, model
//! persistence, MRR/hit-rate — exercised together through the umbrella API
//! on a simulated corpus.

use sqp::core::{BackoffConfig, BackoffNgram, Vmm, VmmConfig};
use sqp::eval::{hit_rate, mean_reciprocal_rank, overall_coverage, overall_ndcg};
use sqp::logsim::SimConfig;
use sqp::sessions::{process, PipelineConfig};

fn processed() -> sqp::sessions::ProcessedLogs {
    let logs = sqp::logsim::generate(&SimConfig::small(15_000, 4_000, 123));
    process(&logs, &PipelineConfig::default())
}

#[test]
fn backoff_ngram_competes_with_vmm() {
    let p = processed();
    let sessions = &p.train.aggregated.sessions;
    let gt = &p.ground_truth;

    let vmm = Vmm::train(sessions, VmmConfig::with_epsilon(0.05));
    let backoff = BackoffNgram::train(sessions, BackoffConfig::default());

    // Same structural coverage: both bottom out at the current query.
    assert!(
        (overall_coverage(&backoff, gt) - overall_coverage(&vmm, gt)).abs() < 1e-9,
        "coverage should tie"
    );
    // Accuracy in the same band (both are suffix-context models).
    let n_vmm = overall_ndcg(&vmm, gt, 5);
    let n_bo = overall_ndcg(&backoff, gt, 5);
    assert!(
        (n_vmm - n_bo).abs() < 0.1,
        "VMM {n_vmm} vs Backoff {n_bo} diverge too much"
    );
    assert!(n_bo > 0.3);
}

#[test]
fn persistence_roundtrip_preserves_evaluation_metrics() {
    let p = processed();
    let sessions = &p.train.aggregated.sessions;
    let gt = &p.ground_truth;

    let vmm = Vmm::train(sessions, VmmConfig::with_epsilon(0.05));
    let (kind, blob) = sqp::core::model_to_bytes(&vmm).expect("serialize");
    assert_eq!(kind, sqp::core::ModelKind::Vmm);
    let restored = sqp::core::model_from_bytes(kind, blob, p.interner.len()).expect("roundtrip");

    assert_eq!(
        overall_ndcg(&vmm, gt, 5),
        overall_ndcg(restored.as_ref(), gt, 5)
    );
    assert_eq!(
        overall_coverage(&vmm, gt),
        overall_coverage(restored.as_ref(), gt)
    );
    assert_eq!(
        mean_reciprocal_rank(&vmm, gt, 5),
        mean_reciprocal_rank(restored.as_ref(), gt, 5)
    );
}

#[test]
fn mrr_and_hit_rate_preserve_paper_orderings() {
    let p = processed();
    let sessions = &p.train.aggregated.sessions;
    let gt = &p.ground_truth;

    let cooc = sqp::core::Cooccurrence::train(sessions);
    let vmm = Vmm::train(sessions, VmmConfig::with_epsilon(0.05));

    // The second lens agrees with NDCG: sequence model above Co-occurrence.
    assert!(mean_reciprocal_rank(&vmm, gt, 5) > mean_reciprocal_rank(&cooc, gt, 5));
    assert!(hit_rate(&vmm, gt, 5) >= hit_rate(&cooc, gt, 5) - 0.02);
    // Hit rate grows with k.
    assert!(hit_rate(&vmm, gt, 5) >= hit_rate(&vmm, gt, 1));
}
