//! Integration test: the paper's §IV-B toy example (Table II → Figure 3),
//! verified end to end through the public umbrella API.
//!
//! Every number asserted here is printed in the paper:
//! * the candidate set S′ = {q1q0, q0q1, q0, q1};
//! * P(q0 | q1q0) = 3/10;
//! * D_KL(q0 ‖ q1q0) = 0.3449 (added at ε = 0.1),
//!   D_KL(q1 ‖ q0q1) = 0.0837 (rejected);
//! * the final state set {e, q0, q1, q1q0} with
//!   P(·|q0) = (0.9, 0.1), P(·|q1) = (0.8, 0.2), P(·|q1q0) = (0.3, 0.7);
//! * the walked-through probability of [q0,q1,q0,q1,q1,q0]
//!   = 1 × 0.1 × 0.8 × 0.7 × 0.2 × 0.8;
//! * the two recommendation examples (q0 after q0; q1 after [q1,q0]).

use sqp::core::counts::WindowCounts;
use sqp::core::toy::{toy_corpus, toy_test_sequence, TOY_EPSILON, TOY_TEST_SEQUENCE_PROB};
use sqp::core::{FitConfig, Mvmm, MvmmConfig, Recommender, SequenceScorer, Vmm, VmmConfig};
use sqp_common::{seq, QueryId};

fn q0() -> QueryId {
    QueryId(0)
}
fn q1() -> QueryId {
    QueryId(1)
}

#[test]
fn full_figure3_reproduction() {
    let vmm = Vmm::train(&toy_corpus(), VmmConfig::with_epsilon(TOY_EPSILON));

    // State set: root + q0 + q1 + q1q0; q0q1 rejected.
    assert_eq!(vmm.node_count(), 4);
    assert!(vmm.pst().contains(&seq(&[0])));
    assert!(vmm.pst().contains(&seq(&[1])));
    assert!(vmm.pst().contains(&seq(&[1, 0])));
    assert!(!vmm.pst().contains(&seq(&[0, 1])));

    // Node distributions, to 1e-12.
    let cases = [
        (seq(&[0]), 0.9, 0.1),
        (seq(&[1]), 0.8, 0.2),
        (seq(&[1, 0]), 0.3, 0.7),
    ];
    for (ctx, p0, p1) in cases {
        assert!((vmm.cond_prob(&ctx, q0()) - p0).abs() < 1e-12, "{ctx:?}");
        assert!((vmm.cond_prob(&ctx, q1()) - p1).abs() < 1e-12, "{ctx:?}");
    }

    // Root prior = occurrence frequencies: 187/218 vs 31/218.
    assert!((vmm.cond_prob(&[], q0()) - 187.0 / 218.0).abs() < 1e-12);
    assert!((vmm.cond_prob(&[], q1()) - 31.0 / 218.0).abs() < 1e-12);

    // The paper's test-sequence probability.
    let p = 10f64.powf(vmm.sequence_log10_prob(&toy_test_sequence()));
    assert!((p - TOY_TEST_SEQUENCE_PROB).abs() < 1e-12, "p = {p}");

    // Recommendation examples from §IV-B.2.
    assert_eq!(vmm.recommend(&seq(&[0]), 1)[0].query, q0());
    assert_eq!(vmm.recommend(&seq(&[1, 0]), 1)[0].query, q1());
}

#[test]
fn conditional_probability_table_ii() {
    // P(q0|[q1,q0]) = 3/10 straight from the window counts.
    let counts = WindowCounts::build(&toy_corpus(), None);
    let node = counts.trie().window(&seq(&[1, 0])).unwrap();
    assert_eq!(
        counts.trie().continuations(node),
        (&[q0(), q1()][..], &[3, 7][..])
    );
    assert_eq!(counts.trie().cont_total(node), 10);

    // Candidate set S′ (no filtering), in (length, sequence) order.
    let mut path = Vec::new();
    let cands: Vec<Vec<_>> = counts
        .candidate_nodes(1, None)
        .map(|node| {
            counts.trie().path(node, &mut path);
            path.clone()
        })
        .collect();
    assert_eq!(
        cands,
        [[q0()].as_slice(), &[q1()], &[q0(), q1()], &[q1(), q0()]]
    );
}

#[test]
fn kl_thresholds_bracket_epsilon() {
    // ε below 0.0837 admits both depth-2 states; between 0.0837 and 0.3449
    // admits only q1q0; above 0.3449 admits neither.
    let narrow = Vmm::train(&toy_corpus(), VmmConfig::with_epsilon(0.05));
    assert!(narrow.pst().contains(&seq(&[0, 1])));
    assert!(narrow.pst().contains(&seq(&[1, 0])));

    let paper = Vmm::train(&toy_corpus(), VmmConfig::with_epsilon(0.1));
    assert!(!paper.pst().contains(&seq(&[0, 1])));
    assert!(paper.pst().contains(&seq(&[1, 0])));

    let wide = Vmm::train(&toy_corpus(), VmmConfig::with_epsilon(0.35));
    assert!(!wide.pst().contains(&seq(&[1, 0])));
    assert_eq!(wide.node_count(), 3);
}

#[test]
fn escape_of_unseen_context_matches_eq6() {
    // §IV-C.1(b): context q1q1 escapes to state q1 with probability
    // ‖[e,q1]‖ / ‖q1‖ = 18/31.
    let esc = WindowCounts::build(&toy_corpus(), None).escape_prob(&seq(&[1, 1]));
    assert!((esc - 18.0 / 31.0).abs() < 1e-12);
    // A one-component mixture weighs its one component 1, so it scores a
    // candidate by the escaped conditional of Eq. (5).
    let mixture = Mvmm::train(
        &toy_corpus(),
        &MvmmConfig {
            components: vec![VmmConfig::with_epsilon(TOY_EPSILON)],
            fit: FitConfig::default(),
        },
    );
    let top = mixture.recommend(&seq(&[1, 1]), 2);
    let p = top.iter().find(|s| s.query == q0()).unwrap().score;
    assert!((p - esc * 0.8).abs() < 1e-12);
}

#[test]
fn mvmm_on_toy_corpus_agrees_with_components() {
    let mvmm = Mvmm::train(&toy_corpus(), &MvmmConfig::small());
    // All components share the exact states for these contexts, so the
    // mixture must reproduce the paper's recommendations.
    assert_eq!(mvmm.recommend(&seq(&[0]), 1)[0].query, q0());
    assert_eq!(mvmm.recommend(&seq(&[1, 0]), 1)[0].query, q1());
    // And the mixture weights are a proper distribution: every component
    // matches the state q1q0 exactly, so the score is P(q1 | q1q0) = 0.7.
    let w = mvmm.recommend(&seq(&[1, 0]), 1)[0].score;
    assert!((w - 0.7).abs() < 1e-9, "{w}");
}

#[test]
fn ndcg_eq11_worked_example() {
    // A hand-computed Eq. (11) check through the eval crate: truth ratings
    // (5,4,3,2,1), prediction hits positions (2,1) then misses.
    // DCG = (2^4-1)/log10(2) + (2^5-1)/log10(3) = 15/0.30103 + 31/0.47712
    // IDCG = 31/0.30103 + 15/0.47712 + 7/log10(4) + 3/log10(5) + 1/log10(6)
    let truth: Vec<(QueryId, u64)> = (0..5).map(|i| (QueryId(i), 50 - i as u64)).collect();
    let predicted = vec![QueryId(1), QueryId(0)];
    let got = sqp::eval::ndcg_at(&predicted, &truth, 5);
    let dcg = 15.0 / (2f64).log10() + 31.0 / (3f64).log10();
    let idcg = 31.0 / (2f64).log10()
        + 15.0 / (3f64).log10()
        + 7.0 / (4f64).log10()
        + 3.0 / (5f64).log10()
        + 1.0 / (6f64).log10();
    assert!((got - dcg / idcg).abs() < 1e-12, "got {got}");
}
