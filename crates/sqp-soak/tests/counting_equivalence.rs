//! Equivalence: the arena suffix-trie counter must reproduce the old
//! hashmap-of-owned-windows counter **exactly** — same windows, same totals,
//! same session-start counts, same continuation distributions — on the
//! paper's toy corpus and on randomized simulated corpora.

mod baseline;

use baseline::BaselineWindowCounts;
use sqp_common::{seq, QueryId, QuerySeq, SuffixTrie};
use sqp_core::counts::WindowCounts;

/// The paper's Table II corpus (inlined from `sqp_core::toy`).
fn toy_corpus() -> Vec<(QuerySeq, u64)> {
    vec![
        (seq(&[1, 0, 0]), 3),
        (seq(&[1, 0, 1]), 7),
        (seq(&[0, 0]), 78),
        (seq(&[1, 0]), 5),
        (seq(&[0, 1, 0]), 1),
        (seq(&[0, 1, 1]), 1),
        (seq(&[1, 1]), 3),
        (seq(&[0]), 10),
    ]
}

/// Assert the two counters agree on every observable quantity.
fn assert_equivalent(sessions: &[(QuerySeq, u64)], max_len: Option<usize>) {
    let baseline = BaselineWindowCounts::build(sessions, max_len);
    let counts = WindowCounts::build(sessions, max_len);
    let trie = counts.trie();

    assert_eq!(counts.n_queries, baseline.n_queries);
    assert_eq!(counts.total_sessions, baseline.total_sessions);
    assert_eq!(counts.total_occurrences, baseline.total_occurrences);
    assert_eq!(counts.max_len, baseline.max_len);
    assert_eq!(counts.window_count(), baseline.entries.len());

    // Every baseline window with identical statistics (window_count equality
    // above makes the correspondence a bijection).
    for (w, be) in &baseline.entries {
        let node = trie
            .window(w)
            .unwrap_or_else(|| panic!("window {w:?} missing from trie"));
        assert_eq!(trie.total(node), be.total, "total mismatch on {w:?}");
        assert_eq!(
            trie.at_start(node),
            be.at_start,
            "at_start mismatch on {w:?}"
        );
        assert_eq!(
            trie.cont_total(node),
            be.next.total(),
            "next total on {w:?}"
        );
        let mut baseline_next: Vec<(QueryId, u64)> = be.next.iter().map(|(q, c)| (*q, c)).collect();
        baseline_next.sort_unstable_by_key(|&(q, _)| q);
        assert_eq!(
            pairs(trie.continuations(node)),
            baseline_next,
            "continuations on {w:?}"
        );
    }

    // Root prior.
    let mut baseline_root: Vec<(QueryId, u64)> =
        baseline.root_next.iter().map(|(q, c)| (*q, c)).collect();
    baseline_root.sort_unstable_by_key(|&(q, _)| q);
    assert_eq!(pairs(trie.continuations(SuffixTrie::ROOT)), baseline_root);

    // Escape probabilities on a grid of contexts (including unobserved).
    for a in 0..6u32 {
        for b in 0..6u32 {
            let ctx = seq(&[a, b]);
            let expect = baseline_escape(&baseline, &ctx);
            let got = counts.escape_prob(&ctx);
            assert!(
                (expect - got).abs() < 1e-15,
                "escape mismatch on {ctx:?}: {expect} vs {got}"
            );
        }
    }
}

/// Parallel `(queries, counts)` slices as pairs.
fn pairs((queries, counts): (&[QueryId], &[u64])) -> Vec<(QueryId, u64)> {
    queries
        .iter()
        .copied()
        .zip(counts.iter().copied())
        .collect()
}

/// Eq. (6) computed from the baseline's maps (the seed formula verbatim).
fn baseline_escape(c: &BaselineWindowCounts, s: &[QueryId]) -> f64 {
    let suffix = &s[1..];
    if suffix.is_empty() {
        let den = c.total_occurrences + c.total_sessions;
        if den == 0 {
            return 1.0;
        }
        return (c.total_sessions as f64 / den as f64).max(1e-6);
    }
    match c.entries.get(suffix) {
        None => 1.0,
        Some(e) if e.total == 0 => 1.0,
        Some(e) => (e.at_start as f64 / e.total as f64).max(1e-6),
    }
}

#[test]
fn toy_corpus_equivalence_and_paper_numbers() {
    assert_equivalent(&toy_corpus(), None);

    // Golden numbers straight off the trie: P(q0|q1) = 16/20 = 0.8 (Fig 3)
    // and P(q0|[q1,q0]) = 3/10 (Table II).
    let c = WindowCounts::build(&toy_corpus(), None);
    let trie = c.trie();
    let n1 = trie.window(&seq(&[1])).unwrap();
    assert_eq!(
        pairs(trie.continuations(n1)),
        [(QueryId(0), 16), (QueryId(1), 4)]
    );
    assert_eq!(trie.cont_total(n1), 20);
    let n10 = trie.window(&seq(&[1, 0])).unwrap();
    assert_eq!(
        pairs(trie.continuations(n10)),
        [(QueryId(0), 3), (QueryId(1), 7)]
    );
    assert_eq!(trie.cont_total(n10), 10);
}

#[test]
fn toy_corpus_kl_pins_through_training() {
    use sqp_core::{Vmm, VmmConfig};
    // The paper's growth decisions: D_KL(q0‖q1q0) = 0.3449 > 0.1 (added),
    // D_KL(q1‖q0q1) = 0.0837 < 0.1 (rejected). The merged-walk KL on trie
    // slices must reproduce both decisions at ε = 0.1, and flip them at the
    // pinned boundaries.
    let grown = Vmm::train(&toy_corpus(), VmmConfig::with_epsilon(0.1));
    assert!(grown.pst().contains(&seq(&[1, 0])));
    assert!(!grown.pst().contains(&seq(&[0, 1])));
    // ε just below 0.0837 admits q0q1 too.
    let loose = Vmm::train(&toy_corpus(), VmmConfig::with_epsilon(0.0836));
    assert!(loose.pst().contains(&seq(&[0, 1])));
    // ε just above 0.3449 rejects even q1q0.
    let tight = Vmm::train(&toy_corpus(), VmmConfig::with_epsilon(0.345));
    assert!(!tight.pst().contains(&seq(&[1, 0])));
}

#[test]
fn bounded_depths_match_on_toy() {
    for d in [1, 2, 3] {
        assert_equivalent(&toy_corpus(), Some(d));
    }
}

#[test]
fn simulated_corpora_match() {
    for (n, seed) in [(2_000usize, 7u64), (5_000, 42)] {
        let sessions = sqp_soak::bench_sessions(n, seed);
        for max_len in [None, Some(1), Some(2), Some(4)] {
            assert_equivalent(&sessions, max_len);
        }
    }
}

#[test]
fn randomized_small_corpora_match() {
    use sqp_common::rng::{Rng, StdRng};
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let n = rng.random_range(1usize..30);
        let mut map = std::collections::HashMap::new();
        for _ in 0..n {
            let len = rng.random_range(1usize..6);
            let s: QuerySeq = (0..len)
                .map(|_| QueryId(rng.random_range(0u32..7)))
                .collect();
            *map.entry(s).or_insert(0u64) += rng.random_range(1u64..15);
        }
        let sessions: Vec<(QuerySeq, u64)> = map.into_iter().collect();
        let max_len = if rng.random_bool(0.5) {
            None
        } else {
            Some(rng.random_range(1usize..5))
        };
        assert_equivalent(&sessions, max_len);
    }
}
