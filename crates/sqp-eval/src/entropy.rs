//! Prediction-entropy analysis — Figure 2 of the paper.
//!
//! For every training context of length L, the base-10 entropy of its
//! next-query distribution is computed; averaging (weighted by context
//! occurrences) over all contexts of each length yields the curve that drops
//! as context grows — the paper's motivation that "the probability of each
//! query conditionally depends on the sequence of past queries as a whole".

use sqp_common::math::entropy_of_counts;
use sqp_common::QuerySeq;
use sqp_core::counts::WindowCounts;

/// `(context length, average prediction entropy, contexts measured)` rows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EntropyPoint {
    /// Context length (number of past queries).
    pub context_len: usize,
    /// Occurrence-weighted mean entropy (base 10).
    pub mean_entropy: f64,
    /// Number of distinct contexts contributing.
    pub contexts: usize,
}

/// Compute the Figure 2 curve over a weighted training corpus.
pub fn entropy_by_context_length(
    sessions: &[(QuerySeq, u64)],
    max_len: usize,
) -> Vec<EntropyPoint> {
    let counts = WindowCounts::build(sessions, Some(max_len));
    let trie = counts.trie();
    let mut acc: Vec<(f64, u64, usize)> = vec![(0.0, 0, 0); max_len + 1];
    for node in counts.candidate_nodes(1, None) {
        let len = trie.depth(node);
        if len > max_len {
            continue;
        }
        let weight = trie.cont_total(node);
        let h = entropy_of_counts(trie.continuations(node).1.iter().copied());
        acc[len].0 += h * weight as f64;
        acc[len].1 += weight;
        acc[len].2 += 1;
    }
    (1..=max_len)
        .map(|len| EntropyPoint {
            context_len: len,
            mean_entropy: if acc[len].1 == 0 {
                0.0
            } else {
                acc[len].0 / acc[len].1 as f64
            },
            contexts: acc[len].2,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_common::seq;

    #[test]
    fn paper_java_example_shape() {
        // "Java" alone is ambiguous (60/40 split); with "Indonesia" before
        // it, the split is 9/1 — entropy must drop.
        let corpus = vec![
            (seq(&[0, 1]), 60),   // java -> sun java
            (seq(&[0, 2]), 40),   // java -> java island
            (seq(&[3, 0, 2]), 9), // indonesia -> java -> java island
            (seq(&[3, 0, 1]), 1), // indonesia -> java -> sun java
        ];
        let pts = entropy_by_context_length(&corpus, 2);
        assert_eq!(pts.len(), 2);
        assert!(pts[0].mean_entropy > pts[1].mean_entropy);
        assert!(pts[1].contexts >= 1);
    }

    #[test]
    fn deterministic_continuations_have_zero_entropy() {
        let corpus = vec![(seq(&[0, 1]), 10), (seq(&[2, 3]), 5)];
        let pts = entropy_by_context_length(&corpus, 1);
        assert!(pts[0].mean_entropy.abs() < 1e-12);
        assert_eq!(pts[0].contexts, 2);
    }

    #[test]
    fn uniform_two_way_split_is_log10_two() {
        let corpus = vec![(seq(&[0, 1]), 5), (seq(&[0, 2]), 5)];
        let pts = entropy_by_context_length(&corpus, 1);
        assert!((pts[0].mean_entropy - (2f64).log10()).abs() < 1e-9);
    }

    #[test]
    fn empty_corpus_gives_zero_rows() {
        let pts = entropy_by_context_length(&[], 3);
        assert_eq!(pts.len(), 3);
        for p in pts {
            assert_eq!(p.contexts, 0);
            assert_eq!(p.mean_entropy, 0.0);
        }
    }

    #[test]
    fn curve_decreases_on_simulated_logs() {
        // The headline property of Figure 2 on generator output.
        let logs = sqp_logsim::generate(&sqp_logsim::SimConfig::small(6_000, 100, 9));
        let processed = sqp_sessions::process(&logs, &sqp_sessions::PipelineConfig::default());
        let pts = entropy_by_context_length(&processed.train.aggregated.sessions, 3);
        assert!(
            pts[0].mean_entropy > pts[2].mean_entropy,
            "entropy did not drop: {pts:?}"
        );
    }
}
